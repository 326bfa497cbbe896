import random

import pytest

from shiftkit import Face, SimplicialComplex
from shiftkit.homology import is_near_cone
from shiftkit.sampling import (
    all_complexes,
    all_shifted_complexes,
    glue,
    random_complex,
    random_near_cone,
    random_permutation,
    random_shifted,
)


def test_random_complexes_are_valid_and_bounded():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(1, 8)
        K = random_complex(rng, n)
        assert K.n == n
        # constructor re-validates closure, so reaching here is the check
        assert all(len(f.vertices) <= 6 for f in K.facets())


def test_random_shifted_is_shifted():
    rng = random.Random(5)
    for _ in range(25):
        assert random_shifted(rng, rng.randint(1, 7)).is_shifted()


def test_random_near_cone_certifies_at_one():
    rng = random.Random(8)
    for _ in range(25):
        K = random_near_cone(rng, rng.randint(2, 7))
        assert is_near_cone(K, 1)


def test_random_permutation_is_a_bijection():
    rng = random.Random(3)
    perm = random_permutation(rng, 9)
    assert sorted(perm) == list(range(1, 10))
    assert sorted(perm.values()) == list(range(1, 10))


def test_exhaustive_counts_small():
    # 1 empty-only + 1 one-vertex family on [1]; similar closures stack up
    assert sum(1 for _ in all_complexes(1)) == 2
    assert sum(1 for _ in all_complexes(2)) == 5
    assert sum(1 for _ in all_complexes(3)) == 19
    assert sum(1 for _ in all_complexes(4)) == 167


def test_all_complexes_yields_closed_families():
    seen = set()
    for K in all_complexes(3):
        assert K.n == 3
        seen.add(K.face_set())
    assert len(seen) == 19


def test_shifted_census_small():
    assert len(all_shifted_complexes(3)) == 9
    census = all_shifted_complexes(4)
    assert len(census) == 26
    assert all(D.is_shifted() for D in census)


def test_glue_identifies_the_shared_simplex():
    A = SimplicialComplex.from_facets(3, [[1, 2, 3]])
    B = SimplicialComplex.from_facets(3, [[1, 2], [1, 3], [2, 3]])
    glued = glue(A, B, int(Face.of(2, 3)))
    # B's edge {1,2} lands on {2,3}; its third vertex becomes 4
    assert glued.n == 4
    assert sorted(sorted(f.vertices) for f in glued.facets()) == [
        [1, 2, 3], [2, 4], [3, 4],
    ]


def test_glue_validates_operands():
    A = SimplicialComplex.from_facets(3, [[1, 2, 3]])
    missing = SimplicialComplex.from_facets(3, [[1, 3]])
    with pytest.raises(ValueError):
        glue(A, missing, int(Face.of(1, 2)))
    with pytest.raises(ValueError):
        glue(missing, A, int(Face.of(1, 2)))
