import random

import pytest

from shiftkit import Face, SimplicialComplex
from shiftkit.complexes import iter_k_subsets, iter_vertices
from shiftkit.homology import is_near_cone
from shiftkit.sampling import (
    all_complexes,
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


def _near_cone_by_all_subsets(rng, n):
    """``random_near_cone`` as an oracle: every subset of {2..n} is tried
    as an extra face."""
    drawn = random_complex(rng, n - 1, max_size=4)
    base = SimplicialComplex(drawn.n + 1, (f << 1 for f in drawn.face_set()))
    faces = set(base.all_faces())
    faces.update(Face(int(m) | 1) for m in base.all_faces())
    base_faces = base.face_set()
    candidates = []
    for size in range(1, n):
        for m in iter_k_subsets(n - 1, size):
            m <<= 1  # a subset of {2..n}, in lex order
            if m in base_faces:
                continue
            if all(m & ~(1 << (v - 1)) in base_faces for v in iter_vertices(m)):
                candidates.append(m)
    extras = rng.randint(0, 3)
    faces.update(rng.sample(candidates, min(extras, len(candidates))))
    return SimplicialComplex(n, faces)


def test_random_near_cone_matches_the_all_subsets_scan():
    with_extras = 0
    for s in range(6):
        for n in range(2, 13):
            rng, twin = random.Random(s), random.Random(s)
            K = random_near_cone(rng, n)
            assert K == _near_cone_by_all_subsets(twin, n), (s, n)
            assert rng.getstate() == twin.getstate(), (s, n)
            # an extra face avoids the apex and is not in the cone's base
            with_extras += any(not f & 1 and f | 1 not in K for f in K.face_set())
    assert with_extras >= 40


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


def _closed_families_by_all_subfamilies(n):
    """``all_complexes`` as an oracle: every subfamily of the nonempty sets
    of [n] is tried, and the closed ones kept."""
    masks = range(1, 1 << n)
    for bits in range(1 << len(masks)):
        chosen = {m for i, m in enumerate(masks) if bits >> i & 1}
        try:
            yield SimplicialComplex(n, chosen | {0})
        except ValueError:  # not downward closed
            continue


def test_all_complexes_matches_the_all_subfamilies_scan():
    for n in range(5):
        families = [K.face_set() for K in all_complexes(n)]
        assert len(set(families)) == len(families)
        assert set(families) == {K.face_set() for K in _closed_families_by_all_subfamilies(n)}


def test_exhaustive_count_at_five_is_dedekind_less_void():
    # M(5) = 7,581 antichains of subsets of [5]; the void family is not yielded
    families = [K.face_set() for K in all_complexes(5)]
    assert len(families) == len(set(families)) == 7580


def test_all_complexes_yields_closed_families():
    seen = set()
    for K in all_complexes(3):
        assert K.n == 3
        seen.add(K.face_set())
    assert len(seen) == 19


def test_shifted_census_small():
    assert len([K for K in all_complexes(3) if K.is_shifted()]) == 9
    census = [K for K in all_complexes(4) if K.is_shifted()]
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
