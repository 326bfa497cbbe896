"""Shifts known without the scan, on inputs up to the 64-vertex cap.

Stacked spheres and triangulated 2-spheres have a closed-form shift, and a
mod-q Moore space is acyclic away from q.  The generators live here, not in
the package.  The spheres' formula is an observation (stacked spheres are
the equality case of the lower bound theorem; see G. Kalai, "Algebraic
shifting", Adv. Stud. Pure Math. 33, 2002), pinned here on three primes:
2^61 - 1, 10007, whose rows are reduced by folds in narrow slots, and
2^60 + 33, whose rows are reduced slot by slot.  The 64-vertex cases run in
CI; ``python tests/test_known_shifts.py`` runs them too.
"""

import random
from itertools import combinations

import pytest

from shiftkit import DEFAULT_PRIME, SimplicialComplex, ValidationFailure, betti_from_shifted, shifted
from shiftkit.homology import betti_direct
from shiftkit.sampling import random_permutation

PRIMES = (DEFAULT_PRIME, 10007, (1 << 60) + 33)


def stacked_sphere(rng, d, n):
    """A stacked d-sphere on [n], n >= d + 2: the boundary of a
    (d + 1)-simplex, then n - d - 2 stellar subdivisions of random facets,
    then a random relabelling."""
    facets = [set(f) for f in combinations(range(1, d + 3), d + 1)]
    for v in range(d + 3, n + 1):
        split = facets.pop(rng.randrange(len(facets)))
        facets += [split - {u} | {v} for u in split]
    return SimplicialComplex.from_facets(n, facets).permuted(random_permutation(rng, n))


def flipped_sphere(rng, n, flips):
    """A triangulated 2-sphere on [n], n >= 5: the bipyramid over an
    (n - 2)-gon, then ``flips`` random edge flips, each replacing the two
    triangles xyz and xyw on an edge xy by zwx and zwy when zw is not an
    edge already (a vertex of degree 3 has every such zw), then a random
    relabelling."""
    ring = n - 2
    facets = {frozenset((apex, 1 + i, 1 + (i + 1) % ring)) for apex in (n - 1, n) for i in range(ring)}
    for _ in range(flips):
        x, y, z = rng.sample(rng.choice(sorted(map(sorted, facets))), 3)
        (w,) = next(f for f in facets if {x, y} < f and z not in f) - {x, y}
        if any({z, w} < f for f in facets):
            continue
        facets -= {frozenset((x, y, z)), frozenset((x, y, w))}
        facets |= {frozenset((z, w, x)), frozenset((z, w, y))}
    return SimplicialComplex.from_facets(n, facets).permuted(random_permutation(rng, n))


def sphere_shift(d, n):
    """The shift of a stacked d-sphere on [n], m = d + 1: the facets
    {1} + T + {x}, T a (m - 2)-subset of [2, m] and max T < x <= n, and
    [2, m + 1]."""
    m = d + 1
    facets = [[1, *T, x] for T in combinations(range(2, m + 1), m - 2) for x in range(max(T) + 1, n + 1)]
    return SimplicialComplex.from_facets(n, facets + [range(2, m + 2)])


def moore_space(q):
    """M(Z/q, 1) on 3q + 4 vertices: a disk whose 3q-gon boundary c_0..c_(3q-1)
    wraps the circle 1, 2, 3 q times, coned off at the centre 3q + 4."""
    ring = 3 * q

    def a(i):
        return 1 + i % 3

    def c(i):
        return 4 + i % ring

    facets = []
    for i in range(ring):
        facets += [(a(i), a(i + 1), c(i)), (a(i + 1), c(i), c(i + 1)), (c(i), c(i + 1), ring + 4)]
    return SimplicialComplex.from_facets(ring + 4, facets)


@pytest.mark.parametrize("p", PRIMES)
def test_stacked_spheres_shift_to_the_closed_form(p):
    rng = random.Random(p)
    for d in (2, 3, 4):
        for n in range(d + 2, 17):
            K = stacked_sphere(rng, d, n)
            assert len(K.faces_of_size(d + 1)) == d + 2 + d * (n - d - 2)
            assert shifted(K, p=p) == sphere_shift(d, n), (d, n)


@pytest.mark.parametrize("p", PRIMES)
def test_flipped_2_spheres_shift_to_the_closed_form(p):
    rng = random.Random(p)
    for n in (5, 6, 7, 9, 12, 16, 23, 32):
        K = flipped_sphere(rng, n, 10 * n)
        assert K.f_vector == (1, n, 3 * n - 6, 2 * n - 4)
        assert shifted(K, p=p) == sphere_shift(2, n), n


def test_moore_spaces_are_acyclic_away_from_q():
    for q in (3, 5, 7):
        K = moore_space(q)
        assert K.f_vector == (1, 3 * q + 4, 12 * q + 3, 9 * q)
        D = shifted(K)
        for p in (10007, (1 << 60) + 33):
            for seed in range(4):
                assert shifted(K, seed, p) == D, (q, p, seed)
        assert betti_from_shifted(D) == (0, 0, 0, 0)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: at p = q a shift can keep its f-vector and be shifted "
    "yet claim Betti numbers the complex does not have over GF(q)",
)
def test_moore_spaces_shift_with_their_betti_numbers_at_q():
    # at p = q the complex has Betti numbers (0, 0, 1, 1) over GF(q): a
    # shift must show them, or fail validation
    for q in (3, 5, 7):
        K = moore_space(q)
        want = betti_direct(K, q)
        assert want == (0, 0, 1, 1)
        for seed in range(4):
            try:
                D = shifted(K, seed, q)
            except ValidationFailure:
                continue
            assert betti_from_shifted(D) == want, (q, seed)


def check_at_the_cap():
    """The 64-vertex stacked 3-sphere and flipped 2-sphere at every prime
    of ``PRIMES``."""
    rng = random.Random(64)
    stacked = stacked_sphere(rng, 3, 64)
    assert stacked.f_vector == (1, 64, 246, 364, 182)
    flipped = flipped_sphere(rng, 64, 1280)
    assert flipped.f_vector == (1, 64, 186, 124)
    for p in PRIMES:
        assert shifted(stacked, p=p) == sphere_shift(3, 64), p
        assert shifted(flipped, p=p) == sphere_shift(2, 64), p
    print(f"stacked 3-sphere and flipped 2-sphere on 64 vertices match the closed form at p = {PRIMES}")


if __name__ == "__main__":
    check_at_the_cap()
