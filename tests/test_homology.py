"""Contractions, wedges, boundary matrices, and Betti numbers."""

import random

import pytest

from shiftkit.complexes import EMPTY_FACE, Face, SimplicialComplex
from shiftkit.engine import exterior_shift, shifted
from shiftkit.field import ExplicitSpec, FieldMatrix
from shiftkit.homology import (
    betti_direct,
    betti_from_shifted,
    boundary_matrix,
    interior_matrix,
    interior_sign,
    is_near_cone,
    sarkaria_maps,
    wedge_elements,
    wedge_sign,
)
from shiftkit.sampling import random_complex, random_near_cone

P = 10007


def interior_product(t, s):
    """Contract ``e_T`` out of ``e_S``: ``(sign, Face(S - T))`` when ``T``
    is a subset of ``S``, else ``None`` (the product is zero)."""
    t, s = int(t), int(s)
    if t & ~s:
        return None
    return interior_sign(t, s), Face(s & ~t)


def test_interior_sign_frozen_cases():
    # contracting {1,2,3} by {2} leaves -e_{13}: one smaller survivor (1)
    # sits below the contracted vertex
    assert interior_sign(Face.of(2), Face.of(1, 2, 3)) == -1
    assert interior_sign(Face.of(1), Face.of(1, 2, 3)) == 1
    assert interior_sign(Face.of(3), Face.of(1, 2, 3)) == 1
    assert interior_sign(Face.of(1, 2), Face.of(1, 2, 3)) == 1
    # removing {2,3} leaves {1}, which sits below both: no inversions
    assert interior_sign(Face.of(2, 3), Face.of(1, 2, 3)) == 1


def test_interior_product_values():
    assert interior_product(Face.of(2), Face.of(1, 2, 3)) == (-1, Face.of(1, 3))
    assert interior_product(Face.of(1), Face.of(1, 2, 3)) == (1, Face.of(2, 3))
    assert interior_product(Face.of(1, 4), Face.of(1, 2, 3)) is None
    assert interior_product(EMPTY_FACE, Face.of(2)) == (1, Face.of(2))


def test_wedge_signs_and_overlap():
    assert wedge_sign(Face.of(1), Face.of(2)) == 1
    assert wedge_sign(Face.of(2), Face.of(1)) == -1
    assert wedge_sign(Face.of(1, 3), Face.of(2)) == -1
    assert wedge_sign(Face.of(2, 4), Face.of(1, 3)) == -1  # three inversions
    # e_S ^ e_T is wedge_sign(S, T) e_(S | T), and 0 on overlapping faces
    assert wedge_elements({Face.of(1, 3): 1}, {Face.of(2): 1}, P) == {Face.of(1, 2, 3): P - 1}
    assert wedge_elements({Face.of(1, 2): 1}, {Face.of(2, 3): 1}, P) == {}


def test_wedge_is_antisymmetric_up_to_cardinality_sign():
    rng = random.Random(3)
    for _ in range(100):
        s = Face.from_vertices(rng.sample(range(1, 9), rng.randint(1, 3)))
        rest = [v for v in range(1, 9) if v not in s]
        t = Face.from_vertices(rng.sample(rest, rng.randint(1, 3)))
        sign_st, sign_ts = wedge_sign(s, t), wedge_sign(t, s)
        assert sign_st == sign_ts * (-1) ** (len(s) * len(t))
        assert wedge_elements({s: 1}, {t: 1}, P) == {s | t: sign_st % P}
        assert wedge_elements({t: 1}, {s: 1}, P) == {s | t: sign_ts % P}


def test_wedge_elements_dict_arithmetic():
    x = {int(Face.of(1)): 2, int(Face.of(2)): 1}
    y = {int(Face.of(2)): 3}
    out = wedge_elements(x, y, P)
    assert out == {int(Face.of(1, 2)): 6}  # e2 ^ e2 vanishes


def test_wedge_elements_on_overlapping_supports():
    # the supports share faces and vertices: (e12 + 2 e1) ^ (e23 + 5 e3)
    # keeps only the disjoint pairs, e1 ^ e23 and e12 ^ e3 meet on e123 and
    # e1 ^ e3 gives e13; e12 ^ e23 vanishes
    x = {int(Face.of(1, 2)): 1, int(Face.of(1)): 2}
    y = {int(Face.of(2, 3)): 1, int(Face.of(3)): 5}
    assert wedge_elements(x, y, P) == {int(Face.of(1, 2, 3)): 7, int(Face.of(1, 3)): 10}
    # e1 ^ e2 + e2 ^ e1 cancels, so the entry is dropped, not kept as 0;
    # e1 ^ e1 and e2 ^ e2 vanish
    z = {int(Face.of(1)): 1, int(Face.of(2)): 1}
    assert wedge_elements(z, z, P) == {}


def test_interior_matrix_on_triangle_boundary():
    K = SimplicialComplex.from_facets(3, [[1, 2], [1, 3], [2, 3]])
    elem = {int(Face.of(1)): 1, int(Face.of(2)): 1, int(Face.of(3)): 1}
    m = interior_matrix(K, elem, 2, P)
    # columns follow lex order 12, 13, 23; rows are the vertices; the sign
    # counts surviving vertices above the removed one
    assert m.rows == (
        (1, 1, 0),
        (P - 1, 0, 1),
        (0, P - 1, P - 1),
    )


def test_boundary_squares_to_zero():
    rng = random.Random(4)
    for _ in range(25):
        K = random_complex(rng, rng.randint(2, 7))
        g = None
        if rng.random() < 0.5:
            g = {v: rng.randrange(P) for v in K.support}
        for k in range(2, len(K.f_vector)):
            d1 = boundary_matrix(K, g, k, P)
            d0 = boundary_matrix(K, g, k - 1, P)
            prod = d0 @ d1
            assert all(not any(row) for row in prod.rows)


def test_boundary_matrix_on_vertex_free_complex():
    # defaulting g over an empty support contracts by the zero element
    K = SimplicialComplex(3, [0])
    m = boundary_matrix(K, None, 0, P)
    assert m.nrows == m.ncols == 1
    assert not any(any(row) for row in m.rows)


def test_betti_direct_frozen_spaces():
    # two isolated points: one extra connected component
    two = SimplicialComplex.from_facets(2, [[1], [2]])
    assert betti_direct(two, P) == (0, 1)
    # hexagon cycle: a single loop
    hexagon = SimplicialComplex.from_facets(
        6, [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6]])
    assert betti_direct(hexagon, P) == (0, 0, 1)
    # boundary of the 3-simplex: a 2-sphere
    sphere = SimplicialComplex.from_facets(
        4, [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]])
    assert betti_direct(sphere, P) == (0, 0, 0, 1)
    # solid simplex: contractible
    solid = SimplicialComplex.complete(4)
    assert betti_direct(solid, P) == (0, 0, 0, 0, 0)
    # the empty-face complex carries the single reduced class in degree -1
    assert betti_direct(SimplicialComplex(2, [0]), P) == (1,)
    assert betti_direct(SimplicialComplex(2), P) == ()


def test_betti_from_shifted_counts_faces_missing_vertex_one():
    D = SimplicialComplex.from_facets(4, [[1, 2], [1, 3], [4]])
    assert D.is_shifted()
    # {4} is the only face whose 1-swap leaves the complex... check directly
    assert betti_from_shifted(D) == betti_direct(D, P)
    with pytest.raises(ValueError):
        betti_from_shifted(SimplicialComplex.from_facets(3, [[2, 3]]))


def test_betti_routes_agree_on_random_shifted_complexes():
    rng = random.Random(6)
    for _ in range(20):
        D = shifted(random_complex(rng, rng.randint(1, 7)), seed=rng.randrange(999))
        assert betti_from_shifted(D) == betti_direct(D, P)


def test_is_near_cone():
    cone_like = SimplicialComplex.from_facets(3, [[1, 2], [1, 3]])
    assert is_near_cone(cone_like, 1)
    two_edges = SimplicialComplex.from_facets(4, [[1, 2], [3, 4]])
    assert not is_near_cone(two_edges, 1)  # {3,4} cannot trade 3 for 1
    # a shifted complex is a near cone at vertex 1
    assert is_near_cone(SimplicialComplex.from_facets(4, [[1, 2, 3], [1, 4]]), 1)


def test_random_near_cones_satisfy_definition():
    rng = random.Random(7)
    for _ in range(30):
        K = random_near_cone(rng, rng.randint(2, 8))
        assert is_near_cone(K, 1)


def test_sarkaria_maps_shapes_and_guards():
    K = SimplicialComplex.from_facets(3, [[1, 2], [1, 3]])
    U, D = sarkaria_maps(K, {1: 1, 2: 2, 3: 3}, P)
    assert set(U) == set(D) == {0, 1, 2}
    assert U[1].nrows == U[1].ncols == 3
    # unit diagonal for U, inverse alpha products for D
    assert all(U[1].entry(i, i) == 1 for i in range(3))
    assert D[0] == FieldMatrix([[1]], P)
    assert D[1].entry(1, 1) == pow(2, -1, P)
    with pytest.raises(ValueError, match="near cone"):
        sarkaria_maps(SimplicialComplex.from_facets(4, [[1, 2], [3, 4]]), {v: 1 for v in range(1, 5)}, P)
    with pytest.raises(ValueError, match="nonzero"):
        sarkaria_maps(K, {1: 1, 2: 0, 3: 1}, P)


def test_non_integer_entries_and_coefficients_are_refused():
    # a float would be truncated to an integer, so 1.7 would read as 1
    edge = SimplicialComplex.from_facets(2, [[1, 2]])
    tri = SimplicialComplex.from_facets(3, [[1, 2, 3]])
    fan = SimplicialComplex.from_facets(3, [[1, 2], [1, 3]])
    with pytest.raises(TypeError):
        FieldMatrix([[1.7, 0], [0, 1]], 7)
    with pytest.raises(TypeError):
        ExplicitSpec.from_rows([[1.7, 0], [0, 1]])
    with pytest.raises(TypeError):
        exterior_shift(edge, ExplicitSpec(((1.9, 0.0), (0.0, 1.2))))
    with pytest.raises(TypeError):
        boundary_matrix(tri, {1: 1.5, 2: 2.9, 3: 1}, 2, 7)
    with pytest.raises(TypeError):
        sarkaria_maps(fan, {1: 2.7, 2: 1, 3: 1}, P)
    with pytest.raises(TypeError):
        interior_matrix(SimplicialComplex.from_facets(3, [[1, 2]]), {0b100: 1.5}, 1, 7)
    # so is a modulus that is not an odd prime, by the matrix and by
    # betti_direct on entry, also where no boundary matrix is built
    with pytest.raises(TypeError):
        FieldMatrix([[1, 2]], 7.0)
    with pytest.raises(ValueError):
        FieldMatrix([[1, 2], [3, 4]], 9)
    for K in (tri, fan, SimplicialComplex(3, [0]), SimplicialComplex.from_facets(3, [[1], [2]])):
        for bad, error in ((9, ValueError), (2, ValueError), (7.0, TypeError)):
            with pytest.raises(error):
                betti_direct(K, bad)
    # ints, bools and faces are read as before
    assert FieldMatrix([[True, Face.of(2)], [0, -1]], 7).rows == ((1, 2), (0, 6))
    assert ExplicitSpec.from_rows([[True, Face(0)], [0, 1]]).entries == ((1, 0), (0, 1))
    assert boundary_matrix(tri, {1: True, 2: 2, 3: Face.of(1)}, 2, 7) == boundary_matrix(
        tri, {1: 1, 2: 2, 3: 1}, 2, 7
    )
    assert sarkaria_maps(fan, {1: True, 2: 2, 3: 3}, P)[1][1] == sarkaria_maps(
        fan, {1: 1, 2: 2, 3: 3}, P
    )[1][1]


@pytest.mark.parametrize("p", [0, 2, 9, 7.0])
@pytest.mark.parametrize(
    "build",
    [
        lambda K, p: interior_matrix(K, {0b1: 1}, 2, p),
        lambda K, p: boundary_matrix(K, None, 2, p),
        lambda K, p: sarkaria_maps(K, {1: 1, 2: 1, 3: 1}, p),
    ],
    ids=["interior_matrix", "boundary_matrix", "sarkaria_maps"],
)
def test_matrix_builders_check_the_modulus_on_entry(build, p):
    # before any arithmetic mod p, which divides by zero at p = 0, and also
    # where no matrix is built: the void complex has no faces at all
    error = TypeError if isinstance(p, float) else ValueError
    for K in (SimplicialComplex.from_facets(3, [[1, 2, 3]]), SimplicialComplex(3)):
        with pytest.raises(error):
            build(K, p)
