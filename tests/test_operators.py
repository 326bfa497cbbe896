"""Constructions, gap rules for unions, lex order, near-cone certificates."""

import random
from collections import Counter

import pytest

from shiftkit import Face, SimplicialComplex, shifted
from shiftkit.complexes import iter_k_subsets, vertex_tuple
from shiftkit.operators import (
    antistar,
    clique_sum_shift,
    cone,
    d_value,
    disjoint_union,
    disjoint_union_shift,
    intersection,
    join,
    lex_compare,
    link,
    near_cone_analyze,
    shifted_union_recursive,
    suspension,
    union,
)
from shiftkit.sampling import (
    all_complexes,
    glue,
    random_complex,
    random_shifted,
)
from shiftkit.suites import join_top_count_check, near_cone_decomposition_check
from test_suites import union_interval_check


def facet_sets(K):
    return sorted(sorted(f.vertices) for f in K.facets())


def edge():
    return SimplicialComplex.from_facets(2, [[1, 2]])


def two_points():
    return SimplicialComplex.from_facets(2, [[1], [2]])


# ---------------------------------------------------------------- building


def test_disjoint_union_relabels_second_operand():
    B = disjoint_union(edge(), edge())
    assert B.n == 4
    assert facet_sets(B) == [[1, 2], [3, 4]]


def test_union_and_intersection_share_labels():
    K = SimplicialComplex.from_facets(4, [[1, 2], [2, 3]])
    L = SimplicialComplex.from_facets(4, [[2, 3], [3, 4]])
    assert facet_sets(union(K, L)) == [[1, 2], [2, 3], [3, 4]]
    assert facet_sets(intersection(K, L)) == [[2, 3]]


def test_join_of_two_edges_is_a_solid_tetrahedron():
    J = join(edge(), edge())
    assert J.n == 4
    assert facet_sets(J) == [[1, 2, 3, 4]]
    assert J.f_vector == (1, 4, 6, 4, 1)


def test_cone_apex_is_label_one():
    C = cone(two_points())
    assert facet_sets(C) == [[1, 2], [1, 3]]
    # coning twice fills the triangle
    assert facet_sets(cone(edge())) == [[1, 2, 3]]


def test_suspension_adds_two_points_above():
    S = suspension(SimplicialComplex.point())
    assert S.n == 3
    assert facet_sets(S) == [[1, 2], [1, 3]]


def test_link_and_antistar_on_triangle_boundary():
    K = SimplicialComplex.from_facets(3, [[1, 2], [1, 3], [2, 3]])
    assert facet_sets(link(K, Face.of(1))) == [[2], [3]]
    assert facet_sets(antistar(K, Face.of(1))) == [[2, 3]]
    with pytest.raises(ValueError, match="face"):
        link(K, Face.of(1, 2, 3))
    with pytest.raises(ValueError, match="face"):
        antistar(cone(two_points()), Face.of(2, 3))


# ---------------------------------------------------------------- gap rules


def last_gap(S):
    # the difference between the two largest vertices; singletons measure
    # from 0
    vs = vertex_tuple(S)
    if not vs:
        raise ValueError("face must be nonempty")
    return vs[-1] if len(vs) == 1 else vs[-1] - vs[-2]


def test_last_gap_frozen():
    assert last_gap(int(Face.of(4))) == 4
    assert last_gap(int(Face.of(2, 5))) == 3
    assert last_gap(int(Face.of(1, 2, 3))) == 1
    with pytest.raises(ValueError):
        last_gap(0)


def test_interval_counts_on_a_frozen_shift():
    K33 = SimplicialComplex.from_facets(
        6, [[i, j] for i in (1, 2, 3) for j in (4, 5, 6)]
    )
    D = shifted(K33)
    assert d_value(D, int(Face.of(3))) == 6
    assert d_value(D, int(Face.of(1, 4))) == 5
    assert d_value(D, int(Face.of(2, 5))) == 3
    assert d_value(D, int(Face.of(3, 4))) == 1
    with pytest.raises(ValueError, match="shifted"):
        d_value(K33, int(Face.of(1, 4)))


def test_gap_against_interval_count_decides_membership():
    # on a shifted complex the faces with a fixed lex head form a prefix,
    # so the last gap against the head's count is exactly membership
    rng = random.Random(909)
    for _ in range(20):
        D = random_shifted(rng, rng.randint(2, 6))
        if D.dim < 0:
            continue
        for k in range(1, len(D.f_vector) + 1):
            for S in iter_k_subsets(D.n, k):
                inside = S in D
                assert inside == (last_gap(S) <= d_value(D, S))


def test_disjoint_union_rule_frozen():
    e = shifted(edge())
    D = disjoint_union_shift(e, e)
    assert D.n == 4
    assert sorted(sorted(f.vertices) for f in D.all_faces()) == [
        [], [1], [1, 2], [1, 3], [2], [3], [4],
    ]
    assert shifted_union_recursive(e, e) == D


def test_union_rules_match_the_engine_on_random_pairs():
    rng = random.Random(1414)
    for _ in range(15):
        K = random_complex(rng, rng.randint(1, 4))
        L = random_complex(rng, rng.randint(1, 4))
        if K.is_void or L.is_void:
            continue
        DK, DL = shifted(K), shifted(L)
        want = shifted(disjoint_union(K, L))
        assert disjoint_union_shift(DK, DL) == want
        assert shifted_union_recursive(DK, DL) == want


def test_union_rules_require_shifted_operands():
    twisted = SimplicialComplex.from_facets(3, [[2, 3]])
    with pytest.raises(ValueError, match="shifted"):
        disjoint_union_shift(twisted, twisted)
    with pytest.raises(ValueError, match="shifted"):
        shifted_union_recursive(twisted, twisted)
    with pytest.raises(ValueError, match="shifted"):
        clique_sum_shift(twisted, twisted, 0)


def test_clique_sum_rule_two_triangles_along_an_edge():
    tri = shifted(SimplicialComplex.from_facets(3, [[1, 2, 3]]))
    got = clique_sum_shift(tri, tri, 1)
    assert got == SimplicialComplex.from_facets(4, [[1, 2, 3], [1, 2, 4]])
    with pytest.raises(ValueError, match="at least -1"):
        clique_sum_shift(tri, tri, -2)
    with pytest.raises(ValueError, match="dimension"):
        clique_sum_shift(tri, tri, 3)


def test_clique_sum_rule_degenerates_to_disjoint_union():
    e = shifted(edge())
    assert clique_sum_shift(e, e, -1) == disjoint_union_shift(e, e)


def test_clique_sum_rule_matches_engine_on_glued_instances():
    rng = random.Random(77)
    done = 0
    while done < 10:
        A = random_complex(rng, rng.randint(2, 4))
        if A.is_void or A.dim < 0:
            continue
        d = rng.randint(-1, min(A.dim, 1))
        sigmas = A.faces_of_size(d + 1)
        sigma = sigmas[rng.randrange(len(sigmas))]
        B = union(
            random_complex(rng, rng.randint(max(d + 1, 1), 4)),
            SimplicialComplex.complete(d + 1),
        )
        glued = glue(A, B, sigma)
        want = shifted(glued)
        got = clique_sum_shift(shifted(A), shifted(B), d)
        assert got == want
        done += 1


def test_union_rules_on_every_pair_of_small_shifted_complexes():
    # every ordered pair of shifted complexes on 1..3 vertices, {[]} included,
    # and every clique dimension the pair admits
    pool = [D for n in range(1, 4) for D in all_complexes(n) if D.is_shifted()]
    assert len(pool) == 15
    for DK in pool:
        for DL in pool:
            assert disjoint_union_shift(DK, DL) == shifted_union_recursive(DK, DL)
            for d in range(min(DK.dim, DL.dim) + 1):
                g = glue(DK, DL, (1 << (d + 1)) - 1)
                assert clique_sum_shift(DK, DL, d) == shifted(g)


def test_disjoint_union_rule_on_void_operands():
    void = SimplicialComplex(2, ())
    empty_face = SimplicialComplex(1, (0,))
    e = shifted(edge())
    cases = [
        (void, void, SimplicialComplex(4, ())),
        (void, empty_face, SimplicialComplex(3, (0,))),
        (empty_face, void, SimplicialComplex(3, (0,))),
        (empty_face, e, SimplicialComplex.from_facets(3, [[1, 2]])),
        (e, empty_face, SimplicialComplex.from_facets(3, [[1, 2]])),
    ]
    for a, b, want in cases:
        assert disjoint_union_shift(a, b) == want
        assert shifted_union_recursive(a, b) == disjoint_union_shift(a, b)
        assert clique_sum_shift(a, b, -1) == want


def test_disjoint_union_theorem_on_every_small_pair():
    # the paper's theorem, shift(K + L) = shift(shift K + shift L), read
    # through the gap rule on every pair of all_complexes(3) x
    # all_complexes(4), {[]} included; the rule is the clique-sum rule at
    # d = -1
    small, large = list(all_complexes(3)), list(all_complexes(4))
    assert (len(small), len(large)) == (19, 167)
    shifts = {K: shifted(K) for K in small + large}
    for K in small:
        for L in large:
            want = shifted(disjoint_union(K, L))
            assert disjoint_union_shift(shifts[K], shifts[L]) == want
            assert clique_sum_shift(shifts[K], shifts[L], -1) == want


# ---------------------------------------------------------------- lex order


def test_lex_compare_cases():
    e = shifted(edge())
    two = disjoint_union_shift(e, e)
    path = shifted(SimplicialComplex.from_facets(4, [[1, 2], [2, 3], [3, 4]]))
    assert lex_compare(two, two) == "equal"
    assert lex_compare(path, two) == "less"
    assert lex_compare(two, path) == "greater"
    # K wins on edges, L wins on vertices
    K = SimplicialComplex.from_facets(2, [[1, 2]])
    L = SimplicialComplex.from_facets(3, [[1, 3], [2]])
    assert lex_compare(K, L) == "incomparable"


def lex_compare_by_sets(K, L):
    """``lex_compare`` by definition: per size, from size 0 up, the lex-first
    face of the symmetric difference of the two face sets, found as the
    least vertex tuple."""
    k_wins = l_wins = False
    for k in range(max(len(K.f_vector), len(L.f_vector))):
        ks = set(map(int, K.faces_of_size(k)))
        ls = set(map(int, L.faces_of_size(k)))
        diff = ks ^ ls
        if not diff:
            continue
        if min(diff, key=vertex_tuple) in ks:
            k_wins = True
        else:
            l_wins = True
    wins = {(False, False): "equal", (True, False): "less", (False, True): "greater"}
    return wins.get((k_wins, l_wins), "incomparable")


def test_lex_compare_tells_the_void_complex_from_the_empty_face():
    void, empty = SimplicialComplex(3), SimplicialComplex(3, [0])
    assert lex_compare(void, empty) == "greater"
    assert lex_compare(empty, void) == "less"
    assert lex_compare(void, void) == lex_compare(empty, empty) == "equal"


def test_lex_compare_matches_the_set_definition():
    rng = random.Random(2203)
    seen = Counter()
    for _ in range(300):
        K = random_complex(rng, rng.randint(1, 8))
        L = random_complex(rng, rng.randint(1, 8))
        # void or {∅}: no faces of size 1 or more
        bare, bare2 = (SimplicialComplex(rng.randint(0, 8), rng.choice([(), [0]])) for _ in "ab")
        pairs = [(K, L), (K, K), (K, union(K, L)), (intersection(K, L), L), (K, bare), (bare, bare2)]
        for a, b in pairs:
            rel = lex_compare(a, b)
            assert rel == lex_compare_by_sets(a, b), (a, b)
            seen[rel] += 1
    assert min(seen[rel] for rel in ("equal", "less", "greater", "incomparable")) >= 50, seen


# ---------------------------------------------------------------- near cones


def test_two_disjoint_edges_are_not_a_near_cone():
    B = SimplicialComplex.from_facets(4, [[1, 2], [3, 4]])
    cert = near_cone_analyze(B)
    assert cert.depth == 0
    assert cert.chain == (B,)
    with pytest.raises(ValueError, match="near cone"):
        near_cone_decomposition_check(B, 1)


def test_shifted_complexes_carry_a_full_apex_chain():
    rng = random.Random(31)
    for _ in range(10):
        D = random_shifted(rng, rng.randint(2, 6))
        if D.dim < 0:
            continue
        cert = near_cone_analyze(D)
        assert cert.depth == D.num_vertices
        assert cert.apexes == tuple(range(1, D.num_vertices + 1))


def test_cone_decomposition_check_passes():
    K = cone(SimplicialComplex.from_facets(4, [[1, 2], [3, 4]]))
    assert near_cone_decomposition_check(K, 1)


# ---------------------------------------------------------------- counts


def test_union_interval_counts_on_two_triangles_sharing_a_vertex():
    K = SimplicialComplex.from_facets(5, [[1, 2, 3]])
    L = SimplicialComplex.from_facets(5, [[3, 4, 5]])
    assert union_interval_check(K, L, int(Face.of(1))) == (2, 2)
    lhs, rhs = union_interval_check(K, L, int(Face.of(2)))
    assert lhs == rhs


def test_join_top_counts_for_a_four_cycle():
    pts = two_points()
    assert join_top_count_check(pts, pts, 0) == (4, 4)
    assert join_top_count_check(pts, pts, 1) == (1, 1)
    with pytest.raises(ValueError):
        join_top_count_check(pts, pts, -1)
