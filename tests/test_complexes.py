"""Face masks, lex order, and the complex container."""

import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftkit.complexes import (
    EMPTY_FACE,
    Face,
    SimplicialComplex,
    extensions,
    init_segment,
    interval,
    iter_k_subsets,
    lex_leq,
    lex_less,
    vertex_tuple,
)
from shiftkit.engine import (
    image_dim_complete,
    kernel_dims_at,
    kernel_intersection_dim,
    lex_tail_count,
    membership_via_kernels,
)
from shiftkit.cli import format_complex
from shiftkit.field import GenericSpec, realize
from shiftkit.homology import interior_matrix, interior_sign, wedge_elements, wedge_sign
from shiftkit.operators import antistar, link
from shiftkit.sampling import (
    all_complexes,
    glue,
    random_complex,
    random_permutation,
    random_shifted,
)


def lex_sorted(masks):
    """Sort same-or-mixed-size masks by (cardinality, lex order)."""
    return sorted(masks, key=lambda m: (int(m).bit_count(), vertex_tuple(m)))


def test_face_construction_and_views():
    f = Face.of(3, 1, 5)
    assert int(f) == 0b10101
    assert f.vertices == (1, 3, 5)
    assert len(f) == 3
    assert list(f) == [1, 3, 5]
    assert 3 in f and 2 not in f
    assert Face.from_vertices([]) == EMPTY_FACE
    assert repr(Face.of(2, 4)) == "Face.of(2, 4)"


def test_face_set_semantics_not_int_arithmetic():
    # a face is its mask: the set operators are the int ones and return
    # plain ints; set difference is a & ~b
    a, b = Face.of(1, 2, 3), Face.of(2, 4)
    for got, want in ((a | b, 0b1111), (a & b, 0b0010), (a ^ b, 0b1101), (a & ~b, 0b0101)):
        assert type(got) is int and got == want
    assert a | b == Face.of(1, 2, 3, 4) and a & ~b == Face.of(1, 3)
    # the complex still hands out Faces, with working vertex views
    K = SimplicialComplex.from_facets(4, [[1, 2, 3], [3, 4]])
    for faces in (K.faces_of_size(2), K.facets(), list(K.all_faces())):
        assert faces and all(type(f) is Face for f in faces)
    assert [f.vertices for f in K.facets()] == [(3, 4), (1, 2, 3)]
    assert [list(f) for f in K.faces_of_size(2)] == [[1, 2], [1, 3], [2, 3], [3, 4]]
    top = K.facets()[-1]
    assert len(top) == 3 and 2 in top and 4 not in top
    assert [len(f) for f in K.all_faces()] == [0, 1, 1, 1, 1, 2, 2, 2, 2, 3]


_K = SimplicialComplex.from_facets(5, [[1, 2, 3], [2, 3, 4], [4, 5]])
_A = realize(GenericSpec(7), 5)
_FACE_TAKERS = [
    pytest.param(lex_less, (Face.of(1, 4), Face.of(2, 3)), id="lex_less"),
    pytest.param(lex_leq, (Face.of(2, 3), Face.of(2, 3)), id="lex_leq"),
    pytest.param(lambda S: init_segment(S, 2), (Face.of(1, 3, 5),), id="init_segment"),
    pytest.param(lambda S: interval(S, 2, 5), (Face.of(2),), id="interval"),
    pytest.param(lambda S: S in _K, (Face.of(2, 4),), id="K.__contains__"),
    pytest.param(lambda S: link(_K, S), (Face.of(3),), id="link"),
    pytest.param(lambda S: antistar(_K, S), (Face.of(2, 3),), id="antistar"),
    pytest.param(interior_sign, (Face.of(2), Face.of(1, 2, 3)), id="interior_sign"),
    pytest.param(lambda s, t: wedge_elements({s: 1}, {t: 3}), (Face.of(1, 3), Face.of(2)), id="wedge"),
    pytest.param(wedge_sign, (Face.of(1, 3), Face.of(2)), id="wedge_sign"),
    pytest.param(
        lambda t, u: interior_matrix(_K, {t: 1, u: 3}, 3),
        (Face.of(2), Face.of(4)),
        id="interior_matrix",
    ),
    pytest.param(lambda S: kernel_dims_at(_K, _A, S), (Face.of(2, 3),), id="kernel_dims_at"),
    pytest.param(
        lambda S: kernel_intersection_dim(_K, _A, S),
        (Face.of(1, 4),),
        id="kernel_intersection_dim",
    ),
    pytest.param(
        lambda S: membership_via_kernels(_K, _A, S), (Face.of(1, 3),), id="membership_via_kernels"
    ),
    pytest.param(lambda S: lex_tail_count(_K, S), (Face.of(2, 3),), id="lex_tail_count"),
    pytest.param(lambda S: image_dim_complete(4, 5, S), (Face.of(2, 3),), id="image_dim_complete"),
    pytest.param(
        lambda sigma: glue(_K, SimplicialComplex.complete(3), sigma), (Face.of(2, 3),), id="glue"
    ),
]


@pytest.mark.parametrize("fn, faces", _FACE_TAKERS)
def test_plain_masks_work_wherever_a_face_does(fn, faces):
    masks = [int(f) for f in faces]
    assert all(type(m) is int for m in masks)
    assert fn(*masks) == fn(*faces)


def test_face_of_rejects_bad_labels():
    with pytest.raises(ValueError):
        Face.of(0)
    with pytest.raises(ValueError):
        Face.of(-2)


def test_lex_less_frozen_cases():
    assert lex_less(Face.of(1, 3), Face.of(2, 3))
    assert lex_less(Face.of(1, 4), Face.of(2, 3))
    assert not lex_less(Face.of(2, 3), Face.of(1, 4))
    assert not lex_less(Face.of(1, 2), Face.of(1, 2))
    assert lex_leq(Face.of(1, 2), Face.of(1, 2))
    with pytest.raises(ValueError):
        lex_less(Face.of(1), Face.of(1, 2))  # different cardinalities


def test_lex_less_matches_sorted_tuple_order():
    rng = random.Random(11)
    for _ in range(200):
        k = rng.randint(1, 4)
        s = Face.from_vertices(rng.sample(range(1, 10), k))
        t = Face.from_vertices(rng.sample(range(1, 10), k))
        assert lex_less(s, t) == (vertex_tuple(s) < vertex_tuple(t))


def test_lex_sorted_orders_by_size_then_lex():
    faces = [Face.of(2), Face.of(1, 3), Face.of(1), Face.of(1, 2), EMPTY_FACE]
    assert lex_sorted(faces) == [
        EMPTY_FACE,
        Face.of(1),
        Face.of(2),
        Face.of(1, 2),
        Face.of(1, 3),
    ]


@given(st.sets(st.integers(1, 8), min_size=1, max_size=4), st.integers(0, 4))
def test_init_segment_is_smallest_vertices(verts, j):
    f = Face.from_vertices(verts)
    if j > len(f):
        with pytest.raises(ValueError):
            init_segment(f, j)
    else:
        assert vertex_tuple(init_segment(f, j)) == f.vertices[:j]


def test_interval_enumerates_extensions_above_max():
    got = interval(Face.of(1, 3), 1, 5)
    assert [vertex_tuple(f) for f in got] == [(1, 3, 4), (1, 3, 5)]
    got = interval(EMPTY_FACE, 2, 4)
    assert [vertex_tuple(f) for f in got] == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    assert interval(Face.of(4), 2, 5) == []  # no room above 4 within [5]
    with pytest.raises(ValueError):
        interval(Face.of(1), 0, 4)
    for n in range(9):
        for s in range(1 << n):
            above = range(s.bit_length() + 1, n + 1)
            for i in range(1, 5):
                want = [Face.from_vertices(Face(s).vertices + extra)
                        for extra in combinations(above, i)]
                assert interval(s, i, n) == want, (s, i, n)


def dominates(s, t):
    """Componentwise order on sorted vertex vectors: ``S`` dominates iff
    each of its sorted entries is <= the corresponding entry of ``T``.  It
    refines lex, and a shifted complex is a family closed downward under
    it."""
    sv, tv = vertex_tuple(s), vertex_tuple(t)
    if len(sv) != len(tv):
        raise ValueError("domination compares faces of equal cardinality")
    return all(a <= b for a, b in zip(sv, tv))


def test_dominates_componentwise():
    assert dominates(Face.of(1, 3), Face.of(2, 3))
    assert dominates(Face.of(1, 2), Face.of(1, 2))
    assert not dominates(Face.of(1, 4), Face.of(2, 3))
    with pytest.raises(ValueError):
        dominates(Face.of(1), Face.of(1, 2))
    # ``dominates(S, T)`` implies S is lex-at-most T
    for k in range(1, 6):
        sets = list(iter_k_subsets(5, k))
        assert all(lex_leq(S, T) for S in sets for T in sets if dominates(S, T))
    # ``is_shifted`` is closure downward under domination, on every complex
    # of [4]
    for K in all_complexes(4):
        faces = K.face_set()
        closed = all(
            S in faces for T in faces for S in iter_k_subsets(4, T.bit_count()) if dominates(S, T)
        )
        assert K.is_shifted() == closed
    # and closure under the trades of a vertex v for a free v - 1, face by
    # face, on every complex of [5]: the per-head test of ``is_shifted``
    # against the per-face one it replaced
    answers = [K.is_shifted() for K in all_complexes(5)]
    assert answers == [_closed_under_adjacent_trades(K) for K in all_complexes(5)]
    assert (len(answers), answers.count(True)) == (7580, 118)


def _closed_under_adjacent_trades(K):
    faces = K.face_set()
    for m in faces:
        # v in m with v >= 2 and v - 1 not in m
        movable = m & ~(m << 1) & ~1
        while movable:
            b = movable & -movable
            if m ^ b ^ (b >> 1) not in faces:
                return False
            movable ^= b
    return True


def test_iter_k_subsets_lex_order():
    got = list(iter_k_subsets(4, 2))
    assert [vertex_tuple(m) for m in got] == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def test_from_facets_closes_downward():
    K = SimplicialComplex.from_facets(3, [[1, 2, 3]])
    assert K.f_vector == (1, 3, 3, 1)
    assert Face.of(1, 3) in K and EMPTY_FACE in K
    assert K.facets() == [Face.of(1, 2, 3)]


def test_constructor_validates_closure_and_labels():
    with pytest.raises(ValueError, match="not downward closed"):
        SimplicialComplex(3, [0b011, 0b001, 0])  # missing {2}
    with pytest.raises(ValueError, match="not downward closed"):
        SimplicialComplex(3, [0, 0b100, 0b110])  # {2, 3} without its head {2}
    with pytest.raises(ValueError, match="not downward closed"):
        SimplicialComplex(3, [0, 0b010, 0b110])  # {2, 3} without {3}
    with pytest.raises(ValueError, match="out of 1"):
        SimplicialComplex(2, [0b100, 0])
    for m in (-1, -8):  # a negative mask's submask walk never ends
        with pytest.raises(ValueError, match="out of 1"):
            SimplicialComplex.from_facets(3, [m])
    with pytest.raises(ValueError):
        SimplicialComplex(-1, [])
    with pytest.raises(ValueError):
        SimplicialComplex(65, [])


def test_non_integer_faces_and_labels_are_refused():
    with pytest.raises(TypeError):
        SimplicialComplex(3, [0.0, 1.0])
    with pytest.raises(TypeError):
        SimplicialComplex(3, ["1"])
    with pytest.raises(TypeError):
        Face.of(1.5)
    with pytest.raises(TypeError):
        Face.of("2")
    with pytest.raises(TypeError):
        SimplicialComplex.from_facets(3, [[1.9, 2]])
    # a Face, a bool and a plain int are faces and labels as before
    K = SimplicialComplex(3, [Face.of(2), True, 0b101, 0b100])
    assert K.faces_of_size(1) == (Face.of(1), Face.of(2), Face.of(3))
    assert K.faces_of_size(2) == (Face.of(1, 3),)
    assert Face.of(True, 3) == Face.of(1, 3)
    assert SimplicialComplex.from_facets(3, [[Face.of(2), 3]]).facets() == [Face.of(2, 3)]


def test_ambient_size_is_read_as_an_int():
    # n goes through operator.index, as a matrix size does in realize: a
    # bool is the int it stands for, a float or a string is refused
    K = SimplicialComplex(True, [1])
    assert type(K.n) is int and K.n == 1
    assert K == SimplicialComplex(1, [1])
    assert format_complex(K).splitlines()[0] == "n=1"
    for bad in (3.0, "3", None):
        with pytest.raises(TypeError):
            SimplicialComplex(bad, [1])


def _down_closure(masks):
    out = set()
    for m in masks:
        sub = m
        while True:
            out.add(sub)
            if not sub:
                break
            sub = (sub - 1) & m
    return out


@st.composite
def _mask_families(draw):
    """A set of masks on [n], n <= 7: as drawn, or the closure of the
    drawn set with a few masks taken out, which is often closed."""
    n = draw(st.integers(0, 7))
    masks = st.integers(0, (1 << n) - 1)
    family = draw(st.sets(masks, max_size=24))
    if draw(st.booleans()):
        family = _down_closure(family) - draw(st.sets(masks, max_size=2))
    return n, family


@given(_mask_families())
def test_size_classes_are_lex_sorted_and_closure_is_checked(case):
    n, family = case
    faces = family | {0} if family else set()
    closed = all(m & ~(1 << b) in faces for m in faces for b in range(n) if m >> b & 1)
    if not closed:
        with pytest.raises(ValueError, match="not downward closed"):
            SimplicialComplex(n, family)
        return
    K = SimplicialComplex(n, family)
    sizes = 1 + max(m.bit_count() for m in faces) if faces else 0
    assert len(K.f_vector) == sizes
    for k in range(sizes):
        level = [m for m in faces if m.bit_count() == k]
        group = K.faces_of_size(k)
        assert type(group) is tuple and all(type(f) is Face for f in group)
        assert list(group) == sorted(level, key=vertex_tuple)
    # the order does not depend on how the faces arrive
    for given_as in (sorted(family, reverse=True), (Face(m) for m in family)):
        assert SimplicialComplex(n, given_as)._by_size == K._by_size


def _tops(mask):
    return [1 << (v - 1) for v in vertex_tuple(mask)]


def _head_map(faces):
    heads = {}
    for m in faces:
        if m:
            t = 1 << (m.bit_length() - 1)
            heads[m ^ t] = heads.get(m ^ t, 0) | t
    return heads


@st.composite
def _head_maps(draw):
    """A head map on [n], n <= 7: that of a closed family, or one made not
    closed in one of three ways, with the kind made."""
    n = draw(st.integers(0, 7))
    masks = st.integers(0, (1 << n) - 1)
    faces = _down_closure(draw(st.sets(masks, max_size=12)) | {0})
    heads = _head_map(faces)
    kind = draw(st.sampled_from(["closed", "sibling", "unreached", "label"]))
    if kind == "sibling":
        # drop (h - u) + t for a face h + t and a vertex u of h
        choices = [(h ^ u, t) for h, tops in heads.items() for u in _tops(h) for t in _tops(tops)]
        if not choices:
            return n, heads, "closed"
        g, t = draw(st.sampled_from(choices))
        heads[g] ^= t
        if not heads[g]:
            del heads[g]
    elif kind == "unreached":
        # tops for a head that is not a face
        choices = [h for h in range(1, 1 << n) if h not in faces and h.bit_length() < n]
        if not choices:
            return n, heads, "closed"
        h = draw(st.sampled_from(choices))
        tops = draw(st.integers(1, (1 << (n - h.bit_length())) - 1)) << h.bit_length()
        heads[h] = heads.get(h, 0) | tops
    elif kind == "label":
        # a top at or past n, for a head that is a face
        h = draw(st.sampled_from(sorted(faces)))
        heads[h] = heads.get(h, 0) | 1 << draw(st.integers(n, 63))
    return n, heads, kind


@given(_head_maps())
def test_builder_agrees_with_the_constructor(case):
    # ``_from_heads`` on a head map and the constructor on its faces: the
    # same size classes, face set and head map, or the same error
    n, heads, kind = case
    faces = [0] + [h | t for h, tops in heads.items() for t in _tops(tops)]
    try:
        want = SimplicialComplex(n, faces)
    except ValueError as e:
        assert kind != "closed"
        with pytest.raises(ValueError) as got:
            SimplicialComplex._from_heads(n, dict(heads))
        assert str(got.value) == str(e)
        return
    assert kind == "closed"
    K = SimplicialComplex._from_heads(n, dict(heads))
    assert (K.n, K._by_size, K._faces, K._heads) == (n, want._by_size, want._faces, want._heads)
    assert K == want and K._heads == heads


def test_builder_refuses_each_kind_of_open_map():
    build = SimplicialComplex._from_heads
    # the boundary of a triangle, and {[]}
    assert build(3, {0: 0b111, 0b1: 0b110, 0b10: 0b100}) == SimplicialComplex(3, range(7))
    assert build(3, {}) == SimplicialComplex(3, [0])
    with pytest.raises(ValueError, match="not downward closed"):
        build(3, {0: 0b011, 0b1: 0b100})  # {1, 3} without its sibling {3}
    with pytest.raises(ValueError, match="not downward closed"):
        build(3, {0: 0b101, 0b10: 0b100})  # {2, 3}, its head {2} not a face
    with pytest.raises(ValueError, match="out of 1"):
        build(2, {0: 0b111})  # vertex 3 on [2]


def test_empty_face_added_automatically():
    K = SimplicialComplex(2, [0b01])
    assert EMPTY_FACE in K
    assert K.f_vector == (1, 1)


def test_void_vs_empty_face_complex():
    void = SimplicialComplex(3)
    just_empty = SimplicialComplex(3, [0])
    assert void.is_void and void.dim == -2 and void.f_vector == ()
    assert not just_empty.is_void and just_empty.dim == -1
    assert just_empty.f_vector == (1,)


def test_basic_queries_on_small_complex():
    K = SimplicialComplex.from_facets(5, [[1, 2], [2, 3], [4]])
    assert K.dim == 1
    assert K.f_vector == (1, 4, 2)
    assert K.num_vertices == 4
    assert vertex_tuple(K.support) == (1, 2, 3, 4)
    assert K.faces_of_size(1) == (Face.of(1), Face.of(2), Face.of(3), Face.of(4))
    assert sorted(K.facets()) == sorted([Face.of(1, 2), Face.of(2, 3), Face.of(4)])
    assert K.faces_of_size(7) == ()


def test_complete_point_helpers():
    assert SimplicialComplex.complete(3).f_vector == (1, 3, 3, 1)
    assert SimplicialComplex.complete(0).f_vector == (1,)
    assert SimplicialComplex.complete(2, ambient=5).n == 5
    assert SimplicialComplex.point().f_vector == (1, 1)


def test_is_shifted_examples():
    assert SimplicialComplex.from_facets(3, [[1, 2], [3]]).is_shifted()
    assert not SimplicialComplex.from_facets(3, [[2, 3]]).is_shifted()
    assert not SimplicialComplex.from_facets(3, [[1, 3]]).is_shifted()  # missing {1,2}
    assert SimplicialComplex(3, [0]).is_shifted()
    assert SimplicialComplex(3).is_shifted()


def _closed_under_all_trades(K):
    # definition: replacing any vertex by a smaller absent one stays inside
    closure = set(map(int, K.all_faces()))
    return all(
        (m & ~(1 << (v - 1))) | (1 << (u - 1)) in closure
        for m in closure
        for v in range(1, K.n + 1)
        if m >> (v - 1) & 1
        for u in range(1, v)
        if not m >> (u - 1) & 1
    )


def test_is_shifted_matches_bruteforce_swap_definition():
    rng = random.Random(5)
    for _ in range(80):
        facets = [rng.sample(range(1, 5), rng.randint(1, 3))
                  for _ in range(rng.randint(1, 5))]
        K = SimplicialComplex.from_facets(4, facets)
        assert K.is_shifted() == _closed_under_all_trades(K)
    # larger ambient sets, and shifts as drawn, with one top face removed
    # and with one face added, so both answers are compared
    cases = [random_complex(rng, rng.randint(5, 8)) for _ in range(60)]
    for _ in range(40):
        D = random_shifted(rng, rng.randint(2, 8))
        faces = D.face_set()
        top = rng.choice(D.faces_of_size(len(D.f_vector) - 1))
        addable = [
            m for m in range(1 << D.n)
            if m not in faces and all(m ^ (1 << b) in faces for b in range(D.n) if m >> b & 1)
        ]
        cases += [D, SimplicialComplex(D.n, faces - {top})]
        if addable:
            cases.append(SimplicialComplex(D.n, faces | {rng.choice(addable)}))
    answers = [K.is_shifted() for K in cases]
    assert answers == [_closed_under_all_trades(K) for K in cases]
    assert answers.count(True) >= 40 and answers.count(False) >= 40


def test_facets_are_the_bruteforce_maximal_faces():
    rng = random.Random(31)
    cases = [SimplicialComplex(3), SimplicialComplex(3, [0])]
    cases += [random_complex(rng, rng.randint(1, 9)) for _ in range(80)]
    for K in cases:
        faces = set(map(int, K.all_faces()))
        maximal = [m for m in faces if not any(m != g and m & g == m for g in faces)]
        got = K.facets()
        assert got == lex_sorted(maximal)  # by size, then lex
        assert all(type(f) is Face for f in got)
    assert cases[0].facets() == [] and cases[1].facets() == [EMPTY_FACE]


def test_permuted_and_compacted():
    K = SimplicialComplex.from_facets(3, [[1, 2], [3]])
    P = K.permuted({1: 3, 2: 1, 3: 2})
    assert {vertex_tuple(f) for f in P.facets()} == {(1, 3), (2,)}
    with pytest.raises(ValueError):
        K.permuted({1: 1, 2: 1, 3: 3})
    L = SimplicialComplex.from_facets(6, [[2, 5]])
    small = L.compacted()
    assert small.n == 2
    assert small.facets() == [Face.of(1, 2)]


def test_equality_and_hash_include_ambient():
    K1 = SimplicialComplex.from_facets(2, [[1, 2]])
    K2 = SimplicialComplex.from_facets(2, [[1, 2]])
    K3 = SimplicialComplex(3, K1.face_set())
    assert K1 == K2 and hash(K1) == hash(K2)
    assert K1 != K3


def test_face_enumeration_matches_combinations():
    # all_faces agrees with a from-scratch enumeration on a random complex
    rng = random.Random(23)
    facets = [rng.sample(range(1, 8), rng.randint(1, 4)) for _ in range(5)]
    K = SimplicialComplex.from_facets(7, facets)
    want = set()
    for fac in facets:
        for k in range(len(fac) + 1):
            want.update(frozenset(c) for c in combinations(fac, k))
    got = {frozenset(f.vertices) for f in K.all_faces()}
    assert got == want
    # each size class is in lex order, wrapped as Face, at every ambient size
    for n in (0, 1, 5, 9, 14, 64):
        for _ in range(5):
            K = random_complex(rng, n) if n else SimplicialComplex(0, [0])
            if n == 64:
                K = K.permuted(random_permutation(rng, 64))
            for k in range(len(K.f_vector)):
                group = K.faces_of_size(k)
                assert all(type(f) is Face for f in group)
                assert list(group) == sorted(group, key=vertex_tuple)


def brute_extensions(level, n, k):
    """The k-subsets of [n] whose (k - 1)-subsets all lie in ``level``, in
    lex order: the definition ``extensions`` is checked against."""
    members = set(level)
    return [
        S
        for S in iter_k_subsets(n, k)
        if all(S ^ 1 << (v - 1) in members for v in vertex_tuple(S))
    ]


def test_extensions_are_the_sets_whose_subsets_all_lie_below():
    # the lemma that the scan, the near-cone sampler and the census rely on:
    # each k-set whose (k - 1)-subsets all lie in the class, once, in lex order
    rng = random.Random(21)
    cases = list(all_complexes(4))
    cases += [random_complex(rng, rng.randint(1, 10)) for _ in range(60)]
    for K in cases:
        for k in range(1, len(K.f_vector) + 1):
            level = K.faces_of_size(k - 1)
            assert list(extensions(level, K.n)) == brute_extensions(level, K.n, k), (K, k)


def test_extensions_on_arbitrary_levels():
    # the near-cone sampler and the census pass sublists of a level, not the
    # size classes of a closed complex: the brute-force definition, order
    # included, on seeded random subsets of the (k - 1)-sets of [n]
    rng = random.Random(37)
    for _ in range(400):
        n = rng.randint(0, 9)
        k = rng.randint(1, n + 1)
        keep = rng.choice((0.2, 0.6, 0.9, 1.0))
        level = [f for f in iter_k_subsets(n, k - 1) if rng.random() < keep]
        assert list(extensions(level, n)) == brute_extensions(level, n, k), (n, level)
    # the empty set's level, an empty level, single sets, n in {0, 1}, and
    # sets with a vertex past n, whose heads yield nothing
    assert list(extensions([0], 0)) == [] and list(extensions([], 0)) == []
    assert list(extensions([0], 1)) == [1] and list(extensions([], 1)) == []
    assert list(extensions([EMPTY_FACE], 4)) == [1, 2, 4, 8]
    assert list(extensions([], 4)) == []
    assert list(extensions([0b1], 1)) == [] and list(extensions([0b1], 3)) == []
    assert list(extensions([0b1, 0b10, 0b1000], 3)) == [0b11]
    assert list(extensions([0b11, 0b101, 0b110], 2)) == []
    assert list(extensions([0b11, 0b101, 0b110], 3)) == [0b111]
