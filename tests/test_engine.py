"""Shift engine: frozen instances, path agreement, kernel-route oracle."""

import random
import tracemalloc
from itertools import combinations
from operator import itemgetter

import pytest

from shiftkit import (
    BlockGenericSpec,
    ExplicitSpec,
    Face,
    GenericSpec,
    SimplicialComplex,
    ValidationFailure,
    exterior_shift,
    kernel_intersection_dim,
    membership_via_kernels,
    shifted,
)
from shiftkit import engine, field
from shiftkit.complexes import iter_k_subsets, iter_vertices
from shiftkit.engine import (
    _WedgeTables,
    _shift_family,
    compound_row,
    image_dim_complete,
    image_dim_complete_direct,
    kernel_dims_at,
    lex_tail_count,
)
from shiftkit.field import (
    DEFAULT_PRIME,
    FieldMatrix,
    RowEchelonAccumulator,
    realize,
    slot_bytes,
)
from shiftkit.homology import interior_matrix
from shiftkit.sampling import (
    all_complexes,
    random_complex,
    random_permutation,
    random_shifted,
)
from packing import pack_slots, unpack_slots

P = 10007


def faces_by_name(K, k):
    return sorted("".join(map(str, sorted(f.vertices))) for f in K.faces_of_size(k))


def octahedron():
    # join of three disjoint pairs {1,4}, {2,5}, {3,6}: the missing edges
    # straddle a 3+3 split of the labels
    non = {frozenset((1, 4)), frozenset((2, 5)), frozenset((3, 6))}
    edges = [list(e) for e in combinations(range(1, 7), 2) if frozenset(e) not in non]
    return SimplicialComplex.from_facets(6, edges)


def k33():
    return SimplicialComplex.from_facets(6, [[i, j] for i in (1, 2, 3) for j in (4, 5, 6)])


def test_two_disjoint_edges_frozen():
    B = SimplicialComplex.from_facets(4, [[1, 2], [3, 4]])
    D = shifted(B)
    assert D.f_vector == (1, 4, 2)
    assert faces_by_name(D, 2) == ["12", "13"]
    assert D.is_shifted()


def test_octahedron_generic_shift_frozen():
    D = shifted(octahedron())
    # every edge on six vertices except the triangle at the top labels
    expect = sorted(
        "".join(map(str, e))
        for e in combinations(range(1, 7), 2)
        if set(e) not in ({4, 5}, {4, 6}, {5, 6})
    )
    assert faces_by_name(D, 2) == expect
    assert Face.of(4, 5) not in D.face_set()


def test_octahedron_block_shift_differs_after_reshifting():
    G = octahedron()
    res = exterior_shift(G, BlockGenericSpec(3, 3, 0))
    assert res.validated.f_vector_preserved
    assert not res.validated.is_shifted
    assert res.retries == 0
    # the two generic blocks shift each triangle in place, so the family
    # keeps the top-label triangle and is not shifted
    assert Face.of(4, 5) in res.shifted.face_set()
    again = shifted(res.shifted)
    assert Face.of(4, 5) in again.face_set()
    assert again != shifted(G)


def test_k33_generic_shift_frozen():
    D = shifted(k33())
    assert faces_by_name(D, 2) == [
        "12", "13", "14", "15", "16", "23", "24", "25", "34",
    ]
    assert Face.of(3, 4) in D.face_set()


def test_void_complex_rejected():
    with pytest.raises(ValueError, match="no faces"):
        exterior_shift(SimplicialComplex(3, []))


def test_negative_retries_rejected():
    with pytest.raises(ValueError, match="max_retries"):
        exterior_shift(SimplicialComplex.point(), max_retries=-1)


def test_reseeds_run_out_on_unshifted_outputs(monkeypatch):
    # every output reads as unshifted: a generic spec draws 1 + max_retries
    # seeds and then gives up; a block spec returns its one draw as computed
    monkeypatch.setattr(SimplicialComplex, "is_shifted", lambda self: False)
    drawn = []

    def recording(spec, n, p):
        drawn.append(spec)
        return realize(spec, n, p)

    monkeypatch.setattr(engine, "realize", recording)
    K = SimplicialComplex.from_facets(5, [[1, 2], [3, 4, 5]])
    with pytest.raises(
        ValidationFailure, match=r"^output not shifted after 2 reseeds of GenericSpec\(seed=5\)$"
    ):
        exterior_shift(K, GenericSpec(5), max_retries=2)
    assert drawn == [GenericSpec(5), GenericSpec(6), GenericSpec(7)]
    drawn.clear()
    res = exterior_shift(K, BlockGenericSpec(2, 3, 5), max_retries=2)
    assert drawn == [BlockGenericSpec(2, 3, 5)]
    assert res.validated.is_shifted is False and res.retries == 0


def test_trivial_fixed_points():
    empty_only = SimplicialComplex(3, [0])
    assert shifted(empty_only) == empty_only
    pt = SimplicialComplex.point()
    assert shifted(pt) == pt


def test_identity_matrix_returns_input_family():
    # each compound row of the identity hits a single column, so the greedy
    # scan keeps exactly the faces already present
    B = SimplicialComplex.from_facets(4, [[1, 2], [3, 4]])
    eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    res = exterior_shift(B, ExplicitSpec(eye), p=P)
    assert res.shifted == B
    assert res.seed_used is None
    assert res.matrix == FieldMatrix(eye, P)
    assert not res.validated.is_shifted
    assert res.validated.f_vector_preserved


def test_upper_triangular_matrix_fixes_a_shifted_complex():
    # For K shifted and M upper triangular with a nonzero diagonal the scan
    # returns K at every p.  A set S not in K is dominated vertex by vertex
    # by no face of K, and det M[S, T] = 0 unless T dominates S, so S's row
    # is 0 on K's faces.  The row of a face S of K is 0 on the faces
    # lex-before S and the product of M's diagonal entries in S at S, so the
    # rows of K's faces are triangular, hence independent.  M is its own
    # lower reduction.  At p = 3 the packed slots of small levels are one
    # byte wide.
    rng = random.Random(1601)
    complexes = [K for n in range(1, 5) for K in all_complexes(n) if K.is_shifted()]
    complexes += [random_shifted(rng, rng.randint(3, 10)) for _ in range(109)]
    assert len(complexes) == 150 and all(K.is_shifted() for K in complexes)
    for p in (3, 5, 7, 2**61 - 1, 2**62 - 57):
        for K in complexes:
            n = K.n
            M = FieldMatrix(
                [[0] * i + [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(n - i - 1)]
                 for i in range(n)],
                p,
            )
            assert M.lower_reduced() == M
            assert _shift_family(K, M) == K


def _built_row(K, tables, S, w, p, gathered, spare=0):
    # S's unreduced row, built from the chunks of w, its head's row as
    # residues ([1] for the empty head), and ``gathered``, the head's packed
    # G_u, and read back slot by slot: each raw slot is a sum of at most k
    # products of two residues, read mod p by the accumulator; ``spare``
    # bytes are added to each slot
    k = S.bit_count()
    width = len(K.faces_of_size(k))
    nb = slot_bytes(p, width) + spare
    chunks = w + [-x % p for x in w] + [0]
    packed = tables.row(S, chunks, gathered, nb)
    raw = unpack_slots(packed, nb, width)  # OverflowError past ``width`` slots
    assert all(x <= k * (p - 1) ** 2 for x in raw)
    return [x % p for x in raw]


def _reference_row(K, C, S):
    return list(compound_row(C, S, K.faces_of_size(S.bit_count())))


def _check_levels(K, C):
    # every k-set's row, level by level in lex order, each built from its
    # head's row as built at the level below, starting from the empty set's
    # row [1]; a head whose row is 0 mod p gives its sets rows that are 0
    tables = _WedgeTables(K, C)
    built = {0: [1]}
    masks = []
    for k in range(1, len(K.f_vector)):
        below, built = built, {}
        for S in iter_k_subsets(K.n, k):
            head = S ^ 1 << (S.bit_length() - 1)
            built[S] = _built_row(K, tables, S, below[head], C.p, {})
            assert built[S] == _reference_row(K, C, S)
            masks.append(S)
    return masks


def test_compound_rows_match_reference_path():
    rng = random.Random(4021)
    for _ in range(25):
        K = random_complex(rng, rng.randint(2, 6))
        # a generic matrix, its lower reduction, which the scan uses, and a
        # block matrix at p = 3, whose zero entries the tables skip; the
        # generic ones at 2^61 - 1 and 10007, whose rows are reduced by
        # folds, and at 2^60 + 33, reduced slot by slot
        a = rng.randint(1, K.n - 1)
        block = BlockGenericSpec(a, K.n - a, rng.randrange(2**16))
        for q in (2**61 - 1, 10007, 2**60 + 33):
            A = realize(GenericSpec(rng.randrange(2**32)), K.n, q)
            for C in (A, A.lower_reduced()):
                _check_levels(K, C)
        masks = _check_levels(K, realize(block, K.n, 3))
        # the tables hold no head, so the order of the calls does not
        # matter: the masks shuffled, sizes mixed, each from its head's
        # reference row, with one dict of gathered vectors per head
        A = realize(GenericSpec(rng.randrange(2**32)), K.n, P)
        tables = _WedgeTables(K, A)
        gathered = {}
        for mask in rng.sample(masks, len(masks)):
            head = mask ^ 1 << (mask.bit_length() - 1)
            w = _reference_row(K, A, head)
            got = _built_row(K, tables, mask, w, P, gathered.setdefault(head, {}))
            assert got == _reference_row(K, A, mask)
        # the gathered vectors of a head, from its reference row: a top head
        # h of the first n - 1 labels and each of its prefixes, longest
        # first, every candidate h + v asked in descending v into one dict,
        # then one candidate at its slot size, at one byte more and at its
        # slot size again, back to back, with one dict for each slot size
        top = len(K.f_vector) - 1
        top_head = rng.choice(list(iter_k_subsets(K.n - 1, top - 1)))
        for q in (2**61 - 1, 10007, 2**60 + 33):
            C = realize(GenericSpec(rng.randrange(2**32)), K.n, q)
            tables = _WedgeTables(K, C)
            head = top_head
            while True:
                w = _reference_row(K, C, head)
                by_spare = {0: {}}
                ups = range(K.n, head.bit_length(), -1)
                for v in ups:
                    S = head | 1 << (v - 1)
                    assert _built_row(K, tables, S, w, q, by_spare[0]) == _reference_row(K, C, S)
                S = head | 1 << (rng.choice(ups) - 1)
                for spare in (0, 1, 0):
                    got = _built_row(K, tables, S, w, q, by_spare.setdefault(spare, {}), spare)
                    assert got == _reference_row(K, C, S)
                if not head:
                    break
                head ^= 1 << (head.bit_length() - 1)
        # a column face of another size is refused, by ``minor``
        with pytest.raises(ValueError):
            compound_row(A, 0b11, [0b11, 0b1])


def test_rows_off_the_support_match_the_reference():
    # a complex on the labels 2, 5, 7, 9 and 11 of [12], with labels free
    # below, between and above its support: the tables visit no entry of a
    # row at a vertex off the support, whose G_u is 0 at every size, and
    # the rows still match the reference, at slots of 2, 5, 17 and 17 bytes
    K = SimplicialComplex.from_facets(12, [[2, 5, 7], [5, 9, 11], [2, 9], [7, 11]])
    support = K.support
    assert support == Face.of(2, 5, 7, 9, 11)
    for q in (3, 10007, 2**61 - 1, 2**62 - 57):
        for spec in (GenericSpec(q % 97), BlockGenericSpec(5, 7, 1)):
            A = realize(spec, K.n, q)
            for C in (A, A.lower_reduced()):
                tables = _WedgeTables(K, C)
                assert all(support >> u & 1 for row in tables.nonzero for u, _ in row)
                dropped = sum(1 for row in C.rows for u, x in enumerate(row) if x and not support >> u & 1)
                assert sum(map(len, tables.nonzero)) + dropped == sum(1 for row in C.rows for x in row if x)
                assert dropped
                _check_levels(K, C)
            assert _shift_family(K, A) == _reference_shift(K, A, q)


def test_gathers_at_the_edges_match_the_reference(monkeypatch):
    # each G_u is picked out of its head's chunks by the getter of (k, u),
    # all built with the tables: one per (k, u) whose vertex is on a size-k
    # face, and None for any other (k, u), whose G_u reads 0; a level of one
    # face, whose getter picks one chunk and the closing zero one, so it
    # still returns a tuple; the empty head's row [1]; and on the
    # octahedron, one getter per (k, u) serving every head of the table.
    # Building rows builds no getter and changes no table.
    built = []
    monkeypatch.setattr(engine, "itemgetter", lambda *index: built.append(index) or itemgetter(*index))
    triangle = SimplicialComplex.from_facets(4, [[1, 2, 3], [4]])
    for q in (2**61 - 1, 10007, 3):
        for K in (triangle, octahedron()):
            A = realize(GenericSpec(q), K.n, q)  # unreduced: most G_u are asked for
            del built[:]
            tables = _WedgeTables(K, A)
            on = [[any(f >> u & 1 for f in K.faces_of_size(k)) for u in range(K.n)] for k in range(len(K.f_vector))]
            assert tables.getters[0] is None
            assert len(built) == sum(map(sum, on[1:]))
            getters = [None] + [list(level) for level in tables.getters[1:]]
            for k in range(1, len(K.f_vector)):
                assert [g is not None for g in tables.getters[k]] == on[k]
                heads = {}
                for S in iter_k_subsets(K.n, k):
                    head = S ^ 1 << (S.bit_length() - 1)
                    w = _reference_row(K, A, head)
                    gathered = heads.setdefault(head, {})
                    assert _built_row(K, tables, S, w, q, gathered) == _reference_row(K, A, S)
                asked = [[g[u] for g in heads.values() if u in g] for u in range(K.n)]
                for u in range(K.n):
                    if not on[k][u]:
                        assert set(asked[u]) <= {0}
                if K is triangle and k == 1:
                    assert heads[0] and list(heads) == [0]  # the empty head, row [1]
                if K is triangle and k == 2:
                    assert not on[2][3] and asked[3]
                if K is triangle and k == 3:
                    assert len(K.faces_of_size(3)) == 1
                if K is not triangle and k > 1:
                    assert max(len(asked[u]) for u in range(K.n) if on[k][u]) > 1
            assert len(built) == sum(map(sum, on[1:]))
            assert [None] + [list(level) for level in tables.getters[1:]] == getters


def _reference_shift(K, A, p):
    # greedy lex scan over per-minor compound rows, independent of the
    # wedge tables the engine uses
    faces = {0}
    for k in range(1, len(K.f_vector)):
        cols = K.faces_of_size(k)
        acc = RowEchelonAccumulator(len(cols), p)
        for mask in iter_k_subsets(K.n, k):
            if acc.insert(pack_slots(compound_row(A, mask, cols), acc.nb)):
                faces.add(mask)
                if acc.rank == len(cols):
                    break
    return SimplicialComplex(K.n, faces)


def test_fast_and_reference_shifts_agree():
    rng = random.Random(991)
    for _ in range(10):
        K = random_complex(rng, rng.randint(2, 6))
        if K.is_void:
            continue
        spec = GenericSpec(rng.randrange(2**16))
        fast = exterior_shift(K, spec, p=P)
        A = realize(GenericSpec(fast.seed_used), K.n, P)
        assert fast.matrix == A
        assert fast.shifted == _reference_shift(K, A, P)
    # block-diagonal matrices and small primes: deterministic specs whose
    # families need not be shifted, and partial products full of zeros
    for p in (3, 5, 7, P):
        for _ in range(8):
            n = rng.randint(2, 6)
            K = random_complex(rng, n)
            a = rng.randint(1, n - 1)
            spec = BlockGenericSpec(a, n - a, rng.randrange(2**16))
            fast = exterior_shift(K, spec, p=p)
            assert fast.shifted == _reference_shift(K, realize(spec, n, p), p)
            A = realize(GenericSpec(rng.randrange(2**16)), n, p)
            assert _shift_family(K, A) == _reference_shift(K, A, p)
    # explicit matrices whose downward reduction has out-of-order pivots:
    # the scan runs on L^-1 A, the reference on A itself
    out_of_order = 0
    for p in (3, P):
        for kind in ("permutation", "zero corner", "sparse") * 12:
            n = rng.randint(2, 6)
            K = random_complex(rng, n)
            if K.is_void:
                continue
            A = _explicit_matrix(rng, kind, n, p)
            pivots = [next(j for j, x in enumerate(r) if x) for r in A.lower_reduced().rows]
            out_of_order += pivots != sorted(pivots)
            assert _shift_family(K, A) == _reference_shift(K, A, p)
            res = exterior_shift(K, ExplicitSpec(A.rows), p=p)
            assert res.shifted == _reference_shift(K, A, p)
    assert out_of_order >= 30
    # supports that are a proper subset of [n], placed at random: sizes
    # k >= 2 scan only subsets of the vertices kept at size 1, and for block
    # and explicit matrices those need not be 1..m
    non_initial = 0
    for p in (3, 5, 7, P):
        for kind in ("generic", "block", "noisy permutation") * 5:
            n = rng.randint(3, 7)
            K = SimplicialComplex(n, random_complex(rng, rng.randint(1, n - 1)).face_set())
            K = K.permuted(random_permutation(rng, n))
            A = _draw_matrix(rng, kind, n, p)
            D = _shift_family(K, A)
            assert D == _reference_shift(K, A, p)
            kept = int(D.support)
            non_initial += kept & (kept + 1) != 0
    assert non_initial >= 20


def _vertices_of(D, k):
    # the vertices of D's size-k faces, as a mask
    m = 0
    for f in D.faces_of_size(k):
        m |= int(f)
    return m


def test_scan_over_shrinking_vertex_lists_matches_reference():
    # size k builds rows only for sets whose (k - 1)-subsets were all kept,
    # so only over the vertices of the faces kept at size k - 1; a core with
    # faces of size >= 3, plus isolated vertices and edges on the other
    # labels, relabelled at random, makes those vertices fewer than the ones
    # kept at size 1 before some size k >= 3 is scanned
    rng = random.Random(1517)
    shrinking = draws = 0
    for p in (3, 5, 7, 2**61 - 1):
        for kind in ("generic", "block", "noisy permutation") * 5:
            n = rng.randint(6, 9)
            m = rng.randint(3, 5)
            core = range(1, m + 1)
            facets = [rng.sample(core, rng.randint(3, m)) for _ in range(rng.randint(1, 3))]
            v = m + 1
            while v <= n:
                size = rng.randint(1, min(2, n - v + 1))
                facets.append(list(range(v, v + size)))
                v += size
            K = SimplicialComplex.from_facets(n, facets).permuted(random_permutation(rng, n))
            A = _draw_matrix(rng, kind, n, p)
            D = _shift_family(K, A)
            assert D == _reference_shift(K, A, p)
            draws += 1
            ones = _vertices_of(D, 1)
            shrinking += any(_vertices_of(D, k) != ones for k in range(2, len(D.f_vector) - 1))
    assert draws == 60
    assert shrinking >= 50


def _row_calls(monkeypatch):
    # the sets S, in call order, that the scan builds a compound row for
    calls = []
    row = _WedgeTables.row

    def counted(self, S, *args):
        calls.append(int(S))
        return row(self, S, *args)

    monkeypatch.setattr(_WedgeTables, "row", counted)
    return calls


def test_scan_builds_rows_only_over_kept_vertices(monkeypatch):
    # size k builds a row for h + v, h kept at size k - 1 and v > max(h),
    # only when every (k - 1)-subset of h + v was kept, so only over the
    # vertices of the faces kept at size k - 1
    calls = _row_calls(monkeypatch)
    # a tetrahedron boundary on four far-apart labels of [64]: the shift
    # keeps vertices 1..4, where the rank is full, and the 60 others are
    # rejected, so sizes 2 and 3 build rows only for the C(4, 2) + C(4, 3)
    # sets over the four kept ones
    K = SimplicialComplex.from_facets(64, [[1, 20, 40], [20, 40, 64], [1, 40, 64], [1, 20, 64]])
    D = exterior_shift(K).shifted
    assert D.f_vector == (1, 4, 6, 4)
    assert len(calls) == 4 + 6 + 4
    # a tetrahedron boundary on 1..4 plus 20 isolated vertices: all 24 are
    # kept at size 1, so size 2 builds the 23 + 22 + 1 edge rows up to 34,
    # where the rank is full; the six kept edges 12, ..., 34 are the
    # (k - 1)-subsets of only the C(4, 3) triangles of 1..4, so size 3
    # builds those and not the C(23, 2) + 1 triangles up to 234
    calls.clear()
    tetra = [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]
    K = SimplicialComplex.from_facets(24, tetra + [[v] for v in range(5, 25)])
    D = exterior_shift(K).shifted
    assert D.f_vector == (1, 24, 6, 4)
    assert len(calls) == 24 + 46 + 4


def cross_polytope(d):
    # the boundary of the d-dimensional cross-polytope: a facet takes one
    # label of each pair {i, i + d}
    facets = [[i + 1 + d * (bits >> i & 1) for i in range(d)] for bits in range(1 << d)]
    return SimplicialComplex.from_facets(2 * d, facets)


@pytest.mark.parametrize(
    "d, f_vector",
    [
        (4, (1, 8, 24, 32, 16)),
        (5, (1, 10, 40, 80, 80, 32)),
        (6, (1, 12, 60, 160, 240, 192, 64)),
    ],
)
def test_cross_polytope_scan_builds_only_rows_it_keeps(monkeypatch, d, f_vector):
    # the generic shift of a cross-polytope boundary keeps every set whose
    # (k - 1)-subsets were all kept, up to the last face it keeps at size k,
    # so the scan builds exactly one row per nonempty face: 80, 242 and 728
    calls = _row_calls(monkeypatch)
    D = exterior_shift(cross_polytope(d)).shifted
    assert D.f_vector == f_vector
    assert len(calls) == sum(f_vector[1:])
    assert calls == [int(f) for k in range(1, d + 1) for f in D.faces_of_size(k)]


def test_scan_holds_each_kept_row_once():
    # a level's kept rows live in its echelon only, and the next level pops
    # each head's row from there: shifting the boundary of the
    # 6-dimensional cross-polytope peaks near 1.06 MiB traced, and a second
    # copy of the kept rows would take it to about 2.15 MiB
    K = cross_polytope(6)
    tracemalloc.start()
    try:
        D = exterior_shift(K).shifted
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert D.f_vector == K.f_vector
    assert peak < 1.5 * 2**20, peak


def test_slot_by_slot_reduction_packs_one_layout_per_width():
    # at 2^60 + 33 rows are reduced slot by slot, and a tail holds fewer
    # slots than its accumulator: the reducer pads its residues to the
    # accumulator's width, so it packs the layout ``pop`` unpacks and the
    # layout cache keeps a few entries, not one per tail length
    K = cross_polytope(6)
    field._residue_struct.cache_clear()
    D = exterior_shift(K, p=2**60 + 33).shifted
    assert D.f_vector == K.f_vector
    assert field._residue_struct.cache_info().misses <= 12


def _mixed_pivots_matrix(n=10, perm=(3, 7, 0, 9, 5, 1, 8, 2, 6, 4)):
    # row i is 1 at column perm[i], 0 left of it and (perm[i] + 2c) mod 5 at
    # each column c right of it: its lower reduction has pivots perm, out of
    # order, so rows are gathered left of max(h) too
    return [[1 if c == r else (r + 2 * c) % 5 if c > r else 0 for c in range(n)] for r in perm]


@pytest.mark.parametrize(
    "spec, rows, pops",
    [
        (GenericSpec(0), 242, 54),
        (BlockGenericSpec(5, 5), 272, 95),
        (ExplicitSpec(_mixed_pivots_matrix()), 260, 72),
    ],
)
def test_scan_pops_each_head_row_once(monkeypatch, spec, rows, pops):
    # the scan pops a head's row from the level below when it reaches the
    # head's first set, and never again: one pop per nonempty head of the
    # sets it builds rows for, each (accumulator, pivot) once; accumulators
    # hash by identity, and ``popped`` holds them, so none is freed
    calls = _row_calls(monkeypatch)
    popped = []
    pop = RowEchelonAccumulator.pop

    def recording(self, pivot):
        popped.append((self, pivot))
        return pop(self, pivot)

    monkeypatch.setattr(RowEchelonAccumulator, "pop", recording)
    K = cross_polytope(5)
    assert exterior_shift(K, spec).shifted.f_vector == K.f_vector
    heads = {S ^ 1 << (S.bit_length() - 1) for S in calls} - {0}
    assert (len(calls), len(popped)) == (rows, pops)
    assert len(popped) == len(heads)
    assert len(set(popped)) == len(popped)


def _subset_rule_rows(D):
    # the rows the subset rule builds for the family D, found by brute force:
    # at each size k, the k-sets up to D's last k-face, in lex order, whose
    # (k - 1)-subsets are all faces of D; and how many of them have a
    # (k - 1)-subset outside D but every vertex in D's (k - 1)-faces
    rows, unpruned = [], 0
    for k in range(1, len(D.f_vector)):
        below = set(D.faces_of_size(k - 1))
        vertices = _vertices_of(D, k - 1) if k > 1 else (1 << D.n) - 1
        last = D.faces_of_size(k)[-1]
        for S in iter_k_subsets(D.n, k):
            if all(S ^ u in below for u in map(Face.of, iter_vertices(S))):
                rows.append(S)
            elif S & vertices == S:
                unpruned += 1
            if S == last:
                break
    return rows, unpruned


def test_subset_rule_prunes_past_the_kept_vertices(monkeypatch):
    # block and explicit matrices at small primes: the families need not be
    # shifted and the kept vertices need not be 1..m; the scan must keep the
    # reference's family while building exactly the rows the subset rule
    # allows, which are fewer than the k-sets over the vertices of the kept
    # (k - 1)-faces
    calls = _row_calls(monkeypatch)
    rng = random.Random(2020)
    draws = pruned = 0
    for p in (3, 5, 7):
        for kind in ("block", "noisy permutation", "sparse", "zero corner") * 6:
            n = rng.randint(4, 7)
            facets = [
                rng.sample(range(1, n + 1), rng.randint(2, min(4, n)))
                for _ in range(rng.randint(2, 6))
            ]
            K = SimplicialComplex.from_facets(n, facets)
            A = _draw_matrix(rng, kind, n, p)
            calls.clear()
            D = _shift_family(K, A)
            assert D == _reference_shift(K, A, p)
            rows, unpruned = _subset_rule_rows(D)
            assert calls == rows
            draws += 1
            pruned += unpruned > 0
    assert draws == 72
    assert pruned >= 30


def _draw_matrix(rng, kind, n, p):
    if kind == "generic":
        return realize(GenericSpec(rng.randrange(2**16)), n, p)
    if kind == "block":
        a = rng.randint(1, n - 1)
        return realize(BlockGenericSpec(a, n - a, rng.randrange(2**16)), n, p)
    return _explicit_matrix(rng, kind, n, p)


def _explicit_matrix(rng, kind, n, p):
    if kind == "permutation":
        perm = rng.sample(range(n), n)
        return FieldMatrix([[int(j == perm[i]) for j in range(n)] for i in range(n)], p)
    for _ in range(500):
        if kind == "noisy permutation":
            perm = rng.sample(range(n), n)
            rows = [
                [rng.randrange(1, p) if rng.random() < 0.3 else int(j == perm[i]) for j in range(n)]
                for i in range(n)
            ]
        elif kind == "zero corner":
            rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            rows[0][0] = 0
        else:
            rows = [
                [rng.randrange(1, p) if rng.random() < 0.35 else 0 for _ in range(n)]
                for _ in range(n)
            ]
        A = FieldMatrix(rows, p)
        if A.is_nonsingular():
            return A
    raise AssertionError(f"no nonsingular {kind} matrix in 500 draws")


@pytest.mark.parametrize("p", [DEFAULT_PRIME, 3, (1 << 60) + 33])
def test_kernel_route_reconstructs_the_shift(p):
    # membership decided purely by kernel dimensions must rebuild the same
    # family the greedy scan produced, size by size; 2^60 + 33 reduces its
    # rows slot by slot, 3 and the default prime by folds
    rng = random.Random(2718)
    for _ in range(12):
        K = random_complex(rng, rng.randint(2, 6))
        if K.is_void:
            continue
        res = exterior_shift(K, GenericSpec(rng.randrange(2**20)), p=p)
        A = realize(GenericSpec(res.seed_used), K.n, p)
        for k in range(1, len(K.f_vector)):
            via_kernels = {
                mask
                for mask in iter_k_subsets(K.n, k)
                if membership_via_kernels(K, A, mask)
            }
            assert via_kernels == {int(f) for f in res.shifted.faces_of_size(k)}


def test_idempotent_and_seed_independent():
    rng = random.Random(555)
    for _ in range(8):
        K = random_complex(rng, rng.randint(2, 6))
        if K.is_void:
            continue
        D = shifted(K)
        assert shifted(D) == D
        assert shifted(K, seed=1) == D


def test_strict_vs_nonstrict_kernel_gap_is_membership():
    K = k33()
    res = exterior_shift(K)
    A = realize(GenericSpec(res.seed_used), K.n)
    D = res.shifted
    for mask in iter_k_subsets(K.n, 2):
        below, at = kernel_dims_at(K, A, mask)
        assert kernel_intersection_dim(K, A, mask) == below
        assert below - at in (0, 1)
        assert (below > at) == (mask in {int(f) for f in D.faces_of_size(2)})


def test_lex_tail_count_frozen():
    D = shifted(k33())
    assert lex_tail_count(D, int(Face.of(1, 2))) == 9
    assert lex_tail_count(D, int(Face.of(2, 5))) == 2
    assert lex_tail_count(D, int(Face.of(2, 6))) == 1
    assert lex_tail_count(D, int(Face.of(3, 4))) == 1
    assert lex_tail_count(D, int(Face.of(3, 5))) == 0


def test_image_dim_closed_form_matches_rank():
    A = realize(GenericSpec(17), 5, P)
    for h in range(2, 6):
        for s in (1, 2):
            if s >= h:
                continue
            direct = image_dim_complete_direct(h, 5, s, A)
            cells = list(iter_k_subsets(5, s))
            assert len(direct) == len(cells)
            for S, dim in zip(cells, direct):
                assert image_dim_complete(h, 5, S) == dim


def test_image_dim_closed_form_refuses_a_face_past_n():
    # the faces past h but inside [n] are answered by the test above
    with pytest.raises(ValueError, match="past 3"):
        image_dim_complete(2, 3, Face.of(5))
    with pytest.raises(ValueError, match="past 3"):
        image_dim_complete(3, 3, Face.of(2, 4))


def _rank_mod(rows, p):
    """Rank mod p by Gauss-Jordan elimination on lists of residues."""
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        top = [x * inv % p for x in rows[rank]]
        rows[rank] = top
        for i, r in enumerate(rows):
            if i != rank and r[c]:
                f = r[c]
                rows[i] = [(x - f * y) % p for x, y in zip(r, top)]
        rank += 1
    return rank


def _brute_kernel_dim(K, A, S, *, strict, extra, first_k_only):
    """The joint kernel from scratch: stack the contraction blocks of every
    R lex-before S (or at most S), compared as sorted vertex tuples."""
    p = A.p
    vs = tuple(iter_vertices(S))
    degree = len(vs) + extra
    limit = K.num_vertices if first_k_only else K.n
    supports = K.faces_of_size(len(vs))
    rows = []
    for R in combinations(range(1, limit + 1), len(vs)):
        if R > vs or (strict and R == vs):
            continue
        mask = sum(1 << (v - 1) for v in R)
        element = {int(T): A.minor(mask, T) for T in supports}
        rows += interior_matrix(K, element, degree, p).rows
    return len(K.faces_of_size(degree)) - _rank_mod(rows, p)


@pytest.mark.parametrize("p", [DEFAULT_PRIME, 10007, (1 << 60) + 33])
def test_kernel_dims_match_a_stacked_rank_from_scratch(p):
    # generic and sparse explicit matrices on complexes that leave labels
    # unused, so restricting R to the first labels can change the answer;
    # every query is checked against a fresh stack of all its blocks
    rng = random.Random(p % 1000)
    differs = 0
    for kind in ("generic", "permutation", "noisy permutation", "sparse") * 4:
        n = rng.randint(3, 6)
        facets = [rng.sample(range(1, n + 1), rng.randint(1, min(3, n))) for _ in range(rng.randint(1, 3))]
        K = SimplicialComplex.from_facets(n, facets)
        A = _draw_matrix(rng, kind, n, p)
        for s in range(1, min(3, n) + 1):
            for extra in range(3):
                if s + extra > n:
                    continue
                faces = list(iter_k_subsets(n, s))
                for S in rng.sample(faces, min(2, len(faces))):
                    for first_k_only in (False, True):
                        got = list(kernel_dims_at(K, A, S, extra=extra, first_k_only=first_k_only))
                        want = [
                            _brute_kernel_dim(K, A, S, strict=strict, extra=extra, first_k_only=first_k_only)
                            for strict in (True, False)
                        ]
                        assert got == want, (K, kind, S, extra, first_k_only)
                        assert kernel_intersection_dim(K, A, S, extra=extra, first_k_only=first_k_only) == want[0]
                        if first_k_only:
                            differs += want != full
                        else:
                            full = want
                    if extra == 0:
                        assert membership_via_kernels(K, A, S) == (full[0] > full[1])
    assert differs  # the corpus tells the two label ranges apart


def _interior_calls(monkeypatch):
    calls = []
    inner = engine.interior_matrix

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(engine, "interior_matrix", counted)
    return calls


def test_kernel_sweep_saturates_before_s_and_builds_nothing_after(monkeypatch):
    # on the edges of the full simplex on [4], the contractions by three
    # generic vertex rows already have no common kernel: the rows past {3}
    # are never built, and every later dimension reads 0
    K = SimplicialComplex.complete(4)
    A = realize(GenericSpec(5), 4, P)
    calls = _interior_calls(monkeypatch)
    assert [dim for _, dim in engine.lex_kernel_dims(K, A, 1, extra=1)] == [3, 1, 0, 0]
    assert len(calls) == 3
    assert kernel_intersection_dim(K, A, Face.of(4), extra=1) == 0
    assert kernel_dims_at(K, A, Face.of(4), extra=1) == (0, 0) == tuple(
        _brute_kernel_dim(K, A, int(Face.of(4)), strict=strict, extra=1, first_k_only=False)
        for strict in (True, False)
    )


def test_kernel_sweep_with_no_columns_builds_nothing(monkeypatch):
    # a graph has no triangles: the target chains are 0-dimensional
    K = k33()
    A = realize(GenericSpec(3), K.n, P)
    calls = _interior_calls(monkeypatch)
    for S in iter_k_subsets(K.n, 1):
        assert kernel_intersection_dim(K, A, S, extra=2) == 0
        assert kernel_dims_at(K, A, S, extra=2) == (0, 0)
    assert calls == []
    assert _brute_kernel_dim(K, A, int(Face.of(6)), strict=False, extra=2, first_k_only=False) == 0


def test_kernel_oracle_refuses_a_face_past_n():
    K = SimplicialComplex.from_facets(3, [[1, 2], [2, 3]])
    A = realize(GenericSpec(0), 3, P)
    with pytest.raises(ValueError, match="past 3"):
        kernel_intersection_dim(K, A, Face.of(5))
    with pytest.raises(ValueError, match="past 3"):
        membership_via_kernels(K, A, Face.of(3, 4))


def test_kernel_oracle_refuses_a_matrix_of_another_size():
    K = SimplicialComplex.from_facets(3, [[1, 2], [2, 3]])
    A = realize(GenericSpec(0), 5, P)
    with pytest.raises(ValueError, match="5 x 5"):
        kernel_intersection_dim(K, A, Face.of(2))
    # the sweep checks on the call, before its first step
    with pytest.raises(ValueError, match="5 x 5"):
        engine.lex_kernel_dims(K, A, 1)
