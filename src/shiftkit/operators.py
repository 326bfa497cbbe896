"""Constructions on complexes and shift-level formulas for unions.

The first half is pure combinatorics: joins, cones, links and friends,
with the relabeling conventions fixed once here.  In a binary operation
the second operand's labels move up past the first operand's ambient set;
a cone inserts its apex as the new vertex 1.

The second half computes shifts of unions directly from the shifts of the
pieces, using last-gap tests driven by head counts, plus a recursive
variant that descends through links and antistars.  The gap rules read the
operands' head maps and build the result from its head map; the recursive
variant works on face sets.  The checks against the matrix engine live in
``suites``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import Face, SimplicialComplex, iter_vertices, lex_less
from .homology import is_near_cone


# ----------------------------------------------------------------------
# basic constructions


def disjoint_union(K: SimplicialComplex, L: SimplicialComplex) -> SimplicialComplex:
    """Faces of K plus faces of L with L's labels moved above K's."""
    faces = set(K.face_set())
    faces.update(f << K.n for f in L.face_set())
    return SimplicialComplex(K.n + L.n, faces)


def union(K: SimplicialComplex, L: SimplicialComplex) -> SimplicialComplex:
    """Union on a shared label set."""
    n = max(K.n, L.n)
    return SimplicialComplex(n, set(K.face_set()) | set(L.face_set()))


def intersection(K: SimplicialComplex, L: SimplicialComplex) -> SimplicialComplex:
    n = max(K.n, L.n)
    return SimplicialComplex(n, K.face_set() & L.face_set())


def join(K: SimplicialComplex, L: SimplicialComplex) -> SimplicialComplex:
    """All unions of a K-face and a relabeled L-face."""
    lf = [f << K.n for f in L.face_set()]
    faces = [a | b for a in K.face_set() for b in lf]
    return SimplicialComplex(K.n + L.n, faces)


def cone(K: SimplicialComplex) -> SimplicialComplex:
    """Join with a single new apex, labeled 1; K's labels shift up by 1."""
    return join(SimplicialComplex.point(), K)


def suspension(K: SimplicialComplex) -> SimplicialComplex:
    """Join with two new points, labeled above K."""
    two = SimplicialComplex.from_facets(2, [[1], [2]])
    return join(K, two)


def link(K: SimplicialComplex, S: int) -> SimplicialComplex:
    """Faces disjoint from S whose union with S is a face.  Labels kept."""
    if S not in K:
        raise ValueError("link center must be a face")
    return SimplicialComplex(K.n, (m for m in K.face_set() if not m & S and m | S in K))


def antistar(K: SimplicialComplex, S: int) -> SimplicialComplex:
    """Faces disjoint from S.  Labels kept."""
    if S not in K:
        raise ValueError("antistar center must be a face")
    return SimplicialComplex(K.n, (m for m in K.face_set() if not m & S))


# ----------------------------------------------------------------------
# head counts and gap tests


def d_value(D: SimplicialComplex, S: int) -> int:
    """Head count steering the gap tests: the number of faces of ``D``
    of size ``|S|`` whose lex-initial ``|S| - 1`` vertices match ``S``'s.

    ``D`` must be shifted.
    """
    if not D.is_shifted():
        raise ValueError("head counts are defined on shifted complexes")
    return _d_value(D, S)


def _d_value(D: SimplicialComplex, S: int) -> int:
    if not S:
        raise ValueError("face must be nonempty")
    return D._heads.get(S ^ (1 << (S.bit_length() - 1)), 0).bit_count()


def _gap_family(n: int, counts: dict[int, int]) -> dict[int, int]:
    """The head map of the empty face plus every face S inside [n] whose
    largest vertex exceeds the one below it (0 for a singleton) by at most
    ``counts[head(S)]``: a head h with count c gets the tops max(h) + 1
    through min(n, max(h) + c), and a head with no top is left out."""
    heads = {}
    for h, c in counts.items():
        lo = h.bit_length()
        hi = min(n, lo + c)
        if hi > lo:
            heads[h] = (1 << hi) - (1 << lo)
    return heads


def _require_shifted(*complexes: SimplicialComplex) -> None:
    for D in complexes:
        if not D.is_shifted():
            raise ValueError("operands must be shifted complexes")


def disjoint_union_shift(DK: SimplicialComplex, DL: SimplicialComplex) -> SimplicialComplex:
    """Shift of a disjoint union, from the shifts of the parts:
    Δ(K ⊔ L) = Δ(ΔK ⊔ ΔL), computed by the gap rule of ``clique_sum_shift``
    at ``d = -1``.

    A face S belongs iff its last gap is at most the sum of the two
    head counts of S; no matrix work involved.
    """
    return clique_sum_shift(DK, DL, -1)


def clique_sum_shift(
    DK: SimplicialComplex,
    DL: SimplicialComplex,
    d: int,
) -> SimplicialComplex:
    """Shift of any gluing of two complexes along a shared d-simplex,
    from the shifts of the parts.

    The allowance is the sum of the two head counts minus the count
    contributed by the shared simplex (a full simplex on d + 1 vertices).
    At ``d = -1`` the simplex is empty and subtracts nothing: that is the
    disjoint union rule, which also takes void operands (two void operands
    give the void complex).
    """
    _require_shifted(DK, DL)
    if d < -1:
        raise ValueError("d must be at least -1")
    if d >= 0 and d > min(DK.dim, DL.dim):
        raise ValueError("shared simplex exceeds an operand's dimension")
    n = DK.n + DL.n - (d + 1)
    if DK.is_void and DL.is_void:
        return SimplicialComplex(n, ())
    counts = {h: tops.bit_count() for h, tops in DK._heads.items()}
    for h, tops in DL._heads.items():
        counts[h] = counts.get(h, 0) + tops.bit_count()
    # the shared simplex on [d + 1]: a head h inside [d] has the tops
    # max(h) + 1 through d + 1
    for h in range(1 << d if d >= 0 else 0):
        counts[h] -= d + 1 - h.bit_length()
    return SimplicialComplex._from_heads(n, _gap_family(n, counts))


def shifted_union_recursive(DK: SimplicialComplex, DL: SimplicialComplex) -> SimplicialComplex:
    """Shift of a disjoint union by structural recursion.

    The vertex level is the full union of the two vertex sets; faces
    through vertex 1 come from the recursion on the two links of 1, the
    rest from the recursion on the two antistars, labels moved up by one.
    Agrees with ``disjoint_union_shift`` everywhere; the descent is the
    point, not efficiency.
    """
    _require_shifted(DK, DL)
    memo: dict[tuple[frozenset, frozenset], frozenset] = {}

    def rec(A: frozenset, B: frozenset) -> frozenset:
        # shifted face sets; links and antistars of vertex 1 recurse with
        # their labels moved down by one
        if A <= {0} or B <= {0}:  # a void or {∅} operand
            return A | B
        got = memo.get((A, B))
        if got is not None:
            return got
        lk = rec(
            frozenset(m >> 1 for m in A if m & 1),
            frozenset(m >> 1 for m in B if m & 1),
        )
        ast = rec(
            frozenset(m >> 1 for m in A if not m & 1),
            frozenset(m >> 1 for m in B if not m & 1),
        )
        vertices = sum(1 for X in (A, B) for m in X if m.bit_count() == 1)
        faces = {0}
        faces.update(1 << i for i in range(vertices))
        faces.update((m << 1) | 1 for m in lk)
        faces.update(m << 1 for m in ast if m.bit_count() >= 2)
        out = frozenset(faces)
        memo[A, B] = out
        return out

    return SimplicialComplex(DK.n + DL.n, rec(DK.face_set(), DL.face_set()))


# ----------------------------------------------------------------------
# order on complexes


def lex_compare(K: SimplicialComplex, L: SimplicialComplex) -> str:
    """Compare two complexes by the owner of the lex-first face of the
    symmetric difference within each cardinality.

    Returns one of ``"equal"``, ``"less"``, ``"greater"``,
    ``"incomparable"``: "less" means every cardinality with a difference
    is won by ``K``.
    """
    k_wins = l_wins = False
    for k in range(max(len(K.f_vector), len(L.f_vector))):
        ks, ls = K.faces_of_size(k), L.faces_of_size(k)
        # both classes are in lex order: where they first part, or else the
        # longer class's next face, is the difference's lex-first face
        i = next((i for i, (s, t) in enumerate(zip(ks, ls)) if s != t), None)
        if i is None and len(ks) == len(ls):
            continue
        won = len(ks) > len(ls) if i is None else lex_less(ks[i], ls[i])
        k_wins |= won
        l_wins |= not won
    if k_wins and l_wins:
        return "incomparable"
    if k_wins:
        return "less"
    if l_wins:
        return "greater"
    return "equal"


# ----------------------------------------------------------------------
# near cones


@dataclass(frozen=True)
class NearConeCertificate:
    """Greedy apex chain: ``chain[0]`` is the input and ``chain[j]`` is the
    antistar of ``apexes[j-1]`` in ``chain[j-1]``.  Empty ``apexes`` is the
    refusal: no vertex of the input admits the vertex-trade property, and
    the failing level is ``len(apexes)``."""

    apexes: tuple[int, ...]
    chain: tuple[SimplicialComplex, ...]

    @property
    def depth(self) -> int:
        return len(self.apexes)


def near_cone_analyze(K: SimplicialComplex) -> NearConeCertificate:
    """Extract the longest greedy chain of near-cone apexes.

    At each level the smallest qualifying vertex is chosen and removed
    (antistar); shifted complexes yield the full chain 1, 2, ..., f_0.
    """
    apexes: list[int] = []
    chain = [K]
    cur = K
    while True:
        pick = None
        for v in iter_vertices(cur.support):
            if is_near_cone(cur, v):
                pick = v
                break
        if pick is None:
            return NearConeCertificate(tuple(apexes), tuple(chain))
        apexes.append(pick)
        cur = antistar(cur, Face.of(pick))
        chain.append(cur)
