"""Constructions on complexes and shift-level formulas for unions.

The first half is pure combinatorics: joins, cones, links and friends,
with the relabeling conventions fixed once here.  In a binary operation
the second operand's labels move up past the first operand's ambient set;
a cone inserts its apex as the new vertex 1.

The second half computes shifts of unions directly from the shifts of the
pieces, using last-gap tests driven by head counts, plus a recursive
variant that descends through links and antistars.  These are exercised
against the matrix engine; they never call it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .complexes import (
    Face,
    SimplicialComplex,
    interval,
    iter_vertices,
    vertex_tuple,
)
from .field import DEFAULT_PRIME
from .homology import is_near_cone


# ----------------------------------------------------------------------
# basic constructions


def disjoint_union(K: SimplicialComplex, L: SimplicialComplex) -> SimplicialComplex:
    """Faces of K plus faces of L with L's labels moved above K's."""
    faces = set(K.face_set())
    faces.update(int(f) << K.n for f in L.face_set())
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
    lf = [int(f) << K.n for f in L.face_set()]
    faces = [a | b for a in map(int, K.face_set()) for b in lf]
    return SimplicialComplex(K.n + L.n, faces)


def cone(K: SimplicialComplex) -> SimplicialComplex:
    """Join with a single new apex, labeled 1; K's labels shift up by 1."""
    return join(SimplicialComplex.point(1), K)


def suspension(K: SimplicialComplex) -> SimplicialComplex:
    """Join with two new points, labeled above K."""
    two = SimplicialComplex.from_facets(2, [[1], [2]])
    return join(K, two)


def link(K: SimplicialComplex, S: int) -> SimplicialComplex:
    """Faces disjoint from S whose union with S is a face.  Labels kept."""
    s = int(S)
    if s not in K:
        raise ValueError("link center must be a face")
    return SimplicialComplex(
        K.n, (m for m in map(int, K.face_set()) if not m & s and (m | s) in K)
    )


def antistar(K: SimplicialComplex, S: int) -> SimplicialComplex:
    """Faces disjoint from S.  Labels kept."""
    s = int(S)
    if s not in K:
        raise ValueError("antistar center must be a face")
    return SimplicialComplex(K.n, (m for m in map(int, K.face_set()) if not m & s))


# ----------------------------------------------------------------------
# head counts and gap tests


def _head_counts(D: SimplicialComplex) -> Counter:
    """Nonempty faces of ``D`` counted by head: the face minus its largest
    vertex."""
    return Counter(m ^ (1 << (m.bit_length() - 1)) for m in map(int, D.face_set()) if m)


def d_value(D: SimplicialComplex, S: int) -> int:
    """Head count steering the gap tests: the number of faces of ``D``
    of size ``|S|`` whose lex-initial ``|S| - 1`` vertices match ``S``'s.

    ``D`` must be shifted.
    """
    if not D.is_shifted():
        raise ValueError("head counts are defined on shifted complexes")
    return _d_value(D, S)


def _d_value(D: SimplicialComplex, S: int) -> int:
    s = int(S)
    if not s:
        raise ValueError("face must be nonempty")
    return _head_counts(D)[s ^ (1 << (s.bit_length() - 1))]


def last_gap(S: int) -> int:
    """Difference between the two largest vertices; singletons measure
    from 0."""
    vs = vertex_tuple(S)
    if not vs:
        raise ValueError("face must be nonempty")
    return vs[-1] if len(vs) == 1 else vs[-1] - vs[-2]


def _gap_family(n: int, counts: Counter) -> set[int]:
    """The empty face plus every face S inside [n] with
    ``last_gap(S) <= counts[head(S)]``: for a head h with count c, the
    faces h + {v} with max(h) < v <= max(h) + c."""
    faces: set[int] = {0}
    for h, c in counts.items():
        top = h.bit_length()
        faces.update(h | 1 << b for b in range(top, min(n, top + c)))
    return faces


def _require_shifted(*complexes: SimplicialComplex) -> None:
    for D in complexes:
        if not D.is_shifted():
            raise ValueError("operands must be shifted complexes")


def disjoint_union_shift(
    DK: SimplicialComplex, DL: SimplicialComplex, n: int | None = None
) -> SimplicialComplex:
    """Shift of a disjoint union, from the shifts of the parts.

    A face S belongs iff its last gap is at most the sum of the two
    head counts of S; no matrix work involved.
    """
    _require_shifted(DK, DL)
    n = DK.n + DL.n if n is None else n
    if DK.is_void and DL.is_void:
        return SimplicialComplex(n, ())
    return SimplicialComplex(n, _gap_family(n, _head_counts(DK) + _head_counts(DL)))


def clique_sum_shift(
    DK: SimplicialComplex,
    DL: SimplicialComplex,
    d: int,
    n: int | None = None,
) -> SimplicialComplex:
    """Shift of any gluing of two complexes along a shared d-simplex,
    from the shifts of the parts.

    The allowance is the sum of the two head counts minus the count
    contributed by the shared simplex (a full simplex on d + 1 vertices).
    ``d = -1`` degenerates to the disjoint union rule.
    """
    _require_shifted(DK, DL)
    if d < -1:
        raise ValueError("d must be at least -1")
    if d > min(DK.dim, DL.dim):
        raise ValueError("shared simplex exceeds an operand's dimension")
    n = DK.n + DL.n - (d + 1) if n is None else n
    sigma = SimplicialComplex.complete(d + 1)
    counts = _head_counts(DK) + _head_counts(DL) - _head_counts(sigma)
    return SimplicialComplex(n, _gap_family(n, counts))


def shifted_union_recursive(
    DK: SimplicialComplex, DL: SimplicialComplex, n: int | None = None
) -> SimplicialComplex:
    """Shift of a disjoint union by structural recursion.

    The vertex level is the full union of the two vertex sets; faces
    through vertex 1 come from the recursion on the two links of 1, the
    rest from the recursion on the two antistars, labels moved up by one.
    Agrees with ``disjoint_union_shift`` everywhere; the descent is the
    point, not efficiency.
    """
    _require_shifted(DK, DL)
    n = DK.n + DL.n if n is None else n
    memo: dict[tuple[frozenset, frozenset], frozenset] = {}

    def rec(A: SimplicialComplex, B: SimplicialComplex) -> frozenset:
        if A.is_void or A.dim < 0:
            return B.face_set() if A.is_void else frozenset(B.face_set() | {0})
        if B.is_void or B.dim < 0:
            return A.face_set() if B.is_void else frozenset(A.face_set() | {0})
        key = (A.face_set(), B.face_set())
        got = memo.get(key)
        if got is not None:
            return got
        one = Face.of(1)
        lk = rec(_drop_one(link(A, one)), _drop_one(link(B, one)))
        ast = rec(_drop_one(antistar(A, one)), _drop_one(antistar(B, one)))
        faces = {0}
        faces.update(1 << i for i in range(A.num_vertices + B.num_vertices))
        faces.update((int(f) << 1) | 1 for f in lk)
        faces.update(int(f) << 1 for f in ast if int(f).bit_count() >= 2)
        out = frozenset(faces)
        memo[key] = out
        return out

    return SimplicialComplex(n, rec(DK, DL))


def _drop_one(D: SimplicialComplex) -> SimplicialComplex:
    """Shift all labels down by one; vertex 1 must be unused."""
    faces = [int(f) >> 1 for f in D.face_set()]
    return SimplicialComplex(max(D.n - 1, 0), faces)


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
    top = max(len(K.f_vector), len(L.f_vector))
    for k in range(1, top):
        ks = set(map(int, K.faces_of_size(k)))
        ls = set(map(int, L.faces_of_size(k)))
        diff = ks ^ ls
        if not diff:
            continue
        first = min(diff, key=vertex_tuple)
        if first in ks:
            k_wins = True
        else:
            l_wins = True
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


# ----------------------------------------------------------------------
# engine-backed structure checks

from .engine import shifted as _shifted  # noqa: E402  (no cycle: engine is lower)


def _shift_of_link(K: SimplicialComplex, v: int, seed: int, p: int) -> SimplicialComplex:
    lk, _ = link(K, Face.of(v)).compacted()
    if lk.is_void or lk.dim < 0:
        return lk
    return _shifted(lk, seed, p)


def near_cone_decomposition_check(
    K: SimplicialComplex, v: int, *, seed: int = 0, p: int = DEFAULT_PRIME
) -> bool:
    """For a near cone with apex ``v``: the faces of the shift through
    vertex 1 must be exactly 1 joined onto the shift of the link of ``v``,
    labels moved up by one."""
    if not is_near_cone(K, v):
        raise ValueError("complex is not a near cone at the given vertex")
    D = _shifted(K, seed, p)
    dlk = _shift_of_link(K, v, seed, p)
    want = {(int(f) << 1) | 1 for f in dlk.face_set()}
    got = {int(f) for f in D.face_set() if int(f) & 1}
    return got == want


def near_cone_iterated_check(
    K: SimplicialComplex,
    cert: NearConeCertificate,
    *,
    seed: int = 0,
    p: int = DEFAULT_PRIME,
) -> bool:
    """Check the full apex-chain decomposition: for each level j the faces
    of the shift with minimum vertex j are j joined onto the shift of the
    link of that level's apex, labels moved up by j; faces avoiding the
    first ``depth`` labels must be faces of the shift outright."""
    D = _shifted(K, seed, p)
    for j, apex in enumerate(cert.apexes, start=1):
        dlk = _shift_of_link(cert.chain[j - 1], apex, seed, p)
        want = {(int(f) << j) | (1 << (j - 1)) for f in dlk.face_set()}
        got = {
            int(f)
            for f in D.face_set()
            if int(f) and (int(f) & -int(f)).bit_length() == j
        }
        if got != want:
            return False
    # remaining faces avoid the first ``depth`` labels by construction,
    # which is exactly the residual part of the decomposition
    return True


def union_interval_check(
    K: SimplicialComplex,
    L: SimplicialComplex,
    A: int,
    *,
    seed: int = 0,
    p: int = DEFAULT_PRIME,
) -> tuple[int, int]:
    """Count, in the interval of height dim(K and L) + 2 over ``A``, the
    faces of the shift of the union versus the sum over the two parts.

    Returns the pair (union count, sum of part counts); equality is the
    property under test.  ``K`` and ``L`` live on shared labels.
    """
    n = max(K.n, L.n)
    d = intersection(K, L).dim
    if d < -1:
        d = -1
    window = interval(A, d + 2, n)
    du = _shifted(union(K, L), seed, p)
    dk = _shifted(K, seed, p)
    dl = _shifted(L, seed, p)
    lhs = sum(1 for T in window if T in du)
    rhs = sum(1 for T in window if T in dk) + sum(1 for T in window if T in dl)
    return lhs, rhs


def join_top_count_check(
    K: SimplicialComplex,
    L: SimplicialComplex,
    i: int,
    *,
    seed: int = 0,
    p: int = DEFAULT_PRIME,
) -> tuple[int, int]:
    """Top-dimensional face counts avoiding the first ``i`` labels:
    the count for the shift of the join against the product of the counts
    for the shifts of the factors.

    Returns (join count, product).
    """
    if i < 0:
        raise ValueError("label prefix must be nonnegative")

    def top_avoiding(D: SimplicialComplex) -> int:
        k = D.dim + 1
        low = (1 << i) - 1
        return sum(1 for f in D.faces_of_size(k) if not int(f) & low)

    dj = _shifted(join(K, L), seed, p)
    dk = _shifted(K, seed, p)
    dl = _shifted(L, seed, p)
    return top_avoiding(dj), top_avoiding(dk) * top_avoiding(dl)
