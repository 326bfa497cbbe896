"""The exterior shift: greedy lex extraction of independent wedge rows.

Given a nonsingular matrix A over Z/p, each row set S of size k has a
compound row: the vector of k x k minors ``det A[S, T]`` over the size-k
faces T of the input complex.  These are the coordinates of the wedge of
the rows of A indexed by S, restricted to the chain space of the complex.
Scanning the S in lex order and keeping those whose compound row extends
the span yields the shifted family, one cardinality at a time.

The scan runs on M = L^-1 A instead of A, where L is the lower-triangular
matrix with nonzero diagonal of ``FieldMatrix.lower_reduced``: each row of
A cleared, fraction-free, against the reduced rows above it, no swaps.
This keeps or rejects every candidate exactly as A would, for every
nonsingular A.  By Cauchy-Binet, wedge^k A = wedge^k L . wedge^k M, so row
S of A's compound is the sum over T of det L[S, T] times row T of M's.  L
is lower triangular, so det L[S, T] = 0 unless T <= S vertex by vertex
(the i-th smallest of T at most the i-th smallest of S), which implies
T <=_lex S, and det L[S, S], the product of L's diagonal entries in S, is
not 0.  Row S of A's compound is therefore a nonzero multiple of row S of
M's plus a combination of M's rows lex-before S, and by induction along
the lex order the two compounds span the same space over every lex prefix.
The greedy scan keeps S exactly when S's row leaves its prefix's span, so
it keeps the same family.  Nothing here needs M's pivots in order, so block
and explicit matrices are covered too.  For a generic A they are in order
and M is upper triangular; then det M[S, T] = 0 unless T >= S vertex by
vertex, most of each compound row is zero, and the wedge tables skip the
zero entries of M while the echelon insert skips the stored rows below a
row's first nonzero slot.

The rejected sets are closed under supersets, for every A, so a k-set
with a rejected (k - 1)-subset is rejected and needs no row.  Write
f_i = sum_j A[i, j] e_j, and f_S for the wedge of the f_i, i in S,
ascending, in the exterior algebra E on e_1, ..., e_n.  Let J be the ideal
of E spanned by the e_T with T not a face.  The size-k part of E/J has the
basis e_T, T a size-k face, and f_S = sum_T det A[S, T] e_T maps to S's
compound row in that basis.  The scan rejects S exactly when the row lies
in the span of the rows lex-before S, that is when J holds some
g = f_S - sum c_T f_T over T <lex S.  For a nonsingular A the f_T are a
basis, f_S is the leading term of g when lex-earlier counts as larger, and
the rejected sets are the monomials of that initial ideal; the closure
needs only the form of g.  Let v not be in S.  J is an ideal, so it holds
f_v g.  f_v f_T is 0 when v is in T and +-f_(T + v) otherwise, and
T <lex S gives T + v <lex S + v when v is in neither, the symmetric
difference being the same.  So f_v g is +-f_(S + v) plus a combination of
f_U with U <lex S + v, and S + v is rejected too, with no genericity and
no shiftedness assumed.

The scan at size k therefore builds rows only for
``complexes.extensions`` of the faces kept at size k - 1, in the lex order
they were kept in: the k-sets whose (k - 1)-subsets were all kept, each
once, in lex order (the lemma is in its docstring).  By induction on k the scan
keeps, at size k - 1, exactly the (k - 1)-sets that are not rejected; past
the set that fills the rank every row is in the span.  A k-set the scan
skips has a (k - 1)-subset the scan did not keep, which is rejected, so
the k-set is rejected too, by the closure above, and its row lies in the
span of the rows lex-before it.  Going along the lex order, the
accumulator therefore holds at every visited S the span of all the rows
lex-before S, as a scan over all k-sets would, and the scan keeps the same
family.  For block and explicit matrices the kept family need not be
shifted and its vertices need not be 1..m; the rule uses neither.

Each row is built from its head's.  The head h of S is S minus its largest
vertex v, and f_S = f_h f_v, so S's row is h's row, on the size-(k - 1)
faces of the complex, wedged with row v of M, on the size-k faces.  Every
set the scan visits has a kept head, and the row of a kept set is held
once, by its level's accumulator, from which the scan pops it when the
set becomes a head; the empty set's row is [1].  The row popped for h
need only be c f_h plus a combination of the f_T over sets T kept before
h at size k - 1, with c not 0: ``insert`` stores h's row reduced by
rows stored before it, ``pop`` scales it by a nonzero residue at most, and
the slots dropped below h's pivot are 0 mod p.  Wedging with f_v is
linear, and f_T f_v is 0 or +-f_(T + v) with T + v <lex S, as T <lex h.
So the row built is c f_S plus a combination of rows lex-before S, which
the accumulator spans when the scan reaches S (see above); it leaves that
span exactly when f_S does, and every verdict, and the family, is the same
for every nonsingular A.  The span of the rows lex-before S is that of the
rows kept before S, so the row kept for S has the same form one size up.
A head must mix in no row kept after it: that row is not lex-before S.

S's row is linear in row v: for each vertex u the head has a gathered
vector G_u, its row moved onto the faces through u with the wedge signs,
and S's row is the sum of M[v][u] G_u over the nonzero entries of row v
at vertices of the complex's support.  A vertex off the support is on no
face, so its G_u is 0 at every size and the tables drop its entries.  The
scan visits the sets h + v of one head in a run, so it pops h's row once,
as residues, and keeps one dict of h's G_u while the run lasts;
``_WedgeTables.row`` packs each G_u into it on first use, and a set's row
is a few packed multiply-adds.  Every slot of G_u is a residue of w, its
negation or 0, so a gather is a pick: when the scan pops h's row it builds,
once, h's chunks, the residues of w, of -w and one 0, and the tables hold,
per size k and vertex u on a size-k face, one ``operator.itemgetter``,
built with the tables, which picks each slot's residue; one ``struct``
pack in ``field``'s residue layout writes the picked residues as G_u's
bytes, read as one int.  The per-slot work runs in C, and each index list
is built once per shift.
Rows are not reduced: they go to the accumulator packed in its slot
layout (``_WedgeTables.row`` bounds the slots), which reads every slot
mod p, so the verdicts are those of the reduced rows.

For a uniformly random A the kept family is the canonical shift with
failure probability bounded by total-degree/p per determinant comparison
(Schwartz-Zippel); the engine validates shiftedness and retries with a
fresh seed before giving up.  Deterministic matrices (block or explicit)
skip the genericity guarantee and may legitimately return families that
are not shifted.

The kernel-dimension functions at the bottom are a deliberately separate
route to the same memberships, used as an oracle against the greedy scan;
they build stacked contraction matrices from the per-minor ``compound_row``
and never touch the wedge tables the scan uses.  One lex sweep,
``lex_kernel_dims``, answers them all: it walks the s-sets in lex order,
builds each one's row and contraction block once, and yields the joint
kernel's dimension after each.  A query for S reads the dimensions just
before and just after S off one pass that stops at S, and the image
dimensions over a full simplex come from one pass per size and degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from .complexes import (
    SimplicialComplex,
    extensions,
    init_segment,
    iter_k_subsets,
    iter_vertices,
    lex_less,
    lex_leq,
)
from .field import (
    DEFAULT_PRIME,
    FieldMatrix,
    GenericSpec,
    MatrixSpec,
    RowEchelonAccumulator,
    _residue_struct,
    pack_slots,
    realize,
)
from .homology import interior_matrix


class ValidationFailure(RuntimeError):
    """Raised when a shift fails a validated property: a generic shift is
    still not shifted after every reseed, or the face counts changed under
    a nonsingular matrix (a broken invariant)."""


@dataclass(frozen=True)
class ValidationFlags:
    is_shifted: bool
    f_vector_preserved: bool


@dataclass(frozen=True)
class ShiftResult:
    """A shift and its provenance: ``matrix`` is the realization of
    ``spec_used`` that produced ``shifted``, for a random spec the one
    matrix ``realize`` hands every shift drawn at that seed, size and
    prime."""

    shifted: SimplicialComplex
    spec_used: MatrixSpec
    matrix: FieldMatrix
    seed_used: int | None
    validated: ValidationFlags
    retries: int


def compound_row(A: FieldMatrix, S: int, columns) -> tuple[int, ...]:
    """Reference compound row: one exact k x k minor per column face.

    Args:
        S: row face of cardinality k.
        columns: iterable of column faces, each of cardinality k; ``minor``
            raises ``ValueError`` on one of another size.
    """
    return tuple(A.minor(S, T) for T in columns)


class _WedgeTables:
    """Per-complex, per-matrix expansion tables for the compound rows.

    A set S of size k is its head h, S minus its largest vertex v, plus v,
    and the wedge of S's rows is the wedge of h's rows with row v: at a
    size-k face U it is the sum over u in U of sign(u, U) w[U - u] a[u],
    where w is h's row, the compound row of h on the size-(k - 1) faces,
    and a is row v.  The tables are column-major: ``getters[k][u]`` gathers
    G_u, an ``operator.itemgetter`` of one chunk index per size-k face, and
    is None when vertex u + 1 is on no size-k face, and ``nonzero[v]``
    holds the pairs (u, a[u]) of the nonzero entries of row v at the
    vertices u + 1 of the complex's support.  Only those columns are
    visited: a vertex off the support is on no face, so its G_u is 0 at
    every k; for the lower-reduced matrix the scan passes in, row v of a
    generic matrix is zero left of column v.
    The final coordinate at a face T only ever consults subfaces of T, so
    keeping just the faces of the complex is exact, and this path agrees
    with the per-minor reference mod p.

    S's row is the sum of M[v][u] G_u over the nonzero entries of row v,
    where the head's gathered vector G_u holds, at a size-k face U through
    vertex u, the residue of sign(u, U) w[U - u], and 0 at the other faces.
    The tables hold no head and are read-only once built: the caller hands
    ``row`` the head's chunks and a dict of its gathered vectors, which
    ``row`` fills on first use.
    """

    __slots__ = ("nonzero", "sizes", "getters")

    def __init__(self, K: SimplicialComplex, A: FieldMatrix):
        support = K.support
        self.nonzero = [tuple((u, a) for u, a in enumerate(row) if a and support >> u & 1) for row in A.rows]
        top = len(K.f_vector)
        faces = [K.faces_of_size(k) for k in range(top)]
        self.sizes = [len(level) for level in faces]
        self.getters = [None]
        for j in range(1, top):
            sub = {f: i for i, f in enumerate(faces[j - 1])}
            minus = len(sub)  # a minus term reads the negated copy of w
            index = [None] * K.n
            for i, m in enumerate(faces[j]):
                rest = m
                while rest:  # the sign is the parity of the vertices past the one taken off
                    low = rest & -rest
                    rest ^= low
                    u = low.bit_length() - 1
                    if index[u] is None:  # a face without u picks the closing 0
                        index[u] = [2 * minus] * (len(faces[j]) + 1)
                    index[u][i] = sub[m ^ low] + (rest.bit_count() & 1) * minus
            self.getters.append([None if at is None else itemgetter(*at) for at in index])

    def row(self, S: int, chunks: list[int], gathered: dict, nb: int) -> int:
        """A row for a nonempty S of size k, packed unreduced to the ``nb``
        bytes a slot of ``RowEchelonAccumulator(width, p)``: slot i holds
        the sum of at most k products of two residues, one for each vertex
        of the i-th size-k face, so it lies in 0..k (p - 1)^2, k <= 64.

        ``chunks`` are the residues of w, a row of S's head h, one residue a
        size-(k - 1) face ([1] for the empty head), then p - x for each x in
        w (0 for 0), then one 0: the value of every possible slot of G_u.
        ``gathered`` maps a vertex u to h's G_u packed to ``nb`` bytes a
        slot; a missing entry is made from ``chunks`` and stored there, so
        the dict must belong to h, w and nb alone.  The getter of (k, u)
        picks each size-k face's chunk, the 0 for a face without u, and one
        more 0, so that it returns a tuple even for a single face; a vertex
        with no getter has G_u = 0.  The ``_residue_struct`` of (nb, f_k +
        1), f_k the number of size-k faces, packs the picked residues in one
        call: each is below p, so it fits the layout's field, and the layout
        writes the slot's other bytes as 0, so the bytes are those of
        ``pack_slots``.  The closing 0 is a slot past the row's width, and
        adds nothing to the int.  The row returned is w wedged with row v:
        S's compound row mod p when w is h's own row, and for the scan the
        row the engine module docstring describes."""
        out = 0
        k = S.bit_count()
        for u, a in self.nonzero[S.bit_length() - 1]:
            g = gathered.get(u)
            if g is None:
                get = self.getters[k][u]
                g = gathered[u] = 0 if get is None else int.from_bytes(
                    _residue_struct(nb, self.sizes[k] + 1).pack(*get(chunks)), "little")
            out += a * g
        return out


def _shift_family(K: SimplicialComplex, A: FieldMatrix) -> SimplicialComplex:
    M = A.lower_reduced()
    if M is None:
        raise ValueError("cannot shift with a singular matrix")
    faces = [0]
    p = A.p
    tables = _WedgeTables(K, M)
    kept = [0]  # the sets kept at a size, in lex order
    acc, pivots = None, {}  # their accumulator, and each one's pivot in it
    for k in range(1, len(K.f_vector)):
        target = len(K.faces_of_size(k))
        below, acc = acc, RowEchelonAccumulator(target, p)
        heads, kept = kept, []
        head = None
        for S in extensions(heads, K.n):
            h = S ^ 1 << (S.bit_length() - 1)
            if h != head:  # a head's sets come in one run: pop its row once
                head, w, gathered = h, below.pop(pivots[h]) if h else [1], {}
                chunks = w + [p - x if x else 0 for x in w] + [0]
            if acc.insert(tables.row(S, chunks, gathered, acc.nb)):
                kept.append(S)
                if acc.rank == target:
                    break
        faces += kept
        pivots = dict(zip(kept, acc.pivots))
    return SimplicialComplex(K.n, faces)


def exterior_shift(
    K: SimplicialComplex,
    spec: MatrixSpec | None = None,
    *,
    p: int = DEFAULT_PRIME,
    max_retries: int = 3,
) -> ShiftResult:
    """Shift ``K`` with the matrix described by ``spec``.

    The f-vector of the output always matches the input; a mismatch would
    mean a broken invariant and raises ``ValidationFailure``.  For
    ``GenericSpec`` the output is additionally validated shifted, reseeding
    up to ``max_retries`` times before raising ``ValidationFailure``.  Other
    specs return their family as computed, with the validation flags
    recording what held.

    Args:
        K: input complex; must have at least one face.
        spec: matrix description, default ``GenericSpec(seed=0)``.

    Returns:
        ``ShiftResult`` with the new complex and provenance fields.
    """
    if K.is_void:
        raise ValueError("cannot shift a complex with no faces")
    if max_retries < 0:
        raise ValueError(f"max_retries must be nonnegative, got {max_retries}")
    if spec is None:
        spec = GenericSpec(0)
    generic = isinstance(spec, GenericSpec)
    attempts = max_retries + 1 if generic else 1
    for attempt in range(attempts):
        cur = GenericSpec(spec.seed + attempt) if generic else spec
        seed = getattr(cur, "seed", None)
        A = realize(cur, K.n, p)
        out = _shift_family(K, A)
        flags = ValidationFlags(
            is_shifted=out.is_shifted(),
            f_vector_preserved=out.f_vector == K.f_vector,
        )
        if not flags.f_vector_preserved:
            raise ValidationFailure(
                f"face counts changed under the nonsingular matrix of {cur!r} "
                f"(seed {seed}, p={p}): f-vector {out.f_vector}, input {K.f_vector}"
            )
        if flags.is_shifted or not generic:
            return ShiftResult(out, cur, A, seed, flags, attempt)
    raise ValidationFailure(
        f"output not shifted after {max_retries} reseeds of {spec!r}"
    )


def shifted(K: SimplicialComplex, seed: int = 0, p: int = DEFAULT_PRIME) -> SimplicialComplex:
    """Convenience wrapper returning just the shifted complex."""
    return exterior_shift(K, GenericSpec(seed), p=p).shifted


# ----------------------------------------------------------------------
# kernel-intersection oracle (independent of the greedy scan above)


def lex_kernel_dims(
    K: SimplicialComplex,
    A: FieldMatrix,
    s: int,
    *,
    extra: int = 0,
    first_k_only: bool = False,
):
    """Walk the s-sets R in lex order and yield (R, dim): dim is the
    dimension of the joint kernel of the contractions by the wedge rows
    lex-at-most R, acting on the size ``s + extra`` chains of ``K``.

    Each R's compound row (``compound_row``, on the size-s faces of ``K``)
    and its contraction block (``interior_matrix``) are built once, and the
    block's rows join one echelon accumulator, whose rank gives the
    dimension after R.  Once the rank reaches the column count every later
    dimension is 0 and nothing more is built.  The inputs are checked on
    the call, not on the first step.

    Args:
        s: size of the R, at least 1.
        extra: target chain degree offset, nonnegative; 0 probes membership
            of the R themselves, positive values count interval faces above.
        first_k_only: walk only the subsets of the first
            ``|vertices of K|`` labels; with projected coefficient rows this
            leaves the dimensions unchanged, which is what the oracle checks.
    """
    if s < 1:
        raise ValueError("reference face must be nonempty")
    if s + extra > K.n or extra < 0:
        raise ValueError("degree out of range")
    if A.nrows != K.n or A.ncols != K.n:
        raise ValueError(f"matrix is {A.nrows} x {A.ncols}, the complex needs {K.n} x {K.n}")
    limit = K.num_vertices if first_k_only else K.n
    return _lex_kernel_sweep(K, A, s, s + extra, limit)


def _lex_kernel_sweep(K: SimplicialComplex, A: FieldMatrix, s: int, degree: int, limit: int):
    supports = K.faces_of_size(s)
    ncols = len(K.faces_of_size(degree))
    acc = RowEchelonAccumulator(ncols, A.p)
    for R in iter_k_subsets(limit, s):  # lex-ascending
        if acc.rank < ncols:
            element = dict(zip(supports, compound_row(A, R, supports)))
            for row in interior_matrix(K, element, degree, A.p).rows:
                if acc.insert(pack_slots(row, acc.nb)) and acc.rank == ncols:
                    break
        yield R, ncols - acc.rank


def kernel_dims_at(
    K: SimplicialComplex,
    A: FieldMatrix,
    S: int,
    *,
    extra: int = 0,
    first_k_only: bool = False,
) -> tuple[int, int]:
    """The joint-kernel dimensions of ``lex_kernel_dims`` just before and
    just after the rows of ``S``, read off one sweep that stops at ``S``:
    the wedge rows lex-below ``S``, then lex-at-most ``S``.  An ``S`` the
    walk does not reach (past the first labels, with ``first_k_only``)
    reads the same number twice.  Raises ``ValueError`` for an ``S`` with a
    vertex past ``K.n``, and as ``lex_kernel_dims`` does."""
    if S >> K.n:
        raise ValueError(f"face has a vertex past {K.n}")
    s = S.bit_count()
    dims = lex_kernel_dims(K, A, s, extra=extra, first_k_only=first_k_only)
    below = len(K.faces_of_size(s + extra))
    for R, dim in dims:
        if R == S:
            return below, dim
        if lex_less(S, R):
            break
        below = dim
    return below, below


def kernel_intersection_dim(
    K: SimplicialComplex,
    A: FieldMatrix,
    S: int,
    *,
    extra: int = 0,
    first_k_only: bool = False,
) -> int:
    """Dimension of the joint kernel of the contractions by all wedge rows
    lex-below ``S``, acting on the size ``|S| + extra`` chains of ``K``;
    the first of the two numbers of ``kernel_dims_at``, which also gives
    the dimension over the rows lex-at-most ``S``.

    Args:
        S: reference face, cardinality s >= 1, vertices in 1..``K.n``.
        extra, first_k_only: as for ``lex_kernel_dims``.
    """
    return kernel_dims_at(K, A, S, extra=extra, first_k_only=first_k_only)[0]


def membership_via_kernels(K: SimplicialComplex, A: FieldMatrix, S: int) -> bool:
    """Whether S joins the shifted family, decided by kernel dimensions
    only: the joint kernel must shrink when S's own contraction is added.
    Both dimensions come from one sweep."""
    below, at = kernel_dims_at(K, A, S)
    return below > at


def lex_tail_count(D: SimplicialComplex, S: int) -> int:
    """Number of size-|S| faces of ``D`` lex-at-least ``S``."""
    return sum(1 for T in D.faces_of_size(S.bit_count()) if lex_leq(S, T))


# ----------------------------------------------------------------------
# closed-form image dimension over a full simplex


def image_dim_complete(h: int, n: int, S: int) -> int:
    """Dimension of the stacked contraction image on the full simplex with
    ``h`` vertices inside ambient ``[n]``: all contractions by wedge rows
    lex-below ``S`` applied to the size ``|S| + 1`` chains.

    Pure combinatorics, no matrix involved: counts lex-below rows supported
    in ``[h]`` weighted by ``h - |S|``, minus an overlap correction summed
    over the size ``|S| + 1`` subsets of ``[h]`` whose lex-initial part is
    below ``S``.  Raises ``ValueError`` for an ``S`` with a vertex past
    ``n``.
    """
    s = S.bit_count()
    if s < 1:
        raise ValueError("reference face must be nonempty")
    if S >> n:
        raise ValueError(f"face has a vertex past {n}")
    if h > n:
        raise ValueError("simplex does not fit in the ambient set")
    if s >= h:
        return 0
    below = sum(1 for R in iter_k_subsets(h, s) if lex_less(R, S))
    total = below * (h - s)
    correction = 0
    for T in iter_k_subsets(h, s + 1):
        if not lex_less(init_segment(T, s), S):
            continue
        hits = 0
        for v in iter_vertices(T):
            if lex_less(T ^ (1 << (v - 1)), S):
                hits += 1
        if hits > 1:
            correction += hits - 1
    return total - correction


def image_dim_complete_direct(h: int, n: int, s: int, A: FieldMatrix) -> list[int]:
    """The same image dimension for every s-set S of [n], in lex order,
    measured as exact stacked ranks from one sweep: the size ``s + 1``
    chains of the full simplex minus the joint kernel of the contractions
    by wedge rows lex-below ``S``."""
    if s < 1:
        raise ValueError("reference face must be nonempty")
    if h > n or A.nrows != n:
        raise ValueError("shape mismatch")
    if s >= h:
        return [0] * math.comb(n, s)
    H = SimplicialComplex.complete(h, ambient=n)
    chains = len(H.faces_of_size(s + 1))
    kernels = [chains] + [dim for _, dim in lex_kernel_dims(H, A, s, extra=1)]
    return [chains - dim for dim in kernels[:-1]]
