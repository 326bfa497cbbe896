"""Exact linear algebra over a prime field Z/p.

Elements are plain Python ints reduced into ``0..p-1``; products of two
61-bit residues exceed 64 bits, so machine-word vector libraries are not
usable here and all arithmetic stays in native big ints.  The default
modulus is the Mersenne prime 2^61 - 1; any odd prime below 2^62 is accepted.

Square matrices go through ``_lower_reduce``: nonsingularity, the
lower-reduced matrix the shift scans, every determinant and minor.  Row
spaces go through ``RowEchelonAccumulator``: ranks and the scan's
independence test.

Matrices are immutable once built, and ``FieldMatrix`` is where a modulus
is checked.  ``RowEchelonAccumulator`` is the one mutable object and
supports a single writer.  It works on vectors packed into one int, a fixed
number of bytes per entry, and keeps each row from its pivot on, so
reducing by a stored row is one big-int multiply-add on a vector consumed
from the bottom.  ``slot_bytes``, ``pack_slots`` and ``unpack_slots`` define
that layout; every caller packs its rows to the accumulator's ``nb`` bytes
a slot, the shift scan unreduced.  ``slot_reducer`` reduces and scales
every slot of such a vector mod p.  The accumulator lists its kept rows'
pivots in keep order, and ``pop`` hands a kept row back, unpacked, as a
nonzero multiple of the vector inserted plus rows kept before it: the
shift scan reads each level's rows back this way to build the next level.
``pop`` reduces the row with ``slot_reducer`` and reads its residues with
one ``struct`` unpack, whose layout ``_residue_struct`` caches per (nb,
width); the shift's scan packs residues into rows with the same layouts.

Modular inverses cost microseconds each at 61 bits, so the hot paths take
few.  ``_lower_reduce`` is fraction-free and takes none; only ``_det``
divides, once, by the product of its scale factors.  The accumulator takes
none per vector inserted and one per kept row, on that row's first use as
a tail, where it scales the row to pivot -1, so a row never used costs none.

``realize`` memoises its random draws per process, keyed by (block size,
size, seed, prime), so shifting many complexes at one seed draws and
lower-reduces each matrix once.
"""

from __future__ import annotations

import functools
import operator
import random
import struct
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, Sequence

from .complexes import MAX_VERTICES, iter_vertices

DEFAULT_PRIME = (1 << 61) - 1
MAX_PRIME = 1 << 62
# random matrices drawn per spec before giving up; a draw is singular with
# probability below 1/(p - 1), so hitting the cap means a fault, not bad luck
MAX_DRAWS = 64

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, exact for all m < 3.3e24."""
    if m < 2:
        return False
    for q in _MR_BASES:
        if m % q == 0:
            return m == q
    d = m - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(typed=True)
def check_prime(p: int) -> int:
    """``p`` as an int, if it is an odd prime below 2^62.

    A value that is not an integer (a float such as 7.0, a string) raises
    ``TypeError``; an integer that is not such a prime, ``ValueError``.
    """
    p = operator.index(p)
    if p >= MAX_PRIME:
        raise ValueError(f"modulus must be below 2^62, got {p}")
    if p == 2 or not is_prime(p):
        raise ValueError(f"modulus must be an odd prime, got {p}")
    return p


def _lower_reduce(
    rows: Sequence[Sequence[int]], p: int
) -> tuple[list[tuple[int, ...]], int] | None:
    """Rows of M = L^-1 A and det L^-1, or None when A is singular.

    Row i of M is row i of A cleared, fraction-free, against the reduced
    rows above it at their pivots (first nonzero columns): a stored row r
    with pivot value a clears v's entry c at its pivot by v <- a v - c r.
    No swaps and no inverses, so L^-1 is lower triangular, its diagonal
    entry i being the product s_i of the pivot values that cleared row i;
    row i of M is s_i times the row a unit lower-triangular reduction
    gives.  The whole of v is scaled, not only v from the pivot on: v may
    be nonzero left of the pivot, at columns no row above pivots on.  The
    reduced rows are applied in the order they were stored.  Each is zero
    at the pivots of the rows stored before it, so clearing one pivot never
    refills one cleared before it.  Each is also zero left of its own
    pivot, so two rows whose store and pivot orders disagree are each zero
    at the other's pivot, and their clearing steps commute: v and the scale
    come out as they would with the rows applied in pivot order.  A row that
    reduces to zero depends on the rows above it, which happens exactly
    when A is singular.
    """
    echelon: list[tuple[int, int, tuple[int, ...]]] = []  # (pivot, pivot value, row)
    out = []
    scale = 1
    for row in rows:
        v = row
        for q, a, r in echelon:
            c = v[q]
            if c:
                v = [(a * x - c * y) % p for x, y in zip(v, r)]
                scale = scale * a % p
        q = next((j for j, x in enumerate(v) if x), None)
        if q is None:
            return None
        v = tuple(v)
        echelon.append((q, v[q], v))
        out.append(v)
    return out, scale


def _det(rows: Sequence[Sequence[int]], p: int) -> int:
    """Determinant of a square matrix A, read off its lower reduction M.

    M = L^-1 A with L lower triangular and det L^-1 = s, the product of the
    scale factors ``_lower_reduce`` returns, so det A = det M / s.  Row i of
    M is zero at the pivots q_0, ..., q_(i-1) of the rows above it, so M
    with its columns put in pivot order (column q_j moved to position j) is
    upper triangular: its entry (i, j) is M[i][q_j] = 0 for j < i.  Moving
    the columns multiplies the determinant by the sign of the permutation
    i -> q_i, so det M = sign(q) * prod M[i][q_i].  A singular A has no
    reduction and determinant 0; the empty matrix has determinant 1.  The
    one inverse taken is of s, and only when s is not 1.
    """
    reduced = _lower_reduce(rows, p)
    if reduced is None:
        return 0
    lower, scale = reduced
    pivots = [next(j for j, x in enumerate(row) if x) for row in lower]
    det = 1
    for row, q in zip(lower, pivots):
        det = det * row[q] % p
    if scale != 1:
        det = det * pow(scale, -1, p) % p
    inversions = sum(a > b for i, a in enumerate(pivots) for b in pivots[i + 1 :])
    return p - det if inversions & 1 else det


_UNSET = object()


class FieldMatrix:
    """An immutable matrix over Z/p, p checked by ``check_prime``, with
    0-indexed entry access."""

    __slots__ = ("p", "rows", "_lower")

    def __init__(self, rows: Iterable[Iterable[int]], p: int = DEFAULT_PRIME):
        self.p = p = check_prime(p)
        self.rows = tuple(tuple(operator.index(x) % p for x in row) for row in rows)
        self._lower = _UNSET
        if self.rows:
            width = len(self.rows[0])
            if any(len(r) != width for r in self.rows):
                raise ValueError("ragged rows")

    @classmethod
    def _from_residues(cls, rows: Iterable[Sequence[int]], p: int) -> "FieldMatrix":
        """A matrix of rows the caller guarantees are equally long and hold
        residues in 0..p-1 for a checked prime p; stored as given."""
        m = cls.__new__(cls)
        m.p = p
        m.rows = tuple(map(tuple, rows))
        m._lower = _UNSET
        return m

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def minor(self, row_face: int, col_face: int) -> int:
        """Determinant of the square submatrix picked out by two faces.

        Faces use 1-based vertex labels: vertex ``v`` selects row/column
        ``v - 1``.  The empty-by-empty minor is 1.  Faces of two sizes or
        past the matrix raise ``ValueError``.

        Args:
            row_face: mask of selected rows.
            col_face: mask of selected columns.

        Returns:
            The minor as a residue in ``0..p-1``.
        """
        ri = [v - 1 for v in iter_vertices(row_face)]
        ci = [v - 1 for v in iter_vertices(col_face)]
        if len(ri) != len(ci) or row_face >> self.nrows or col_face >> self.ncols:
            raise ValueError(f"minor needs faces of one size in the {self.nrows} x {self.ncols} matrix")
        return _det([[self.rows[i][j] for j in ci] for i in ri], self.p)

    def rank(self) -> int:
        acc = RowEchelonAccumulator(self.ncols, self.p)
        for row in self.rows:
            acc.insert(pack_slots(row, acc.nb))
        return acc.rank

    def is_nonsingular(self) -> bool:
        """Whether the matrix is square and invertible, decided by the
        downward reduction of ``lower_reduced``, which is kept."""
        if self._lower is _UNSET:
            square = self.nrows == self.ncols
            reduced = _lower_reduce(self.rows, self.p) if square else None
            if reduced is None:
                self._lower = None
            else:
                self._lower = FieldMatrix._from_residues(reduced[0], self.p)
        return self._lower is not None

    def lower_reduced(self) -> "FieldMatrix | None":
        """M = L^-1 A for the lower-triangular L^-1 that clears each row,
        fraction-free, against the reduced rows above it; None when A is
        singular.

        L has a nonzero diagonal: row i of M is a nonzero multiple of the
        row a unit lower-triangular reduction gives.  The pivots of M are
        distinct and row i of M is zero at the pivots of the rows above it.
        For a generic A the pivots are in order and M is upper triangular.
        Computed once, by ``is_nonsingular``.
        """
        self.is_nonsingular()
        return self._lower

    def __matmul__(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.p != other.p or self.ncols != other.nrows:
            raise ValueError("shape or modulus mismatch")
        p = self.p
        cols = list(zip(*other.rows)) if other.rows else []
        return FieldMatrix._from_residues(
            ([sum(a * b for a, b in zip(row, col)) % p for col in cols] for row in self.rows),
            p,
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldMatrix) and self.p == other.p and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.p, self.rows))

    def __repr__(self) -> str:
        return f"FieldMatrix({self.nrows}x{self.ncols} mod {self.p})"


# ----------------------------------------------------------------------
# matrix specifications

@dataclass(frozen=True)
class GenericSpec:
    """Dense matrix with fresh uniform residues drawn from ``seed``."""

    seed: int = 0


@dataclass(frozen=True)
class BlockGenericSpec:
    """Block-diagonal matrix: a random k x k block, a random l x l block,
    zeros on the off-diagonal blocks."""

    k: int
    l: int
    seed: int = 0


@dataclass(frozen=True)
class ExplicitSpec:
    """A caller-supplied square matrix, validated nonsingular at use."""

    entries: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "ExplicitSpec":
        return cls(tuple(tuple(map(operator.index, row)) for row in rows))


MatrixSpec = GenericSpec | BlockGenericSpec | ExplicitSpec


def realize(spec: MatrixSpec, n: int, p: int = DEFAULT_PRIME) -> FieldMatrix:
    """Produce the concrete n x n matrix described by ``spec``.

    Random variants are drawn deterministically from their seed, a
    nonnegative int, and are redrawn until nonsingular, at most
    ``MAX_DRAWS`` times; an explicit singular matrix is an error.  A seed
    or a size n that is not an int raises ``TypeError``, and a negative one
    ``ValueError``, checked before the memo (``random.Random`` seeds -s as
    it seeds s).

    A random draw is memoised per process by ``_drawn``, keyed by the ints
    (block size k, n, seed, p); ``GenericSpec(s)`` is the block size k = n,
    so it shares its entry with ``BlockGenericSpec(n, 0, s)``.  At most 16
    draws are kept, each with its ``lower_reduced`` form, and every caller
    of one key gets the same (immutable) matrix.  Explicit specs are not
    memoised.
    """
    p = check_prime(p)
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"matrix size must be nonnegative, got {n}")
    if isinstance(spec, ExplicitSpec):
        if len(spec.entries) != n or any(len(r) != n for r in spec.entries):
            raise ValueError(f"explicit matrix must be {n}x{n}")
        m = FieldMatrix(spec.entries, p)
        if not m.is_nonsingular():
            raise ValueError("explicit matrix is singular mod p")
        return m
    if isinstance(spec, BlockGenericSpec):
        if spec.k < 0 or spec.l < 0 or spec.k + spec.l != n:
            raise ValueError("block sizes must be nonnegative and sum to n")
        k = spec.k
    elif isinstance(spec, GenericSpec):
        k = n  # a single block: every entry random
    else:
        raise TypeError(f"unknown matrix spec {spec!r}")
    seed = operator.index(spec.seed)
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative int, got {seed}")
    k = operator.index(k)
    try:
        return _drawn(k, n, seed, p)
    except ValueError:
        raise ValueError(
            f"no nonsingular matrix for {spec!r} (seed {spec.seed}, p={p}) in {MAX_DRAWS} draws"
        ) from None


@functools.lru_cache(maxsize=16)
def _drawn(k: int, n: int, seed: int, p: int) -> FieldMatrix:
    """The first nonsingular draw of the n x n matrix with a random k x k
    and a random (n - k) x (n - k) diagonal block, from ``seed``, mod a
    checked prime p, its ``lower_reduced`` form computed.  ``ValueError``
    if none of ``MAX_DRAWS`` draws is nonsingular, so a failure is never
    memoised."""
    rng = random.Random(seed)
    for _ in range(MAX_DRAWS):
        # row by row, so each block's entries are drawn in row-major order
        rows = [
            [rng.randrange(p) if (i < k) == (j < k) else 0 for j in range(n)]
            for i in range(n)
        ]
        m = FieldMatrix._from_residues(rows, p)
        if m.is_nonsingular():
            return m
    raise ValueError(f"no nonsingular draw in {MAX_DRAWS}")


def slot_bytes(p: int, width: int) -> int:
    """Bytes per entry of a packed vector of ``width`` entries over Z/p.

    Entries start in 0..MAX_VERTICES (p - 1)^2, which covers residues and
    the unreduced compound row of any face, and ``RowEchelonAccumulator``
    adds at most ``width`` products of two residues to an entry.  So an
    entry never exceeds (MAX_VERTICES + width)(p - 1)^2, which is below
    2^(2 bitlen(p) + bitlen(MAX_VERTICES + width)): this many bytes hold it.
    """
    return (2 * p.bit_length() + (MAX_VERTICES + width).bit_length() + 7) // 8


def pack_slots(slots: Iterable[int], nb: int) -> int:
    """One int holding ``slots``, each in 0..2^(8 nb) - 1, slot i in bits
    [8 nb i, 8 nb (i + 1)).  A slot too large raises ``OverflowError``."""
    return int.from_bytes(b"".join(map(int.to_bytes, slots, repeat(nb), repeat("little"))), "little")


def unpack_slots(v: int, nb: int, width: int) -> list[int]:
    """The ``width`` slots of ``nb`` bytes that ``v`` packs, the inverse of
    ``pack_slots``; a ``v`` of more slots raises ``OverflowError``."""
    buf = v.to_bytes(width * nb, "little")
    return [int.from_bytes(buf[i : i + nb], "little") for i in range(0, width * nb, nb)]


@functools.lru_cache(maxsize=64)
def _residue_struct(nb: int, width: int) -> struct.Struct:
    """The ``struct`` layout of ``width`` slots of ``nb`` bytes that hold
    residues mod a p whose ``slot_bytes`` is nb: each slot is read as one
    little-endian unsigned field, the widest of 1, 2, 4 or 8 bytes that
    fits in the slot, and the slot's other bytes are skipped.  They are 0:
    for nb >= 8 the field is Q, 64 bits, and p < 2^62; for nb < 8 the
    field is more than half the slot, so it has more than 4 nb bits, and
    ``slot_bytes`` makes 8 nb > 2 bitlen(p)."""
    size = min(8, 1 << (nb.bit_length() - 1))
    code = "BHIQ"[size.bit_length() - 1]
    return struct.Struct("<" + f"{code}{nb - size}x" * width)


@functools.lru_cache(maxsize=64)
def slot_reducer(p: int, width: int) -> Callable[[int, int], int]:
    """A function taking a vector of at most ``width`` slots of nb =
    ``slot_bytes(p, width)`` bytes, packed by ``pack_slots``, and a residue
    s to the vector of its slots times s, mod p.

    Write p = 2^e - c with e = bitlen(p), so 0 < c < 2^(e - 1).  As
    2^e = c mod p, a slot x and its fold (x mod 2^e) + c floor(x / 2^e)
    agree mod p.  The fold path folds every slot at once, with masks of
    ``width`` slots: v <- (v & LO) + c ((v >> e) & HI), LO holding the low
    e bits of each slot and HI the bits above them, until no slot has a bit
    at e or above.  No fold carries out of a slot: it leaves at most
    2^e - 1 + c (2^(8 nb - e) - 1) < 2^e + 2^(8 nb - 1) <= 2^(8 nb), as
    ``slot_bytes`` makes 8 nb > 2e.  A fold keeps a slot below 2^e and
    shrinks any other, so the loop ends with every slot in
    0..2^e - 1 = 0..p + c - 1.  A slot is then p or more exactly when
    slot + c reaches bit e, so one masked conditional subtraction,
    v - (((v + C) >> e) & ONE) p with c and 1 in every slot of C and ONE,
    leaves the residues.

    Scaling needs no residues first.  Before the multiply by s the path
    applies a fixed number of fold steps, counted once per reducer: from
    the bound 2^(8 nb) - 1, a step takes a bound t to 2^e - 1 + c floor(t /
    2^e), the most a step leaves of a slot at most t, and the count is the
    number of steps until t (p - 1) < 2^(8 nb).  Every slot is then below
    2^(8 nb) / (p - 1), so multiplying by a residue s carries out of no
    slot, and one full fold of the product leaves the residues.  At the
    default prime the count is 2.

    The fold is exact for every odd prime, but a fold removes only about
    e - bitlen(c) bits from a slot.  Its cost grows with the number F of
    folds the largest slot, 2^(8 nb) - 1, takes, times the nb bytes of a
    slot; a Python loop over the slots costs about the same per slot at
    any p.
    On random vectors of 40 to 672 slots the fold took 0.4 to 0.9 times the
    loop's time up to F nb = 192, 0.7 to 1.25 times from 208 to 330, and
    0.9 to 6 times from 378 on.  So the fold path is taken when
    F nb <= 256, and other layouts take each slot x to x s mod p in the
    loop.  The default 2^61 - 1 (c = 1) and 2^62 - 57 (c = 57) fold at any
    width below 2^40 (F nb at most 63), as does every Mersenne prime, and
    10007 and 10^9 + 7 fold below a million slots; a prime just above a
    large power of two, 2^30 + 3 or 2^60 + 33, is reduced slot by slot.
    Both paths return the exact residues.  The function is memoised per
    (p, width), so accumulators of one shape share one reducer.
    """
    e = p.bit_length()
    c = (1 << e) - p
    nb = slot_bytes(p, width)
    bits = 8 * nb
    folds, top = 0, (1 << bits) - 1
    while top >> e:
        top = (top & (1 << e) - 1) + c * (top >> e)
        folds += 1
    if folds * nb > 256:

        def per_slot(v: int, s: int) -> int:
            return pack_slots([x * s % p for x in unpack_slots(v, nb, -(-v.bit_length() // bits))], nb)

        return per_slot

    lo, hi, cs, ones = (
        int.from_bytes(x.to_bytes(nb, "little") * width, "little")
        for x in ((1 << e) - 1, (1 << bits - e) - 1, c, 1)
    )
    pre, top = 0, (1 << bits) - 1
    while top * (p - 1) >> bits:
        top = (1 << e) - 1 + c * (top >> e)
        pre += 1

    def fold(v: int) -> int:
        high = (v >> e) & hi
        while high:
            v = (v & lo) + (high if c == 1 else c * high)  # c = 1: no multiply
            high = (v >> e) & hi
        return v - (((v + cs) >> e) & ones) * p

    def fold_scaled(v: int, s: int) -> int:
        for _ in range(pre):
            v = (v & lo) + c * ((v >> e) & hi)
        return fold(v * s)

    return fold_scaled


class RowEchelonAccumulator:
    """Incremental row echelon basis over Z/p, one packed int per row.

    Entry i of a packed vector is the slot of bits [8Bi, 8B(i + 1)), with
    B = ``nb``, the ``slot_bytes`` of (p, width).  ``insert`` takes only a
    vector packed so, by ``pack_slots(slots, acc.nb)``, each slot within
    the bound ``slot_bytes`` states and read mod p.  Only the caller can
    rule out a slot past it, which would silently carry: ``insert`` checks
    just that the vector is a nonnegative int of at most ``width`` slots.
    A kept row with pivot q reduces other vectors as its tail, held in a
    table keyed by q: the tail packs its slots q..width-1 as residues, the
    pivot scaled to read -1 (p - 1).

    ``insert`` consumes v from the bottom, one slot at a time, jumping over
    a run of literally zero slots at once.  Slot q with c = slot q mod p is
    dropped if c = 0; else, if a row with pivot q is stored, v += c * tail,
    which clears slot q mod p, and slot q is dropped; else q is v's pivot
    and the loop stops.  If v runs out first it was dependent.  A kept v is
    stored raw, keyed by its pivot, and stays raw until a later vector first
    needs it to clear its pivot slot: on that first use it becomes its
    tail, once: the ``slot_reducer`` of the accumulator's (p, width) takes its
    slots times the residue of -1/pivot mod p.  That is one inverse per
    row, and a row never used costs none.  ``pivots`` lists the pivot of
    every row kept, in keep order, and ``rank`` is its length.

    ``pop(q)`` removes the row kept with pivot q and returns it as
    ``width`` residues, 0 below q and nonzero at q.  It is the vector
    inserted plus the multiples of tails the walk added to it, scaled by
    -1/pivot if a later vector used it: a nonzero multiple of the vector
    plus a combination of the vectors kept before it, and no more is
    promised.  A popped row reduces nothing any more, so an accumulator
    takes no ``insert`` after a ``pop``; ``pivots`` and ``rank`` stay those
    of the span inserted.

    The early stop is exact.  An echelon basis needs distinct pivots, each
    row zero left of its pivot, not rows reduced against larger pivots.  If
    v is 0 mod p below a free column r and nonzero at r, v is no combination
    of stored rows: a combination is nonzero at the smallest pivot it uses,
    which lies below r, where v is 0, or above r, where the combination is 0
    at r.  So verdicts and rank are those of a reduced form, though the
    stored rows may differ.

    No slot carries: c and every tail slot are residues, the loop adds at
    most rank <= width tails, and nothing subtracts, as ``slot_bytes`` allows.
    On the shift scan of a generic matrix the columns are faces in lex order
    and each compound row vanishes on the faces lex-before its own row face,
    so the loop jumps over most of the basis.
    """

    __slots__ = ("p", "width", "nb", "pivots", "_reduce", "_rows", "_raw")

    def __init__(self, width: int, p: int = DEFAULT_PRIME):
        self.p = p = check_prime(p)
        self.width = width
        self.nb = slot_bytes(p, width)  # bytes per slot of the vectors insert takes
        self.pivots: list[int] = []  # the pivot of each row kept, in keep order
        self._reduce = slot_reducer(p, width)
        self._rows: dict[int, int] = {}  # pivot -> tail
        self._raw: dict[int, int] = {}  # pivot -> kept v, not yet scaled

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def insert(self, vec: int) -> bool:
        """Reduce ``vec`` and keep it if independent.

        Args:
            vec: a vector packed to ``nb`` bytes a slot, each slot within
                the ``slot_bytes`` bound; anything but an int raises ``TypeError``.

        Returns:
            True when the vector extended the span, False when it was
            already dependent (in particular for the zero vector).
        """
        width, p, nb = self.width, self.p, self.nb
        bits, mask = 8 * nb, (1 << 8 * nb) - 1
        v = operator.index(vec)
        if v < 0 or v.bit_length() > width * bits:
            raise ValueError(f"packed vector must be a nonnegative int of {width} slots")
        rows, raw = self._rows, self._raw
        off = 0  # v holds slots off..width-1
        while v:
            c = v & mask
            if not c:
                run = ((v & -v).bit_length() - 1) // bits
                v >>= run * bits
                off += run
                continue
            c %= p
            if c:
                tail = rows.get(off)
                if tail is None:
                    kept = raw.pop(off, None)
                    if kept is None:
                        break
                    tail = rows[off] = self._scaled(kept)
                v += c * tail
            v >>= bits
            off += 1
        else:
            return False
        raw[off] = v
        self.pivots.append(off)
        return True

    def pop(self, pivot: int) -> list[int]:
        """Remove the row kept with pivot ``pivot`` and return its
        ``width`` residues, as the class docstring states; a pivot with no
        stored row raises ``KeyError``.

        A raw row is reduced by the accumulator's ``slot_reducer`` at scale
        1, a tail already holds residues.  Shifted up by ``pivot`` slots,
        so the slots below the pivot read 0, the row's bytes are read by
        one unpack of the ``_residue_struct`` of (nb, width): no Python
        loop runs over the slots."""
        kept = self._raw.pop(pivot, None)
        if kept is None:
            kept = self._rows.pop(pivot)
        else:
            kept = self._reduce(kept, 1)
        nb, width = self.nb, self.width
        buf = (kept << 8 * nb * pivot).to_bytes(nb * width, "little")
        return list(_residue_struct(nb, width).unpack(buf))

    def _scaled(self, kept: int) -> int:
        """The tail of a raw row: its slots reduced mod p and scaled so the
        pivot, its lowest slot, reads -1."""
        p = self.p
        neg = p - pow((kept & ((1 << 8 * self.nb) - 1)) % p, -1, p)
        return self._reduce(kept, neg)
