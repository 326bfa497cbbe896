"""Prime-field matrices: determinants, minors, rank, and matrix specs."""

import bisect
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftkit import field
from shiftkit.cli import main
from shiftkit.complexes import MAX_VERTICES, Face, SimplicialComplex
from shiftkit.engine import exterior_shift
from shiftkit.field import (
    DEFAULT_PRIME,
    BlockGenericSpec,
    ExplicitSpec,
    FieldMatrix,
    GenericSpec,
    RowEchelonAccumulator,
    check_prime,
    is_prime,
    pack_residues,
    realize,
    slot_bytes,
    slot_reducer,
)
from shiftkit.suites import _explicit_apex_check
from packing import pack_slots, unpack_slots

P = 10007  # small prime keeps oracle arithmetic readable
BIG = (1 << 62) - 57  # the largest accepted prime
SLOTWISE = (1 << 60) + 33  # the least prime above 2^60, reduced slot by slot


def rational_det(rows):
    """Gaussian elimination over Q; the reference for det mod p."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def det(A):
    """Determinant of a square ``FieldMatrix``, by the reduction ``minor`` uses."""
    return field._det(A.rows, A.p)


def rational_rank(rows):
    """Elimination over Q on the columns; the reference for rank mod p."""
    n = len(rows)
    probe = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for j in range(len(rows[0])):
        col = [probe[i][j] for i in range(n)]
        for pr, pj in pivots:
            factor = col[pr]
            if factor:
                col = [c - factor * d for c, d in zip(col, pj)]
        nz = next((i for i, c in enumerate(col) if c), None)
        if nz is not None:
            inv = 1 / col[nz]
            pivots.append((nz, [c * inv for c in col]))
    return len(pivots)


def mod_p_pivot_rows(rows, p):
    """Elimination mod p on the columns, like ``rational_rank``.

    Returns the pivot rows.  Each pivot row is the first nonzero entry of
    its reduced column, so the pivot rows are the rows that extend the span
    of the rows before them: their count is the rank, and ``i in pivots``
    is the verdict a row-by-row greedy scan gives row i.
    """
    n = len(rows)
    pivots = []
    for j in range(len(rows[0])):
        col = [rows[i][j] % p for i in range(n)]
        for pr, pj in pivots:
            factor = col[pr]
            if factor:
                col = [(c - factor * d) % p for c, d in zip(col, pj)]
        nz = next((i for i, c in enumerate(col) if c), None)
        if nz is not None:
            inv = pow(col[nz], -1, p)
            pivots.append((nz, [c * inv % p for c in col]))
    return {pr for pr, _ in pivots}


def _insert(acc, row):
    """Insert a list of residues, packed to the accumulator's slot size."""
    return acc.insert(pack_slots(row, acc.nb))


def frac_mod(q: Fraction, p: int) -> int:
    return q.numerator * pow(q.denominator, -1, p) % p


def test_default_prime_is_prime_and_in_range():
    assert is_prime(DEFAULT_PRIME)
    assert DEFAULT_PRIME == (1 << 61) - 1
    assert check_prime(DEFAULT_PRIME) == DEFAULT_PRIME


def test_check_prime_rejects_bad_moduli():
    for bad in (0, 1, 2, 4, 2**61, 1 << 62, (1 << 62) + 15):
        with pytest.raises(ValueError):
            check_prime(bad)


def test_check_prime_refuses_moduli_that_are_not_ints():
    # a float that reads as a prime, or a string, is refused at the
    # boundary, not deep inside the shift (p.bit_length, pow)
    for bad in (7.0, 10007.0, "7"):
        with pytest.raises(TypeError):
            check_prime(bad)
    assert check_prime(7) == 7 and type(check_prime(7)) is int
    with pytest.raises(TypeError):
        check_prime(7.0)  # not answered from the cache entry of 7
    K = SimplicialComplex.from_facets(3, [[1, 2], [2, 3]])
    for bad in (7.0, 10007.0):
        with pytest.raises(TypeError):
            exterior_shift(K, p=bad)


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 10007}
    for m in list(primes) + [9, 15, 91, 10005]:
        assert is_prime(m) == (m in primes)


def test_entries_reduced_mod_p():
    m = FieldMatrix([[-1, P + 3]], P)
    assert m.entry(0, 0) == P - 1 and m.entry(0, 1) == 3
    assert FieldMatrix([[P + 1, -1]], P).rows == ((1, P - 1),)


def test_det_against_rational_oracle():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det(FieldMatrix(rows, P)) == frac_mod(rational_det(rows), P)
    # permutation matrices, a zero (0, 0) entry, sparse rows: the lower
    # reduction's pivots come out of order, so the determinant needs the
    # sign of the pivot permutation
    out_of_order = 0
    for _ in range(200):
        rows = _random_square(rng, rng.randint(1, 6), P)
        A = FieldMatrix(rows, P)
        assert det(A) == frac_mod(rational_det(rows), P)
        if A.is_nonsingular():
            pivots = [next(j for j, x in enumerate(r) if x) for r in A.lower_reduced().rows]
            out_of_order += pivots != sorted(pivots)
    assert out_of_order >= 40


def test_rank_against_rational_oracle():
    rng = random.Random(8)
    for _ in range(40):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        r = rng.randint(0, min(n, m))
        # build rank-r product of small random factors
        a = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
        b = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(r)]
        rows = [
            [sum(a[i][k] * b[k][j] for k in range(r)) for j in range(m)]
            for i in range(n)
        ]
        got = FieldMatrix(rows, P).rank()
        assert got <= r
        assert got == rational_rank(rows)


@given(st.integers(1, 3), st.data())
def test_det_multiplicative(n, data):
    rows = lambda: [
        [data.draw(st.integers(0, P - 1)) for _ in range(n)] for _ in range(n)
    ]
    A, B = FieldMatrix(rows(), P), FieldMatrix(rows(), P)
    assert det(A @ B) == det(A) * det(B) % P


def test_minor_by_faces():
    m = FieldMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]], P)
    assert m.minor(Face.of(1), Face.of(3)) == 3
    assert m.minor(Face.of(1, 2), Face.of(1, 3)) == (1 * 6 - 3 * 4) % P
    assert m.minor(Face.of(1, 2, 3), Face.of(1, 2, 3)) == det(m)
    assert m.minor(0, 0) == 1  # empty minor is the empty product
    # rows 1..3 and columns 2..4 hold the 3 x 3 anti-diagonal: pivots in
    # reverse order, an odd permutation
    a = FieldMatrix([[5, 0, 0, 1], [6, 0, 1, 0], [7, 1, 0, 0], [8, 9, 9, 9]], P)
    assert a.minor(Face.of(1, 2, 3), Face.of(2, 3, 4)) == P - 1
    with pytest.raises(ValueError):
        m.minor(Face.of(1), Face.of(1, 2))
    # a vertex past the matrix, as a row or as a column, is refused too
    two = FieldMatrix([[1, 2], [3, 4]], 7)
    for rows, cols in ((0b100, 0b1), (0b1, 0b100), (Face.of(1, 3), Face.of(1, 2)), (1 << 64, 1)):
        with pytest.raises(ValueError, match="2 x 2"):
            two.minor(rows, cols)
    assert FieldMatrix([[1, 2, 3]], 7).minor(Face.of(1), Face.of(3)) == 3


def test_matmul_identity_and_shapes():
    m = FieldMatrix([[1, 2], [3, 4], [5, 6]], P)
    assert m @ FieldMatrix([[1, 0], [0, 1]], P) == m
    assert FieldMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]], P) @ m == m
    with pytest.raises(ValueError):
        m @ m


def test_is_nonsingular():
    assert FieldMatrix([[2, 1], [1, 1]], P).is_nonsingular()
    assert not FieldMatrix([[1, 2], [2, 4]], P).is_nonsingular()
    assert not FieldMatrix([[1, 2]], P).is_nonsingular()  # not square


def _random_square(rng, n, p):
    kind = rng.randrange(4)
    if kind == 0:  # permutation
        perm = rng.sample(range(n), n)
        return [[int(j == perm[i]) for j in range(n)] for i in range(n)]
    rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
    if kind == 1:
        rows[0][0] = 0
    elif kind == 2:  # sparse, often singular
        rows = [[x if rng.random() < 0.35 else 0 for x in row] for row in rows]
    return rows


@pytest.mark.parametrize("p", [3, P, DEFAULT_PRIME, SLOTWISE])
def test_lower_reduced_is_a_lower_triangular_reduction(p):
    rng = random.Random(p)
    checked = 0
    for _ in range(120):
        n = rng.randint(1, 7)
        A = FieldMatrix(_random_square(rng, n, p), p)
        M = A.lower_reduced()
        assert (M is not None) == A.is_nonsingular()
        if M is None:
            continue
        checked += 1
        pivots = [next(j for j, x in enumerate(r) if x) for r in M.rows]
        assert len(set(pivots)) == n
        for i, row in enumerate(M.rows):
            assert all(row[q] == 0 for q in pivots[:i])
        # row i of M is a nonzero multiple of row i of A minus a combination
        # of the rows above
        for i in range(1, n + 1):
            a, m = list(A.rows[:i]), list(M.rows[:i])
            rank = len(mod_p_pivot_rows(a, p))
            assert FieldMatrix(a, p).rank() == rank
            assert len(mod_p_pivot_rows(m, p)) == rank
            assert len(mod_p_pivot_rows(a + m, p)) == rank
    assert checked >= 40


def unit_lower_reduce(rows, p):
    """Rows of L^-1 A for the unit lower-triangular L: each row cleared
    against the reduced rows above it, in pivot order, by subtracting
    multiples of them.  The reference for ``lower_reduced`` up to scale."""
    done, out = [], []
    for row in rows:
        v = list(row)
        for q, r in sorted(done):
            if v[q]:
                f = v[q] * pow(r[q], -1, p) % p
                v = [(x - f * y) % p for x, y in zip(v, r)]
        q = next(j for j, x in enumerate(v) if x)
        done.append((q, v))
        out.append(v)
    return out


@pytest.mark.parametrize("p", [3, P, DEFAULT_PRIME])
def test_lower_reduced_rows_are_multiples_of_a_unit_reduction(p):
    rng = random.Random(p + 1)
    checked = 0
    for _ in range(150):
        n = rng.randint(1, 7)
        A = FieldMatrix(_random_square(rng, n, p), p)
        M = A.lower_reduced()
        if M is None:
            continue
        checked += 1
        for m, u in zip(M.rows, unit_lower_reduce(A.rows, p)):
            q = next(j for j, x in enumerate(u) if x)
            assert next(j for j, x in enumerate(m) if x) == q  # same pivot
            # m = s u with s = m[q] / u[q], which is not 0
            assert all(x * u[q] % p == y * m[q] % p for x, y in zip(m, u))
    assert checked >= 60


def pivot_order_lower_reduce(rows, p):
    """``_lower_reduce`` with its stored rows applied in pivot order, kept
    sorted by ``bisect.insort``: the reference for applying them in the
    order they were stored."""
    echelon, out, scale = [], [], 1
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
        bisect.insort(echelon, (q, v[q], v))
        out.append(v)
    return out, scale


# the explicit matrix CI shifts ∂β_5 with: its lower reduction has the
# out-of-order pivots 3, 7, 0, 9, 5, 1, 8, 2, 6, 4
MIX = [
    [1 if c == r else (r + 2 * c) % 5 if c > r else 0 for c in range(10)]
    for r in (3, 7, 0, 9, 5, 1, 8, 2, 6, 4)
]


@pytest.mark.parametrize("p", [7, P, DEFAULT_PRIME])
def test_lower_reduce_in_store_order_matches_pivot_order(p):
    # sparse rows, so that the pivots come out of order and later rows are
    # cleared by rows stored in another order than their pivots'
    rng = random.Random(p + 2)
    out_of_order = 0
    for _ in range(300):
        n = rng.randint(1, 7)
        rows = [[rng.randrange(1, p) if rng.random() < 0.35 else 0 for _ in range(n)] for _ in range(n)]
        got = field._lower_reduce(rows, p)
        assert got == pivot_order_lower_reduce(rows, p)
        if got is not None:
            pivots = [next(j for j, x in enumerate(r) if x) for r in got[0]]
            out_of_order += pivots != sorted(pivots)
    assert out_of_order >= 30
    got = field._lower_reduce(MIX, p)
    assert [next(j for j, x in enumerate(r) if x) for r in got[0]] == [3, 7, 0, 9, 5, 1, 8, 2, 6, 4]
    assert got == pivot_order_lower_reduce(MIX, p)


@pytest.fixture
def inverses(monkeypatch):
    """Count the modular inverses ``shiftkit.field`` takes with ``pow``."""
    calls = []

    def counting_pow(base, exp, mod=None):
        if exp < 0:
            calls.append(base)
        return pow(base, exp, mod)

    monkeypatch.setattr(field, "pow", counting_pow, raising=False)
    return calls


def test_hot_paths_take_no_modular_inverse(inverses):
    A = realize(GenericSpec(0), 8, P)
    assert A.lower_reduced() is not None and inverses == []
    assert det(A) == frac_mod(rational_det(A.rows), P)
    assert len(inverses) <= 1
    width = 9
    acc = RowEchelonAccumulator(width, P)
    del inverses[:]
    for i in range(width):
        assert _insert(acc, [int(j == i) for j in range(width)])
    assert inverses == [] and acc.rank == width
    # the all-ones vector is cleared by every unit row, each scaled on first use
    assert not _insert(acc, [1] * width)
    assert len(inverses) == width
    assert not _insert(acc, [1] * width)
    assert len(inverses) == width


def test_is_nonsingular_agrees_with_det():
    rng = random.Random(4)
    singular = 0
    for _ in range(200):
        p = rng.choice((3, 5, 7))
        A = FieldMatrix(_random_square(rng, rng.randint(1, 5), p), p)
        d = det(A)
        assert A.is_nonsingular() == (d != 0)
        singular += d == 0
    assert singular >= 40
    wide = FieldMatrix([[1, 0, 0], [0, 1, 0]], P)
    assert not wide.is_nonsingular() and wide.lower_reduced() is None


def test_realize_generic_is_deterministic_and_nonsingular():
    a = realize(GenericSpec(seed=5), 4, DEFAULT_PRIME)
    b = realize(GenericSpec(seed=5), 4, DEFAULT_PRIME)
    c = realize(GenericSpec(seed=6), 4, DEFAULT_PRIME)
    assert a == b
    assert a != c
    assert a.is_nonsingular()
    # realize stores its draws as given, so they must already be residues
    for p in (3, P, DEFAULT_PRIME):
        for spec in (GenericSpec(seed=5), BlockGenericSpec(2, 3, seed=5)):
            rows = realize(spec, 5, p).rows
            assert all(type(x) is int and 0 <= x < p for row in rows for x in row)


def test_realize_block_structure():
    m = realize(BlockGenericSpec(2, 3, seed=1), 5, P)
    assert m.is_nonsingular()
    for i in range(2):
        for j in range(2, 5):
            assert m.entry(i, j) == 0
    for i in range(2, 5):
        for j in range(2):
            assert m.entry(i, j) == 0
    with pytest.raises(ValueError, match="sum to n"):
        realize(BlockGenericSpec(2, 2, seed=1), 5, P)


def test_realize_explicit_validates():
    spec = ExplicitSpec.from_rows([[1, 1], [0, 1]])
    assert realize(spec, 2, P).entry(0, 1) == 1
    with pytest.raises(ValueError, match="3x3"):
        realize(spec, 3, P)
    with pytest.raises(ValueError, match="singular"):
        realize(ExplicitSpec.from_rows([[1, 1], [1, 1]]), 2, P)


def test_random_redraws_are_bounded(monkeypatch):
    field._drawn.cache_clear()  # a memoised draw would not be redrawn
    monkeypatch.setattr(FieldMatrix, "is_nonsingular", lambda self: False)
    for spec in (GenericSpec(seed=7), BlockGenericSpec(1, 2, seed=7)):
        with pytest.raises(ValueError, match="seed 7, p=10007"):
            realize(spec, 3, P)
    K = SimplicialComplex.from_facets(3, [[1, 2], [1, 3]])
    with pytest.raises(ValueError, match="p=10007"):
        _explicit_apex_check(random.Random(0), K, P)


def test_realize_memoises_each_draw_by_block_size_seed_and_prime():
    field._drawn.cache_clear()
    a = realize(GenericSpec(5), 4, P)
    assert realize(GenericSpec(5), 4, P) is a
    # a generic matrix is one k = n block, so both specs share an entry
    assert realize(BlockGenericSpec(4, 0, 5), 4, P) is a
    assert field._drawn.cache_info()[:2] == (2, 1)  # hits, misses
    others = [
        realize(GenericSpec(6), 4, P),
        realize(GenericSpec(5), 5, P),
        realize(GenericSpec(5), 4, 10009),
        realize(BlockGenericSpec(2, 2, 5), 4, P),
    ]
    assert all(m is not a for m in others)
    assert field._drawn.cache_info().maxsize == 16


def test_memoised_draws_are_handed_out_reduced(monkeypatch):
    field._drawn.cache_clear()
    reductions, reduce = [], field._lower_reduce

    def counted(rows, p):
        reductions.append(len(rows))
        return reduce(rows, p)

    monkeypatch.setattr(field, "_lower_reduce", counted)
    K = SimplicialComplex.from_facets(5, [[1, 2, 3], [3, 4], [4, 5]])
    L = SimplicialComplex.from_facets(5, [[1, 2], [2, 3, 4, 5]])
    first = exterior_shift(K, GenericSpec(2), p=P)
    second = exterior_shift(L, GenericSpec(2), p=P)
    assert first.retries == second.retries == 0
    assert second.matrix is first.matrix
    assert reductions == [5]


def test_memo_keys_are_checked_ints():
    field._drawn.cache_clear()
    realize(GenericSpec(3), 4, 7)
    # each of these would share the int entry if it reached the memo
    for spec, n, p in (
        (GenericSpec(3), 4, 7.0),
        (GenericSpec(3), 4.0, 7),
        (GenericSpec(None), 4, 7),
        (GenericSpec("3"), 4, 7),
        (BlockGenericSpec(2.0, 2, 3), 4, 7),
    ):
        with pytest.raises(TypeError):
            realize(spec, n, p)
    with pytest.raises(TypeError):
        exterior_shift(SimplicialComplex.from_facets(4, [[1, 2], [3, 4]]), GenericSpec(3), p=7.0)
    assert field._drawn.cache_info()[:2] == (0, 1)


def test_negative_seeds_are_refused():
    field._drawn.cache_clear()
    # random.Random(-s) seeds as random.Random(s) does: -1 would redraw seed 1
    for spec in (GenericSpec(-1), BlockGenericSpec(2, 2, -3)):
        with pytest.raises(ValueError, match="seed must be a nonnegative int"):
            realize(spec, 4, P)


def test_negative_sizes_are_refused_before_the_memo():
    field._drawn.cache_clear()
    for spec in (GenericSpec(0), BlockGenericSpec(0, 0, 0)):
        with pytest.raises(ValueError, match="matrix size must be nonnegative, got -2"):
            realize(spec, -2, P)
    assert field._drawn.cache_info().currsize == 0
    assert realize(GenericSpec(0), 0, P).nrows == 0  # the empty matrix stays valid


def test_explicit_specs_are_not_memoised():
    field._drawn.cache_clear()
    # list rows do not hash, and an explicit matrix is the caller's own
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    B = SimplicialComplex.from_facets(4, [[1, 2], [3, 4]])
    assert exterior_shift(B, ExplicitSpec(eye), p=P).shifted == B
    assert realize(ExplicitSpec(eye), 4, P) is not realize(ExplicitSpec(eye), 4, P)
    assert field._drawn.cache_info().currsize == 0


def test_explore_draws_two_matrices_per_draw(capsys):
    field._drawn.cache_clear()
    assert main(["explore", "--trials", "200", "--seed", "1"]) == 0
    capsys.readouterr()
    # per draw: K and susp K miss, susp(shift K) has susp K's size and seed
    assert field._drawn.cache_info()[:2] == (200, 400)


def test_accumulator_tracks_rank_and_rejects_dependents():
    acc = RowEchelonAccumulator(3, P)
    assert _insert(acc, [1, 2, 3])
    assert _insert(acc, [0, 1, 1])
    assert not _insert(acc, [1, 3, 4])  # sum of the first two
    assert acc.rank == 2
    assert _insert(acc, [0, 0, 5])
    assert acc.rank == 3


def test_accumulator_matches_matrix_rank():
    rng = random.Random(9)
    for _ in range(30):
        rows = [[rng.randint(0, 3) for _ in range(4)] for _ in range(rng.randint(1, 6))]
        acc = RowEchelonAccumulator(4, P)
        for row in rows:
            _insert(acc, row)
        assert acc.rank == rational_rank(rows)


def _combination(rng, rows, width, p):
    cs = [rng.randrange(p) for _ in rows]
    return [sum(c * r[j] for c, r in zip(cs, rows)) % p for j in range(width)]


def _check_verdicts(rows, width, p):
    acc = RowEchelonAccumulator(width, p)
    verdicts = [_insert(acc, row) for row in rows]
    pivots = mod_p_pivot_rows(rows, p)
    assert verdicts == [i in pivots for i in range(len(rows))]
    assert acc.rank == len(pivots) == FieldMatrix(rows, p).rank()


def _check_packed_verdicts(rows, width, p, k, lift):
    """``_check_verdicts`` with each row packed unreduced, as the shift scan
    packs the rows of size-k faces, k <= MAX_VERTICES: a residue x goes in
    as x + m p, with m = lift(x, most) and most the largest m that keeps it
    at most k (p - 1)^2."""
    assert 1 <= k <= MAX_VERTICES
    top = k * (p - 1) ** 2
    acc = RowEchelonAccumulator(width, p)
    verdicts = [acc.insert(pack_slots([x + lift(x, (top - x) // p) * p for x in row], acc.nb)) for row in rows]
    pivots = mod_p_pivot_rows(rows, p)
    assert verdicts == [i in pivots for i in range(len(rows))]
    assert acc.rank == len(pivots)


@pytest.mark.parametrize("p", [3, P, DEFAULT_PRIME, BIG, SLOTWISE])
def test_accumulator_matches_mod_p_oracle(p):
    # at p = 3 the rank mod p differs from the rank over Q, so this oracle
    # stays in Z/p; dependent combinations of earlier rows are mixed in, and
    # zero vectors and vectors with leading zeros, where insert skips ahead
    rng = random.Random(p)
    for width in range(1, 17):
        for _ in range(6):
            rows = []
            for _ in range(rng.randint(1, 2 * width)):
                roll = rng.random()
                if rows and roll < 0.3:
                    picked = rng.sample(rows, rng.randint(1, len(rows)))
                    rows.append(_combination(rng, picked, width, p))
                elif roll < 0.4:
                    rows.append([0] * width)
                elif roll < 0.7:
                    # supported on a suffix: long runs of leading zeros
                    lead = rng.randrange(width)
                    rows.append([0] * lead + [rng.randrange(p) for _ in range(width - lead)])
                else:
                    rows.append([rng.choice((0, 1, p - 1, rng.randrange(p))) for _ in range(width)])
            _check_verdicts(rows, width, p)


def test_accumulator_worst_case_slot_sums():
    # Unit rows scaled by p - 1 with p - 1 in every trailing slot are stored
    # as p - 1 throughout, and reducing an all-(p - 1) vector takes c = p - 1
    # from each of them, so each trailing slot sums k (p - 1)^2 + (p - 1):
    # past 2^128 here, which one byte less per slot would overflow.
    p, width, k = DEFAULT_PRIME, 256, 96
    rows = [[p - 1 if j == i or j >= k else 0 for j in range(width)] for i in range(k)]
    assert k * (p - 1) ** 2 >= 1 << 128
    rng = random.Random(11)
    for _ in range(6):
        rows.append([p - 1] * width)
        rows.append([rng.randrange(p) for _ in range(k)] + [p - 1] * (width - k))
        rows.append(_combination(rng, rows, width, p))
    _check_verdicts(rows, width, p)
    # Packed vectors whose slots start as high as k (p - 1)^2, as the shift
    # scan's unreduced rows of size-k faces may: one reduction step adds up
    # to (p - 1)^2 more.  At p = 2^62 - 57 a slot of width + k <= 16 such
    # products fits 16 bytes and one of 17 does not, so a layout sized for
    # residues alone, 16 bytes here, fails this check from k = 15 or 16 on.
    p = (1 << 62) - 57
    for width in (1, 2, 3):
        for k in (*range(1, 21), MAX_VERTICES):
            basis = [[0] * i + [p - 1] * (width - i) for i in range(width)]
            rows = [[rng.randrange(p) for _ in range(width)]] + basis
            rows += [[p - 1] * width, _combination(rng, basis, width, p)]
            rows += [[rng.randrange(p) for _ in range(width)] for _ in range(2)]
            _check_packed_verdicts(rows, width, p, k, lambda x, most: most)


def test_accumulator_takes_slots_of_the_largest_face():
    # every slot is MAX_VERTICES (p - 1)^2 or the largest multiple of p
    # below it, residue 64 or 0, as the unreduced row of a 64-vertex face
    # may be; a layout sized for residues, 16 bytes a slot, cannot pack them
    p = BIG
    top = MAX_VERTICES * (p - 1) ** 2
    rng = random.Random(64)
    for width in range(1, 13):
        acc = RowEchelonAccumulator(width, p)
        patterns = [[1] * width, [0] * width] + [[int(j >= i) for j in range(width)] for i in range(width)]
        patterns += [[rng.randint(0, 1) for _ in range(width)] for _ in range(2 * width)]
        rng.shuffle(patterns)
        verdicts = [acc.insert(pack_slots([top if b else top - top % p for b in pat], acc.nb)) for pat in patterns]
        rows = [[b * top % p for b in pat] for pat in patterns]
        pivots = mod_p_pivot_rows(rows, p)
        assert verdicts == [i in pivots for i in range(len(rows))], width
        assert acc.rank == len(pivots)


@pytest.mark.parametrize("p", [3, P, DEFAULT_PRIME, BIG, SLOTWISE])
def test_accumulator_scales_a_raw_row_on_first_use(p, inverses):
    # a row kept with pivot q stays raw while later vectors stop below q,
    # clear to zero before it, or jump over it in a zero run; a probe that
    # reaches q only through a zero run then uses it for the first time
    rng = random.Random(p)
    width, q = 14, 8

    def row(lead):
        tail = [rng.randrange(p) for _ in range(width - lead - 1)]
        return [0] * lead + [rng.randrange(1, p)] + tail

    rows = [row(q)]
    low = [row(j) for j in range(q)]
    rows += low
    for _ in range(10):
        rows.append(_combination(rng, rng.sample(low, rng.randint(1, q)), width, p))
    rows += [row(j) for j in range(q + 1, width - 1)]
    rows.append([0] * width)
    acc = RowEchelonAccumulator(width, p)
    verdicts = [_insert(acc, r) for r in rows]
    pivots = mod_p_pivot_rows(rows, p)
    assert verdicts == [i in pivots for i in range(len(rows))]
    assert acc.rank == len(pivots) == width - 1
    assert q in acc._raw and q not in acc._rows
    used = len(inverses)
    assert used < acc.rank  # the raw rows count towards the rank too
    probe = row(q)
    rows += [probe, probe]  # the second time it is dependent
    verdicts += [_insert(acc, probe), _insert(acc, probe)]
    pivots = mod_p_pivot_rows(rows, p)
    assert verdicts == [i in pivots for i in range(len(rows))]
    assert acc.rank == len(pivots)
    assert q in acc._rows and q not in acc._raw
    assert len(inverses) > used


@pytest.mark.parametrize("p", [DEFAULT_PRIME, SLOTWISE, 3])
def test_accumulator_pops_each_kept_row_in_the_span_it_extended(p):
    # rows that are 0 at 2 of 12 columns, and combinations of them, then a
    # row nonzero at the second, inserted lifted by multiples of p: the rows
    # later vectors reduce with are popped scaled, the last one raw; at the
    # fold reducer's prime, at one reduced slot by slot and at 3
    rng = random.Random(p)
    width = 12
    free = rng.sample(range(width), 2)
    rows = []
    for _ in range(12):
        lead = rng.randrange(width)
        row = [0] * lead + [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(width - lead - 1)]
        rows.append([0 if j in free else x for j, x in enumerate(row)])
        if rng.random() < 0.4:
            rows.append(_combination(rng, rows, width, p))
    rows.append([0 if j == free[0] else rng.randrange(1, p) for j in range(width)])
    acc = RowEchelonAccumulator(width, p)
    kept = [i for i, row in enumerate(rows) if acc.insert(pack_slots([x + p * rng.randrange(4) for x in row], acc.nb))]
    assert acc.rank == len(acc.pivots) == len(kept) == len(mod_p_pivot_rows(rows, p))

    def rank(vectors):
        return len(mod_p_pivot_rows(vectors, p)) if vectors else 0

    assert acc.pivots[-1] in acc._raw and acc.pivots[0] in acc._rows  # both forms are handed back
    for i, q in rng.sample(list(zip(kept, acc.pivots)), len(kept)):
        got = acc.pop(q)
        assert len(got) == width and all(0 <= x < p for x in got)
        assert got[:q] == [0] * q and got[q]
        assert rank(rows[: i + 1] + [got]) == rank(rows[: i + 1])
        assert rank(rows[:i] + [got]) == rank(rows[:i]) + 1
        with pytest.raises(KeyError):
            acc.pop(q)
    with pytest.raises(KeyError):
        acc.pop(free[0])
    assert acc.rank == len(kept)
    for w in (1, 5, 40):
        nb = slot_bytes(p, w)
        slots = [rng.choice((0, (1 << 8 * nb) - 1, rng.randrange(1 << 8 * nb))) for _ in range(w)]
        assert unpack_slots(pack_slots(slots, nb), nb, w) == slots
        assert unpack_slots(pack_slots(slots[:-1], nb), nb, w) == slots[:-1] + [0]


@pytest.mark.parametrize("p", [DEFAULT_PRIME, BIG, SLOTWISE, P, 3])
@pytest.mark.parametrize("width", [1, 2, 13, 64, 300])
def test_pop_reads_the_stored_row_mod_p(p, width):
    # whatever form a kept row is stored in, raw or scaled to a tail, pop
    # hands back its slots mod p, at the pivot's offset: one accumulator
    # whose rows are all left raw, and one where a probe through every
    # pivot from slot 0 on scales the rows it meets; slot sizes 17 (the
    # default prime, 2^62 - 57 and 2^60 + 33, whose tails are reduced slot
    # by slot), 5 (10007) and 2 (3)
    rng = random.Random(p + width)
    nb = slot_bytes(p, width)
    top = MAX_VERTICES * (p - 1) ** 2  # the largest slot a caller may insert

    def row(lead):
        return [0] * lead + [rng.randrange(1, p) + p * rng.randrange(top // p)] + [
            rng.choice((0, top, rng.randrange(top + 1))) for _ in range(width - lead - 1)
        ]

    raw, scaled = RowEchelonAccumulator(width, p), RowEchelonAccumulator(width, p)
    for acc in (raw, scaled):
        for lead in range(width):
            assert acc.insert(pack_slots(row(lead), nb))
    assert not scaled.insert(pack_slots(row(0), nb))
    assert not raw._rows and 0 in scaled._rows
    for acc in (raw, scaled):
        for q in rng.sample(acc.pivots, len(acc.pivots)):
            stored = acc._raw.get(q, acc._rows.get(q))
            got = acc.pop(q)
            assert type(got) is list
            assert got == [0] * q + [x % p for x in unpack_slots(stored, nb, width - q)]
            assert got[q]


@pytest.mark.parametrize("p", [3, P, (1 << 30) + 3, DEFAULT_PRIME, BIG, SLOTWISE])
@pytest.mark.parametrize("width", [0, 1, 2, 63, 64, 300])
def test_pack_residues_matches_the_bytewise_layout(p, width):
    # the package's one packer writes the bytes the tests' packer writes
    # slot by slot, at every slot size the tests' primes give: 2 (3), 5
    # (10007), 9 (2^30 + 3) and 17 (2^61 - 1, 2^62 - 57, 2^60 + 33)
    nb = slot_bytes(p, width)
    assert nb == {3: 2, P: 5, (1 << 30) + 3: 9}.get(p, 17)
    rng = random.Random(p + width)
    mixed = [rng.choice((0, p - 1, rng.randrange(p))) for _ in range(width)]
    for residues in ([0] * width, [p - 1] * width, mixed, [rng.randrange(p) for _ in range(width)]):
        packed = pack_residues(residues, nb)
        assert packed == pack_slots(residues, nb)
        assert unpack_slots(packed, nb, width) == residues


@pytest.mark.parametrize(
    "p, folds", [(DEFAULT_PRIME, True), (BIG, True), (3, True), (P, True), (SLOTWISE, False)]
)
def test_slot_reducer_matches_per_slot_mod(p, folds, monkeypatch):
    # slots at the edges of both paths: 0, p - 1 and the multiples of p,
    # 2^e - 1 and 2^e around the fold's bit e, and the largest slot the
    # layout allows, (MAX_VERTICES + width)(p - 1)^2, with its multiples of
    # p below it, and 2^(8 nb) - 1, the most a slot holds, which the fold
    # path's fixed pre-folds bring below 2^(8 nb) / (p - 1); widths on both
    # sides of the slot size's steps, at 64 and 192 slots; vectors as wide
    # as the reducer and shorter, as tails are; scaled by 1 and by a residue
    packs = []
    monkeypatch.setattr(field, "pack_residues", lambda residues, nb: packs.append(nb) or pack_residues(residues, nb))
    rng = random.Random(p)
    e = p.bit_length()
    for width in (*range(1, 9), 63, 64, 191, 192, 300):
        nb = slot_bytes(p, width)
        top = (MAX_VERTICES + width) * (p - 1) ** 2
        edges = [0, p - 1, p, 2 * p, (1 << e) - 1, 1 << e, top, top - top % p, (1 << 8 * nb) - 1]
        edges += [rng.randrange(top // p + 1) * p for _ in range(4)]
        reduce = slot_reducer(p, width)
        vectors = [[x] * width for x in edges]
        for _ in range(6):
            n = rng.choice((width, rng.randint(1, width)))
            vectors.append([rng.choice(edges + [rng.randrange(top + 1)]) for _ in range(n)])
        for slots in vectors:
            for s in (1, p - 1, rng.randrange(p)):
                del packs[:]
                got = reduce(pack_slots(slots, nb), s)
                assert got == pack_slots([x * s % p for x in slots], nb), (width, s)
                # the fold path reads no slot on its own, so packs nothing
                assert (packs == []) == folds


@pytest.mark.parametrize("p", [DEFAULT_PRIME, P, SLOTWISE])
def test_slot_reducer_is_memoised_per_shape(p):
    # accumulators of one (p, width) share one reducer, on both paths
    assert slot_reducer(p, 46) is slot_reducer(p, 46)
    assert slot_reducer(p, 46) is not slot_reducer(p, 47)
    assert RowEchelonAccumulator(46, p)._reduce is RowEchelonAccumulator(46, p)._reduce


@st.composite
def _walk_sequences(draw):
    """An insert sequence aimed at the bottom-up walk, with its prime.

    Basis rows go in first, in drawn order, their leading columns a proper
    subset of the width, so free columns lie between the stored pivots.
    The probes after them are zero vectors, combinations of the basis rows
    (dependent, and after the reduction their free slots hold multiples of
    p that are nonzero before the mod), and such combinations plus a
    nonzero entry at a free column, below some stored pivots or past all
    of them (kept, the walk stopping at that column).
    """
    p = draw(st.sampled_from([3, P, DEFAULT_PRIME, BIG, SLOTWISE]))
    width = draw(st.integers(2, 12))
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    leads = draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=width - 1, unique=True))
    basis = [
        [0] * q + [draw(st.integers(1, p - 1))] + [draw(entry) for _ in range(width - q - 1)]
        for q in leads
    ]
    free = [j for j in range(width) if j not in leads]
    rows = list(basis)
    kinds = st.lists(st.sampled_from(["zero", "dependent", "kept"]), min_size=1, max_size=8)
    for kind in draw(kinds):
        if kind == "zero":
            rows.append([0] * width)
            continue
        cs = [draw(st.integers(1, p - 1)) for _ in basis]
        row = [sum(c * b[j] for c, b in zip(cs, basis)) % p for j in range(width)]
        if kind == "kept":
            j = draw(st.sampled_from(free))
            row[j] = (row[j] + draw(st.integers(1, p - 1))) % p
        rows.append(row)
    return p, width, rows


@settings(max_examples=300, deadline=None)
@given(_walk_sequences(), st.integers(1, MAX_VERTICES), st.randoms(use_true_random=False))
def test_accumulator_walk_matches_mod_p_oracle(case, k, rnd):
    p, width, rows = case
    _check_verdicts(rows, width, p)
    # the same rows packed, as the shift scan hands its rows over
    _check_packed_verdicts(rows, width, p, k, lambda x, most: rnd.randint(0, most))


def test_accumulator_refuses_vectors_that_are_not_packed():
    # insert takes a packed int only: a list, even of residues, or a float
    # is refused, and reducing non-residues is test_entries_reduced_mod_p's
    for p in (3, P, DEFAULT_PRIME):
        acc = RowEchelonAccumulator(3, p)
        for bad in ([0, p - 1, 1], (0, 1, 0), [], 1.0, "1"):
            with pytest.raises(TypeError):
                acc.insert(bad)
        assert acc.rank == 0
        assert _insert(acc, [0, p - 1, 0]) and _insert(acc, [p - 1, 0, p - 1])
        assert not _insert(acc, [0, 0, 0])
        assert acc.rank == 2


@pytest.mark.parametrize("p, error", [(9, ValueError), (4, ValueError), (2, ValueError), (7.0, TypeError)])
def test_accumulator_checks_its_modulus(p, error):
    # refused at construction, not by a later insert that needs an inverse
    with pytest.raises(error):
        RowEchelonAccumulator(2, p)


def test_accumulator_refuses_packed_vectors_out_of_range():
    for p in (3, P, DEFAULT_PRIME):
        for k in (1, 4, MAX_VERTICES):
            acc = RowEchelonAccumulator(3, p)
            nb = slot_bytes(p, 3)
            top = k * (p - 1) ** 2
            for bad in (-1, 1 << 3 * 8 * nb):
                with pytest.raises(ValueError, match="packed vector"):
                    acc.insert(bad)
            assert acc.rank == 0
            # slots read mod p: top is k mod p, which is not 0 here
            assert acc.insert(pack_slots([top, 0, 0], nb))
            assert acc.insert(pack_slots([0, p, top], nb))
            assert not acc.insert(pack_slots([top, p, 0], nb))
            assert not acc.insert(0)
            assert acc.rank == 2
