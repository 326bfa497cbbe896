"""The shift in characteristic 0, against ``shifted`` at the default prime.

The oracle shares no arithmetic with the scan: it imports nothing from
``shiftkit.field`` or ``shiftkit.engine``.  Its matrix has integer entries,
its k x k minors come from fraction-free (Bareiss) elimination over Z, and
every k-subset of [n], in lex order and with no subset rule, is reduced
against an echelon of ``Fraction`` rows.
"""

import random
from fractions import Fraction
from itertools import combinations

from shiftkit import SimplicialComplex, shifted
from shiftkit.sampling import all_complexes

# One matrix serves a whole census.  A family's shift is non-generic only on
# a polynomial of degree at most sum_k k * f_{k-1} <= 80 on [5], so with
# entries from 2^40 values the Schwartz-Zippel bound summed over all 7,580
# families of all_complexes(5) stays below 1e-6.
SPREAD = 1 << 40


def integer_matrix(n: int, seed: int) -> list:
    rng = random.Random(seed)
    return [[rng.randrange(SPREAD) - SPREAD // 2 for _ in range(n)] for _ in range(n)]


def bareiss_det(M: list) -> int:
    """The determinant of a nonempty square integer matrix, by Bareiss's
    fraction-free elimination: every division is exact."""
    M = [list(row) for row in M]
    n, sign, prev = len(M), 1, 1
    for i in range(n):
        pivot = next((r for r in range(i, n) if M[r][i]), None)
        if pivot is None:
            return 0
        if pivot != i:
            M[i], M[pivot] = M[pivot], M[i]
            sign = -sign
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                M[r][c] = (M[r][c] * M[i][i] - M[r][i] * M[i][c]) // prev
        prev = M[i][i]
    return sign * M[-1][-1]


def keeps(echelon: dict, row: list) -> bool:
    """Reduce ``row`` by the echelon's rows, in the order they joined, and
    add what is left under its leading column; False if nothing is left."""
    row = [Fraction(a) for a in row]
    for lead, basis in echelon.items():
        if row[lead]:
            c = row[lead]
            row = [a - c * b for a, b in zip(row, basis)]
    lead = next((j for j, a in enumerate(row) if a), None)
    if lead is None:
        return False
    echelon[lead] = [a / row[lead] for a in row]
    return True


def rational_shift(K: SimplicialComplex, A: list) -> SimplicialComplex:
    """The greedy lex scan over Q: at each size k, the k-sets S whose row of
    minors det A[S, T], T running over K's size-k faces, is independent of
    the rows kept before it."""
    faces = {0}
    for k in range(1, len(K.f_vector)):
        cols = [[j for j in range(K.n) if T >> j & 1] for T in K.faces_of_size(k)]
        echelon = {}
        for S in combinations(range(K.n), k):
            if keeps(echelon, [bareiss_det([[A[i][j] for j in T] for i in S]) for T in cols]):
                faces.add(sum(1 << i for i in S))
    return SimplicialComplex(K.n, faces)


def test_the_rational_shift_matches_every_family_on_four_labels():
    A = integer_matrix(4, seed=40)
    families = list(all_complexes(4))
    assert len(families) == 167
    assert sum(rational_shift(K, A) != shifted(K) for K in families) == 0


def test_the_rational_shift_matches_a_sample_of_the_families_on_five_labels():
    A = integer_matrix(5, seed=50)
    families = random.Random(51).sample(list(all_complexes(5)), 200)
    assert sum(rational_shift(K, A) != shifted(K) for K in families) == 0
