"""Suite failure details name the face where a check broke, a draw that
fails validation is one failed check in any phase, and the suites' window
counts agree with enumerating every window."""

import itertools
import random
import re

from shiftkit import SimplicialComplex, ValidationFailure, shifted, suites
from shiftkit.complexes import interval, iter_k_subsets
from shiftkit.operators import intersection, union
from shiftkit.sampling import random_complex, random_shifted


def test_union_eq1_names_the_failing_base(monkeypatch):
    # two copies of {∅} meet in {∅}, so the window height is 1, and every
    # shift is the single vertex 1: 1 vertex on the left, 1 + 1 on the right
    monkeypatch.setattr(suites, "random_complex", lambda rng, n: SimplicialComplex(n, [0]))
    monkeypatch.setattr(suites, "shifted", lambda K, seed, p: SimplicialComplex(K.n, [0, 1]))
    [check] = suites.suite_union_eq1(trials=1, seed=0)
    assert not check.ok
    assert check.detail == "A=() 1!=2"


def test_union_eq1_names_the_lex_first_failing_base(monkeypatch):
    # sizes 0 and 1 agree; at size 2 the bases {2,3} and {1,4} both fail,
    # and {1,4} is lex-first though its mask is the larger
    graph = [[1, 4], [1, 5], [4, 5], [2, 3], [2, 5], [3, 5]]
    shifts = iter(
        [
            SimplicialComplex.from_facets(5, graph + [[1, 4, 5], [2, 3, 5]]),
            SimplicialComplex.from_facets(5, graph),
            SimplicialComplex(5),
        ]
    )
    monkeypatch.setattr(suites, "random_complex", lambda rng, n: SimplicialComplex(n, [0]))
    monkeypatch.setattr(suites, "shifted", lambda K, seed, p: next(shifts))
    [check] = suites.suite_union_eq1(trials=1, seed=0)
    assert check.detail == "A=(1, 4) 1!=0"


def union_interval_check(K, L, A):
    """Count, in the interval of height dim(K and L) + 2 over ``A``, the
    faces of the shift of the union versus the sum over the two parts.

    Returns the pair (union count, sum of part counts); equality is the
    property under test.  ``K`` and ``L`` live on shared labels.
    """
    size, height = int(A).bit_count(), max(intersection(K, L).dim, -1) + 2
    cm, ck, cl = (suites._interval_counts(shifted(X), size, height)[A] for X in (union(K, L), K, L))
    return cm, ck + cl


def window_count(D, A, height, n):
    """Faces of ``D`` in the window of ``height`` above ``A``, by enumeration."""
    return sum(1 for T in interval(A, height, n) if T in D)


def test_interval_counts_match_the_window_enumeration():
    rng = random.Random(4111)
    for _ in range(40):
        n = rng.randint(2, 12)
        K, L = random_complex(rng, n), random_complex(rng, n)
        depth = max(intersection(K, L).dim, -1) + 2
        for D in (union(K, L), K, L, shifted(union(K, L))):
            for size in range(4):
                counts = suites._interval_counts(D, size, depth)
                bases = list(iter_k_subsets(n, size))
                assert set(counts) <= set(bases)
                for A in bases:
                    assert counts[A] == window_count(D, A, depth, n), (D, A, depth)


def test_union_eq1_counts_every_base_with_a_nonempty_window():
    checks = suites.suite_union_eq1(trials=30, max_n=12, seed=5)
    assert all(c.ok for c in checks)
    for c in checks:
        n, depth, bases = map(int, re.fullmatch(r"n=(\d+) depth=(\d+) bases=(\d+)", c.detail).groups())
        windows = sum(
            1 for size in range(4) for A in iter_k_subsets(n, size) if interval(A, depth, n)
        )
        assert bases == windows, c


def test_union_interval_check_and_kernel_count_match_the_enumeration():
    rng = random.Random(4112)
    for _ in range(20):
        n = rng.randint(2, 9)
        K, L = random_complex(rng, n), random_complex(rng, n)
        depth = max(intersection(K, L).dim, -1) + 2
        DM, DK, DL = shifted(union(K, L)), shifted(K), shifted(L)
        for A in iter_k_subsets(n, rng.randint(0, 3)):
            want = (
                window_count(DM, A, depth, n),
                window_count(DK, A, depth, n) + window_count(DL, A, depth, n),
            )
            assert union_interval_check(K, L, A) == want
    # the kernel-dims count: any S, windows that do not fit in [n] included
    for _ in range(40):
        n = rng.randint(2, 9)
        D = random_shifted(rng, n)
        S = sum(1 << v for v in rng.sample(range(n), rng.randint(1, n - 1)))
        i = rng.randint(1, 2)
        assert suites._interval_counts(D, S.bit_count(), i)[S] == window_count(D, S, i, n)


def test_kernel_dims_names_the_failing_cell(monkeypatch):
    monkeypatch.setattr(suites, "image_dim_complete", lambda h, n, S: -1)
    checks = suites.suite_kernel_dims(trials=0, seed=0)
    assert [(c.label, c.ok, c.detail) for c in checks] == [
        (f"complete-image-h{h}", False, "S=(1,)") for h in range(1, 6)
    ]


def _raising_on(real, calls):
    """``real``, except that the calls numbered in ``calls``, from 0, raise
    ``ValidationFailure``."""
    count = itertools.count()

    def stub(*args, **kwargs):
        if next(count) in calls:
            raise ValidationFailure("stub")
        return real(*args, **kwargs)

    return stub


def test_a_failed_draw_is_one_check_in_either_phase(monkeypatch):
    # each draw of both near-cone phases checks its apex chain once: call 3
    # is the fourth nc draw, call 10 the first full-chain draw
    real = suites.near_cone_iterated_check
    monkeypatch.setattr(suites, "near_cone_iterated_check", _raising_on(real, {3, 10}))
    trials = 10
    checks = suites.suite_near_cone(trials=trials, seed=0)
    assert len(checks) == trials + max(1, trials // 5)
    assert [c.label for c in checks] == (
        ["nc-00", "nc-01", "nc-02", "validation-failure"]
        + [f"nc-{t:02d}" for t in range(4, 10)]
        + ["validation-failure", "full-chain-01"]
    )
    assert [c.detail for c in checks if c.label == "validation-failure"] == [
        "near-cone draw 3 at seed 0: stub",
        "near-cone draw 10 at seed 0: stub",
    ]
    assert all(c.ok == (c.label != "validation-failure") for c in checks)


def test_a_failed_first_phase_draw_leaves_the_next_phase_whole(monkeypatch):
    # each kernel-dims draw reads the kernel dimensions twice; call 2 is the
    # first read of draw 1 and call 6 the second read of draw 3
    real = suites.kernel_dims_at
    monkeypatch.setattr(suites, "kernel_dims_at", _raising_on(real, {2, 6}))
    checks = suites.suite_kernel_dims(trials=4, seed=0)
    assert [c.label for c in checks] == (
        ["inst-00", "validation-failure", "inst-02", "validation-failure"]
        + [f"complete-image-h{h}" for h in range(1, 6)]
    )
    assert [c.detail for c in checks if c.label == "validation-failure"] == [
        "kernel-dims draw 1 at seed 0: stub",
        "kernel-dims draw 3 at seed 0: stub",
    ]
    assert all(c.ok == (c.label != "validation-failure") for c in checks)


def test_clique_sum_glues_within_max_n():
    # at --max-n 2 the operands are drawn so that the glued complex has at
    # most 2 labels; the draws at --max-n 3 and above are unchanged
    for max_n in (2, 3, 5, 8):
        checks = suites.SUITES["clique-sum"](trials=40, max_n=max_n, seed=0)
        sizes = [int(re.search(r"\bn=(\d+)", c.detail).group(1)) for c in checks]
        assert len(sizes) == 40 and all(c.ok for c in checks)
        assert max(sizes) <= max_n
        assert max_n in sizes
