"""Acceptance gate: eleven checks, one printed verdict line each.

Run ``pytest tests/test_acceptance.py -s`` to see the verdict lines as the
criteria execute; each also asserts, so a plain pytest run fails loudly.
The frozen instances and scales mirror the package contract: exact small
examples first, then randomized suites at fixed seeds.
"""

import random
import time
from itertools import combinations

from shiftkit import (
    BlockGenericSpec,
    Face,
    SimplicialComplex,
    betti_from_shifted,
    exterior_shift,
    shifted,
)
from shiftkit.homology import betti_direct
from shiftkit.operators import (
    clique_sum_shift,
    join,
    lex_compare,
    suspension,
)
from shiftkit.sampling import all_complexes, glue, random_complex
from shiftkit.suites import (
    conjecture_scan,
    join_top_count_check,
    sqcup_agree,
    suite_clique_sum,
    suite_cone,
    suite_counterexample,
    suite_disjoint_union,
    suite_idempotence,
    suite_kernel_dims,
    suite_near_cone,
    suite_sarkaria,
    suite_sqcup,
    suite_union_eq1,
)


def verdict(num: int, name: str, ok: bool, detail: str = ""):
    mark = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"[{mark}] criterion {num}: {name}{tail}")
    assert ok, f"criterion {num}: {name}{tail}"


def suite_ok(checks):
    bad = [c for c in checks if not c.ok]
    return not bad, (f"{len(checks) - len(bad)}/{len(checks)} checks"
                     if not bad else f"failed: {bad[0].label} {bad[0].detail}")


def octahedron():
    non = {frozenset((1, 4)), frozenset((2, 5)), frozenset((3, 6))}
    edges = [list(e) for e in combinations(range(1, 7), 2) if frozenset(e) not in non]
    return SimplicialComplex.from_facets(6, edges)


def test_criterion_01_suspension_counterexample():
    start = time.perf_counter()
    ok, detail = suite_ok(suite_counterexample())
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    verdict(1, "two-edge suspension counterexample", ok,
            f"{detail}, {elapsed:.2f}s")


def test_criterion_02_octahedron_block_shift():
    start = time.perf_counter()
    G = octahedron()
    block = exterior_shift(G, BlockGenericSpec(3, 3, 0))
    double = shifted(block.shifted)
    plain = shifted(G)
    ok = Face.of(4, 5) in double.face_set()
    ok = ok and Face.of(4, 5) not in plain.face_set()
    ok = ok and not block.validated.is_shifted
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    verdict(2, "octahedron: block then generic keeps {4,5}", ok,
            f"{elapsed:.2f}s")


def test_criterion_03_bipartite_face_and_join_counts():
    three = SimplicialComplex.from_facets(3, [[1], [2], [3]])
    K33 = join(three, three)
    D = shifted(K33)
    ok = Face.of(3, 4) in D.face_set()
    pairs = [join_top_count_check(three, three, i) for i in range(1, 7)]
    ok = ok and all(lhs == rhs for lhs, rhs in pairs)
    ok = ok and [lhs for lhs, _ in pairs] == [4, 1, 0, 0, 0, 0]
    verdict(3, "{3,4} joins the complete bipartite shift; top counts factor",
            ok, f"counts={[lhs for lhs, _ in pairs]}")


def test_criterion_04_preservation_exhaustive_and_random():
    start = time.perf_counter()
    bad = total = 0
    for K in all_complexes(4):
        D = shifted(K)
        total += 1
        if D.f_vector != K.f_vector or betti_from_shifted(D) != betti_direct(K):
            bad += 1
    exhaustive = total
    rng = random.Random(40_000)
    while total < exhaustive + 200:
        K = random_complex(rng, rng.randint(1, 9))
        if K.is_void:
            continue
        D = shifted(K, seed=rng.randrange(1 << 32))
        total += 1
        if D.f_vector != K.f_vector or betti_from_shifted(D) != betti_direct(K):
            bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and exhaustive == 167 and elapsed < 300.0
    verdict(4, "face counts and reduced ranks preserved", ok,
            f"{exhaustive} exhaustive + 200 random, {bad} failures, {elapsed:.1f}s")


def test_criterion_05_idempotence_and_canonicity():
    ok, detail = suite_ok(suite_idempotence(trials=100, max_n=9, seed=5))
    verdict(5, "idempotent, seed-free, relabeling-free", ok, detail)


def test_criterion_06_union_interval_additivity():
    ok, detail = suite_ok(suite_union_eq1(trials=30, max_n=9, seed=6))
    verdict(6, "union interval counts split additively", ok, detail)


def test_criterion_07_union_rules_vs_engine():
    start = time.perf_counter()
    census = [K for K in all_complexes(4) if K.is_shifted()]
    bad = pairs = 0
    for DA in census:
        for DB in census:
            pairs += 1
            if not sqcup_agree(DA, DB):
                bad += 1
    glue_bad = glue_cases = 0
    for DA in census:
        for DB in census:
            for d in range(-1, min(DA.dim, DB.dim) + 1):
                sigma = DA.faces_of_size(d + 1)[0]
                glued = glue(DA, DB, sigma)
                glue_cases += 1
                rule = clique_sum_shift(DA, DB, d)
                if rule != shifted(glued):
                    glue_bad += 1
    ok = bad == 0 and glue_bad == 0 and pairs == 676
    for checks in (
        suite_disjoint_union(trials=10, max_n=10, seed=7),
        suite_sqcup(trials=10, max_n=10, seed=7),
        suite_clique_sum(trials=10, max_n=9, seed=7),
    ):
        sub_ok, _ = suite_ok(checks)
        ok = ok and sub_ok
    elapsed = time.perf_counter() - start
    verdict(7, "disjoint-union, recursion, clique-sum rules match the engine",
            ok, f"{pairs} pairs + {glue_cases} gluings + randomized, {elapsed:.1f}s")


def test_criterion_08_cones_and_near_cones():
    ok1, d1 = suite_ok(suite_cone(trials=25, max_n=9, seed=8))
    ok2, d2 = suite_ok(suite_near_cone(trials=50, max_n=9, seed=8))
    verdict(8, "cone commutation and apex decompositions", ok1 and ok2,
            d1 if not ok1 else d2 if not ok2 else "75 instances + full chains")


def test_criterion_09_kernel_dimension_oracles():
    ok, detail = suite_ok(suite_kernel_dims(trials=30, max_n=8, seed=9))
    verdict(9, "kernel-dimension oracles agree with the engine", ok, detail)


def test_criterion_10_chain_map_identities():
    ok, detail = suite_ok(suite_sarkaria(trials=20, max_n=8, seed=10))
    verdict(10, "change-of-basis chain maps interlace the contractions",
            ok, detail)


def test_criterion_11_suspension_order_scan():
    scan = conjecture_scan(trials=100, max_n=8, seed=11)
    B = SimplicialComplex.from_facets(4, [[1, 2], [3, 4]])
    left = shifted(suspension(B))
    right = shifted(suspension(shifted(B)))
    ok = scan["violations"] == 0 and lex_compare(left, right) == "less"
    verdict(11, "suspension order holds on scan; two-edge case strictly less",
            ok, f"tallies={scan['tallies']}")
