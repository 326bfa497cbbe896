"""Named verification suites shared by the command line and the tests.

Each suite draws its instances from a seed, checks one named property per
instance, and returns :class:`Check` records.  Nothing in here asserts;
callers decide how to surface failures.

A suite is registered with :func:`_suite` as a function for one draw,
under its ``verify`` name in :data:`SUITES`; the registry runs the draws,
and a draw that fails validation becomes one failed check while the suite
goes on.  The name also seeds the suite's random stream, so
``verify <name>`` reproduces that suite's part of ``verify all``.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass

from .complexes import Face, SimplicialComplex, init_segment, iter_k_subsets, vertex_tuple
from .engine import (
    ValidationFailure,
    exterior_shift,
    image_dim_complete,
    image_dim_complete_direct,
    kernel_dims_at,
    kernel_intersection_dim,
    lex_tail_count,
    shifted,
)
from .field import DEFAULT_PRIME, MAX_DRAWS, ExplicitSpec, FieldMatrix, GenericSpec, realize
from .homology import (
    betti_direct,
    betti_from_shifted,
    boundary_matrix,
    is_near_cone,
    sarkaria_maps,
    wedge_elements,
    wedge_sign,
)
from .operators import (
    NearConeCertificate,
    clique_sum_shift,
    cone,
    disjoint_union,
    disjoint_union_shift,
    intersection,
    join,
    lex_compare,
    link,
    near_cone_analyze,
    shifted_union_recursive,
    suspension,
    union,
)
from .sampling import (
    glue,
    random_complex,
    random_near_cone,
    random_permutation,
    random_shifted,
)


@dataclass
class Check:
    label: str
    ok: bool
    detail: str = ""


def _stream(seed: int, tag: str) -> random.Random:
    # one independent, reproducible stream per suite
    return random.Random(f"{seed}:{tag}")


def _seed32(rng: random.Random) -> int:
    return rng.randrange(1 << 32)


def _fmt(faces) -> str:
    return " ".join("".join(map(str, vertex_tuple(f))) for f in sorted(faces))


SUITES: dict = {}
_PHASES: dict = {}


def _suite(name: str, count=lambda trials: trials):
    """Register one draw of a suite under its ``verify`` name.

    The draw takes ``(rng, t, max_n, seed, p)``, draws from ``rng`` and
    yields :class:`Check` records; ``t`` counts the phase's draws from 0.
    The first registration under a name makes the suite's runner, which
    takes keywords and is what the decorator returns; a later one adds a
    phase after it.  The runner runs each phase ``count(trials)`` times, in
    order, on one ``_stream(seed, name)``, and returns the checks as a list.
    A draw that raises ``ValidationFailure`` becomes one failed check naming
    the suite, the draw (the number of checks before it), the seed and the
    error, and the next draw runs on the stream where the failed one left
    it.  The output is deterministic for a given seed and prime, but a draw
    after a failure may differ from the same draw in a run where none fails.
    """

    def register(draw):
        _PHASES.setdefault(name, []).append((draw, count))
        if name in SUITES:
            return draw

        def run(*, trials: int = 10, max_n: int = 8, seed: int = 0, p: int = DEFAULT_PRIME):
            rng = _stream(seed, name)
            checks = []
            for phase, times in _PHASES[name]:
                for t in range(times(trials)):
                    try:
                        checks.extend(phase(rng, t, max_n, seed, p))
                    except ValidationFailure as exc:
                        detail = f"{name} draw {len(checks)} at seed {seed}: {exc}"
                        checks.append(Check("validation-failure", False, detail))
            return checks

        # not functools.wraps: its __wrapped__ would show the draw's signature
        run.__name__ = run.__qualname__ = draw.__name__
        run.__doc__ = draw.__doc__
        SUITES[name] = run
        return run

    return register


# ----------------------------------------------------------------------
# fixed counterexample


def _suspension_pair(K: SimplicialComplex, seed: int, p: int):
    """The shift of the suspension of ``K`` and the suspension of the shift
    of ``K``, every shift at one seed."""
    left = shifted(suspension(K), seed=seed, p=p)
    right = shifted(suspension(shifted(K, seed=seed, p=p)), seed=seed, p=p)
    return left, right


@_suite("counterexample", lambda trials: 1)
def suite_counterexample(rng, t, max_n, seed, p):
    """Two disjoint edges: shifting the suspension and suspending the
    shift disagree, by exactly one triangle each way, and the former is
    lexicographically smaller."""
    B = SimplicialComplex.from_facets(4, [Face.of(1, 2), Face.of(3, 4)])
    left, right = _suspension_pair(B, seed, p)
    only_left = set(left.all_faces()) - set(right.all_faces())
    only_right = set(right.all_faces()) - set(left.all_faces())
    rel = lex_compare(left, right)
    yield Check("shift-of-suspension-extra", only_left == {Face.of(1, 2, 6)}, _fmt(only_left))
    yield Check("suspension-of-shift-extra", only_right == {Face.of(1, 3, 4)}, _fmt(only_right))
    yield Check("f-vectors-agree", left.f_vector == right.f_vector, str(left.f_vector))
    yield Check("strictly-lex-smaller", rel == "less", rel)


# ----------------------------------------------------------------------
# unions and sums


def _interval_counts(D: SimplicialComplex, size: int, height: int) -> Counter:
    """D's faces with ``size + height`` vertices, counted by their ``size``
    smallest vertices: entry A is the number of D's faces in
    ``interval(A, height, n)``."""
    return Counter(init_segment(f, size) for f in D.faces_of_size(size + height))


@_suite("union-eq1")
def suite_union_eq1(rng, t, max_n, seed, p):
    """Interval counts over every small base: one window above the
    overlap's dimension, the union's shift splits additively into the
    operands' shifts."""
    n = rng.randint(2, max_n)
    K = random_complex(rng, n)
    L = random_complex(rng, n)
    depth = max(intersection(K, L).dim, -1) + 2
    DM = shifted(union(K, L), seed=_seed32(rng), p=p)
    DK = shifted(K, seed=_seed32(rng), p=p)
    DL = shifted(L, seed=_seed32(rng), p=p)
    bad = ""
    for size in range(4):
        cm, ck, cl = (_interval_counts(D, size, depth) for D in (DM, DK, DL))
        miss = [A for A in cm.keys() | ck.keys() | cl.keys() if cm[A] != ck[A] + cl[A]]
        if miss:
            A = min(miss, key=vertex_tuple)
            bad = f"A={vertex_tuple(A)} {cm[A]}!={ck[A] + cl[A]}"
            break
    # the bases of size < 4 whose window fits in [n]: max(A) <= n - depth
    bases = sum(math.comb(n - depth, s) for s in range(4)) if depth <= n else 0
    yield Check(f"pair-{t:02d}", not bad, bad or f"n={n} depth={depth} bases={bases}")


@_suite("disjoint-union")
def suite_disjoint_union(rng, t, max_n, seed, p):
    """The gap rule applied to the parts' shifts reproduces the shift of
    the disjoint union."""
    na = rng.randint(1, max(1, max_n // 2))
    nb = rng.randint(1, max(1, max_n - na))
    K = random_complex(rng, na)
    L = random_complex(rng, nb)
    direct = shifted(disjoint_union(K, L), seed=_seed32(rng), p=p)
    DK = shifted(K, seed=_seed32(rng), p=p)
    DL = shifted(L, seed=_seed32(rng), p=p)
    rule = disjoint_union_shift(DK, DL)
    yield Check(f"pair-{t:02d}", direct == rule, f"n={na}+{nb} f={direct.f_vector}")


def sqcup_agree(
    DA: SimplicialComplex,
    DB: SimplicialComplex,
    *,
    seed: int = 0,
    p: int = DEFAULT_PRIME,
) -> bool:
    """For already-shifted operands: direct shift of the disjoint union,
    the gap rule, and the link/antistar recursion all agree."""
    direct = shifted(disjoint_union(DA, DB), seed=seed, p=p)
    return direct == disjoint_union_shift(DA, DB) == shifted_union_recursive(DA, DB)


@_suite("sqcup")
def suite_sqcup(rng, t, max_n, seed, p):
    """Three routes to the shift of a disjoint union of shifted complexes."""
    na = rng.randint(1, max(1, max_n // 2))
    nb = rng.randint(1, max(1, max_n - na))
    DA = random_shifted(rng, na, p=p)
    DB = random_shifted(rng, nb, p=p)
    ok = sqcup_agree(DA, DB, seed=_seed32(rng), p=p)
    yield Check(f"pair-{t:02d}", ok, f"n={na}+{nb}")


@_suite("clique-sum")
def suite_clique_sum(rng, t, max_n, seed, p):
    """Gluing along a shared full simplex: the gap rule with the shared
    simplex's counts subtracted matches the direct shift.  The glued complex
    has ``na + fresh`` labels, at most ``max_n``."""
    na = rng.randint(1, min(max_n - 1, max(2, max_n - 2)))
    A = random_complex(rng, na)
    d = rng.randint(-1, min(A.dim, 2))
    sigma = rng.choice(A.faces_of_size(d + 1))
    fresh = rng.randint(0 if d >= 0 else 1, max_n - na)
    nb = d + 1 + fresh
    B = SimplicialComplex.from_facets(
        nb,
        list(random_complex(rng, nb).facets()) + [Face((1 << (d + 1)) - 1)],
    )
    glued = glue(A, B, sigma)
    direct = shifted(glued, seed=_seed32(rng), p=p)
    rule = clique_sum_shift(
        shifted(A, seed=_seed32(rng), p=p),
        shifted(B, seed=_seed32(rng), p=p),
        d,
    )
    detail = f"d={d} sigma={vertex_tuple(sigma)} n={glued.n}"
    yield Check(f"glue-{t:02d}", direct == rule, detail)


# ----------------------------------------------------------------------
# cones and near cones


@_suite("cone")
def suite_cone(rng, t, max_n, seed, p):
    """Shifting commutes with coning; cones decompose along the apex and
    carry no reduced homology."""
    n = rng.randint(1, max(1, max_n - 1))
    K = random_complex(rng, n)
    C = cone(K)
    DC = shifted(C, seed=_seed32(rng), p=p)
    DK = shifted(K, seed=_seed32(rng), p=p)
    ok = DC == cone(DK)
    ok = ok and near_cone_decomposition_check(C, 1, seed=_seed32(rng), p=p)
    ok = ok and not any(betti_from_shifted(DC))
    yield Check(f"cone-{t:02d}", ok, f"n={n + 1} f={DC.f_vector}")


def _apex_level_matches(D: SimplicialComplex, j: int, dlk: SimplicialComplex) -> bool:
    """Whether the faces of ``D`` with smallest vertex ``j`` are exactly
    ``j`` joined onto ``dlk``, labels moved up by ``j``."""
    got = {m for m in D.face_set() if m and (m & -m).bit_length() == j}
    return got == {(m << j) | (1 << (j - 1)) for m in dlk.face_set()}


def near_cone_decomposition_check(
    K: SimplicialComplex, v: int, *, seed: int = 0, p: int = DEFAULT_PRIME
) -> bool:
    """For a near cone with apex ``v``: the faces of the shift through
    vertex 1 must be exactly 1 joined onto the shift of the link of ``v``,
    labels moved up by one."""
    if not is_near_cone(K, v):
        raise ValueError("complex is not a near cone at the given vertex")
    dlk = shifted(link(K, Face.of(v)).compacted(), seed=seed, p=p)
    return _apex_level_matches(shifted(K, seed=seed, p=p), 1, dlk)


def near_cone_iterated_check(
    K: SimplicialComplex,
    cert: NearConeCertificate,
    *,
    seed: int = 0,
    p: int = DEFAULT_PRIME,
) -> bool:
    """Check the apex levels of the apex-chain decomposition: for each
    level j the faces of the shift with minimum vertex j are j joined onto
    the shift of the link of that level's apex, labels moved up by j.  Only
    these levels are compared; faces avoiding the first ``depth`` labels
    are not looked at."""
    D = shifted(K, seed=seed, p=p)
    for j, apex in enumerate(cert.apexes, start=1):
        dlk = shifted(link(cert.chain[j - 1], Face.of(apex)).compacted(), seed=seed, p=p)
        if not _apex_level_matches(D, j, dlk):
            return False
    return True


def _explicit_apex_check(rng: random.Random, K: SimplicialComplex, p: int) -> bool:
    """Apex decomposition through an explicit matrix: the first row is all
    nonzero and the lower-right block (the row projections away from the
    apex coordinate) is invertible, which is all the decomposition needs."""
    n = K.n
    for _ in range(MAX_DRAWS):
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        rows[0] = [1 + rng.randrange(p - 1) for _ in range(n)]
        X = FieldMatrix(rows, p)
        sub = FieldMatrix([r[1:] for r in rows[1:]], p)
        if X.is_nonsingular() and (n == 1 or sub.is_nonsingular()):
            break
    else:
        raise ValueError(f"no apex matrix for n={n}, p={p} in {MAX_DRAWS} draws")
    res = exterior_shift(K, ExplicitSpec.from_rows(rows), p=p)
    small = SimplicialComplex(n - 1, {m >> 1 for m in K.face_set() if m & 1})
    res_sub = exterior_shift(small, ExplicitSpec.from_rows(sub.rows), p=p)
    return _apex_level_matches(res.shifted, 1, res_sub.shifted)


@_suite("near-cone")
def suite_near_cone(rng, t, max_n, seed, p):
    """Near cones: apex decomposition of the shift, the iterated version
    along a greedy certificate, and the explicit-matrix variant."""
    n = rng.randint(2, max_n)
    K = random_near_cone(rng, n)
    cert = near_cone_analyze(K)
    ok = is_near_cone(K, 1) and cert.depth >= 1
    ok = ok and near_cone_decomposition_check(K, 1, seed=_seed32(rng), p=p)
    ok = ok and near_cone_iterated_check(K, cert, seed=_seed32(rng), p=p)
    ok = ok and _explicit_apex_check(rng, K, p)
    yield Check(f"nc-{t:02d}", ok, f"n={n} depth={cert.depth}")


@_suite("near-cone", lambda trials: max(1, trials // 5))
def _near_cone_full_chain(rng, t, max_n, seed, p):
    """Shifted complexes admit a full apex chain, one apex per vertex."""
    D = random_shifted(rng, rng.randint(2, max_n), p=p)
    cert = near_cone_analyze(D)
    ok = cert.depth == D.num_vertices
    ok = ok and near_cone_iterated_check(D, cert, seed=_seed32(rng), p=p)
    yield Check(f"full-chain-{t:02d}", ok, f"depth={cert.depth}")


# ----------------------------------------------------------------------
# invariants of the shift itself


@_suite("idempotence")
def suite_idempotence(rng, t, max_n, seed, p):
    """Shifting is idempotent, seed-independent, and blind to relabeling."""
    n = rng.randint(1, max_n)
    K = random_complex(rng, n)
    s1, s2 = _seed32(rng), _seed32(rng)
    D = shifted(K, seed=s1, p=p)
    ok = D.is_shifted()
    ok = ok and shifted(D, seed=s2, p=p) == D
    ok = ok and shifted(K, seed=s2, p=p) == D
    for _ in range(5):
        pi = random_permutation(rng, n)
        if shifted(K.permuted(pi), seed=_seed32(rng), p=p) != D:
            ok = False
            break
    yield Check(f"inst-{t:02d}", ok, f"n={n} f={D.f_vector}")


@_suite("betti")
def suite_betti(rng, t, max_n, seed, p):
    """The shift preserves the face-count vector and every reduced rank,
    and the combinatorial count on the output matches the rank route."""
    n = rng.randint(1, max_n)
    K = random_complex(rng, n)
    D = shifted(K, seed=_seed32(rng), p=p)
    ok = D.f_vector == K.f_vector
    ok = ok and betti_direct(K, p) == betti_from_shifted(D) == betti_direct(D, p)
    yield Check(f"inst-{t:02d}", ok, f"n={n} betti={betti_from_shifted(D)}")


# ----------------------------------------------------------------------
# kernel oracles


@_suite("kernel-dims")
def suite_kernel_dims(rng, t, max_n, seed, p):
    """Membership and interval counts read off joint kernels of stacked
    contraction maps, never the greedy scan; plus the closed form for the
    stacked image on a full simplex."""
    n = rng.randint(2, max_n)
    K = random_complex(rng, n, max_size=4)
    res = exterior_shift(K, GenericSpec(_seed32(rng)), p=p)
    D, A = res.shifted, res.matrix
    # the interval of height i above S must fit inside [n]
    sizes = [k for k in range(1, min(len(K.f_vector), n)) if K.f_vector[k]]
    size = rng.choice(sizes)
    S = Face.from_vertices(rng.sample(range(1, n + 1), size))
    # membership: the kernel shrinks at S's own contraction
    strict, at = kernel_dims_at(K, A, S)
    ok = (strict > at) == (S in D)
    # triple equality: full label range, labels of K only, and the
    # lex tail of the shifted family all give one number
    ok = ok and strict == kernel_intersection_dim(K, A, S, first_k_only=True)
    ok = ok and strict == lex_tail_count(D, S)
    i = rng.randint(1, max(1, min(2, n - size)))
    lo, hi = kernel_dims_at(K, A, S, extra=i)
    count = _interval_counts(D, size, i)[S]
    ok = ok and lo - hi == count
    yield Check(f"inst-{t:02d}", ok, f"n={n} S={vertex_tuple(S)} i={i}")


@_suite("kernel-dims", lambda trials: 5)
def _kernel_dims_complete_image(rng, t, max_n, seed, p):
    """The stacked image on the full simplex at height h = t + 1, on
    h + 2 labels, against its closed form; draws nothing from ``rng``."""
    h = t + 1
    n = h + 2
    A = realize(GenericSpec(seed + h), n, p)
    cells = 0
    bad = ""
    for size in range(1, n + 1):
        direct = image_dim_complete_direct(h, n, size, A)
        for S, dim in zip(iter_k_subsets(n, size), direct):
            cells += 1
            if image_dim_complete(h, n, S) != dim:
                bad = f"S={vertex_tuple(S)}"
                break
        if bad:
            break
    yield Check(f"complete-image-h{h}", not bad, bad or f"{cells} cells")


# ----------------------------------------------------------------------
# chain-level equivalences on near cones


def _column_element(M: FieldMatrix, faces, j: int) -> dict:
    return {f: M.entry(i, j) for i, f in enumerate(faces) if M.entry(i, j)}


def _wedge_multiplicative(
    rng: random.Random, K: SimplicialComplex, U: dict, p: int
) -> bool:
    """U applied to a decomposable element equals the wedge of the two
    factor images, on a handful of random splits."""
    splittable = [f for f in K.all_faces() if len(f) >= 2]
    if not splittable:
        return True
    index = {
        k: {f: i for i, f in enumerate(K.faces_of_size(k))}
        for k in range(len(K.f_vector))
    }
    for _ in range(min(5, len(splittable))):
        W = rng.choice(splittable)
        verts = list(W)
        S = Face.from_vertices(rng.sample(verts, rng.randint(1, len(verts) - 1)))
        T = Face(W ^ S)
        sign = wedge_sign(S, T)
        ks, kt, kw = len(S), len(T), len(W)
        us = _column_element(U[ks], K.faces_of_size(ks), index[ks][S])
        ut = _column_element(U[kt], K.faces_of_size(kt), index[kt][T])
        uw = _column_element(U[kw], K.faces_of_size(kw), index[kw][W])
        want = {m: sign * c % p for m, c in uw.items()}
        if wedge_elements(us, ut, p) != want:
            return False
    return True


@_suite("sarkaria")
def suite_sarkaria(rng, t, max_n, seed, p):
    """The two change-of-basis maps on a near cone interlace the three
    contraction operators degree by degree, and the first one respects
    wedges."""
    n = rng.randint(2, max_n)
    K = random_near_cone(rng, n)
    alphas = {v: 1 + rng.randrange(p - 1) for v in K.support}
    U, Dm = sarkaria_maps(K, alphas, p)
    ok = True
    for level in range(1, len(K.f_vector)):
        B = boundary_matrix(K, {1: 1}, level, p)
        E = boundary_matrix(K, None, level, p)
        F = boundary_matrix(K, alphas, level, p)
        ok = ok and U[level - 1] @ B == E @ U[level]
        ok = ok and Dm[level - 1] @ E == F @ Dm[level]
    ok = ok and _wedge_multiplicative(rng, K, U, p)
    yield Check(f"nc-{t:02d}", ok, f"n={n} dim={K.dim}")


# ----------------------------------------------------------------------
# joins


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
        return sum(1 for f in D.faces_of_size(k) if not f & low)

    dj = shifted(join(K, L), seed=seed, p=p)
    dk = shifted(K, seed=seed, p=p)
    dl = shifted(L, seed=seed, p=p)
    return top_avoiding(dj), top_avoiding(dk) * top_avoiding(dl)


@_suite("join-top")
def suite_join_top(rng, t, max_n, seed, p):
    """Top faces of a join's shift avoiding an initial label segment
    factor as a product over the operands."""
    na = rng.randint(1, max(1, max_n // 2))
    nb = rng.randint(1, max(1, max_n - na))
    K = random_complex(rng, na, max_size=2)
    L = random_complex(rng, nb, max_size=2)
    i = rng.randint(0, 3)
    lhs, rhs = join_top_count_check(K, L, i, seed=_seed32(rng), p=p)
    yield Check(f"pair-{t:02d}", lhs == rhs, f"i={i} {lhs}=={rhs}")


# ----------------------------------------------------------------------
# conjecture exploration


def conjecture_scan(
    *, trials: int = 50, max_n: int = 8, seed: int = 0, p: int = DEFAULT_PRIME
) -> dict:
    """Tally the lex relation between the shift of a suspension and the
    suspension of the shift over random complexes.

    ``greater`` and ``incomparable`` outcomes are violations of the
    conjectured ordering; up to five witnesses are kept as facet lists.
    A draw whose shift raises ``ValidationFailure`` is left out of the
    tallies and named under ``failures``, a key present only when some draw
    failed.  Each draw makes all its rng calls before it shifts, so a
    failed draw leaves the later draws as they would be.
    """
    rng = _stream(seed, "conjecture")
    tallies = {"equal": 0, "less": 0, "greater": 0, "incomparable": 0}
    witnesses = []
    failures = []
    for t in range(trials):
        n = rng.randint(1, max_n)
        K = random_complex(rng, n)
        try:
            rel = lex_compare(*_suspension_pair(K, _seed32(rng), p))
        except ValidationFailure as exc:
            failures.append(f"draw {t} at seed {seed}: {exc}")
            continue
        tallies[rel] += 1
        if rel in ("greater", "incomparable") and len(witnesses) < 5:
            witnesses.append([list(vertex_tuple(f)) for f in K.facets()])
    report = {
        "trials": trials,
        "max_n": max_n,
        "tallies": tallies,
        "violations": tallies["greater"] + tallies["incomparable"],
        "witnesses": witnesses,
    }
    if failures:
        report["failures"] = failures
    return report

