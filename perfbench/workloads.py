"""The four workloads: seeded inputs, the timed operations, output checks.

A workload's ``build`` runs during set-up.  It turns the workload seed into
a fixed corpus and returns a list of ``Op``.  Each ``Op.call`` is one timed
operation; ``Op.check`` and ``Op.digest`` run after the pass, outside the
timed region.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Any, Callable

VERIFY_TRIALS = 80


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any, list], str | None]
    digest: Callable[[Any], str]
    corrupt: Callable[[Any], Any]
    features: dict = field(default_factory=dict)


@dataclass
class Corpus:
    ops: list
    inputs: list  # canonical text of every input, hashed into corpus_hash
    params: dict

    @property
    def corpus_hash(self) -> str:
        h = hashlib.sha256()
        for text in self.inputs:
            h.update(text.encode())
            h.update(b"\0")
        return h.hexdigest()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _faces_text(K) -> str:
    return f"n={K.n};" + ",".join(str(int(f)) for f in sorted(map(int, K.face_set())))


def _draw(rng: random.Random, sk, n: int, dim: int):
    """The first ``random_complex`` on ``[n]`` that has dimension ``dim``."""
    for _ in range(10_000):
        K = sk.sampling.random_complex(rng, n)
        if K.dim == dim:
            return K
    raise RuntimeError(f"no random complex with n={n}, dim={dim} in 10000 draws")


def _capture(fn, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fn(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_digest(out) -> str:
    return _sha(f"{out[0]}:{out[1]}")


def _shift_features(K) -> dict:
    fv = list(K.f_vector)
    return {
        "n": K.n,
        "support": len(K.support),
        "f_vector": fv,
        "candidates": sum(comb(K.n, k) for k in range(1, len(fv))),
    }


def _check_shift(sk, K, D, betti_ref: dict) -> str | None:
    """Output check shared by the two shift workloads."""
    if D.f_vector != K.f_vector:
        return f"f-vector {D.f_vector} != input {K.f_vector}"
    if not D.is_shifted():
        return "output is not shifted"
    if id(K) not in betti_ref:
        betti_ref[id(K)] = sk.homology.betti_direct(K)
    got = sk.homology.betti_from_shifted(D)
    if got != betti_ref[id(K)]:
        return f"betti {got} != direct {betti_ref[id(K)]}"
    return None


# ----------------------------------------------------------------------
# xpoly: generic shifts of cross-polytope boundaries


def cross_polytope(sk, d: int):
    """Boundary of the d-dimensional cross-polytope on 2d vertices: the
    antipodal pairs are (i, i + d), and a facet takes one of each pair."""
    facets = [
        [i + 1 + (d if bits >> i & 1 else 0) for i in range(d)] for bits in range(1 << d)
    ]
    return sk.complexes.SimplicialComplex.from_facets(2 * d, facets)


XPOLY_DIMS = (3, 4, 5, 6)


def build_xpoly(sk, seed: int, workdir: Path) -> Corpus:
    # The seed relabels the vertices; the shift is label-blind, so the
    # output and the rows built stay the same while the input changes.
    rng = random.Random(f"xpoly:{seed}")
    betti_ref: dict = {}
    ops, inputs = [], []
    for d in XPOLY_DIMS:
        K = cross_polytope(sk, d).permuted(sk.sampling.random_permutation(rng, 2 * d))
        inputs.append(_faces_text(K))

        def call(K=K):
            return sk.engine.exterior_shift(K)

        def check(res, outs, K=K):
            if res.retries or not res.validated.is_shifted:
                return f"validation flags {res.validated}, retries {res.retries}"
            return _check_shift(sk, K, res.shifted, betti_ref)

        def corrupt(res, K=K):
            return dataclasses.replace(res, shifted=K)

        ops.append(
            Op(
                label=f"xpoly/d{d}",
                call=call,
                check=check,
                digest=lambda res: _sha(f"{res.seed_used}:{res.retries}:" + _faces_text(res.shifted)),
                corrupt=corrupt,
                features=_shift_features(K),
            )
        )
    return Corpus(ops, inputs, {"dims": list(XPOLY_DIMS), "matrix_seed": 0})


# ----------------------------------------------------------------------
# random-cli: `shiftkit shift <file> --json` on seeded random complexes

CLI_NS = (8, 10, 12, 14)
CLI_PER_N = 32  # 4 n x 32 = 128 complexes
CLI_SAMPLE = "random-cli/sample"


def build_random_cli(sk, seed: int, workdir: Path) -> Corpus:
    # One fixed sample of ``random_complex``: n from the schedule, each
    # complex as drawn, dimension and size included.  The workload seed
    # relabels the vertices of every complex.  The shift is label-blind, so
    # the rows built and the output stay the same while the input changes; a
    # fresh sample per seed would change the amount of work from seed to seed.
    sample = random.Random(CLI_SAMPLE)
    rng = random.Random(f"random-cli:{seed}")
    betti_ref: dict = {}
    ops, inputs = [], []
    workdir.mkdir(parents=True, exist_ok=True)
    for _ in range(CLI_PER_N):
        for n in CLI_NS:
            K = sk.sampling.random_complex(sample, n)
            K = K.permuted(sk.sampling.random_permutation(rng, n))
            text = sk.cli.format_complex(K)
            path = workdir / f"k{len(ops):03d}.cx"
            path.write_text(text, encoding="utf-8")
            inputs.append(text)
            argv = ["shift", str(path), "--json"]

            def call(argv=argv):
                return _capture(sk.cli.main, argv)

            def check(out, outs, K=K):
                code, stdout, stderr = out
                if code != 0:
                    return f"exit code {code}: {stderr.strip()}"
                rep = json.loads(stdout)
                D = sk.complexes.SimplicialComplex.from_facets(rep["n"], rep["facets"])
                if list(D.f_vector) != rep["f_vector"]:
                    return "reported f-vector disagrees with the facets"
                if not all(rep["validated"].values()):
                    return f"validation flags {rep['validated']}"
                err = _check_shift(sk, K, D, betti_ref)
                if err is None and tuple(rep["betti"]) != betti_ref[id(K)]:
                    err = f"reported betti {rep['betti']} != direct {betti_ref[id(K)]}"
                return err

            def corrupt(out):
                code, stdout, stderr = out
                rep = json.loads(stdout)
                rep["f_vector"][-1] += 1
                return code, json.dumps(rep), stderr

            ops.append(
                Op(
                    label=f"random-cli/{path.name}",
                    call=call,
                    check=check,
                    digest=_cli_digest,
                    corrupt=corrupt,
                    features=_shift_features(K),
                )
            )
    params = {"ns": list(CLI_NS), "per_n": CLI_PER_N, "sample": CLI_SAMPLE}
    return Corpus(ops, inputs, params)


# ----------------------------------------------------------------------
# rules: closed-form shift rules on seeded shifted pairs

RULE_NS = (4, 5, 6, 7, 8)
RULE_DIMS = (1, 2, 3)
RULE_ROUNDS = 4  # 4 x 25 pairs x 4 rule calls = 400 ops


def build_rules(sk, seed: int, workdir: Path) -> Corpus:
    # Every pair of vertex counts ``RULE_ROUNDS`` times; the operand
    # dimensions cycle through ``RULE_DIMS``, since the interval counts grow
    # steeply with operand size.  Four rounds keep the seed-to-seed spread of
    # the op latency percentiles within a third of their bound.
    rng = random.Random(f"rules:{seed}")
    op_mod = sk.operators
    ops, inputs = [], []
    pairs = [(a, b) for _ in range(RULE_ROUNDS) for a in RULE_NS for b in RULE_NS]
    for i, (nk, nl) in enumerate(pairs):
        dk, dl = RULE_DIMS[i % 3], RULE_DIMS[(i // 3) % 3]
        matrix_seed = rng.randrange(1 << 32)
        DK = sk.engine.shifted(_draw(rng, sk, nk, dk), seed=matrix_seed)
        DL = sk.engine.shifted(_draw(rng, sk, nl, dl), seed=matrix_seed + 1)
        inputs.append(_faces_text(DK) + "|" + _faces_text(DL))
        base = len(ops)
        want_union = _sum_f(DK.f_vector, DL.f_vector, ())
        calls = [
            ("dushift", lambda DK=DK, DL=DL: op_mod.disjoint_union_shift(DK, DL), want_union, base + 1),
            ("sqcup", lambda DK=DK, DL=DL: op_mod.shifted_union_recursive(DK, DL), want_union, base),
        ]
        for d in (0, 1):
            simplex = sk.complexes.SimplicialComplex.complete(d + 1).f_vector
            want = _sum_f(DK.f_vector, DL.f_vector, simplex)
            calls.append(
                (f"clique{d}", lambda DK=DK, DL=DL, d=d: op_mod.clique_sum_shift(DK, DL, d), want, None)
            )
        for kind, call, want, twin in calls:

            def check(R, outs, want=want, twin=twin):
                if R.f_vector != want:
                    return f"f-vector {R.f_vector} != expected {want}"
                if not R.is_shifted():
                    return "rule output is not shifted"
                if twin is not None and outs[twin] != R:
                    return "disjoint_union_shift != shifted_union_recursive"
                return None

            ops.append(
                Op(
                    label=f"rules/{i:02d}/{kind}",
                    call=call,
                    check=check,
                    digest=lambda R: _sha(_faces_text(R)),
                    corrupt=lambda R, DK=DK: DK,
                )
            )
    return Corpus(ops, inputs, {"ns": list(RULE_NS), "dims": list(RULE_DIMS), "rounds": RULE_ROUNDS})


def _sum_f(a, b, shared) -> tuple:
    """f-vector of a union of two complexes meeting in ``shared``."""
    top = max(len(a), len(b))
    out = []
    for k in range(top):
        v = (a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0)
        v -= shared[k] if k < len(shared) else 0
        out.append(v)
    out[0] = 1
    return tuple(out)


# ----------------------------------------------------------------------
# verify: `shiftkit verify all --trials T --json`


def build_verify(sk, seed: int, workdir: Path) -> Corpus:
    argv = ["verify", "all", "--trials", str(VERIFY_TRIALS), "--seed", str(seed), "--json"]

    def check(out, outs):
        code, stdout, stderr = out
        if code != 0:
            return f"exit code {code}: {stderr.strip()}"
        rep = json.loads(stdout)
        bad = [
            f"{s['suite']}/{c['label']}"
            for s in rep["suites"]
            for c in s["checks"]
            if not c["ok"]
        ]
        if not rep["ok"] or bad or len(rep["suites"]) != len(sk.suites.SUITES):
            return f"verify not ok: {bad[:5]}"
        return None

    def corrupt(out):
        code, stdout, stderr = out
        rep = json.loads(stdout)
        rep["ok"] = False
        return code, json.dumps(rep), stderr

    op = Op(
        label="verify/all",
        call=lambda: _capture(sk.cli.main, argv),
        check=check,
        digest=_cli_digest,
        corrupt=corrupt,
    )
    return Corpus([op], [" ".join(argv)], {"trials": VERIFY_TRIALS, "verify_seed": seed})


WORKLOADS = {
    "xpoly": build_xpoly,
    "random-cli": build_random_cli,
    "rules": build_rules,
    "verify": build_verify,
}
