"""shiftkit benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload xpoly --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; shiftkit is imported from ``src/``
of that checkout, never from an installed copy.  Set-up (import, corpus
generation, file writes, operand pre-shifting) is repeated ``SETUP_REPEATS``
times and its median is ``setup_s``.  Then whole passes over the corpus run
until ``--seconds`` have passed (at least ``MIN_PASSES``).  Output checks run
after each pass, outside the timed region.  Every time is rescaled to a
fixed reference machine speed by ``speed.SpeedProbe``, measured in the same
window; the raw pass times are kept in the record.

``--trace 0`` times every pass untraced and reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, including ``trace.overhead_frac``, the traced pass time
over the untraced one, minus one.  Counts are per pass; they must repeat
exactly between passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(provenance, corpus hash, digests, and in traced runs the per-operation
features and the first spans) goes to ``perfbench/out/``.
``--corrupt`` damages one output of the first pass on purpose, to show that
the checks can fail.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.dont_write_bytecode = True  # the checkout stays as git would have it
# shiftkit is imported with this cache prefix, a directory that is never
# written, so every timed import compiles from source, whether or not some
# other tool (a test run, say) has left .pyc files in src/.
NO_PYCACHE = OUT / "no-pycache"

from spans import Tracer  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("cli", "complexes", "engine", "field", "homology", "operators", "sampling", "suites")
SETUP_REPEATS = 7
MIN_PASSES = 3
MIN_TRACED_PASSES = 4  # two untraced, two traced

# Row counts of the generic shift when this benchmark was written.  A
# pruned scan is expected to lower rows built; rows kept cannot change.
KNOWN_ROWS = {"xpoly/d5": (417, 242), "xpoly/d6": (1655, 728)}

# Fixed, like the metric names in BENCHMARK.json; a suite missing from
# ``SUITES`` reports 0.
SUITE_NAMES = (
    "betti", "clique-sum", "cone", "counterexample", "disjoint-union", "idempotence",
    "join-top", "kernel-dims", "near-cone", "sarkaria", "sqcup", "union-eq1",
)


def import_shiftkit() -> SimpleNamespace:
    """Import a fresh copy of every shiftkit module from ``src/``, compiled
    from source."""
    for name in [m for m in sys.modules if m == "shiftkit" or m.startswith("shiftkit.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    sk = SimpleNamespace(MODULES=MODULES)
    prefix, sys.pycache_prefix = sys.pycache_prefix, str(NO_PYCACHE)
    try:
        for name in MODULES:
            mod = importlib.import_module(f"shiftkit.{name}")
            if SRC not in Path(mod.__file__).resolve().parents:
                raise ImportError(f"shiftkit.{name} came from {mod.__file__}, not {SRC}")
            setattr(sk, name, mod)
    finally:
        sys.pycache_prefix = prefix
    return sk


def setup(workload: str, seed: int, workdir: Path, probe: SpeedProbe):
    times, hashes = [], set()
    import_shiftkit()  # untimed: loads the standard modules shiftkit uses
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        gc.collect()
        t0 = probe.now()
        sk = import_shiftkit()
        corpus = WORKLOADS[workload](sk, seed, workdir)
        t1 = probe.now()
        times.append((t1 - t0) * probe.factor(t0, t1))
        hashes.add(corpus.corpus_hash)
    if len(hashes) != 1:
        raise RuntimeError("set-up is not deterministic: corpus hashes differ")
    return sk, corpus, times


def run_pass(ops, probe: SpeedProbe, tracer=None):
    """Time every op; an exception is recorded as the op's output.

    Returns outputs, op latencies and pass time, all rescaled to the
    reference speed, the raw pass time and the pass's process CPU time
    (both without the probe's slices), and per-op counter differences.
    Each op is rescaled by the speed around it, the pass by the speed over
    the pass.
    """
    outs, windows, feats = [], [], []
    gc.collect()
    now = probe.now
    cpu0, spent0 = time.process_time(), probe.spent
    t_pass = now()
    for op in ops:
        if tracer is not None:
            tracer.op = op.label
            before = tracer.counters()
        t0 = now()
        try:
            out = op.call()
        except Exception as exc:  # a failed op is counted, not fatal
            out = exc
        windows.append((t0, now()))
        outs.append(out)
        if tracer is not None:
            after = tracer.counters()
            feats.append({k: after[k] - before[k] for k in after if after[k] != before[k]})
    t_end = now()
    cpu = time.process_time() - cpu0 - (probe.spent - spent0)
    raw = t_end - t_pass
    if tracer is not None:
        tracer.op = None
    lat = [(t1 - t0) * probe.factor(t0, t1) for t0, t1 in windows]
    return outs, lat, raw * probe.factor(t_pass, t_end), raw, cpu, feats


def check_pass(ops, outs, reference):
    """Check outputs; return the failures as (label, reason).

    ``reference`` holds each op's digest from its first checked pass.  Later
    passes must reproduce it; the full check runs once per op.
    """
    failures = []
    for i, (op, out) in enumerate(zip(ops, outs)):
        if isinstance(out, Exception):
            failures.append((op.label, f"raised {type(out).__name__}: {out}"))
            continue
        try:
            digest = op.digest(out)
            if i in reference:
                err = None if digest == reference[i] else "output differs from the first pass"
            else:
                err = op.check(out, outs)
                if err is None:
                    reference[i] = digest
        except Exception as exc:  # a malformed output is a failed check
            err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            failures.append((op.label, err))
    return failures


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def read_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "shiftkit").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def layer_metrics(snaps, untraced_walls, traced_walls) -> dict:
    """Per-layer metrics from the traced passes' snapshots."""

    def med(kind, name):
        return statistics.median(s[kind].get(name, 0.0) for s in snaps)

    first = snaps[0]
    calls, counts = first["calls"], first["counts"]
    m = {}

    def add(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    ins = calls.get("field.insert", 0)
    kept = counts.get("field.insert.kept", 0)
    add("field.insert.calls", ins, "count")
    add("field.insert.kept", kept, "count")
    add("field.insert.kept_ratio", kept / ins if ins else 0.0, "ratio")
    add("field.insert.s", med("incl", "field.insert"), "s")
    add("field.check_prime.calls", calls.get("field.check_prime", 0), "count")
    add("field.check_prime.s", med("incl", "field.check_prime"), "s")
    add("field.realize.calls", calls.get("field.realize", 0), "count")
    add("field.realize.draws", counts.get("field.realize.draws", 0), "count")
    add("field.realize.s", med("incl", "field.realize"), "s")
    add("engine.row.calls", calls.get("engine.row", 0), "count")
    add("engine.row.s", med("incl", "engine.row"), "s")
    add("engine.tables.s", med("incl", "engine.tables"), "s")
    add("engine.exterior_shift.calls", calls.get("engine.exterior_shift", 0), "count")
    add("engine.exterior_shift.self_s", med("self", "engine.exterior_shift"), "s")
    add("engine.retries", counts.get("engine.retries", 0), "count")
    add("engine.kernel_dim.calls", calls.get("engine.kernel_dim", 0), "count")
    add("engine.kernel_dim.s", med("incl", "engine.kernel_dim"), "s")
    add("complexes.construct.calls", calls.get("complexes.construct", 0), "count")
    add("complexes.construct.s", med("incl", "complexes.construct"), "s")
    add("complexes.is_shifted.calls", calls.get("complexes.is_shifted", 0), "count")
    add("complexes.is_shifted.s", med("incl", "complexes.is_shifted"), "s")
    add("complexes.interval.calls", calls.get("complexes.interval", 0), "count")
    add("complexes.interval.s", med("incl", "complexes.interval"), "s")
    add("operators.rule.calls", calls.get("operators.rule", 0), "count")
    add("operators.rule.s", med("incl", "operators.rule"), "s")
    add("operators.d_value.calls", calls.get("operators.d_value", 0), "count")
    add("operators.d_value.s", med("incl", "operators.d_value"), "s")
    add("operators.gap_family.s", med("incl", "operators.gap_family"), "s")
    add("homology.betti_from_shifted.s", med("incl", "homology.betti_from_shifted"), "s")
    add("homology.betti_direct.s", med("incl", "homology.betti_direct"), "s")
    add("homology.interior_matrix.calls", calls.get("homology.interior_matrix", 0), "count")
    add("homology.interior_matrix.s", med("incl", "homology.interior_matrix"), "s")
    add("cli.main.calls", calls.get("cli.main", 0), "count")
    add("cli.parse.s", med("incl", "cli.parse"), "s")
    add("cli.self_s", med("self", "cli.main"), "s")
    for suite in SUITE_NAMES:
        add(f"suites.{suite}.s", med("incl", f"suites.{suite}"), "s")
    overhead = statistics.median(traced_walls) / statistics.median(untraced_walls) - 1
    add("trace.overhead_frac", overhead, "ratio")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="shiftkit benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true", help="damage one output on purpose")
    args = ap.parse_args(argv)

    if not (SRC / "shiftkit" / "__init__.py").is_file():
        print(f"error: no shiftkit sources under {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{os.getpid()}"
    try:
        with SpeedProbe() as probe:
            return measure(args, tag, workdir, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, tag: str, workdir: Path, probe: SpeedProbe) -> int:
    sk, corpus, setup_times = setup(args.workload, args.seed, workdir, probe)
    ops = corpus.ops
    tracer = Tracer(probe.now) if args.trace else None

    reference: dict = {}
    failures = []
    lat_all, walls, raw_walls, cpu_walls, traced_walls, snaps = [], [], [], [], [], []
    features = None
    attempted = 0
    start = time.perf_counter()
    npass = 0
    min_passes = MIN_TRACED_PASSES if tracer else MIN_PASSES
    while npass < min_passes or time.perf_counter() - start < args.seconds:
        traced = tracer is not None and npass % 2 == 1
        if traced:
            tracer.reset()
            with tracer.installed(sk):
                outs, lat, wall, raw, _, feats = run_pass(ops, probe, tracer)
            snaps.append(tracer.snapshot(scale=wall / raw))
            traced_walls.append(wall)
            if features is None:
                features = feats
        else:
            outs, lat, wall, raw, cpu, _ = run_pass(ops, probe)
            walls.append(wall)
            raw_walls.append(raw)
            cpu_walls.append(cpu)
            lat_all.extend(lat)
        if args.corrupt and npass == 0:
            outs[0] = ops[0].corrupt(outs[0])
        failures.extend(check_pass(ops, outs, reference))
        attempted += len(ops)
        npass += 1

    digest = hashlib.sha256("".join(reference.get(i, "-") for i in range(len(ops))).encode()).hexdigest()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "commit": read_commit(),
        "source_sha256": source_hash(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "prime": sk.field.DEFAULT_PRIME,
        "corpus_sha256": corpus.corpus_hash,
        "corpus_params": corpus.params,
        "ops_per_pass": len(ops),
        "passes": npass,
        "output_digest": digest,
        "pass_walls": walls,
        "raw_pass_walls": raw_walls,
        "cpu_pass_s": cpu_walls,
        "speed_samples": len(probe.times),
    }

    if tracer is None:
        # one latency per op: its median over passes, so that pass-to-pass
        # noise does not move the percentiles taken across the corpus
        lat_op = [statistics.median(lat_all[i::len(ops)]) for i in range(len(ops))]
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "op_ms.p50": {"value": 1e3 * statistics.median(lat_op), "unit": "ms"},
            "op_ms.p90": {"value": 1e3 * quantile(lat_op, 0.9), "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        samples = {
            "wall_s": len(walls),
            "op_ms.p50": len(lat_all),
            "op_ms.p90": len(lat_all),
            "setup_s": len(setup_times),
            "peak_rss_mb": 1,
        }
    else:
        failures.extend(count_checks(snaps, ops, features))
        metrics = layer_metrics(snaps, walls, traced_walls)
        samples = {k: len(snaps) for k in metrics}
        record["op_features"] = [
            dict(op.features, label=op.label, ms=1e3 * statistics.median(lat_all[i::len(ops)]),
                 rows_built=f.get("engine.row.calls", 0), rows_kept=f.get("engine.shift_rows_kept", 0))
            for i, (op, f) in enumerate(zip(ops, features)) if op.features
        ]
        record["spans_kept"] = len(tracer.records)
        record["spans_dropped"] = tracer.dropped
        record["spans"] = tracer.records

    record["metrics"] = metrics
    record["samples"] = samples
    record["failures"] = failures[:50]
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    failed = len(failures)
    print(f"# {tag}: commit={record['commit']} python={record['python']} nproc={record['nproc']} "
          f"prime={record['prime']} corpus={corpus.corpus_hash[:16]} digest={digest[:16]}")
    print(f"# passes={npass} ops/pass={len(ops)} attempted={attempted} failed={failed} "
          f"fail_frac={failed / attempted:.4g}")
    for label, reason in failures[:10]:
        print(f"# FAIL {label}: {reason}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']} (n={samples[name]})")
    result = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def count_checks(snaps, ops, features):
    """Counts must repeat exactly between traced passes, rows kept must
    equal the nonempty face count, and the known row counts must hold."""
    failures = []
    for s in snaps[1:]:
        if s["calls"] != snaps[0]["calls"] or s["counts"] != snaps[0]["counts"]:
            failures.append(("trace", "span counts differ between passes"))
            break
    for op, f in zip(ops, features):
        if not op.features:
            continue
        kept = f.get("engine.shift_rows_kept", 0)
        faces = sum(op.features["f_vector"][1:])
        if kept != faces:
            failures.append((op.label, f"rows kept {kept} != nonempty faces {faces}"))
        if op.label in KNOWN_ROWS:
            built_known, kept_known = KNOWN_ROWS[op.label]
            built = f.get("engine.row.calls", 0)
            if kept != kept_known:
                failures.append((op.label, f"rows kept {kept} != known {kept_known}"))
            note = "matches" if built == built_known else "differs from"
            print(f"# {op.label}: rows built {built} {note} the recorded {built_known}, kept {kept}")
    return failures


if __name__ == "__main__":
    sys.exit(main())
