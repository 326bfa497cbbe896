"""Run the benchmark over several seeds and report medians and spreads.

    python3 perfbench/sweep.py                       # every workload, 1 run each
    python3 perfbench/sweep.py --runs 10 --workload rules --seconds 20

Each run is one ``run.py`` process, started and waited for in turn; run r
uses seed r, or seed 1 with ``--repeat-seed``.  For
every workload and metric it prints the median over runs, the first and
third quartiles, the spread (their distance over the median) and, for the
end-to-end metrics, the bound from ``BENCHMARK.json``.  A spread above its
bound is marked ``UNSTEADY``, one above a third of it ``above bound/3``
(``setup_s`` is exempt).  Runs of one seed must agree on corpus hash, output
digest and every count; otherwise the sweep exits 1, as it does when a run
reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def spread(values) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--repeat-seed", action="store_true",
                    help="use the same seed for every run (checks exact repeats)")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workload or names:
        values: dict[str, list] = {}
        units, counts, by_seed = {}, {}, {}
        attempted = failed = 0
        for r in range(args.runs):
            seed = 1 if args.repeat_seed else 1 + r
            result, record = run_once(workload, seed, args.seconds, args.trace)
            attempted += result["attempted"]
            failed += result["failed"]
            ok &= result["correct"]
            seen = by_seed.setdefault(seed, (record["corpus_sha256"], record["output_digest"], result["metrics"]))
            if seen[:2] != (record["corpus_sha256"], record["output_digest"]):
                print(f"{workload} seed {seed}: corpus or output digest changed between runs")
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
                counts[name] = record["samples"][name]
                if m["unit"] == "count" and m["value"] != seen[2][name]["value"]:
                    print(f"{workload} seed {seed}: {name} did not repeat exactly")
                    ok = False
            print(f"  {workload} seed={seed} " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                if k in bounds or k == "trace.overhead_frac"), flush=True)
        print(f"{workload}: {args.runs} runs, attempted={attempted} failed={failed} "
              f"fail_frac={failed / attempted:.4g}")
        for name, vals in values.items():
            med, q1, q3, sp = spread(vals)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and sp > bound / 3:
                flag = "UNSTEADY" if sp > bound else "above bound/3"
            print(f"  {name:32s} {med:12.6g} {units[name]:6s} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={sp:.3f} bound={bound} n/run={counts[name]} {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
