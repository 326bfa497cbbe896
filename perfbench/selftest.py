"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

For every workload it shows that a clean run passes with no failures and
that a run with ``--corrupt`` (one output damaged on purpose) reports
``correct: false`` with a nonzero failure share, so the correctness gate
cannot pass vacuously.  Traced runs of one seed must repeat their counts
and output digest exactly, and the traced ``xpoly`` run must reproduce the
recorded row counts of the cross-polytope shifts.  Exits 1 on any miss.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7

sys.path.insert(0, str(HERE))
from run import KNOWN_ROWS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run(workload: str, trace: int, *extra: str) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "0", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    return result, record


def main() -> int:
    misses = []

    def expect(cond: bool, what: str) -> None:
        print(("ok   " if cond else "MISS ") + what, flush=True)
        if not cond:
            misses.append(what)

    for w in WORKLOADS:
        clean, rec = run(w, 0)
        expect(clean["correct"] and clean["failed"] == 0, f"{w}: clean run passes, fail_frac 0")
        bad, _ = run(w, 0, "--corrupt")
        frac = bad["failed"] / bad["attempted"]
        expect(not bad["correct"] and frac > 0, f"{w}: corrupted output caught, fail_frac {frac:.3g}")

        first, rec1 = run(w, 1)
        expect(first["correct"], f"{w}: traced run passes its count checks")
        expect(rec1["output_digest"] == rec["output_digest"], f"{w}: tracing leaves outputs unchanged")
        if w == "xpoly":
            rows = {f["label"]: (f["rows_built"], f["rows_kept"]) for f in rec1["op_features"]}
            for label, known in KNOWN_ROWS.items():
                expect(rows.get(label) == known, f"{label}: rows built/kept {rows.get(label)} == {known}")
        second, rec2 = run(w, 1)
        counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] == "count"}
        again = {k: v["value"] for k, v in second["metrics"].items() if v["unit"] == "count"}
        expect(counts == again, f"{w}: {len(counts)} traced counts repeat exactly")
        expect(rec1["output_digest"] == rec2["output_digest"]
               and rec1["corpus_sha256"] == rec2["corpus_sha256"],
               f"{w}: corpus hash and output digest repeat for seed {SEED}")

    print(f"{len(misses)} misses")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
