"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Runs every workload in smoke mode (one pass over the cheapest pinned ops),
untraced and traced, and checks that each run emits exactly the metrics
BENCHMARK.json lists, with their units.  Then checks that one corrupted
pinned digest fails the run with a non-zero exit, and that the benchmark
exits non-zero without a result in a directory that holds only
BENCHMARK.json and the benchmark's own files.  Exits 1 on any problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = HERE / "out" / "selftest"
KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--seed", "1", "--seconds", "1", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) and set(doc) == KEYS else None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench("--workload", workload, "--trace", str(trace), "--smoke")
            res = result(proc)
            where = f"{workload} --trace {trace}"
            if proc.returncode or res is None:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{where}: {res['attempted']} attempted, {res['failed']} failed")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(want.items()))[:10]}")
            if any(not isinstance(m["value"], (int, float)) for m in res["metrics"].values()):
                problems.append(f"{where}: a metric value is not a number")
        print(f"selftest: {workload} emits every listed metric", file=sys.stderr)

    # One corrupted pinned digest must fail the run.
    shutil.rmtree(SCRATCH, ignore_errors=True)
    pins = SCRATCH / "pins"
    shutil.copytree(HERE / "pins", pins)
    doc = json.loads((pins / "sweep.json").read_text())
    ops = doc["groups"]["all"]
    cheapest = min(ops, key=lambda key: (ops[key][1], key))
    ops[cheapest][0] = "0" * 16
    (pins / "sweep.json").write_text(json.dumps(doc))
    proc = bench("--workload", "sweep", "--smoke", "--pins", str(pins))
    res = result(proc)
    if proc.returncode == 0 or res is None or res["correct"] or res["failed"] < 1:
        problems.append(f"corrupted digest of {cheapest} did not trip the gate: "
                        f"exit {proc.returncode}, result {res}")
    else:
        print("selftest: a corrupted pinned digest fails the run", file=sys.stderr)

    # Without the program's source the benchmark must refuse to run.
    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("--workload", "sweep", root=bare)
    if proc.returncode == 0 or result(proc) is not None:
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}")
    else:
        print("selftest: refuses to run without src/singlat", file=sys.stderr)
    shutil.rmtree(SCRATCH, ignore_errors=True)

    for p in problems:
        print(f"selftest FAILED: {p}", file=sys.stderr)
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
