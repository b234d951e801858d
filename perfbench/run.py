"""Run one workload of the singlat benchmark and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 24 --trace 0

Run from the root of a checkout.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer metrics of a
traced pass instead.  ``--workload all`` runs every workload in turn.  The
lines before the last one repeat the metrics for a reader, and the whole
result, with a record of the host, is written to ``perfbench/out/``.

The process exits 0 only when every op was checked and none failed.  It
exits 2 without a result when the checkout has no ``src/singlat``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("sweep", "census", "lattice", "cli")
# Interpreter launches timed for setup_s before each pass and after the last.
SETUP_BATCH = 5
# Passes of a run, each in its own process; an op counts its best.
REPEATS = {"sweep": 3, "census": 2, "lattice": 3, "cli": 3}
CHILD_TIMEOUT_S = 120


def clean_env() -> dict:
    """The user's environment with only the checkout's src on the import path."""
    env = {k: v for k, v in os.environ.items() if k not in ("SINGLAT_SWEEP_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def launch_seconds(env: dict, n: int) -> list[tuple[float, float]]:
    """(wall, scaled) seconds of n fresh interpreters, each from start to
    ``import singlat`` done; the host's speed is sampled before and after each."""
    speed, spans = workloads.HostSpeed(), []
    for _ in range(n):
        speed.tick()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import singlat"], env=env, check=True)
        spans.append((t0, time.perf_counter()))
        speed.tick()
    return [(t1 - t0, speed.scaled(t0, t1)) for t0, t1 in spans]


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    head = _read(git / "HEAD").strip()
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    loose = _read(git / ref).strip()
    if loose:
        return loose
    for line in _read(git / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def host_record(argv: list[str], seed: int, load_start: tuple) -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), None)
    mem = next((line.split(":", 1)[1].strip() for line in _read("/proc/meminfo").splitlines()
                if line.startswith("MemTotal")), None)
    return {
        "commit": git_commit(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "mem_total": mem,
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "seed": seed,
        "argv": argv,
    }


def run_child(cfg: dict, env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), json.dumps(cfg)],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {cfg['workload']} process exited with {proc.returncode}")
    return json.loads(proc.stdout)


def end_to_end(summary: dict, peak_rss_mb: float, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (summary["ops_per_s"], "1/s"),
        "op_ms_p50": (summary["op_ms_p50"], "ms"),
        "op_ms_tail": (summary["op_ms_tail"], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith(("_ratio", "_frac")) else "count"


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics of the faster traced pass, and the tracing overhead."""
    fastest = min(traced, key=lambda p: sum(p["latency"].values()))
    layers = tracer.layer_metrics(fastest["trace"])
    layers["trace.overhead_frac"] = (workloads.summarize(traced)["op_time_s"]
                                     / workloads.summarize(plain)["op_time_s"] - 1)
    return {name: (value, layer_unit(name)) for name, value in layers.items()}


def measure(args, workload: str, env: dict) -> tuple[list[dict], list[dict], list[tuple]]:
    """All passes of the run over the seed's first class: (plain passes,
    traced passes, setup launches as (wall, scaled) seconds).

    Untraced, REPEATS passes run one after another, with SETUP_BATCH timed
    interpreter launches before each and after the last, so the launches
    are spread over the run.  Traced, plain and traced passes alternate,
    REPEATS of each, and no launch is timed."""
    cfg = {
        "workload": workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "pins": str(Path(args.pins) / f"{workload}.json"),
        "trace_out": str(OUT / f"trace-{workload}-{os.getpid()}.json"),
    }
    plain, traced, launches = [], [], []
    try:
        for _ in range(REPEATS[workload]):
            if not args.trace:
                launches += launch_seconds(env, SETUP_BATCH)
            plain.append(run_child(cfg | {"traced": False}, env))
            if args.trace:
                traced.append(run_child(cfg | {"traced": True}, env))
        if not args.trace:
            launches += launch_seconds(env, SETUP_BATCH)
        return plain, traced, launches
    finally:
        Path(cfg["trace_out"]).unlink(missing_ok=True)


def run_workload(args, workload: str, env: dict, spec: dict) -> dict:
    load_start = os.getloadavg()
    OUT.mkdir(exist_ok=True)
    plain, traced, launches = measure(args, workload, env)
    passes = plain + traced
    scaled = workloads.summarize(plain)
    if args.trace:
        metrics = per_layer(plain, traced)
        wanted = [m["name"] for m in spec["per_layer"]]
        for name in wanted:  # a function this workload never reaches reports zero
            metrics.setdefault(name, (0, layer_unit(name)))
    else:
        metrics = end_to_end(scaled, statistics.median(p["peak_rss_mb"] for p in passes),
                             statistics.median(s for _, s in launches))
        wanted = [m["name"] for m in spec["end_to_end"]]
    failures = [f for p in passes for f in p["failures"]]
    differ = sorted({key for p in passes for key, d in p["digests"].items()
                     if d != passes[0]["digests"].get(key, d)})
    if differ:  # traced against untraced, or one pass against another
        failures.append({"op": "passes disagree", "weight": len(differ), "why": differ[:20]})
    attempted = sum(sum(p["weight"].values()) for p in passes)
    failed = sum(f["weight"] for f in failures)
    result = {
        "workload": workload,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "ops_failed_frac": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
        "scaled": scaled,
        "unscaled": workloads.summarize(plain, "raw"),
        "setup_launches_s": {"wall": [w for w, _ in launches],
                             "scaled": [s for _, s in launches]},
        "failures": failures[:50],
        "host": host_record(sys.argv, args.seed, load_start),
    }
    name = f"{workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n")
    report = {k: result["metrics"][k] for k in wanted}
    for key, m in report.items():
        print(f"{workload} {key} = {m['value']:.6g} {m['unit']}")
    print(f"{workload} ops_failed_frac = {result['ops_failed_frac']:.6g} ({failed} of {attempted})")
    if not args.trace:
        print(f"{workload} op_ms_tail is p{scaled['tail_percentile']:.2f} of "
              f"{scaled['samples']} samples")
    for f in failures[:5]:
        print(f"{workload} FAILED {f['op']}: {f['why']}", file=sys.stderr)
    result["report"] = report
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="accepted but not used: the workload fixes a run's passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass over the cheapest pinned ops (self-test)")
    parser.add_argument("--pins", default=str(HERE / "pins"),
                        help="directory of pinned pools (self-test)")
    args = parser.parse_args(argv)
    if not (SRC / "singlat" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'singlat'} not found; run from a singlat checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = clean_env()
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "singlat")],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(args, w, env, spec) for w in names]
    if len(results) == 1:
        metrics = results[0]["report"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["report"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
