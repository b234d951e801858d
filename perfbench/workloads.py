"""Workload process of the singlat benchmark.

``run.py`` starts this file in a fresh interpreter with ``PYTHONPATH`` set to
the checkout's ``src`` and ``SINGLAT_SWEEP_THREADS`` unset, and passes one
JSON config as its only argument.  It runs one pass of one workload, checks
every op against its independent routes and its pinned output digest, and
prints one JSON document on standard output.

An op's inputs come from a pool pinned in ``pins/<workload>.json``: each op
key carries the digest of its output and its cost in seconds, both taken at
the commit that pinned them (see ``pin.py``).  The seed splits each pool into
classes of equal size and near-equal cost, orders the classes and shuffles
the ops of each; a pass runs the seed's first class.  Equal-cost classes
keep the heavy tail of every pool in every pass, so two seeds measure the
same mix.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import heapq
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Classes per pool: a pass runs one class of every group of the workload.
# The sizes let a run's passes fit the run_seconds of BENCHMARK.json.
CLASSES = {"sweep": 10, "census": 1, "lattice": 4, "cli": 4}
GROUPS = {
    "sweep": ("all",),
    "census": ("full",),
    "lattice": ("all",),
    "cli": ("light", "heavy"),
}
SMOKE_GROUPS = {"census": ("smoke",)}
SMOKE_OPS = 4  # cheapest ops per group in smoke mode
TAIL_BEYOND = 10  # samples beyond the tail percentile
SAMPLE_EVERY_S = 0.1  # host speed: one timed run of reference_work per interval
SPEED_WINDOW_S = 0.1  # reference samples this close to an op scale its time
REFERENCE_S = 0.0004  # nominal time of a warm reference_work, the speed op times are scaled to
CLI_TIMEOUT_S = 120


def digest(output) -> str:
    """Truncated sha256 of an op's output in canonical JSON form."""
    text = json.dumps(_plain(output), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _plain(x):
    """Ints, strings and nested lists only; an integral Fraction becomes an int."""
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    raise TypeError(f"cannot render {type(x).__name__} in an op output")


def parse_tuple(key: str) -> tuple[int, ...]:
    return tuple(int(v) for v in key.split(","))


# ---------------------------------------------------------------- ops


class Op:
    """One kind of op: ``call`` is the timed part (library calls only),
    ``check`` compares independent routes and ``output`` is what is digested.
    ``in_process`` ops run in the workload process; the others run in a
    child process and are sampled for host speed around it (see HostSpeed)."""

    in_process = True

    def weight(self, key: str) -> int:
        """How many ops one call counts for."""
        return 1

    def after(self) -> None:
        """Untimed bookkeeping after each call."""


class SweepOp(Op):
    """The acceptance sweep's per-tuple calls, in the fixture's order."""

    def __init__(self, mods) -> None:
        self.b, self.g, self.o = mods["brieskorn"], mods["graph_lattice"], mods["ideal_oracle"]

    def call(self, key: str):
        b, g, o = self.b, self.g, self.o
        a = parse_tuple(key)
        star = b.dual_graph(a)
        graph = star.graph
        inv = b.numeric_invariants(a)
        zf = g.fundamental_cycle(graph)
        pf = b.fundamental_genus(a)
        z0 = b.central_multiple_cycle(a)
        mx = b.maximal_ideal_cycle(a)
        zk = b.canonical_cycle_formula(a)
        nr = b.normal_reduction_number(a)
        q = b.q_sequence(a, nr + 2)
        pa = g.arithmetic_genus(graph, zf)
        zkq = g.canonical_qcycle(graph)
        table = o.quotient_table(a)
        pg = b.geometric_genus(a)
        return (star, inv, zf, pf, z0, mx, zk, nr, q, pa, zkq, table, pg)

    def check(self, key: str, r) -> list[str]:
        star, inv, zf, pf, z0, mx, zk, nr, q, pa, zkq, table, pg = r
        bad = []
        if pf.value != pa:
            bad.append(f"p_f={pf.value} but Laufer p_a(Z_f)={pa}")
        lam_m, alpha = inv.lambda_i[-1], inv.alpha
        if lam_m >= alpha and zf != z0:
            bad.append("Z_f != Z_0 although lambda_m >= alpha")
        if lam_m <= alpha and zf != mx:
            bad.append("Z_f != M_X although lambda_m <= alpha")
        want = "both" if lam_m == alpha else "Z0" if lam_m > alpha else "MX"
        if pf.cycle != want:
            bad.append(f"selector {pf.cycle}, expected {want}")
        if tuple(zk) != tuple(zkq):
            bad.append("Z_K formula != canonical_qcycle")
        if nr != table.n_stop:
            bad.append(f"nr={nr} but the oracle says {table.n_stop}")
        p = tuple(table.p) + (0,) * (len(q) - 1 - len(table.p))
        if not self.o.qp_consistency(q, p):
            bad.append("q/p second-difference identity fails")
        return bad

    def output(self, r):
        star, inv, zf, pf, z0, mx, zk, nr, q, pa, zkq, table, pg = r
        graph = star.graph
        return [
            [star.center_genus, star.c0, list(star.flags)],
            [[f.count, list(f.chain), f.beta] for f in star.branch_families],
            [list(graph.genera), list(graph.self_ints), [list(e) for e in graph.edges]],
            [inv.ell, inv.alpha, inv.ghat, list(inv.lambda_i), list(inv.eta), inv.delta,
             inv.a_invariant, inv.multiplicity],
            zf, [pf.value, pf.cycle], z0, mx, list(zk), nr, q, pa, list(zkq),
            list(table.p), pg,
        ]


def elliptic_families(m_max: int, a_max: int) -> list[tuple[int, ...]]:
    """The six elliptic families cut down to the box m <= m_max, a_m <= a_max."""
    fam = set()
    for x in range(2, a_max + 1):
        if x >= 6:
            fam.add((2, 3, x))
        if x >= 4:
            fam.add((2, 4, x))
        if 5 <= x <= 9:
            fam.add((2, 5, x))
        if x >= 3:
            fam.add((3, 3, x))
        if 4 <= x <= 5:
            fam.add((3, 4, x))
        fam.add((2, 2, 2, x))
    return sorted(t for t in fam if len(t) <= m_max)


def census_size(m_max: int, a_max: int) -> int:
    """Number of tuples classify_elliptic scans in the box."""
    from math import comb

    return sum(comb(a_max - 1 + m - 1, m) for m in range(3, m_max + 1))


class CensusOp(Op):
    """One elliptic census; an op is one scanned tuple, so the weight is the box size."""

    def __init__(self, mods) -> None:
        self.b = mods["brieskorn"]

    def weight(self, key: str) -> int:
        return census_size(*parse_tuple(key))

    def call(self, key: str):
        m_max, a_max = parse_tuple(key)
        return self.b.classify_elliptic(m_max, a_max)

    def check(self, key: str, found) -> list[str]:
        if list(found) != elliptic_families(*parse_tuple(key)):
            return ["census differs from the six elliptic families"]
        return []

    def output(self, found):
        return found


class LatticeOp(Op):
    """p_g, nr against the lattice oracle, and the closure of the square."""

    def __init__(self, mods) -> None:
        self.b, self.o = mods["brieskorn"], mods["ideal_oracle"]

    def call(self, key: str):
        a = parse_tuple(key)
        pg = self.b.geometric_genus(a)
        nr = self.b.normal_reduction_number(a)
        oracle = self.o.nr_by_oracle(a)
        closure = self.o.closure_monomials(a, 2)
        return pg, nr, oracle, closure

    def check(self, key: str, r) -> list[str]:
        pg, nr, oracle, closure = r
        return [] if nr == oracle else [f"nr={nr} but the oracle says {oracle}"]

    def output(self, r):
        return list(r)


class CliOp(Op):
    """One cold ``singlat`` process; the output is stdout plus the exit code."""

    in_process = False

    def __init__(self, traces: ProcessTraces | None = None) -> None:
        self.env = dict(os.environ)
        self.traces = traces
        if traces is not None:
            self.env["PERFBENCH_TRACE_OUT"] = str(traces.path)
            self.prefix = [sys.executable, str(HERE / "tracer.py")]
        else:
            self.prefix = [sys.executable, "-c", "from singlat.cli import main; main()"]

    def call(self, key: str):
        proc = subprocess.run(
            self.prefix + key.split(), env=self.env, capture_output=True,
            timeout=CLI_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout

    def after(self) -> None:
        if self.traces is not None:
            self.traces.add()

    def check(self, key: str, r) -> list[str]:
        code, _ = r
        return [] if code == 0 else [f"exit code {code}"]

    def output(self, r):
        code, stdout = r
        return [code, hashlib.sha256(stdout).hexdigest()]


# ---------------------------------------------------------------- passes


def split_classes(ops: dict, k: int, rng: random.Random,
                  peaks: dict | None = None) -> tuple[list[str], list[list[str]]]:
    """Split {key: cost} into ops every class shares and k classes of the rest.

    The shared ops are the costliest op and, when ``peaks`` gives them, the
    op with the largest peak memory: every pass keeps the pool's worst case.
    The other ops, ranked by cost, are dealt in blocks of k, one op of each
    block to each class, so the classes have near-equal size, cost and cost
    distribution, tail included.  In each block the costlier ops go to the
    classes with the least cost so far; the seed breaks ties.
    """
    order = sorted(ops, key=lambda key: (-ops[key], key))
    shared = [order[0]]
    if peaks:
        biggest = max(peaks, key=lambda key: (peaks[key], key))
        if biggest not in shared:
            shared.append(biggest)
    order = [key for key in order if key not in shared]
    classes: list[list[str]] = [[] for _ in range(k)]
    load = [0.0] * k
    for start in range(0, len(order), k):
        targets = list(range(k))
        rng.shuffle(targets)
        targets.sort(key=lambda c: load[c])
        for c, key in zip(targets, order[start:start + k]):
            classes[c].append(key)
            load[c] += ops[key]
    return shared, classes


def make_passes(workload: str, pins: dict, seed: int, smoke: bool) -> list[list[str]]:
    """The seed's passes: one per class, in seeded order.  Each pass starts
    with the shared ops, the pool's worst cases, on a fresh heap; the rest
    of its class follows in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    groups = pins["groups"]
    if smoke:
        names = SMOKE_GROUPS.get(workload, GROUPS[workload])
        cheapest = [sorted(groups[n], key=lambda key: (groups[n][key][1], key))[:SMOKE_OPS] for n in names]
        return [[key for keys in cheapest for key in keys]]
    k = CLASSES[workload]
    shared, classes = [], [[] for _ in range(k)]
    for name in GROUPS[workload]:
        group = groups[name]
        s, c = split_classes({key: rec[1] for key, rec in group.items()}, k, rng,
                             {key: rec[2] for key, rec in group.items() if len(rec) > 2})
        shared += s
        for i in range(k):
            classes[i] += c[i]
    for c in classes:
        rng.shuffle(c)
    rng.shuffle(classes)
    return [shared + c for c in classes]


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it; the maximum when there are too few samples."""
    s = sorted(samples)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def reference_work() -> int:
    """A fixed computation independent of singlat, in the style of its inner
    loops: small-int arithmetic, Fractions, dict, list and heap traffic."""
    rows: dict[int, int] = {}
    acc = Fraction(0)
    heap: list[tuple[int, int]] = []
    for i in range(120):
        rows[i % 37] = rows.get(i % 37, 0) + i * 7 % 11
        acc += Fraction(i % 13 + 1, i % 7 + 1)
        heapq.heappush(heap, (i * 31 % 17, i))
    while heap:
        heapq.heappop(heap)
    return acc.denominator + len(sorted(rows.values()))


class HostSpeed:
    """Samples the host's speed by timing ``reference_work``.

    Other tenants of a shared host slow it down by tens of percent for
    seconds at a time.  A sample runs the reference once to warm the CPU
    caches with its own code and data, then once timed, so it follows the
    host's speed rather than what an op left in the caches.  The garbage
    collector is off meanwhile, so no collection of an op's heap lands in a
    sample.  Dividing an op's time by the median sample within
    SPEED_WINDOW_S of the op, and multiplying by REFERENCE_S, expresses the
    op in seconds at one fixed host speed.

    With ``every`` set, a SIGALRM handler takes a sample every ``every``
    seconds, between the bytecodes of whatever op runs in this process, and
    the samples' time is taken out of the op's.  An op that runs in a child
    process is instead sampled by calling ``tick`` just before and just
    after it: a sample taken while the child runs may share the child's CPU
    and wait out its time slice.
    """

    def __init__(self, every: float | None = None) -> None:
        self.every = every
        self.at: list[float] = []
        self.sample: list[float] = []  # the timed reference runs
        self.took: list[float] = []  # whole samples, warm-up included

    def _on_alarm(self, signum, frame) -> None:
        self.tick()

    def tick(self) -> None:
        t0 = perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        reference_work()
        t1 = perf_counter()
        reference_work()
        t2 = perf_counter()
        if collecting:
            gc.enable()
        self.at.append(t0)
        self.sample.append(t2 - t1)
        self.took.append(perf_counter() - t0)

    def __enter__(self) -> "HostSpeed":
        if self.every:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc) -> None:
        if self.every:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def own(self, t0: float, t1: float) -> float:
        """Seconds of an op that ran from t0 to t1, without the samples'."""
        inside = self.took[bisect.bisect_left(self.at, t0):bisect.bisect_right(self.at, t1)]
        return t1 - t0 - sum(inside)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds an op that ran from t0 to t1 takes at the reference speed."""
        own = self.own(t0, t1)
        near = self.sample[bisect.bisect_left(self.at, t0 - SPEED_WINDOW_S):
                           bisect.bisect_right(self.at, t1 + SPEED_WINDOW_S)]
        return own * REFERENCE_S / statistics.median(near) if near else own


def run_pass(op, keys: list[str], expected: dict | None, caches: dict, tr=None) -> dict:
    """Run one pass with cold caches; time each call, then check it against
    its independent routes and, unless ``expected`` is None, its pinned digest."""
    for cache in caches.values():
        cache.cache_clear()
    if tr is not None:
        tr.reset()
    weight, spans, failures, digests = {}, {}, [], {}
    t_pass = perf_counter()
    with HostSpeed(SAMPLE_EVERY_S if op.in_process else None) as speed:
        for key in keys:
            weight[key] = op.weight(key)
            try:
                if not op.in_process:
                    speed.tick()
                if tr is not None:
                    tr.active = True
                t0 = perf_counter()
                try:
                    r = op.call(key)
                finally:
                    spans[key] = (t0, perf_counter())
                    if tr is not None:
                        tr.active = False
                if not op.in_process:
                    speed.tick()
                op.after()
                bad = op.check(key, r)
                digests[key] = digest(op.output(r))
            except Exception as exc:  # an op that raises is a failed op, not a crash
                bad = [f"{type(exc).__name__}: {exc}"]
            if not bad and expected is not None and digests[key] != expected[key]:
                bad = [f"output digest {digests[key]} != pinned {expected[key]}"]
            if bad:
                failures.append({"op": key, "weight": weight[key], "why": bad})
    return {
        "raw": {key: speed.own(*span) / weight[key] for key, span in spans.items()},
        "latency": {key: speed.scaled(*span) / weight[key] for key, span in spans.items()},
        "weight": weight,
        "wall_s": perf_counter() - t_pass,
        "failures": failures,
        "digests": digests,
        "trace": tr.snapshot() if tr is not None else None,
    }


def summarize(passes: list[dict], field: str = "latency") -> dict:
    """Metrics of a run: each op's latency is its best over the run's
    passes.  The passes ran in separate processes, one after another, so they
    met different host load and different memory layouts."""
    keys = list(passes[0][field])
    best = [min(p[field][key] for p in passes) for key in keys]
    weights = [passes[0]["weight"][key] for key in keys]
    op_time = sum(b * w for b, w in zip(best, weights))
    value, pct = tail(best)
    return {
        "ops": sum(weights),
        "samples": len(keys),
        "op_time_s": op_time,
        "ops_per_s": sum(weights) / op_time,
        "op_ms_p50": 1000 * statistics.median(best),
        "op_ms_tail": 1000 * value,
        "tail_percentile": pct,
    }


class ProcessTraces:
    """Stand-in for a Tracer when the traced code runs in cli processes:
    sums the raw traces those processes write."""

    active = False

    def __init__(self, path: Path) -> None:
        self.path = path
        self.raw = tracer.empty()

    def reset(self) -> None:
        self.raw = tracer.empty()

    def add(self) -> None:
        tracer.merge(self.raw, json.loads(self.path.read_text()))

    def snapshot(self) -> dict:
        return self.raw


def load_layers() -> dict:
    """The layer modules by name; refuses a singlat from outside the checkout's
    src, such as a stale editable install."""
    import singlat

    where = Path(singlat.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"singlat resolves to {where}, outside {SRC}")
    return {mod.__name__.rsplit(".", 1)[-1]: mod for mod in tracer.layer_modules()}


def main() -> int:
    """Run one pass of one class and print its timings, checks and trace."""
    cfg = json.loads(sys.argv[1])
    workload = cfg["workload"]
    pins = json.loads(Path(cfg["pins"]).read_text())
    expected = {key: rec[0] for group in pins["groups"].values() for key, rec in group.items()}
    mods = load_layers()
    caches = tracer.find_caches(mods.values())
    passes = make_passes(workload, pins, cfg["seed"], cfg["smoke"])
    keys = passes[0]
    tr = None
    if workload == "cli":
        if cfg["traced"]:
            tr = ProcessTraces(Path(cfg["trace_out"]))
        op = CliOp(tr)
    else:
        if cfg["traced"]:
            tr = tracer.Tracer()
            tr.install(mods.values())
        op = {"sweep": SweepOp, "census": CensusOp, "lattice": LatticeOp}[workload](mods)
    result = run_pass(op, keys, expected, caches, tr)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
