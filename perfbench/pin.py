"""Pin the op pools of the benchmark: inputs, output digests and costs.

    PYTHONPATH=src python3 perfbench/pin.py [workload ...]

Writes ``perfbench/pins/<workload>.json``.  Each op key maps to
``[digest, cost_s]``: the digest of its output, which the benchmark requires
every later run to reproduce, and its cost in seconds, the best of
PIN_REPEATS passes at the reference host speed, which only shapes the classes
a seed splits a pool into.  Pin again only when the op pools change, and
only at a commit whose outputs are trusted: the digests are the benchmark's
reference outputs.
"""

from __future__ import annotations

import json
import math
import random
import sys
import tracemalloc
from itertools import combinations_with_replacement
from pathlib import Path
from time import perf_counter

import run
import tracer
import workloads

PINS = Path(__file__).resolve().parent / "pins"
PIN_REPEATS = 3

# lattice: exponents 2..40 with m in {3, 4, 5}.  p_g builds a dense array of
# a-invariant + 1 entries, so the a-invariant is capped at 5e5: every op
# finishes in under a second and 40 MB, where page faults do not yet swamp
# the timings on a shared host.  Far above the cap single ops run out of
# time or memory, e.g. (97, 98, 99, 101) needs 186M entries.
LATTICE_CAP = 500_000
LATTICE_POOL = 800

LIGHT_TUPLES = [(2, 3, 5), (2, 4, 5), (3, 4, 6), (3, 4, 7), (2, 5, 7), (4, 5, 6), (4, 4, 4),
                (2, 2, 2, 3), (2, 3, 4, 5)]
LIGHT_TEMPLATES = ["invariants {a}", "invariants {a} --json", "graph {a}", "graph {a} --dot",
                   "graph {a} --json", "cycles {a}", "nr {a} --oracle", "qseq {a} -N 4",
                   "qseq {a} -N 3 --json", "check {a}"]
LIGHT_EXTRA = ([f"elliptic --max-exp {e} --max-codim {c}" for e, c in
                ((8, 1), (10, 1), (12, 1), (8, 2), (10, 2))]
               + [f"cone --degree {d}" for d in range(3, 8)])
# heavy cli ops: `check` on tuples (m in {4, 5}, exponents 2..20) whose
# flattened graph has 2500..4500 vertices
HEAVY_POOL = 52
HEAVY_VERTICES = (2500, 4500)


def tuple_key(a) -> str:
    return ",".join(str(v) for v in a)


def sweep_keys() -> list[str]:
    return [tuple_key(a) for m in range(3, 6)
            for a in combinations_with_replacement(range(2, 13), m)]


def lattice_keys() -> list[str]:
    rng = random.Random("lattice-pool")
    keys: list[str] = []
    while len(keys) < LATTICE_POOL:
        a = tuple(sorted(rng.randint(2, 40) for _ in range(rng.choice((3, 4, 5)))))
        if tracer.a_invariant(a) <= LATTICE_CAP and tuple_key(a) not in keys:
            keys.append(tuple_key(a))
    return keys


def flattened_vertices(a) -> int:
    """Vertex count of the flattened star graph, without building it:
    1 + sum over families of ghat_w times the length of the
    Hirzebruch-Jung chain of alpha_w / beta_w."""
    ell = math.lcm(*a)
    n = 1
    for w, aw in enumerate(a):
        alpha = ell // math.lcm(*(a[:w] + a[w + 1:]))
        if alpha > 1:
            ghat = math.prod(a) // ell * alpha // aw
            p, q = alpha, -pow(ell // aw, -1, alpha) % alpha
            while q:
                n += ghat
                c = -(-p // q)
                p, q = q, c * q - p
    return n


def heavy_keys() -> list[str]:
    lo, hi = HEAVY_VERTICES
    fits = [a for m in (4, 5) for a in combinations_with_replacement(range(2, 21), m)
            if lo <= flattened_vertices(a) <= hi]
    return ["check " + " ".join(map(str, a))
            for a in random.Random("cli-heavy").sample(fits, HEAVY_POOL)]


def pin(op, keys: list[str], caches: dict, peaks: bool = False) -> dict:
    """[digest, cost_s] per key, with the peak bytes allocated when ``peaks``.

    The cost is the best of PIN_REPEATS passes at the benchmark's reference
    host speed; the peak is measured by tracemalloc, from cold caches.
    """
    passes = [workloads.run_pass(op, keys, None, caches) for _ in range(PIN_REPEATS)]
    for p in passes:
        if p["failures"] or p["digests"] != passes[0]["digests"]:
            raise SystemExit(f"cannot pin: {p['failures'][:5] or 'outputs differ between passes'}")
    out = {
        key: [passes[0]["digests"][key],
              round(min(p["latency"][key] for p in passes) * op.weight(key), 6)]
        for key in keys
    }
    if peaks:
        tracemalloc.start()
        for key in keys:
            for cache in caches.values():
                cache.cache_clear()
            tracemalloc.reset_peak()
            op.call(key)
            out[key].append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    return out


def render(name: str, groups: dict) -> str:
    """The pins file as JSON with one op per line."""
    head = json.dumps({"workload": name, "commit": run.git_commit()})[:-1]
    blocks = [
        json.dumps(g) + ": {\n" + ",\n".join(
            f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(ops.items())) + "\n}"
        for g, ops in sorted(groups.items())
    ]
    return head + ', "groups": {\n' + ",\n".join(blocks) + "\n}}\n"


def main(names: list[str]) -> int:
    mods = workloads.load_layers()
    caches = tracer.find_caches(mods.values())
    for name in names or list(workloads.CLASSES):
        t0 = perf_counter()
        if name == "sweep":
            groups = {"all": pin(workloads.SweepOp(mods), sweep_keys(), caches)}
        elif name == "census":
            op = workloads.CensusOp(mods)
            groups = {"full": pin(op, ["5,30"], caches), "smoke": pin(op, ["4,10"], caches)}
        elif name == "lattice":
            groups = {"all": pin(workloads.LatticeOp(mods), lattice_keys(), caches, peaks=True)}
        elif name == "cli":
            light = [t.format(a=" ".join(map(str, a))) for a in LIGHT_TUPLES
                     for t in LIGHT_TEMPLATES] + LIGHT_EXTRA
            op = workloads.CliOp(None)
            groups = {"light": pin(op, light, caches),
                      "heavy": pin(op, heavy_keys(), caches)}
            slowest = max(c for _, c in groups["light"].values())
            fastest = min(c for _, c in groups["heavy"].values())
            print(f"cli: slowest light op {slowest:.3f} s, fastest heavy op {fastest:.3f} s",
                  file=sys.stderr)
        else:
            raise SystemExit(f"unknown workload {name}")
        (PINS / f"{name}.json").write_text(render(name, groups))
        print(f"{name}: pinned {sum(map(len, groups.values()))} ops in "
              f"{perf_counter() - t0:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
