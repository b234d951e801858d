"""Command-line front end.

Subcommands: invariants, graph, cycles, nr, qseq, elliptic, cone, check.
Exit codes: 0 success, 1 usage error, 2 domain/construction error,
3 consistency failure, 4 input over a resource budget, 141 standard out
closed before all output was written (128 + SIGPIPE, as a shell reports a
process that the signal ends).  All output is byte-deterministic for a
fixed argv; results go to standard out, diagnostics to standard error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from . import brieskorn, checks, cone_homogeneous, graph_lattice, ideal_oracle
from .errors import ConsistencyError, ResourceError, SinglatError

__all__ = ["run", "main"]

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


class UsageError(Exception):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _jsonable(obj):
    """Rebuild a document with every out-of-64-bit integer as a decimal string."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return obj if _INT64_MIN <= obj <= _INT64_MAX else str(obj)
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    return obj


def _dumps(doc) -> str:
    import json  # only --json and cone print JSON; the other commands skip its import

    return json.dumps(_jsonable(doc), sort_keys=True)


def _coeffs(z) -> str:
    return " ".join(str(v) for v in z)


def _cmd_invariants(ns: argparse.Namespace) -> int:
    report = brieskorn.invariant_report(ns.a)
    if ns.json:
        print(_dumps(report))
        return 0
    for key, value in report.items():
        if isinstance(value, list):
            value = " ".join(str(v) for v in value) if value else "-"
        print(f"{key} = {value}")
    return 0


def _star_dot(star: brieskorn.StarGraph) -> str:
    g, q = star.graph, star.quotient
    # E_{w,nu,xi} is the xi-th curve of family w's nu-th class; every curve
    # but the center is named below
    names = [f"E0 [g={star.center_genus}]"] * g.n
    for w, (first, end) in enumerate(q.spans, start=1):
        for nu, a in enumerate(range(first, end), start=1):
            for xi, v in enumerate(q.curves(a), start=1):
                names[v] = f"E_{{{w},{nu},{xi}}}"
    lines = ["graph star {"]
    for i, (name, e) in enumerate(zip(names, g.self_ints)):
        lines.append(f'  v{i} [label="{name} ({e})"];')
    for i, j in g.edges:
        lines.append(f"  v{i} -- v{j};")
    lines.append("}")
    return "\n".join(lines)


def _cmd_graph(ns: argparse.Namespace) -> int:
    star = brieskorn.dual_graph(ns.a)
    if ns.dot:
        print(_star_dot(star))
        return 0
    if ns.json:
        doc = {
            "center": {"genus": star.center_genus, "self_int": star.center_self_int},
            "families": [
                {"count": fam.count, "chain": list(fam.chain)}
                for fam in star.branch_families
            ],
            "flags": list(star.flags),
            "graph": star.graph.to_json_dict(),
        }
        print(_dumps(doc))
        return 0
    print(f"vertices: {star.vertex_count}")
    print(f"center: genus {star.center_genus}, self-int {star.center_self_int}")
    for w, fam in enumerate(star.branch_families, start=1):
        if fam.chain:
            chain = " ".join(str(-c) for c in fam.chain)
            print(f"family {w}: {fam.count} x [{chain}]")
        else:
            print(f"family {w}: empty")
    if star.flags:
        print(f"flags: {' '.join(star.flags)}")
    return 0


def _cmd_cycles(ns: argparse.Namespace) -> int:
    a = tuple(ns.a)
    star = brieskorn.dual_graph(a)
    m = len(a)
    for i in range(1, m + 1):
        print(f"Z^({i}): {_coeffs(brieskorn.divisor_cycle(a, i))}")
    print(f"Z_0: {_coeffs(brieskorn.central_multiple_cycle(a))}")
    print(f"Z_K: {_coeffs(int(v) for v in brieskorn.canonical_cycle_formula(a))}")
    zf = graph_lattice.fundamental_cycle(star.graph)
    print(f"Z_f: {_coeffs(zf)} (via {brieskorn.fundamental_genus(a).cycle})")
    print(f"M_X: {_coeffs(brieskorn.maximal_ideal_cycle(a))}")
    return 0


def _cmd_nr(ns: argparse.Namespace) -> int:
    nr = brieskorn.normal_reduction_number(ns.a)
    if not ns.oracle:
        print(f"nr={nr}")
        return 0
    oracle = ideal_oracle.nr_by_oracle(ns.a)
    if nr == oracle:
        print(f"nr={nr} oracle={oracle} agree")
        return 0
    print(f"nr={nr} oracle={oracle} DISAGREE")
    return 3


def _cmd_qseq(ns: argparse.Namespace) -> int:
    a = tuple(ns.a)
    q = brieskorn.q_sequence(a, ns.n_max)
    table = ideal_oracle.quotient_table(a)
    if ns.json:
        doc = {"a": list(a), "q": list(q), "p": list(table.p), "nr": table.n_stop}
        print(_dumps(doc))
        return 0
    print(f"q = {_coeffs(q)}")
    print(f"p = {_coeffs(table.p)}")
    print(f"nr = {table.n_stop}")
    return 0


def _cmd_elliptic(ns: argparse.Namespace) -> int:
    if ns.max_exp < 2:
        raise UsageError(f"--max-exp must be >= 2, got {ns.max_exp}")
    if ns.max_codim < 1:
        raise UsageError(f"--max-codim must be >= 1, got {ns.max_codim}")
    found = brieskorn.classify_elliptic(ns.max_codim + 2, ns.max_exp)
    for t in found:
        print(" ".join(str(v) for v in t))
    return 0


def _cmd_cone(ns: argparse.Namespace) -> int:
    print(_dumps(cone_homogeneous.cone_report(ns.degree)))
    return 0


def _cmd_check(ns: argparse.Namespace) -> int:
    results = checks.run_tuple_checks(ns.a)
    failed = False
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed = failed or not r.passed
        print(f"{status} {r.name}: {r.detail}")
    return 3 if failed else 0


def _add_tuple_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("a", nargs="+", type=int, metavar="a_i",
                   help="exponents a_1 <= ... <= a_m (m >= 3, a_1 >= 2)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="singlat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="numeric invariants of a tuple")
    _add_tuple_arg(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("graph", help="star-shaped resolution dual graph")
    _add_tuple_arg(p)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--dot", action="store_true")
    fmt.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("cycles", help="distinguished cycles on the graph")
    _add_tuple_arg(p)
    p.set_defaults(func=_cmd_cycles)

    p = sub.add_parser("nr", help="normal reduction number of the maximal ideal")
    _add_tuple_arg(p)
    p.add_argument("--oracle", action="store_true",
                   help="also run the lattice oracle and compare")
    p.set_defaults(func=_cmd_nr)

    p = sub.add_parser("qseq", help="normalized colength sequence q(0..N)")
    _add_tuple_arg(p)
    p.add_argument("-N", dest="n_max", type=int, required=True,
                   help="largest index to report")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_qseq)

    p = sub.add_parser("elliptic", help="classify elliptic tuples in a box")
    p.add_argument("--max-exp", type=int, default=12,
                   help="largest allowed exponent (default 12)")
    p.add_argument("--max-codim", type=int, default=3,
                   help="largest allowed codimension m-2 (default 3)")
    p.set_defaults(func=_cmd_elliptic)

    p = sub.add_parser("cone", help="plane-curve cone report")
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=_cmd_cone)

    p = sub.add_parser("check", help="run every cross-module invariant")
    _add_tuple_arg(p)
    p.set_defaults(func=_cmd_check)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        return ns.func(ns)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 3
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except SinglatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return code if isinstance(code, int) else 0


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed standard out; point it at devnull, so that the
        # flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)
