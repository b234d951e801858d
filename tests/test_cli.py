"""Command-line interface: frozen outputs, exit codes, JSON round-trips."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from singlat import DualGraph, dual_graph
from singlat.cli import _jsonable, run


def invoke(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(args)
    return code, out.getvalue(), err.getvalue()


# ------------------------------------------------------------------ exit codes

def test_usage_errors_exit_1():
    for args in [
        [],
        ["invariants"],
        ["qseq", "3", "4", "6"],
        ["elliptic", "--max-exp", "1"],
        ["no-such-command"],
    ]:
        code, _, err = invoke(args)
        assert code == 1, args
        assert "error:" in err


def test_domain_errors_exit_2():
    for args in [
        ["invariants", "1", "2", "3"],
        ["invariants", "3", "2", "4"],
        ["invariants", "2", "2"],
        ["qseq", "3", "4", "6", "-N", "-1"],
        ["cone", "--degree", "2"],
    ]:
        code, _, err = invoke(args)
        assert code == 2, args
        assert "error:" in err


def test_resource_budget_exits_4():
    for args in [
        ["invariants", "1000", "1000", "1000", "1000", "1000"],
        ["check", "1000", "1000", "1000", "1000", "1000"],
        ["nr", "1000", "1000", "1000", "1000", "1000", "--oracle"],
    ]:
        code, out, err = invoke(args)
        assert code == 4, args
        assert out == ""
        assert "budget" in err


@pytest.mark.deadline(5)
@pytest.mark.parametrize("args", [
    "invariants 101 102 103 105 107",
    "qseq 101 102 103 105 107 -N 2",
    "nr 101 102 103 105 107 --oracle",
    "check 101 102 103 105 107",
    "invariants 2 3 1000001",
])
def test_a_box_or_pair_range_over_budget_is_refused_before_the_star(args):
    """The box of (101,102,103,105,107) has 1,061,106 points, its p_g pairs
    fit; (2,3,1000001) has 4,000,008 p_g pairs.  Each command exits 4
    before Laufer's sequence runs on the star, which would take minutes."""
    code, out, err = invoke(args.split())
    assert code == 4, args
    assert out == ""
    assert "budget" in err


def test_long_sequences_exit_4():
    """A q-sequence q(0..10^6) or a degree-10^6 cone report would list
    10^6 + 1 entries, one above the budget."""
    for args, what in [
        (["qseq", "3", "4", "5", "-N", "1000000"], "q-sequence q(0..1000000)"),
        (["cone", "--degree", "1000000"], "q list of the degree-1000000 cone"),
    ]:
        code, out, err = invoke(args)
        assert code == 4, args
        assert out == ""
        assert what in err and "budget" in err


def _refuse_dual_graphs(monkeypatch):
    """Make building any DualGraph, by the plain constructor or by
    flattening a star (both fill it through ``_fill``), raise."""
    from singlat import graph_lattice

    def refuse(self, *args):
        raise RuntimeError("a DualGraph was built for an over-budget star")

    monkeypatch.setattr(graph_lattice.DualGraph, "_fill", refuse)


def test_flattened_graph_budget_exits_4(monkeypatch):
    """(23,24,24,24,24,24) passes the box, p_g-pair and dense-series budgets,
    but its flattened graph would have 1 + 331,776 * 22 = 7,299,073 curves:
    every command that flattens exits 4 before it builds a DualGraph, and
    plain ``graph`` reads the count off the families."""
    _refuse_dual_graphs(monkeypatch)
    a = ["23", "24", "24", "24", "24", "24"]
    for cmd in (["check"], ["cycles"], ["graph", "--json"]):
        code, out, err = invoke(cmd + a)
        assert code == 4, cmd
        assert out == ""
        assert "flattened star graph needs 7299073 vertices" in err
    code, out, _ = invoke(["graph"] + a)
    assert code == 0
    assert out.splitlines()[0] == "vertices: 7299073"


def test_invariants_of_a_star_too_large_to_flatten(monkeypatch):
    """p_f of (23,24,24,24,24,24) is verified by Laufer's sequence on the
    star's 23 classes, so invariants answers without a DualGraph, with the
    closed-form p_f."""
    from singlat import brieskorn

    _refuse_dual_graphs(monkeypatch)
    brieskorn._pf_verified.cache_clear()
    code, out, _ = invoke(["invariants", "23", "24", "24", "24", "24", "24"])
    assert code == 0
    pf = brieskorn._pf_value((23, 24, 24, 24, 24, 24)).value
    assert f"pf = {pf}\n" in out and pf == 14_148_865


# -------------------------------------------------------------- frozen outputs

def test_check_exits_4_before_laufer(monkeypatch):
    """The battery checks every budget before its first step, so a tuple whose
    dense p_g series is too long never reaches Laufer's sequence."""
    from singlat import graph_lattice

    calls = []

    def refuse(q):
        calls.append(q)
        raise RuntimeError("Laufer's sequence ran although the battery cannot finish")

    monkeypatch.setattr(graph_lattice.Quotient, "fundamental_cycle", refuse)
    code, out, err = invoke(["check", "97", "98", "99", "101"])
    assert calls == []
    assert code == 4
    assert out == ""
    assert "dense p_g series" in err


def test_invariants_exits_4_before_laufer(monkeypatch):
    """invariants tests the p_g pairs before it builds the star, so a tuple
    whose p_g is refused never reaches Laufer's sequence on its 166,674
    curves."""
    from singlat import graph_lattice

    calls = []

    def refuse(q):
        calls.append(q)
        raise RuntimeError("Laufer's sequence ran although p_g is refused")

    monkeypatch.setattr(graph_lattice.Quotient, "fundamental_cycle", refuse)
    code, out, err = invoke(["invariants", "2", "3", "1000001"])
    assert calls == []
    assert code == 4
    assert out == ""
    assert "p_g pairs" in err


def test_invariants_plain():
    code, out, _ = invoke(["invariants", "3", "4", "7"])
    assert code == 0
    assert out == (
        "a = 3 4 7\n"
        "ell = 84\n"
        "alpha = 3 4 7\n"
        "ghat = 1\n"
        "lambda = 28 21 12\n"
        "eta = 4 3 2\n"
        "delta = 1\n"
        "g = 0\n"
        "c0 = 2\n"
        "pf = 2\n"
        "pg = 3\n"
        "nr = 2\n"
        "elliptic = False\n"
        "flags = -\n"
    )


def test_invariants_json():
    code, out, _ = invoke(["invariants", "2", "2", "2", "--json"])
    assert code == 0
    assert out == (
        '{"a": [2, 2, 2], "alpha": [1, 1, 1], "c0": 2, "delta": 0,'
        ' "ell": 2, "elliptic": false, "eta": [1, 1, 1], "flags": [],'
        ' "g": 0, "ghat": 4, "lambda": [1, 1, 1], "nr": 1, "pf": 0,'
        ' "pg": 0}\n'
    )


def test_nr_with_oracle():
    code, out, _ = invoke(["nr", "3", "4", "6", "--oracle"])
    assert (code, out) == (0, "nr=2 oracle=2 agree\n")
    code, out, _ = invoke(["nr", "3", "4", "6"])
    assert (code, out) == (0, "nr=2\n")


def test_graph_plain():
    code, out, _ = invoke(["graph", "3", "4", "7"])
    assert code == 0
    assert out == (
        "vertices: 8\n"
        "center: genus 0, self-int -2\n"
        "family 1: 1 x [-2 -2]\n"
        "family 2: 1 x [-2 -2 -2]\n"
        "family 3: 1 x [-2 -4]\n"
    )


def test_cycles():
    code, out, _ = invoke(["cycles", "3", "4", "6"])
    assert code == 0
    assert out == (
        "Z^(1): 4 2 2 2\n"
        "Z^(2): 3 2 2 2\n"
        "Z^(3): 2 1 1 1\n"
        "Z_0: 2 1 1 1\n"
        "Z_K: 4 2 2 2\n"
        "Z_f: 2 1 1 1 (via both)\n"
        "M_X: 2 1 1 1\n"
    )


def test_qseq():
    code, out, _ = invoke(["qseq", "3", "4", "6", "-N", "4"])
    assert code == 0
    assert out == "q = 3 2 2 2 2\np = 2 1 0\nnr = 2\n"
    code, out, _ = invoke(["qseq", "3", "4", "6", "-N", "3", "--json"])
    assert json.loads(out) == {
        "a": [3, 4, 6], "nr": 2, "p": [2, 1, 0], "q": [3, 2, 2, 2],
    }


def test_cone():
    code, out, _ = invoke(["cone", "--degree", "4"])
    assert code == 0
    assert json.loads(out) == {
        "bound": 3, "d": 4, "g": 3, "gon": 3, "nr": 3, "q": [4, 1, 0, 0, 0],
    }


def test_elliptic_codimension_one():
    code, out, _ = invoke(["elliptic", "--max-exp", "6", "--max-codim", "1"])
    assert code == 0
    assert out.splitlines() == [
        "2 3 6", "2 4 4", "2 4 5", "2 4 6", "2 5 5", "2 5 6",
        "3 3 3", "3 3 4", "3 3 5", "3 3 6", "3 4 4", "3 4 5",
    ]


def test_check_passes():
    code, out, _ = invoke(["check", "3", "4", "6"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 11
    assert all(line.startswith("PASS ") for line in lines)
    assert lines[0] == "PASS invariants: ell=12 alpha=2 ghat=6 delta=1"


# ------------------------------------------------------------------- dot / json

def test_graph_dot():
    code, out, _ = invoke(["graph", "3", "4", "6", "--dot"])
    assert code == 0
    assert 'v0 [label="E0 [g=1] (-2)"];' in out
    assert "v0 -- v1;" in out
    code, out, _ = invoke(["graph", "2", "3", "5", "--dot"])
    assert 'v2 [label="E_{2,1,1} (-2)"];' in out
    assert out.count("--") == 7


def test_graph_json_round_trip(e8):
    code, out, _ = invoke(["graph", "2", "3", "5", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert DualGraph.from_json_dict(doc["graph"]) == e8
    assert doc["center"] == {"genus": 0, "self_int": -2}
    assert [f["chain"] for f in doc["families"]] == [[2], [2, 2], [2, 2, 2, 2]]
    assert dual_graph((2, 3, 5)).graph == e8


def test_graph_dot_and_json_exclusive():
    code, _, err = invoke(["graph", "2", "3", "5", "--dot", "--json"])
    assert code == 1
    assert "error:" in err


def test_outputs_are_deterministic():
    for args in [
        ["invariants", "6", "10", "15", "--json"],
        ["elliptic", "--max-exp", "6", "--max-codim", "2"],
        ["check", "2", "2", "3"],
    ]:
        assert invoke(args) == invoke(args)


# ---------------------------------------------------------------- JSON helpers

def test_jsonable_big_integers():
    doc = _jsonable({"small": 2**63 - 1, "big": 2**63, "neg": -(2**63) - 1})
    assert doc["small"] == 2**63 - 1
    assert doc["big"] == str(2**63)
    assert doc["neg"] == str(-(2**63) - 1)
    assert _jsonable(True) is True
    assert _jsonable([1, (2, 3)]) == [1, [2, 3]]


def test_installed_script():
    exe = shutil.which("singlat")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "nr", "3", "4", "6", "--oracle"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout == "nr=2 oracle=2 agree\n"


def test_python_dash_m():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "singlat", "nr", "3", "4", "6", "--oracle"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "nr=2 oracle=2 agree\n"
