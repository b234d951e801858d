"""The package surface: the exported names, the runnable demos and the
README's quick start, and the test settings in ``pyproject.toml``."""

import doctest
import os
import subprocess
import sys
from pathlib import Path

import pytest

import singlat

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

EXPORTS = {
    "BCIInvariants", "ChainFamily", "CheckResult", "ConeData", "ConsistencyError",
    "ConstructionError", "Cycle", "DimensionError", "DomainError", "DualGraph",
    "FLAG_NON_MINIMAL", "FundamentalGenus", "InternalError", "LATTICE_BUDGET",
    "MaximalCycleNumbers", "Monomial", "QCycle", "QuotientTable", "ResourceError",
    "SinglatError", "StarGraph",
    "__version__", "a_invariant_relation", "arithmetic_genus", "br2_exceptions",
    "brr_upper_bound", "canonical_cycle_formula", "canonical_qcycle",
    "central_multiple_cycle", "classify_elliptic", "closure_monomials",
    "cone_report", "cycle_products", "divisor_cycle", "dual_graph",
    "fundamental_cycle", "fundamental_genus", "geometric_genus", "gonality_plane",
    "gonality_upper", "homogeneous_nr", "homogeneous_q", "intersection_number",
    "invariant_report", "is_anti_nef", "is_elliptic", "is_negative_definite",
    "maximal_cycle_numbers", "maximal_ideal_cycle", "monomial_in_closure",
    "normal_reduction_number", "nr_by_oracle", "nr_pg_bound_check",
    "numeric_invariants", "plane_cone", "q_sequence", "qp_consistency",
    "quotient_dimension", "quotient_table", "round_up_strict", "run_tuple_checks",
    "to_dot",
}


def test_exports():
    names = singlat.__all__
    assert len(names) == len(set(names))
    assert set(names) == EXPORTS
    for name in names:
        assert hasattr(singlat, name), name


def test_five_demos():
    assert [p.name for p in DEMOS] == [
        "cone_degrees.py", "e8_and_rationals.py", "elliptic_census.py",
        "figure_pair.py", "oracle_vs_formula.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_quick_start():
    """Every example in the README's library quick start runs as shown."""
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


@pytest.mark.parametrize("stmt", ["import singlat", "from singlat.cli import main"])
def test_import_leaves_out_heavy_modules(stmt):
    """Neither the package nor the command line loads ``dataclasses``,
    ``inspect``, ``json``, ``multiprocessing`` or ``concurrent.futures`` on
    import, and the command line imports ``json`` only when it prints JSON.
    ``-S`` keeps site hooks from loading them first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    code = (
        f"import sys; {stmt}; "
        "heavy = ('dataclasses', 'inspect', 'json', 'multiprocessing', 'concurrent.futures'); "
        "print(' '.join(m for m in heavy if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_property_test_does_not_stop_the_session(tmp_path):
    """Under the project's warning filters, a failing ``@given`` test is
    reported as one failure and the tests after it still run: the
    deprecation warning that importing ``libcst`` raises, when Hypothesis
    loads it to write the failing example's patch, must not become an
    internal error that ends the session."""
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
