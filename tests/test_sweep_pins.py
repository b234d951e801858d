"""Every pinned output of the benchmark's acceptance sweep, in tier-1.

``perfbench/workloads.py`` is imported read-only: its ``SweepOp`` runs each
of the 4290 tuples of ``perfbench/pins/sweep.json`` in this one process,
its independent routes must agree, and the digest of its output must equal
the pin.  A benchmark pass checks only one class of them.
"""

import json
from pathlib import Path

from singlat import brieskorn, graph_lattice, ideal_oracle

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_sweep_output_matches_its_pin(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    pins = json.loads((PERFBENCH / "pins" / "sweep.json").read_text())
    op = workloads.SweepOp(
        {"brieskorn": brieskorn, "graph_lattice": graph_lattice, "ideal_oracle": ideal_oracle}
    )
    seen, bad = 0, {}
    for group in pins["groups"].values():
        for key, (pin, _cost) in group.items():
            seen += 1
            r = op.call(key)
            problems = op.check(key, r)
            got = workloads.digest(op.output(r))
            if problems or got != pin:
                bad[key] = (problems, got, pin)
    assert seen == 4290
    assert not bad, dict(list(bad.items())[:5])
