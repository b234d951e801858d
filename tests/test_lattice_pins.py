"""Every pinned output of the benchmark's lattice workload, in tier-1.

``perfbench/workloads.py`` is imported read-only: its ``LatticeOp`` runs
each of the 800 tuples of ``perfbench/pins/lattice.json`` in this one
process (p_g, nr against the quotient-table oracle, the closure of m^2),
its check must pass, and the digest of its output must equal the pin.  A
benchmark pass checks only a sample of them.
"""

import json
from pathlib import Path

from singlat import brieskorn, graph_lattice, ideal_oracle

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_lattice_output_matches_its_pin(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    pins = json.loads((PERFBENCH / "pins" / "lattice.json").read_text())
    op = workloads.LatticeOp(
        {"brieskorn": brieskorn, "graph_lattice": graph_lattice, "ideal_oracle": ideal_oracle}
    )
    seen, bad = 0, {}
    for group in pins["groups"].values():
        for key, (pin, *_cost) in group.items():
            seen += 1
            r = op.call(key)
            problems = op.check(key, r)
            got = workloads.digest(op.output(r))
            if problems or got != pin:
                bad[key] = (problems, got, pin)
    assert seen == 800
    assert not bad, dict(list(bad.items())[:5])
