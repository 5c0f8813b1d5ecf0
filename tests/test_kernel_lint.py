"""Structural lint: one aggregation kernel, no scatter-add in allgather.

GNN aggregation goes through :class:`repro.gnn.functional.SegmentSum`;
``np.add.reduceat`` (the per-segment reduction it replaced) must not
come back anywhere in the package.  ``CompiledAllgather.backward``
seeds its buffers with a plain row assignment because the final
layout's rows are distinct, so ``np.add.at`` has no place in
``comm/allgather.py``.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def test_no_reduceat_in_package():
    hits = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if "reduceat" in path.read_text()
    ]
    assert hits == [], f"use repro.gnn.functional.SegmentSum: {hits}"


def test_no_scatter_add_in_allgather():
    assert "np.add.at" not in (SRC / "comm" / "allgather.py").read_text()
