"""Layer-by-layer host-wall benchmark of the DGCL reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload fullgraph-train --seed 0 \\
        --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
same steps untraced and then traced, prints a self-time table and every
per-layer metric, and writes the spans to
``.perfbench-out/spans-<workload>-<seed>.jsonl``.  The last line of
standard output is always one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One process, one BLAS thread: the run never uses more threads than
# the machine has cores.  Must be set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fullgraph-train", "cold-evaluate",
                                 "minibatch-train"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def self_time_table(metrics: dict) -> str:
    """Per-layer self seconds per step, largest first, with shares."""
    rows = sorted(((v, k) for k, v in metrics.items()
                   if k.endswith(".s") and v > 0), reverse=True)
    lines = [f"{'self s/step':>12s}  entry point"]
    lines += [f"{v:12.6f}  {k[:-2]}" for v, k in rows]
    lines.append("")
    lines.append(f"{'share %':>12s}  layer")
    shares = sorted(((v, k) for k, v in metrics.items()
                     if k.startswith("share.") and v > 0), reverse=True)
    lines += [f"{v:12.2f}  {k[len('share.'):]}" for v, k in shares]
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import END_TO_END, PER_LAYER, WORKLOADS, Scratch

    with Scratch(OUT) as scratch:
        outcome = WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), scratch)
    if args.trace:
        units, values = PER_LAYER, outcome.per_layer
        print(self_time_table(values))
        spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        outcome.recorder.write(spans)
        print(f"spans: {spans.relative_to(ROOT)}")
    else:
        units, values = END_TO_END, outcome.end_to_end
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
