"""Adaptability runs: slice departure/rejoin and SLA changes.

Produces per-slot traces so cost and allocation can be plotted around the
scripted events.
"""

import argparse
from dataclasses import replace
from pathlib import Path

from sliceorch.harness import load_scenario, run, write_trace_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "scenarios", nargs="*",
        default=["scenarios/dynamics_leave_rejoin.yaml", "scenarios/sla_change.yaml"],
        help="scenario YAML files",
    )
    parser.add_argument("--out", default="results/adaptability", help="output directory")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args()

    out = Path(args.out)
    for path in args.scenarios:
        base = load_scenario(path)
        slice_ids = [s.slice_id for s in base.slices]
        for seed in args.seeds:
            records = run(replace(base, seed=seed))
            write_trace_csv(records, slice_ids, out / f"{base.name}-seed{seed}.csv")
            print(f"{base.name} seed={seed}: final cost {records[-1].total_cost:.3f} "
                  f"over {len(records)} slots")
    print(f"traces in {out}")


if __name__ == "__main__":
    main()
