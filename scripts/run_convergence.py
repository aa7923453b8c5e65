"""Convergence comparison on one scenario: all four algorithms, several seeds.

Writes one trace per (algorithm, seed) plus a summary CSV of converged cost,
converged normalized performance, and slots to convergence.
"""

import argparse
from dataclasses import replace
from pathlib import Path

from sliceorch.harness import (
    ALGORITHMS,
    load_scenario,
    run,
    summarize,
    write_matrix_csv,
    write_trace_csv,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("scenario", help="scenario YAML file")
    parser.add_argument("--out", default="results/convergence", help="output directory")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    args = parser.parse_args()

    base = load_scenario(args.scenario)
    out = Path(args.out)
    slice_ids = [s.slice_id for s in base.slices]

    rows = []
    for seed in args.seeds:
        for algo in ALGORITHMS:
            cell = replace(base, seed=seed, algorithm=algo)
            records = run(cell)
            write_trace_csv(records, slice_ids, out / f"{algo}-seed{seed}.csv")
            rows.append(summarize(cell, records))
    write_matrix_csv(rows, out / "summary.csv")
    print(f"wrote {len(rows)} summary rows to {out / 'summary.csv'}")


if __name__ == "__main__":
    main()
