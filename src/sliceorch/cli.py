"""Command-line entry point.

Subcommands:

  run <scenario.yaml> --out DIR     execute one scenario, write trace.csv + manifest.json
  matrix <scenario.yaml ...> --out DIR [--seed S [S ...]]
                                    cross scenarios x seeds with all algorithms, write
                                    matrix.csv and one trace per cell under traces/
  oracle <scenario.yaml> --out FILE write the exhaustive-search dataset as CSV
  validate <scenario.yaml>          check a scenario file and the size of the grids
                                    its algorithm builds, and exit

All subcommands exit 0 on success. On failure the last line printed to stderr
is machine parsable: `ERROR <kind>: <message>`.

Unless OPENBLAS_NUM_THREADS is set, the bundled OpenBLAS libraries run on one
thread: the trace digests were recorded, and perfbench measures, on one BLAS
thread.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

from . import blas
from .errors import SliceOrchError
from .harness import (
    ALGORITHMS,
    check_grid_cap,
    dump_oracle,
    load_scenario,
    run,
    run_matrix,
    write_manifest,
    write_matrix_csv,
    write_oracle_csv,
    write_trace_csv,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sliceorch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario")
    p_run.add_argument("scenario", help="scenario YAML file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p_run.add_argument("--slots", type=int, default=None, help="override slot count")
    p_run.add_argument("--algo", choices=ALGORITHMS, default=None, help="override algorithm")

    p_matrix = sub.add_parser("matrix", help="cross scenarios and seeds with all algorithms")
    p_matrix.add_argument("scenarios", nargs="+", help="scenario YAML files")
    p_matrix.add_argument("--out", required=True, help="output directory")
    p_matrix.add_argument(
        "--algo", choices=ALGORITHMS, default=None,
        help="restrict the sweep to a single algorithm",
    )
    p_matrix.add_argument(
        "--seed", type=int, nargs="+", default=None,
        help="run every scenario once per seed, in place of the file's seed",
    )

    p_oracle = sub.add_parser("oracle", help="write the exhaustive-search dataset")
    p_oracle.add_argument("scenario", help="scenario YAML file")
    p_oracle.add_argument("--out", required=True, help="output CSV file")

    p_validate = sub.add_parser("validate", help="check a scenario file")
    p_validate.add_argument("scenario", help="scenario YAML file")

    return parser


def _apply_overrides(scenario, args):
    if getattr(args, "seed", None) is not None:
        scenario = replace(scenario, seed=args.seed)
    if getattr(args, "slots", None) is not None:
        scenario = replace(scenario, slots=args.slots)
    if getattr(args, "algo", None) is not None:
        scenario = replace(scenario, algorithm=args.algo)
    return scenario


def _cmd_run(args) -> int:
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    start = perf_counter()
    records = run(scenario)
    wall_s = perf_counter() - start
    out = Path(args.out)
    slice_ids = [s.slice_id for s in scenario.slices]
    write_trace_csv(records, slice_ids, out / "trace.csv")
    write_manifest(scenario, out / "manifest.json", wall_s)
    last = records[-1]
    print(
        f"{scenario.name}: {scenario.algorithm} seed={scenario.seed} "
        f"slots={scenario.slots} final_cost={last.total_cost:.4f} "
        f"final_norm_perf={last.mean_norm_perf:.4f}"
    )
    print(f"wrote {out / 'trace.csv'} and {out / 'manifest.json'}")
    return 0


def _cmd_matrix(args) -> int:
    scenarios = [load_scenario(path) for path in args.scenarios]
    if args.seed is not None:
        scenarios = [replace(s, seed=seed) for s in scenarios for seed in args.seed]
    algorithms = [args.algo] if args.algo else None
    out = Path(args.out)
    rows = run_matrix(scenarios, algorithms, traces=out / "traces")
    write_matrix_csv(rows, out / "matrix.csv")
    n_err = sum(1 for r in rows if r.status != "ok")
    print(
        f"matrix: {len(rows)} cells, {n_err} errors;"
        f" wrote {out / 'matrix.csv'} and traces in {out / 'traces'}"
    )
    return 0


def _cmd_oracle(args) -> int:
    scenario = load_scenario(args.scenario)
    entries = dump_oracle(scenario)
    slice_ids = [s.slice_id for s in scenario.slices if s.active]
    write_oracle_csv(entries, slice_ids, args.out)
    print(f"oracle: {len(entries)} rows; wrote {args.out}")
    return 0


def _cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    check_grid_cap(scenario)
    print(f"{args.scenario}: ok ({scenario.name}, {len(scenario.slices)} slices)")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "matrix": _cmd_matrix,
    "oracle": _cmd_oracle,
    "validate": _cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if not os.environ.get("OPENBLAS_NUM_THREADS"):
        blas.set_threads(1)
    try:
        return _COMMANDS[args.command](args)
    except SliceOrchError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
