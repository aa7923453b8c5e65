"""Paired benchmark runs of two checkouts, summarized into one BENCH_<label>.json.

Runs `perfbench/run.py --trace 0` unchanged, in each checkout's own tree, for
the given workloads and seeds, at BENCHMARK.json's run_seconds. Every seed is
a pair: the --base checkout and this one run the same workload and seed back
to back, and the side that goes first alternates from pair to pair. Run from
the repository root:

    python3 scripts/bench.py --label mylabel --base ../parent joint:1-10 adaptive:1-3 oracle:1-3

The output holds every run's end-to-end metrics, each side's median and
quartiles per metric, how many pairs this checkout won per metric (by the
direction BENCHMARK.json gives), the Python, numpy and scipy versions, the
CPU count and each side's line count of src/sliceorch. After its pairs, each
workload also runs once per side with `--trace 1`, at its first seed; from
that run the output keeps whether it read correct and the TOP_LAYERS layers
with the most self time. Runs are sequential, one process at a time, so they
never compete for the CPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")
TOP_LAYERS = 10


def parse_spec(text: str) -> tuple[str, list[int]]:
    """`workload:first-last` (or `workload:seed`) to the workload and its seeds."""
    workload, _, seeds = text.partition(":")
    first, _, last = seeds.partition("-")
    try:
        lo, hi = int(first), int(last or first)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected workload:first-last, got {text!r}") from None
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range in {text!r}")
    return workload, list(range(lo, hi + 1))


def source_lines(tree: Path) -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((tree / "src" / "sliceorch").glob("*.py"))
    )


def revision(tree: Path) -> str | None:
    out = subprocess.run(
        ["git", "-C", str(tree), "describe", "--always", "--dirty"],
        capture_output=True, text=True, check=False,
    )
    return out.stdout.strip() or None


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One `perfbench/run.py` process's result line, metrics by name."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def top_layers(metrics: dict[str, float], count: int = TOP_LAYERS) -> list[dict]:
    """The `count` layers of a traced run with the most self time, most first.

    A layer is a name with `.calls`, `.s` and `.self_s` metrics; equal self
    times go in name order.
    """
    layers = [name[: -len(".self_s")] for name in metrics if name.endswith(".self_s")]
    layers.sort(key=lambda layer: (-metrics[f"{layer}.self_s"], layer))
    return [
        {"layer": layer, "self_s": metrics[f"{layer}.self_s"], "s": metrics[f"{layer}.s"],
         "calls": metrics[f"{layer}.calls"]}
        for layer in layers[:count]
    ]


def spread(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: dict) -> dict:
    summary = {}
    for side in SIDES:
        summary[side] = {
            name: {**spread([r[side]["metrics"][name] for r in runs]), "unit": unit}
            for name, (unit, _) in metrics.items()
        }
    wins = {}
    for name, (_, better) in metrics.items():
        sign = 1.0 if better == "higher" else -1.0
        deltas = [sign * (r["head"]["metrics"][name] - r["base"]["metrics"][name]) for r in runs]
        wins[name] = {"head": sum(d > 0 for d in deltas), "base": sum(d < 0 for d in deltas),
                      "tie": sum(d == 0 for d in deltas)}
    summary["pairs_won"] = wins
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="+", type=parse_spec, metavar="WORKLOAD:SEEDS",
                        help="workload and seed range, e.g. joint:1-10")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = declared["run_seconds"]
    metrics = {m["name"]: (m["unit"], m["better"]) for m in declared["end_to_end"]}
    trees = {"base": args.base.resolve(), "head": ROOT}
    if not (trees["base"] / "perfbench" / "run.py").is_file():
        parser.error(f"no perfbench/run.py under {trees['base']}")

    import numpy
    import scipy

    record = {
        "label": args.label,
        "seconds": seconds,
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
        },
        "sides": {
            side: {"revision": revision(tree), "src_lines": source_lines(tree)}
            for side, tree in trees.items()
        },
        "workloads": {},
    }
    pair = 0
    for workload, seeds in args.runs:
        runs = []
        for seed in seeds:
            order = SIDES if pair % 2 == 0 else SIDES[::-1]  # base first on even pairs
            pair += 1
            run = {"seed": seed, "order": order}
            for side in order:
                run[side] = run_once(trees[side], workload, seed, seconds)
                print(f"{workload} seed {seed} {side}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in run[side]["metrics"].items()),
                      file=sys.stderr, flush=True)
            runs.append(run)
        traced = {}
        for side in SIDES:
            result = run_once(trees[side], workload, seeds[0], seconds, trace=1)
            traced[side] = {"seed": seeds[0], "correct": result["correct"],
                            "top_self_s": top_layers(result["metrics"])}
            print(f"{workload} seed {seeds[0]} {side} traced: correct={result['correct']}",
                  file=sys.stderr, flush=True)
        record["workloads"][workload] = {
            "seeds": seeds, "summary": summarize(runs, metrics), "runs": runs, "traced": traced,
        }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
