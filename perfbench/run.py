"""sliceorch benchmark: one workload in one process, closed loop, one thread.

Run from the repository root:

    python3 perfbench/run.py --workload adaptive --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload adaptive --seed 1 --seconds 32 --trace 1

The workload's scenario files are loaded once, and every cell gets a seed
derived from --seed, so the program only sees the generated scenarios. Cells
run back to back in cycles (every scenario of the workload once per cycle)
for the whole number of cycles closest to --seconds; at least one cycle
always runs. With --trace 0 slot latencies are scaled by a machine-speed
calibration timed between slots, and the last stdout line holds the
end-to-end metrics. With --trace 1 the cycles share --seconds between two
passes over the same cells, the second with per-layer spans installed, and
the last line holds the per-layer metrics. Quality metrics come from the
first cycle. Either way a fuller record goes to perfbench/results/. See
README.md.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"
BLAS_THREADS = 1
SETUP_REPEATS = 3
CALIBRATION_INTERVAL_S = 0.05  # slot time between calibration samples
CALIBRATION_REFERENCE_S = 0.0025  # fixed; scaled times read as if the mean sample took this long
SETUP_SCRIPT = (
    "import sys\n"
    "import sliceorch.harness as h\n"
    "for path in sys.argv[1:]:\n"
    "    h.load_scenario(path)\n"
)

# Layers that must record calls (nonzero) or none (zero) on a workload; a
# wrapper installed where the name is not looked up would count zero.
GP_LAYERS = (
    "gp.optimize_params", "gp.lml", "gp.fit", "gp.predict", "gp.kernel_matrix", "gp.chol",
    "acquisition.portfolio_nominate", "acquisition.hedge",
)


@dataclass(frozen=True)
class Workload:
    algorithm: str
    scenarios: tuple[str, ...]
    slots: int  # horizon of every cell
    warmup: tuple[str, int]  # (scenario, slots) of the untimed first cell
    nonzero: tuple[str, ...]
    zero: tuple[str, ...]


WORKLOADS = {
    "adaptive": Workload(
        "adaslicing",
        ("default.yaml", "noisy.yaml", "sla_change.yaml", "dynamics_leave_rejoin.yaml",
         "scale/slices_5.yaml"),
        30,
        ("default.yaml", 2),
        GP_LAYERS + (
            "agent.suggest", "agent.observe", "agent.recommend",
            "coordinator.orchestrate_slot", "coordinator.spread_capacity",
            "coordinator.clamp_capacity", "coordinator.project_consensus",
            "netenv.step", "vsharing.share_pool",
        ),
        ("baselines.bo_suggest", "baselines.sweep_dataset"),
    ),
    "joint": Workload(
        "gbo",
        ("scale/slices_5.yaml",),
        6,
        ("scale/slices_5.yaml", 1),
        GP_LAYERS + (
            "baselines.bo_suggest", "baselines.bo_observe", "baselines.bo_incumbent",
            "baselines.enumerate_joint_grid", "netenv.step",
        ),
        ("agent.suggest", "coordinator.orchestrate_slot", "vsharing.share_pool",
         "baselines.sweep_dataset"),
    ),
    "oracle": Workload(
        "exsearch",
        tuple(f"scale/slices_{k}.yaml" for k in range(1, 6)),
        30,
        ("scale/slices_3.yaml", 2),
        ("baselines.sweep_dataset", "baselines.exsearch_best",
         "baselines.enumerate_joint_grid", "netenv.step"),
        ("gp.fit", "gp.predict", "agent.suggest", "vsharing.share_pool"),
    ),
}


@dataclass
class Cell:
    scenario: object
    records: list | None = None
    error: str = ""
    wall: float = 0.0
    slot_ms: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


class Calibrator:
    """Times a fixed mix of work that sliceorch never runs, to track machine speed.

    On a shared machine each CPU switches between a fast and a slow state
    (about 1.7x) every fraction of a second to several seconds, and the share
    of time spent slow drifts over minutes, so the same cells can take much
    longer in one run than in the next. The mix has interpreter work, small
    numpy calls, a memory-bound broadcast and a walk over many small Python
    objects, like the program's layers, and slows down with them. A sample
    runs after each slot that ends at least CALIBRATION_INTERVAL_S of slot
    time after the last sample, outside the slot's time. So the samples are
    spread evenly over the timed slots, and their mean is the machine's mean
    speed over them; the median would jump between the two states. The
    interval keeps the sample, which evicts part of the caches, away from
    most of the shortest slots.
    """

    def __init__(self, numpy):
        self.numpy = numpy
        self.a = numpy.linspace(0.0, 1.0, 2000 * 5).reshape(2000, 5)
        self.b = self.a[:30] * 0.5
        self.rows = [(i * 0.5, (i % 7, i % 11)) for i in range(40000)]
        self.samples: list[float] = []
        self.offset = 0

    def sample(self) -> None:
        np = self.numpy
        start = perf_counter()
        acc: dict[int, float] = {}
        for i in range(4000):
            acc[i % 97] = acc.get(i % 97, 0.0) + i * 0.5
        diff = self.a[:, None, :] - self.b[None, :, :]
        np.exp(-np.sqrt(np.einsum("mnd,mnd->mn", diff, diff)))
        x = np.ones(3)
        for _ in range(200):
            x = np.minimum(x * 1.0001, 2.0)
        total = 0
        for value, pair in self.rows[self.offset::4]:
            if value >= pair[0]:
                total += pair[1]
        self.offset = (self.offset + 1) % 4
        self.samples.append(perf_counter() - start)

    @property
    def scale(self) -> float:
        """Factor that maps this run's slot times to the reference machine speed."""
        return CALIBRATION_REFERENCE_S / statistics.fmean(self.samples)


class SlotClock:
    """Timestamps each runner's `_make_record` call: the end of a slot.

    With a calibrator, a calibration sample runs right after a timestamp
    once CALIBRATION_INTERVAL_S of slot time has passed since the last one,
    and the next slot starts when it ends."""

    def __init__(self, harness):
        self.marks: list[float] = []
        self.resumes: list[float] = []
        self.start = 0.0  # of the current cell
        self.since_sample = 0.0  # slot time since the last calibration sample
        self.tracer = None
        self.calibrator = None
        original = harness._make_record

        def stamped(*args, **kwargs):
            now = perf_counter()
            self.since_sample += now - (self.resumes[-1] if self.resumes else self.start)
            self.marks.append(now)
            if self.tracer is not None:
                self.tracer.close_slot(now)
            if self.calibrator is not None and self.since_sample >= CALIBRATION_INTERVAL_S:
                self.calibrator.sample()
                self.since_sample = 0.0
                now = perf_counter()
            self.resumes.append(now)
            return original(*args, **kwargs)

        harness._make_record = stamped


def cell_seed(seed: int, cycle: int, position: int) -> int:
    digest = hashlib.sha256(f"{seed}:{cycle}:{position}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def run_cell(harness, scenario, clock: SlotClock) -> Cell:
    cell = Cell(scenario)
    clock.marks.clear()
    clock.resumes.clear()
    start = clock.start = perf_counter()
    if clock.tracer is not None:
        clock.tracer.open_slot(start)
    try:
        cell.records = harness.run(scenario)
    except Exception as exc:  # a failing cell is counted, not fatal
        cell.error = f"{type(exc).__name__}: {exc}"
    end = perf_counter()
    if clock.tracer is not None:
        clock.tracer.close_cell(end)
    cell.wall = end - start - sum(r - m for m, r in zip(clock.marks, clock.resumes))
    cell.slot_ms = [1e3 * (m - r) for r, m in zip([start, *clock.resumes], clock.marks)]
    return cell


def run_cycles(harness, clock, wl, bases, seed, budget=None, count=None):
    """Run `count` whole cycles, or the whole number of them closest to `budget`."""
    cells, cycles, start = [], 0, perf_counter()
    while True:
        cycle_start = perf_counter()
        for position, base in enumerate(bases):
            scenario = replace(
                base, algorithm=wl.algorithm, slots=wl.slots,
                seed=cell_seed(seed, cycles, position),
            )
            cells.append(run_cell(harness, scenario, clock))
        cycles += 1
        now = perf_counter()
        if count is not None and cycles >= count:
            return cells, cycles
        if count is None and (now - start) + (now - cycle_start) / 2 > budget:
            return cells, cycles


def check_cell(cell: Cell, checks) -> None:
    if cell.records is None:
        cell.problems.append(cell.error)
        return
    cell.problems += checks.check_allocations(cell.scenario, cell.records)
    if cell.scenario.algorithm == "exsearch":
        cell.problems += checks.check_oracle(cell.scenario, cell.records)


def measure_setup(paths) -> list[float]:
    """Seconds for a fresh process to import the harness and load the scenarios."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT, *map(str, paths)],
            env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        times.append(perf_counter() - start)
    return times


def environment(numpy, scipy) -> dict:
    """Interpreter, library and BLAS versions, BLAS threads in effect, CPUs."""
    import ctypes

    info = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_requested": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
    }
    for pkg in (numpy, scipy):
        libs = glob.glob(os.path.join(os.path.dirname(pkg.__file__), os.pardir,
                                      pkg.__name__ + ".libs", "*openblas*"))
        for path in libs:
            lib = ctypes.CDLL(path)
            for prefix in ("scipy_openblas_", "openblas_"):
                for suffix in ("64_", ""):
                    threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                    config = getattr(lib, f"{prefix}get_config{suffix}", None)
                    if threads is None or config is None:
                        continue
                    threads.argtypes, threads.restype = [], ctypes.c_int
                    config.argtypes, config.restype = [], ctypes.c_char_p
                    info[f"{pkg.__name__}_openblas"] = config().decode()
                    info[f"{pkg.__name__}_blas_threads"] = threads()
    return info


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def mean(values):
    return statistics.fmean(values) if values else 0.0  # 0 only when every cell failed


def latency(slot_ms):
    """slots_per_s, p50 and p90 of per-slot latencies in ms."""
    p90 = statistics.quantiles(slot_ms, n=10, method="inclusive")[8] if len(slot_ms) > 1 else 0.0
    return len(slot_ms) / (sum(slot_ms) / 1e3 or math.inf), statistics.median(slot_ms), p90


def end_to_end(harness, checks, cells, refs, setup_times, peak_rss_mb, scale):
    """End-to-end metrics; slot latencies are multiplied by `scale`, and
    quality comes from the cells that have a reference."""
    raw_ms = [ms for c in cells if c.records is not None for ms in c.slot_ms] or [0.0]
    slot_ms = [ms * scale for ms in raw_ms]
    slots_per_s, p50, p90 = latency(slot_ms)
    quality, met, committed = [], 0, 0
    for cell, ref in zip(cells, refs):
        if cell.records is None or ref is None:
            continue
        cost = harness.converged_value([r.total_cost for r in cell.records])
        ref_cost = harness.converged_value([r.total_cost for r in ref])
        quality.append({"scenario": cell.scenario.name, "seed": cell.scenario.seed,
                        "converged_cost": cost, "oracle_ratio": cost / ref_cost})
        m, c = checks.sla_outcomes(cell.scenario, cell.records)
        met, committed = met + m, committed + c
    met_rate = met / committed if committed else 0.0
    oracle_ratio = mean([q["oracle_ratio"] for q in quality])
    metrics = {
        "slots_per_s": metric(slots_per_s, "1/s"),
        "slot_ms_p50": metric(p50, "ms"),
        "slot_ms_p90": metric(p90, "ms"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "converged_cost": metric(mean([q["converged_cost"] for q in quality]), "cost"),
        "oracle_ratio": metric(oracle_ratio, "ratio"),
        "sla_met_rate": metric(met_rate, "ratio"),
    }
    details = {
        "calibration_scale": scale,
        "unscaled": dict(zip(("slots_per_s", "slot_ms_p50", "slot_ms_p90"), latency(raw_ms))),
        "slot_samples": len(slot_ms),
        "slot_samples_beyond_p90": sum(ms > p90 for ms in slot_ms),
        "setup_s_samples": setup_times,
        "oracle_gap": oracle_ratio - 1.0,
        "sla_miss_rate": 1.0 - met_rate,
        "cells": [
            {"scenario": c.scenario.name, "seed": c.scenario.seed, "wall_s": c.wall,
             "slots": len(c.slot_ms)}
            for c in cells
        ],
        "quality_cells": quality,
    }
    return metrics, details


def per_layer(tracer, untraced, traced):
    stats, counts = tracer.stats, tracer.counts
    calls = {name: stat[0] for name, stat in stats.items()}
    untraced_wall = sum(c.wall for c in untraced)
    traced_wall = sum(c.wall for c in traced)
    metrics = {}
    for name, (n_calls, incl, self_s) in stats.items():
        metrics[f"{name}.calls"] = metric(n_calls, "count")
        metrics[f"{name}.s"] = metric(incl, "s")
        metrics[f"{name}.self_s"] = metric(self_s, "s")

    def ratio(num, den):
        return num / den if den else 0.0

    def count(key, unit="count"):
        metrics[key] = metric(counts[key], unit)

    metrics["gp.lml_per_hyperopt"] = metric(
        ratio(calls["gp.lml"], calls["gp.optimize_params"]), "count")
    count("gp.hyperopt_fallbacks")
    count("gp.predict.rows")
    count("gp.kernel_matrix.entries")
    count("gp.kernel_matrix.bytes_computed", "B")
    from sliceorch import gp as gp_module

    retries_per_failure = 1 + round(math.log10(gp_module._JITTER_MAX / gp_module._JITTER_START))
    metrics["gp.chol.jitter_retries"] = metric(
        counts["gp.chol.jitter_retries"] + retries_per_failure * counts["gp.chol.raised"], "count")
    metrics["gp.chol.failures"] = metric(counts["gp.chol.raised"], "count")
    count("acquisition.candidates_scored")
    count("agent.design_fallbacks")
    metrics["agent.nominee_yield"] = metric(ratio(
        counts["agent.bo_suggestions"] - counts["agent.design_fallbacks"],
        counts["agent.bo_suggestions"]), "ratio")
    slots_run = calls["coordinator.orchestrate_slot"]
    count("coordinator.iterations")
    metrics["coordinator.iterations_per_slot"] = metric(
        ratio(counts["coordinator.iterations"], slots_run), "count/slot")
    metrics["coordinator.early_stop_share"] = metric(
        ratio(counts["coordinator.early_stops"], slots_run), "ratio")
    count("coordinator.spread_capacity.overflows")
    metrics["netenv.probes_per_slot"] = metric(
        ratio(counts["netenv.probes"], calls["harness.slot"]), "count/slot")
    count("baselines.archive_fallbacks")
    count("baselines.enumerate_joint_grid.rows")
    count("baselines.exsearch_best.rows_scanned")
    self_sum = sum(stat[2] for n, stat in stats.items() if n != "harness.load_scenario")
    metrics["harness.trace_overhead"] = metric(traced_wall / untraced_wall - 1.0, "ratio")
    metrics["harness.traced_wall_s"] = metric(traced_wall, "s")
    metrics["harness.self_sum_gap"] = metric(self_sum / traced_wall - 1.0, "ratio")
    return metrics


def trace_csv_bytes(harness, cell: Cell, path: Path) -> bytes:
    harness.write_trace_csv(cell.records, [s.slice_id for s in cell.scenario.slices], path)
    try:
        return path.read_bytes()
    finally:
        path.unlink()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sliceorch").is_dir() or not (ROOT / "scenarios").is_dir():
        print(f"error: no sliceorch sources or scenarios under {ROOT}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    wl = WORKLOADS[args.workload]
    paths = [ROOT / "scenarios" / p for p in wl.scenarios]
    setup_times = measure_setup(paths) if args.trace == 0 else []

    import numpy
    import scipy

    import checks
    import spans
    from sliceorch import harness

    clock = SlotClock(harness)
    bases = [harness.load_scenario(p) for p in paths]
    warm_path, warm_slots = wl.warmup
    warm = harness.load_scenario(ROOT / "scenarios" / warm_path)
    run_cell(harness, replace(warm, algorithm=wl.algorithm, slots=warm_slots,
                              seed=cell_seed(args.seed, -1, 0)), clock)

    calibrator = clock.calibrator = None if args.trace else Calibrator(numpy)
    first, cycles = run_cycles(
        harness, clock, wl, bases, args.seed, budget=args.seconds / (1 + args.trace))
    clock.calibrator = None
    passes = [first]
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:  # a second pass over the same cells, traced
        try:
            spans.install(tracer)
            clock.tracer = tracer
            for p in paths:
                harness.load_scenario(p)
            passes.append(run_cycles(harness, clock, wl, bases, args.seed, count=cycles)[0])
        finally:
            clock.tracer = None
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    work = RESULTS / "work"
    work.mkdir(parents=True, exist_ok=True)
    for cells in zip(*passes):
        for c in cells:
            check_cell(c, checks)
        reference = cells[0]
        for n, c in enumerate(cells[1:], start=2):
            reference.problems += [f"pass {n}: {p}" for p in c.problems]
            if not reference.problems and (
                trace_csv_bytes(harness, reference, work / "first.csv")
                != trace_csv_bytes(harness, c, work / "repeat.csv")
            ):
                reference.problems.append(f"trace.csv of pass {n} differs from pass 1")

    problems: list[str] = []
    details: dict = {}
    if tracer is None:
        refs = []
        for cell in first[: len(bases)]:  # the exsearch reference, outside the timed region
            ref = run_cell(harness, replace(cell.scenario, algorithm="exsearch"), clock)
            check_cell(ref, checks)
            cell.problems += [f"exsearch reference: {p}" for p in ref.problems]
            refs.append(ref.records)
        metrics, details = end_to_end(
            harness, checks, first, refs, setup_times, peak_rss_mb, calibrator.scale)
        details["calibration_samples_s"] = calibrator.samples
    else:
        metrics = per_layer(tracer, first, passes[-1])
        for name in wl.nonzero:
            if tracer.stats[name][0] == 0:
                problems.append(f"layer {name} recorded no calls on {args.workload}")
        for name in wl.zero:
            if tracer.stats[name][0] != 0:
                problems.append(f"layer {name} recorded calls on {args.workload}")
        gap = metrics["harness.self_sum_gap"]["value"]
        overhead = metrics["harness.trace_overhead"]["value"]
        if abs(gap) > max(abs(overhead), 0.001):
            problems.append(f"self times sum to traced wall time {gap:+.4f} off")
    attempted = first

    failed = [c for c in attempted if c.problems]
    result = {
        "correct": not failed and not problems,
        "attempted": len(attempted),
        "failed": len(failed),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cycles": cycles,
        "environment": environment(numpy, scipy),
        "problems": problems,
        "cell_problems": {f"{c.scenario.name}@{c.scenario.seed}": c.problems for c in failed},
        "details": details,
        **result,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
