"""Per-layer spans for the sliceorch benchmark, installed from outside.

The program is not edited: each public function of a layer is replaced by a
wrapper that reads the clock and counts. A module that from-imports a
function holds its own reference to it, so a wrapper is installed on every
module of the package that binds the original object, not only on the module
that defines it. Wrappers consume no random draws, so a traced run commits the
same allocations as an untraced one.

Spans nest on a stack whose bottom frame is the current slot. A span's self
time is its duration minus the time of the spans it called; summed over all
spans and the slot frames, self times add up to the traced wall time.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from time import perf_counter


PACKAGE = "sliceorch"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Calls, inclusive seconds, self seconds and counters per span name."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, incl s, self s
        self.stats["harness.slot"], self.stats["harness.cell_exit"]  # report even if idle
        self.counts = defaultdict(float)
        self._stack = [0.0]  # child time per open frame; [0] is the slot
        self._slot_start = 0.0
        self._patches = []

    # -- slot frame, driven by harness._make_record ----------------------------

    def open_slot(self, now: float) -> None:
        del self._stack[1:]
        self._stack[0] = 0.0
        self._slot_start = now

    def close_slot(self, now: float) -> None:
        self._add("harness.slot", now - self._slot_start, self._stack[0])
        self.open_slot(now)

    def close_cell(self, now: float) -> None:
        """The runner's return after its last record: frees per-run state."""
        self._add("harness.cell_exit", now - self._slot_start, self._stack[0])
        self.open_slot(now)

    def _add(self, name: str, dur: float, child: float) -> None:
        stat = self.stats[name]
        stat[0] += 1
        stat[1] += dur
        stat[2] += dur - child

    # -- wrappers ---------------------------------------------------------------

    def span(self, name, fn, pre=None, post=None):
        """Wrap fn in a span; pre/post hooks update counters outside its time."""
        stack, counts, stat = self._stack, self.counts, self.stats[name]

        def wrapper(*args, **kwargs):
            state = pre(args, kwargs) if pre is not None else None
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[name + ".raised"] += 1
                raise
            finally:
                dur = perf_counter() - start
                child = stack.pop()
                stack[-1] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - child
            if post is not None:
                post(counts, args, kwargs, result, state)
            return result

        return wrapper

    def counter(self, name, fn):
        """Wrap fn so its calls are counted without a span."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------------

    def patch_everywhere(self, original, wrapper) -> None:
        """Rebind every module-level name in the package that holds `original`."""
        bound = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
                    bound += 1
        if bound == 0:
            raise RuntimeError(f"{original!r} is bound nowhere in {PACKAGE}")

    def patch_method(self, cls, attr: str, wrapper) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def restore(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer of the package."""
    from sliceorch import acquisition, agent, baselines, coordinator, gp, harness, netenv, vsharing

    def fn(name, module, attr, pre=None, post=None):
        original = getattr(module, attr)
        tracer.patch_everywhere(original, tracer.span(name, original, pre, post))

    def method(name, cls, attr, pre=None, post=None):
        tracer.patch_method(cls, attr, tracer.span(name, cls.__dict__[attr], pre, post))

    def add(counts, key, value=1):
        counts[key] += value

    # gp
    def hyperopt_post(counts, args, kwargs, result, _):
        init = _arg(args, kwargs, 2, "init")
        noise_var = _arg(args, kwargs, 3, "noise_var")
        if result[0] == init and result[1] == noise_var:
            add(counts, "gp.hyperopt_fallbacks")

    def predict_post(counts, args, kwargs, result, _):
        add(counts, "gp.predict.rows", len(result[0]))

    def kernel_post(counts, args, kwargs, result, _):
        m, n = result.shape
        d = len(_arg(args, kwargs, 2, "params").length_scales)
        add(counts, "gp.kernel_matrix.entries", m * n)
        add(counts, "gp.kernel_matrix.bytes_computed", m * n * d * 8)

    def chol_post(counts, args, kwargs, result, _):
        jitter = result[1]
        if jitter > 0.0:
            add(counts, "gp.chol.jitter_retries", 1 + round(math.log10(jitter / gp._JITTER_START)))

    fn("gp.optimize_params", gp, "optimize_params", post=hyperopt_post)
    fn("gp.lml", gp, "log_marginal_likelihood")
    fn("gp.fit", gp, "fit")
    method("gp.predict", gp.GpModel, "predict", post=predict_post)
    fn("gp.kernel_matrix", gp, "kernel_matrix", post=kernel_post)
    fn("gp.chol", gp, "_chol_with_jitter", post=chol_post)

    # acquisition
    def nominate_post(counts, args, kwargs, result, _):
        add(counts, "acquisition.candidates_scored", len(_arg(args, kwargs, 0, "mu")))

    fn("acquisition.portfolio_nominate", acquisition, "portfolio_nominate", post=nominate_post)
    fn("acquisition.hedge", acquisition, "hedge_select")
    fn("acquisition.hedge", acquisition, "hedge_update")

    # agent and grid optimizer: a suggestion made after warm-up is a BO
    # suggestion; it fell back to the design when the design cursor moved.
    def cursor_pre(args, kwargs):
        bo = args[0]
        return bo.gp is not None and len(bo.buffer) >= bo.n_init, bo._design_cursor

    def cursor_post(prefix, fallback_key):
        def post(counts, args, kwargs, result, state):
            warm, cursor = state
            if warm:
                add(counts, prefix + ".bo_suggestions")
                if args[0]._design_cursor != cursor:
                    add(counts, fallback_key)

        return post

    method("agent.suggest", agent.SliceAgent, "suggest",
           pre=cursor_pre, post=cursor_post("agent", "agent.design_fallbacks"))
    method("agent.observe", agent.SliceAgent, "observe")
    method("agent.recommend", agent.SliceAgent, "recommend")

    # coordinator
    def slot_post(counts, args, kwargs, result, _):
        state = _arg(args, kwargs, 3, "state")
        add(counts, "coordinator.iterations", result.iterations)
        if result.iterations < state.max_iters:
            add(counts, "coordinator.early_stops")

    def spread_post(counts, args, kwargs, result, _):
        svrbs, order, capacity = args[0], args[1], args[2]
        if sum(svrbs[sid] for sid in order) > capacity:
            add(counts, "coordinator.spread_capacity.overflows")

    fn("coordinator.orchestrate_slot", coordinator, "orchestrate_slot", post=slot_post)
    fn("coordinator.spread_capacity", coordinator, "spread_capacity", post=spread_post)
    fn("coordinator.clamp_capacity", coordinator, "clamp_capacity")
    fn("coordinator.project_consensus", coordinator, "project_consensus")

    # netenv / vsharing
    fn("netenv.step", netenv, "step")
    tracer.patch_method(
        netenv.RanEnvironment, "step",
        tracer.counter("netenv.probes", netenv.RanEnvironment.__dict__["step"]),
    )
    fn("vsharing.share_pool", vsharing, "share_pool")

    # baselines
    def grid_rows_post(counts, args, kwargs, result, _):
        add(counts, "baselines.enumerate_joint_grid.rows", len(result))

    def scan_post(counts, args, kwargs, result, _):
        add(counts, "baselines.exsearch_best.rows_scanned", len(_arg(args, kwargs, 0, "dataset")))

    method("baselines.bo_suggest", baselines.GridPortfolioBo, "suggest",
           pre=cursor_pre, post=cursor_post("baselines", "baselines.archive_fallbacks"))
    method("baselines.bo_observe", baselines.GridPortfolioBo, "observe")
    method("baselines.bo_incumbent", baselines.GridPortfolioBo, "incumbent")
    fn("baselines.enumerate_joint_grid", baselines, "enumerate_joint_grid", post=grid_rows_post)
    fn("baselines.sweep_dataset", baselines, "sweep_dataset")
    fn("baselines.exsearch_best", baselines, "exsearch_best", post=scan_post)

    # harness; the slot frame itself is driven by the benchmark's slot clock
    fn("harness.load_scenario", harness, "load_scenario")
