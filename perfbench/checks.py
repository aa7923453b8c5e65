"""Correctness checks the benchmark applies to every committed allocation.

The exhaustive-search oracle is checked independently of its own sweep:
under hard isolation with no noise and no burstiness, a slice granted s svRBs
delivers min(demand, s) * per_vrb_rate Mbps and min(frame_rate, throughput /
frame_size) fps, with demand from `netenv.demand_vrbs`. The cheapest
feasible svRB count of each slice follows from that formula alone, and when
the per-slice minima fit the capacity together they are the joint optimum.
"""

from __future__ import annotations

from dataclasses import replace

from sliceorch.netenv import TrafficProfile, apply_events, demand_vrbs

# Documented hard-isolation optima of bundled scenarios: the scenario file's
# own comment for `default`, and cost 4 per slice on the scale ladder.
DOCUMENTED_OPTIMA = {
    "default": ((4, 4, 4), 12.0),
    **{f"slices_{k}": ((4,) * k, 4.0 * k) for k in range(1, 6)},
}


def specs_per_slot(scenario):
    """The slice specs in force at each slot, events applied."""
    specs = list(scenario.slices)
    for slot in range(scenario.slots):
        specs = apply_events(slot, scenario.events, specs)
        yield specs


def check_allocations(scenario, records) -> list[str]:
    """Every committed allocation respects capacity, min_alive and sw in [0, 1]."""
    problems = []
    if len(records) != scenario.slots:
        problems.append(f"{len(records)} records for {scenario.slots} slots")
    capacity = scenario.env.capacity_h
    min_alive = scenario.algo.min_alive
    for slot, (specs, rec) in enumerate(zip(specs_per_slot(scenario), records)):
        active = {s.slice_id for s in specs if s.active}
        if rec.slot != slot:
            problems.append(f"slot {slot}: record says slot {rec.slot}")
        if set(rec.actions) != active:
            problems.append(f"slot {slot}: allocated {sorted(rec.actions)}, active {sorted(active)}")
        total = sum(a.svrb for a in rec.actions.values())
        if total > capacity:
            problems.append(f"slot {slot}: {total} svRBs over capacity {capacity}")
        for sid, a in rec.actions.items():
            if a.svrb < min_alive:
                problems.append(f"slot {slot}: {sid} has {a.svrb} svRBs, below {min_alive}")
            if not 0.0 <= a.sw <= 1.0:
                problems.append(f"slot {slot}: {sid} has sw {a.sw} outside [0, 1]")
    return problems


def sla_outcomes(scenario, records) -> tuple[int, int]:
    """(met, committed) over (slice, slot) pairs, against the SLA in force."""
    met = committed = 0
    for specs, rec in zip(specs_per_slot(scenario), records):
        by_id = {s.slice_id: s for s in specs}
        for sid, perf in rec.perfs.items():
            committed += 1
            spec = by_id[sid]
            met += perf.throughput >= spec.q_throughput and perf.fps >= spec.q_fps
    return met, committed


def cheapest_svrb(spec, scenario) -> int | None:
    """Fewest svRBs meeting the slice's SLA under clean hard isolation."""
    env = replace(scenario.env, noise_std=0.0, isolation_mode="hard")
    profile = spec.app_profile
    clean = TrafficProfile(profile.frame_rate, profile.frame_size, 0.0)
    demand = demand_vrbs(clean, env, None)  # burstiness 0 draws nothing
    for svrb in range(scenario.algo.min_alive, env.capacity_h + 1):
        throughput = min(demand, svrb) * env.per_vrb_rate
        fps = min(clean.frame_rate, throughput / clean.frame_size)
        if throughput >= spec.q_throughput and fps >= spec.q_fps:
            return svrb
    return None


def check_oracle(scenario, records) -> list[str]:
    """exsearch commits the per-slice closed-form minima in every slot."""
    problems = []
    for slot, (specs, rec) in enumerate(zip(specs_per_slot(scenario), records)):
        active = [s for s in specs if s.active]
        expected = {s.slice_id: cheapest_svrb(s, scenario) for s in active}
        if None in expected.values() or sum(expected.values()) > scenario.env.capacity_h:
            continue  # the closed form does not decide this slot
        got = {sid: a.svrb for sid, a in rec.actions.items()}
        if got != expected or any(a.sw != 0.0 for a in rec.actions.values()):
            problems.append(f"slot {slot}: exsearch committed {got}, closed form {expected}")
    documented = DOCUMENTED_OPTIMA.get(scenario.name)
    if documented is not None and not scenario.events:
        svrbs, cost = documented
        for rec in records:
            got = tuple(rec.actions[s.slice_id].svrb for s in scenario.slices)
            if got != svrbs or rec.total_cost != cost:
                problems.append(
                    f"slot {rec.slot}: exsearch committed {got} at cost {rec.total_cost}, "
                    f"documented {svrbs} at cost {cost}"
                )
                break
    return problems
