"""Which functions of the ORP pipeline are traced, and the per-layer metrics.

Spans wrap the public entry points of each layer, from outside the
program: the construction and annealing functions that
``repro.core.solver`` and ``repro.core.annealing`` import, the
incremental evaluator's ``__init__``/``propose``/``commit``/``rollback``,
``HostSwitchGraph.is_switch_graph_connected`` and ``copy``, the move
methods, ``MPIWorld``, ``BaseNetworkModel.route_links`` and
``FluidScheduler.start_flow``.  Every callback the simulation kernel
dispatches is timed by wrapping ``Kernel.call_later``/``call_at`` and is
named after the callback's owner.

All ``*_s`` layer figures are self time, so over one traced operation
they add up to its wall time.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable
from typing import Any

from perfbench.stats import latency_summary
from perfbench.tracer import SPAN_ATTR, Tracer, self_times

#: Root span of each kind of timed operation.
SOLVE_ROOT = "solver.solve_orp"
SIM_ROOT = "apps.run_nas"

#: ``(name, unit, better)`` of every per-layer metric, in report order.
LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("construct.random_s", "s", "lower"),
    ("construct.regular_s", "s", "lower"),
    ("hostswitch.connected_s", "s", "lower"),
    ("hostswitch.connected_calls", "count", "lower"),
    ("hostswitch.copy_s", "s", "lower"),
    ("incremental.init_s", "s", "lower"),
    ("incremental.propose_s", "s", "lower"),
    ("incremental.propose_calls", "count", "lower"),
    ("incremental.propose_p50_us", "us", "lower"),
    ("incremental.propose_tail_us", "us", "lower"),
    ("incremental.propose_tail_pct", "%", "higher"),
    ("incremental.commit_rollback_s", "s", "lower"),
    ("incremental.fallback_ratio", "ratio", "lower"),
    ("incremental.repaired_rows_per_propose", "count", "lower"),
    ("kernels.bfs_s", "s", "lower"),
    ("kernels.bfs_rows", "count", "lower"),
    ("operations.moves_s", "s", "lower"),
    ("annealing.self_s", "s", "lower"),
    ("annealing.accept_ratio", "ratio", "higher"),
    ("metrics.final_s", "s", "lower"),
    ("solver.unattributed_s", "s", "lower"),
    ("mpi.world_init_s", "s", "lower"),
    ("network.route_s", "s", "lower"),
    ("network.route_calls", "count", "lower"),
    ("fluid.arrival_refill_s", "s", "lower"),
    ("fluid.arrival_calls", "count", "lower"),
    ("fluid.timer_s", "s", "lower"),
    ("fluid.timer_calls", "count", "lower"),
    ("fluid.stale_timer_ratio", "ratio", "lower"),
    ("fluid.refill_p50_us", "us", "lower"),
    ("fluid.refill_tail_us", "us", "lower"),
    ("fluid.refill_tail_pct", "%", "higher"),
    ("fluid.refill_samples", "count", "higher"),
    ("fluid.active_flows_mean", "count", "lower"),
    ("engine.events_fired", "count", "lower"),
    ("engine.process_s", "s", "lower"),
    ("engine.unattributed_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_ratio", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
)

#: Span name per kernel-dispatched callback, keyed by (owner class, method).
_CALLBACK_SPANS = {
    ("FluidScheduler", "_on_timer"): "fluid.timer",
    ("Process", "_step"): "engine.process",
}
_OTHER_CALLBACK = "engine.callback"


class SimProbe:
    """Fluid-model observations gathered alongside the spans of one run."""

    def __init__(self) -> None:
        self.active_at_arrival: list[int] = []
        self.stale_timers: set[int] = set()
        self.scheduled = 0
        self.worlds: list[Any] = []


def install_solve(tracer: Tracer) -> None:
    """Wrap the annealing pipeline's layer entry points."""
    from repro.core import annealing, solver
    from repro.core.hostswitch import HostSwitchGraph
    from repro.core.incremental import IncrementalEvaluator
    from repro.core.operations import SwapMove, SwingMove

    tracer.patch_span(solver, "random_host_switch_graph", "construct.random")
    tracer.patch_span(solver, "random_regular_host_switch_graph", "construct.regular")
    tracer.patch_span(solver, "anneal", "annealing.anneal")
    tracer.patch_span(solver, "h_aspl_and_diameter", "metrics.final")
    tracer.patch_span(annealing, "h_aspl_and_diameter", "metrics.final")
    tracer.patch_span(annealing, "propose_swap", "operations.moves")
    tracer.patch_span(annealing, "propose_swing", "operations.moves")
    tracer.patch_span(IncrementalEvaluator, "__init__", "incremental.init")
    tracer.patch_span(IncrementalEvaluator, "propose", "incremental.propose")
    tracer.patch_span(IncrementalEvaluator, "commit", "incremental.commit_rollback")
    tracer.patch_span(IncrementalEvaluator, "rollback", "incremental.commit_rollback")
    tracer.patch_span(HostSwitchGraph, "is_switch_graph_connected", "hostswitch.connected")
    tracer.patch_span(HostSwitchGraph, "copy", "hostswitch.copy")
    for move in (SwapMove, SwingMove):
        for method in ("is_legal", "apply", "undo"):
            tracer.patch_span(move, method, "operations.moves")


def install_sim(tracer: Tracer, probe: SimProbe) -> None:
    """Wrap the MPI, routing, fluid and kernel-dispatch entry points."""
    from repro.simulation.engine import Kernel
    from repro.simulation.fluid import FluidScheduler
    from repro.simulation.mpi import MPIWorld
    from repro.simulation.network import BaseNetworkModel

    world_init = MPIWorld.__init__

    def traced_world_init(world, *args, **kwargs):
        idx = tracer.begin("mpi.world_init")
        try:
            world_init(world, *args, **kwargs)
        finally:
            tracer.finish(idx)
        probe.worlds.append(world)

    tracer.patch(MPIWorld, "__init__", traced_world_init)
    tracer.patch_span(BaseNetworkModel, "route_links", "network.route")

    start_flow = FluidScheduler.start_flow

    def traced_start_flow(scheduler, *args, **kwargs):
        idx = tracer.begin("fluid.arrival")
        try:
            start_flow(scheduler, *args, **kwargs)
        finally:
            tracer.finish(idx)
        probe.active_at_arrival.append(scheduler.num_active)

    setattr(traced_start_flow, SPAN_ATTR, "fluid.arrival")
    tracer.patch(FluidScheduler, "start_flow", traced_start_flow)

    def dispatched(fn: Callable) -> Callable:
        if hasattr(getattr(fn, "__func__", fn), SPAN_ATTR):
            return fn  # already records its own span
        owner = getattr(fn, "__self__", None)
        key = (type(owner).__name__, getattr(fn, "__name__", ""))
        name = _CALLBACK_SPANS.get(key, _OTHER_CALLBACK)
        if name != "fluid.timer":
            return tracer.wrap(fn, name)

        def timer(*args):
            # A timer that neither completes a flow nor schedules anything
            # found its rates already recomputed: it was stale.
            completed, scheduled = owner.completed_flows, probe.scheduled
            idx = tracer.begin(name)
            try:
                return fn(*args)
            finally:
                tracer.finish(idx)
                if owner.completed_flows == completed and probe.scheduled == scheduled:
                    probe.stale_timers.add(idx)

        return timer

    call_later, call_at = Kernel.call_later, Kernel.call_at

    def traced_call_later(kernel, delay, fn, *args):
        probe.scheduled += 1
        return call_later(kernel, delay, dispatched(fn), *args)

    def traced_call_at(kernel, when, fn, *args):
        probe.scheduled += 1
        return call_at(kernel, when, dispatched(fn), *args)

    tracer.patch(Kernel, "call_later", traced_call_later)
    tracer.patch(Kernel, "call_at", traced_call_at)


def _span_totals(tracer: Tracer, lo: int, hi: int):
    """Self time and call count per span name over spans ``lo .. hi-1``."""
    spans = tracer.span_range(lo, hi)
    parents = [s[1] for s in spans]
    starts = [s[2] for s in spans]
    ends = [s[3] for s in spans]
    selfs = self_times(parents, starts, ends, offset=lo)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for (name, *_), own in zip(spans, selfs):
        self_s[name] += own
        calls[name] += 1
    return spans, self_s, calls


def rep_metrics(
    tracer: Tracer,
    lo: int,
    hi: int,
    *,
    traced_wall: float,
    untraced_wall: float,
    telemetry: dict[str, Any] | None = None,
    accept_ratio: float = 0.0,
    probe: SimProbe | None = None,
) -> dict[str, float]:
    """Per-layer metrics of one traced operation (spans ``lo .. hi-1``).

    ``telemetry`` is the program's own registry snapshot (kernel BFS and
    evaluator counters); ``probe`` carries the fluid observations of a
    simulation.  Layers the operation never entered report 0.
    """
    spans, self_s, calls = _span_totals(tracer, lo, hi)
    out = {name: 0.0 for name, _, _ in LAYER_METRICS}

    propose = [end - start for name, _, start, end in spans if name == "incremental.propose"]
    summary = latency_summary(propose)
    counters = (telemetry or {}).get("counters", {})
    timers = (telemetry or {}).get("timers", {})

    def counter(name: str) -> float:
        return float(counters.get(name, {}).get("value", 0))

    proposals = counter("evaluator.proposals")
    out.update(
        {
            "construct.random_s": self_s["construct.random"],
            "construct.regular_s": self_s["construct.regular"],
            "hostswitch.connected_s": self_s["hostswitch.connected"],
            "hostswitch.connected_calls": float(calls["hostswitch.connected"]),
            "hostswitch.copy_s": self_s["hostswitch.copy"],
            "incremental.init_s": self_s["incremental.init"],
            "incremental.propose_s": self_s["incremental.propose"],
            "incremental.propose_calls": float(calls["incremental.propose"]),
            "incremental.propose_p50_us": summary["p50_us"],
            "incremental.propose_tail_us": summary["tail_us"],
            "incremental.propose_tail_pct": summary["tail_pct"],
            "incremental.commit_rollback_s": self_s["incremental.commit_rollback"],
            "incremental.fallback_ratio": (
                counter("evaluator.fallbacks") / proposals if proposals else 0.0
            ),
            "incremental.repaired_rows_per_propose": (
                counter("evaluator.repaired_rows") / proposals if proposals else 0.0
            ),
            "kernels.bfs_s": float(timers.get("kernel.bfs_s", {}).get("total_s", 0.0)),
            "kernels.bfs_rows": counter("kernel.bfs_rows"),
            "operations.moves_s": self_s["operations.moves"],
            "annealing.self_s": self_s["annealing.anneal"],
            "annealing.accept_ratio": accept_ratio,
            "metrics.final_s": self_s["metrics.final"],
            "solver.unattributed_s": self_s[SOLVE_ROOT],
            "mpi.world_init_s": self_s["mpi.world_init"],
            "network.route_s": self_s["network.route"],
            "network.route_calls": float(calls["network.route"]),
            "fluid.arrival_refill_s": self_s["fluid.arrival"],
            "fluid.arrival_calls": float(calls["fluid.arrival"]),
            "fluid.timer_s": self_s["fluid.timer"],
            "fluid.timer_calls": float(calls["fluid.timer"]),
            "engine.process_s": self_s["engine.process"],
            "engine.unattributed_s": self_s[SIM_ROOT] + self_s[_OTHER_CALLBACK],
            "trace.untraced_wall_s": untraced_wall,
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
            "trace.spans": float(hi - lo),
        }
    )
    unattributed = out["solver.unattributed_s"] + out["engine.unattributed_s"]
    out["trace.unattributed_ratio"] = unattributed / traced_wall if traced_wall > 0 else 0.0

    if probe is not None:
        refills = [
            end - start
            for i, (name, _, start, end) in enumerate(spans, start=lo)
            if name == "fluid.arrival"
            or (name == "fluid.timer" and i not in probe.stale_timers)
        ]
        refill = latency_summary(refills)
        timers_seen = calls["fluid.timer"]
        active = probe.active_at_arrival
        out.update(
            {
                "fluid.stale_timer_ratio": (
                    len(probe.stale_timers) / timers_seen if timers_seen else 0.0
                ),
                "fluid.refill_p50_us": refill["p50_us"],
                "fluid.refill_tail_us": refill["tail_us"],
                "fluid.refill_tail_pct": refill["tail_pct"],
                "fluid.refill_samples": refill["samples"],
                "fluid.active_flows_mean": sum(active) / len(active) if active else 0.0,
                "engine.events_fired": float(
                    sum(world.kernel.events_fired for world in probe.worlds)
                ),
            }
        )
    return out
