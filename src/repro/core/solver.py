"""End-to-end ORP solver — the paper's "proposed topology" (Section 5.3).

The design rule distilled from Fig. 5: for given ``(n, r)``,

1. pick ``m = m_opt``, the minimiser of the continuous Moore bound;
2. build a connected random host-switch graph with that many switches;
3. run simulated annealing with the 2-neighbor swing operation.

:func:`solve_orp` packages the pipeline (with overridable ``m``, schedule,
restarts, worker processes, and seed) and reports the result against the
Theorem-2 lower bound.  Restarts fan out over a ``ProcessPoolExecutor``
when ``jobs > 1``; per-restart seeds are spawned deterministically from one
master ``SeedSequence`` so serial and parallel runs return the same best
graph.

Every restart — serial or parallel — reports a :class:`RestartSummary` on
:attr:`ORPSolution.restarts`, and when a ``telemetry`` registry is supplied
each worker anneals under a private registry whose snapshot is merged back
into the caller's, so a ``jobs=4`` run accounts for every restart's
proposals exactly like a serial one.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.annealing import AnnealingResult, AnnealingSchedule, anneal
from repro.core.bounds import diameter_lower_bound, h_aspl_lower_bound
from repro.core.construct import (
    clique_host_switch_graph,
    minimum_clique_switch_count,
    random_host_switch_graph,
    random_regular_host_switch_graph,
    star_host_switch_graph,
)
from repro.core.hostswitch import HostSwitchGraph
from repro.core.metrics import h_aspl_and_diameter
from repro.core.moore import continuous_moore_bound, optimal_switch_count
from repro.obs import NULL_TELEMETRY, TelemetryRegistry

__all__ = ["ORPSolution", "RestartSummary", "solve_orp"]

_CONSTRUCTIONS = ("random", "regular")


def _restart_seed_sequences(
    seed: int | np.random.Generator | None, restarts: int
) -> list[np.random.SeedSequence]:
    """Per-restart seed sequences, identical for serial and parallel runs.

    ``SeedSequence.spawn`` children depend only on the root entropy and the
    child index, so restart ``i`` anneals the same trajectory whether the
    fan-out runs in-process or across a process pool — and adding restarts
    never perturbs the earlier ones.
    """
    if isinstance(seed, np.random.Generator):
        # Derive root entropy from the caller's stream so repeated calls
        # with a shared generator explore different restarts.
        root = np.random.SeedSequence(int(seed.integers(2**63)))
    else:
        root = np.random.SeedSequence(seed)
    return root.spawn(restarts)


@dataclass(frozen=True)
class RestartSummary:
    """Searchable record of one annealing restart inside :func:`solve_orp`."""

    index: int
    seed_spawn_key: tuple[int, ...]
    initial_h_aspl: float
    h_aspl: float
    steps: int
    accepted: int
    rejected: int
    wall_time_s: float


def _run_restart(
    n: int,
    m: int,
    r: int,
    schedule: AnnealingSchedule | None,
    target: float,
    child: np.random.SeedSequence,
    index: int,
    collect: bool,
    operation: str = "two-neighbor-swing",
    construction: str = "random",
    *,
    checkpoint_every: int = 0,
    checkpoint_callback: Any = None,
    resume_state: dict[str, Any] | None = None,
) -> tuple[AnnealingResult, dict[str, Any] | None]:
    """One annealing restart (module-level so process pools can pickle it).

    When ``collect`` is set, the restart anneals under a private sink-less
    :class:`TelemetryRegistry` whose :meth:`~TelemetryRegistry.snapshot` is
    returned (a plain dict, so it pickles back from pool workers) for the
    parent to :meth:`~TelemetryRegistry.merge`.

    On resume the starting graph is rebuilt (consuming the same RNG draws
    as the original run) and then :func:`anneal` overwrites both the graph
    and the RNG state from the checkpoint, so the trajectory continues
    bit-identically.
    """
    rng = np.random.default_rng(child)
    if construction == "regular":
        start = random_regular_host_switch_graph(n, m, r, seed=rng)
    else:
        start = random_host_switch_graph(n, m, r, seed=rng)
    worker_tel = TelemetryRegistry(f"restart-{index}") if collect else None
    # The "anneal.run" span makes each restart a root of the trace's span
    # forest, so flamegraph roots line up with AnnealingResult.wall_time_s.
    span = (
        worker_tel.span("anneal.run", index=index, n=n, m=m, r=r)
        if worker_tel is not None
        else nullcontext()
    )
    with span:
        result = anneal(
            start,
            operation=operation,
            schedule=schedule,
            seed=rng,
            target=target,
            telemetry=worker_tel,
            checkpoint_every=checkpoint_every,
            checkpoint_callback=checkpoint_callback,
            resume_state=resume_state,
        )
    return result, (worker_tel.snapshot() if worker_tel is not None else None)


def _restart_summary(
    index: int, child: np.random.SeedSequence, run: AnnealingResult
) -> RestartSummary:
    return RestartSummary(
        index=index,
        seed_spawn_key=tuple(int(k) for k in child.spawn_key),
        initial_h_aspl=run.initial_h_aspl,
        h_aspl=run.h_aspl,
        steps=run.steps,
        accepted=run.accepted,
        rejected=run.steps - run.accepted,
        wall_time_s=run.wall_time_s,
    )


@dataclass
class ORPSolution:
    """A solved ORP instance with provenance and bound comparison."""

    graph: HostSwitchGraph
    n: int
    r: int
    m: int
    h_aspl: float
    diameter: float
    h_aspl_lower_bound: float
    diameter_lower_bound: int
    moore_bound_at_m: float
    m_predicted: int
    annealing: AnnealingResult | None = None
    restarts: list[RestartSummary] = field(default_factory=list)
    """One :class:`RestartSummary` per annealing restart (empty for the
    trivial regimes, which perform no search)."""

    @property
    def gap(self) -> float:
        """Relative gap of the achieved h-ASPL over the Theorem-2 bound."""
        return self.h_aspl / self.h_aspl_lower_bound - 1.0

    def summary(self) -> str:
        """One-paragraph human-readable report."""
        lines = [
            f"ORP(n={self.n}, r={self.r}): m={self.m} switches "
            f"(continuous-Moore prediction m_opt={self.m_predicted})",
            f"  h-ASPL = {self.h_aspl:.4f}  (lower bound {self.h_aspl_lower_bound:.4f},"
            f" gap {100 * self.gap:.2f}%)",
            f"  diameter = {self.diameter:.0f}  (lower bound {self.diameter_lower_bound})",
        ]
        return "\n".join(lines)


def solve_orp(
    n: int,
    r: int,
    *,
    m: int | None = None,
    schedule: AnnealingSchedule | None = None,
    restarts: int = 1,
    jobs: int = 1,
    seed: int | np.random.Generator | None = 0,
    operation: str = "two-neighbor-swing",
    construction: str = "random",
    telemetry: TelemetryRegistry | None = None,
    checkpointer: Any = None,
) -> ORPSolution:
    """Solve an Order/Radix Problem instance.

    Parameters
    ----------
    n, r:
        Order (hosts) and radix (ports per switch).
    m:
        Switch count override.  Default: the continuous-Moore-bound
        minimiser ``m_opt`` (the paper's rule).
    schedule:
        Annealing schedule (default :class:`AnnealingSchedule`()).
    restarts:
        Independent annealing runs; the best result is kept (ties break to
        the lowest restart index).
    jobs:
        Worker processes for the restart fan-out.  Restart seeds are
        spawned from one master :class:`numpy.random.SeedSequence`, so any
        ``jobs`` value returns the same best graph as the serial run.
    seed:
        Seed / generator for the whole pipeline.
    operation:
        Neighbourhood operation forwarded to :func:`~repro.core.annealing.anneal`
        (default the paper's ``"two-neighbor-swing"``; ``"swap"`` pairs with
        ``construction="regular"`` for the Fig. 5 baseline curve).
    construction:
        Starting-point builder: ``"random"`` (default, the paper's proposed
        pipeline) or ``"regular"`` (``m | n`` hosts per switch with a random
        k-regular core).
    telemetry:
        Optional :class:`repro.obs.TelemetryRegistry`.  Each restart then
        anneals under a private worker registry (in-process or in a pool
        worker) whose snapshot is merged into this one, and one
        ``"solver.restart"`` event is emitted per restart — ``jobs > 1``
        loses no visibility.
    checkpointer:
        Optional checkpoint/resume driver (duck-typed; see
        :class:`repro.campaign.checkpoint.PointCheckpointer`).  Needs an
        int attribute ``checkpoint_every`` and methods ``restart_result(i)``
        (a cached :class:`AnnealingResult` or ``None``), ``resume_state(i)``
        (a checkpoint dict or ``None``), ``save_checkpoint(i, state)``, and
        ``restart_done(i, result)``.  Completed restarts are served from
        the cache without annealing; interrupted ones resume
        bit-identically from their last checkpoint.  Restarts run serially
        (``jobs`` must stay 1) — campaign parallelism is across points.

    Notes
    -----
    The trivial regimes are solved exactly without search: ``n <= r`` uses a
    single switch (h-ASPL 2) and ``n <= m(r-m+1)`` for some clique size uses
    the clique construction, both provably optimal (Section 3.2 and the
    Appendix).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if construction not in _CONSTRUCTIONS:
        raise ValueError(
            f"construction must be one of {_CONSTRUCTIONS}, got {construction!r}"
        )
    if checkpointer is not None and jobs > 1:
        raise ValueError(
            "checkpointer requires jobs=1 (restarts run serially; "
            "parallelise across campaign points instead)"
        )
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    d_lb = diameter_lower_bound(n, r)
    a_lb = h_aspl_lower_bound(n, r)

    # Trivial regime 1: everything on one switch.
    if n <= r:
        graph = star_host_switch_graph(n, r)
        aspl, diam = h_aspl_and_diameter(graph)
        return ORPSolution(
            graph=graph,
            n=n,
            r=r,
            m=1,
            h_aspl=aspl,
            diameter=diam,
            h_aspl_lower_bound=a_lb,
            diameter_lower_bound=d_lb,
            moore_bound_at_m=continuous_moore_bound(n, 1, r),
            m_predicted=1,
        )

    # Trivial regime 2: a clique of switches can carry all hosts.
    try:
        clique_m = minimum_clique_switch_count(n, r)
    except ValueError:
        clique_m = None
    if clique_m is not None and m is None:
        graph = clique_host_switch_graph(n, r, clique_m)
        aspl, diam = h_aspl_and_diameter(graph)
        return ORPSolution(
            graph=graph,
            n=n,
            r=r,
            m=clique_m,
            h_aspl=aspl,
            diameter=diam,
            h_aspl_lower_bound=a_lb,
            diameter_lower_bound=d_lb,
            moore_bound_at_m=continuous_moore_bound(n, clique_m, r),
            m_predicted=clique_m,
        )

    m_predicted, _ = optimal_switch_count(n, r)
    m_used = m if m is not None else m_predicted

    children = _restart_seed_sequences(seed, max(1, restarts))
    count = len(children)
    collect = tel.enabled

    # Streamed on the *parent* registry so a live JSONL sink sees restart
    # completion as it happens (worker registries buffer until merge).
    progress_best = float("inf")

    def note_progress(done: int, run: AnnealingResult) -> None:
        nonlocal progress_best
        if not collect:
            return
        progress_best = min(progress_best, run.h_aspl)
        tel.event(
            "solver.progress",
            restarts_done=done,
            restarts=count,
            n=n, r=r, m=m_used,
            h_aspl=run.h_aspl,
            best_h_aspl=progress_best,
        )

    with tel.span("solver.anneal_restarts", n=n, r=r, m=m_used,
                  restarts=count, jobs=jobs):
        if jobs > 1 and count > 1:
            workers = min(jobs, count)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                outcomes = list(
                    pool.map(
                        _run_restart,
                        [n] * count,
                        [m_used] * count,
                        [r] * count,
                        [schedule] * count,
                        [a_lb] * count,
                        children,
                        range(count),
                        [collect] * count,
                        [operation] * count,
                        [construction] * count,
                    )
                )
            for i, (run, _) in enumerate(outcomes):
                note_progress(i + 1, run)
        elif checkpointer is not None:
            outcomes = []
            for i, child in enumerate(children):
                cached = checkpointer.restart_result(i)
                if cached is not None:
                    outcomes.append((cached, None))
                    note_progress(i + 1, cached)
                    continue
                run, snap = _run_restart(
                    n, m_used, r, schedule, a_lb, child, i, collect,
                    operation, construction,
                    checkpoint_every=int(checkpointer.checkpoint_every),
                    checkpoint_callback=(
                        lambda state, i=i: checkpointer.save_checkpoint(i, state)
                    ),
                    resume_state=checkpointer.resume_state(i),
                )
                checkpointer.restart_done(i, run)
                outcomes.append((run, snap))
                note_progress(i + 1, run)
        else:
            outcomes = []
            for i, child in enumerate(children):
                outcome = _run_restart(
                    n, m_used, r, schedule, a_lb, child, i, collect,
                    operation, construction,
                )
                outcomes.append(outcome)
                note_progress(i + 1, outcome[0])

    runs = [run for run, _ in outcomes]
    summaries = [
        _restart_summary(i, child, run)
        for i, (child, run) in enumerate(zip(children, runs))
    ]
    if collect:
        for (_, snap), summary in zip(outcomes, summaries):
            if snap is not None:
                tel.merge(snap)
            tel.event(
                "solver.restart",
                index=summary.index,
                seed_spawn_key=list(summary.seed_spawn_key),
                initial_h_aspl=summary.initial_h_aspl,
                h_aspl=summary.h_aspl,
                steps=summary.steps,
                accepted=summary.accepted,
                rejected=summary.rejected,
                wall_time_s=summary.wall_time_s,
            )

    # Strict < in index order: parallel and serial runs pick the same winner.
    best = runs[0]
    for result in runs[1:]:
        if result.h_aspl < best.h_aspl:
            best = result

    if collect:
        tel.event(
            "solver.done",
            n=n, r=r, m=m_used, restarts=count, jobs=jobs,
            best_h_aspl=best.h_aspl,
            h_aspl_lower_bound=a_lb,
            gap=best.h_aspl / a_lb - 1.0,
        )

    return ORPSolution(
        graph=best.graph,
        n=n,
        r=r,
        m=m_used,
        h_aspl=best.h_aspl,
        diameter=best.diameter,
        h_aspl_lower_bound=a_lb,
        diameter_lower_bound=d_lb,
        moore_bound_at_m=continuous_moore_bound(n, m_used, r),
        m_predicted=m_predicted,
        annealing=best,
        restarts=summaries,
    )
