"""The benchmark's workloads: inputs from a seed, the timed call, output checks.

Two kinds of operation are timed, the two things users of the repository
wait on:

- ``solve_orp(...)`` — an annealed topology and its h-ASPL gap to the
  Theorem-2 bound (paper Sec. 5, Fig. 5);
- ``run_nas(...)`` on the fluid network model — NPB performance on the
  proposed topology (Figs 9a-11a).

Each workload builds its inputs from an integer seed in :meth:`setup`,
performs the timed call in :meth:`run`, and verifies the output in
:meth:`check` against an independent recomputation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Outcome:
    """What one checked operation yields for the report."""

    ops: int
    """Units of work done: anneal steps, or simulated messages delivered."""
    ideal_fraction: float
    """Achieved fraction of an ideal: Theorem-2 bound / h-ASPL for a solve,
    contention-free / fluid completion time for a simulation."""
    info: dict[str, float]
    """Paper-facing figures printed for humans (h-ASPL gap, NPB Mop/s)."""
    problems: list[str]
    """Failed output checks; empty when the output is correct."""


def host_distance_oracle(graph) -> tuple[float, float]:
    """``(h_aspl, diameter)`` recomputed with scipy's unweighted BFS.

    Independent of the program's kernels: the switch adjacency is rebuilt
    from the edge list and host pairs are weighted by per-switch host
    counts, a host-to-host path being the switch distance plus two hops.
    """
    import numpy as np
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import shortest_path

    m = graph.num_switches
    edges = np.asarray(list(graph.switch_edges()), dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    adj = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(m, m)).tocsr()
    dist = shortest_path(adj, directed=False, unweighted=True)
    k = graph.host_counts().astype(np.float64)
    n = float(k.sum())
    bearing = np.flatnonzero(k > 0)
    sub = dist[np.ix_(bearing, bearing)] + 2.0
    kb = k[bearing]
    total = float(kb @ sub @ kb) - 2.0 * n  # ordered pairs, minus each host with itself
    aspl = total / (n * (n - 1.0))
    # Two hosts can share a switch only where it carries two or more.
    np.fill_diagonal(sub, np.where(kb >= 2, 2.0, 0.0))
    return aspl, float(sub.max())


class SolveWorkload:
    """``solve_orp`` with a fixed schedule and one restart."""

    kind = "solve"
    root = "solver.solve_orp"
    imports = ("repro.core.solver",)

    def __init__(self, name: str, why: str, min_reps: int, n: int, r: int, steps: int,
                 seed_pool: tuple[int, ...] = (), hostless_start: bool = False,
                 **options: Any) -> None:
        self.name, self.why, self.min_reps = name, why, min_reps
        self.n, self.r, self.steps, self.options = n, r, steps, options
        self.seed_pool, self.hostless_start = seed_pool, hostless_start

    def setup(self, seed: int) -> dict[str, Any]:
        """The solver seed: ``seed`` itself, or an entry of the seed pool it picks."""
        if self.seed_pool:
            seed = self.seed_pool[seed % len(self.seed_pool)]
        return {"seed": seed}

    def run(self, inputs: dict[str, Any], telemetry=None):
        """Solve; the random start graphs are kept in ``inputs["start_graphs"]``.

        Keeping them costs one wrapper call per restart, where checking
        them after the run by building them again would cost a second
        construction.  ``anneal`` works on a copy, so they stay as built.
        """
        from repro.core import solver
        from repro.core.annealing import AnnealingSchedule

        construct = solver.random_host_switch_graph
        starts = inputs["start_graphs"] = []

        def keep_start(*args, **kwargs):
            graph = construct(*args, **kwargs)
            starts.append(graph)
            return graph

        solver.random_host_switch_graph = keep_start
        try:
            return solver.solve_orp(
                self.n, self.r,
                schedule=AnnealingSchedule(num_steps=self.steps),
                restarts=1,
                seed=inputs["seed"],
                telemetry=telemetry,
                **self.options,
            )
        finally:
            solver.random_host_switch_graph = construct

    def check(self, inputs: dict[str, Any], solution) -> Outcome:
        problems = []
        graph = solution.graph
        try:
            graph.validate()
        except ValueError as exc:
            problems.append(f"graph fails validate(): {exc}")
        if graph.num_hosts != self.n or graph.radix != self.r:
            problems.append(f"graph has n={graph.num_hosts}, r={graph.radix}")
        aspl, diam = host_distance_oracle(graph)
        if not math.isclose(solution.h_aspl, aspl, rel_tol=1e-12):
            problems.append(f"reported h-ASPL {solution.h_aspl!r} != recomputed {aspl!r}")
        if solution.diameter != diam:
            problems.append(f"reported diameter {solution.diameter} != recomputed {diam}")
        if aspl < solution.h_aspl_lower_bound - 1e-12:
            problems.append(f"h-ASPL {aspl} below the Theorem-2 bound")
        if diam < solution.diameter_lower_bound:
            problems.append(f"diameter {diam} below the Theorem-1 bound")
        if self.hostless_start and not any(
            (g.host_counts() == 0).any() for g in inputs["start_graphs"]
        ):
            problems.append(
                f"solver seed {inputs['seed']}: the start graph has no hostless switch, so "
                "the per-step connectivity check never runs; re-derive the seed pool"
            )
        return Outcome(
            ops=solution.annealing.steps,
            ideal_fraction=solution.h_aspl_lower_bound / solution.h_aspl,
            info={"h_aspl_gap": solution.gap, "accept_ratio": (
                solution.annealing.accepted / solution.annealing.steps)},
            problems=problems,
        )


class SimWorkload:
    """``run_nas`` on the fluid model over a topology solved in setup."""

    kind = "sim"
    root = "apps.run_nas"
    imports = ("repro.core.solver", "repro.simulation.apps.base", "repro.simulation.mapping")

    def __init__(self, name: str, why: str, min_reps: int, benchmark: str, ranks: int,
                 n: int, r: int, solve_steps: int) -> None:
        self.name, self.why, self.min_reps = name, why, min_reps
        self.benchmark, self.ranks = benchmark, ranks
        self.n, self.r, self.solve_steps = n, r, solve_steps

    def setup(self, seed: int) -> dict[str, Any]:
        from repro.core.annealing import AnnealingSchedule
        from repro.core.solver import solve_orp
        from repro.simulation.mapping import rank_to_host_mapping

        graph = solve_orp(
            self.n, self.r, schedule=AnnealingSchedule(num_steps=self.solve_steps), seed=seed
        ).graph
        return {"graph": graph, "mapping": rank_to_host_mapping(graph, self.ranks, "linear")}

    def _simulate(self, inputs: dict[str, Any], model: str):
        from repro.simulation.apps.base import run_nas

        return run_nas(
            self.benchmark, inputs["graph"], self.ranks,
            nas_class="A", iterations=1, rank_to_host=inputs["mapping"], model=model,
        )

    def run(self, inputs: dict[str, Any], telemetry=None):
        return self._simulate(inputs, "fluid")

    def check(self, inputs: dict[str, Any], result) -> Outcome:
        # The network model changes timing only: the same skeleton sends
        # the same messages and bytes without contention.
        reference = self._simulate(inputs, "latency")
        problems = []
        stats, ref = result.stats, reference.stats
        if (stats.messages, stats.bytes) != (ref.messages, ref.bytes):
            problems.append(
                f"fluid run sent {stats.messages} messages / {stats.bytes} bytes, "
                f"contention-free run {ref.messages} / {ref.bytes}"
            )
        # Contention only delays: the fluid run cannot finish first.
        if not (math.isfinite(result.time_s) and reference.time_s > 0
                and result.time_s >= reference.time_s * (1 - 1e-9)):
            problems.append(
                f"fluid time {result.time_s} not >= contention-free {reference.time_s} > 0"
            )
        return Outcome(
            ops=stats.messages,
            ideal_fraction=reference.time_s / result.time_s if result.time_s > 0 else 0.0,
            info={"nas_mops": result.mops_total},
            problems=problems,
        )


#: Solver seeds below 80 whose random starting graph for n=4096, r=24 at
#: m_opt=498 leaves a switch without hosts (41 of the 80).  Only then does
#: the annealer run its whole-switch-graph connectivity check on every
#: accepted move, the per-step cost solve-large exists to measure; the
#: other seeds skip it, which would make the repetitions bimodal.  The
#: list follows from how the construction draws random numbers, so
#: solve-large's output check fails every repetition whose start graph
#: lacks a hostless switch: a change to the construction then shows as a
#: failed run, not as a faster one.
HOSTLESS_START_SEEDS = (
    0, 1, 10, 11, 12, 13, 15, 16, 18, 20, 21, 23, 29, 30, 31, 34, 35, 36, 38, 41, 42,
    43, 44, 45, 48, 50, 51, 52, 54, 55, 57, 60, 61, 62, 63, 66, 68, 70, 71, 76, 78,
)

#: ``min_reps`` is the number of repetitions every run makes whatever
#: ``--seconds`` says.  A solve's cost depends on its inputs by up to a
#: fifth (construction retries, repaired rows), so five or six inputs per
#: run keep run medians from moving with the draw.  A simulation's time
#: depends on its topology by up to a fifth, but a run affords only
#: three, which take 22-42 s with the host's speed, whatever ``--seconds``
#: asks for below that.
WORKLOADS = {
    w.name: w
    for w in (
        SolveWorkload(
            "solve-regular",
            "Fig. 5 regular baseline, n=1024 r=24 m=128 swap: propose-bound, no connectivity "
            "checks or random construction",
            min_reps=6, n=1024, r=24, steps=4000,
            m=128, construction="regular", operation="swap",
        ),
        SolveWorkload(
            "solve-large",
            "proposed pipeline, n=4096 r=24 at m_opt: quadratic construction and per-step "
            "connectivity checks beside propose",
            min_reps=5, n=4096, r=24, steps=2000,
            seed_pool=HOSTLESS_START_SEEDS, hostless_start=True,
        ),
        SimWorkload(
            "sim-alltoall",
            "NPB FT class A on 64 ranks, fluid model: dense all-to-all, many active flows "
            "in one large flow-link component",
            min_reps=3, benchmark="ft", ranks=64, n=64, r=10, solve_steps=2000,
        ),
        SimWorkload(
            "sim-halo",
            "NPB CG class A on 64 ranks, fluid model: point-to-point exchange, 3x FT's "
            "messages in small flow-link components",
            min_reps=3, benchmark="cg", ranks=64, n=64, r=10, solve_steps=2000,
        ),
    )
}
