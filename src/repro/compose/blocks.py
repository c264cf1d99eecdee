"""Block resolution: campaign-store memoization around ``solve_orp``.

A composed fabric's quality is entirely the block's, so blocks are worth
searching hard for — once.  :func:`resolve_block` keys the block's solver
parameters through the campaign spec machinery (the same normalization and
SHA-256 content digest ``repro campaign`` uses), so:

- a block solved by any previous compose run — or by any ORP campaign that
  happened to sweep the same point — is a cache hit by digest;
- failing an exact hit, :meth:`CampaignStore.best_for` serves the best
  *known* result at the block's ``(n, r)`` regardless of which schedule
  produced it (disable with ``use_best=False`` for strict digest
  reproducibility);
- a miss solves via :func:`repro.core.solver.solve_orp` and stores the
  result as a plain ORP point, immediately reusable by campaigns.

``best_for`` answers from the store's append-only leaderboard index
(:mod:`repro.campaign.index`), not a point-directory scan, so resolving a
block against a store with thousands of memoized points costs one small
file read — which is what lets :mod:`repro.serve` route live queries
through this exact path.  A corrupt exact-hit artifact falls through to
the best-known/solve path instead of failing the resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.campaign.spec import normalize_point, point_digest
from repro.campaign.store import CampaignStore, StoreError
from repro.core.hostswitch import HostSwitchGraph
from repro.core.serialization import load_graph
from repro.obs import NULL_TELEMETRY, TelemetryRegistry
from repro.obs import clock as obs_clock

__all__ = ["ResolvedBlock", "block_point", "resolve_block"]


@dataclass(frozen=True)
class ResolvedBlock:
    """A block graph plus provenance: where it came from and its digest."""

    graph: HostSwitchGraph
    h_aspl: float
    digest: str
    point: dict[str, Any]
    cached: bool
    source: str
    """``"store"`` (exact digest hit), ``"store-best"`` (best known result
    at the block's ``(n, r)``), or ``"solved"`` (fresh ``solve_orp``)."""


def block_point(
    n: int,
    r: int,
    *,
    m: int | None = None,
    steps: int = 20_000,
    restarts: int = 1,
    seed: int = 0,
    operation: str = "two-neighbor-swing",
    construction: str = "random",
    initial_temperature: float = 0.05,
    final_temperature: float = 1e-4,
) -> dict[str, Any]:
    """The normalized ORP campaign point a block solve corresponds to."""
    return normalize_point(
        {
            "n": n,
            "r": r,
            "m": m,
            "steps": steps,
            "restarts": restarts,
            "seed": seed,
            "operation": operation,
            "construction": construction,
            "initial_temperature": initial_temperature,
            "final_temperature": final_temperature,
        }
    )


def resolve_block(
    n: int,
    r: int,
    *,
    store: CampaignStore | None = None,
    use_best: bool = True,
    telemetry: TelemetryRegistry | None = None,
    **solver_params: Any,
) -> ResolvedBlock:
    """Fetch (or solve and memoize) the ORP block for ``(n, r)``.

    ``solver_params`` are the :func:`block_point` keywords (``m``,
    ``steps``, ``restarts``, ``seed``, ``operation``, ``construction``,
    temperatures).  With no ``store`` the block is solved
    in-memory every time.
    """
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    point = block_point(n, r, **solver_params)
    digest = point_digest(point)
    if store is not None:
        if store.has_result(digest):
            try:
                solution = store.load_result(digest)
            except StoreError:
                # Torn/corrupt cached artifact: fall through to the
                # best-known or solve path rather than failing the block.
                solution = None
            if solution is not None:
                tel.event(
                    "compose.block_cached",
                    digest=digest,
                    n=n,
                    r=r,
                    h_aspl=solution.h_aspl,
                    source="store",
                )
                return ResolvedBlock(
                    graph=solution.graph,
                    h_aspl=solution.h_aspl,
                    digest=digest,
                    point=point,
                    cached=True,
                    source="store",
                )
        if use_best:
            best = store.best_for(n, r)
            if best is not None:
                tel.event(
                    "compose.block_cached",
                    digest=best.digest,
                    n=n,
                    r=r,
                    h_aspl=best.h_aspl,
                    source="store-best",
                )
                return ResolvedBlock(
                    graph=load_graph(best.graph_path),
                    h_aspl=best.h_aspl,
                    digest=best.digest,
                    point=dict(best.point),
                    cached=True,
                    source="store-best",
                )

    from repro.core.annealing import AnnealingSchedule
    from repro.core.solver import solve_orp

    t0 = obs_clock()
    solution = solve_orp(
        point["n"],
        point["r"],
        m=point["m"],
        schedule=AnnealingSchedule(
            num_steps=point["steps"],
            initial_temperature=point["initial_temperature"],
            final_temperature=point["final_temperature"],
        ),
        restarts=point["restarts"],
        seed=point["seed"],
        operation=point["operation"],
        construction=point["construction"],
        telemetry=telemetry,
    )
    if store is not None:
        store.save_result(digest, point, solution)
    tel.event(
        "compose.block_solved",
        digest=digest,
        n=n,
        r=r,
        h_aspl=solution.h_aspl,
        wall_s=obs_clock() - t0,
    )
    return ResolvedBlock(
        graph=solution.graph,
        h_aspl=solution.h_aspl,
        digest=digest,
        point=point,
        cached=False,
        source="solved",
    )
