"""Incremental h-ASPL evaluation for the annealing hot path.

The simulated-annealing search (paper Section 5) historically recomputed a
full APSP over all host-bearing switches on *every* proposal, even though a
swap or swing perturbs exactly two switch edges.  This module maintains the
switch-graph distance matrix ``D`` across moves and repairs it instead,
running every BFS through the bit-parallel kernel of
:mod:`repro.core.kernels`.

Repair algorithm
----------------
For each **removed** edge ``{u, v}`` (processed sequentially) only sources
``x`` whose distance to the far endpoint is forced through the edge can
change at all:

- if ``d(x, v) == d(x, u) + 1`` and ``v`` has no *other* neighbour ``w``
  with ``d(x, w) == d(x, v) - 1`` then ``d(x, v)`` must grow and row ``x``
  is repaired by a fresh kernel BFS; symmetrically for ``u``;
- otherwise the whole row provably keeps its distances (if the far endpoint
  keeps an alternative predecessor at the same depth, every shortest path
  can be rerouted through it without the removed edge).

A changed pair always has **both** endpoints in the affected set ``A``
(if a row is unaffected, none of its entries change — and ``D`` is
symmetric), so every stale entry lives in the ``A x A`` block.  The
repair therefore recomputes only that block, with one batched
multi-source BFS (``targets=A``) sharing the proposal's CSR adjacency.

For each **added** edge ``{u, v}`` distances only shrink and the classic
single-insertion rule is exact::

    D[x, y] = min(D[x, y], D[x, u] + 1 + D[v, y], D[x, v] + 1 + D[u, y])

Row ``x`` can only improve when ``|d(x, u) - d(x, v)| >= 2`` (otherwise
the detour through the new edge is never shorter: ``d(x,u) + 1 + d(v,y)
>= d(x,v) + d(v,y) >= d(x,y)``), and a changed pair again has *both*
endpoints screened in (``d'(x,y) = d(x,u)+1+d(v,y) < d(x,y) <= d(x,u) +
d(u,y)`` forces ``d(u,y) - d(v,y) >= 2``), so the min-rule runs on the
screened ``A x A`` block only.  Removals are repaired before
insertions; mixing is still exact because every intermediate matrix is
the exact APSP of its intermediate graph.

Scratch state and the undo journal
----------------------------------
``propose`` mutates the committed matrix **in place** and journals every
operation's ``(rows, prior A x A block)``.  ``rollback`` restores the
journaled blocks in reverse order — which covers every modified entry,
because each repair step only writes its own block.  ``commit`` simply
drops the journal.  The committed CSR adjacency is never mutated: a
proposal's scratch CSR accumulates single-edge deltas as cheap copies
and is adopted (or dropped) wholesale, so the CSR is only ever rebuilt
from the graph at construction/rebuild.

The h-ASPL itself is maintained as the running weighted sum
``sum k_a k_b (d(a,b) + 2)``: each repair step contributes the
integer-exact float64 quadratic form ``k[A] @ (new - old) @ k[A]`` of
its block delta (host-count deltas of swing moves are applied on top,
term by term), so a proposal costs O(|A|^2) instead of O(m^2).  Any
``inf`` in sight (disconnection, or a previously disconnected committed
state) falls back to the full double sum, which is bit-identical because
every term of either computation is an integer exactly representable in
float64.

Fallback and invariants
-----------------------
When the affected-row count exceeds ``fallback_fraction * m`` the repair
would cost as much as a rebuild, so the evaluator recomputes all rows in
one batched BFS instead (the *exact fallback* — same kernel, all
sources).  Either way the evaluator maintains these invariants after every
``commit``/``rollback``:

- ``D`` is the exact, symmetric switch-graph distance matrix (``inf`` for
  disconnected pairs) of the bound graph;
- ``k`` equals the graph's per-switch host counts;
- ``value``/``weighted_sum`` equal :func:`repro.core.metrics.h_aspl` on the
  bound graph **bit-for-bit** (every term of the weighted sum is an integer
  exactly representable in float64, so summation order cannot matter).

``D`` covers *all* switches, not only host-bearing ones, so swing moves
that empty or populate a switch never invalidate the matrix.

Oracle mode
-----------
``IncrementalEvaluator(graph, oracle=True)`` cross-checks every proposal
against :func:`repro.core.metrics.h_aspl` and a from-scratch APSP, raising
``IncrementalEvaluatorError`` on any divergence.  Tests drive hundreds of
random accepted/rejected moves through oracle mode; production runs leave
it off.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.core.hostswitch import HostSwitchGraph
from repro.core.kernels import CSRAdjacency, bfs_distances
from repro.core.metrics import (
    _weighted_host_distance_sum,
    h_aspl,
    switch_distance_matrix,
)
from repro.core.operations import SwapMove, SwingMove
from repro.obs import NULL_TELEMETRY, Histogram, TelemetryRegistry
from repro.obs import clock as obs_clock

__all__ = [
    "DynamicDistanceMatrix",
    "IncrementalEvaluator",
    "IncrementalEvaluatorError",
]

Move = SwapMove | SwingMove
_Edge = tuple[int, int]

#: Buckets for the repaired-rows-per-move histogram; repairs are usually a
#: handful of rows, the top buckets catch near-fallback proposals.
_ROWS_BOUNDS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512)

#: Telemetry instrument names (registered in ``repro.obs.names``).
_KERNEL_BFS_TIMER = "kernel.bfs_s"
_KERNEL_BFS_ROWS = "kernel.bfs_rows"


class IncrementalEvaluatorError(RuntimeError):
    """Protocol misuse or an oracle-mode divergence."""


def _affected_sources(
    dist: np.ndarray, csr: CSRAdjacency, u: int, v: int
) -> np.ndarray:
    """Rows whose distances can change when edge ``{u, v}`` is removed.

    ``dist`` is exact for the graph *with* the edge; ``csr`` already has
    it removed (so the predecessor scan below cannot see it).  Row ``x``
    is affected iff the far endpoint sat exactly one level deeper and
    loses its only predecessor at that depth — an exact row-level test,
    not a superset (see the module docstring for the argument).  ``dist``
    is symmetric, so the scan reads contiguous rows instead of columns.
    """
    affected = np.zeros(dist.shape[0], dtype=bool)
    for near, far in ((u, v), (v, u)):
        through = dist[far] == dist[near] + 1.0
        if not through.any():
            continue
        survivors = csr.neighbors(far)
        if len(survivors):
            alternative = (dist[survivors] == dist[far] - 1.0).any(axis=0)
            through &= ~alternative
        affected |= through
    return np.flatnonzero(affected)


def _insertion_affected(dist: np.ndarray, u: int, v: int) -> np.ndarray:
    """Rows that can improve when edge ``{u, v}`` is inserted.

    Exactly the rows with ``|d(x, u) - d(x, v)| >= 2`` (see the module
    docstring); rows reaching neither endpoint (``inf - inf`` is NaN)
    compare False and are correctly skipped, rows reaching exactly one
    endpoint give ``inf`` and are correctly included.
    """
    with np.errstate(invalid="ignore"):
        return np.flatnonzero(np.abs(dist[u] - dist[v]) >= 2.0)


def _insertion_block(
    dist: np.ndarray, rows: np.ndarray, u: int, v: int
) -> np.ndarray:
    """The min-rule update of the ``rows x rows`` block for edge ``{u, v}``.

    ``dist[rows, v] == dist[v, rows]`` by symmetry, so both detour terms
    come from the same two gathered vectors.  Reads complete before any
    caller writes: every operand is a fancy-indexed copy or feeds an
    arithmetic op that allocates.
    """
    du = dist[rows, u]
    dv = dist[rows, v]
    block = dist[rows[:, None], rows[None, :]]
    detour = du[:, None] + (dv[None, :] + 1.0)
    np.minimum(block, detour, out=block)
    np.add(dv[:, None], du[None, :] + 1.0, out=detour)
    np.minimum(block, detour, out=block)
    return block


def _timed_bfs(csr, rows, timer, counter, targets=None) -> np.ndarray:
    """Kernel BFS with optional row-throughput telemetry."""
    if timer is None:
        return bfs_distances(csr, rows, targets)
    t0 = obs_clock()
    out = bfs_distances(csr, rows, targets)
    timer.observe(obs_clock() - t0)
    counter.inc(len(rows))
    return out


class DynamicDistanceMatrix:
    """Exact switch-graph APSP maintained across edge removals/insertions.

    The public face of the dynamic-BFS repair machinery above, for consumers
    outside the annealing loop: degraded :class:`repro.routing.RoutingTables`
    and the :mod:`repro.analysis.resilience` sweeps both keep one of these
    alive and repair it per fault/repair instead of re-running a full APSP.

    Unlike :class:`IncrementalEvaluator` there is no propose/commit protocol
    and no fallback threshold — every mutation is applied immediately and
    exactly, and the matrix keeps ``inf`` entries while the graph is
    partitioned (both the affected-row test and the insertion screening
    stay exact in the presence of ``inf``; see the module docstring).
    After any sequence of ``remove_edge``/``add_edge`` calls, :attr:`dist`
    is bit-identical to a from-scratch rebuild on the resulting graph.

    Parameters
    ----------
    graph:
        Snapshot source; the matrix does not track later graph mutations.
    telemetry:
        Optional :class:`repro.obs.TelemetryRegistry`; when enabled, each
        repair BFS feeds the row-throughput instruments.
    """

    def __init__(
        self,
        graph: HostSwitchGraph,
        *,
        telemetry: TelemetryRegistry | None = None,
    ) -> None:
        m = graph.num_switches
        self._m = m
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._bfs_timer = self._bfs_counter = None
        if tel.enabled:
            self._bfs_timer = tel.timer(_KERNEL_BFS_TIMER)
            self._bfs_counter = tel.counter(_KERNEL_BFS_ROWS)
        self._csr = CSRAdjacency.from_graph(graph)
        self._dist = self._bfs(np.arange(m))
        #: Cumulative rows repaired by :meth:`remove_edge` (speedup accounting:
        #: a from-scratch APSP would have recomputed ``m`` rows per change).
        self.repaired_rows = 0

    def _bfs(self, rows: np.ndarray, targets: np.ndarray | None = None) -> np.ndarray:
        return _timed_bfs(self._csr, rows, self._bfs_timer, self._bfs_counter, targets)

    @property
    def num_switches(self) -> int:
        return self._m

    @property
    def dist(self) -> np.ndarray:
        """Live ``(m, m)`` float64 distance matrix, ``inf`` for unreachable.

        This is the evaluator's working array, not a copy — treat it as
        read-only and re-read it after each mutation.
        """
        return self._dist

    def has_edge(self, u: int, v: int) -> bool:
        self._check_pair(u, v)
        return self._csr.has_edge(u, v)

    def neighbors(self, u: int) -> np.ndarray:
        """Switch ids adjacent to ``u``, ascending."""
        if not 0 <= u < self._m:
            raise ValueError(f"switch id {u} out of range [0, {self._m})")
        return self._csr.neighbors(u).copy()

    def is_connected(self) -> bool:
        return not np.isinf(self._dist).any()

    def remove_edge(self, u: int, v: int) -> int:
        """Remove switch edge ``{u, v}``; returns the repaired row count."""
        self._check_pair(u, v)
        self._csr = self._csr.with_edge_removed(u, v)
        rows = _affected_sources(self._dist, self._csr, u, v)
        if len(rows):
            block = self._bfs(rows, targets=rows)
            self._dist[rows[:, None], rows[None, :]] = block
        self.repaired_rows += len(rows)
        return len(rows)

    def add_edge(self, u: int, v: int) -> None:
        """Insert switch edge ``{u, v}`` (exact screened min-rule)."""
        self._check_pair(u, v)
        self._csr = self._csr.with_edge_added(u, v)
        rows = _insertion_affected(self._dist, u, v)
        if len(rows):
            block = _insertion_block(self._dist, rows, u, v)
            self._dist[rows[:, None], rows[None, :]] = block

    def remove_switch(self, s: int) -> tuple[tuple[int, int], ...]:
        """Remove every edge incident to ``s`` (isolating it).

        Returns the removed edges as sorted ``(a, b)`` pairs with ``a < b``,
        in the order they were taken down — re-adding them in any order via
        :meth:`add_edge` restores the exact pre-removal matrix.
        """
        removed = []
        for t in self.neighbors(s):
            edge = (min(s, int(t)), max(s, int(t)))
            self.remove_edge(*edge)
            removed.append(edge)
        return tuple(removed)

    def _check_pair(self, u: int, v: int) -> None:
        for s in (u, v):
            if not 0 <= s < self._m:
                raise ValueError(f"switch id {s} out of range [0, {self._m})")
        if u == v:
            raise ValueError(f"self-loop {{{u}, {v}}} is not a switch edge")


class IncrementalEvaluator:
    """Maintains ``D``/``k``/the weighted sum across annealing moves.

    The protocol mirrors the annealer's accept/reject structure:

    1. the caller applies the move(s) to the bound graph,
    2. ``propose(moves)`` returns the candidate h-ASPL (scratch state only),
    3. ``commit()`` adopts the scratch state, or ``rollback()`` discards it
       (after which the caller undoes the moves on the graph).

    Parameters
    ----------
    graph:
        The bound (mutable) host-switch graph; the evaluator snapshots its
        structure and thereafter trusts the move deltas.
    fallback_fraction:
        Repair-vs-rebuild threshold: when one proposal's affected rows
        exceed this fraction of ``m``, every row is recomputed in one
        batched BFS instead.  ``0.0`` forces the full rebuild on every
        proposal (useful for testing the fallback path).
    oracle:
        Cross-check every proposal against the non-incremental metrics
        (slow; testing only).
    telemetry:
        Optional :class:`repro.obs.TelemetryRegistry`; when enabled, the
        evaluator feeds a repaired-rows-per-move histogram and the kernel
        row-throughput instruments in addition to the always-on ``stats``
        dict.
    """

    def __init__(
        self,
        graph: HostSwitchGraph,
        *,
        fallback_fraction: float = 0.5,
        oracle: bool = False,
        telemetry: TelemetryRegistry | None = None,
    ) -> None:
        if not 0.0 <= fallback_fraction <= 1.0:
            raise ValueError(
                f"fallback_fraction must be in [0, 1], got {fallback_fraction}"
            )
        if graph.num_hosts < 2:
            raise ValueError(
                f"h-ASPL needs at least 2 hosts, graph has {graph.num_hosts}"
            )
        self._graph = graph
        self._oracle = oracle
        m = graph.num_switches
        self._row_budget = int(fallback_fraction * m)
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._bfs_timer = self._bfs_counter = None
        self._rows_hist: Histogram | None = None
        if tel.enabled:
            self._bfs_timer = tel.timer(_KERNEL_BFS_TIMER)
            self._bfs_counter = tel.counter(_KERNEL_BFS_ROWS)
            self._rows_hist = tel.histogram(
                "evaluator.repaired_rows_per_move", _ROWS_BOUNDS
            )
        self._csr = CSRAdjacency.from_graph(graph)
        self._dist = self._bfs(self._csr, np.arange(m))
        self._k = graph.host_counts().astype(np.float64)
        self._n = graph.num_hosts
        self._value, self._weighted = self._evaluate(self._dist, self._k)
        self._pending: (
            tuple[CSRAdjacency, np.ndarray | None,
                  list[tuple[np.ndarray, np.ndarray]],
                  np.ndarray, float, float] | None
        )
        self._pending = None
        self.stats = {
            "proposals": 0,
            "fallbacks": 0,
            "repaired_rows": 0,
            "oracle_checks": 0,
        }

    def _bfs(
        self,
        csr: CSRAdjacency,
        rows: np.ndarray,
        targets: np.ndarray | None = None,
    ) -> np.ndarray:
        return _timed_bfs(csr, rows, self._bfs_timer, self._bfs_counter, targets)

    # ------------------------------------------------------------------ #
    # Value computation
    # ------------------------------------------------------------------ #

    @property
    def value(self) -> float:
        """h-ASPL of the committed state (matches ``metrics.h_aspl``)."""
        return self._value

    @property
    def weighted_sum(self) -> float:
        """The running weighted sum ``sum k_a k_b (d(a,b) + 2)`` (or inf)."""
        return self._weighted

    def _evaluate(self, dist: np.ndarray, k: np.ndarray) -> tuple[float, float]:
        """``(h_aspl, weighted_sum)`` from a distance matrix and counts."""
        bearing = np.flatnonzero(k > 0)
        kb = k[bearing]
        if len(bearing) == dist.shape[0]:
            sub = dist
        else:
            sub = dist[np.ix_(bearing, bearing)]
        if np.isinf(sub).any():
            return float("inf"), float("inf")
        n = self._n
        weighted = _weighted_host_distance_sum(sub, kb)
        return float((0.5 * weighted - n) / (n * (n - 1) / 2.0)), weighted

    def _block_delta(
        self,
        dw: float,
        rows: np.ndarray,
        old: np.ndarray,
        new: np.ndarray,
        finite: bool = False,
    ) -> tuple[float, bool]:
        """Fold one repair step's block delta into the running weighted sum.

        The step changed exactly the ``rows x rows`` block, so its exact
        contribution (with the *committed* host counts — swing deltas are
        applied afterwards, term by term) is the quadratic form
        ``k[rows] @ (new - old) @ k[rows]`` restricted to host-bearing
        rows.  Returns ``(dw, False)`` when the new block holds an
        ``inf`` at a bearing pair (the move disconnects hosts) — the
        caller then falls back to the full double sum.  Bearing entries
        of ``old`` are finite by induction (the committed sum was finite
        and every previous step passed this same check), so the
        subtraction never sees ``inf - inf``.  Insertion steps pass
        ``finite=True`` to skip the scan: their block is an elementwise
        ``min`` against the old one, so finiteness is inherited.
        """
        kr = self._k[rows]
        bsel = kr > 0
        if bsel.all():  # the common case: every touched switch bears hosts
            sub_new, sub_old, kb = new, old, kr
        elif not bsel.any():
            return dw, True
        else:
            sub_new = new[bsel][:, bsel]
            sub_old = old[bsel][:, bsel]
            kb = kr[bsel]
        if not finite and not np.isfinite(sub_new).all():
            return dw, False
        return dw + float(kb @ (sub_new - sub_old) @ kb), True

    def _host_delta_weighted(
        self,
        dist: np.ndarray,
        host_deltas: list[tuple[int, int]],
        weighted: float,
    ) -> float | None:
        """Apply swing host-count deltas to the weighted sum, term by term.

        Changing ``k[s]`` by ``d`` against the (already repaired) matrix
        adds ``2 d sum_b k_b (d(s,b) + 2) + 2 d^2`` — with the diagonal
        convention ``d(s,s) + 2 = 2`` folded in by reading the full row.
        Returns ``None`` when ``s`` cannot reach a bearing switch (value
        is ``inf`` territory; the caller falls back to the full sum).
        """
        k_run = self._k.copy()
        for s, d in host_deltas:
            bearing = np.flatnonzero(k_run > 0)
            row = dist[s][bearing]
            if np.isinf(row).any():
                return None
            w = float((row + 2.0) @ k_run[bearing])
            weighted = weighted + 2.0 * d * w + 2.0 * (d * d)
            k_run[s] += d
        return weighted

    # ------------------------------------------------------------------ #
    # propose / commit / rollback
    # ------------------------------------------------------------------ #

    def propose(self, moves: Move | Sequence[Move]) -> float:
        """Candidate h-ASPL after ``moves`` (already applied to the graph).

        The committed state is untouched semantically (the in-place row
        edits are journaled and undone by :meth:`rollback`); call
        :meth:`commit` to adopt the candidate or :meth:`rollback` to
        discard it.  A second ``propose`` before either is a protocol
        error.
        """
        if self._pending is not None:
            raise IncrementalEvaluatorError(
                "propose() called with a proposal already pending; "
                "commit() or rollback() first"
            )
        removed, added, host_deltas = self._aggregate(moves)
        self.stats["proposals"] += 1

        csr = self._csr
        dist = self._dist
        journal: list[tuple[np.ndarray, np.ndarray]] = []
        exact = True  # False once the row budget is blown (full rebuild)
        delta_ok = math.isfinite(self._weighted)
        dw = 0.0
        repaired = 0
        for u, v in removed:
            csr = csr.with_edge_removed(u, v)
            if not exact:
                continue
            rows = _affected_sources(dist, csr, u, v)
            repaired += len(rows)
            if repaired > self._row_budget:
                exact = False
                continue
            if len(rows):
                ri, ci = rows[:, None], rows[None, :]
                old = dist[ri, ci]
                new = self._bfs(csr, rows, targets=rows)
                journal.append((rows, old))
                dist[ri, ci] = new
                if delta_ok:
                    dw, delta_ok = self._block_delta(dw, rows, old, new)
        for u, v in added:
            csr = csr.with_edge_added(u, v)
            if not exact:
                continue
            rows = _insertion_affected(dist, u, v)
            if len(rows):
                new = _insertion_block(dist, rows, u, v)
                ri, ci = rows[:, None], rows[None, :]
                old = dist[ri, ci]
                journal.append((rows, old))
                dist[ri, ci] = new
                if delta_ok:
                    dw, delta_ok = self._block_delta(dw, rows, old, new, finite=True)

        new_dist: np.ndarray | None = None
        if not exact:
            self.stats["fallbacks"] += 1
            new_dist = self._bfs(csr, np.arange(csr.num_switches))
        else:
            self.stats["repaired_rows"] += repaired
            if self._rows_hist is not None:
                self._rows_hist.observe(repaired)

        k = self._k
        if host_deltas:
            k = k.copy()
            for switch, delta in host_deltas:
                k[switch] += delta

        value: float | None = None
        weighted = self._weighted + dw
        if exact and delta_ok:
            if host_deltas:
                maybe = self._host_delta_weighted(dist, host_deltas, weighted)
            else:
                maybe = weighted
            if maybe is not None:
                n = self._n
                weighted = maybe
                value = float((0.5 * weighted - n) / (n * (n - 1) / 2.0))
        if value is None:
            target = new_dist if new_dist is not None else dist
            value, weighted = self._evaluate(target, k)
        if self._oracle:
            self._oracle_check(new_dist if new_dist is not None else dist, k, value)
        self._pending = (csr, new_dist, journal, k, value, weighted)
        return value

    def commit(self) -> None:
        """Adopt the pending proposal as the committed state."""
        if self._pending is None:
            raise IncrementalEvaluatorError("commit() without a pending proposal")
        csr, new_dist, _journal, k, value, weighted = self._pending
        self._csr = csr
        if new_dist is not None:
            self._dist = new_dist
        self._k = k
        self._value = value
        self._weighted = weighted
        self._pending = None

    def rollback(self) -> None:
        """Discard the pending proposal (restores journaled blocks in place).

        Blocks are restored newest-first: later steps' blocks may overlap
        earlier ones, and reverse order replays the edit history backwards.
        """
        if self._pending is None:
            raise IncrementalEvaluatorError("rollback() without a pending proposal")
        _csr, _new_dist, journal, _k, _value, _weighted = self._pending
        for rows, block in reversed(journal):
            self._dist[rows[:, None], rows[None, :]] = block
        self._pending = None

    def _aggregate(
        self, moves: Move | Sequence[Move]
    ) -> tuple[list[_Edge], list[_Edge], list[tuple[int, int]]]:
        """Net ``(removed, added, host_deltas)`` over a move sequence.

        Edges removed and re-added (or vice versa) within one proposal
        cancel; host-count deltas sum per switch.
        """
        if isinstance(moves, (SwapMove, SwingMove)):
            moves = [moves]
        edge_delta: dict[_Edge, int] = {}
        host_delta: dict[int, int] = {}
        for move in moves:
            removed, added = move.edge_changes()
            for a, b in removed:
                key = (a, b) if a < b else (b, a)
                edge_delta[key] = edge_delta.get(key, 0) - 1
            for a, b in added:
                key = (a, b) if a < b else (b, a)
                edge_delta[key] = edge_delta.get(key, 0) + 1
            for switch, delta in move.host_count_changes():
                host_delta[switch] = host_delta.get(switch, 0) + delta
        removed_net = [e for e, d in edge_delta.items() if d < 0]
        added_net = [e for e, d in edge_delta.items() if d > 0]
        if any(abs(d) > 1 for d in edge_delta.values()):
            raise IncrementalEvaluatorError(
                "move sequence removes or adds the same switch edge twice"
            )
        deltas = [(s, d) for s, d in host_delta.items() if d != 0]
        return removed_net, added_net, deltas

    # ------------------------------------------------------------------ #
    # Verification helpers
    # ------------------------------------------------------------------ #

    def _oracle_check(self, dist: np.ndarray, k: np.ndarray, value: float) -> None:
        """Compare a proposal's scratch state against the full metrics."""
        self.stats["oracle_checks"] += 1
        expected_dist = switch_distance_matrix(self._graph)
        if not np.array_equal(dist, expected_dist):
            bad = int((~np.isclose(dist, expected_dist, equal_nan=False)).sum())
            raise IncrementalEvaluatorError(
                f"oracle: repaired distance matrix diverges from APSP in "
                f"{bad} entries"
            )
        expected_counts = self._graph.host_counts().astype(np.float64)
        if not np.array_equal(k, expected_counts):
            raise IncrementalEvaluatorError(
                "oracle: host-count vector diverges from the graph"
            )
        expected = h_aspl(self._graph)
        same = (
            (math.isinf(expected) and math.isinf(value))
            or expected == value  # repro-lint: disable=REP004 -- oracle demands bit-equality
        )
        if not same:
            raise IncrementalEvaluatorError(
                f"oracle: incremental h-ASPL {value!r} != exact {expected!r}"
            )

    def rebuild(self) -> None:
        """Resynchronise from the bound graph (full APSP; drops pending)."""
        m = self._graph.num_switches
        self._pending = None
        self._csr = CSRAdjacency.from_graph(self._graph)
        self._dist = self._bfs(self._csr, np.arange(m))
        self._k = self._graph.host_counts().astype(np.float64)
        self._n = self._graph.num_hosts
        self._value, self._weighted = self._evaluate(self._dist, self._k)
