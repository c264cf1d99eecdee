"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core.hostswitch import HostSwitchGraph


@pytest.fixture
def fig1_graph() -> HostSwitchGraph:
    """A host-switch graph shaped like the paper's Fig. 1 regime.

    n = 16 hosts, m = 4 switches, r = 6: switches 0-3 in a 4-cycle with one
    diagonal pair each carrying hosts, chosen so distances are non-trivial
    (some host pairs at distance 2, some at 3, some at 4).
    """
    g = HostSwitchGraph(num_switches=4, radix=6)
    g.add_switch_edge(0, 1)
    g.add_switch_edge(1, 2)
    g.add_switch_edge(2, 3)
    g.add_switch_edge(3, 0)
    for s in range(4):
        for _ in range(4):
            g.attach_host(s)
    g.validate()
    return g


@pytest.fixture
def clique4_graph() -> HostSwitchGraph:
    """4 fully-connected switches, 3 hosts each (n=12, m=4, r=6)."""
    g = HostSwitchGraph(num_switches=4, radix=6)
    for a in range(4):
        for b in range(a + 1, 4):
            g.add_switch_edge(a, b)
    for s in range(4):
        for _ in range(3):
            g.attach_host(s)
    g.validate()
    return g


def brute_force_h_aspl(graph: HostSwitchGraph) -> float:
    """Oracle h-ASPL: BFS over the full bipartite-ish vertex graph.

    Deliberately naive (adjacency dict over ("h", i) / ("s", j) vertices,
    plain BFS per host) so it shares no code with the production metric.
    """
    from collections import deque

    adj: dict[tuple, list[tuple]] = {}
    for s in range(graph.num_switches):
        adj[("s", s)] = [("s", b) for b in graph.neighbors(s)]
    for h in range(graph.num_hosts):
        s = graph.host_attachment(h)
        adj[("h", h)] = [("s", s)]
        adj[("s", s)].append(("h", h))

    n = graph.num_hosts
    total = 0
    for h in range(n):
        dist = {("h", h): 0}
        queue = deque([("h", h)])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        for h2 in range(h + 1, n):
            total += dist[("h", h2)]
    return total / (n * (n - 1) / 2)


def oracle_distances(csr, sources, targets=None) -> np.ndarray:
    """Oracle switch distances: scipy's unweighted ``shortest_path``.

    Independent of :mod:`repro.core.kernels` except for reading the CSR
    arrays; returns the kernel's shape, ``(len(sources), m)`` or
    ``(len(sources), len(targets))``, with ``inf`` for unreachable pairs.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    m = csr.num_switches
    sources = np.asarray(sources, dtype=np.int64)
    cols = np.arange(m) if targets is None else np.asarray(targets, dtype=np.int64)
    if len(sources) == 0:
        return np.full((0, len(cols)), np.inf)
    adjacency = csr_matrix(
        (np.ones(len(csr.indices)), csr.indices, csr.indptr), shape=(m, m)
    )
    dist = shortest_path(adjacency, directed=False, unweighted=True, indices=sources)
    return np.atleast_2d(dist)[:, cols]


def use_oracle_evaluator(monkeypatch) -> None:
    """Make ``anneal`` check every proposal bit-for-bit against ``h_aspl``.

    The annealer's evaluator runs in oracle mode for the rest of the test:
    any divergence from the full APSP raises ``IncrementalEvaluatorError``.
    """
    from repro.core import annealing
    from repro.core.incremental import IncrementalEvaluator

    monkeypatch.setattr(
        annealing,
        "IncrementalEvaluator",
        functools.partial(IncrementalEvaluator, oracle=True),
    )
