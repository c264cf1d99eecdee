"""The BFS kernel behind every distance computation in this repo.

``metrics.switch_distance_matrix``, the
:class:`repro.core.incremental.IncrementalEvaluator` row-repair path and
:class:`repro.core.incremental.DynamicDistanceMatrix` all call one
bit-parallel multi-source BFS, :func:`bfs_distances`, over a shared
:class:`CSRAdjacency`.  Tests check it against an independent oracle
(scipy's unweighted ``shortest_path``) on ~300 graphs, disconnected ones
included.
"""

from __future__ import annotations

from repro.core.kernels.bitset import bfs_distances
from repro.core.kernels.csr import CSRAdjacency

__all__ = ["CSRAdjacency", "bfs_distances"]
