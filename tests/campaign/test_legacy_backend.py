"""Specs and stores written before the kernel ``backend`` field was retired.

``legacy_backend_store/`` is a campaign store written by the release that
still accepted ``backend``: its spec sets ``"backend": "bitset"`` for
every point, point 0 is solved (its ``point.json`` carries the field)
and point 1 was interrupted mid-search, leaving a checkpoint behind.
The field never entered a digest, so the store must resume with no
re-solve and finish with the results that release computed.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

import repro.core.solver as solver_mod
from repro.campaign.executor import run_campaign
from repro.campaign.spec import load_spec, normalize_point, point_digest
from repro.campaign.store import CampaignStore

LEGACY_ROOT = Path(__file__).parent / "legacy_backend_store"
NAME = "legacy-backend"

#: Digests, result-graph digests and h-ASPLs as stored by that release
#: (the graph digests from an uninterrupted run of the same spec).
SOLVED = "9e1ba9012a176c5f4e897af6063aff876d1a4d518c954b2854790b9835f8af64"
INTERRUPTED = "11c3d676ac86fa63f3e10d9c9cb25b1efd1d809e0352d501804daaa13ffb9905"
EXPECTED = {
    SOLVED: ("d245df5bc940aa5bbae228a33c55e0358264d5d32d17338c120215c70d86a354",
             3.4528985507246377),
    INTERRUPTED: ("70daa482c7ded62fa91490bd406be6ab6004760bc870ae4da8557b9dbf58b0ae",
                  3.5652173913043477),
}


@pytest.fixture
def legacy_store(tmp_path) -> Path:
    shutil.copytree(LEGACY_ROOT, tmp_path, dirs_exist_ok=True)
    return tmp_path


def legacy_spec(root: Path):
    return load_spec(json.loads((root / NAME / "spec.json").read_text()))


@pytest.mark.parametrize(
    ("point", "digest"),
    [
        ({"n": 64, "r": 8, "backend": "numba"},
         "b0868bfdac6972e8e5f19db19e0b70c57e23647c4fc859569035c29097aa9333"),
        ({"kind": "resilience", "n": 24, "r": 4, "backend": "python"},
         "d4a80ffccf48ed53a107e47397d5bc2df1e5a41827d009125164193e570ca9b9"),
        ({"kind": "compose", "n": 64, "r": 8, "backend": "auto"},
         "cbc64a444d4e1c2ee98e36b84ba145ab853bfc3bf273fae8a68084846d28b939"),
    ],
)
def test_backend_field_is_dropped_with_digest_unchanged(point, digest):
    assert "backend" not in normalize_point(point)
    assert point_digest(point) == digest


def test_legacy_spec_loads_with_the_same_digests(legacy_store):
    spec = legacy_spec(legacy_store)
    assert spec.digests() == [SOLVED, INTERRUPTED]
    assert all("backend" not in point for point in spec.points)


def test_legacy_store_resumes_without_resolving(legacy_store, monkeypatch):
    resumed_from: list[bool] = []
    anneal = solver_mod.anneal

    def recording_anneal(*args, **kwargs):
        resumed_from.append(kwargs.get("resume_state") is not None)
        return anneal(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "anneal", recording_anneal)
    spec = legacy_spec(legacy_store)
    result = run_campaign(spec, legacy_store)
    assert [o.status for o in result.outcomes] == ["cached", "solved"]
    # Only the interrupted point anneals: restart 0 continues from its
    # checkpoint, restart 1 had not started.
    assert resumed_from == [True, False]

    store = CampaignStore(legacy_store, NAME)
    for digest, (graph_digest, value) in EXPECTED.items():
        assert store.result_graph_digest(digest) == graph_digest
        assert store.load_result(digest).h_aspl == value

    resumed_from.clear()
    warm = run_campaign(legacy_spec(legacy_store), legacy_store)
    assert "2 cached" in warm.summary()
    assert resumed_from == []
