"""Resilience as a first-class campaign point kind (spec/executor/store)."""

from __future__ import annotations

import math

import pytest

from repro.analysis.resilience import ResilienceSweepResult, failure_sweep
from repro.campaign.executor import run_campaign
from repro.campaign.report import format_report, format_status
from repro.campaign.spec import (
    POINT_KINDS,
    SpecError,
    load_spec,
    normalize_point,
    point_digest,
)
from repro.campaign.store import CampaignStore
from repro.obs import MemorySink, TelemetryRegistry


def resilience_spec(name="res-unit", **overrides):
    doc = {
        "name": name,
        "kind": "resilience",
        "grid": {"n": [24], "r": [4], "seed": [0, 1]},
        "defaults": {"m": 12, "failures": 2, "trials": 6, "mode": "link"},
    }
    doc.update(overrides)
    return load_spec(doc)


class TestSpecNormalization:
    def test_point_kinds_registered(self):
        assert POINT_KINDS == ("orp", "resilience", "compose")

    def test_resilience_defaults_made_explicit(self):
        point = normalize_point({"kind": "resilience", "n": 24, "r": 4})
        assert point == {
            "kind": "resilience",
            "n": 24,
            "r": 4,
            "m": None,
            "construction": "random",
            "graph_seed": 0,
            "mode": "link",
            "failures": 1,
            "trials": 50,
            "seed": 0,
        }

    def test_orp_digest_unchanged_by_explicit_kind(self):
        # Pre-PR specs carry no "kind" key; their digests must not move.
        bare = normalize_point({"n": 16, "r": 4, "seed": 3})
        tagged = normalize_point({"n": 16, "r": 4, "seed": 3, "kind": "orp"})
        assert "kind" not in bare
        assert bare == tagged
        assert point_digest(bare) == point_digest(tagged)

    def test_resilience_digest_differs_from_orp(self):
        orp = normalize_point({"n": 24, "r": 4})
        res = normalize_point({"kind": "resilience", "n": 24, "r": 4})
        assert point_digest(orp) != point_digest(res)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecError, match="kind"):
            normalize_point({"kind": "latency", "n": 24, "r": 4})

    def test_validation_errors(self):
        base = {"kind": "resilience", "n": 24, "r": 4}
        with pytest.raises(SpecError, match="mode"):
            normalize_point({**base, "mode": "cable"})
        with pytest.raises(SpecError, match="failures"):
            normalize_point({**base, "failures": 0})
        with pytest.raises(SpecError, match="trials"):
            normalize_point({**base, "trials": 0})
        with pytest.raises(SpecError, match="unknown"):
            normalize_point({**base, "steps": 100})

    def test_top_level_kind_applies_to_all_points(self):
        spec = resilience_spec()
        assert len(spec.points) == 2
        assert all(p["kind"] == "resilience" for p in spec.points)

    def test_kind_in_both_places_rejected(self):
        with pytest.raises(SpecError, match="kind"):
            resilience_spec(defaults={"kind": "resilience", "trials": 6})


class TestExecutorAndStore:
    def test_campaign_runs_on_partitioning_fabric(self, tmp_path):
        # n=24, m=12, r=4 with 2 simultaneous failures partitions some
        # trials: the acceptance scenario — no raise, finite metrics.
        spec = resilience_spec()
        result = run_campaign(spec, tmp_path)
        assert result.count("solved") == 2
        store = CampaignStore(tmp_path, spec.name)
        for digest in spec.digests():
            sweep = store.load_result(digest)
            assert isinstance(sweep, ResilienceSweepResult)
            assert len(sweep.connected_h_aspl) == 6
            assert all(math.isfinite(f) for f in sweep.reachable_pair_fraction)

    def test_warm_rerun_is_cached(self, tmp_path):
        spec = resilience_spec()
        run_campaign(spec, tmp_path)
        second = run_campaign(spec, tmp_path)
        assert second.count("cached") == 2
        assert not second.solver_work_done

    def test_store_round_trip_matches_direct_sweep(self, tmp_path):
        spec = resilience_spec()
        run_campaign(spec, tmp_path)
        store = CampaignStore(tmp_path, spec.name)
        point = spec.points[0]
        stored = store.load_result(point_digest(point))
        from repro.campaign.executor import _build_point_graph

        direct = failure_sweep(
            _build_point_graph(point),
            mode=point["mode"],
            failures=point["failures"],
            trials=point["trials"],
            seed=point["seed"],
        )
        assert stored == direct

    def test_telemetry_trace_has_fault_counters(self, tmp_path):
        registry = TelemetryRegistry()
        sink = MemorySink()
        registry.add_sink(sink)
        spec = resilience_spec()
        run_campaign(spec, tmp_path, telemetry=registry)
        # 2 points x 6 trials x 2 failures injected faults.
        assert registry.counter("faults.injected").value == 24
        names = {r.get("name") for r in sink.events}
        assert "resilience.sweep" in names

    def test_report_renders_resilience_columns(self, tmp_path):
        spec = resilience_spec()
        run_campaign(spec, tmp_path)
        report = format_report(spec, tmp_path)
        assert "degraded" in report
        assert "disc" in report
        assert "2/2 points solved" in report
        status = format_status(spec, tmp_path)
        assert "linkx2" in status
