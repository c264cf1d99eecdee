"""Tests for campaign spec validation, grid expansion, and point digests."""

from __future__ import annotations

import json

import pytest

from repro.campaign.spec import (
    CAMPAIGN_SPEC_FORMAT,
    POINT_FIELDS,
    ExecutorConfig,
    SpecError,
    canonical_json,
    expand_grid,
    load_spec,
    normalize_point,
    point_digest,
)


class TestNormalizePoint:
    def test_defaults_made_explicit(self):
        out = normalize_point({"n": 64, "r": 8})
        assert out == {
            "n": 64,
            "r": 8,
            "m": None,
            "steps": 20_000,
            "restarts": 1,
            "seed": 0,
            "operation": "two-neighbor-swing",
            "construction": "random",
            "initial_temperature": 0.05,
            "final_temperature": 1e-4,
        }

    def test_explicit_defaults_digest_identically(self):
        implicit = normalize_point({"n": 64, "r": 8})
        explicit = normalize_point(
            {"n": 64, "r": 8, "steps": 20_000, "seed": 0, "restarts": 1}
        )
        assert point_digest(implicit) == point_digest(explicit)

    def test_missing_required_field(self):
        with pytest.raises(SpecError, match="required field 'r'"):
            normalize_point({"n": 64})

    def test_unknown_field(self):
        with pytest.raises(SpecError, match="unknown point field"):
            normalize_point({"n": 64, "r": 8, "temperature": 1.0})

    def test_wrong_type(self):
        with pytest.raises(SpecError, match="'steps' must be"):
            normalize_point({"n": 64, "r": 8, "steps": "many"})

    def test_bool_is_not_int(self):
        with pytest.raises(SpecError, match="'seed' must be"):
            normalize_point({"n": 64, "r": 8, "seed": True})

    def test_out_of_range(self):
        with pytest.raises(SpecError, match="'n' must be >= 1"):
            normalize_point({"n": 0, "r": 8})
        with pytest.raises(SpecError, match="'m' must be >= 1"):
            normalize_point({"n": 64, "r": 8, "m": 0})

    def test_bad_operation_and_construction(self):
        with pytest.raises(SpecError, match="operation"):
            normalize_point({"n": 64, "r": 8, "operation": "shuffle"})
        with pytest.raises(SpecError, match="construction"):
            normalize_point({"n": 64, "r": 8, "construction": "clever"})

    def test_bad_temperature_ordering(self):
        with pytest.raises(SpecError, match="final_temperature"):
            normalize_point(
                {"n": 64, "r": 8, "initial_temperature": 0.01,
                 "final_temperature": 0.1}
            )

    def test_int_temperatures_coerced_to_float(self):
        out = normalize_point(
            {"n": 64, "r": 8, "initial_temperature": 1, "final_temperature": 1}
        )
        assert isinstance(out["initial_temperature"], float)
        assert isinstance(out["final_temperature"], float)

    def test_int_temperature_digests_like_float(self):
        a = point_digest({"n": 64, "r": 8, "initial_temperature": 1,
                          "final_temperature": 1})
        b = point_digest({"n": 64, "r": 8, "initial_temperature": 1.0,
                          "final_temperature": 1.0})
        assert a == b


class TestPointDigest:
    def test_key_order_does_not_matter(self):
        a = point_digest({"n": 64, "r": 8, "seed": 3})
        b = point_digest({"seed": 3, "r": 8, "n": 64})
        assert a == b

    def test_value_change_changes_digest(self):
        base = point_digest({"n": 64, "r": 8})
        for override in ({"seed": 1}, {"steps": 100}, {"m": 12},
                         {"operation": "swap"}):
            assert point_digest({"n": 64, "r": 8, **override}) != base

    def test_digest_is_stable_across_processes(self):
        # A golden value: the digest is content, not an id() — changing it
        # silently orphans every existing store.
        assert point_digest({"n": 64, "r": 8}) == (
            point_digest(dict(normalize_point({"n": 64, "r": 8})))
        )
        assert len(point_digest({"n": 64, "r": 8})) == 64

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})


class TestExpandGrid:
    def test_cartesian_product_in_sorted_axis_order(self):
        points = expand_grid({"seed": [0, 1], "r": [8, 12]}, {"n": 64})
        # Axes sorted: r before seed; values in listed order.
        combos = [(p["r"], p["seed"]) for p in points]
        assert combos == [(8, 0), (8, 1), (12, 0), (12, 1)]

    def test_scalar_axis_means_single_value(self):
        points = expand_grid({"n": 64, "r": [8, 12]})
        assert [p["n"] for p in points] == [64, 64]

    def test_points_are_normalized(self):
        (point,) = expand_grid({"n": [64], "r": [8]})
        assert set(point) == set(POINT_FIELDS)

    def test_grid_defaults_overlap_rejected(self):
        with pytest.raises(SpecError, match="both grid and defaults"):
            expand_grid({"n": [64], "r": [8]}, {"n": 128})

    def test_duplicate_points_rejected(self):
        with pytest.raises(SpecError, match="duplicate point"):
            expand_grid({"n": [64, 64], "r": [8]})

    def test_empty_axis_rejected(self):
        with pytest.raises(SpecError, match="axis 'seed' is empty"):
            expand_grid({"n": [64], "r": [8], "seed": []})

    def test_empty_grid_rejected(self):
        with pytest.raises(SpecError, match="non-empty"):
            expand_grid({})


class TestLoadSpec:
    def spec_doc(self, **overrides):
        doc = {
            "name": "unit-spec",
            "grid": {"n": [32], "r": [6], "seed": [0, 1]},
            "defaults": {"steps": 500},
        }
        doc.update(overrides)
        return doc

    def test_valid_spec(self):
        spec = load_spec(self.spec_doc())
        assert spec.name == "unit-spec"
        assert len(spec.points) == 2
        assert len(spec.digests()) == 2
        assert spec.executor == ExecutorConfig()
        assert spec.raw["grid"] == {"n": [32], "r": [6], "seed": [0, 1]}

    def test_spec_round_trips_through_json(self):
        doc = json.loads(json.dumps(self.spec_doc()))
        assert load_spec(doc).digests() == load_spec(self.spec_doc()).digests()

    def test_explicit_format_accepted(self):
        assert load_spec(self.spec_doc(format=CAMPAIGN_SPEC_FORMAT)).name == "unit-spec"

    def test_unknown_format_rejected(self):
        with pytest.raises(SpecError, match="unsupported spec format"):
            load_spec(self.spec_doc(format="repro.campaign.spec/v99"))

    def test_non_dict_rejected(self):
        with pytest.raises(SpecError, match="JSON object"):
            load_spec(["not", "a", "spec"])

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(SpecError, match="unknown spec field"):
            load_spec(self.spec_doc(points=[{"n": 1}]))

    @pytest.mark.parametrize("name", [None, "", "with space", "/abs", ".dot", 7])
    def test_bad_names_rejected(self, name):
        with pytest.raises(SpecError, match="name"):
            load_spec(self.spec_doc(name=name))

    def test_executor_parsed(self):
        spec = load_spec(
            self.spec_doc(
                executor={"jobs": 3, "checkpoint_every": 50, "timeout_s": 10,
                          "retries": 2, "backoff_s": 0.5}
            )
        )
        assert spec.executor == ExecutorConfig(
            jobs=3, checkpoint_every=50, timeout_s=10, retries=2, backoff_s=0.5
        )

    def test_unknown_executor_field_rejected(self):
        with pytest.raises(SpecError, match="unknown executor field"):
            load_spec(self.spec_doc(executor={"workers": 4}))

    def test_executor_type_check(self):
        with pytest.raises(SpecError, match="executor field 'jobs'"):
            load_spec(self.spec_doc(executor={"jobs": "all"}))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"jobs": 0},
            {"checkpoint_every": 0},
            {"timeout_s": 0},
            {"retries": -1},
            {"backoff_s": -0.1},
        ],
    )
    def test_executor_range_check(self, kwargs):
        with pytest.raises(SpecError):
            ExecutorConfig(**kwargs)
