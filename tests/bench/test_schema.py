"""Tests for the versioned benchmark-result schema."""

import json

import pytest

from repro.bench.schema import (
    EXACT_BLOCKS,
    SCHEMA_NAME,
    SCHEMA_VERSION,
    BenchFormatError,
    BenchResult,
    validate_payload,
)


def sample_result():
    return BenchResult.create(
        "sample_bench",
        parameters={"n_intervals": 100, "benchmark": "applu_in"},
        metrics={"accuracy": 0.92, "edp_improvement": 0.18},
        measured={"samples_per_s": 125_000.0},
        details={"grid": [[1, 2], [3, 4]]},
    )


class TestRoundTrip:
    def test_json_round_trip_is_lossless(self):
        result = sample_result()
        restored = BenchResult.from_payload(json.loads(result.to_json()))
        assert restored == result

    def test_payload_round_trip_is_lossless(self):
        result = sample_result()
        assert BenchResult.from_payload(result.to_payload()) == result

    def test_payload_carries_schema_discriminator_and_version(self):
        payload = sample_result().to_payload()
        assert payload["schema"] == SCHEMA_NAME
        assert payload["version"] == SCHEMA_VERSION

    def test_host_provenance_collected(self):
        host = sample_result().host
        assert host.platform
        assert host.python_version
        assert host.cpu_count >= 1
        assert host.code_version

    def test_comparable_payload_is_identity_plus_exact_blocks(self):
        comparable = sample_result().comparable_payload()
        assert set(comparable) == {"schema", "version", "name", *EXACT_BLOCKS}
        assert EXACT_BLOCKS == ("parameters", "metrics", "details")
        assert comparable["details"] == {"grid": [[1, 2], [3, 4]]}

    def test_comparable_json_is_canonical(self):
        result = sample_result()
        assert result.comparable_json() == json.dumps(
            result.comparable_payload(),
            sort_keys=True,
            separators=(",", ":"),
        )


class TestValidatorRejections:
    def test_rejects_wrong_schema_discriminator(self):
        payload = sample_result().to_payload()
        payload["schema"] = "something.else"
        with pytest.raises(BenchFormatError):
            validate_payload(payload)

    def test_rejects_future_version(self):
        payload = sample_result().to_payload()
        payload["version"] = SCHEMA_VERSION + 1
        with pytest.raises(BenchFormatError):
            validate_payload(payload)

    def test_rejects_empty_name(self):
        with pytest.raises(BenchFormatError):
            BenchResult.create("", metrics={"x": 1.0})

    def test_rejects_non_finite_metric(self):
        with pytest.raises(BenchFormatError):
            BenchResult.create("b", metrics={"x": float("nan")})

    def test_rejects_bool_metric(self):
        with pytest.raises(BenchFormatError):
            BenchResult.create("b", metrics={"x": True})

    def test_rejects_non_scalar_parameter(self):
        with pytest.raises(BenchFormatError):
            BenchResult.create("b", parameters={"grid": [1, 2]})

    def test_rejects_wall_clock_keys_in_comparable_portion(self):
        for key in ("timestamp", "start_datetime", "walltime_s"):
            with pytest.raises(BenchFormatError):
                BenchResult.create("b", metrics={key: 1.0})
            with pytest.raises(BenchFormatError):
                BenchResult.create("b", parameters={key: 1.0})

    def test_wall_clock_keys_allowed_in_measured(self):
        # The measured block is host-varying by contract.
        result = BenchResult.create("b", measured={"elapsed_seconds": 1.5})
        validate_payload(result.to_payload())

    def test_rejects_missing_host(self):
        payload = sample_result().to_payload()
        del payload["host"]
        with pytest.raises(BenchFormatError):
            validate_payload(payload)
