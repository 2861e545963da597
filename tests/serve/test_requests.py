"""Request model: round-trips, digests, canonical payloads."""

import dataclasses
import enum
import json

import numpy as np
import pytest

from repro.serve.requests import (
    RequestError,
    ServeRequest,
    ServeResponse,
    execute_request_cell,
    payload_digest,
    stats_payload,
)
from repro.serve.traffic import build_universe


class TestServeRequest:
    def test_round_trip(self):
        request = ServeRequest(workload="kmp", engine="multi",
                               n_blocks=3, config={"history_length": 6})
        rebuilt = ServeRequest.from_dict(request.to_dict())
        assert rebuilt == request
        assert rebuilt.digest() == request.digest()

    def test_digest_is_content_addressed(self):
        a = ServeRequest(workload="kmp", budget=2000)
        b = ServeRequest(workload="kmp", budget=2000)
        c = ServeRequest(workload="kmp", budget=2001)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    def test_unknown_fields_rejected(self):
        with pytest.raises(RequestError, match="unknown request fields"):
            ServeRequest.from_dict({"workload": "kmp", "bogus": 1})

    def test_bad_engine_rejected(self):
        with pytest.raises(RequestError, match="engine"):
            ServeRequest(workload="kmp", engine="warp")

    def test_unknown_workload_rejected_by_validate(self):
        request = ServeRequest(workload="nosuch")
        with pytest.raises(RequestError, match="unknown workload"):
            request.validate()

    def test_invalid_config_rejected_by_validate(self):
        request = ServeRequest(workload="kmp",
                               config={"history_length": -3})
        with pytest.raises(RequestError):
            request.validate()

    def test_canonical_json_is_pinned(self):
        # The store and single-flight key on these bytes: any change to
        # the encoding orphans every stored answer and breaks dedup.
        btb = ServeRequest(workload="kmp", engine="single",
                           geometry_kind="extend", block_width=4,
                           budget=2000,
                           config={"target_kind": "btb", "near_block": True,
                                   "bit_entries": None,
                                   "history_length": 6})
        assert btb.canonical_json() == (
            '{"block_width":4,"budget":2000,"config":{"bit_entries":null,'
            '"history_length":6,"near_block":true,"target_kind":"btb"},'
            '"engine":"single","geometry_kind":"extend","n_blocks":2,'
            '"workload":"kmp"}')
        assert btb.digest() == "6a3afc28cf794ac2"
        plain = ServeRequest(workload="compress")
        assert plain.canonical_json() == (
            '{"block_width":8,"budget":4000,"config":{},"engine":"dual",'
            '"geometry_kind":"align","n_blocks":2,"workload":"compress"}')
        assert plain.digest() == "28f4f83fcf4832f2"

    def test_to_dict_equals_asdict(self):
        for request in build_universe(1, 300):
            data = request.to_dict()
            assert data == dataclasses.asdict(request)
            assert list(data) == list(dataclasses.asdict(request))
            assert data["config"] is not request.config

    @pytest.mark.parametrize("config", [
        {"history_length": {1}},
        {"history_length": [6]},
        {"history_length": {"n": 6}},
        {"history_length": np.int64(6)},
        {"history_length": enum.IntEnum("E", "A").A},
        {1: 6},
    ])
    def test_non_scalar_config_is_a_request_error(self, config):
        with pytest.raises(RequestError, match="config must map"):
            ServeRequest(workload="li", config=config)

    @pytest.mark.parametrize("fields", [
        {"workload": {1}}, {"workload": None}, {"block_width": 8.5},
        {"block_width": "8"}, {"budget": True}, {"n_blocks": 2.0}])
    def test_mistyped_field_is_a_request_error(self, fields):
        with pytest.raises(RequestError, match="must be a"):
            ServeRequest(**{"workload": "kmp", **fields})

    def test_non_dict_config_is_a_request_error(self):
        with pytest.raises(RequestError, match="config must be a dict"):
            ServeRequest.from_dict({"workload": "li", "config": [1]})

    def test_json_scalar_config_values_are_accepted(self):
        request = ServeRequest(workload="kmp", config={
            "near_block": False, "history_length": 6, "bit_entries": None,
            "target_kind": "nls", "scale": 1.5})
        assert json.loads(request.canonical_json())["config"]["scale"] == 1.5

    def test_label_mentions_workload_and_engine(self):
        request = ServeRequest(workload="kmp", engine="two_ahead")
        assert "kmp" in request.label()
        assert "two_ahead" in request.label()


class TestPayloads:
    def test_payload_matches_direct_run(self):
        request = ServeRequest(workload="kmp", engine="dual", budget=2000)
        payload = stats_payload(request.run())
        assert payload["n_instructions"] > 0
        assert payload["n_branches"] > 0
        # Canonical encoding is JSON-stable and digestable.
        encoded = json.dumps(payload, sort_keys=True)
        assert json.loads(encoded) == payload
        assert len(payload_digest(payload)) == 64

    def test_payload_digest_is_deterministic(self):
        request = ServeRequest(workload="kmp", engine="single",
                               budget=2000)
        first = payload_digest(stats_payload(request.run()))
        second = payload_digest(stats_payload(request.run()))
        assert first == second


class TestExecuteRequestCell:
    def test_ok_cell(self):
        request = ServeRequest(workload="kmp", budget=2000)
        out = execute_request_cell((request.to_dict(), 0))
        assert out["ok"] is True
        assert out["payload"]["n_instructions"] > 0

    def test_failure_is_typed_not_raised(self):
        request = ServeRequest(workload="nosuch", budget=2000)
        out = execute_request_cell((request.to_dict(), 0))
        assert out["ok"] is False
        assert out["error_type"] == "KeyError"

    def test_fail_fault_becomes_typed_payload(self, monkeypatch):
        from repro.runtime import faults

        request = ServeRequest(workload="kmp", budget=2000)
        monkeypatch.setenv(faults.FAULTS_ENV,
                           f"fail:request={request.digest()[:8]}")
        out = execute_request_cell((request.to_dict(), 0))
        assert out == {"ok": False, "error_type": "FaultInjected",
                       "error": out["error"]}
        # The next service attempt runs clean.
        out = execute_request_cell((request.to_dict(), 1))
        assert out["ok"] is True


class TestServeResponse:
    def test_to_dict_round_trips_through_json(self):
        response = ServeResponse(request_digest="ab", workload="kmp",
                                 status="served", rung="fast",
                                 payload={"n_blocks": 1},
                                 payload_digest="ff")
        data = json.loads(json.dumps(response.to_dict()))
        assert data["status"] == "served"
        assert data["rung"] == "fast"
        assert response.ok
