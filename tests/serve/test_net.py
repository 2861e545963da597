"""JSON-lines TCP frontend: typed answers for good and bad input."""

import asyncio
import json

from repro.serve import PredictionService, ServeRequest
from repro.serve.net import _answer, bound_port, start_server


def test_non_scalar_config_is_a_typed_bad_request():
    # Decoding fails before the service is reached, so none is needed.
    answer = asyncio.run(_answer(None, {
        "id": 7, "workload": "li", "config": {"history_length": [1]}}))
    assert answer["id"] == 7
    assert (answer["status"], answer["error_type"]) == ("failed",
                                                        "BadRequest")


def test_round_trip_and_typed_errors():
    request = ServeRequest(workload="kmp", engine="dual", budget=2000)

    async def body():
        async with PredictionService(queue_limit=16, batch_limit=8,
                                     jobs=2) as service:
            server = await start_server(service, "127.0.0.1", 0)
            port = bound_port(server)
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           port)
            lines = [
                json.dumps({"id": 1, **request.to_dict()}),
                "this is not json",
                json.dumps({"id": 2, "workload": "kmp",
                            "bogus_field": True}),
                json.dumps({"id": 3, **request.to_dict()}),
            ]
            writer.write(("\n".join(lines) + "\n").encode())
            await writer.drain()
            answers = []
            for _ in lines:
                answers.append(json.loads(await reader.readline()))
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            return answers

    served, bad_json, bad_field, cached = asyncio.run(body())
    assert served["id"] == 1
    assert served["status"] == "served"
    assert served["rung"] == "fast"
    assert served["payload"]["n_instructions"] > 0

    assert bad_json["status"] == "failed"
    assert bad_json["error_type"] == "BadRequest"

    assert bad_field["id"] == 2
    assert bad_field["error_type"] == "BadRequest"

    assert cached["id"] == 3
    assert cached["status"] == "served"
    assert cached["rung"] == "cached"
    assert cached["payload_digest"] == served["payload_digest"]
