"""JSON-lines TCP frontend for the prediction service.

One request per line: a :class:`ServeRequest` dictionary, optionally
carrying ``id`` (echoed back verbatim) and ``deadline`` (seconds).
One response per line: the :class:`ServeResponse` dictionary, or a
typed shed/failure object.  Malformed input never kills a connection —
it gets a typed ``BadRequest`` answer, matching the service's
everything-is-typed contract.
"""

from __future__ import annotations

import asyncio
import json
import sys
from typing import Any, Dict, Optional

from .requests import RequestError, ServeRequest, ServiceOverload
from .service import PredictionService

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8371


async def _answer(service: PredictionService,
                  data: Dict[str, Any]) -> Dict[str, Any]:
    request_id = data.pop("id", None)
    deadline = data.pop("deadline", None)
    try:
        if deadline is not None:
            deadline = float(deadline)
        request = ServeRequest.from_dict(data)
        response = await service.submit(request, deadline=deadline)
        out = response.to_dict()
    except (RequestError, TypeError, ValueError) as exc:
        out = {"status": "failed", "error_type": "BadRequest",
               "error": str(exc)}
    except ServiceOverload as exc:
        out = {"status": "shed", "error_type": "ServiceOverload",
               "error": str(exc), "retry_after": exc.retry_after}
    if request_id is not None:
        out["id"] = request_id
    return out


async def handle_connection(service: PredictionService,
                            reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
    """Serve one client until EOF (one JSON object per line)."""
    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            text = line.decode("utf-8", errors="replace").strip()
            if not text:
                continue
            try:
                data = json.loads(text)
                if not isinstance(data, dict):
                    raise ValueError("request must be a JSON object")
            except ValueError as exc:
                out: Dict[str, Any] = {
                    "status": "failed", "error_type": "BadRequest",
                    "error": f"undecodable request line: {exc}"}
            else:
                out = await _answer(service, data)
            writer.write(json.dumps(out, sort_keys=True).encode("ascii")
                         + b"\n")
            await writer.drain()
    except (ConnectionResetError, BrokenPipeError):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


async def start_server(service: PredictionService,
                       host: str = DEFAULT_HOST,
                       port: int = DEFAULT_PORT,
                       ) -> "asyncio.base_events.Server":
    """Bind the frontend (port 0 picks a free port; see sockets[0])."""

    async def _handler(reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter) -> None:
        await handle_connection(service, reader, writer)

    return await asyncio.start_server(_handler, host, port)


def bound_port(server: "asyncio.base_events.Server") -> int:
    """The actual port a started server listens on."""
    assert server.sockets
    port: int = server.sockets[0].getsockname()[1]
    return port


async def serve_forever(host: str = DEFAULT_HOST,
                        port: int = DEFAULT_PORT,
                        ready: Optional["asyncio.Event"] = None,
                        **settings: Any) -> None:
    """Run a service plus frontend until cancelled (CLI entry).

    ``settings`` are :class:`PredictionService` keyword arguments; a
    bad one raises ``ValueError`` before the port is bound.  The bound
    address goes to stderr once the frontend listens.
    """
    async with PredictionService(**settings) as service:
        server = await start_server(service, host, port)
        print(f"repro.serve listening on {host}:{bound_port(server)} "
              f"(JSON lines; ^C stops)", file=sys.stderr)
        if ready is not None:
            ready.set()
        async with server:
            await server.serve_forever()
