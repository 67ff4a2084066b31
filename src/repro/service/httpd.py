"""Stdlib asyncio HTTP/1.1 JSON server: the wire protocol only.

One request per connection, ``Connection: close``, JSON bodies.  The
routes live in :class:`repro.service.daemon.SimulationService`, which
hands its dispatcher to :class:`JsonHttpServer`.
"""

from __future__ import annotations

import asyncio
import json
from typing import Callable

from .. import __version__

#: What a route returns: (status, extra headers, body, endpoint label).
Response = tuple[int, dict[str, str], bytes, str]

MAX_BODY_BYTES = 4 * 1024 * 1024

REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """Terminate request handling with a specific status + JSON error."""

    def __init__(self, status: int, message: str,
                 headers: dict[str, str] | None = None):
        self.status = status
        self.message = message
        self.headers = headers or {}


def json_bytes(payload) -> bytes:
    return (json.dumps(payload, indent=2) + "\n").encode()


class JsonHttpServer:
    """Minimal HTTP/1.1 listener over ``asyncio.start_server``.

    Owns only the wire protocol.  ``route(method, path, body)`` returns
    ``(status, extra headers, body, endpoint label)`` or raises
    :class:`HttpError`; ``on_response(endpoint, status)`` is called once
    per response, errors included.
    """

    def __init__(self, route: Callable[[str, str, bytes], Response],
                 on_response: Callable[[str, int], None]) -> None:
        self.route = route
        self.on_response = on_response
        self._server: asyncio.AbstractServer | None = None
        self.port: int | None = None   # bound port (after bind)

    async def bind(self, host: str, port: int) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, host, port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def close_server(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # ------------------------------------------------------------------ http
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        endpoint = "?"
        try:
            status, headers, payload, endpoint = await self._handle_request(
                reader)
        except HttpError as exc:
            status = exc.status
            headers = dict(exc.headers)
            payload = json_bytes({"error": exc.message, "status": status})
        except (asyncio.IncompleteReadError, ConnectionError,
                asyncio.TimeoutError):
            writer.close()
            return
        except Exception as exc:  # never let one request kill the daemon
            status, headers = 500, {}
            payload = json_bytes({"error": f"internal error: {exc}",
                                  "status": 500})
        self.on_response(endpoint, status)
        reason = REASONS.get(status, "Unknown")
        head = [f"HTTP/1.1 {status} {reason}"]
        base = {
            "Content-Type": "application/json; charset=utf-8",
            "Content-Length": str(len(payload)),
            "Connection": "close",
            "Server": f"repro-serve/{__version__}",
        }
        base.update(headers)
        head += [f"{k}: {v}" for k, v in base.items()]
        try:
            writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + payload)
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass

    async def _handle_request(self, reader: asyncio.StreamReader) -> Response:
        request_line = await asyncio.wait_for(reader.readline(), 30.0)
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise HttpError(400, "malformed request line")
        method, target, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = await asyncio.wait_for(reader.readline(), 30.0)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise HttpError(413, f"body too large (max {MAX_BODY_BYTES}B)")
        body = (await asyncio.wait_for(reader.readexactly(length), 30.0)
                if length else b"")
        path = target.split("?", 1)[0]
        return self.route(method.upper(), path, body)
