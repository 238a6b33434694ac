"""A minimal asyncio HTTP/1.1 layer (stdlib only).

The container deliberately carries no web framework — ``aiohttp`` is
optional per the roadmap and absent here — so this module implements
the slice of HTTP/1.1 the serve API needs and nothing more: request
line + headers, ``Content-Length`` bodies, fixed responses, and
close-delimited streaming responses for the NDJSON event feed.  Every
response carries ``Connection: close``; correctness over connection
reuse (the warm path is store-bound, not connection-bound — see
``benchmarks/bench_serve_smoke.py`` for the measured latencies).

Kept free of any knowledge of jobs/brokers: :class:`Request` in,
:class:`Response` out, and an app callable between them: a
FastAPI-style router/transport split, minus the framework.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, AsyncIterator, Awaitable, Callable
from urllib.parse import parse_qs, urlsplit

__all__ = ["Request", "Response", "HttpError", "run_http_server"]

#: Request-size guards: a RunSpec JSON is a few KB; anything bigger is
#: not a spec submission.
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 4 * 1024 * 1024

_REASONS = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class HttpError(Exception):
    """Raise from a handler to produce a JSON error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class Request:
    """One parsed request."""

    __slots__ = ("method", "path", "query", "headers", "body")

    def __init__(
        self,
        method: str,
        target: str,
        headers: dict[str, str],
        body: bytes,
    ) -> None:
        self.method = method
        parts = urlsplit(target)
        self.path = parts.path
        self.query = {k: v[-1] for k, v in parse_qs(parts.query).items()}
        self.headers = headers
        self.body = body

    def json(self) -> Any:
        """The body parsed as JSON (400 on garbage)."""
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}")


class Response:
    """One response: fixed ``body`` bytes, or a ``stream`` of chunks."""

    __slots__ = ("status", "body", "content_type", "stream")

    def __init__(
        self,
        status: int = 200,
        *,
        body: bytes = b"",
        content_type: str = "application/json",
        stream: AsyncIterator[bytes] | None = None,
    ) -> None:
        self.status = status
        self.body = body
        self.content_type = content_type
        self.stream = stream

    @classmethod
    def json(cls, data: Any, status: int = 200) -> "Response":
        return cls(status, body=(json.dumps(data) + "\n").encode("utf-8"))

    @classmethod
    def error(cls, status: int, message: str) -> "Response":
        return cls.json({"error": message, "status": status}, status=status)


Handler = Callable[[Request], Awaitable[Response]]


async def _read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one request off the wire; ``None`` on clean EOF."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # client connected and went away: not an error
        raise HttpError(400, "truncated request head")
    except asyncio.LimitOverrunError:
        raise HttpError(413, "request head too large")
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(413, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, target, version = lines[0].split(" ", 2)
    except ValueError:
        raise HttpError(400, f"malformed request line: {lines[0]!r}")
    if not version.startswith("HTTP/1."):
        raise HttpError(400, f"unsupported protocol {version!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HttpError(400, "chunked request bodies are not supported")
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise HttpError(400, "malformed Content-Length")
    if length < 0:
        raise HttpError(400, "malformed Content-Length")
    if length > MAX_BODY_BYTES:
        # Drain and discard (bounded) so the client finishes its upload
        # and reads the 413 instead of dying on EPIPE mid-write.
        remaining = min(length, 16 * MAX_BODY_BYTES)
        while remaining > 0:
            chunk = await reader.read(min(65536, remaining))
            if not chunk:
                break
            remaining -= len(chunk)
        raise HttpError(413, f"request body over {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    return Request(method.upper(), target, headers, body)


def _head(status: int, content_type: str, length: int | None) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        "Connection: close",
    ]
    if length is not None:
        lines.append(f"Content-Length: {length}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def _write_response(
    writer: asyncio.StreamWriter, response: Response
) -> None:
    if response.stream is None:
        writer.write(
            _head(response.status, response.content_type, len(response.body))
        )
        writer.write(response.body)
        await writer.drain()
        return
    # Streaming: close-delimited body (no Content-Length) — the sole
    # HTTP/1.1-legal framing that costs nothing, and we close anyway.
    writer.write(_head(response.status, response.content_type, None))
    await writer.drain()
    async for chunk in response.stream:
        writer.write(chunk)
        await writer.drain()


async def _handle_connection(
    handler: Handler,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        try:
            request = await _read_request(reader)
            if request is None:
                return
            response = await handler(request)
        except HttpError as exc:
            response = Response.error(exc.status, exc.message)
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            response = Response.error(500, f"{type(exc).__name__}: {exc}")
        await _write_response(writer, response)
    except (ConnectionError, asyncio.IncompleteReadError):
        pass  # client went away mid-exchange; nothing to salvage
    finally:
        try:
            # Half-close first: a forked pool worker holding a copy of
            # this socket would otherwise keep a close-delimited stream
            # from ever reaching end of stream.
            if writer.can_write_eof():
                writer.write_eof()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def run_http_server(
    handler: Handler, host: str, port: int
) -> asyncio.base_events.Server:
    """Start serving ``handler``; returns the listening server object."""
    return await asyncio.start_server(
        lambda r, w: _handle_connection(handler, r, w),
        host,
        port,
        limit=MAX_HEADER_BYTES,
    )
