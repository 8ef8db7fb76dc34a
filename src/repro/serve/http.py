"""Minimal JSON-over-HTTP plumbing on asyncio streams.

The routing service speaks a deliberately small HTTP/1.1 subset —
enough for any stdlib or curl client, with **no dependencies beyond
asyncio**: request line + headers + ``Content-Length`` bodies in,
``application/json`` responses out, keep-alive connections by default.
No chunked encoding, no multipart, no TLS — a production deployment
terminates those in the reverse proxy this server is designed to sit
behind.

The parser is strict and bounded: header block and body sizes are
capped, anything malformed answers 400 and closes the connection.
:class:`HttpError` is the one escape hatch handlers use to answer a
non-200 (404, 503 + ``Retry-After``, …) without hand-building a
response.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Mapping

__all__ = [
    "HttpError",
    "Request",
    "read_request",
    "write_response",
]

#: Upper bound on a request body; a routing query is a few KB, a big
#: scenario document maybe tens — 8 MiB is generous, not unbounded.
MAX_BODY_BYTES = 8 << 20

#: Stream read limit (request line / one header line).
LINE_LIMIT = 64 << 10

_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpError(Exception):
    """An HTTP-level failure a handler wants sent as-is."""

    def __init__(
        self,
        status: int,
        message: str,
        headers: Mapping[str, str] | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.headers = dict(headers or {})


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"

    def json(self) -> dict:
        """The body as a JSON object (``{}`` for an empty body)."""
        if not self.body:
            return {}
        try:
            data = json.loads(self.body, parse_constant=_reject_non_finite)
        except json.JSONDecodeError as error:
            raise HttpError(400, f"body is not valid JSON: {error}") from None
        except _NonFiniteLiteral as error:
            # The hook is not told where the token sits; the decoder
            # reads left to right, so it is the first bare one.
            literal = str(error)
            encoding = json.detect_encoding(self.body)
            doc = self.body.decode(encoding, "replace")
            located = json.JSONDecodeError(
                f"{literal} is not a JSON number", doc, _locate(doc, literal)
            )
            raise HttpError(400, f"body is not valid JSON: {located}") from None
        if not isinstance(data, dict):
            raise HttpError(400, "body must be a JSON object")
        return data


class _NonFiniteLiteral(ValueError):
    """A ``NaN``/``Infinity``/``-Infinity`` token in a request body."""


def _reject_non_finite(literal: str):
    # Python's decoder accepts these by default; a NaN radius or
    # timeout would then fail deep in the routing stack as a 500.
    raise _NonFiniteLiteral(literal)


def _locate(doc: str, literal: str) -> int:
    """Index of the first bare ``literal`` outside JSON strings."""
    in_string = escaped = False
    for i, ch in enumerate(doc):
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif doc.startswith(literal, i):
            return i
    return 0  # pragma: no cover - the decoder just met it


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one request; ``None`` on a cleanly closed connection."""
    try:
        line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError):
        raise HttpError(400, "request line too long") from None
    if not line or line in (b"\r\n", b"\n"):
        return None
    try:
        method, target, version = line.decode("latin-1").split()
    except ValueError:
        raise HttpError(400, "malformed request line") from None
    if not version.startswith("HTTP/1."):
        raise HttpError(400, f"unsupported protocol {version!r}")
    headers: dict[str, str] = {}
    while True:
        try:
            raw = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            raise HttpError(400, "header line too long") from None
        if raw in (b"\r\n", b"\n", b""):
            break
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise HttpError(400, f"malformed header {raw!r}")
        headers[name.strip().lower()] = value.strip()
        if len(headers) > 100:
            raise HttpError(400, "too many headers")
    length_header = headers.get("content-length", "0")
    try:
        length = int(length_header)
    except ValueError:
        raise HttpError(
            400, f"bad Content-Length {length_header!r}"
        ) from None
    if length < 0:
        raise HttpError(400, f"bad Content-Length {length_header!r}")
    if length > MAX_BODY_BYTES:
        raise HttpError(413, f"body over {MAX_BODY_BYTES} bytes")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "body shorter than Content-Length") from None
    # The path is matched verbatim; this service defines no query
    # strings, so a "?..." suffix is simply part of a (404) path.
    if version == "HTTP/1.0" and "connection" not in headers:
        headers["connection"] = "close"
    return Request(method=method.upper(), path=target, headers=headers,
                   body=body)


def write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: dict | None,
    *,
    headers: Mapping[str, str] | None = None,
    keep_alive: bool = True,
) -> None:
    """Serialise one JSON response onto the stream (no drain here)."""
    body = b"" if payload is None else (
        json.dumps(payload).encode("utf-8") + b"\n"
    )
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    writer.write(head + body)
