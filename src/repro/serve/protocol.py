"""Minimal HTTP/1.1 framing for the serving layer.

The server speaks just enough HTTP for ``curl``, ``http.client`` and
load generators: request-line + headers + ``Content-Length`` bodies in,
status-line + headers + body out.  It is handcrafted over asyncio
streams on purpose — the stdlib's ``http.server`` is thread-per-request
and synchronous, which would put a blocking accept loop in front of an
asyncio queue; a ~150-line parser keeps the whole data path on one
event loop with zero new dependencies.

Deliberately unsupported (rejected with an explicit status, never
silently mangled): chunked transfer encoding (411), header blocks past
:data:`MAX_HEADER_BYTES` (431), bodies past :data:`MAX_BODY_BYTES`
(413).  Connections are ``close``-only: one request per connection is
the simplest thing that is correct under client timeouts, and the
serving cost is dominated by graph work, not accept churn.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Mapping, Optional
from urllib.parse import parse_qsl, urlsplit

__all__ = [
    "HttpError",
    "HttpRequest",
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "STATUS_REASONS",
    "json_response",
    "read_request",
    "render_response",
]

#: Upper bound on the request line + header block, in bytes.
MAX_HEADER_BYTES = 16 * 1024

#: Upper bound on a request body, in bytes.  Query payloads are a few
#: hundred bytes of JSON; anything near this limit is a client bug.
MAX_BODY_BYTES = 1024 * 1024

#: Reason phrases for every status the server emits.
STATUS_REASONS: dict[int, str] = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpError(Exception):
    """A malformed or unsupported request, carrying the reply status."""

    def __init__(self, status: int, detail: str):
        super().__init__(detail)
        self.status = status
        self.detail = detail


@dataclass
class HttpRequest:
    """One parsed request."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json_body(self) -> dict:
        """The body decoded as a JSON object (400 on anything else)."""
        if not self.body:
            raise HttpError(400, "request body must be a JSON object")
        # A RecursionError is JSON nested past the decoder's depth
        # limit; a UnicodeDecodeError is a ValueError.
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise HttpError(400, f"invalid JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise HttpError(400, "request body must be a JSON object")
        return payload


async def read_request(reader) -> Optional[HttpRequest]:
    """Parse one request from an asyncio stream reader.

    Returns ``None`` for a connection closed before any bytes arrive
    (clients probing the port, or keep-alive racing our close).  Raises
    :class:`HttpError` for anything malformed.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(400, "connection closed mid-request") from None
    except asyncio.LimitOverrunError:
        raise HttpError(431, "request head exceeds the header limit") from None
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(431, "request head exceeds the header limit")

    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line {lines[0]!r}")
    method, target = parts[0].upper(), parts[1]
    try:
        split = urlsplit(target)
    except ValueError:  # an unclosed "[" in the authority
        raise HttpError(400, f"malformed request target {target!r}") from None
    query = dict(parse_qsl(split.query, keep_blank_values=True))

    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    if headers.get("transfer-encoding"):
        raise HttpError(411, "chunked transfer encoding is not supported")
    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        try:
            length = int(length_header)
        except ValueError:
            raise HttpError(400, f"bad Content-Length {length_header!r}") from None
        if length < 0:
            raise HttpError(400, f"bad Content-Length {length}")
        if length > MAX_BODY_BYTES:
            raise HttpError(413, "request body exceeds the size limit")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise HttpError(400, "connection closed mid-body") from None
    return HttpRequest(
        method=method,
        path=split.path or "/",
        query=query,
        headers=headers,
        body=body,
    )


def render_response(
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    extra_headers: Optional[Mapping[str, str]] = None,
) -> bytes:
    """The full wire form of one response (close-delimited connection)."""
    reason = STATUS_REASONS.get(status, "Unknown")
    head = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    if extra_headers:
        head.extend(f"{name}: {value}" for name, value in extra_headers.items())
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


def json_response(
    status: int,
    payload: dict,
    *,
    extra_headers: Optional[Mapping[str, str]] = None,
) -> bytes:
    """A JSON-encoded response (sorted keys: deterministic on the wire)."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return render_response(status, body, extra_headers=extra_headers)
