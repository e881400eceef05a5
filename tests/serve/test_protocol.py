"""Unit tests for the handcrafted HTTP framing layer.

Besides the worked examples, two byte-level properties: any bytes a
client sends parse to a request, to ``None`` or to a 4xx
:class:`HttpError`, and any body decodes to a dict or a 400, never to
another exception.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.protocol import (
    MAX_BODY_BYTES,
    STATUS_REASONS,
    HttpError,
    HttpRequest,
    json_response,
    read_request,
    render_response,
)


def _parse(raw: bytes):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(run())


def test_parses_get_with_query_string():
    request = _parse(
        b"GET /metrics?verbose=1&x=a%20b HTTP/1.1\r\n"
        b"Host: localhost\r\n\r\n"
    )
    assert request.method == "GET"
    assert request.path == "/metrics"
    assert request.query == {"verbose": "1", "x": "a b"}
    assert request.headers["host"] == "localhost"
    assert request.body == b""


def test_parses_post_with_content_length_body():
    body = json.dumps({"graph": "karate", "kind": "skyline"}).encode()
    request = _parse(
        b"POST /query HTTP/1.1\r\n"
        b"Content-Type: application/json\r\n"
        + f"Content-Length: {len(body)}\r\n\r\n".encode()
        + body
    )
    assert request.method == "POST"
    assert request.json_body() == {"graph": "karate", "kind": "skyline"}


def test_empty_connection_yields_none():
    assert _parse(b"") is None


@pytest.mark.parametrize(
    "raw, status",
    [
        (b"NOT-HTTP\r\n\r\n", 400),
        (b"GET /x SPDY/3\r\n\r\n", 400),
        (b"GET //[ HTTP/1.1\r\n\r\n", 400),
        (b"GET / HTTP/1.1\r\nbroken header line\r\n\r\n", 400),
        (b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400),
        (b"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
        (
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            411,
        ),
        (
            b"POST / HTTP/1.1\r\nContent-Length: "
            + str(MAX_BODY_BYTES + 1).encode()
            + b"\r\n\r\n",
            413,
        ),
        (b"GET / HTTP/1.1\r\nX: " + b"a" * 20000 + b"\r\n\r\n", 431),
        (b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort", 400),
    ],
)
def test_malformed_requests_carry_reply_status(raw, status):
    with pytest.raises(HttpError) as excinfo:
        _parse(raw)
    assert excinfo.value.status == status


def test_json_body_rejects_non_object_payloads():
    request = HttpRequest(method="POST", path="/query", body=b"[1, 2]")
    with pytest.raises(HttpError) as excinfo:
        request.json_body()
    assert excinfo.value.status == 400
    with pytest.raises(HttpError):
        HttpRequest(method="POST", path="/query", body=b"").json_body()
    with pytest.raises(HttpError):
        HttpRequest(method="POST", path="/query", body=b"{oops").json_body()


def test_render_response_wire_format():
    raw = render_response(200, b'{"ok": true}')
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode().split("\r\n")
    assert lines[0] == "HTTP/1.1 200 OK"
    assert "Content-Length: 12" in lines
    assert "Connection: close" in lines
    assert body == b'{"ok": true}'


def test_json_response_is_deterministic_and_roundtrips():
    first = json_response(429, {"b": 1, "a": 2})
    second = json_response(429, {"a": 2, "b": 1})
    assert first == second  # sorted keys -> stable wire bytes
    assert first.startswith(b"HTTP/1.1 429 Too Many Requests\r\n")
    body = first.partition(b"\r\n\r\n")[2]
    assert json.loads(body) == {"a": 2, "b": 1}


def test_extra_headers_are_emitted():
    raw = json_response(429, {}, extra_headers={"Retry-After": "1"})
    assert b"Retry-After: 1\r\n" in raw


#: Request-shaped bytes: a plausible head (method, target, version,
#: header lines) of random pieces, then a random body.  Pure random
#: bytes rarely get past the request line; these reach the target,
#: header and Content-Length paths too.
_METHODS = st.sampled_from([b"GET", b"POST", b"\xff\x00"])
_TARGETS = st.one_of(
    st.sampled_from(
        [b"/", b"/query?a=1&b", b"//[", b"http://[::1/", b"http://h:x/"]
    ),
    st.binary(max_size=10).filter(lambda target: b" " not in target),
)
_VERSIONS = st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"HTTP/2"])
_HEADERS = st.lists(
    st.one_of(
        st.builds(
            lambda name, value: name + b": " + value,
            st.sampled_from(
                [b"Content-Length", b"Transfer-Encoding", b"Host", b"X"]
            ),
            st.one_of(
                st.sampled_from([b"0", b"2", b"-1", b"1_0", b" 5 ", b"9" * 30]),
                st.binary(max_size=12),
            ),
        ),
        st.binary(max_size=20),
    ),
    max_size=4,
)
_REQUEST_BYTES = st.one_of(
    st.binary(max_size=200),
    st.builds(
        lambda method, target, version, headers, body: b" ".join(
            [method, target, version]
        )
        + b"".join(b"\r\n" + h for h in headers)
        + b"\r\n\r\n"
        + body,
        _METHODS,
        _TARGETS,
        _VERSIONS,
        _HEADERS,
        st.binary(max_size=40),
    ),
)


@settings(max_examples=300, deadline=None)
@given(_REQUEST_BYTES)
def test_arbitrary_bytes_parse_or_raise_4xx(raw):
    try:
        request = _parse(raw)
    except HttpError as exc:
        assert 400 <= exc.status < 500, exc.status
        assert exc.status in STATUS_REASONS
    else:
        assert request is None or isinstance(request, HttpRequest)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=200),
        st.recursive(
            st.none() | st.booleans() | st.floats() | st.text(max_size=8),
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(st.text(max_size=8), inner, max_size=4),
            max_leaves=12,
        ).map(lambda value: json.dumps(value).encode()),
    )
)
def test_arbitrary_bodies_decode_to_dict_or_400(body):
    request = HttpRequest(method="POST", path="/query", body=body)
    try:
        payload = request.json_body()
    except HttpError as exc:
        assert exc.status == 400
    else:
        assert isinstance(payload, dict)
