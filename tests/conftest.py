import gc
import sys
from collections import deque
from pathlib import Path

import pytest

from flatproxy.core import FlowKey, Message, Proto
from flatproxy.l7 import HttpReader, MalformedHttp
from flatproxy.vq import MAX_DESCRIPTOR_BYTES


EXAMPLE_CONFIG = Path("configs/http_routing.yaml")


def make_flow(sip="1.1.1.1", sport=40000, dip="10.0.0.2", dport=8080):
    from flatproxy.core import ip4_to_int

    return FlowKey(
        sip=ip4_to_int(sip), sport=sport, dip=ip4_to_int(dip), dport=dport,
        proto=Proto.TCP,
    )


def make_request(path=b"/svc/a", host=b"x", body=b"", method=b"GET",
                 extra_headers=()):
    lines = [method + b" " + path + b" HTTP/1.1", b"Host: " + host]
    for h in extra_headers:
        lines.append(h)
    if body:
        lines.append(b"Content-Length: " + str(len(body)).encode())
    return b"\r\n".join(lines) + b"\r\n\r\n" + body


def make_message(payload, flow=None):
    return Message(flow or make_flow(), payload)


def flow_message(rt, payload, flow=None):
    """A message of `flow` that carries the flow's record in runtime `rt`,
    built by `open_flow`, as for an accepted live client, if it has none."""
    flow = flow or make_flow()
    conn = rt.conns.get(flow) or rt.open_flow(flow)
    return Message(flow, payload, None, conn)


class MessageReader:
    """A blocking client's reader: `read()` pulls from `recv(n)`, a
    blocking socket's recv, until `l7.HttpReader` has cut a message, and
    returns it, leaving its head in `head`; b'' on clean EOF.  Raises
    MalformedHttp on a block the reader could not frame or a stream that
    ends mid-message."""

    def __init__(self, recv):
        self._recv = recv
        self._reader = HttpReader()
        self._taken = deque()
        self.head = None

    def read(self) -> bytes:
        while not self._taken:
            data = self._recv(MAX_DESCRIPTOR_BYTES)
            if not data:
                if self._reader.held:
                    raise MalformedHttp("connection closed mid-message")
                return b""
            self._taken.extend(self._reader.take(data))
        data, self.head = self._taken.popleft()
        if self.head is None:
            raise MalformedHttp(f"cannot be framed: {data[:40]!r}")
        return data


@pytest.fixture
def example_config_path():
    return EXAMPLE_CONFIG


# a request whose two Host lines name a denied host and an allowed one
DUPLICATE_HOST = b"GET /svc/a HTTP/1.1\r\nHost: internal\r\nHost: x\r\n\r\n"


def host_denied_config_text(**kw):
    """`config_text`, with a rule denying requests to Host `internal` after
    the one denying /admin."""
    return config_text(**kw).replace(
        "    path_prefix: /admin\n",
        "    path_prefix: /admin\n  - decision: DENY\n    host: internal\n")


def config_text(endpoint_ports=(9001, 9002), policy="ROUND_ROBIN",
                dip="10.0.0.2", dport=8080, filters=True,
                path_pattern="/svc/", endpoint_host="127.0.0.1", unhealthy=()):
    eps = "\n".join(
        f"      - address: {endpoint_host}\n        port: {p}\n        weight: 1"
        + ("\n        healthy: false" if p in unhealthy else "")
        for p in endpoint_ports
    )
    filt = (
        "filters:\n  - decision: DENY\n    path_prefix: /admin\n" if filters else ""
    )
    return f"""
listeners:
  - name: web
    dip: {dip}
    dport: {dport}
{filt}routes:
  - listener: web
    path_matchers:
      - kind: PREFIX
        pattern: {path_pattern}
    cluster: backend
clusters:
  - ref: backend
    policy: {policy}
    endpoints:
{eps}
"""


def profiled(calls, fn, *args):
    """`fn(*args)`, with each Python-level call it makes counted in `calls`
    by qualified name, as a `sys.setprofile` "call" event.  The collector
    is off meanwhile: a collection's callback is no call of `fn`'s."""
    def count(frame_, event, arg):
        if event == "call":
            calls[frame_.f_code.co_qualname] += 1

    gc.disable()
    sys.setprofile(count)
    try:
        return fn(*args)
    finally:
        sys.setprofile(None)
        gc.enable()
