import itertools
import re
import string
from collections import defaultdict
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from flatproxy import l7

from flatproxy.core import Conn, Endpoint, Message, Verdict, ip4_to_int
from flatproxy.l7 import (
    Cluster,
    Decision,
    FilterRule,
    HttpReader,
    LbPolicy,
    LbState,
    MalformedHttp,
    MatchKind,
    NoHealthyEndpoint,
    PathMatcher,
    RouteRule,
    filter_apply,
    frame_http,
    http_deparse,
    http_parse,
    load_balance,
    parse_request,
    route,
)
from flatproxy.vq import MAX_DESCRIPTOR_BYTES
from flatproxy.slow_path import load_config
from conftest import host_denied_config_text, make_flow, make_request


def make_endpoint(i, weight=1, healthy=True):
    return Endpoint(id=f"ep-{i}", address=(0x7F000001, 9000 + i), weight=weight,
                    healthy=healthy)


def parsed_message(payload, flow=None):
    msg = Message(flow or make_flow(), payload)
    http_parse(msg, {}, {})
    return msg


def deparsed(msg, queue=1):
    """The bytes the deparser's step delivers for `msg`, bound to `queue`."""
    msg.queue = queue
    http_deparse(msg, {}, {})
    assert msg.verdict is Verdict.DELIVER and msg.verdict_reason == "deparsed"
    return msg.payload


def filtered(msg, rules):
    """The verdict the filter's step leaves on `msg` under `rules`."""
    filter_apply(msg, {}, {"filters": {"rules": tuple(rules)}})
    assert msg.verdict_reason == (
        "filter" if msg.verdict is Verdict.DROP else None)
    return msg.verdict


# -- parse / deparse ---------------------------------------------------------

def test_parse_basic_request():
    raw = make_request(b"/svc/a", host=b"api", body=b"xy")
    method, url_path, host, body_at = parse_request(raw)
    body = raw[body_at:]
    assert method == b"GET"
    assert url_path == b"/svc/a"
    assert host == b"api"
    assert body == b"xy"


@pytest.mark.parametrize("raw", [
    b"",
    b"GET / HTTP/1.1\r\nHost: h\r\n",           # no terminator
    b"GET /\r\n\r\n",                            # bad request line
    b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",    # bad header
    b"GET / HTTP/1.1\r\nContent-Length: zz\r\n\r\n",
    # a negative or signed length must not cut the body short instead
    b"GET / HTTP/1.1\r\nContent-Length: -3\r\n\r\nabcdef",
    b"GET / HTTP/1.1\r\nContent-Length: +3\r\n\r\nabcdef",
    b"GET / HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n0123456789",
    b"GET / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
    # framing the proxy refuses: conflicting lengths, any transfer coding,
    # and messages larger than a VQ descriptor
    b"GET / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd",
    b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
    pytest.param(make_request(b"/", method=b"POST", body=b"x" * (70 * 1024)),
                 id="body_over_descriptor"),
    pytest.param(b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * MAX_DESCRIPTOR_BYTES,
                 id="header_over_descriptor"),
])
def test_parse_rejects_malformed(raw):
    with pytest.raises(MalformedHttp):
        parse_request(raw)


def test_frame_http_gives_the_length_once_the_header_block_is_complete():
    raw = make_request(b"/svc/a", method=b"POST", body=b"0123456789")
    head = raw.index(b"\r\n\r\n") + 4
    assert frame_http(raw[:head - 1]) is None
    for cut in (head, head + 3, len(raw), len(raw) + 5):
        data = (raw + b"GET / HTTP/1.1\r\n")[:cut]
        assert frame_http(data)[0] == len(raw)
    assert frame_http(raw[:head + 3])[0] > len(raw[:head + 3])


_BAD_LENGTH = b"POST /svc/bad HTTP/1.1\r\nHost: x\r\nContent-Length: abc\r\n\r\n"


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(0, 8 * 1024), min_size=1, max_size=4),
       bad_at=st.none() | st.integers(0, 4),
       split=st.sampled_from(["anywhere", "bytes", "terminators",
                              "message_ends"]),
       data=st.data())
def test_http_reader_takes_each_message_of_any_split_once(sizes, bad_at,
                                                          split, data):
    """A pipeline of valid requests, split anywhere -- inside a header
    terminator, around each message's end, or into 1-byte chunks -- comes
    out as exactly those messages, in order, each framed whole with its
    header block split once; a bad Content-Length block in the middle is
    cut off alone, with no head, and the request after it is still
    taken."""
    sent = [make_request(b"/svc/%d" % i, method=b"POST",
                         body=bytes([65 + i]) * n) for i, n in enumerate(sizes)]
    blocks = list(sent)
    if bad_at is not None:
        blocks.insert(min(bad_at, len(sent)), _BAD_LENGTH)
    stream = b"".join(blocks)
    if split == "bytes":
        cuts = range(1, len(stream))
    else:
        cuts = set(data.draw(st.lists(st.integers(1, len(stream) - 1),
                                      max_size=12)))
        if split == "terminators":
            start = 0
            while (at := stream.find(b"\r\n\r\n", start)) >= 0:
                cuts |= {at + data.draw(st.integers(1, 3))}
                start = at + 4
        elif split == "message_ends":
            # each message ends at a chunk's end, 1-3 bytes into the next
            # chunk, or 1-3 bytes before its chunk's end
            end = 0
            for block in blocks:
                end += len(block)
                cuts |= {end - data.draw(st.integers(1, 3)), end,
                         end + data.draw(st.integers(1, 3))}
            cuts = {c for c in cuts if 0 < c < len(stream)}
        cuts = sorted(cuts)
    bounds = [0, *cuts, len(stream)]
    reader, got, dropped = HttpReader(), [], []
    with mock.patch.object(l7, "frame_http", wraps=l7.frame_http) as spy:
        for a, b in zip(bounds, bounds[1:]):
            for msg, head in reader.take(stream[a:b]):
                if head is None:
                    dropped.append(msg)
                else:
                    got.append((msg, head))
    assert [m for m, _head in got] == sent
    assert all(head[0] == len(m) for m, head in got)
    assert dropped == ([] if bad_at is None else [_BAD_LENGTH])
    # the header block is read once: one framing finds its terminator
    assert sum(b"\r\n\r\n" in call.args[0]
               for call in spy.call_args_list) == len(blocks)
    assert reader.held == 0 and reader.need is None and not reader.take(b"")


def test_frame_http_refuses_a_content_length_too_long_for_any_message():
    """Leading zeros are legal; past them, a value with more digits than
    MAX_DESCRIPTOR_BYTES has is refused, `end` set, however many digits it
    has -- `int` itself refuses a string of over 4,300."""
    def request(digits):
        return b"POST / HTTP/1.1\r\nContent-Length: " + digits + b"\r\n\r\n"

    for digits in (b"9" * 5000, b"1" + b"0" * 5000, b"0" * 5000 + b"100000"):
        raw = request(digits)
        with pytest.raises(MalformedHttp, match="content-length too large") \
                as exc:
            frame_http(raw)
        assert exc.value.end == len(raw)
    for digits, length in ((b"0" * 5000 + b"5", 5), (b"0" * 5000, 0),
                           (b"007", 7)):
        raw = request(digits)
        assert frame_http(raw)[:2] == (len(raw) + length, len(raw))


def test_parse_rejects_incomplete_body():
    raw = make_request(b"/svc/a", method=b"POST", body=b"0123456789")
    for cut in (len(raw) - 10, len(raw) - 1):
        with pytest.raises(MalformedHttp, match="incomplete"):
            parse_request(raw[:cut])
    assert raw[parse_request(raw)[3]:] == b"0123456789"


# The two-pass reading the one-pass `frame_http` replaced, kept as the
# reference it must agree with: the framer split every header line to find
# the Content-Length, and the parser walked the split lines again for the
# Host and the header-line check, which refuses a second Host line too
# (RFC 9112 section 3.2), a field name that is not a token (RFC 9110
# section 5.6.2), whitespace around it among them (RFC 9112 sections 5.1
# and 5.2), and an HTTP/1.1 request with no Host.

TCHARS = "!#$%&'*+-.^_`|~" + string.digits + string.ascii_letters


def _is_token(name):
    return re.fullmatch(rb"[-!#$%&'*+.^_`|~0-9A-Za-z]+", name) is not None


def _two_pass_split(block):
    lines = block.split(b"\r\n")
    fields = []
    length = None
    for line in lines[1:]:
        field = line.partition(b":")
        fields.append(field)
        name = field[0].strip().lower()
        if name == b"content-length":
            if not field[2].strip().isdigit():
                raise MalformedHttp("bad content-length")
            if length is not None and length != int(field[2]):
                raise MalformedHttp("conflicting content-length")
            length = int(field[2])
        elif name == b"transfer-encoding":
            raise MalformedHttp("transfer-encoding not supported")
    return lines[0], fields, length or 0


def _two_pass_frame(data):
    head_end = data.find(b"\r\n\r\n")
    end = head_end + 4 if head_end >= 0 else len(data)
    try:
        if head_end < 0:
            if end < MAX_DESCRIPTOR_BYTES:
                return None
            raise MalformedHttp(
                f"no header terminator within {MAX_DESCRIPTOR_BYTES} bytes")
        start, fields, length = _two_pass_split(data[:head_end])
        if end + length > MAX_DESCRIPTOR_BYTES:
            raise MalformedHttp(f"message exceeds {MAX_DESCRIPTOR_BYTES} bytes")
    except MalformedHttp as exc:
        exc.end = end
        raise
    return end + length, end, start, fields


def _two_pass_parse(data, head):
    if head is None or head[0] > len(data):
        raise MalformedHttp("incomplete message")
    length, body_at, start, fields = head
    if length < len(data):
        raise MalformedHttp("bytes past the end of the message")
    parts = start.split(b" ")
    if len(parts) != 3 or not parts[0] or not parts[2].startswith(b"HTTP/"):
        raise MalformedHttp("bad request line")
    host = None
    for name, colon, value in fields:
        is_host = name.strip().lower() == b"host"
        if not colon or not _is_token(name) or (is_host and host is not None):
            raise MalformedHttp(f"bad header line {name + colon + value!r}")
        if is_host:
            host = value.strip()
    if host is None and parts[2] == b"HTTP/1.1":
        raise MalformedHttp("no host")
    return (parts[0], parts[1], host or b"", body_at)


def _read(frame, parse, data):
    """What framing then parsing `data` gives: the head's `(length,
    body_at)` and the request's fields, or where and how it is refused."""
    try:
        head = frame(data)
    except MalformedHttp as exc:
        return "frame", str(exc), exc.end
    try:
        request = parse(data, head)
    except MalformedHttp as exc:
        return head and head[:2], str(exc), exc.end
    return head[:2], request


def _one_pass_parse(data, head):
    fields = parse_request(data, head)
    msg = Message(make_flow(), data, head)
    http_parse(msg, {}, {})
    assert msg.payload is data
    assert (msg.method, msg.url_path, msg.host, msg.body_at) == fields
    return fields


_TOKEN = st.text(alphabet="HhOoSsTtXx- ", max_size=8).map(str.encode)
_GOOD_LINES = st.one_of(
    st.sampled_from([b"Host: a", b"host:b", b"HOST :  c d ", b" Host: e",
                     b"Host:", b"X-Other: Host: f", b" : blank-name"]),
    st.builds(lambda name, value: name + b":" + value, _TOKEN, _TOKEN),
    st.builds(lambda name, value: name + b":" + value,
              st.sampled_from([b"Content-Length", b"content-length",
                               b" Content-Length ", b"CONTENT-LENGTH"]),
              st.sampled_from([b"0", b"3", b"5", b" 5 ", b"005", b"99999"])),
)
_NAMELESS_LINES = st.sampled_from([b"NoColon", b" ", b": empty-name", b"::",
                                   b"Host"])
_NON_TOKEN_LINES = st.sampled_from([b"Content Length: 5", b"X(y): 1",
                                    b"X\x00y: 1", b"Host\x7f: a", b"\xe9t\xe9: 1"])
_UNFRAMEABLE_LINES = st.sampled_from([
    b"Content-Length", b"Content-Length: +3", b"Content-Length: -3",
    b"Content-Length: 1_0", b"Content-Length:", b"Content-Length: 3 3",
    b"Transfer-Encoding: chunked", b"transfer-encoding:"])
# good ones mostly: a bad request line hides the rest of the head
_START_LINES = st.sampled_from([b"GET /svc/a HTTP/1.1"] * 5
                               + [b"POST / HTTP/1.0"] * 5
                               + [b"BOGUS", b"GET /", b" / HTTP/1.1",
                                  b"GET  / HTTP/1.1", b"GET / FTP/1", b""])


@pytest.mark.parametrize("line", [b"Content-Length : 5", b"Content-Length\t: 5",
                                  b" Content-Length: 5", b"\tContent-Length: 5"])
def test_whitespace_around_a_field_name_refuses_the_request(line):
    """Whitespace before the colon, or before the name as in an obs-fold
    (RFC 9112 sections 5.1 and 5.2), makes the line the head's bad line, so
    the parser refuses the request; the line still frames the message, and
    a response, which no parser reads, is cut whole by it."""
    request = b"POST /svc/a HTTP/1.1\r\nHost: h\r\n" + line + b"\r\n\r\nhello"
    head = frame_http(request)
    assert head[0] == len(request) and head[4] == line
    with pytest.raises(MalformedHttp, match="bad header line"):
        parse_request(request, head)
    response = b"HTTP/1.1 200 OK\r\n" + line + b"\r\n\r\nhello"
    assert HttpReader().take(response) == ((response, frame_http(response)),)


@pytest.mark.parametrize("line", [b"Content Length: 5", b"X(y): 1",
                                  b"X\x00y: 1"])
def test_field_name_that_is_no_token_refuses_the_request(line):
    """A field name with a byte that is no token character (RFC 9110
    section 5.6.2) makes its line the head's bad line: the parser refuses
    the request as `malformed_http`, and a response, which no parser
    reads, is cut whole."""
    request = b"GET /svc/a HTTP/1.1\r\nHost: h\r\n" + line + b"\r\n\r\n"
    head = frame_http(request)
    assert head[0] == len(request) and head[4] == line
    msg = parsed_message(request)
    assert msg.verdict is Verdict.DROP
    assert msg.verdict_reason.startswith("malformed_http:bad header line")
    response = (b"HTTP/1.1 200 OK\r\n" + line
                + b"\r\nContent-Length: 2\r\n\r\nok")
    assert HttpReader().take(response) == ((response, frame_http(response)),)


def test_every_token_character_is_accepted_in_a_field_name():
    """A name of every token character, and each one alone, is a good
    header line."""
    for name in (TCHARS, *TCHARS):
        request = (b"GET / HTTP/1.1\r\nHost: h\r\n" + name.encode()
                   + b": v\r\n\r\n")
        assert frame_http(request)[4] is None, name
        assert parsed_message(request).verdict is Verdict.CONTINUE, name


def test_http11_request_with_no_host_is_refused():
    """An HTTP/1.1 request must have a Host (RFC 9112 section 3.2), though
    it may be empty; an HTTP/1.0 one need not."""
    with pytest.raises(MalformedHttp, match="no host"):
        parse_request(b"GET /svc/a HTTP/1.1\r\nX-Other: Host: a\r\n\r\n")
    assert parse_request(b"GET / HTTP/1.1\r\nHost:\r\n\r\n")[2] == b""
    assert parse_request(b"GET / HTTP/1.0\r\n\r\n")[2] == b""
    msg = Message(make_flow(), b"GET / HTTP/1.1\r\n\r\n")
    http_parse(msg, {}, {})
    assert msg.verdict_reason == "malformed_http:no host"


@settings(max_examples=400, deadline=None)
@given(start=_START_LINES,
       good=st.lists(_GOOD_LINES, max_size=5),
       bad=st.sampled_from([0, 0, 0, 1, 2]).flatmap(lambda n: st.lists(
           st.one_of(_NAMELESS_LINES, _NON_TOKEN_LINES, _UNFRAMEABLE_LINES),
           min_size=n, max_size=n)),
       off_by=st.sampled_from([0, 0, 0, -1, 1]),
       data=st.data())
def test_one_pass_head_reads_as_the_two_pass_head(start, good, bad, off_by,
                                                  data):
    """Random header blocks -- good and bad start lines, Host in any case
    and spacing (whitespace around a name makes a bad line), repeated and
    missing, lines with no colon, no name or a name that is no token, good,
    signed,
    repeated and conflicting Content-Lengths, with and without
    Transfer-Encoding, and bodies of the length they say, a byte short or a
    byte over -- are framed and parsed by the one pass exactly as by the
    two: the same `(length, body_at)` and request, or the same refusal at
    the same `end`."""
    lines = data.draw(st.permutations(good + bad))
    block = b"\r\n".join([start, *lines]) + b"\r\n\r\n"
    try:
        declared = _two_pass_frame(block)[0] - len(block)
    except MalformedHttp:
        declared = 0
    message = block + b"x" * max(0, min(declared, 16) + off_by)
    assert _read(frame_http, _one_pass_parse, message) == \
        _read(_two_pass_frame, _two_pass_parse, message)


def test_second_host_line_refuses_a_request_but_not_a_response():
    """One pass finds a second Host line and gives it as the head's bad
    line, so the parser refuses the request; a response framed by the
    same pass, which no parser reads, is cut whole."""
    request = b"GET /a HTTP/1.1\r\nHost: internal\r\nhost :x\r\n\r\n"
    head = frame_http(request)
    assert head[0] == len(request) and head[3:] == (b"x", b"host :x")
    with pytest.raises(MalformedHttp, match="bad header line"):
        parse_request(request, head)
    response = (b"HTTP/1.1 200 OK\r\nHost: a\r\nHost: b\r\n"
                b"Content-Length: 2\r\n\r\nok")
    assert HttpReader().take(response) == ((response, frame_http(response)),)


def test_parse_malformed_goes_to_slow_path_not_exception():
    """Malformed input is a verdict, not an exception: the slow path takes
    first packets only, so the parser drops it as `malformed_http`."""
    unit = Message(make_flow(), b"junk")
    http_parse(unit, {}, {})
    assert unit.verdict is Verdict.DROP
    assert unit.verdict_reason.startswith("malformed_http")
    assert unit.method is None


def test_deparse_roundtrip_exact():
    raw = make_request(b"/svc/a", host=b"api", body=b"hello",
                       extra_headers=(b"X-Trace: abc",))
    msg = parsed_message(raw)
    assert deparsed(msg) == raw


_token = st.binary(min_size=1, max_size=12).filter(
    lambda b: not any(c in b for c in b"\r\n: ")
)
# a field name is a token (RFC 9110 section 5.6.2)
_name = st.text(alphabet=TCHARS, min_size=1, max_size=12).map(str.encode)


@given(
    path=st.binary(min_size=1, max_size=20).filter(
        lambda b: not any(c in b for c in b"\r\n ")
    ),
    # a request has one Host line, its first
    headers=st.lists(st.tuples(_name, _token).filter(
        lambda h: h[0].lower() != b"host"), max_size=5),
    body=st.binary(max_size=64),
)
def test_parse_deparse_roundtrip_property(path, headers, body):
    lines = [b"GET " + path + b" HTTP/1.1", b"Host: h"]
    lines += [n + b": " + v for n, v in headers]
    lines.append(b"Content-Length: " + str(len(body)).encode())
    raw = b"\r\n".join(lines) + b"\r\n\r\n" + body
    msg = parsed_message(raw)
    assert msg.verdict is Verdict.CONTINUE
    assert deparsed(msg) == raw


@pytest.mark.parametrize("length", [b"Content-Length:5",
                                    b"Content-Length: 005"])
def test_deparse_forwards_the_message_untouched(length):
    raw = b"POST /svc/a HTTP/1.1\r\nHost: api\r\n" + length + b"\r\n\r\nhello"
    msg = parsed_message(raw)
    assert msg.verdict is Verdict.CONTINUE
    assert deparsed(msg) is raw


# -- filtering ---------------------------------------------------------------

def test_filter_first_match_wins():
    raw = make_request(b"/admin/x")
    rules = [
        FilterRule(decision=Decision.DENY, path_prefix=b"/admin"),
        FilterRule(decision=Decision.ALLOW),
    ]
    assert filtered(parsed_message(raw), rules) is Verdict.DROP
    # same rules reversed: allow wins first
    assert filtered(parsed_message(raw), reversed(rules)) is Verdict.CONTINUE


def test_filter_predicates_are_conjunctive():
    msg = parsed_message(make_request(b"/a", host=b"h", method=b"POST"))
    rule = FilterRule(decision=Decision.DENY, method=b"POST", host=b"other")
    assert not rule.matches(msg)
    rule = FilterRule(decision=Decision.DENY, method=b"POST", host=b"h")
    assert rule.matches(msg)


@pytest.mark.parametrize("host", [b"internal", b"INTERNAL", b"Internal",
                                  b"internal:8080", b"INTERNAL:80", b"internal:"])
def test_filter_host_ignores_case_and_port(host):
    """A rule's host matches the request's Host in any case and with any
    port (RFC 9110 section 7.2, RFC 3986 section 3.2): the loader
    lowercases the rule's host, the filter the request's."""
    msg = parsed_message(make_request(host=host))
    assert FilterRule(decision=Decision.DENY, host=b"internal").matches(msg)
    for text in (host_denied_config_text(),
                 host_denied_config_text().replace("host: internal",
                                                   "host: INTERNAL")):
        rules = load_config(text).filters
        assert rules[-1].host == b"internal"
        assert filtered(parsed_message(make_request(host=host)),
                        rules) is Verdict.DROP


@pytest.mark.parametrize("host", [b"internal.example", b"xinternal",
                                  b"internal:80x", b"internal:8080:1", b""])
def test_filter_host_names_only_that_host(host):
    msg = parsed_message(make_request(host=host))
    assert not FilterRule(decision=Decision.DENY, host=b"internal").matches(msg)


def test_filter_host_keeps_an_ipv6_literal_whole():
    """The colons inside a bracketed IPv6 literal are not a port's."""
    rule = FilterRule(decision=Decision.DENY, host=b"[::1]")
    for host in (b"[::1]", b"[::1]:8080"):
        assert rule.matches(parsed_message(make_request(host=host)))
    assert not rule.matches(parsed_message(make_request(host=b"[::2]")))


def test_filter_sip_predicate():
    msg = parsed_message(make_request(), flow=make_flow(sip="9.9.9.9"))
    assert FilterRule(decision=Decision.DENY, sip=0x09090909).matches(msg)
    assert not FilterRule(decision=Decision.DENY, sip=0x01010101).matches(msg)


def test_filter_no_rules_goes_slow_path():
    """The slow path takes first packets only: a request no rule matches,
    which it once took, is allowed by the filter itself."""
    msg = parsed_message(make_request())
    assert filtered(msg, []) is Verdict.CONTINUE
    deny_admin = [FilterRule(decision=Decision.DENY, path_prefix=b"/admin")]
    assert filtered(msg, deny_admin) is Verdict.CONTINUE


# -- load balancing ----------------------------------------------------------

def test_round_robin_cycles():
    cluster = Cluster(ref="c", endpoints=tuple(make_endpoint(i) for i in range(3)))
    state = LbState()
    picks = [load_balance(cluster, state).id for _ in range(6)]
    assert picks == ["ep-0", "ep-1", "ep-2", "ep-0", "ep-1", "ep-2"]


def test_round_robin_skips_unhealthy():
    eps = (make_endpoint(0), make_endpoint(1, healthy=False), make_endpoint(2))
    cluster = Cluster(ref="c", endpoints=eps)
    state = LbState()
    picks = {load_balance(cluster, state).id for _ in range(10)}
    assert picks == {"ep-0", "ep-2"}


def test_no_healthy_endpoint_raises():
    cluster = Cluster(ref="c", endpoints=(make_endpoint(0, healthy=False),
                                          make_endpoint(1, weight=0)))
    with pytest.raises(NoHealthyEndpoint):
        load_balance(cluster, LbState())


def test_weighted_rr_matches_smooth_reference():
    """Independent smooth weighted-round-robin reference implementation."""
    weights = {"ep-0": 5, "ep-1": 1, "ep-2": 1}
    eps = tuple(make_endpoint(i, weight=w) for i, w in enumerate(weights.values()))
    cluster = Cluster(ref="c", endpoints=eps, policy=LbPolicy.WEIGHTED_RR)
    state = LbState()

    # ties go to the first endpoint in list order, same as max() over an
    # insertion-ordered dict
    current = {k: 0 for k in weights}
    total = sum(weights.values())
    expected = []
    for _ in range(21):
        for k in current:
            current[k] += weights[k]
        best = max(current, key=current.get)
        current[best] -= total
        expected.append(best)

    got = [load_balance(cluster, state).id for _ in range(21)]
    assert got == expected
    # proportionality over full cycles
    assert got.count("ep-0") == 15
    assert got.count("ep-1") == 3
    assert got.count("ep-2") == 3


def test_weighted_rr_keeps_weights_only_for_endpoints_it_can_pick():
    eps = tuple(make_endpoint(i, weight=2) for i in range(3))
    state = LbState()
    load_balance(Cluster("c", eps, LbPolicy.WEIGHTED_RR), state)
    assert set(state.current) == {e.address for e in eps}
    fewer = (eps[0], make_endpoint(1, weight=0), make_endpoint(2, healthy=False))
    assert load_balance(Cluster("c", fewer, LbPolicy.WEIGHTED_RR), state) is eps[0]
    assert set(state.current) == {eps[0].address}


def test_least_conn_prefers_idle_and_breaks_ties_by_id():
    eps = tuple(make_endpoint(i) for i in range(3))
    cluster = Cluster(ref="c", endpoints=eps, policy=LbPolicy.LEAST_CONN)
    state = LbState()
    first = load_balance(cluster, state)
    assert first.id == "ep-0"  # all zero, lowest id
    state.open(eps[0])
    assert load_balance(cluster, state).id == "ep-1"
    state.open(eps[1])
    assert load_balance(cluster, state).id == "ep-2"
    state.close(eps[0])
    assert load_balance(cluster, state).id == "ep-0"
    # a count that falls to 0 is dropped
    assert state.conns == {eps[1].address: 1}


# -- routing -----------------------------------------------------------------

def make_route_env(n_endpoints=2, policy=LbPolicy.ROUND_ROBIN, healthy=True):
    lkey = (ip4_to_int("10.0.0.2"), 8080)
    listeners = {lkey: "web"}
    cluster = Cluster(
        ref="backend",
        endpoints=tuple(make_endpoint(i, healthy=healthy)
                        for i in range(n_endpoints)),
        policy=policy,
    )
    routes = {lkey: (
        RouteRule(
            listener=lkey,
            path_matchers=(PathMatcher(MatchKind.EXACT, b"/svc/a"),
                           PathMatcher(MatchKind.PREFIX, b"/svc/")),
            cluster="backend",
        ),
    )}
    return (listeners, routes, {}, {"backend": cluster},
            {"backend": LbState()})


_queue_ids = itertools.count(1)


def routed(path=b"/svc/a", flow=None, env=None, connector=None):
    """Route a request of `flow`, carrying the flow's record in `env`."""
    listeners, routes, conns, clusters, lb = env
    flow = flow or make_flow()
    msg = parsed_message(make_request(path), flow=flow)
    msg.conn = conns.setdefault(flow, Conn(HttpReader()))
    connector = connector or (lambda ep, m: next(_queue_ids))
    snaps = {"listeners": listeners, "routes": routes, "clusters": clusters}
    return route(lb, connector, msg, defaultdict(int), snaps), msg


def test_route_happy_path_binds_queue():
    env = make_route_env()
    endpoint, msg = routed(env=env)
    assert msg.verdict is Verdict.CONTINUE
    assert msg.queue is not None
    assert endpoint.id == "ep-0"


def test_route_reuses_queue_without_lb():
    env = make_route_env()
    e1, m1 = routed(env=env)
    e2, m2 = routed(path=b"/svc/other", env=env)  # same 4-tuple
    assert e1 is not None and e2 is None  # balanced once
    assert m2.queue == m1.queue


def test_route_distinct_flows_get_distinct_queues():
    env = make_route_env()
    _, m1 = routed(flow=make_flow(sport=40000), env=env)
    _, m2 = routed(flow=make_flow(sport=40001), env=env)
    assert m1.queue != m2.queue


def test_route_no_listener_drops_and_resets():
    env = make_route_env()
    _, msg = routed(flow=make_flow(dport=9999), env=env)
    assert msg.verdict is Verdict.DROP
    assert msg.verdict_reason == "no_listener"
    assert msg.queue is None


def test_route_no_route_drops():
    env = make_route_env()
    _, msg = routed(path=b"/other", env=env)
    assert msg.verdict is Verdict.DROP
    assert msg.verdict_reason == "no_route"


def test_route_no_healthy_endpoint_to_slow_path():
    """Dropped by the router with its reason: the slow path takes first
    packets only."""
    env = make_route_env(healthy=False)
    _, msg = routed(env=env)
    assert msg.verdict is Verdict.DROP
    assert msg.verdict_reason == "no_healthy_endpoint"


def test_route_connect_failure_to_slow_path():
    from flatproxy.l7 import ConnectFailure

    env = make_route_env()

    def bad_connector(endpoint, msg):
        raise ConnectFailure("refused")

    _, msg = routed(env=env, connector=bad_connector)
    assert msg.verdict is Verdict.DROP
    assert msg.verdict_reason == "connect_failure"
    assert msg.queue is None


def test_route_exact_beats_miss_prefix_order():
    # /svc/a matches EXACT first, /svc/bb only the PREFIX matcher
    env = make_route_env()
    r1, m1 = routed(path=b"/svc/a", env=env)
    r2, m2 = routed(path=b"/svc/bb", flow=make_flow(sport=41000), env=env)
    assert m1.verdict is Verdict.CONTINUE
    assert m2.verdict is Verdict.CONTINUE


def test_route_hundred_flows_round_robin_balance():
    env = make_route_env(n_endpoints=4)
    counts = {}
    for i in range(100):
        endpoint, msg = routed(flow=make_flow(sport=50000 + i), env=env)
        counts[endpoint.id] = counts.get(endpoint.id, 0) + 1
    assert counts == {"ep-0": 25, "ep-1": 25, "ep-2": 25, "ep-3": 25}


def test_route_pins_the_flow_record_to_one_queue():
    """A flow connects once: the router pins its record to the queue the
    connector returned, with the endpoint and a count on it in the
    cluster's state, and binds each later message of the flow to that
    queue with no second connect."""
    env = make_route_env()
    made = []

    def connector(endpoint, msg):
        made.append(next(_queue_ids))
        return made[-1]

    e1, m1 = routed(env=env, connector=connector)
    e2, m2 = routed(path=b"/svc/other", env=env, connector=connector)
    conn = m1.conn
    assert m2.conn is conn and e2 is None and len(made) == 1
    assert conn.queue == m1.queue == m2.queue == made[0]
    assert conn.endpoint is e1 and conn.lb is env[4]["backend"]
    assert conn.lb.conns == {e1.address: 1}
