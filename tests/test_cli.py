import csv
import gc
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import flatproxy
from flatproxy.cli import main
from flatproxy.sim import CSV_COLUMNS
from flatproxy.slow_path import InvalidChain, load_config
from conftest import config_text


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "mesh.yaml"
    path.write_text(config_text())
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# -- validate ----------------------------------------------------------------

def test_validate_ok(config_file, capsys):
    code, out, _ = run_cli(["validate", "--config", config_file], capsys)
    assert code == 0
    assert "config ok" in out


def test_validate_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(config_text() + "\nbogus_field: 1\n")
    code, _, err = run_cli(["validate", "--config", str(bad)], capsys)
    assert code == 2
    assert "invalid config" in err


MALFORMED_ENTRIES = [  # (the section named, the document)
    ("clusters", config_text().replace("  - ref: backend\n    policy:",
                                       "  - policy:")),  # no ref
    ("clusters", config_text().replace("        port: 9001\n", "")),  # no port
    ("clusters", config_text(endpoint_host="999.0.0.1")),
    ("clusters", config_text().replace("weight: 1", "weight: -1", 1)),
    ("clusters", config_text(endpoint_ports=(99999,))),
    ("clusters", config_text(endpoint_ports=(9001, 9001))),  # one address twice
    ("filters", config_text().replace("decision: DENY", "decision: 3")),
    ("listeners", "listeners: 5\n"),
    ("chain", config_text() + "chain: 5\n"),
    ("chain", config_text() + "chain: []\n"),  # once taken as no section
    # an address or port that was read loosely (10.0.0.2_0 as 10.0.0.20,
    # true as 1, 9001.9 as 9001) or that is not a YAML int
    ("listeners", config_text(dip="10.0.0.2_0")),
    ("listeners", config_text(dip="01.0.0.2")),
    ("listeners", config_text(dip="true")),
    ("listeners", config_text(dport="8080.0")),
    ("listeners", config_text(dport="true")),
    ("listeners", config_text(dport="'8080'")),
    ("filters", config_text().replace("path_prefix: /admin", "sip: 1.1.1.1_1")),
    # a rule's host is compared with the request's Host without its port
    ("filters", config_text().replace("path_prefix: /admin",
                                      "host: internal:8080")),
    ("clusters", config_text(endpoint_host="127.0.0.1_0")),
    ("clusters", config_text(endpoint_host="false")),
    ("clusters", config_text(endpoint_ports=("9001.9",))),
    ("clusters", config_text(endpoint_ports=("false",))),
    # an endpoint weight or health that was read loosely (1.9 as 1, the
    # string 'false' as healthy)
    ("clusters", config_text().replace("weight: 1", "weight: 1.9", 1)),
    ("clusters", config_text().replace("weight: 1", "weight: true", 1)),
    ("clusters", config_text().replace("weight: 1", "weight: '1'", 1)),
    ("clusters", config_text(unhealthy=(9001,)).replace("false", "'false'")),
    ("clusters", config_text(unhealthy=(9001,)).replace("false", "0")),
]


@pytest.mark.parametrize("section, doc", MALFORMED_ENTRIES)
def test_validate_malformed_entry_exits_2(tmp_path, capsys, section, doc):
    bad = tmp_path / "bad.yaml"
    bad.write_text(doc)
    code, _, err = run_cli(["validate", "--config", str(bad)], capsys)
    assert code == 2
    assert "invalid config" in err and f"bad {section}" in err


@pytest.mark.parametrize("command", ["validate", "live"])
@pytest.mark.parametrize("dport", [70000, -5])
def test_listener_port_out_of_range_exits_2(tmp_path, capsys, command, dport):
    """A listener port that no socket can have is refused when the config
    is read, by `live` as by `validate`, even with no route to it."""
    bad = tmp_path / "bad.yaml"
    bad.write_text(f"listeners:\n  - name: web\n    dip: 10.0.0.2\n"
                   f"    dport: {dport}\n")
    code, _, err = run_cli([command, "--config", str(bad)], capsys)
    assert code == 2
    assert "invalid config" in err and "bad listeners" in err


# each chain the loader once accepted besides the standard one
NON_STANDARD_CHAINS = {
    "no_router": "[http_parser, filter, http_deparser]",
    "router_before_filter": "[toe, http_parser, router, filter, http_deparser]",
    "no_filter": "[http_parser, router, http_deparser]",
    "no_toe": "[http_parser, filter, router, http_deparser]",
}


@pytest.mark.parametrize("nodes", NON_STANDARD_CHAINS.values(),
                         ids=NON_STANDARD_CHAINS.keys())
def test_only_the_standard_chain_is_accepted(tmp_path, capsys, nodes):
    """The L7 chain is fixed: a chain section that spells any other chain
    is `InvalidChain`, and `validate` exits 2."""
    doc = config_text() + f"chain:\n  nodes: {nodes}\n"
    with pytest.raises(InvalidChain):
        load_config(doc)
    bad = tmp_path / "chain.yaml"
    bad.write_text(doc)
    code, _, err = run_cli(["validate", "--config", str(bad)], capsys)
    assert code == 2
    assert "invalid config" in err and "not the standard chain" in err


@pytest.mark.parametrize("path", ["configs/http_routing.yaml",
                                  "perfbench/mesh.yaml"])
def test_shipped_configs_validate(capsys, path):
    """Both shipped configs spell the standard chain, and validate."""
    code, out, _ = run_cli(["validate", "--config", path], capsys)
    assert code == 0
    assert out == "config ok\n"


def test_validate_missing_file(capsys):
    code, _, err = run_cli(["validate", "--config", "/nonexistent.yaml"], capsys)
    assert code == 2


# -- sim ---------------------------------------------------------------------

def test_sim_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli([
        "sim", "--layer", "l4", "--rate", "100,200", "--connections", "1",
        "--cores", "1", "--duration", "0.01", "--out", str(out_path),
    ], capsys)
    assert code == 0
    with out_path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 4  # two rates x four modes
    assert list(rows[0]) == CSV_COLUMNS
    assert "headline" in out


def test_sim_stdout_and_summary(capsys):
    code, out, _ = run_cli([
        "sim", "--modes", "envoy,flatproxy", "--rate", "100",
        "--duration", "0.01", "--cores", "1",
    ], capsys)
    assert code == 0
    assert out.startswith(",".join(CSV_COLUMNS))
    assert "envoy: mean latency" in out
    assert "flatproxy: mean latency" in out


def test_sim_with_no_completed_request_prints_no_ratio(capsys):
    """At the default 1 request/s, 10 ms of simulated time completes no
    request in any mode: the run still succeeds, with no headline ratio
    (it once died dividing by a latency sum of 0)."""
    code, out, _ = run_cli(["sim", "--duration", "0.01", "--cores", "1"],
                           capsys)
    assert code == 0
    assert "headline: none, a mode completed no request" in out
    assert "latency reduction" not in out


def test_sim_mean_leaves_out_points_that_completed_nothing(capsys):
    """At 1 request/s, 10 ms of simulated time has no arrival: that point
    has no latency, so each mode's mean is the 20,000/s point's alone, and
    the point is counted apart."""
    code, out, _ = run_cli(["sim", "--layer", "l7", "--rate", "1,20000",
                            "--duration", "0.01", "--cores", "2"], capsys)
    assert code == 0
    assert ("envoy: mean latency 62500 ns over 1 points, 1 completed none"
            in out.splitlines())
    code, out, _ = run_cli(["sim", "--modes", "toe", "--duration", "0.01"],
                           capsys)
    assert "toe: mean latency none over 0 points, 1 completed none" in out


def test_sim_rejects_bad_mode(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sim", "--modes", "warp"])
    assert exc.value.code == 2


def test_sim_rejects_config_flag(capsys):
    """The simulator reads no config, so `sim` takes no --config."""
    with pytest.raises(SystemExit) as exc:
        main(["sim", "--config", "x"])
    assert exc.value.code == 2


def test_sim_rejects_nonpositive_rate(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sim", "--rate", "0"])
    assert exc.value.code == 2
    assert "--rate: not a positive number" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--rate", ""), ("--connections", ""), ("--cores", ""), ("--cores", "0"),
    ("--connections", "0"), ("--duration", "0"), ("--duration", "-1"),
    ("--rate", ","), ("--modes", ","), ("--modes", ""),
])
def test_sim_rejects_empty_or_nonpositive_inputs(capsys, flag, value):
    """Each of these once crashed the simulator or made it print figures
    for nothing; argparse refuses them with a usage message."""
    with pytest.raises(SystemExit) as exc:
        main(["sim", flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--duration", "inf"), ("--rate", "inf"), ("--rate", "1,inf"),
    ("--duration", "nan"),
])
def test_sim_rejects_non_finite_inputs(capsys, flag, value):
    """An infinite duration once died with an OverflowError and an infinite
    rate with a ZeroDivisionError; both are refused with a usage message."""
    with pytest.raises(SystemExit) as exc:
        main(["sim", flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


def test_sim_deterministic_output_files(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sim", "--layer", "l7", "--rate", "500", "--duration", "0.02",
            "--seed", "9", "--cores", "1"]
    assert run_cli(args + ["--out", str(a)], capsys)[0] == 0
    assert run_cli(args + ["--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


# -- report ------------------------------------------------------------------

def test_report_summarizes(tmp_path, capsys):
    sweep = tmp_path / "sweep.csv"
    run_cli(["sim", "--rate", "100", "--duration", "0.01",
             "--out", str(sweep)], capsys)
    code, out, _ = run_cli(["report", str(sweep)], capsys)
    assert code == 0
    for mode in ("envoy", "sockmap", "toe", "flatproxy"):
        assert mode in out


def test_report_mean_leaves_out_points_that_completed_nothing(tmp_path,
                                                              capsys):
    """`report` averages a mode's latency as `sim` does, over the points
    that completed a request: the 1 request/s point completed none."""
    sweep = tmp_path / "sweep.csv"
    code, sim_out, _ = run_cli([
        "sim", "--layer", "l7", "--rate", "1,20000", "--duration", "0.01",
        "--cores", "2", "--out", str(sweep)], capsys)
    assert code == 0
    summary = "envoy: mean latency 62500 ns over 1 points, 1 completed none"
    assert summary in sim_out.splitlines()
    code, out, _ = run_cli(["report", str(sweep)], capsys)
    assert code == 0
    assert [line for line in out.splitlines()
            if line.startswith(summary + ", peak ")]


def test_report_missing_file(capsys):
    code, _, err = run_cli(["report", "/nonexistent.csv"], capsys)
    assert code == 1


def test_report_rejects_a_csv_that_is_not_a_sweep(tmp_path, capsys):
    other = tmp_path / "other.csv"
    other.write_text("mode,mean_ns\nenvoy,1\n")
    code, out, err = run_cli(["report", str(other)], capsys)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "responses_per_s" in err
    other.write_text("mode,mean_ns,responses_per_s\nenvoy,1,fast\n")
    code, out, err = run_cli(["report", str(other)], capsys)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "fast" in err


def test_report_rejects_a_file_it_cannot_decode_or_split(tmp_path, capsys):
    """A sweep saved as UTF-16, and a field longer than the csv module's
    limit, are not sweep csvs: one line and exit 1, not a traceback."""
    sweep = tmp_path / "sweep.csv"
    run_cli(["sim", "--rate", "100", "--duration", "0.01",
             "--out", str(sweep)], capsys)
    sweep.write_bytes(sweep.read_text().encode("utf-16"))
    long_field = tmp_path / "long.csv"
    long_field.write_text("mode,mean_ns,responses_per_s\n"
                          + "x" * (csv.field_size_limit() + 1) + ",1,1\n")
    for path in (sweep, long_field):
        code, out, err = run_cli(["report", str(path)], capsys)
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"not a sweep csv: {path}: ")


def test_report_out_unwritable(tmp_path, capsys):
    sweep = tmp_path / "sweep.csv"
    run_cli(["sim", "--rate", "100", "--duration", "0.01",
             "--out", str(sweep)], capsys)
    dest = tmp_path / "no-such-dir" / "report.txt"
    code, _, err = run_cli(["report", str(sweep), "--out", str(dest)], capsys)
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("cannot write")


# -- live --------------------------------------------------------------------

def test_live_rejects_bad_listen_port(config_file, capsys):
    for listen in ("127.0.0.1:abc", "127.0.0.1:70000"):
        with pytest.raises(SystemExit) as exc:
            main(["live", "--config", config_file, "--listen", listen])
        assert exc.value.code == 2
        assert "bad port" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--spawn-stubs", "-1"), ("--duration", "-1"), ("--duration", "nan"),
    ("--duration", "inf"),
])
def test_live_rejects_negative_or_unbounded_inputs(tmp_path, capsys, flag,
                                                   value):
    """`--spawn-stubs -1` once spawned a stub on every endpoint but the
    last, `--duration -1` or `nan` ran until interrupted and `inf` died in
    `time.sleep`; argparse refuses each with a usage message, before the
    config is read."""
    with pytest.raises(SystemExit) as exc:
        main(["live", "--config", str(tmp_path / "missing.yaml"), flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


def test_live_port_taken_closes_its_socket_and_stops_the_stubs(tmp_path, capsys):
    """An explicit listen port that is taken exits 1, with the proxy's
    socket closed (an unclosed one fails the run as a ResourceWarning) and
    the spawned stub stopped, its port free again."""
    stub_port = _free_port()
    cfg = tmp_path / "live.yaml"
    cfg.write_text(config_text(endpoint_ports=(stub_port,), dip="127.0.0.1"))
    with socket.socket() as held:
        held.bind(("127.0.0.1", 0))
        held.listen(1)
        port = held.getsockname()[1]
        code, _, err = run_cli(["live", "--config", str(cfg), "--listen",
                                f"127.0.0.1:{port}", "--spawn-stubs", "1"],
                               capsys)
    assert code == 1
    assert f"cannot bind 127.0.0.1:{port}" in err
    gc.collect()  # finalise a leaked socket here, inside this test
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", stub_port))


def test_live_stub_port_taken_reports_and_stops_the_stubs(tmp_path, capsys):
    """A spawned stub whose port is taken exits 1 with a message, not a
    traceback, and the stub started before it is stopped."""
    free_port = _free_port()
    with socket.socket() as held:
        held.bind(("127.0.0.1", 0))
        held.listen(1)
        port = held.getsockname()[1]
        cfg = tmp_path / "live.yaml"
        cfg.write_text(config_text(endpoint_ports=(free_port, port),
                                   dip="127.0.0.1"))
        code, _, err = run_cli(["live", "--config", str(cfg), "--listen",
                                "127.0.0.1:0", "--spawn-stubs", "2"], capsys)
    assert code == 1
    assert f"cannot start stub on 127.0.0.1:{port}:" in err
    gc.collect()
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", free_port))


def test_live_unwritable_pid_file_exits_1_and_stops_the_proxy(
        config_file, tmp_path, capsys, monkeypatch):
    """A pid file that cannot be written exits 1 with a message, not a
    traceback, with the proxy's loop stopped; the SIGHUP handler is in
    place before, so a `reload` can never kill the process."""
    installed = []
    monkeypatch.setattr(signal, "signal", lambda sig, _h: installed.append(sig))
    pid_file = tmp_path / "nope" / "dir" / "pid"
    code, out, err = run_cli(["live", "--config", config_file, "--pid-file",
                              str(pid_file), "--duration", "30"], capsys)
    assert code == 1
    assert f"cannot write pid file {pid_file}" in err
    assert "listening on" not in out
    assert installed == [signal.SIGHUP]
    assert not [t for t in threading.enumerate() if t.name == "flatproxy-live"]


def test_live_with_no_listeners_exits_2_and_starts_nothing(tmp_path, capsys):
    """A config with no listener is valid, but live mode has nothing to
    serve: it says so and exits 2, before it starts a stub or binds."""
    stub_port = _free_port()
    cfg = tmp_path / "none.yaml"
    cfg.write_text(f"""
listeners: []
clusters:
  - ref: backend
    endpoints:
      - address: 127.0.0.1
        port: {stub_port}
""")
    assert run_cli(["validate", "--config", str(cfg)], capsys)[0] == 0
    code, out, err = run_cli(["live", "--config", str(cfg),
                              "--spawn-stubs", "1"], capsys)
    assert code == 2 and out == ""
    assert err == "live mode needs at least one listener\n"
    gc.collect()
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", stub_port))


# -- reload ------------------------------------------------------------------

def test_reload_bad_pidfile(capsys):
    code, _, err = run_cli(["reload", "--pid-file", "/nonexistent.pid"], capsys)
    assert code == 1


@pytest.mark.parametrize("pid", ["0", "-1", "-4242"])
def test_reload_refuses_a_pid_that_names_a_group(pid, tmp_path, capsys,
                                                 monkeypatch):
    """A pid file holding 0 or a negative number would signal a process
    group, or every process: `reload` refuses it and sends nothing."""
    sent = []
    monkeypatch.setattr(os, "kill", lambda *a: sent.append(a))
    pid_file = tmp_path / "flatproxy.pid"
    pid_file.write_text(pid + "\n")
    code, _, err = run_cli(["reload", "--pid-file", str(pid_file)], capsys)
    assert code == 1
    assert "reload failed" in err
    assert sent == []


# -- live --------------------------------------------------------------------

def test_live_missing_config_exits_2(tmp_path, capsys):
    code, _, err = run_cli(
        ["live", "--config", str(tmp_path / "missing.yaml")], capsys)
    assert code == 2
    assert "cannot read config" in err


# -- live subprocess ---------------------------------------------------------

def _child_env():
    """The environment for a `python -m flatproxy.cli` child: it imports
    flatproxy from where this process did, installed or not."""
    src = os.path.dirname(os.path.dirname(flatproxy.__file__))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": src + os.pathsep + path if path else src}


def _wait_for_line(proc, prefix, timeout=10):
    deadline = time.time() + timeout
    while time.time() < deadline:
        line = proc.stdout.readline()
        if line.startswith(prefix):
            return line.strip()
        if not line and proc.poll() is not None:
            break
    proc.kill()
    proc.wait(timeout=10)
    raise TimeoutError(f"no line starting with {prefix!r}; child stderr:\n"
                       f"{proc.stderr.read()}")


def _http_get(host, port, path=b"/svc/a"):
    with socket.create_connection((host, port), timeout=5) as s:
        s.sendall(b"GET " + path + b" HTTP/1.1\r\nHost: x\r\n"
                  b"Content-Length: 0\r\n\r\n")
        fh = s.makefile("rb")
        status = fh.readline()
        headers = {}
        while True:
            line = fh.readline().strip()
            if not line:
                break
            k, _, v = line.partition(b":")
            headers[k.strip().lower()] = v.strip()
        body = fh.read(int(headers.get(b"content-length", b"0")))
    return status, headers, body


def test_live_subprocess_with_sighup_reload(tmp_path):
    port_a = _free_port()
    port_b = _free_port()
    cfg = tmp_path / "live.yaml"
    cfg.write_text(config_text(endpoint_ports=(port_a, port_b), dip="127.0.0.1"))
    pid_file = tmp_path / "proxy.pid"
    proc = subprocess.Popen(
        [sys.executable, "-m", "flatproxy.cli", "live", "--config", str(cfg),
         "--listen", "127.0.0.1:0", "--duration", "30",
         "--spawn-stubs", "2", "--pid-file", str(pid_file)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=_child_env(),
    )
    try:
        line = _wait_for_line(proc, "listening on")
        port = int(line.rsplit(":", 1)[1])
        status, headers, body = _http_get("127.0.0.1", port)
        assert status.startswith(b"HTTP/1.1 200")
        assert b"x-stub" in headers

        status, _, _ = _http_get("127.0.0.1", port, path=b"/elsewhere")
        assert status.startswith(b"HTTP/1.1 404")

        # reload via the cli entry point against the pid file
        assert pid_file.exists()
        rc = subprocess.run(
            [sys.executable, "-m", "flatproxy.cli", "reload",
             "--pid-file", str(pid_file)],
            env=_child_env(),
        ).returncode
        assert rc == 0
        status, _, _ = _http_get("127.0.0.1", port)
        assert status.startswith(b"HTTP/1.1 200")

        # a reload that cannot read its file is logged, and the running
        # rules stay in place
        cfg.unlink()
        os.kill(int(pid_file.read_text()), signal.SIGHUP)
        ready, _, _ = select.select([proc.stderr], [], [], 10)
        assert ready
        assert "reload failed" in proc.stderr.readline()
        status, _, _ = _http_get("127.0.0.1", port)
        assert status.startswith(b"HTTP/1.1 200")
    finally:
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=10)
    assert proc.returncode == 0, err
    assert "delivered:" in out


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


# -- logging -----------------------------------------------------------------

@pytest.mark.parametrize("value", ["basic_format", "raiseExceptions", "debug"])
def test_flatproxy_log_names_a_level_or_falls_back_to_error(tmp_path, value):
    """FLATPROXY_LOG names a `logging` level; any other name in `logging`,
    such as BASIC_FORMAT, a format string, is ERROR, and the command runs."""
    cfg = tmp_path / "mesh.yaml"
    cfg.write_text(config_text())
    done = subprocess.run(
        [sys.executable, "-m", "flatproxy.cli", "validate", "--config",
         str(cfg)],
        capture_output=True, text=True,
        env={**_child_env(), "FLATPROXY_LOG": value}, timeout=30,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "config ok\n"
