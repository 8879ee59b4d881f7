import csv
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

import flatproxy
from flatproxy.cli import main
from flatproxy.sim import CSV_COLUMNS
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


def test_sim_rejects_bad_mode(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sim", "--modes", "warp"])
    assert exc.value.code == 2


def test_sim_rejects_nonpositive_rate(capsys):
    code, _, err = run_cli(["sim", "--rate", "0"], capsys)
    assert code == 2


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


# -- reload ------------------------------------------------------------------

def test_reload_bad_pidfile(capsys):
    code, _, err = run_cli(["reload", "--pid-file", "/nonexistent.pid"], capsys)
    assert code == 1


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
    finally:
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=10)
    assert "delivered:" in out


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]
