import csv
import io
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import fields

import pytest

from ridecloak import sim
from ridecloak.cli import build_parser, main
from ridecloak.service import ServiceConfig, SocketServer

SMALL_ARGS = [
    "--filter-bits", "320", "--n-hashes", "4",
    "--id-bits", "6", "--time-bits", "4",
]


def write_small_workload(path, seed=3, **kw):
    base = dict(hit_rate=1.0, transfer_rate=0.0, capacity=4, pickup_span=1, align_slots=4)
    base.update(kw)
    wl = sim.generate_workload(sim.GridCity(8, 8), 3, 4, seed, (4, 6), 48, **base)
    sim.save_workload(str(path), wl)
    return wl


def test_workload_command(tmp_path, capsys):
    out = tmp_path / "wl.txt"
    code = main([
        "workload", "--out", str(out), "--rows", "8", "--cols", "8",
        "--offers", "4", "--requests", "6", "--min-route", "4", "--max-route", "6",
        "--seed", "3",
    ])
    assert code == 0
    assert "wrote 4 offers / 6 requests" in capsys.readouterr().out
    wl = sim.load_workload(str(out))
    assert len(wl.offers) == 4 and len(wl.requests) == 6
    assert wl.city == sim.GridCity(8, 8)


def test_workload_shape_flags_default_to_the_experiment_config(tmp_path):
    out = tmp_path / "wl.txt"
    assert main(["workload", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == sim.workload_to_text(sim.ExperimentConfig().workload())
    bench = build_parser().parse_args(["bench", "requests"])
    default = sim.ExperimentConfig()
    for name in ("rows", "cols", "n_offers", "n_requests", "hit_rate", "transfer_rate"):
        assert getattr(bench, name) == getattr(default, name)
    assert bench.scheme == "transfer"


def test_match_command_writes_csv(tmp_path):
    wl_path = tmp_path / "wl.txt"
    write_small_workload(wl_path)
    csv_path = tmp_path / "report.csv"
    code = main(["match", "--workload", str(wl_path), "--csv", str(csv_path), *SMALL_ARGS])
    assert code == 0
    rows = list(csv.DictReader(open(csv_path, encoding="utf-8")))
    assert len(rows) == 1
    assert rows[0]["scheme"] == "direct"
    assert float(rows[0]["success_rate"]) == 1.0


def test_match_command_transfer_to_stdout(tmp_path, capsys):
    wl_path = tmp_path / "wl.txt"
    write_small_workload(wl_path, transfer_rate=0.5)
    code = main(["match", "--workload", str(wl_path), "--scheme", "transfer", *SMALL_ARGS])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 1 and rows[0]["scheme"] == "transfer"


BENCH_ARGS = [
    "--seeds", "0,1", "--rows", "8", "--cols", "8", "--offers", "3", "--requests", "4",
    *SMALL_ARGS,
]


def sweep_rows(seeds, values, schemes):
    """(seed, scheme, swept value) per row: seed by seed, each value under each scheme."""
    return [(s, scheme, v) for s in seeds for v in values for scheme in schemes]


# sweep -> (--values, the swept CSV column, (seed, scheme, value) per row)
BENCH_SWEEPS = {
    "requests": ("2,4", "n_requests", sweep_rows("01", ("2", "4"), ("transfer",))),
    "offers": ("2,3", "n_offers", sweep_rows("01", ("2", "3"), sim.SCHEMES)),
    "cells": ("100,144", "cell_count", sweep_rows("01", ("100", "144"), ("direct",))),
    "time-bits": ("4,8", "time_bits", sweep_rows("01", ("4", "8"), ("transfer",))),
    # sizing(60, 0.1) and sizing(60, 0.01) give 320 and 576 filter bits; value by value
    "fpp": ("0.1,0.01", "filter_bits", [
        ("0", "direct", "320"), ("1", "direct", "320"),
        ("0", "direct", "576"), ("1", "direct", "576"),
    ]),
}


@pytest.mark.parametrize("sweep", BENCH_SWEEPS)
def test_bench_sweep(tmp_path, capsys, sweep):
    values, column, expected = BENCH_SWEEPS[sweep]
    csv_path = tmp_path / "sweep.csv"
    code = main(["bench", sweep, "--values", values, "--csv", str(csv_path), *BENCH_ARGS])
    assert code == 0
    rows = list(csv.DictReader(csv_path.read_text(encoding="utf-8").splitlines()))
    assert [(r["seed"], r["scheme"], r[column]) for r in rows] == expected
    if sweep == "cells":
        err = capsys.readouterr().err
        assert "ccrs_size_model(100) = 25600 bytes" in err
        assert "ccrs_size_model(144) = 36864 bytes" in err


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bench", "bogus-sweep"])
    assert exc.value.code == 2


def test_runtime_errors_return_1(tmp_path, capsys):
    assert main(["match", "--workload", str(tmp_path / "missing.txt")]) == 1
    assert capsys.readouterr().err.startswith("error:")
    code = main([
        "workload", "--out", str(tmp_path / "bad.txt"),
        "--rows", "2", "--cols", "2", "--min-route", "6", "--max-route", "12",
    ])
    assert code == 1
    assert "diameter" in capsys.readouterr().err


def test_wire_errors_return_1(tmp_path, capsys):
    """A workload the wire cannot carry ends in `error:` and exit 1, not a traceback."""
    wl_path = tmp_path / "wl.txt"
    assert main([
        "workload", "--out", str(wl_path), "--rows", "8", "--cols", "8",
        "--offers", "3", "--requests", "4", "--min-route", "4", "--max-route", "6",
        "--capacity", "70000",
    ]) == 0
    capsys.readouterr()
    assert main(["match", "--workload", str(wl_path), *SMALL_ARGS]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "70000 does not fit wire field" in err


def test_workload_file_errors_return_1(tmp_path, capsys):
    """A workload record with a missing field, or with a cell off its grid,
    ends in `error:` and exit 1 under either scheme, not a traceback."""
    wl_path = tmp_path / "wl.txt"
    trip = "request r1 pickup=1 dropoff={} route=1,5 t_pick=33112.0 t_drop=33629.0 pref=min-cells\n"
    for text, message in [
        ("grid 8 8 seed=1\noffer o1 cells=1,2,3 depart=100.0\n", "line 2: missing field 'dwell'"),
        ("grid 4 4 seed=1\n" + trip.format(99), "line 2: cell 99 is outside the 4x4 grid"),
        ("grid 4 4 seed=1\n" + trip.format(-1), "line 2: cell -1 is outside the 4x4 grid"),
    ]:
        wl_path.write_text(text, encoding="utf-8")
        for scheme in sim.SCHEMES:
            assert main(["match", "--workload", str(wl_path), "--scheme", scheme, *SMALL_ARGS]) == 1
            assert capsys.readouterr().err == f"error: workload {message}\n"


def serve_and_submit(tmp_path, capsys, scheme, *serve_args):
    wl_path = tmp_path / "wl.txt"
    write_small_workload(wl_path)
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [
            sys.executable, "-c",
            "import sys; from ridecloak.cli import main; sys.exit(main(sys.argv[1:]))",
            "serve", *SMALL_ARGS, "--match-threshold", "1", "--port", "0", "--seed", "5",
            *serve_args,
        ],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    try:
        line = proc.stdout.readline()
        found = re.match(r"listening on ([\d.]+):(\d+) \(epoch 1\)", line)
        assert found, f"unexpected startup line: {line!r}"
        host, port = found.group(1), found.group(2)
        deadline = time.monotonic() + 10
        while True:
            code = main([
                "submit", "--workload", str(wl_path),
                "--scheme", scheme, "--host", host, "--port", port, "--poll",
            ])
            if code == 0 or time.monotonic() > deadline:
                break
            time.sleep(0.2)
        assert code == 0
        out = capsys.readouterr().out
        assert "submitted 3 offers, 4 requests" in out
        # the full-hit workload yields match notifications of the submitted scheme
        assert f"{scheme.capitalize()}Notification(" in out
    finally:
        proc.terminate()
        proc.wait(timeout=10)


def test_serve_log_keeps_its_lines_after_sigterm(tmp_path):
    """A server writing to a file, without PYTHONUNBUFFERED, and stopped by
    SIGTERM leaves its startup line in the file."""
    log_path = tmp_path / "serve.log"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(
            [
                sys.executable, "-c",
                "import sys; from ridecloak.cli import main; sys.exit(main(sys.argv[1:]))",
                "serve", *SMALL_ARGS, "--port", "0", "--seed", "5",
            ],
            stdout=log, stderr=subprocess.STDOUT, env=env,
        )
    try:
        deadline = time.monotonic() + 30
        while "listening on" not in log_path.read_text(encoding="utf-8"):
            assert proc.poll() is None, log_path.read_text(encoding="utf-8")
            assert time.monotonic() < deadline, "no startup line in the log after 30 s"
            time.sleep(0.1)
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
    assert re.match(r"listening on [\d.]+:\d+ \(epoch 1\)\n", log_path.read_text(encoding="utf-8"))


def test_serve_and_submit_round_trip(tmp_path, capsys):
    serve_and_submit(tmp_path, capsys, "direct")


def test_serve_and_submit_transfer_round_trip(tmp_path, capsys):
    serve_and_submit(tmp_path, capsys, "transfer")


@pytest.mark.parametrize("scheme", sim.SCHEMES)
def test_submit_registers_again_when_tokens_run_out(tmp_path, capsys, scheme):
    """3 offers and 4 requests on 2 tokens a registration: every trip is still submitted."""
    serve_and_submit(tmp_path, capsys, scheme, "--tokens-per-bundle", "2")


def serve_parser():
    return build_parser()._subparsers._group_actions[0].choices["serve"]


def test_serve_has_one_flag_per_config_field():
    flags = {
        action.dest: action for action in serve_parser()._actions
        if action.dest not in ("help", "host", "seed")
    }
    assert sorted(flags) == sorted(f.name for f in fields(ServiceConfig))
    for f in fields(ServiceConfig):
        assert flags[f.name].option_strings == ["--" + f.name.replace("_", "-")]
        assert flags[f.name].default == f.default


def test_serve_refuses_an_out_of_range_flag(capsys):
    assert main(["serve", "--tokens-per-bundle", "0"]) == 1
    assert capsys.readouterr().err == "error: tokens_per_bundle must be in [1, 65535], got 0\n"


def test_serve_refuses_widths_no_key_bundle_can_carry(capsys):
    assert main(["serve", "--port", "7392", "--id-bits", "100000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a KEY_BUNDLE at widths") and "over the 1073741824-byte limit" in err


def test_serve_binds_the_port_flag(capsys, monkeypatch):
    def interrupted(self, *args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(SocketServer, "serve_forever", interrupted)
    assert main(["serve", *SMALL_ARGS, "--port", "0", "--seed", "5"]) == 0
    found = re.match(r"listening on [\d.]+:(\d+) \(epoch 1\)", capsys.readouterr().out)
    assert found and int(found.group(1)) != ServiceConfig.port
