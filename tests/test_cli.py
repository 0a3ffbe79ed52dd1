import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import smoothap
import numpy as np
import pytest

import oracles
from smoothap import cli, discrepancy, multfn, sieve
from smoothap.characters import UnitGroup, family_A
from smoothap.cli import _dirichlet_convolution, _kernel_worst, main
from smoothap.reports import DISCREPANCY_COLUMNS, emit_reports, fmt_number


def run_cli(args, out):
    return main(["--out", str(out)] + args)


def run_child(*args):
    """Run a fresh interpreter that finds smoothap where this process imported it from."""
    src = str(Path(smoothap.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_psi_command(tmp_path):
    assert run_cli(["psi", "--x", "100", "--y", "5"], tmp_path) == 0
    rows = (tmp_path / "psi.csv").read_text().splitlines()
    assert rows[0].startswith("# config:")
    assert rows[1] == "kind,x,y,q,a,count"
    assert rows[2].endswith(",34")
    doc = json.loads((tmp_path / "psi.json").read_text())
    assert doc["records"][0]["count"] == "34"


def test_delta_command(tmp_path):
    assert run_cli(["delta", "--x", "100", "--y", "5", "--q", "3", "--a", "1"],
                   tmp_path) == 0
    rows = (tmp_path / "delta.csv").read_text().splitlines()
    assert rows[1] == ",".join(DISCREPANCY_COLUMNS)
    assert rows[2] == "3,1,1,0.5,0,0.5"


def test_large_sieve_ones_Q1(tmp_path):
    assert run_cli(["large-sieve", "--x", "10000", "--y", "20", "--Q", "1",
                    "--coeffs", "ones"], tmp_path) == 0
    doc = json.loads((tmp_path / "large-sieve.json").read_text())
    assert doc["summary"]["max_ratio"] == "1"
    assert doc["records"][0]["ratio"] == "1"


def test_bv_average_row_count(tmp_path):
    assert run_cli(["bv-average", "--x", "2000", "--y", "20", "--Q", "30",
                    "--a1", "1", "--a2", "1"], tmp_path) == 0
    rows = (tmp_path / "bv-average.csv").read_text().splitlines()
    assert len(rows) - 2 == 30  # config line + header + one row per modulus


def test_exceptional_command(tmp_path):
    assert run_cli(["exceptional", "--x", "10000", "--y", "50", "--Q", "10",
                    "--B", "1"], tmp_path) == 0
    doc = json.loads((tmp_path / "exceptional.json").read_text())
    assert int(doc["summary"]["count"]) >= 1
    assert "context_bound" in doc["summary"]


def test_verify_identities_command(tmp_path):
    code = run_cli(["verify-identities", "--qmax", "12", "--tuples", "3",
                    "--xmax", "300", "--Dset", "1,3"], tmp_path)
    assert code == 0
    doc = json.loads((tmp_path / "verify-identities.json").read_text())
    assert doc["summary"]["all_ok"] == "true"
    assert all(r["ok"] == "true" for r in doc["records"])


def test_verify_identities_zero_tuples_reads_tuples_0(tmp_path):
    # --tuples 0 checks no transfer tuple and says so; --xmax may then be < 50
    assert run_cli(["verify-identities", "--qmax", "5", "--tuples", "0", "--xmax", "10"],
                   tmp_path) == 0
    rows = (tmp_path / "verify-identities.csv").read_text().splitlines()
    assert "transfer-identity,tuples=0,0,1e-08,true" in rows


def test_verify_identities_builds_the_family_up_to_qmax(tmp_path):
    # no conductor above --qmax divides a q the kernel rows check, so a D
    # past the family cap (A(600) has more tables than it allows) runs
    assert run_cli(["verify-identities", "--qmax", "5", "--tuples", "0", "--xmax", "10",
                    "--Dset", "1,600"], tmp_path) == 0
    doc = json.loads((tmp_path / "verify-identities.json").read_text())
    assert [(r["params"], r["ok"]) for r in doc["records"] if r["check"] == "kernel-identity"] \
        == [("q<=5,D=1", "true"), ("q<=5,D=600", "true")], doc["records"]


def test_verify_identities_kernel_rows_pinned(tmp_path):
    # the kernel rows depend on neither --seed nor --tuples
    assert run_cli(["verify-identities", "--qmax", "160", "--tuples", "1",
                    "--xmax", "200", "--seed", "5"], tmp_path) == 0
    rows = (tmp_path / "verify-identities.csv").read_text().splitlines()[2:]
    kernel = [r.split(",") for r in rows if r.startswith("kernel-identity,")]
    assert [(r[1], r[2], r[3]) for r in kernel] == [
        ("q<=160", "D=1", "0"),
        ("q<=160", "D=2", "0"),
        ("q<=160", "D=3", "1.11022302463e-16"),
        ("q<=160", "D=5", "1.11022302463e-16"),
        ("q<=160", "D=10", "1.33432201416e-16"),
    ]


def test_kernel_worst_equals_cell_loop():
    fam = family_A(10)
    for D in (1, 2, 3, 5, 10):
        for q in range(1, 61):
            worst = 0.0
            for n in range(q):
                mo = float(oracles.u_kernel_moebius(n, q, D))
                worst = max(worst, abs(oracles.u_kernel_chardef(n, q, D, fam) - mo))
            assert _kernel_worst(q, D, fam) == worst, (q, D)
    # np.abs rounds differently from Python's abs in a few rows above q = 60
    for D in (5, 10):
        for q in range(61, 161):
            d = (discrepancy.u_kernel_chardef_row(q, D, fam)
                 - discrepancy.u_kernel_moebius_row(q, D))
            assert _kernel_worst(q, D, fam) == max(abs(complex(v)) for v in d), (q, D)


def test_dirichlet_convolution_equals_strided_loop():
    # the blocked np.add.at route against the loop of strided adds it
    # replaced: each (f*g)(n) is the same sum in ascending d, so bitwise
    for N in (1, 2, 3, 10, cli._CONV_BLOCK, 3 * cli._CONV_BLOCK + 7):
        f = multfn.random_unit_circle(seed=N)
        fv = multfn.values_array(f, N)
        gv = multfn.values_array(multfn.dirichlet_inverse(f, N), N)
        want = np.zeros(N + 1, dtype=np.complex128)
        for d in range(1, N + 1):
            want[d::d] += fv[d] * gv[1 : N // d + 1]
        assert _dirichlet_convolution(fv, gv).tobytes() == want.tobytes(), N


def test_verify_identities_calls_no_scalar_kernel(tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("scalar route called")

    # every smoothap name bound to one of them, wherever it was imported; the
    # scalar routes and the definition-form kernel live only in the test
    # oracles, outside smoothap
    scalar = (oracles.induce, oracles.u_kernel_moebius)
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "smoothap":
            assert not hasattr(mod, "induce") and not hasattr(mod, "u_kernel_moebius"), modname
            for attr, val in list(vars(mod).items()):
                if any(val is fn for fn in scalar):
                    monkeypatch.setattr(mod, attr, forbidden)
    assert run_cli(["verify-identities", "--qmax", "30", "--tuples", "3",
                    "--xmax", "300"], tmp_path) == 0


def test_verify_identities_does_not_import_numpy_ma(tmp_path):
    # numpy.ma costs about 1 MB of peak RSS; np.unique is one way to pull it in
    code = ("import sys\n"
            "from smoothap.cli import main\n"
            f"assert main(['--out', {str(tmp_path)!r}, 'verify-identities', '--qmax', '20',"
            " '--tuples', '3', '--xmax', '300']) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    proc = run_child("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_serial_commands_load_neither_openssl_nor_the_thread_pool(tmp_path):
    # _hashlib maps OpenSSL's libcrypto (about 3.5 MB RSS) and
    # concurrent.futures pulls in logging; a --threads 1 run needs neither
    code = ("import sys\n"
            "from smoothap.cli import main\n"
            f"out = {str(tmp_path)!r}\n"
            "assert main(['--out', out, '--threads', '1', 'bv-average', '--x', '3000',"
            " '--y', '20', '--Q', '5', '--f', 'random-unit']) == 0\n"
            "assert main(['--out', out, '--threads', '1', 'verify-identities', '--qmax', '10',"
            " '--tuples', '2', '--xmax', '200']) == 0\n"
            "print(sorted({'_hashlib', 'concurrent.futures'} & set(sys.modules)))\n")
    proc = run_child("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


EVERY_COMMAND = {
    "decay": ["bv-average", "--xs", "20000,40000", "--y-rule", "cuberoot", "--Q", "20",
              "--f", "random-unit", "--f-seed", "3", "--xi", "A:6"],
    "bv": ["bv-average", "--x", "30000", "--y", "200", "--Q", "30", "--f", "moebius-smooth"],
    "delta": ["delta", "--x", "30000", "--y", "40", "--q", "7", "--a", "3",
              "--f", "twist:5:1"],
    # y above sqrt(x): the large primes are counted, not walked
    "psi": ["psi", "--x", "30000", "--y", "200"],
    "psi-coprime": ["psi", "--x", "30000", "--y", "200", "--q", "30"],
    "psi-progression": ["psi", "--x", "30000", "--y", "200", "--q", "30", "--a", "7"],
    "large-sieve": ["large-sieve", "--x", "3000", "--y", "20", "--Q", "5",
                    "--trials", "2", "--coeffs", "pm1"],
    "exceptional": ["exceptional", "--x", "3000", "--y", "20", "--Q", "12"],
    "verify-identities": ["verify-identities", "--qmax", "20", "--tuples", "3",
                          "--xmax", "300"],
}


def test_no_command_loads_fractions_or_decimal(tmp_path):
    # fractions pulls in decimal (about 0.4 MB RSS), and no module in
    # src/smoothap imports fractions
    code = ("import sys\n"
            "from smoothap.cli import main\n"
            f"for name, argv in {EVERY_COMMAND!r}.items():\n"
            f"    assert main(['--out', {str(tmp_path)!r} + '/' + name, *argv]) == 0, name\n"
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))\n")
    proc = run_child("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_large_sieve_walks_once_and_no_command_allocates_over_0_to_x(tmp_path, monkeypatch):
    # large-sieve builds its smooth set once, before the trials
    walks = []
    pieces = sieve.smooth_pieces

    def counted(*args, **kwargs):
        walks.append(args)
        return pieces(*args, **kwargs)

    monkeypatch.setattr(sieve, "smooth_pieces", counted)
    counts = []
    for trials in ("1", "3"):
        walks.clear()
        assert run_cli(["large-sieve", "--x", "100000", "--y", "30", "--Q", "3",
                        "--trials", trials], tmp_path / trials) == 0
        counts.append(len(walks))
    assert counts[0] == counts[1], counts
    # one byte per integer over 0..x would be x bytes; the bitmap and rank
    # index of a walk placed in ascending order take 3x/16.  verify-identities
    # is left out: its Dirichlet-inverse check convolves dense arrays over
    # 0..xmax by design
    x = 4_000_000
    args = ["--x", str(x), "--y", "7"]
    for name, argv in {
        "psi": ["psi", *args],
        "psi-coprime": ["psi", *args, "--q", "30"],
        "psi-progression": ["psi", *args, "--q", "30", "--a", "7"],
        "delta": ["delta", *args, "--q", "7", "--a", "3", "--f", "moebius-smooth"],
        "bv": ["bv-average", *args, "--Q", "30"],
        "large-sieve": ["large-sieve", *args, "--Q", "5", "--trials", "2", "--coeffs", "pm1"],
        "exceptional": ["exceptional", *args, "--Q", "5", "--B", "-3"],
    }.items():
        tracemalloc.start()
        try:
            assert run_cli(argv, tmp_path / name) == 0, name
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x // 2, (name, peak)


def test_large_sieve_trials_hold_one_coefficient_vector(tmp_path):
    # the previous trial's coefficients are dropped before the next are built
    argv = ["large-sieve", "--x", "200000", "--y", "60", "--Q", "3", "--coeffs", "pm1"]
    assert run_cli(argv, tmp_path) == 0  # character tables and other caches
    peaks = []
    for trials in ("1", "3"):
        tracemalloc.start()
        try:
            assert run_cli([*argv, "--trials", trials], tmp_path) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.03 * peaks[0], peaks


def test_bv_average_checks_every_x_before_building_a_support(tmp_path, monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("get_support called")

    monkeypatch.setattr(discrepancy, "get_support", forbidden)
    assert run_cli(["bv-average", "--xs", "1000,50000001", "--y", "5", "--Q", "3"],
                   tmp_path) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["type"] == "SizingError" and "50000001" in err["error"]


# bv-average argv whose y or Q is wrong at some x: no --y under the default
# --y-rule fixed (it walked every n <= x as an unbounded f, then ended in a
# TypeError, exit 1), y < 2, and Q outside 1..x, at the second x of --xs
# (after all of the first was computed); then argv that exited 0: an --x
# beside --xs and a --y beside --y-rule cuberoot (both recorded in the
# config but not used), and a1*a2 = 0 (gcd(0, q) = q left q = 1 alone)
BV_AVERAGE_BAD_Y_OR_Q = [
    ["bv-average", "--x", "100", "--Q", "3"],
    ["bv-average", "--xs", "1000,2000", "--Q", "3", "--f", "random-unit"],
    ["bv-average", "--x", "100", "--y", "1", "--Q", "3"],
    ["bv-average", "--x", "100", "--y", "5", "--Q", "101"],
    ["bv-average", "--xs", "100000,50", "--y", "10", "--Q", "100"],
    ["bv-average", "--xs", "1000,2000", "--y-rule", "cuberoot", "--Q-exp", "-1"],
    ["bv-average", "--x", "5", "--xs", "1000,2000", "--y", "10", "--Q", "3"],
    ["bv-average", "--x", "1000", "--y", "50", "--y-rule", "cuberoot", "--Q", "3"],
    ["bv-average", "--x", "1000", "--y", "10", "--Q", "5", "--a1", "0"],
    ["bv-average", "--x", "1000", "--y", "10", "--Q", "5", "--a2", "0"],
    # x^Q-exp is not a finite float: these ended in a traceback (exit 1)
    ["bv-average", "--x", "10000", "--y", "20", "--Q-exp", "nan"],
    ["bv-average", "--x", "10000", "--y", "20", "--Q-exp", "inf"],
    ["bv-average", "--xs", "10000,20000", "--y-rule", "cuberoot", "--Q-exp", "1e300"],
]


def test_bv_average_resolves_y_and_Q_for_every_x_before_building(tmp_path, monkeypatch,
                                                                  capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("get_support called")

    monkeypatch.setattr(discrepancy, "get_support", forbidden)
    for args in BV_AVERAGE_BAD_Y_OR_Q:
        assert run_cli(args, tmp_path) == 2, args
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["type"] == "DomainError", args


def test_a_family_past_the_table_cap_is_a_typed_error_without_allocation(tmp_path, capsys):
    # 515 is the first Q whose primitive characters need more than
    # characters.FAMILY_TABLE_CAP bytes of complex tables
    for Q in ("515", "1000000000"):
        for args in (["large-sieve", "--x", "1000", "--y", "10", "--Q", Q],
                     ["exceptional", "--x", "1000", "--y", "10", "--Q", Q],
                     ["bv-average", "--x", "1000", "--y", "10", "--Q", "5", "--xi", f"A:{Q}"]):
            tracemalloc.start()
            t0 = time.perf_counter()
            try:
                code = run_cli(args, tmp_path)
                elapsed = time.perf_counter() - t0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 2, args
            err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert err["type"] == "SizingError", args
            assert peak < 1 << 20, (args, peak)  # the cap is 268 MB
            assert elapsed < 1.0, (args, elapsed)


def test_every_report_config_holds_exactly_its_subcommand_arguments(tmp_path):
    # "command" plus every argument of the subcommand's own parser, and the
    # scanned f's record in exceptional's; never --out, --format or --threads
    subparsers, = (a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
    for cmd, args in EVERY_COMMAND.items():
        out = tmp_path / cmd
        assert run_cli(args, out) == 0, cmd
        want = {"command"} | {a.dest for a in subparsers.choices[args[0]]._actions
                              if a.dest != "help"}
        if args[0] == "exceptional":
            want.add("f_record")
        configs = [json.loads(p.read_text())["config"] for p in out.glob("*.json")]
        configs += [json.loads(p.read_text().splitlines()[0].removeprefix("# config: "))
                    for p in out.glob("*.csv")]
        assert len(configs) >= 2, cmd
        for config in configs:
            assert set(config) == want, cmd
            assert config["command"] == args[0]


def test_readme_command_examples_run(tmp_path, capsys):
    # every `smoothap ...` line of README "Command line", with the values
    # its comments state
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    lines = re.findall(r"^smoothap (.*)$", section, flags=re.M)
    assert len(lines) == 9
    checked = 0
    for i, line in enumerate(lines):
        argv, _, comment = line.partition("#")
        assert run_cli(argv.split(), tmp_path / str(i)) == 0, line
        stdout = capsys.readouterr().out
        if m := re.search(r"Psi\(\d+,\d+\) = (\d+)", comment):
            assert f"psi = {m[1]}\n" in stdout, line
            checked += 1
        if m := re.search(r"Delta = (\S+)", comment):
            assert f"delta = {m[1]} + 0i\n" in stdout, line
            checked += 1
    assert checked == 2


def test_oversize_x_is_a_typed_error_without_allocation(tmp_path, capsys):
    for args in (["bv-average", "--x", "50000001", "--y", "368", "--Q", "10"],
                 ["psi", "--x", "50000001", "--y", "2"]):
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            code = run_cli(args, tmp_path)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["type"] == "SizingError" and "50000001" in err["error"]
        # numpy reports its buffers to tracemalloc: no array over 0..x was made
        assert peak < 1 << 20, peak
        assert elapsed < 1.0, elapsed


def test_usage_error_exit_2(tmp_path, capsys):
    # gcd(a, q) > 1 is a domain error -> exit 2 with a machine-readable record;
    # so is a malformed function, Xi or x-list spec
    delta = ["delta", "--x", "100", "--y", "5", "--q", "7", "--a", "3", "--f"]
    cases = [["delta", "--x", "100", "--y", "5", "--q", "6", "--a", "3"],
             delta + ["twist:5"], delta + ["twist:abc"], delta + ["twist:7:1:2"],
             delta + ["twist:7:x"],
             # a rank outside 0..phi(R)-1, and ranks of imprimitive characters
             delta + ["twist:7:6"], delta + ["twist:7:-1"], delta + ["twist:9:3"],
             delta + ["twist:9:0"], delta + ["twist:2:0"],
             ["bv-average", "--x", "100", "--y", "5", "--Q", "3", "--xi", "A:x"],
             ["bv-average", "--xs", "1000,zz", "--y", "5", "--Q", "3"],
             # summed over no modulus and reported total 0 (exit 0)
             ["bv-average", "--x", "1000", "--y", "10", "--Q", "0"],
             ["bv-average", "--x", "1000", "--y", "10", "--Q", "-3"],
             # no command takes x < 1
             ["psi", "--x", "0", "--y", "5"],
             # inputs that ended in a traceback (exit 1) before they were checked
             ["large-sieve", "--x", "1", "--y", "2"],
             ["exceptional", "--x", "0", "--y", "5", "--Q", "3"],
             ["large-sieve", "--x", "10000", "--y", "20", "--c", "nan"],
             ["large-sieve", "--x", "10000", "--y", "20", "--c", "1e9"],
             ["large-sieve", "--x", "10000", "--y", "20", "--c", "inf", "--weight-mode", "sqrt"],
             ["large-sieve", "--x", "-5", "--y", "20", "--weight-mode", "sqrt"],
             ["large-sieve", "--x", "100", "--y", "-20"],
             # ignored beside --Q, yet written as NaN or Infinity into the
             # reports (not valid JSON), and exited 0
             ["large-sieve", "--x", "1000", "--y", "10", "--Q", "3", "--c", "nan"],
             ["large-sieve", "--x", "1000", "--y", "10", "--Q", "3", "--c", "inf"],
             ["bv-average", "--x", "1000", "--y", "10", "--Q", "3", "--Q-exp", "nan"],
             ["bv-average", "--x", "1000", "--y", "10", "--Q", "3", "--Q-exp", "inf"],
             # ran no trial and reported max_ratio 0 (exit 0)
             ["large-sieve", "--x", "1000", "--y", "10", "--Q", "3", "--trials", "0"],
             ["exceptional", "--x", "100", "--y", "1", "--Q", "5"],
             ["exceptional", "--x", "100", "--y", "5", "--Q", "3", "--B", "400"],
             ["verify-identities", "--qmax", "0"],
             ["verify-identities", "--xmax", "10"],
             # checked nothing and wrote an ok transfer-identity row (exit 0)
             ["verify-identities", "--tuples", "-1"],
             # took np.max of the empty conv[2:] (a ValueError, exit 1)
             ["verify-identities", "--qmax", "1", "--tuples", "0", "--xmax", "1",
              "--Dset", "1"],
             ["verify-identities", "--qmax", "3", "--tuples", "0", "--xmax", "1"],
             # ran serially (exit 0)
             ["--threads", "0", "bv-average", "--x", "1000", "--y", "10", "--Q", "5"],
             ["--threads", "-3", "exceptional", "--x", "1000", "--y", "10", "--Q", "3"],
             # delta took y < 2 and exited 0, while psi, bv-average and
             # large-sieve reject it
             ["delta", "--x", "100", "--y", "1", "--q", "3", "--a", "1"],
             # counted psi(x, y) and exited 0, ignoring an --a with no --q
             ["psi", "--x", "100", "--y", "5", "--a", "1"],
             *BV_AVERAGE_BAD_Y_OR_Q]
    for args in cases:
        assert run_cli(args, tmp_path) == 2, args
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["type"] == "DomainError" and err["error"], args
    # named D, family_A's parameter, not the flag the user set
    for cmd in ("exceptional", "large-sieve"):
        args = [cmd, "--x", "1000", "--y", "10", "--Q", "0"]
        assert run_cli(args, tmp_path) == 2, args
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["type"] == "DomainError" and "--Q" in err["error"], args


def test_exceptional_checks_context_bound_before_the_scan(tmp_path, monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("detect_exceptional called")

    monkeypatch.setattr(cli, "detect_exceptional", forbidden)
    assert run_cli(["exceptional", "--x", "100", "--y", "5", "--Q", "3", "--B", "200"],
                   tmp_path) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["type"] == "DomainError" and "overflows" in err["error"]


@pytest.mark.parametrize("fmt", ["csv", "json", "both"])
def test_every_command_writes_the_whole_document_text(tmp_path, monkeypatch, fmt):
    # each report equals the text formed whole from the rows the command
    # streamed; exceptional-characters.json equals its own whole re-dump
    calls = []

    def recorded(out, name, fmt, columns, rows, config, summary=None):
        rows = list(rows)
        calls.append((name, columns, rows, config, summary))
        return emit_reports(out, name, fmt, columns, rows, config, summary)

    monkeypatch.setattr(cli, "emit_reports", recorded)
    for cmd, args in EVERY_COMMAND.items():
        calls.clear()
        out = tmp_path / cmd
        assert main(["--out", str(out), "--format", fmt, *args]) == 0, cmd
        (name, columns, rows, config, summary), = calls
        want = {}
        if fmt in ("csv", "both"):
            want[f"{name}.csv"] = oracles.csv_report_text(columns, rows, config)
        if fmt in ("json", "both"):
            want[f"{name}.json"] = oracles.json_report_text(rows, config, summary)
            if cmd == "exceptional":
                text = (out / "exceptional-characters.json").read_text(encoding="utf-8")
                assert text == oracles.json_text(json.loads(text))
                want["exceptional-characters.json"] = text
        got = {p.name: p.read_text(encoding="utf-8") for p in out.iterdir()}
        assert got == want, (cmd, fmt)


def test_twist_builds_only_its_own_character(tmp_path):
    # twist:R:RANK built every character mod R (about 200 MB at R = 999983)
    # to keep one; the unit group's discrete logs are 8 MB
    UnitGroup._cache.pop(999983, None)
    tracemalloc.start()
    try:
        f = cli._parse_function("twist:999983:5", 10, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        UnitGroup._cache.pop(999983, None)
    assert peak < 16 << 20, peak
    assert f.label == "twist[q=999983,rank=5,y=10]"


def test_verify_identities_names_the_range_xmax_bounds(tmp_path, capsys):
    assert run_cli(["verify-identities", "--tuples", "0", "--xmax", "1"], tmp_path) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["type"] == "DomainError" and "2..xmax" in err["error"], err


def test_exceptional_twist_outside_the_scanned_family(tmp_path):
    # twist:R:RANK reads character RANK mod R, whatever the conductors scanned
    assert run_cli(["exceptional", "--x", "5000", "--y", "20", "--Q", "5",
                    "--f", "twist:7:1"], tmp_path) == 0
    doc = json.loads((tmp_path / "exceptional.json").read_text())
    assert doc["config"]["f_record"]["label"] == "twist[q=7,rank=1,y=20]"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_seed0_reports_match_pinned_digests(tmp_path, threads):
    # the nine report digests the benchmark pins, exceptional-characters.json
    # (the to_record output) among them; the manifest is only read here.  The
    # benchmark also runs a traced child at --threads 2, so check that too
    manifest = json.loads((Path(__file__).parents[1] / "perfbench" / "manifest.json")
                          .read_text(encoding="utf-8"))
    seed = str(manifest["pin_seed"])
    for name, spec in manifest["workloads"].items():
        out = tmp_path / name
        argv = [a.replace("{seed}", seed) for a in spec["argv"]]
        assert main(["--out", str(out), "--threads", threads, *manifest["global_argv"],
                     *argv]) == 0, name
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert got == spec["reports"], name


# sha256 of large-sieve reports.  At --Q 6 --trials 3 with each coefficient
# family, pinned before the coefficients moved from 0..x to the smooth
# positions; at --Q 60 --trials 2, where many moduli have many characters,
# pinned before the tables were built afresh for each trial
LARGE_SIEVE_DIGESTS = {
    ("--Q", "6", "--trials", "3", "--coeffs", "ones"): {
        "large-sieve.csv": "da2cc94498d0469cce9c27ae1f2f3fb7fd4749cde95a258c3a4243705f3ce567",
        "large-sieve.json": "f9cc825ec6eaed3b2d693704a6a20d96caf5b769a8c7b071759ea38cf8a70d21",
    },
    ("--Q", "6", "--trials", "3", "--coeffs", "pm1", "--seed", "0"): {
        "large-sieve.csv": "963c0c0686d50c498ce3650271998dbe4a38c7b372d4e79ae0c9a2d60fbcff7c",
        "large-sieve.json": "b00fe222b5e2b231b146f5994604f38e23da88e17ad5afd5a8bf870a8810709b",
    },
    ("--Q", "60", "--trials", "2", "--coeffs", "pm1"): {
        "large-sieve.csv": "6c3cb484242c4864cfee6021986e88ff3901eaba9d7938da87130de19505eff6",
        "large-sieve.json": "e56f512654adace5f6c8f3894d87a40f937d43873b799e4223122a5028fe7b81",
    },
}


def test_large_sieve_reports_match_pinned_digests(tmp_path):
    for i, (args, want) in enumerate(LARGE_SIEVE_DIGESTS.items()):
        out = tmp_path / str(i)
        assert run_cli(["large-sieve", "--x", "20000", "--y", "30", *args], out) == 0, args
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert got == want, args


# sha256 of two delta reports, pinned before Delta, Delta_Xi and Delta_A
# came from one record builder; at --q 12 --a 17 the report's a1 is 17 mod 12
DELTA_DIGESTS = {
    ("--x", "5000", "--y", "50", "--q", "12", "--a", "17", "--f", "random-unit",
     "--f-seed", "3"): {
        "delta.csv": "b4278abf2527a26e7179d36eae65eb533f855d5391865425d77618f8a6acfdaa",
        "delta.json": "d449da9913e1b47b274ebad4fd0f33fa40221428a97617ad9dce3f4fa78301e9",
    },
    ("--x", "100", "--y", "5", "--q", "3", "--a", "1"): {
        "delta.csv": "147ca1f4d7bc77f49798d99155b61205feb368c6118083b93aa3949735ffc3a5",
        "delta.json": "f25df2b44c21fe61c35151b01f0844510f4577eb01aa46d26c8cd87be1c60380",
    },
}


def test_delta_reports_match_pinned_digests(tmp_path):
    for i, (args, want) in enumerate(DELTA_DIGESTS.items()):
        out = tmp_path / str(i)
        assert run_cli(["delta", *args], out) == 0, args
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert got == want, args


def test_cli_determinism_across_runs_and_threads(tmp_path):
    outs = []
    for i, threads in enumerate(("1", "4", "8")):
        out = tmp_path / f"run{i}"
        assert main(["--out", str(out), "--threads", threads, "bv-average",
                     "--x", "2000", "--y", "20", "--Q", "25"]) == 0
        outs.append((out / "bv-average.csv").read_bytes()
                    + (out / "bv-average.json").read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_empty_record_list_gives_header_only_csv(tmp_path):
    emit_reports(str(tmp_path), "empty", "csv", ["a", "b"], [], {"command": "demo"})
    lines = (tmp_path / "empty.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1] == "a,b"


def test_number_formatting():
    assert fmt_number(34) == "34"
    assert fmt_number(0.5) == "0.5"
    assert fmt_number(1 / 3) == "0.333333333333"
    assert len(fmt_number(123456.789012345).replace(".", "")) <= 13


def test_console_script_entry_point(tmp_path):
    proc = run_child("-m", "smoothap.cli", "--out", str(tmp_path),
                     "psi", "--x", "50", "--y", "3")
    assert proc.returncode == 0
    assert "psi = " in proc.stdout


def test_bv_average_decay_mode(tmp_path):
    assert run_cli(["bv-average", "--xs", "2000,4000", "--y-rule", "cuberoot"],
                   tmp_path) == 0
    rows = (tmp_path / "bv-average-decay.csv").read_text().splitlines()
    assert rows[1] == "x,y,Q,total,psi,normalized"
    assert len(rows) == 4  # config + header + one row per x


def test_large_sieve_auto_Q(tmp_path):
    assert run_cli(["large-sieve", "--x", "10000", "--y", "400", "--coeffs",
                    "ones"], tmp_path) == 0
    doc = json.loads((tmp_path / "large-sieve.json").read_text())
    assert int(doc["config"]["Q"]) >= 1  # derived from c = 0.2
    assert doc["config"]["c"] == 0.2
