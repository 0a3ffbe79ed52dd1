import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import smoothap
import numpy as np

import oracles
from smoothap import characters, cli, discrepancy, multfn
from smoothap.characters import family_A
from smoothap.cli import _dirichlet_convolution, _kernel_worst, main
from smoothap.reports import DISCREPANCY_COLUMNS, emit_report, fmt_number
from smoothap.sieve import SieveTable


def run_cli(args, out):
    return main(["--out", str(out)] + args)


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
                mo = float(discrepancy.u_kernel_moebius(n, q, D))
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
        table = SieveTable(max(N, 2))
        f = multfn.random_unit_circle(seed=N)
        fv = multfn.values_array(f, table, N)
        gv = multfn.values_array(multfn.dirichlet_inverse(f, N), table, N)
        want = np.zeros(N + 1, dtype=np.complex128)
        for d in range(1, N + 1):
            want[d::d] += fv[d] * gv[1 : N // d + 1]
        assert _dirichlet_convolution(fv, gv).tobytes() == want.tobytes(), N


def test_verify_identities_calls_no_scalar_kernel(tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("scalar route called")

    # every smoothap name bound to one of them, wherever it was imported; the
    # definition-form kernel lives only in the test oracles, outside smoothap
    scalar = (characters.induce, discrepancy.u_kernel_moebius)
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "smoothap":
            for attr, val in list(vars(mod).items()):
                if any(val is fn for fn in scalar):
                    monkeypatch.setattr(mod, attr, forbidden)
    assert run_cli(["verify-identities", "--qmax", "30", "--tuples", "3",
                    "--xmax", "300"], tmp_path) == 0


def test_verify_identities_does_not_import_numpy_ma(tmp_path):
    # numpy.ma costs about 1 MB of peak RSS; np.unique is one way to pull it in
    src = str(Path(smoothap.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys\n"
            "from smoothap.cli import main\n"
            f"assert main(['--out', {str(tmp_path)!r}, 'verify-identities', '--qmax', '20',"
            " '--tuples', '3', '--xmax', '300']) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


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


def test_no_command_builds_a_table(tmp_path, monkeypatch):
    tables = []
    init = SieveTable.__init__

    def recorded_init(self, x_max):
        init(self, x_max)
        tables.append(self)

    monkeypatch.setattr(SieveTable, "__init__", recorded_init)
    for name, args in EVERY_COMMAND.items():
        tables.clear()
        assert run_cli(args, tmp_path / name) == 0, name
        assert len(tables) == 1, name
        # only the range and the cached support: no array over 0..x_max
        assert set(vars(tables[0])) == {"x_max", "_support"}, name


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
             ["bv-average", "--x", "100", "--y", "5", "--Q", "3", "--xi", "A:x"],
             ["bv-average", "--xs", "1000,zz", "--y", "5", "--Q", "3"],
             # inputs that ended in a traceback (exit 1) before they were checked
             ["large-sieve", "--x", "1", "--y", "2"],
             ["exceptional", "--x", "100", "--y", "1", "--Q", "5"],
             ["exceptional", "--x", "100", "--y", "5", "--Q", "3", "--B", "400"],
             ["verify-identities", "--qmax", "0"],
             ["verify-identities", "--xmax", "10"]]
    for args in cases:
        assert run_cli(args, tmp_path) == 2, args
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["type"] == "DomainError" and err["error"], args


def test_exceptional_twist_outside_the_scanned_family(tmp_path):
    # twist:R:RANK reads character RANK mod R, whatever the conductors scanned
    assert run_cli(["exceptional", "--x", "5000", "--y", "20", "--Q", "5",
                    "--f", "twist:7:1"], tmp_path) == 0
    doc = json.loads((tmp_path / "exceptional.json").read_text())
    assert doc["config"]["f_record"]["label"] == "twist[q=7,rank=1,y=20]"


def test_seed0_reports_match_pinned_digests(tmp_path):
    # the nine report digests the benchmark pins, exceptional-characters.json
    # (the to_record output) among them; the manifest is only read here
    manifest = json.loads((Path(__file__).parents[1] / "perfbench" / "manifest.json")
                          .read_text(encoding="utf-8"))
    seed = str(manifest["pin_seed"])
    for name, spec in manifest["workloads"].items():
        out = tmp_path / name
        argv = [a.replace("{seed}", seed) for a in spec["argv"]]
        assert main(["--out", str(out), "--threads", "1", *manifest["global_argv"],
                     *argv]) == 0, name
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert got == spec["reports"], name


# sha256 of large-sieve --x 20000 --y 30 --Q 6 --trials 3 with each coefficient
# family, pinned before the coefficients moved from 0..x to the smooth positions
LARGE_SIEVE_DIGESTS = {
    ("--coeffs", "ones"): {
        "large-sieve.csv": "da2cc94498d0469cce9c27ae1f2f3fb7fd4749cde95a258c3a4243705f3ce567",
        "large-sieve.json": "f9cc825ec6eaed3b2d693704a6a20d96caf5b769a8c7b071759ea38cf8a70d21",
    },
    ("--coeffs", "pm1", "--seed", "0"): {
        "large-sieve.csv": "963c0c0686d50c498ce3650271998dbe4a38c7b372d4e79ae0c9a2d60fbcff7c",
        "large-sieve.json": "b00fe222b5e2b231b146f5994604f38e23da88e17ad5afd5a8bf870a8810709b",
    },
}


def test_large_sieve_reports_match_pinned_digests(tmp_path):
    for i, (coeffs, want) in enumerate(LARGE_SIEVE_DIGESTS.items()):
        out = tmp_path / str(i)
        assert run_cli(["large-sieve", "--x", "20000", "--y", "30", "--Q", "6",
                        "--trials", "3", *coeffs], out) == 0, coeffs
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert got == want, coeffs


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
    path = str(tmp_path / "empty.csv")
    emit_report(path, "csv", ["a", "b"], [], {"command": "demo"})
    lines = Path(path).read_text().splitlines()
    assert len(lines) == 2
    assert lines[1] == "a,b"


def test_number_formatting():
    assert fmt_number(34) == "34"
    assert fmt_number(0.5) == "0.5"
    assert fmt_number(1 / 3) == "0.333333333333"
    assert len(fmt_number(123456.789012345).replace(".", "")) <= 13


def test_console_script_entry_point(tmp_path):
    # the child finds the package where this process imported it from
    src = str(Path(smoothap.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "smoothap.cli", "--out", str(tmp_path),
         "psi", "--x", "50", "--y", "3"],
        capture_output=True, text=True, env=env)
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
