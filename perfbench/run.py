"""Benchmark runner for the smoothap CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root (the package is imported from `src/`, nothing
needs installing).  Workloads, pinned report digests and the layer map live
in `manifest.json`; metric names, units and bounds in `BENCHMARK.json`.

--trace 0 (end to end): the workload's CLI command runs as a child process,
one at a time, as often as fits in S seconds (at least three runs), tracing
off, at --threads 1.  Reported: wall_s (spawn to exit), cpu_s (user +
system) and setup_s (spawn until `smoothap.cli` is imported; import-only
probes plus every workload child) of the slowest child, the median
peak_rss_mb (ru_maxrss) and work_per_s (fixed input units over wall_s).
Every child does the same fixed work, so the children differ only by how
much the host slowed them.  On a shared host each vCPU switches between a
fast and a slow state (up to 1.9x apart for pure-Python code) for seconds
to minutes at a time, so the median, and the fastest child, of one run
jump with the share of fast time in it.  The slow state comes back in
nearly every 30-s window, and the slowest child tracks it: over ten-run
sets its spread, and the drift of its median from set to set, were about
half those of the median or the minimum.  Each
single-thread child is pinned to the vCPU that ran a short probe loop
fastest just before it starts, so it never migrates; that also narrowed
the spread.  The detail line gives the median, quartiles, minimum and
maximum of every sample.

--trace 1 (per layer): untraced and traced children alternate (at least one
untraced and two traced), then one traced child runs at --threads 2, all
within about S seconds.  The
traced children wrap smoothap's layers in-process (tracer.py) and write
spans as JSON lines; times are medians over the traced single-thread runs,
counts must repeat exactly across them, util.ordered_map.speedup_2t is the
ordered_map time at one thread over that at two, and trace.overhead_s is
the median traced wall time minus the median untraced one.

Every child's reports are checked: exit code 0, every expected report file
present, and, at the pinned seed (and always for seed-free workloads), the
sha256 digests pinned in manifest.json; at other seeds, byte-identical
reports across every run of the invocation.  A failing child counts in
`failed`.  The last stdout line is the JSON result; the line before it
gives quartiles, sample counts and error_rate (failed over attempted).

--smoke runs every workload on tiny inputs in both modes and checks that
every metric of BENCHMARK.json is emitted, and that each layer metric is
non-zero on the workloads manifest.json maps it to.  Exit code 0 when all
pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
MANIFEST = json.loads((HERE / "manifest.json").read_text(encoding="utf-8"))

DEADLINE_S = 165.0  # every invocation must end within 180 s
SETUP_PROBES = 5  # import-only children per end-to-end invocation
MIN_E2E_RUNS = 3
MIN_TRACED_RUNS = 2
TIME_UNITS = ("s", "ms")


@dataclass
class Child:
    """One finished child process and what its reports looked like."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float | None
    exit_code: int
    reports: dict = field(default_factory=dict)  # file name -> sha256
    report_bytes: int = 0
    trace: list = field(default_factory=list)  # JSON-lines records
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


class Bench:
    def __init__(self, workload: str, seed: int, tiny: bool):
        spec = MANIFEST["workloads"][workload]
        self.name = workload
        self.spec = spec
        self.tiny = tiny
        argv = spec["tiny_argv" if tiny else "argv"]
        seeded = any("{seed}" in a for a in argv)
        self.argv = [a.replace("{seed}", str(seed)) for a in argv]
        self.units = spec["tiny_units" if tiny else "units"]
        pinned = not tiny and (not seeded or seed == MANIFEST["pin_seed"])
        self.expected = spec["reports"] if pinned else None
        self.report_names = sorted(spec["reports"])
        self.started = time.monotonic()
        self.dir = WORK / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)  # left by a killed invocation
        self.children: list[Child] = []
        self._n = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def spawn(self, cli_args: list[str] | None, trace: bool = False,
              threads: int = 1) -> Child:
        """Run child.py once; cli_args None means import only."""
        self._n += 1
        run_dir = self.dir / f"run{self._n}"
        out = run_dir / "reports"
        out.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / "child.py"), str(run_dir / "stamp")]
        if trace:
            cmd += ["--trace", str(run_dir / "trace.jsonl"), f"{self.name}-{self._n}"]
        if cli_args is not None:
            cmd += ["--out", str(out), "--threads", str(threads),
                    *MANIFEST["global_argv"], *cli_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()
        cpu = _quickest_cpu(cpus) if threads == 1 else None
        with open(run_dir / "stdout", "wb") as so, open(run_dir / "stderr", "wb") as se:
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})  # the child inherits it
            t0 = time.monotonic()
            try:
                proc = subprocess.Popen(cmd, cwd=ROOT, stdout=so, stderr=se, env=env)
            finally:
                if cpu is not None:
                    os.sched_setaffinity(0, cpus)
            status, ru, timed_out = _reap(proc, max(self.remaining(), 1.0))
            t1 = time.monotonic()
        child = Child(wall_s=t1 - t0, cpu_s=ru.ru_utime + ru.ru_stime,
                      peak_rss_mb=ru.ru_maxrss / 1024.0, setup_s=None,
                      exit_code=os.waitstatus_to_exitcode(status))
        if timed_out:
            child.problems.append("killed at the deadline")
        if child.exit_code != 0:
            err = (run_dir / "stderr").read_text(errors="replace").strip()[-300:]
            child.problems.append(f"exit code {child.exit_code}: {err}")
        try:
            child.setup_s = float((run_dir / "stamp").read_text()) - t0
        except (OSError, ValueError):
            child.problems.append("no import stamp")
        if cli_args is not None:
            self._check_reports(child, out)
        if trace and child.ok:
            with open(run_dir / "trace.jsonl", encoding="utf-8") as fh:
                child.trace = [json.loads(line) for line in fh]
        shutil.rmtree(run_dir)
        self.children.append(child)
        for p in child.problems:
            print(f"{self.name}: child {self._n}: {p}", file=sys.stderr)
        return child

    def _check_reports(self, child: Child, out: Path):
        names = sorted(p.name for p in out.iterdir())
        if names != self.report_names:
            child.problems.append(f"reports {names}, expected {self.report_names}")
            return
        for name in names:
            data = (out / name).read_bytes()
            child.report_bytes += len(data)
            child.reports[name] = hashlib.sha256(data).hexdigest()
        if self.expected is None:
            first = next((c.reports for c in self.children if c.reports), None)
            if first is not None and first != child.reports:
                child.problems.append("reports differ from the first run's")
        elif child.reports != self.expected:
            bad = [n for n in names if child.reports[n] != self.expected[n]]
            child.problems.append(f"digest mismatch: {bad}")
        if not self.tiny:
            for name, cols in self.spec.get("fixed_csv_columns", {}).items():
                for col, want in cols.items():
                    if _csv_column(out / name, col) != want:
                        child.problems.append(f"{name}: column {col} changed")
        for name, want in self.spec.get("require_summary", {}).items():
            summary = json.loads((out / name).read_text(encoding="utf-8"))["summary"]
            for key, value in want.items():
                if summary.get(key) != value:
                    child.problems.append(f"{name}: summary {key}={summary.get(key)}")

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another invocation still uses it

    def result(self, metrics: dict, units: dict, detail: dict) -> tuple[dict, dict]:
        """(the contract's result object, quartiles and counts behind it)."""
        failed = sum(not c.ok for c in self.children)
        detail["error_rate"] = failed / len(self.children)
        return ({"correct": failed == 0, "attempted": len(self.children),
                 "failed": failed,
                 "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}},
                detail)


def _probe_s() -> float:
    """Seconds this process takes for a fixed pure-Python loop (a few ms)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(30000):
        acc += i * i % 7
    return time.perf_counter() - t0


def _quickest_cpu(cpus: set[int]) -> int | None:
    """The CPU of `cpus` on which _probe_s is fastest right now; None for
    fewer than two.  The host slows each vCPU on its own (see the module
    docstring)."""
    if len(cpus) < 2:
        return None
    times = {}
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            _probe_s()  # settle after the move
            times[cpu] = _probe_s()
    finally:
        os.sched_setaffinity(0, cpus)
    return min(times, key=times.get)


def _reap(proc: subprocess.Popen, timeout: float):
    """Wait for proc with os.wait4 (for its own rusage); SIGKILL at timeout."""
    fired = threading.Event()

    def kill():
        fired.set()
        os.kill(proc.pid, signal.SIGKILL)  # not reaped yet, so the pid is ours

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    except BaseException:
        timer.cancel()
        if not fired.is_set():
            os.kill(proc.pid, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        raise
    timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)  # Popen must not reap again
    return status, ru, fired.is_set()


def _fits(t0: float, seconds: float, bench: Bench, groups: list[list[Child]]) -> bool:
    """Whether one more child from each group, at its median wall time so
    far, still ends within `seconds` of t0 and before the deadline."""
    need = sum(statistics.median(c.wall_s for c in g) for g in groups)
    return (time.monotonic() - t0 + need <= seconds
            and need < bench.remaining())


def _csv_column(path: Path, col: str) -> list[str]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if not ln.startswith("#")]
    i = lines[0].split(",").index(col)
    return [ln.split(",")[i] for ln in lines[1:]]


def _quartiles(xs: list[float]) -> dict:
    if len(xs) < 2:
        x = xs[0] if xs else 0.0
        return {"median": x, "p25": x, "p75": x, "min": x, "max": x, "n": len(xs)}
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return {"median": statistics.median(xs), "p25": q1, "p75": q3,
            "min": min(xs), "max": max(xs), "n": len(xs)}


def _percentile_ms(durations: list[float], p: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100)[p - 1] * 1e3


def _units(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


# ---------------------------------------------------------------------------
# end to end


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    bench.spawn(None)  # warm-up: byte-compiles src/ in a fresh checkout
    bench.children.clear()
    for _ in range(SETUP_PROBES):
        bench.spawn(None)
    runs: list[Child] = []
    t0 = time.monotonic()
    while len(runs) < MIN_E2E_RUNS or _fits(t0, seconds, bench, [runs]):
        runs.append(bench.spawn(bench.argv))
    good = [c for c in runs if c.ok] or runs
    samples = {
        "wall_s": [c.wall_s for c in good],
        "setup_s": [c.setup_s for c in bench.children if c.setup_s is not None],
        "cpu_s": [c.cpu_s for c in good],
        "peak_rss_mb": [c.peak_rss_mb for c in good],
    }
    detail = {k: _quartiles(v) for k, v in samples.items()}
    metrics = {k: d["median"] for k, d in detail.items()}
    metrics["wall_s"] = max(samples["wall_s"])  # see the module docstring
    metrics["cpu_s"] = max(samples["cpu_s"])
    metrics["setup_s"] = max(samples["setup_s"])
    metrics["work_per_s"] = bench.units / metrics["wall_s"]
    return bench.result(metrics, _units("end_to_end"), detail)


# ---------------------------------------------------------------------------
# per layer


def _layer_values(child: Child, names: list[str]) -> dict:
    """Per-layer metrics of one traced child, by BENCHMARK.json name.

    `<span>.s` is inclusive time over all calls, `.calls` the call count,
    `.self_s` inclusive minus traced children, `.p50_ms`/`.p99_ms` per-call
    percentiles; any other name is a counter the tracer kept.
    """
    durations: dict[str, list] = {}
    totals: dict[str, list] = {}  # name -> [calls, s, self_s]
    counters: dict[str, float] = {}
    for rec in child.trace:
        if "span" in rec:
            d = rec["end"] - rec["start"]
            durations.setdefault(rec["span"], []).append(d)
            row = totals.setdefault(rec["span"], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += d
            row[2] += rec["self_s"]
        elif "hot" in rec:
            row = totals.setdefault(rec["hot"], [0, 0.0, 0.0])
            row[0] += rec["calls"]
            row[1] += rec["s"]
            row[2] += rec["self_s"]
        else:
            counters[rec["counter"]] = rec["value"]
    special = {
        "multfn.support_ratio": (counters.get("multfn.support_len", 0)
                                 / counters["multfn.support_domain"]
                                 if counters.get("multfn.support_domain") else 0.0),
        "reports.bytes_written": child.report_bytes,
    }
    out = {}
    for name in names:
        stem, _, kind = name.rpartition(".")
        row = totals.get(stem, [0, 0.0, 0.0])
        if name in special:
            out[name] = special[name]
        elif kind == "s":
            out[name] = row[1]
        elif kind == "calls":
            out[name] = row[0]
        elif kind == "self_s":
            out[name] = row[2]
        elif kind in ("p50_ms", "p99_ms"):
            out[name] = _percentile_ms(durations.get(stem, []), int(kind[1:3]))
        else:
            out[name] = counters.get(name, 0)
    return out


def per_layer(bench: Bench, seconds: float) -> tuple[dict, dict]:
    units = _units("per_layer")
    derived = {"util.ordered_map.speedup_2t", "trace.overhead_s"}
    names = [n for n in units if n not in derived] + ["util.ordered_map.s"]
    bench.spawn(None)  # warm-up
    bench.children.clear()
    t0 = time.monotonic()
    plain = [bench.spawn(bench.argv)]
    traced = [bench.spawn(bench.argv, trace=True) for _ in range(MIN_TRACED_RUNS)]
    # room is left for the two-thread run at the end
    while _fits(t0, seconds, bench, [plain, traced, traced]):
        plain.append(bench.spawn(bench.argv))
        traced.append(bench.spawn(bench.argv, trace=True))
    two = bench.spawn(bench.argv, trace=True, threads=2)

    runs = [_layer_values(c, names) for c in traced if c.ok]
    if not runs:
        runs = [dict.fromkeys(names, 0)]
    metrics, detail = {}, {}
    for name in names:
        values = [r[name] for r in runs]
        if units.get(name) in TIME_UNITS or name == "util.ordered_map.s":
            detail[name] = _quartiles(values)
            metrics[name] = detail[name]["median"]
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                print(f"{bench.name}: {name} differs across traced runs: {values}",
                      file=sys.stderr)
                traced[0].problems.append(f"{name} not repeatable")
    one_thread = metrics.pop("util.ordered_map.s")
    two_threads = _layer_values(two, ["util.ordered_map.s"])["util.ordered_map.s"]
    metrics["util.ordered_map.speedup_2t"] = (one_thread / two_threads
                                              if two.ok and two_threads > 0 else 0.0)
    metrics["trace.overhead_s"] = (statistics.median(c.wall_s for c in traced)
                                   - statistics.median(c.wall_s for c in plain))
    detail["wall_s.untraced"] = _quartiles([c.wall_s for c in plain])
    detail["wall_s.traced"] = _quartiles([c.wall_s for c in traced])
    detail["wall_s.traced_2t"] = _quartiles([two.wall_s])
    return bench.result({n: metrics[n] for n in units}, units, detail)


# ---------------------------------------------------------------------------
# entry points


def smoke() -> int:
    """Tiny inputs, both modes, every workload: are all metrics there?"""
    failures = []
    for kind, mode in (("end_to_end", end_to_end), ("per_layer", per_layer)):
        wanted = set(_units(kind))
        for name in MANIFEST["workloads"]:
            bench = Bench(name, MANIFEST["pin_seed"] + 1, tiny=True)
            try:
                res, _ = mode(bench, 0.0)
            finally:
                bench.close()
            got = res["metrics"]
            if set(got) != wanted:
                failures.append(f"{kind}/{name}: metrics {sorted(set(got) ^ wanted)}")
            if not res["correct"]:
                failures.append(f"{kind}/{name}: {res['failed']} failed runs")
            for metric, v in got.items():
                if not math.isfinite(v["value"]):
                    failures.append(f"{kind}/{name}: {metric} = {v['value']}")
                layer = MANIFEST["layers"].get(metric)
                if layer and name in layer["on"] and v["value"] == 0:
                    failures.append(f"{kind}/{name}: {metric} is 0")
            print(f"smoke {kind} {name}: {len(got)} metrics, "
                  f"{res['attempted']} runs, {res['failed']} failed")
    for f in failures:
        print("FAIL", f)
    print("smoke:", "ok" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(MANIFEST["workloads"]))
    ap.add_argument("--seed", type=int, default=MANIFEST["pin_seed"])
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, every workload, both modes")
    args = ap.parse_args(argv)
    if not (SRC / "smoothap" / "cli.py").is_file():
        print(f"error: {SRC / 'smoothap'} not found; run from a smoothap checkout",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    bench = Bench(args.workload, args.seed, tiny=False)
    try:
        res, detail = (per_layer if args.trace else end_to_end)(bench, args.seconds)
    finally:
        bench.close()
    print(json.dumps({"workload": args.workload, "seed": args.seed, "detail": detail}))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
