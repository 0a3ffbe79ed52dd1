import json
import os
import subprocess
import sys
from pathlib import Path

import smoothap

PERFBENCH = Path(__file__).parents[1] / "perfbench"

# The tracer rebinds smoothap's functions in the process that installs it,
# so it runs in a child: nothing of it leaks into the other tests.
CHILD = """
import json, sys
from smoothap import cli
sys.path.insert(0, {perfbench!r})
import tracer

manifest = json.loads(open({manifest!r}, encoding="utf-8").read())
seed = str(manifest["pin_seed"])
tr = tracer.install("guard")
codes = {{}}
for name, spec in manifest["workloads"].items():
    argv = [a.replace("{{seed}}", seed) for a in spec["tiny_argv"]]
    codes[name] = cli.main(["--out", {out!r} + "/" + name, *manifest["global_argv"], *argv])
tr.write({trace!r})
print(json.dumps(codes))
"""


def test_benchmark_tracer_runs_every_tiny_workload(tmp_path):
    # perfbench/tracer.py reads get_support's x at position 2 or by keyword,
    # and detect_exceptional's x, Q and families at positions 1, 3 and 7 or
    # by keyword: a call that moves one of them fails here
    trace = tmp_path / "trace.jsonl"
    code = CHILD.format(perfbench=str(PERFBENCH), manifest=str(PERFBENCH / "manifest.json"),
                        out=str(tmp_path / "out"), trace=str(trace))
    src = str(Path(smoothap.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout.splitlines()[-1])
    assert codes == {name: 0 for name in codes} and len(codes) == 4, codes
    rows = [json.loads(line) for line in trace.read_text(encoding="utf-8").splitlines()]
    spans = {r["span"] for r in rows if "span" in r}
    hot = {r["hot"] for r in rows if "hot" in r}
    counters = {r["counter"]: r["value"] for r in rows if "counter" in r}
    assert {"discrepancy.bv_average", "large_sieve.detect_exceptional"} <= spans, spans
    assert "multfn.get_support" in hot, hot
    assert counters.get("multfn.support_len", 0) > 0, counters
    assert counters.get("large_sieve.scan_bytes_computed", 0) > 0, counters
