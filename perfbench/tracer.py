"""In-process tracing of smoothap's layers from outside the package.

`install()` replaces public functions of smoothap's modules with timing
wrappers at every import site: each loaded `smoothap.*` module attribute
bound to the original function is rebound to the wrapper, so
`discrepancy.induce`, `large_sieve.ordered_map`, `cli.build_sieve` and the
defining modules all see the traced version.  Nothing inside `src/` changes.

Two kinds of wrapper:

* span: one record per call (name, start, end, parent, run id, self time),
  for calls that happen at most a few thousand times per run;
* hot: count plus total and self time per thread, for calls made hundreds
  of thousands of times (`induce`, the kernels, character tables), so the
  tracer's own cost stays small.

Self time is a call's duration minus the time of the traced calls made
directly inside it on the same thread.  Counters whose names end in
`_computed` are derived from array sizes, not measured.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from time import perf_counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (id, name, start, end, parent, self_s)
        self.counters: dict[str, float] = {}
        self._local = threading.local()
        self._hot_tables: list[dict] = []  # one {name: [calls, s, self_s]} per thread
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        """This thread's stack of open frames [id, child_s, name]."""
        st = getattr(self._local, "stack", None)
        if st is None:
            self._local.hot = {}
            with self._lock:
                self._hot_tables.append(self._local.hot)
            st = self._local.stack = []
        return st

    def count(self, name: str, value: float = 1):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name: str, fn, hot: bool = False, on_result=None,
             site: str | None = None, parent_hint=None):
        """Timing wrapper around fn, for the import site `site`.

        on_result(result, args, kwargs, parent_name, site) runs after each
        call and may update counters.  parent_hint is the frame to record as
        parent when the call runs on a thread with no traced caller (items
        fanned out by ordered_map); no child time is charged across threads.
        """
        local, spans, ids = self._local, self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                st = local.stack
            except AttributeError:
                st = self._stack()
            parent = st[-1] if st else None
            frame = [next(ids), 0.0, name]
            st.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                st.pop()
                d = t1 - t0
                if parent is not None:
                    parent[1] += d
                if hot:
                    row = local.hot.get(name)
                    if row is None:
                        row = local.hot[name] = [0, 0.0, 0.0]
                    row[0] += 1
                    row[1] += d
                    row[2] += d - frame[1]
                else:
                    up = parent if parent is not None else parent_hint
                    spans.append((frame[0], name, t0, t1,
                                  up[0] if up is not None else None, d - frame[1]))
            if on_result is not None:
                on_result(result, args, kwargs,
                          parent[2] if parent is not None else None, site)
            return result

        return traced

    def ordered_map_wrapper(self, fn, item_name_prefix: str | None):
        """ordered_map that records its span, its item count and, optionally,
        one span per item named `<prefix>.<fn.__name__>`."""

        def traced_map(item_fn, items, threads: int = 1):
            items = list(items)
            self.count("util.ordered_map.items", len(items))
            st = self._stack()
            if item_name_prefix is not None:
                hint = st[-1] if st else None
                label = getattr(item_fn, "__name__", "item")
                item_fn = self.wrap(f"{item_name_prefix}.{label}", item_fn,
                                    parent_hint=hint)
            return fn(item_fn, items, threads)

        return self.wrap("util.ordered_map", traced_map)

    def hot_totals(self) -> dict:
        out: dict[str, list] = {}
        for table in self._hot_tables:
            for name, (calls, s, self_s) in table.items():
                row = out.setdefault(name, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += s
                row[2] += self_s
        return out

    def write(self, path: str):
        """Write spans, hot-call totals and counters as JSON lines."""
        run = self.run_id
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, self_s in self.spans:
                fh.write(json.dumps({"run": run, "span": name, "id": sid,
                                     "parent": parent, "start": t0, "end": t1,
                                     "self_s": self_s}) + "\n")
            for name, (calls, s, self_s) in sorted(self.hot_totals().items()):
                fh.write(json.dumps({"run": run, "hot": name, "calls": calls,
                                     "s": s, "self_s": self_s}) + "\n")
            for name, value in sorted(self.counters.items()):
                fh.write(json.dumps({"run": run, "counter": name,
                                     "value": value}) + "\n")


def _arg(args, kwargs, pos: int, key: str):
    return kwargs[key] if key in kwargs else args[pos]


def _rebind(orig, make_wrapper):
    """Rebind every smoothap module attribute that is `orig` to
    make_wrapper(site=<module name>)."""
    for modname, mod in list(sys.modules.items()):
        if modname != "smoothap" and not modname.startswith("smoothap."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, make_wrapper(site=modname))


def install(run_id: str) -> Tracer:
    """Trace the layers of an already imported smoothap; returns the tracer.

    A function a later version of smoothap no longer has is skipped, and
    the metrics derived from it read 0.
    """
    from smoothap import characters, discrepancy, large_sieve, multfn, reports, sieve, util

    tr = Tracer(run_id)
    support_seen: set = set()

    def sieve_bytes(table, args, kwargs, parent, site):
        tr.count("sieve.build_sieve.bytes_computed",
                 table.lpf.nbytes + table.primes.nbytes)

    def values_bytes(vals, args, kwargs, parent, site):
        tr.count("multfn.get_values.builds")
        tr.count("multfn.values_bytes_computed", vals.nbytes)

    def support_sizes(result, args, kwargs, parent, site):
        ns = result[0]
        f, x = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 2, "x")
        key = (f, x)
        if key not in support_seen:  # distinct (function object, x) pairs
            support_seen.add(key)
            tr.count("multfn.support_len", len(ns))
            tr.count("multfn.support_domain", x + 1)
        # residue sums read the support once per modulus; bv_average's own
        # call only warms the cache before fanning out
        if site == "smoothap.discrepancy" and parent != "discrepancy.bv_average":
            tr.count("discrepancy.residue_ops_computed", len(ns))

    def family_members(fam, args, kwargs, parent, site):
        tr.count("characters.family_A.members", len(fam.members))

    def grid_points(grid, args, kwargs, parent, site):
        tr.count("large_sieve.grid_points", len(grid))

    def scan_work(found, args, kwargs, parent, site):
        x, Q = _arg(args, kwargs, 1, "x"), _arg(args, kwargs, 3, "Q")
        families = _arg(args, kwargs, 7, "families")
        # each scanned character builds a product array and its cumulative
        # sum, both complex128 over 0..x
        tr.count("large_sieve.scan_bytes_computed",
                 len(families.up_to(Q)) * 2 * 16 * (x + 1))
        tr.count("large_sieve.members", len(found.members))

    functions = [
        (sieve, "build_sieve", "sieve.build_sieve", False, sieve_bytes),
        (multfn, "get_values", "multfn.get_values", False, None),
        (multfn, "values_array", "multfn.values_array", False, values_bytes),
        (multfn, "get_support", "multfn.get_support", True, support_sizes),
        (multfn, "dirichlet_inverse", "multfn.dirichlet_inverse", False, None),
        (characters, "induce", "characters.induce", True, None),
        (characters, "family_A", "characters.family_A", False, family_members),
        (discrepancy, "delta_xi_record", "discrepancy.delta_xi_record", False, None),
        (discrepancy, "bv_average", "discrepancy.bv_average", False, None),
        (discrepancy, "u_kernel_chardef", "discrepancy.u_kernel_chardef", True, None),
        (discrepancy, "u_kernel_moebius", "discrepancy.u_kernel_moebius", True, None),
        (discrepancy, "verify_transfer_identity",
         "discrepancy.verify_transfer_identity", False, None),
        (large_sieve, "detect_exceptional", "large_sieve.detect_exceptional", False,
         scan_work),
        (large_sieve, "refine_grid", "large_sieve.refine_grid", False, grid_points),
        (reports, "emit_report", "reports.emit_report", False, None),
    ]
    for mod, attr, name, hot, on_result in functions:
        orig = getattr(mod, attr, None)
        if orig is None:
            continue
        _rebind(orig, functools.partial(tr.wrap, name, orig, hot, on_result))

    orig_map = getattr(util, "ordered_map", None)
    if orig_map is not None:
        _rebind(orig_map, lambda site: tr.ordered_map_wrapper(
            orig_map, "large_sieve" if site == "smoothap.large_sieve" else None))

    def unit_group_build(result, args, kwargs, parent, site):
        tr.count("characters.UnitGroup.builds")

    methods = [
        (getattr(characters, "UnitGroup", None), "__init__", "characters.UnitGroup.build",
         unit_group_build),
        (getattr(characters, "DirichletCharacter", None), "complex_table",
         "characters.complex_table", None),
        (getattr(characters, "DirichletCharacter", None), "to_record",
         "characters.to_record", None),
    ]
    for cls, attr, name, on_result in methods:
        if cls is not None and attr in vars(cls):
            setattr(cls, attr, tr.wrap(name, vars(cls)[attr], hot=True,
                                       on_result=on_result))
    unit_group = getattr(characters, "UnitGroup", None)
    if unit_group is not None and isinstance(vars(unit_group).get("get"), classmethod):
        unit_group.get = classmethod(
            tr.wrap("characters.UnitGroup.get", vars(unit_group)["get"].__func__, hot=True))
    return tr
