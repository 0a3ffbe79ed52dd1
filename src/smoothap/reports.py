"""Report emission: CSV and JSON with locale-independent number formatting.

Floats are printed as decimal strings with 12 significant digits in both
formats; integers stay plain.  Every report embeds the resolved experiment
configuration (execution details like thread counts and paths are not part
of the configuration, so reruns at different parallelism are byte-identical).

Reports are written in one pass over an iterator of rows: each value is
formatted once, its CSV line and JSON record are written, and the row is
dropped, so memory does not grow with the number of records.  The JSON text
is byte for byte what `json.dumps(doc, sort_keys=True, indent=1)` gives for
the whole document.  Every file is written under a `.tmp` name and renamed
over the report only after the last row, so an error part-way leaves the
old reports as they were.
"""

from __future__ import annotations

import contextlib
import json
import os
from json.encoder import encode_basestring_ascii

_ENCODER = json.JSONEncoder(sort_keys=True, indent=1)


def fmt_number(v) -> str:
    """12-significant-digit decimal string for floats; ints verbatim."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


# fixed column orders, documented in the README
DISCREPANCY_COLUMNS = ["q", "a1", "a2", "delta_re", "delta_im", "delta_abs"]
PSI_COLUMNS = ["kind", "x", "y", "q", "a", "count"]
SIEVE_COLUMNS = ["trial", "x", "y", "Q", "weight_mode", "lhs", "rhs", "ratio"]
EXCEPTIONAL_COLUMNS = ["conductor", "chi_rank", "witness_X", "witness_value",
                       "threshold", "kind"]
IDENTITY_COLUMNS = ["check", "params", "residual", "tolerance", "ok"]
DECAY_COLUMNS = ["x", "y", "Q", "total", "psi", "normalized"]


def discrepancy_row(rec) -> dict:
    v = rec.primary()
    return {
        "q": rec.q, "a1": rec.a1, "a2": rec.a2,
        "delta_re": v.real, "delta_im": v.imag, "delta_abs": abs(v),
    }


def _encode(value, level: int) -> str:
    """`value` as json.dumps(..., sort_keys=True, indent=1) renders it nested
    `level` deep: its own text with each newline followed by `level` spaces.

    str, int, lists and dicts with str keys are joined here (json's indented
    encoder is pure Python and builds its closures again on every call);
    any other value, floats, bools and None among them, goes to that encoder.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is list:
        return _join("[", [_encode(v, level + 1) for v in value], "]", level)
    if kind is dict and all(type(k) is str for k in value):
        return _join("{", [encode_basestring_ascii(k) + ": " + _encode(v, level + 1)
                           for k, v in sorted(value.items())], "}", level)
    return _ENCODER.encode(value).replace("\n", "\n" + " " * level)


def _join(opening: str, items: list[str], closing: str, level: int) -> str:
    """A container's rendered items, one per line at level + 1, as json's indent=1."""
    if not items:
        return opening + closing
    pad = "\n" + " " * (level + 1)
    return opening + pad + ("," + pad).join(items) + "\n" + " " * level + closing


def write_json(fh, doc: dict, key: str, items) -> None:
    """Write json.dumps({**doc, key: list(items)}, sort_keys=True, indent=1)
    plus a newline to fh, one item of `items` at a time."""
    head = "{\n "
    for k in sorted({**doc, key: None}):
        fh.write(head + _encode(k, 1) + ": ")
        head = ",\n "
        if k != key:
            fh.write(_encode(doc[k], 1))
            continue
        sep = "[\n  "
        for item in items:
            fh.write(sep + _encode(item, 2))
            sep = ",\n  "
        fh.write("[]" if sep == "[\n  " else "\n ]")
    fh.write("\n}\n")


@contextlib.contextmanager
def atomic_files(paths: list[str]):
    """Text handles on `path + ".tmp"` for each path, renamed over the paths
    when the block ends; an exception removes the .tmp files instead."""
    tmps = [p + ".tmp" for p in paths]
    handles = []
    try:
        for tmp in tmps:
            handles.append(open(tmp, "w", encoding="utf-8", newline="\n"))
        yield handles
        for fh in handles:
            fh.close()
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for fh, tmp in zip(handles, tmps):
            fh.close()
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise


def emit_reports(out: str, name: str, fmt: str, columns: list[str], rows,
                 config: dict, summary: dict | None = None) -> list[str]:
    """Write `out/name.csv` and/or `out/name.json` (fmt "csv", "json" or
    "both") from one pass over `rows`; returns the paths written.

    CSV: one '# config: {...}' comment line, header, then one line per row.
    JSON: {"config": ..., "records": [...], "summary": ...}, the summary
    omitted when None.
    """
    if fmt not in ("csv", "json", "both"):
        raise ValueError(f"unknown report format {fmt!r}")
    os.makedirs(out, exist_ok=True)
    paths = [os.path.join(out, f"{name}.{ext}")
             for ext in ("csv", "json") if fmt in (ext, "both")]
    doc = {"config": config}
    if summary is not None:
        doc["summary"] = {k: fmt_number(v) for k, v in summary.items()}
    with atomic_files(paths) as handles:
        csv_fh = handles[0] if fmt != "json" else None
        if csv_fh is not None:
            csv_fh.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
            csv_fh.write(",".join(columns) + "\n")

        def records():
            for row in rows:
                cells = {k: fmt_number(v) for k, v in row.items()}
                if csv_fh is not None:
                    csv_fh.write(",".join(cells[c] for c in columns) + "\n")
                yield cells

        if fmt == "csv":
            for _ in records():
                pass
        else:
            write_json(handles[-1], doc, "records", records())
    return paths


# the name under which perfbench/tracer.py times report writing
emit_report = emit_reports
