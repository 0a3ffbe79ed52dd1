import io
import tracemalloc

import pytest

import oracles
from smoothap import multfn
from smoothap.reports import emit_reports, write_json

RECORD_KEYS = ["q", "a1", "a2", "delta_re", "delta_im", "delta_abs"]


def _streamed(doc, key, items):
    fh = io.StringIO()
    write_json(fh, doc, key, iter(items))
    return fh.getvalue()


F_RECORD = multfn.random_unit_circle(3, smooth_bound=7).to_record()

WRITE_JSON_CASES = {
    "empty items": ({"config": {"x": 1}}, "records", []),
    "no other key": ({}, "members", [{"q": 1}]),
    "empty doc and items": ({}, "records", []),
    "key sorts first": ({"b": 1, "c": [1, 2]}, "a", [{"z": "1"}, {"y": "2"}]),
    "key sorts last": ({"config": {"x": 1}, "records": []}, "zz", [[], {}, [[1, [2]]]]),
    "nested config": ({"config": {"command": "exceptional", "f_record": F_RECORD,
                                  "B": 1.0, "q": None, "flag": True},
                       "summary": {"count": "2"}},
                      "records", [{k: str(i) for k in RECORD_KEYS} for i in range(3)]),
    "non-ASCII text": ({"config": {"label": "χ mod 7 — ∑ é", "s": "tab\there\nline"}},
                       "records", [{"name": "Ψ(x, y)", "emoji": "\U0001F600"}]),
    "scalar items": ({"config": {}}, "values", ["1/2", 0, -1.5, 1e300, None, "0"]),
    "to_record members": ({"config": {"f_record": F_RECORD}}, "members",
                          [{"q": 3, "conductor": 3, "values": ["0", "0", "1/2"]}] * 2),
}


@pytest.mark.parametrize("case", sorted(WRITE_JSON_CASES))
def test_write_json_equals_whole_document_dumps(case):
    doc, key, items = WRITE_JSON_CASES[case]
    assert _streamed(doc, key, items) == oracles.json_text({**doc, key: list(items)})


REPORT_CASES = {
    "empty records": ([], {"command": "demo"}, None),
    "empty records, summary": ([], {"command": "demo"}, {"count": 0, "ok": False}),
    "no summary": ([{"q": q, "a1": 1, "a2": 1, "delta_re": 1 / q, "delta_im": -0.0,
                     "delta_abs": 1 / q} for q in range(1, 40)],
                   {"command": "bv-average", "xs": None, "Q": 39}, None),
    "nested config": ([{"q": 5, "a1": 2, "a2": 1, "delta_re": 0.1, "delta_im": 2e-17,
                        "delta_abs": 3.0}],
                      {"command": "exceptional", "f_record": F_RECORD},
                      {"count": 1, "weighted": 0.5, "context_bound": 1e90}),
    "non-ASCII text": ([{"q": "Ψ", "a1": "χ₁", "a2": "é", "delta_re": "∞",
                         "delta_im": "-", "delta_abs": "\U0001F600"}],
                       {"command": "ψ", "label": "smooth — χ"}, {"note": "∑"}),
}


@pytest.mark.parametrize("fmt", ["csv", "json", "both"])
@pytest.mark.parametrize("case", sorted(REPORT_CASES))
def test_emit_reports_equals_whole_document_writer(tmp_path, case, fmt):
    rows, config, summary = REPORT_CASES[case]
    paths = emit_reports(str(tmp_path), "r", fmt, RECORD_KEYS, iter(rows), config, summary)
    want = {}
    if fmt in ("csv", "both"):
        want["r.csv"] = oracles.csv_report_text(RECORD_KEYS, rows, config)
    if fmt in ("json", "both"):
        want["r.json"] = oracles.json_report_text(rows, config, summary)
    assert [p.rsplit("/", 1)[-1] for p in paths] == list(want)
    got = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert got == {k: v.encode("utf-8") for k, v in want.items()}


def test_unknown_format_is_rejected(tmp_path):
    with pytest.raises(ValueError):
        emit_reports(str(tmp_path), "r", "xml", RECORD_KEYS, [], {})
    assert list(tmp_path.iterdir()) == []


class _Sink:
    """A file that keeps only the number of characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)


def test_write_json_memory_does_not_grow_with_records():
    def records():
        for i in range(20_000):
            yield {k: f"{i}.{j}e-{k}" for j, k in enumerate(RECORD_KEYS)}

    sink = _Sink()
    doc = {"config": {"command": "demo", "f_record": F_RECORD}, "summary": {"n": "20000"}}
    tracemalloc.start()
    try:
        write_json(sink, doc, "records", records())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars > 3_500_000  # the text is about 3.7 MB
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("fmt", ["csv", "json", "both"])
def test_failing_rows_leave_old_reports_and_no_tmp(tmp_path, fmt):
    good = [{k: 1 for k in RECORD_KEYS}, {k: 2.5 for k in RECORD_KEYS}]
    emit_reports(str(tmp_path), "r", fmt, RECORD_KEYS, good, {"run": 1})
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def failing():
        yield {k: 3 for k in RECORD_KEYS}
        raise RuntimeError("row 2 failed")

    with pytest.raises(RuntimeError, match="row 2 failed"):
        emit_reports(str(tmp_path), "r", fmt, RECORD_KEYS, failing(), {"run": 2})
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_failing_rows_write_no_new_report(tmp_path):
    def failing():
        raise RuntimeError("no rows")
        yield

    with pytest.raises(RuntimeError):
        emit_reports(str(tmp_path), "r", "both", RECORD_KEYS, failing(), {})
    assert list(tmp_path.iterdir()) == []
