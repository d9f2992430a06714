"""Deterministic serialization and exact round-trips."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from fuhp.export import (
    dumps_csv,
    dumps_json,
    format_float,
    read_csv,
    read_json,
    write_csv,
    write_json,
)


def test_format_float_roundtrips_exactly():
    values = [0.0, 1.0, -1.5, math.pi, 1e-300, 6.02e23, 2.0 / 3.0, 1 - math.exp(-6)]
    for x in values:
        assert float(format_float(x)) == x


def test_format_float_always_marks_floatness():
    assert format_float(1.0) == "1.0"
    assert format_float(6.0) == "6.0"
    assert "e" in format_float(1e-300)


def test_dumps_json_is_parseable_and_stable():
    doc = {"config": {"q": 3, "delta": 2}, "version": "0.1.0",
           "data": {"values": [1.0, 0.5, 2.0 / 3.0], "n": 6, "ok": True, "none": None}}
    text = dumps_json(doc)
    assert text == dumps_json(doc)
    parsed = json.loads(text)
    assert parsed["data"]["values"][2] == 2.0 / 3.0
    assert parsed["data"]["ok"] is True


def test_dumps_json_text_of_nested_containers():
    doc = {"a": [], "b": {}, "c": [[], {}], "d": [1, [2.0, (3,)]], "e": ({"x": [0.5]}, [None]),
           "f": np.arange(4).reshape(2, 2), "g": [np.array([1.5])]}
    assert dumps_json(doc) == ('{"a": [], "b": {}, "c": [[], {}], "d": [1, [2.0, [3]]], '
                               '"e": [{"x": [0.5]}, [null]], "f": [[0, 1], [2, 3]], "g": [[1.5]]}\n')


def test_dumps_json_holds_about_two_copies_of_the_text():
    # the pieces and their one join: a recursive concatenation held three copies (3.0x traced)
    rows = [{"index": i, "omega": [0.25] * 50} for i in range(20)]
    runs = [{"r_s": r, "values": [r / 7.0] * 2000, "rows": rows} for r in range(50)]
    doc = {"config": {"q": 3}, "version": "x", "data": {"runs": runs}}
    tracemalloc.start()
    try:
        text = dumps_json(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text), f"traced peak {peak / len(text):.2f}x the text"


def test_json_file_roundtrip(tmp_path):
    path = tmp_path / "doc.json"
    doc = {"config": {"q": 5}, "version": "x", "data": {"v": [math.pi, 1e-17]}}
    write_json(path, doc)
    back = read_json(path)
    assert back["data"]["v"] == [math.pi, 1e-17]


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "table.csv"
    header = ["t", "value", "label"]
    rows = [[0.0, 6.0, "a"], [0.5, 1 - math.exp(-3), "b"], [1, 2, "c"]]
    write_csv(path, header, rows, preamble={"config": {"q": 3, "mode": "both"}, "version": "0.1.0"})
    meta, header2, rows2 = read_csv(path)
    assert header2 == header
    assert meta["config"] == {"q": 3, "mode": "both"}
    assert rows2[1][1] == 1 - math.exp(-3)
    assert rows2[2] == [1, 2, "c"]


def test_csv_bytes_deterministic():
    header = ["a", "b"]
    rows = [[1.0, 2.0 / 3.0]]
    assert dumps_csv(header, rows) == dumps_csv(header, rows)


def test_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps_json({"bad": object()})
