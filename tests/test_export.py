"""Deterministic serialization and exact round-trips."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from fuhp.export import BLOCK_ITEMS, dumps_csv, dumps_json, format_float
from scalar_reference import read_csv


def test_format_float_roundtrips_exactly():
    values = [0.0, 1.0, -1.5, math.pi, 1e-300, 6.02e23, 2.0 / 3.0, 1 - math.exp(-6)]
    for x in values:
        assert float(format_float(x)) == x


def test_format_float_always_marks_floatness():
    assert format_float(1.0) == "1.0"
    assert format_float(6.0) == "6.0"
    assert "e" in format_float(1e-300)
    assert [format_float(x) for x in (-0.0, 1e16, -1e16, 1e17, math.inf, -math.inf, math.nan)] == [
        "-0.0", "10000000000000000.0", "-10000000000000000.0", "1e+17", "inf", "-inf", "nan"]


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
           "f": np.arange(4).reshape(2, 2), "g": [np.array([1.5])],
           "h": [1, np.float64(0.25), {"k": np.arange(2)}, "s", None, (), [[]]]}
    assert dumps_json(doc) == ('{"a": [], "b": {}, "c": [[], {}], "d": [1, [2.0, [3]]], '
                               '"e": [{"x": [0.5]}, [null]], "f": [[0, 1], [2, 3]], "g": [[1.5]], '
                               '"h": [1, 0.25, {"k": [0, 1]}, "s", null, [], [[]]]}\n')


@pytest.mark.parametrize("array", [
    np.array([[-0.0, 1e16], [1e17, -1.5], [2.0 / 3.0, 1e-300]]),
    np.arange(12, dtype=np.int64).reshape(4, 3) - 5,
    np.arange(6, dtype=np.int32).reshape(3, 2),
    np.array([[True, False]]),
    np.ones((2, 2, 2)) / 3,
    np.zeros((0, 2)),
    np.zeros((2, 0)),
    # rows in more than one block
    np.arange(BLOCK_ITEMS + 1).reshape(-1, 1) / 7,
    np.arange(3 * BLOCK_ITEMS + 14, dtype=np.int64).reshape(-1, 2),
    np.arange(5 * (BLOCK_ITEMS + 3)).reshape(5, -1) / 7,
    np.arange(6 * (BLOCK_ITEMS // 3 + 1)).reshape(-1, 3, 2) / 7,
])
def test_an_array_is_written_as_its_nested_list(array):
    # arrays are encoded a block of rows at a time, never as whole nested lists, with the nested list's
    # text. The texts are compared as lists of words: pytest takes minutes to diff two long strings
    assert dumps_json(array).split(" ") == dumps_json(array.tolist()).split(" ")
    nested = array.tolist()
    assert (dumps_json({"a": array, "rows": list(array)}).split(" ")
            == dumps_json({"a": nested, "rows": nested}).split(" "))


def test_numpy_scalars_are_written_as_python_scalars():
    values = [np.float64(-0.0), np.float32(0.5), np.int64(7), np.int8(-3), np.bool_(True), np.float64(1e16)]
    assert dumps_json(values) == dumps_json([v.item() for v in values])
    assert dumps_json(values) == "[-0.0, 0.5, 7, -3, true, 10000000000000000.0]\n"
    assert dumps_json(np.array(2.5)) == "2.5\n"


def test_dumps_json_holds_about_two_copies_of_the_text():
    # the pieces and their one join: a recursive concatenation held three copies (3.0x traced). Arrays are
    # encoded as they are, a 2-D one row at a time: as a nested list the table held 2.9x
    table = np.arange(200_000).reshape(2000, 100) / 3
    for wrap in (list, np.array):
        rows = [{"index": i, "omega": wrap([0.25] * 50)} for i in range(20)]
        runs = [{"r_s": r, "values": wrap([r / 7.0] * 2000), "rows": rows} for r in range(50)]
        data = {"runs": runs, "table": table if wrap is np.array else table.tolist()}
        doc = {"config": {"q": 3}, "version": "x", "data": data}
        tracemalloc.start()
        try:
            text = dumps_json(doc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(text), f"{wrap.__name__}: traced peak {peak / len(text):.2f}x the text"


def test_json_file_roundtrip(tmp_path):
    path = tmp_path / "doc.json"
    doc = {"config": {"q": 5}, "version": "x", "data": {"v": [math.pi, 1e-17]}}
    path.write_text(dumps_json(doc), encoding="utf-8")
    back = json.loads(path.read_text())
    assert back["data"]["v"] == [math.pi, 1e-17]


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "table.csv"
    header = ["t", "value", "label"]
    rows = [[0.0, 6.0, "a"], [0.5, 1 - math.exp(-3), "b"], [1, 2, "c"]]
    preamble = {"config": {"q": 3, "mode": "both"}, "version": "0.1.0"}
    path.write_text(dumps_csv(header, rows, preamble), encoding="utf-8", newline="\n")
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
