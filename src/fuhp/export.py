"""Deterministic JSON and CSV text (and the parsers of the written files).

Every document embeds the resolved run configuration and the artifact
version. Floats are printed with 17 significant digits, which round-trips
float64 exactly; identical invocations therefore produce byte-identical
files. CSV files carry the configuration in '#'-prefixed preamble lines
that the bundled reader understands.
"""

import itertools
import json

import numpy as np

# a list of these exact types is written in one piece; one holding anything else, item by item
_SCALARS = frozenset((bool, float, int, str, type(None)))
# an array of two or more dimensions is written in pieces of whole rows of about this many items (4,096 rows
# of graph's 515,100 x 2 edge array at q=101, where one str per row held 51 MB of pieces for 9 MB of text)
BLOCK_ITEMS = 8192


def format_float(x):
    """17-significant-digit decimal form, always with an exponent or point."""
    s = format(float(x), ".17g")
    # only inf and nan hold an "n"; an integral value below 1e17 prints bare digits
    return s if "." in s or "e" in s or "n" in s else s + ".0"


def _scalar(x):
    if isinstance(x, float):
        return format_float(x)
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return json.dumps(x)
    if isinstance(x, int):
        return str(x)
    if isinstance(x, np.generic):
        return _scalar(x.item())
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _pieces(obj):
    """The text of obj in pieces, to be joined once.

    A dict and a list of anything but _SCALARS yield their brackets, keys and
    separators as pieces of their own; a list of _SCALARS, a 1-D array and a
    scalar are one piece each; an array of two or more dimensions yields its
    brackets and one piece per block of rows, from a nested list of that
    block only. So no text but a row's is copied before the one final join,
    and no whole array becomes a nested list.
    """
    if isinstance(obj, np.ndarray) and obj.ndim < 2:
        obj = obj.tolist()
    if isinstance(obj, dict):
        yield "{"
        for i, (k, v) in enumerate(obj.items()):
            yield f"{', ' if i else ''}{json.dumps(str(k))}: "
            yield from _pieces(v)
        yield "}"
    elif isinstance(obj, np.ndarray):
        step = max(1, BLOCK_ITEMS * len(obj) // max(obj.size, 1))  # rows per block
        yield "["
        for start in range(0, len(obj), step):
            rows = obj[start : start + step].tolist()
            yield (", " if start else "") + ", ".join("".join(_pieces(row)) for row in rows)
        yield "]"
    elif not isinstance(obj, (list, tuple)):
        yield _scalar(obj)
    elif _SCALARS.issuperset(map(type, obj)):
        yield "[" + ", ".join(map(_scalar, obj)) + "]"
    else:
        for i, v in enumerate(obj):
            yield ", " if i else "["
            yield from _pieces(v)
        yield "]"


def dumps_json(doc):
    return "".join(itertools.chain(_pieces(doc), "\n"))


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _cell(value):
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def dumps_csv(header, rows, preamble=None):
    """The preamble lines, the header and one line per row of the iterable rows, as one text."""
    lines = [f"# {key}: " + "".join(_pieces(value)) for key, value in (preamble or {}).items()]
    lines.append(",".join(header))
    lines += (",".join(map(_cell, row)) for row in rows)
    lines.append("")  # the final newline
    return "\n".join(lines)


def _parse_cell(text):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(path):
    """Parse a CSV file holding the text of dumps_csv: (preamble dict, header, typed rows)."""
    preamble = {}
    header = None
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("# "):
                key, _, value = line[2:].partition(": ")
                preamble[key] = json.loads(value)
            elif header is None:
                header = line.split(",")
            else:
                rows.append([_parse_cell(c) for c in line.split(",")])
    return preamble, header, rows
