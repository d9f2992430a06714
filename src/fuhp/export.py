"""Deterministic JSON and CSV writers (and their inverse parsers).

Every document embeds the resolved run configuration and the artifact
version. Floats are printed with 17 significant digits, which round-trips
float64 exactly; identical invocations therefore produce byte-identical
files. CSV files carry the configuration in '#'-prefixed preamble lines
that the bundled reader understands.
"""

import itertools
import json


def format_float(x):
    """17-significant-digit decimal form, always with an exponent or point."""
    s = format(float(x), ".17g")
    if not any(c in s for c in ".eE") and s not in ("inf", "-inf", "nan"):
        s += ".0"
    return s


def _encode(obj):
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict) or _holds_containers(obj):
        return "".join(_pieces(obj))
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_encode(v) for v in obj) + "]"
    # numpy scalars and arrays reduce to the cases above
    if hasattr(obj, "tolist"):
        return _encode(obj.tolist())
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _holds_containers(obj):
    return isinstance(obj, (list, tuple)) and len(obj) > 0 and isinstance(obj[0], (dict, list, tuple))


def _pieces(obj):
    """The text of obj in pieces, to be joined once.

    The brackets, keys and separators of dicts and of lists of containers are
    pieces of their own and every other value is one piece, so no container's
    text is copied into its parent's before the one final join.
    """
    if isinstance(obj, dict):
        yield "{"
        for i, (k, v) in enumerate(obj.items()):
            yield f"{', ' if i else ''}{json.dumps(str(k))}: "
            yield from _pieces(v)
        yield "}"
    elif _holds_containers(obj):
        for i, v in enumerate(obj):
            yield ", " if i else "["
            yield from _pieces(v)
        yield "]"
    else:
        yield _encode(obj)


def dumps_json(doc):
    return "".join(itertools.chain(_pieces(doc), "\n"))


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_json(doc))


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _cell(value):
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def dumps_csv(header, rows, preamble=None):
    lines = []
    for key, value in (preamble or {}).items():
        lines.append(f"# {key}: {_encode(value)}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def write_csv(path, header, rows, preamble=None):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_csv(header, rows, preamble))


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
    """Parse a CSV written by write_csv: (preamble dict, header, typed rows)."""
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
