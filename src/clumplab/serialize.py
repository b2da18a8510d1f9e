"""JSON wire format for clump graphs and rational values.

Graphs: {"k": int, "layers": [[{"color": int, "weight": int}, ...], ...]}.
Rationals travel as "p/q" strings so nothing is lost to binary floats.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from typing import Any, Iterator

from .core import ClumpGraphError, WeightedClumpGraph


class SchemaError(ValueError):
    """Raised when input JSON does not match the documented schema."""


def format_rational(value: Fraction | int) -> str:
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """An ASCII integer or p/q with q != 0, nothing else: int() alone
    would also take "1_000", padding, non-ASCII digits and "1/-2"."""
    if _RATIONAL.fullmatch(text):
        p, _, q = text.partition("/")
        try:
            return Fraction(int(p), int(q or 1))
        except (ValueError, ZeroDivisionError):  # q == 0, or past int()'s digit limit
            pass
    raise SchemaError(f"bad rational {_echo(text)}: expected an integer or p/q with q != 0")


def dump_clump_json(graph: WeightedClumpGraph) -> str:
    """json.dumps({"k": k, "layers": [[{"color": c, "weight": w}, ...],
    ...]}, indent=2, sort_keys=True) + "\n", byte for byte, written
    directly: with an indent, json.dumps takes the stdlib's pure-Python
    encoder.  The constructor takes only int k, colors and weights, and
    an int is written as json writes it."""
    layers = ",\n".join(
        "    [\n" + ",\n".join(
            f'      {{\n        "color": {c},\n        "weight": {w}\n      }}'
            for c, w in row.items()
        ) + "\n    ]"
        for row in graph.rows
    )
    return f'{{\n  "k": {graph.k},\n  "layers": [\n{layers}\n  ]\n}}\n'


def _load(text: str | bytes) -> Any:
    # a too deeply nested or non-UTF-8 document is bad input like any other
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError, UnicodeDecodeError) as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    except ValueError as exc:
        # the one other ValueError: an integer literal longer than the
        # interpreter's int-to-string digit limit
        raise SchemaError(
            f"invalid JSON: an integer has more than {sys.get_int_max_str_digits()} digits"
        ) from exc


_ECHO_CHARS = 40


def _repr_parts(value: Any) -> Iterator[str]:
    """repr(value) in pieces, each container's opening bracket before its
    items, so a reader can stop early on a huge or deeply nested value."""
    if isinstance(value, list):
        yield "["
        for i, item in enumerate(value):
            yield ", " if i else ""
            yield from _repr_parts(item)
        yield "]"
    elif isinstance(value, dict):
        yield "{"
        for i, (key, item) in enumerate(value.items()):
            yield f"{', ' if i else ''}{key!r}: "
            yield from _repr_parts(item)
        yield "}"
    else:
        yield repr(value)


def _echo(value: Any) -> str:
    """repr(value) for an error message, cut to _ECHO_CHARS characters
    plus "…" when longer."""
    text = ""
    for part in _repr_parts(value):
        text += part
        if len(text) > _ECHO_CHARS:
            return text[:_ECHO_CHARS] + "…"
    return text


def _check_entry(entry: Any, where: str, fields: tuple[str, ...], ints: tuple[str, ...]) -> None:
    """entry is an object holding every one of fields, and the ones named
    in ints are integers, checked by type() as k is."""
    if not isinstance(entry, dict):
        raise SchemaError(f"{where} must be an object")
    for field in fields:
        if field not in entry:
            raise SchemaError(f"{where} missing field {field!r}")
    for field in ints:
        if type(entry[field]) is not int:
            raise SchemaError(f"{where}.{field} must be an integer, got {_echo(entry[field])}")


def parse_clump_json(text: str | bytes) -> WeightedClumpGraph:
    data = _load(text)
    if not isinstance(data, dict):
        raise SchemaError("top level must be an object")
    for field in ("k", "layers"):
        if field not in data:
            raise SchemaError(f"missing field {field!r}")
    k = data["k"]
    # type(), not isinstance(): JSON true parses to a bool, an int subclass
    if type(k) is not int or k < 2:
        raise SchemaError(f'field "k" must be an integer >= 2, got {_echo(k)}')
    layers = data["layers"]
    if not isinstance(layers, list):
        raise SchemaError('field "layers" must be a list')
    parsed: list[list[tuple[int, int]]] = []
    for i, layer in enumerate(layers):
        if not isinstance(layer, list):
            raise SchemaError(f"layers[{i}] must be a list")
        row: list[tuple[int, int]] = []
        for j, entry in enumerate(layer):
            # one test passes a valid entry; _check_entry says what is wrong
            if (
                type(entry) is not dict
                or type(entry.get("color")) is not int
                or type(entry.get("weight")) is not int
            ):
                _check_entry(entry, f"layers[{i}][{j}]", ("color", "weight"), ("color", "weight"))
            row.append((entry["color"], entry["weight"]))
        parsed.append(row)
    try:
        return WeightedClumpGraph(k, parsed)
    except ClumpGraphError as exc:
        raise SchemaError(str(exc)) from exc


def dual_weights_to_json(u: dict[tuple[int, int], Fraction]) -> str:
    entries = [
        {"layer": layer, "color": color, "value": format_rational(value)}
        for (layer, color), value in sorted(u.items())
    ]
    return json.dumps({"u": entries}, indent=2, sort_keys=True) + "\n"


def parse_dual_weights(text: str | bytes) -> dict[tuple[int, int], Fraction]:
    data = _load(text)
    if not isinstance(data, dict) or "u" not in data or not isinstance(data["u"], list):
        raise SchemaError('expected an object with a list field "u"')
    out: dict[tuple[int, int], Fraction] = {}
    for j, entry in enumerate(data["u"]):
        _check_entry(entry, f"u[{j}]", ("layer", "color", "value"), ("layer", "color"))
        key = (entry["layer"], entry["color"])
        if key in out:
            raise SchemaError(f"u[{j}] duplicates clump {key}")
        value = entry["value"]
        # rationals travel as "p/q" strings, never as JSON numbers
        if not isinstance(value, str):
            raise SchemaError(f'u[{j}].value must be a "p/q" string, got {_echo(value)}')
        out[key] = parse_rational(value)
    return out
