"""The machine-report writer against ``json.dumps``, the format it reproduces."""

import json
from fractions import Fraction
from random import Random

import pytest

from cartancover.cli import run
from cartancover.reports import Report

from test_golden_reports import invocations

# characters that take every escape path: quote, backslash, the short
# escapes, other control characters, DEL, non-ASCII in and beyond the BMP,
# and lone surrogates
SPECIAL = ['"', "\\", "\n", "\t", "\b", "\f", "\r", "\x00", "\x1f", "\x7f", "é", "€", " ",
           "\U0001f600", "\ud800", "\udfff", "/", "\u2028", "\u00a0"]


def _string(rng):
    pool = SPECIAL + list("abcXYZ019_-:")
    s = "".join(rng.choice(pool) for _ in range(rng.randrange(6)))
    # a high surrogate escaped just before a low one reads back as one
    # character, so the two lone ones are kept apart
    return s.replace("\ud800\udfff", "\ud800a\udfff")


def _int(rng):
    return rng.choice([0, 1, -1, rng.randrange(-10**6, 10**6), 2**64 + rng.randrange(10**9),
                       -(2**64) - rng.randrange(10**9), rng.randrange(10**40)])


def _leaf(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return _string(rng)
    if kind == 1:
        return _int(rng)
    return [True, False, None][kind - 2]


def _document(rng, depth):
    """A random report value nested at most ``depth`` containers deep."""
    kind = rng.randrange(8) if depth else 0
    if kind <= 1:
        return _leaf(rng)
    n = rng.randrange(5)
    if kind == 2:
        # a leaf list of one type, which takes the writer's one-join path
        make = rng.choice([_string, _int])
        return [make(rng) for _ in range(n)]
    if kind == 3:
        # ints and bools mixed: [1, True] is written 1, true
        return [rng.choice([_int(rng), True, False]) for _ in range(n)]
    if kind <= 5:
        items = [_document(rng, depth - 1) for _ in range(n)]
        return tuple(items) if kind == 5 else items
    return {_string(rng): _document(rng, depth - 1) for _ in range(n)}


def _as_lists(x):
    """``x`` with every tuple a list, as ``json.loads`` reads it back."""
    if isinstance(x, dict):
        return {k: _as_lists(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_as_lists(v) for v in x]
    return x


def _machine_text(machine):
    return Report("cmd", machine).to_machine_text()


def test_writer_matches_json_dumps_on_random_documents():
    rng = Random(20161213)
    for _ in range(500):
        machine = {_string(rng): _document(rng, 5) for _ in range(rng.randrange(6))}
        doc = {"command": "cmd", **machine}
        text = _machine_text(machine)
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert json.loads(text) == _as_lists(doc)


@pytest.mark.parametrize(
    "machine",
    [
        {},
        {"a": {}, "b": [], "c": ()},
        {"mixed": [1, True, False, 0, None]},
        {"nested": [[], [[]], {}, [{}], ("x", 2)]},
        {"big": [2**64, -(2**64) - 1, 10**30]},
        {"ints": [0, 255, 256, -1], "small": 7, "large": 4096},
        {"s": ['"', "\\", "\x00\x1f", "é\U0001f600", "\ud800"]},
    ],
)
def test_writer_matches_json_dumps_on_edge_cases(machine):
    doc = {"command": "cmd", **machine}
    assert _machine_text(machine) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "machine",
    [{"x": 1.5}, {"x": [1, 0.0]}, {"x": {1, 2}}, {"x": Fraction(1, 2)}, {"x": {1: "a"}}],
    ids=["float", "float_in_list", "set", "fraction", "int_key"],
)
def test_writer_refuses_types_outside_the_report_format(machine):
    with pytest.raises(TypeError):
        _machine_text(machine)


def _foreign_types(x, where="$"):
    """Paths in ``x`` to values of a type the writer does not accept."""
    t = type(x)
    if t is dict:
        out = [f"{where} key {k!r}" for k in x if type(k) is not str]
        for k, v in x.items():
            out += _foreign_types(v, f"{where}.{k}")
        return out
    if t is list or t is tuple:
        return [p for i, v in enumerate(x) for p in _foreign_types(v, f"{where}[{i}]")]
    if t in (str, int, bool) or x is None:
        return []
    return [f"{where}: {t.__name__}"]


@pytest.mark.parametrize("name,argv", invocations(), ids=[n for n, _a in invocations()])
def test_golden_reports_hold_only_writer_types(name, argv):
    report, _fmt = run(argv)
    assert _foreign_types(report.machine) == []
