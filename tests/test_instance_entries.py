"""Matrix entries and line-bundle scalars of instance files: the canonical
integer form they are read into and the strings written back, against
the per-entry scalar path."""

import json
import random

import pytest
from helpers import cover_scalars_by_scalars, parse_matrix_by_scalars, render_matrix_by_scalars

from cartancover.bundles import BaseGraph
from cartancover.cli import main
from cartancover.covers import CoverRep, LineBundleOnCover, canonical_algebra_map
from cartancover.errors import ParseError
from cartancover.fields import GF, QQ, field_to_json
from cartancover.instances import (
    bundle_instance_to_json,
    cartan_bundle_instance_to_json,
    cover_instance_to_json,
    line_bundle_instance_to_json,
    parse_instance_text,
    parse_matrix,
)
from cartancover.linalg import Matrix
from cartancover.reports import matrix_oneline, render_matrix


def _entry(rng, field):
    """One instance-file entry, in one of the spellings a file may use."""
    p = field.characteristic
    n = rng.choice([0, 1, -1, rng.randint(-50, 50), rng.randint(-(10**30), 10**30)])
    if p:
        n = rng.choice([n, n + p, n * p, p - 1, p, 2 * p + 3])
    spelling = rng.randrange(9)
    if spelling == 0:
        return n
    if spelling == 1:
        return f" {n}\t"
    if spelling == 2:
        return f"+{n}" if n >= 0 else str(n)
    if spelling == 3:
        return "-0" if n == 0 else f"{'-' if n < 0 else ''}000{abs(n)}"
    if p or spelling == 4:
        return str(n)
    # rationals, unreduced ones included
    d = rng.choice([1, 2, 3, 4, 6, 9, 12, rng.randint(1, 10**30)])
    k = rng.choice([1, 1, 2, 6, 10**12])
    text = f"{n * k}/{d * k}"
    return f"  {text} " if spelling == 5 else ("+" + text if n >= 0 and spelling == 6 else text)


FIELDS = [QQ, GF(2), GF(7), GF(2**61 - 1)]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_entries_read_straight_into_the_canonical_form(field):
    rng = random.Random(f"entries-{field!r}")
    for _ in range(300):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        raw = [[_entry(rng, field) for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.2:
            raw = [[0] * ncols for _ in range(nrows)]
        m = parse_matrix(field, raw, "m")
        oracle = parse_matrix_by_scalars(field, raw, "m")
        assert (m.den, m.ints, hash(m)) == (oracle.den, oracle.ints, hash(oracle)), raw
        assert render_matrix(m) == render_matrix_by_scalars(field, oracle)
        assert matrix_oneline(m) == "[" + "; ".join(
            " ".join(row) for row in render_matrix_by_scalars(field, oracle)
        ) + "]"
        assert repr(m) == "Matrix" + matrix_oneline(m)


def test_unreduced_strings_reach_the_canonical_form():
    m = parse_matrix(QQ, [["6/4", "-9/6"], ["+3", " 0003/0001 "]], "m")
    assert (m.den, m.ints) == (2, [[3, -3], [6, 6]])
    assert render_matrix(m) == [["3/2", "-3/2"], ["3", "3"]]
    m = parse_matrix(QQ, [["2/4", "-0"], ["10/20", "0/7"]], "m")
    assert (m.den, m.ints) == (2, [[1, 0], [1, 0]])
    m = parse_matrix(GF(7), [["-1", 15], [" +8 ", "-0"]], "m")
    assert (m.den, m.ints) == (1, [[6, 1], [1, 0]])


def _cover_doc(field, n, edges, degree, sigma, scalars) -> str:
    payload = {
        "graph": {"vertices": n, "edges": edges},
        "degree": degree,
        "sigma": sigma,
        "scalars": scalars,
    }
    return json.dumps({"field": field_to_json(field), "kind": "cover", "payload": payload})


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_line_bundle_scalars_read_straight_into_the_canonical_form(field):
    # the scalar matrix of a cover instance, and the strings written back,
    # against a field scalar per entry; edgeless covers included
    rng = random.Random(f"scalars-{field!r}")
    edgeless = 0
    for _ in range(200):
        n, degree = rng.randint(1, 3), rng.randint(1, 4)
        edges = [[rng.randrange(n), rng.randrange(n)] for _ in range(rng.randint(0, 3))]
        edges += [[v - 1, v] for v in range(1, n)]
        sigma = [rng.sample(range(1, degree + 1), degree) for _ in edges]
        raw = []
        for _ in edges:
            row = []
            while len(row) < degree:
                x = _entry(rng, field)
                if cover_scalars_by_scalars(field, [[x]])[0][0][0] != 0:
                    row.append(x)
            raw.append(row)
        edgeless += not edges
        doc = _cover_doc(field, n, edges, degree, sigma, raw)
        instance = parse_instance_text(doc)
        scalars = instance.line_bundle.scalars
        rows, form, rendered = cover_scalars_by_scalars(field, raw)
        assert (scalars.nrows, scalars.ncols) == (len(edges), degree)
        assert (scalars.den, scalars.ints) == form, raw
        # the same matrix built from its field scalars is equal and hashes equal
        from_rows = Matrix(field, rows, ncols=degree)
        assert scalars.rows == rows and scalars == from_rows and hash(scalars) == hash(from_rows)
        written = line_bundle_instance_to_json(instance.line_bundle)
        assert written["payload"]["scalars"] == rendered
        assert parse_instance_text(json.dumps(written)).line_bundle == instance.line_bundle
    assert edgeless > 10


def test_unreduced_and_padded_scalars_reach_the_canonical_form():
    text = _cover_doc(QQ, 1, [[0, 0], [0, 0]], 2, [[2, 1], [1, 2]], [["6/4", "+3"], [" -2/8 ", 5]])
    line = parse_instance_text(text).line_bundle
    assert (line.scalars.den, line.scalars.ints) == (4, [[6, 12], [-1, 20]])
    assert render_matrix(line.scalars) == [["3/2", "3"], ["-1/4", "5"]]
    text = _cover_doc(GF(7), 1, [[0, 0]], 3, [[1, 2, 3]], [[15, " +8 ", "-1"]])
    line = parse_instance_text(text).line_bundle
    assert (line.scalars.den, line.scalars.ints) == (1, [[1, 1, 6]])


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
def test_an_edgeless_cover_pushes_forward(field, tmp_path, capsys):
    path = tmp_path / "edgeless.json"
    path.write_text(_cover_doc(field, 1, [], 3, [], []), encoding="utf-8")
    line = parse_instance_text(path.read_text(encoding="utf-8")).line_bundle
    assert (line.scalars.nrows, line.scalars.ncols, line.scalars.ints) == (0, 3, [])
    assert main(["--format", "machine", "pushforward", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and report["bundle"]["payload"]["transitions"] == []


def _swap_loop(field, scalars=((2, 3),)):
    cover = CoverRep(BaseGraph(1, ((0, 0),)), 2, ((1, 0),))
    return cover, LineBundleOnCover(cover, field, [list(scalars[0])])


def test_writers_read_each_value_off_its_carrier():
    # an algebra carries its bundle, a line bundle its cover and field
    _cover, q_line = _swap_loop(QQ)
    algebra = canonical_algebra_map(q_line)
    written = cartan_bundle_instance_to_json(algebra)
    assert written == cartan_bundle_instance_to_json(canonical_algebra_map(_swap_loop(QQ)[1]))
    assert len(written["payload"].pop("cartan_bundle")) == 1
    assert written == bundle_instance_to_json(algebra.parent)
    cover, line = _swap_loop(GF(7))
    written = line_bundle_instance_to_json(line)
    assert parse_instance_text(json.dumps(written)).line_bundle == line
    assert written["payload"].pop("scalars") == [["2", "3"]]
    assert written == cover_instance_to_json(GF(7), cover)


# JSON entry values: ints (negative ones and ones past 2^64 among them),
# strings of every shape the readers meet, and the other JSON types
CORPUS = [
    0, 1, -1, 7, -7, 2**61 - 1, 2**64 + 3, -(2**64) - 3, 10**40,
    "a", "a/b", " 3 ", "+3", "-0/5", "1/0", "1.5", "x", "", "4/6", "0", "-14",
    True, False, 1.5, None, [], {},
]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("x", CORPUS, ids=repr)
def test_the_reader_and_the_refusal_walk_agree(field, x):
    # the one-pass reader and the walk that names a refused entry read one
    # entry alike: what Matrix reads is the matrix parse_matrix returns, and
    # what it refuses is refused at the entry, never as a shape
    try:
        expected = Matrix(field, [[x]])
    except ParseError:
        expected = None
    if expected is not None:
        m = parse_matrix(field, [[x]], "m")
        assert (m.den, m.ints) == (expected.den, expected.ints)
    else:
        with pytest.raises(ParseError, match=r"^m\[0\]\[0\]: "):
            parse_matrix(field, [[x]], "m")
    # the same for a line-bundle scalar, where zero is refused as well
    doc = _cover_doc(field, 1, [[0, 0]], 1, [[1]], [[x]])
    if expected is not None and expected.ints != [[0]]:
        line = parse_instance_text(doc).line_bundle
        assert (line.scalars.den, line.scalars.ints) == (expected.den, expected.ints)
    else:
        message = r": scalars must be nonzero$" if expected is not None else r"\[0\]: "
        with pytest.raises(ParseError, match=r"^payload\.scalars\[0\]" + message):
            parse_instance_text(doc)
