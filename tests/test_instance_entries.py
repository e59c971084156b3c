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
from cartancover.errors import DimensionMismatch
from cartancover.fields import GF, QQ, field_to_json
from cartancover.instances import (
    bundle_instance_to_json,
    cover_instance_to_json,
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
        written = cover_instance_to_json(field, instance.cover, instance.line_bundle)
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


def test_an_algebra_of_another_bundle_is_refused():
    # a GF(7) algebra beside a Q bundle would be written under Q's field
    _cover, q_line = _swap_loop(QQ)
    _cover, gf_line = _swap_loop(GF(7))
    q_algebra, gf_algebra = canonical_algebra_map(q_line), canonical_algebra_map(gf_line)
    with pytest.raises(DimensionMismatch):
        bundle_instance_to_json(q_algebra.parent, gf_algebra)
    # another bundle over the same field: other transitions
    other = canonical_algebra_map(_swap_loop(QQ, ((5, 7),))[1])
    with pytest.raises(DimensionMismatch):
        bundle_instance_to_json(q_algebra.parent, other)
    # an equal bundle built separately is the same bundle
    again = canonical_algebra_map(_swap_loop(QQ)[1])
    assert bundle_instance_to_json(q_algebra.parent, again) == bundle_instance_to_json(
        q_algebra.parent, q_algebra
    )
    assert "cartan_bundle" not in bundle_instance_to_json(q_algebra.parent)["payload"]


def test_a_line_bundle_on_another_cover_is_refused():
    cover, line = _swap_loop(QQ)
    trivial_cover = CoverRep(BaseGraph(1, ((0, 0),)), 2, ((0, 1),))
    with pytest.raises(DimensionMismatch):
        cover_instance_to_json(QQ, trivial_cover, line)
    with pytest.raises(DimensionMismatch):
        cover_instance_to_json(GF(7), cover, line)
    written = cover_instance_to_json(QQ, CoverRep(BaseGraph(1, ((0, 0),)), 2, ((1, 0),)), line)
    assert written["payload"]["scalars"] == [["2", "3"]]
    assert "scalars" not in cover_instance_to_json(GF(7), cover)["payload"]
