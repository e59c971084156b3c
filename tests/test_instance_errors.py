"""Matrix entries an instance file may not hold: each is refused with a
``ParseError`` that names its location."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from cartancover import instances
from cartancover.errors import ParseError
from cartancover.fields import GF, QQ, Fp
from cartancover.instances import parse_instance_text
from cartancover.linalg import Matrix

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
Q = {"kind": "Q"}
F7 = {"kind": "Fp", "p": 7}
LONG = "1" * 5000  # past Python's integer-string digit limit


def _cartan_text(field, matrix) -> str:
    payload = {"d": 2, "basis": [[[1, 0], [0, 1]], matrix]}
    return json.dumps({"field": field, "kind": "cartan", "payload": payload})


@pytest.mark.parametrize(
    "field, matrix, message",
    [
        (Q, [[1, 0], [1.5, 1]], "payload.basis[1][1][0]: floats are not exact scalars"),
        (F7, [[1, 0], [2.0, 1]], "payload.basis[1][1][0]: floats are not exact scalars"),
        (Q, [[1, True], [0, 1]], "payload.basis[1][0][1]: booleans are not rational scalars"),
        (F7, [[1, False], [0, 1]], "payload.basis[1][0][1]: booleans are not prime-field scalars"),
        (
            Q,
            [[1, 0], [0, {"a": 1}]],
            "payload.basis[1][1][1]: cannot interpret {'a': 1} as a rational number",
        ),
        (
            F7,
            [[1, 0], [0, None]],
            "payload.basis[1][1][1]: cannot interpret None as an element of GF(7)",
        ),
        (
            Q,
            [["1/0", 0], [0, 1]],
            "payload.basis[1][0][0]: malformed rational '1/0': zero denominator",
        ),
        (
            Q,
            [[1, " 1/x "], [0, 1]],
            "payload.basis[1][0][1]: malformed rational '1/x'; expected 'a' or 'a/b'",
        ),
        (
            Q,
            [[1, "1_0"], [0, 1]],
            "payload.basis[1][0][1]: malformed rational '1_0'; expected 'a' or 'a/b'",
        ),
        (F7, [[1, 0], ["x", 1]], "payload.basis[1][1][0]: malformed GF(7) residue 'x'"),
        (F7, [[1, 0], [0, "1/2"]], "payload.basis[1][1][1]: malformed GF(7) residue '1/2'"),
        (
            Q,
            [[LONG, 0], [0, 1]],
            "payload.basis[1][0][0]: integer of 5000 characters exceeds the digit limit",
        ),
        (
            Q,
            [["1/" + LONG, 0], [0, 1]],
            "payload.basis[1][0][0]: integer of 5000 characters exceeds the digit limit",
        ),
        (
            F7,
            [[1, 0], [0, "-" + LONG]],
            "payload.basis[1][1][1]: integer of 5001 characters exceeds the digit limit",
        ),
        (Q, [[1, 2], [3]], "payload.basis[1]: matrix rows must be nonempty and equal length"),
        (Q, [[], []], "payload.basis[1]: matrix rows must be nonempty and equal length"),
        (Q, [], "payload.basis[1]: matrix needs at least one row"),
        (Q, {"rows": 2}, "payload.basis[1]: expected a list"),
        (Q, [[1, 2], 5], "payload.basis[1][1]: expected a list"),
        # entries are refused in reading order, before a later ragged or
        # non-list row
        (
            Q,
            [[1, "x"], [3], 5],
            "payload.basis[1][0][1]: malformed rational 'x'; expected 'a' or 'a/b'",
        ),
        (F7, [[1, 2], [3], ["y", 1]], "payload.basis[1][2][0]: malformed GF(7) residue 'y'"),
    ],
)
def test_refused_entries_name_their_location(field, matrix, message):
    with pytest.raises(ParseError) as info:
        parse_instance_text(_cartan_text(field, matrix))
    assert str(info.value) == message


def test_refused_bundle_entries_name_their_location():
    doc = json.loads((INSTANCES / "bundle_loop_swap2_q.json").read_text(encoding="utf-8"))
    doc["payload"]["transitions"][0][1][0] = "2/0"
    with pytest.raises(ParseError) as info:
        parse_instance_text(json.dumps(doc))
    assert str(info.value) == (
        "payload.transitions[0][1][0]: malformed rational '2/0': zero denominator"
    )
    doc = json.loads((INSTANCES / "bundle_loop_swap2_q.json").read_text(encoding="utf-8"))
    doc["payload"]["cartan_bundle"][0][1][0][1] = 0.5
    with pytest.raises(ParseError) as info:
        parse_instance_text(json.dumps(doc))
    assert str(info.value) == "payload.cartan_bundle[0][1][0][1]: floats are not exact scalars"


@pytest.mark.parametrize(
    "field, entry",
    [
        (GF(5), Fraction(1, 2)),
        (GF(5), Fp(1, 7)),
        (QQ, Fp(1, 5)),
        (QQ, True),
        (GF(5), 1.0),
        (QQ, None),
    ],
)
def test_an_entry_from_another_field_or_of_no_field_is_a_parse_error(field, entry):
    with pytest.raises(ParseError):
        Matrix(field, [[1, entry]])


# --- covers and parabolic data ------------------------------------------------------


ZERO_DEN = "malformed rational '%s': zero denominator"
MALFORMED = "malformed rational '%s'; expected 'a' or 'a/b'"


def _cover_text(field, scalars=None, sigma=((2, 1), (1, 2)), edges=((0, 1), (1, 0))):
    payload = {
        "graph": {"vertices": 2, "edges": [list(e) for e in edges]},
        "degree": 2,
        "sigma": [list(s) for s in sigma],
    }
    if scalars is not None:
        payload["scalars"] = scalars
    return json.dumps({"field": field, "kind": "cover", "payload": payload})


@pytest.mark.parametrize(
    "field, scalars, message",
    [
        (Q, [[1, 1.5], [1, 1]], "payload.scalars[0][1]: floats are not exact scalars"),
        (F7, [[1, 1], [2.0, 1]], "payload.scalars[1][0]: floats are not exact scalars"),
        (Q, [[True, 1], [1, 1]], "payload.scalars[0][0]: booleans are not rational scalars"),
        (F7, [[1, 1], [1, False]], "payload.scalars[1][1]: booleans are not prime-field scalars"),
        (Q, [[1, "1/0"], [1, 1]], f"payload.scalars[0][1]: {ZERO_DEN % '1/0'}"),
        (Q, [[1, 1], ["x", 1]], f"payload.scalars[1][0]: {MALFORMED % 'x'}"),
        (F7, [["x", 1], [1, 1]], "payload.scalars[0][0]: malformed GF(7) residue 'x'"),
        (Q, [[1, 1], [1, "0/5"]], "payload.scalars[1]: scalars must be nonzero"),
        (F7, [[1, 1], [14, 1]], "payload.scalars[1]: scalars must be nonzero"),
        # row by row: a list of one scalar per label, then its entries in
        # reading order, then that they are nonzero
        (Q, [[0, 1], ["x", 1]], "payload.scalars[0]: scalars must be nonzero"),
        (Q, [[0, "x"], [1, 1]], f"payload.scalars[0][1]: {MALFORMED % 'x'}"),
        (Q, [[1, "x"], [1]], f"payload.scalars[0][1]: {MALFORMED % 'x'}"),
        (Q, [[1, 1], ["x"]], "payload.scalars[1]: one scalar per label required"),
        (F7, [[7, 1], "12"], "payload.scalars[0]: scalars must be nonzero"),
        (Q, [[1, 1], [1]], "payload.scalars[1]: one scalar per label required"),
        (Q, [[1, 1], "12"], "payload.scalars[1]: expected a list"),
        (Q, [[1, 1]], "payload.scalars: one scalar list per edge required"),
        (Q, {"0": [1, 1]}, "payload.scalars: expected a list"),
    ],
)
def test_refused_cover_scalars_name_their_location(field, scalars, message):
    with pytest.raises(ParseError) as info:
        parse_instance_text(_cover_text(field, scalars))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        (
            _cover_text(Q, edges=((0, 1), (1, "x"))),
            "payload.graph.edges[1][1]: expected an integer, got 'x'",
        ),
        (
            _cover_text(Q, edges=((True, 1), (1, 0))),
            "payload.graph.edges[0][0]: expected an integer, got True",
        ),
        (
            _cover_text(Q, sigma=((2, 1), (1, "2"))),
            "payload.sigma[1][1]: expected an integer, got '2'",
        ),
        (
            _cover_text(Q, sigma=((2.0, 1), (1, 2))),
            "payload.sigma[0][0]: expected an integer, got 2.0",
        ),
    ],
    ids=["edge-str", "edge-bool", "sigma-str", "sigma-float"],
)
def test_refused_graph_and_sigma_entries_name_their_location(text, message):
    with pytest.raises(ParseError) as info:
        parse_instance_text(text)
    assert str(info.value) == message


def _fault(*args):
    raise RuntimeError("fault")


@pytest.mark.parametrize("constructor", ["BaseGraph", "CoverRep"])
def test_a_fault_inside_the_toolkit_is_no_input_error(monkeypatch, constructor):
    # only the toolkit's own refusals of the data become a ParseError
    monkeypatch.setattr(instances, constructor, _fault)
    with pytest.raises(RuntimeError, match="^fault$"):
        parse_instance_text(_cover_text(Q))


def _parabolic_text(
    components=(2,), profiles=(2,), component_of_sheet=(0,), weights=None, unramified=None
):
    point = {"profiles": list(profiles), "component_of_sheet": list(component_of_sheet)}
    if weights is not None:
        point["weights"] = list(weights)
    payload = {
        "gX": 0,
        "degree": 2,
        "components": list(components),
        "branch_points": [point, point],
        "degL": 0,
    }
    if unramified is not None:
        payload["unramified_weights"] = [list(w) for w in unramified]
    return json.dumps({"field": Q, "kind": "parabolic", "payload": payload})


@pytest.mark.parametrize(
    "text, message",
    [
        (
            _parabolic_text(component_of_sheet=("0",)),
            "payload.branch_points[0].component_of_sheet[0]: expected an integer, got '0'",
        ),
        (
            _parabolic_text(profiles=(1, 1), component_of_sheet=(0, None)),
            "payload.branch_points[0].component_of_sheet[1]: expected an integer, got None",
        ),
        (
            _parabolic_text(profiles=(1, 1.0), component_of_sheet=(0, 0)),
            "payload.branch_points[0].profiles[1]: expected an integer, got 1.0",
        ),
        (
            _parabolic_text(components=(1, "1")),
            "payload.components[1]: expected an integer, got '1'",
        ),
        (
            _parabolic_text(profiles=(1, 1), component_of_sheet=(0, 0), weights=("1/2", 0.5)),
            "payload.branch_points[0].weights[1]: "
            "parabolic weights must be exact rationals, not floats",
        ),
        (
            _parabolic_text(weights=("3/2",)),
            "payload.branch_points[0].weights[0]: parabolic weight 3/2 outside [0, 1)",
        ),
        (
            _parabolic_text(profiles=(1, 1), component_of_sheet=(0, 0), weights=(0, None)),
            "payload.branch_points[0].weights[1]: cannot interpret None as a parabolic weight",
        ),
        (
            _parabolic_text(unramified=(("0", "1/3"), ("1/2", True))),
            "payload.unramified_weights[1][1]: booleans are not parabolic weights",
        ),
        (
            _parabolic_text(unramified=(("x",),)),
            f"payload.unramified_weights[0][0]: {MALFORMED % 'x'}",
        ),
        (
            _parabolic_text(unramified=(("0", {"w": 1}),)),
            "payload.unramified_weights[0][1]: cannot interpret {'w': 1} as a parabolic weight",
        ),
    ],
    ids=[
        "sheet-str",
        "sheet-none",
        "profile-float",
        "component-str",
        "weight-float",
        "weight-range",
        "weight-none",
        "unramified-bool",
        "unramified-str",
        "unramified-dict",
    ],
)
def test_refused_parabolic_entries_name_their_location(text, message):
    with pytest.raises(ParseError) as info:
        parse_instance_text(text)
    assert str(info.value) == message
