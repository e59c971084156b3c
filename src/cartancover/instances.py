"""Instance files: one JSON document per problem instance.

The format is UTF-8 JSON with all scalars exact: rationals are strings
"a/b" or "a" (or plain integers), prime-field values are decimal
residues. Fiber labels are 1-based in files and 0-based in memory.
Matrix entries and the line-bundle scalars of covers go straight into
the canonical integer form of a ``Matrix``, and both are written back
from it; a refused input is read again, entry by entry, to name the
entry it fails on. Parsing failures name the offending location.
"""

from __future__ import annotations

import json
import sys
from typing import NamedTuple

from .bundles import BaseGraph, BundleRep, SubalgebraBundle
from .cartan import MatrixSubspace
from .covers import CoverRep, LineBundleOnCover
from .errors import CartanCoverError, DisconnectedBase, ParseError
from .fields import field_from_json, field_to_json
from .linalg import Matrix
from .parabolic import BranchPoint, RamifiedCoverData, RamifiedSheet, parse_weight
from .reports import render_matrix

KINDS = ("cartan", "bundle", "cover", "parabolic")


class CartanInstance(NamedTuple):
    field: object
    dimension: int
    basis: tuple


class BundleInstance(NamedTuple):
    field: object
    bundle: BundleRep
    algebra: SubalgebraBundle | None


class CoverInstance(NamedTuple):
    field: object
    cover: CoverRep
    line_bundle: LineBundleOnCover | None


class ParabolicInstance(NamedTuple):
    field: object
    data: RamifiedCoverData
    line_degree: int


def _expect(obj, key, where):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    return obj[key]


def _expect_int(value, where):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    return value


def _expect_list(value, where):
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list")
    return value


def _entry_ints(field, value, where) -> int:
    """The integer form of one entry, or its error with its location."""
    if isinstance(value, float):
        raise ParseError(f"{where}: floats are not exact scalars")
    try:
        return field.to_ints([value], ParseError)[1][0]
    except ParseError as exc:
        raise ParseError(f"{where}: {exc}") from None


def _weight(value, where):
    """The parsed parabolic weight of one entry, or its error with its location."""
    try:
        return parse_weight(value)
    except ParseError as exc:
        raise ParseError(f"{where}: {exc}") from None


def parse_matrix(field, value, where) -> Matrix:
    """The matrix of a list of rows of entries, read straight into the
    canonical integer form by ``Matrix``."""
    rows = _expect_list(value, where)
    if not rows:
        raise ParseError(f"{where}: matrix needs at least one row")
    if all(isinstance(r, list) for r in rows):
        width = len(rows[0])
        if width and all(len(r) == width for r in rows):
            try:
                return Matrix(field, rows, width)
            except ParseError:
                pass
    _refuse_matrix(field, rows, where)


def _refuse_matrix(field, rows, where):
    """Raise the error of a refused matrix: the first row or entry, in
    reading order, that is not one, with its location, else its shape."""
    for i, row in enumerate(rows):
        row = _expect_list(row, f"{where}[{i}]")
        for j, x in enumerate(row):
            _entry_ints(field, x, f"{where}[{i}][{j}]")
    raise ParseError(f"{where}: matrix rows must be nonempty and equal length")


def parse_graph(value, where) -> BaseGraph:
    n = _expect_int(_expect(value, "vertices", where), f"{where}.vertices")
    raw_edges = _expect_list(_expect(value, "edges", where), f"{where}.edges")
    edges = []
    for i, e in enumerate(raw_edges):
        e = _expect_list(e, f"{where}.edges[{i}]")
        if len(e) != 2:
            raise ParseError(f"{where}.edges[{i}]: expected a pair [u, v]")
        edges.append(tuple(_expect_int(x, f"{where}.edges[{i}][{k}]") for k, x in enumerate(e)))
    try:
        graph = BaseGraph(n, tuple(edges))
    except CartanCoverError as exc:
        raise ParseError(f"{where}: {exc}") from None
    # a connected graph on n vertices has at least n - 1 edges; refusing
    # here keeps a huge vertex count from reaching any per-vertex table
    if n > len(edges) + 1:
        raise DisconnectedBase("base graph is not connected")
    return graph


def graph_to_json(graph: BaseGraph):
    return {"vertices": graph.num_vertices, "edges": [list(e) for e in graph.edges]}


def _parse_cartan(field, payload):
    d = _expect_int(_expect(payload, "d", "payload"), "payload.d")
    raw = _expect_list(_expect(payload, "basis", "payload"), "payload.basis")
    basis = []
    for i, m in enumerate(raw):
        mat = parse_matrix(field, m, f"payload.basis[{i}]")
        if mat.nrows != d or mat.ncols != d:
            raise ParseError(f"payload.basis[{i}]: expected a {d}x{d} matrix")
        basis.append(mat)
    if not basis:
        raise ParseError("payload.basis: at least one matrix required")
    return CartanInstance(field, d, tuple(basis))


def _parse_bundle(field, payload):
    graph = parse_graph(_expect(payload, "graph", "payload"), "payload.graph")
    rank = _expect_int(_expect(payload, "rank", "payload"), "payload.rank")
    raw = _expect_list(_expect(payload, "transitions", "payload"), "payload.transitions")
    if len(raw) != len(graph.edges):
        raise ParseError("payload.transitions: one matrix per edge required")
    transitions = []
    for i, m in enumerate(raw):
        mat = parse_matrix(field, m, f"payload.transitions[{i}]")
        if mat.nrows != rank or mat.ncols != rank:
            raise ParseError(f"payload.transitions[{i}]: expected {rank}x{rank}")
        transitions.append(mat)
    bundle = BundleRep(field, graph, rank, tuple(transitions))
    algebra = None
    if "cartan_bundle" in payload:
        raw_fibers = _expect_list(payload["cartan_bundle"], "payload.cartan_bundle")
        if len(raw_fibers) != graph.num_vertices:
            raise ParseError("payload.cartan_bundle: one basis list per vertex required")
        fibers = []
        for v, mats in enumerate(raw_fibers):
            mats = _expect_list(mats, f"payload.cartan_bundle[{v}]")
            parsed = [
                parse_matrix(field, m, f"payload.cartan_bundle[{v}][{i}]")
                for i, m in enumerate(mats)
            ]
            fibers.append(MatrixSubspace(field, rank, parsed))
        algebra = SubalgebraBundle(bundle, tuple(fibers))
    return BundleInstance(field, bundle, algebra)


def _parse_cover(field, payload):
    graph = parse_graph(_expect(payload, "graph", "payload"), "payload.graph")
    degree = _expect_int(_expect(payload, "degree", "payload"), "payload.degree")
    raw_sigma = _expect_list(_expect(payload, "sigma", "payload"), "payload.sigma")
    if len(raw_sigma) != len(graph.edges):
        raise ParseError("payload.sigma: one permutation per edge required")
    sigma = []
    for i, images in enumerate(raw_sigma):
        images = _expect_list(images, f"payload.sigma[{i}]")
        vals = [_expect_int(x, f"payload.sigma[{i}][{j}]") for j, x in enumerate(images)]
        # the length first: a huge degree must not build a list of that size
        if len(vals) != degree or sorted(vals) != list(range(1, degree + 1)):
            raise ParseError(
                f"payload.sigma[{i}]: expected a 1-based image list of 1..{degree}"
            )
        sigma.append(tuple(x - 1 for x in vals))
    try:
        cover = CoverRep(graph, degree, tuple(sigma))
    except CartanCoverError as exc:
        raise ParseError(f"payload: {exc}") from None
    line = None
    if "scalars" in payload:
        rows = _expect_list(payload["scalars"], "payload.scalars")
        if len(rows) != len(graph.edges):
            raise ParseError("payload.scalars: one scalar list per edge required")
        line = LineBundleOnCover(cover, field, _parse_scalars(field, rows, degree))
    return CoverInstance(field, cover, line)


def _parse_scalars(field, rows, degree) -> Matrix:
    """The line-bundle scalars, one nonzero entry per label in each row,
    read straight into the canonical integer form by ``Matrix``."""
    if all(isinstance(r, list) and len(r) == degree for r in rows):
        try:
            scalars = Matrix(field, rows, degree)
            if not any(0 in r for r in scalars.ints):
                return scalars
        except ParseError:
            pass
    _refuse_scalars(field, rows, degree)


def _refuse_scalars(field, rows, degree):
    """Raise the error of the first refused row of line-bundle scalars:
    not a list of one scalar per label, a located malformed entry, or a zero."""
    for i, row in enumerate(rows):
        where = f"payload.scalars[{i}]"
        if len(_expect_list(row, where)) != degree:
            raise ParseError(f"{where}: one scalar per label required")
        if 0 in [_entry_ints(field, x, f"{where}[{j}]") for j, x in enumerate(row)]:
            raise ParseError(f"{where}: scalars must be nonzero")


def _parse_parabolic(field, payload):
    g_x = _expect_int(_expect(payload, "gX", "payload"), "payload.gX")
    degree = _expect_int(_expect(payload, "degree", "payload"), "payload.degree")
    comps = _expect_list(_expect(payload, "components", "payload"), "payload.components")
    degrees = tuple(_expect_int(x, f"payload.components[{k}]") for k, x in enumerate(comps))
    branch = []
    for i, bp in enumerate(_expect_list(payload.get("branch_points", []), "payload.branch_points")):
        where = f"payload.branch_points[{i}]"
        raw = _expect_list(_expect(bp, "profiles", where), f"{where}.profiles")
        profiles = [_expect_int(x, f"{where}.profiles[{k}]") for k, x in enumerate(raw)]
        weights = bp.get("weights", ["0"] * len(profiles))
        weights = _expect_list(weights, f"{where}.weights")
        if len(weights) != len(profiles):
            raise ParseError(f"{where}: one weight per profile entry required")
        comps_of = bp.get("component_of_sheet", [0] * len(profiles))
        comps_of = _expect_list(comps_of, f"{where}.component_of_sheet")
        if len(comps_of) != len(profiles):
            raise ParseError(f"{where}: one component per profile entry required")
        sheets = []
        for k, (b, w, c) in enumerate(zip(profiles, weights, comps_of)):
            weight = _weight(w, f"{where}.weights[{k}]")
            c = _expect_int(c, f"{where}.component_of_sheet[{k}]")
            sheets.append(RamifiedSheet(b, weight, c))
        branch.append(BranchPoint(tuple(sheets)))
    extra = []
    for i, weights in enumerate(
        _expect_list(payload.get("unramified_weights", []), "payload.unramified_weights")
    ):
        where = f"payload.unramified_weights[{i}]"
        weights = _expect_list(weights, where)
        extra.append(tuple(_weight(w, f"{where}[{j}]") for j, w in enumerate(weights)))
    deg_l = _expect_int(_expect(payload, "degL", "payload"), "payload.degL")
    data = RamifiedCoverData(g_x, degree, degrees, tuple(branch), tuple(extra))
    return ParabolicInstance(field, data, deg_l)


def parse_instance_text(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except ValueError:  # an integer past Python's integer-string digit limit
        raise ParseError("invalid JSON: an integer exceeds the digit limit") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("instance must be a JSON object")
    field = field_from_json(_expect(doc, "field", "instance"))
    kind = _expect(doc, "kind", "instance")
    if kind not in KINDS:
        raise ParseError(f"kind: expected one of {KINDS}, got {kind!r}")
    payload = _expect(doc, "payload", "instance")
    if kind == "cartan":
        return _parse_cartan(field, payload)
    if kind == "bundle":
        return _parse_bundle(field, payload)
    if kind == "cover":
        return _parse_cover(field, payload)
    return _parse_parabolic(field, payload)


def load_instance(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        # a surrogate-escaping stdin turns bytes that are not UTF-8 into
        # lone surrogates, which no UTF-8 text holds
        text.encode("utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except UnicodeError:
        raise ParseError(f"cannot read {path}: not UTF-8 text") from None
    return parse_instance_text(text)


def cover_instance_to_json(field, cover: CoverRep):
    """The cover instance of ``cover`` over ``field``."""
    payload = {
        "graph": graph_to_json(cover.base),
        "degree": cover.degree,
        "sigma": [[x + 1 for x in s] for s in cover.sigma],
    }
    return {"field": field_to_json(field), "kind": "cover", "payload": payload}


def line_bundle_instance_to_json(line: LineBundleOnCover):
    """The cover instance of ``line``'s cover over its field, with its scalars."""
    doc = cover_instance_to_json(line.field, line.cover)
    doc["payload"]["scalars"] = render_matrix(line.scalars)
    return doc


def bundle_instance_to_json(bundle: BundleRep):
    """The bundle instance of ``bundle``."""
    payload = {
        "graph": graph_to_json(bundle.graph),
        "rank": bundle.rank,
        "transitions": [render_matrix(t) for t in bundle.transitions],
    }
    return {"field": field_to_json(bundle.field), "kind": "bundle", "payload": payload}


def cartan_bundle_instance_to_json(algebra: SubalgebraBundle):
    """The bundle instance of ``algebra``'s bundle, with the fibers of ``algebra``."""
    doc = bundle_instance_to_json(algebra.parent)
    doc["payload"]["cartan_bundle"] = [
        [render_matrix(m) for m in fiber.basis_matrices()] for fiber in algebra.fibers
    ]
    return doc
