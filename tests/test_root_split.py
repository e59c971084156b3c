"""Only the root fiber is split, and every fiber is certified by one check.

A valid bundle classifies no fiber: the root's split proposes its
eigenlines, and ``spans_diagonal_algebra`` certifies the root fiber on
them and every other fiber on the transported lines. The
per-vertex path this replaces (classify every fiber, then conjugate
along every edge) survives here only as the oracle the root path is
compared with, on faults away from the root and at it.
"""

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from cartancover import bundles, cartan, covers, linalg, poly
from cartancover.bundles import (
    BaseGraph,
    BundleRep,
    SubalgebraBundle,
    flat_sections,
    validate_bundle,
    validate_cartan_bundle,
)
from cartancover.cartan import (
    CartanStatus,
    MatrixSubspace,
    classify_subspace,
    conjugate_subspace,
    simultaneous_eigenlines,
)
from cartancover.cli import main
from cartancover.covers import (
    CoverRep,
    build_spectral_cover,
    canonical_algebra_map,
    cover_roundtrip,
    direct_image_line_bundle,
    roundtrip_verify,
)
from cartancover.errors import (
    CartanCoverError,
    IncompatibleEdge,
    NonSplitAtVertex,
    NotCartanAtVertex,
)
from cartancover.fields import GF, QQ
from cartancover.instances import cartan_bundle_instance_to_json, cover_instance_to_json, load_instance
from cartancover.linalg import Matrix, Subspace
from cartancover.randgen import CoverInstanceConfig, random_cover_instance
from certificates import check_error_report
from helpers import (
    eigenline_scalars,
    min_poly_by_scalars,
    random_invertible_matrix,
    random_matrix,
    random_subspace_for_cartan_test,
    refined_lines_by_intersection,
    root_scalar,
    rootless_quadratic_block,
    roots_by_enumeration,
    rref_by_scalars,
    scalar,
)

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
FIELDS = (QQ, GF(5), GF(7))


def per_vertex_validate(algebra):
    """Oracle: classify every fiber in vertex order, then check every edge."""
    bundle = algebra.parent
    validate_bundle(bundle)
    for v, fiber in enumerate(algebra.fibers):
        verdict = classify_subspace(fiber)
        if verdict.status is CartanStatus.NONSPLIT:
            raise NonSplitAtVertex(v, verdict.witness_poly)
        if verdict.status is CartanStatus.NOT_CARTAN:
            raise NotCartanAtVertex(v, str(verdict))
    for idx, (u, v) in enumerate(bundle.graph.edges):
        if conjugate_subspace(algebra.fibers[u], bundle.transitions[idx]) != algebra.fibers[v]:
            raise IncompatibleEdge(idx)


def gauged_bundle(rng, field, min_vertices=1):
    """A pushforward re-gauged by a random invertible matrix at each vertex,
    with the diagonal algebra carried along."""
    config = CoverInstanceConfig(max_vertices=6, max_edges=9, max_degree=4)
    while True:
        cover, line = random_cover_instance(rng, field, config)
        if cover.base.num_vertices >= min_vertices and cover.degree >= 2:
            break
    pushed = direct_image_line_bundle(line)
    d = cover.degree
    gauges = [random_invertible_matrix(rng, field, d) for _ in range(cover.base.num_vertices)]
    transitions = [
        gauges[v] @ t @ gauges[u].inverse()
        for t, (u, v) in zip(pushed.transitions, cover.base.edges)
    ]
    bundle = BundleRep(field, cover.base, d, transitions)
    diag = MatrixSubspace.diagonal_algebra(field, d)
    return bundle, SubalgebraBundle(bundle, [conjugate_subspace(diag, g) for g in gauges])


def error_signature(call, algebra):
    try:
        call(algebra)
    except CartanCoverError as exc:
        return (
            type(exc).__name__,
            getattr(exc, "vertex", None),
            getattr(exc, "edge", None),
            str(exc),
        )
    return None


def plant_faults(rng, bundle, algebra):
    """Replace fibers away from the root and shear transitions, at random."""
    field, d, n = bundle.field, bundle.rank, bundle.graph.num_vertices
    fibers = list(algebra.fibers)
    for v in rng.sample(range(1, n), rng.randint(0, n - 1)):
        fibers[v] = random_subspace_for_cartan_test(rng, field, d)
    transitions = list(bundle.transitions)
    shear = Matrix(field, [[int(i == j or (i, j) == (0, 1)) for j in range(d)] for i in range(d)])
    for e in rng.sample(range(len(transitions)), rng.randint(0, min(2, len(transitions)))):
        transitions[e] = transitions[e] @ shear
    faulty = BundleRep(field, bundle.graph, d, transitions)
    return faulty, SubalgebraBundle(faulty, fibers)


def test_errors_match_the_per_vertex_oracle():
    rng = Random(2024)
    seen = set()
    for i in range(90):
        bundle, algebra = plant_faults(rng, *gauged_bundle(rng, FIELDS[i % 3], min_vertices=2))
        expected = error_signature(per_vertex_validate, algebra)
        assert error_signature(validate_cartan_bundle, algebra) == expected
        assert error_signature(build_spectral_cover, algebra) == expected
        if expected is not None:
            seen.add(expected[0])
            assert expected[1] != 0  # the root fiber is never replaced
    assert seen == {"NonSplitAtVertex", "NotCartanAtVertex", "IncompatibleEdge"}


def shear_edges(bundle, algebra, edges):
    """The same fibers over a bundle whose transitions on ``edges`` are sheared."""
    field, d = bundle.field, bundle.rank
    shear = Matrix(field, [[int(i == j or (i, j) == (0, 1)) for j in range(d)] for i in range(d)])
    transitions = list(bundle.transitions)
    for e in edges:
        transitions[e] = transitions[e] @ shear
    faulty = BundleRep(field, bundle.graph, d, transitions)
    return faulty, SubalgebraBundle(faulty, algebra.fibers)


@pytest.mark.parametrize("part", ["tree", "cotree"])
def test_edge_faults_match_the_per_vertex_oracle(part):
    # a sheared tree edge spoils the transported lines (the vertex check
    # fails); a sheared cotree edge leaves them intact (the edge check fails)
    rng = Random(77 if part == "tree" else 78)
    caught = 0
    for i in range(45):
        bundle, algebra = gauged_bundle(rng, FIELDS[i % 3], min_vertices=2)
        tree = bundle.graph.spanning_tree()
        pool = sorted(tree.tree_edges) if part == "tree" else list(tree.cotree_edges)
        if not pool:
            continue
        chosen = rng.sample(pool, rng.randint(1, min(2, len(pool))))
        faulty, fibers = shear_edges(bundle, algebra, chosen)
        expected = error_signature(per_vertex_validate, fibers)
        assert error_signature(validate_cartan_bundle, fibers) == expected
        assert error_signature(build_spectral_cover, fibers) == expected
        if expected is not None:
            caught += 1
            assert expected[0] == "IncompatibleEdge" and expected[2] in chosen
    assert caught >= 20


def test_wrong_dimension_fibers_match_the_per_vertex_oracle():
    # a fiber spanned by d - 1 of its basis matrices is still diagonal in the
    # transported lines, so only the dimension check catches it
    rng = Random(79)
    for i in range(30):
        field = FIELDS[i % 3]
        bundle, algebra = gauged_bundle(rng, field, min_vertices=2)
        d, v = bundle.rank, rng.randrange(1, bundle.graph.num_vertices)
        basis = algebra.fibers[v].basis_matrices()
        if i % 2:
            fiber = MatrixSubspace(field, d, basis[:-1])
        else:
            fiber = MatrixSubspace(field, d, basis + (random_invertible_matrix(rng, field, d),))
            if fiber.dim != d + 1:
                continue
        fibers = list(algebra.fibers)
        fibers[v] = fiber
        faulty = SubalgebraBundle(bundle, fibers)
        expected = error_signature(per_vertex_validate, faulty)
        assert expected[:2] == ("NotCartanAtVertex", v)
        assert "WrongDimension" in expected[3]
        assert error_signature(validate_cartan_bundle, faulty) == expected
        assert error_signature(build_spectral_cover, faulty) == expected


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_valid_roundtrip_conjugates_no_subspace(field, monkeypatch):
    calls = []
    real_conjugate = cartan.conjugate_subspace

    def counting_conjugate(*args, **kwargs):
        calls.append("conjugate_subspace")
        return real_conjugate(*args, **kwargs)

    rng = Random(90 + getattr(field, "p", 0))
    cases = [gauged_bundle(rng, field, min_vertices=3) for _ in range(5)]
    for name, module in list(sys.modules.items()):
        if name.startswith("cartancover") and getattr(module, "conjugate_subspace", None) is real_conjugate:
            monkeypatch.setattr(module, "conjugate_subspace", counting_conjugate)
    for bundle, algebra in cases:
        record = roundtrip_verify(algebra)
        assert record.all_ok()
    assert calls == []


def test_bad_root_fiber_is_reported_at_the_root():
    # every fiber one conjugate of a non-split algebra, every edge compatible
    field = QQ
    companion = Matrix(field, [[0, 2], [1, 0]])
    nonsplit = MatrixSubspace(field, 2, [Matrix.identity(field, 2), companion])
    rng = Random(5)
    graph = BaseGraph(4, [(0, 1), (2, 1), (1, 3), (3, 3), (0, 2)])
    gauges = [random_invertible_matrix(rng, field, 2) for _ in range(graph.num_vertices)]
    bundle = BundleRep(field, graph, 2, [gauges[v] @ gauges[u].inverse() for u, v in graph.edges])
    algebra = SubalgebraBundle(bundle, [conjugate_subspace(nonsplit, g) for g in gauges])
    expected = error_signature(per_vertex_validate, algebra)
    assert expected[:2] == ("NonSplitAtVertex", 0)
    assert error_signature(build_spectral_cover, algebra) == expected


NONSQUARE = {0: 2, 5: 2, 7: 3}  # by characteristic, a c with x^2 - c rootless


def nonsplit_algebra(field, d):
    """k[x]/(x^2 - c) times k^(d-2) in gl_d: commutative and d-dimensional,
    Cartan only after adjoining a square root of c."""
    c = NONSQUARE[getattr(field, "p", 0)]

    def unit(entries):
        rows = [[0] * d for _ in range(d)]
        for i, j, x in entries:
            rows[i][j] = x
        return Matrix(field, rows)

    basis = [unit([(0, 0, 1), (1, 1, 1)]), unit([(0, 1, c), (1, 0, 1)])]
    basis += [unit([(t, t, 1)]) for t in range(2, d)]
    return MatrixSubspace(field, d, basis)


def root_fault(rng, kind, bundle, algebra):
    """The bundle with one fault at the root: its fiber replaced, or an
    edge at the root sheared."""
    field, d = bundle.field, bundle.rank
    if kind == "sheared_edge":
        at_root = [e for e, (u, v) in enumerate(bundle.graph.edges) if 0 in (u, v)]
        return shear_edges(bundle, algebra, [rng.choice(at_root)])
    basis = algebra.fibers[0].basis_matrices()
    if kind == "not_cartan":
        while True:
            root = random_subspace_for_cartan_test(rng, field, d)
            verdict = classify_subspace(root)
            if verdict.status is CartanStatus.NOT_CARTAN and root.dim == d:
                break
    elif kind == "wrong_dimension":
        root = MatrixSubspace(field, d, basis[:-1])
        if rng.random() < 0.5:
            while root.dim != d + 1:
                root = MatrixSubspace(field, d, basis + (random_invertible_matrix(rng, field, d),))
    else:
        g = random_invertible_matrix(rng, field, d)
        root = conjugate_subspace(nonsplit_algebra(field, d), g)
    return bundle, SubalgebraBundle(bundle, (root,) + algebra.fibers[1:])


@pytest.mark.parametrize("kind", ["not_cartan", "wrong_dimension", "nonsplit", "sheared_edge"])
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_root_faults_match_the_per_vertex_oracle(field, kind):
    rng = Random(f"{kind} {field}")
    expected_type = {
        "not_cartan": "NotCartanAtVertex",
        "wrong_dimension": "NotCartanAtVertex",
        "nonsplit": "NonSplitAtVertex",
        "sheared_edge": "IncompatibleEdge",
    }[kind]
    caught = 0
    for _ in range(8):
        bundle, algebra = root_fault(rng, kind, *gauged_bundle(rng, field, min_vertices=2))
        expected = error_signature(per_vertex_validate, algebra)
        assert error_signature(validate_cartan_bundle, algebra) == expected
        assert error_signature(build_spectral_cover, algebra) == expected
        if expected is not None:
            caught += 1
            assert expected[0] == expected_type
            if kind != "sheared_edge":
                assert expected[1] == 0
    assert caught >= 6


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_transported_lines_equal_per_vertex_split(field):
    rng = Random(31 + getattr(field, "p", 0))
    for _ in range(15):
        bundle, algebra = gauged_bundle(rng, field)
        result = build_spectral_cover(algebra)
        for eta, fiber in zip(result.eta, algebra.fibers):
            expected = eigenline_scalars(field, simultaneous_eigenlines(fiber))
            assert eta == Matrix.from_columns(field, expected)


def count_calls(monkeypatch, real):
    """Counts calls of the package function ``real`` from anywhere in the
    package, calls inside its own module included."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("cartancover") and getattr(module, real.__name__, None) is real:
            monkeypatch.setattr(module, real.__name__, counting)
    return calls


@pytest.fixture
def classify_calls(monkeypatch):
    """Counts calls of ``classify_subspace`` from anywhere in the package."""
    return count_calls(monkeypatch, cartan.classify_subspace)


def test_roundtrip_classifies_no_fiber(classify_calls):
    # the root split certifies itself; the classifier only names failures
    rng = Random(8)
    for i in range(6):
        bundle, algebra = gauged_bundle(rng, FIELDS[i % 3], min_vertices=3)
        del classify_calls[:]
        assert roundtrip_verify(algebra).all_ok()
        assert classify_calls == []


@pytest.mark.parametrize("name", ["cartan_diagonal_q", "cartan_nilpotent_q", "cartan_nonsplit_q"])
def test_classify_command_classifies_once(classify_calls, capsys, name):
    main(["--format", "machine", "classify", str(INSTANCES / f"{name}.json")])
    capsys.readouterr()
    assert len(classify_calls) == 1


@pytest.mark.parametrize(
    "command, name, expected",
    [
        ("classify", "cartan_diagonal_q", {"min_poly": 0, "roots_in_field": 0}),
        ("classify", "cartan_nonsplit_q", {"min_poly": 1, "roots_in_field": 1}),
        (
            "cover-build",
            "bundle_nonsplit_f_q",
            {"min_poly": 1, "roots_in_field": 1, "nonsplit_witness": 1},
        ),
    ],
)
def test_each_spectrum_is_computed_once(monkeypatch, capsys, command, name, expected):
    # the split computes each basis matrix's spectrum at most once and names
    # a failure from it; the classifier and the witness find no root again.
    # The non-split instances have the identity as their first basis matrix,
    # whose spectrum x - 1 is read off it, and every restriction of the
    # diagonal instance's units is diagonal, so it computes none
    counts = {
        fn.__name__: count_calls(monkeypatch, fn)
        for fn in (linalg.min_poly, poly.roots_in_field, poly.nonsplit_witness)
    }
    main(["--format", "machine", command, str(INSTANCES / f"{name}.json")])
    capsys.readouterr()
    assert {fn: len(counts[fn]) for fn in expected} == expected


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_split_restricts_each_matrix_to_its_block(monkeypatch, field):
    # on the diagonal algebra, E_11 splits one line off k^d and each next
    # E_tt splits one off the block left, so the spectra are taken on blocks of
    # sizes d, d - 1, ..., 2 and no subspaces are intersected; each
    # restriction is diagonal, so none of them needs a minimal polynomial
    spectra = count_calls(monkeypatch, linalg.eigenspaces)
    min_polys = count_calls(monkeypatch, linalg.min_poly)
    intersections = []
    real_intersect = linalg.Subspace.intersect

    def counting_intersect(self, other):
        intersections.append(self)
        return real_intersect(self, other)

    monkeypatch.setattr(linalg.Subspace, "intersect", counting_intersect)
    for d in range(2, 7):
        del spectra[:]
        lines = simultaneous_eigenlines(MatrixSubspace.diagonal_algebra(field, d))
        assert lines == tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
        assert [m.nrows for (m,) in spectra] == list(range(d, 1, -1))
    assert min_polys == []
    assert intersections == []


def _oracle_case(rng, field, d, kind):
    """A subspace of d x d matrices of one kind; all but the random spans
    are conjugated by a random invertible matrix three times in four."""

    def embedded(block, diagonal):
        rows = [[0] * d for _ in range(d)]
        for i, row in enumerate(block):
            rows[i][: len(row)] = row
        for t, x in diagonal:
            rows[t][t] = x
        return Matrix(field, rows)

    if kind == "random_span":
        k = rng.randint(d - 1, d + 1)
        return MatrixSubspace(field, d, [random_matrix(rng, field, d) for _ in range(k)])
    if kind == "diagonal":
        a = MatrixSubspace.diagonal_algebra(field, d)
    elif kind == "diagonal_span":
        # small entries, so that spans of fewer than d dimensions and
        # repeated eigenvalues are common
        k = rng.randint(1, d + 1)
        diagonals = [[(t, rng.randint(-2, 2)) for t in range(d)] for _ in range(k)]
        a = MatrixSubspace(field, d, [embedded([], diag) for diag in diagonals])
    else:
        block = [[0, 1], [0, 0]] if kind == "nilpotent" else rootless_quadratic_block(field)
        basis = [embedded([[1, 0], [0, 1]], []), embedded(block, [])]
        a = MatrixSubspace(field, d, basis + [embedded([], [(t, 1)]) for t in range(2, d)])
    return conjugate_subspace(a, random_invertible_matrix(rng, field, d)) if rng.random() < 0.75 else a


ORACLE_KINDS = ("diagonal", "diagonal_span", "nilpotent", "nonsplit", "random_span")


@pytest.mark.parametrize("field", (QQ, GF(2), GF(3), GF(5), GF(7), GF(1009)), ids=str)
def test_block_split_matches_the_intersection_oracle(monkeypatch, field):
    # the same lines, values and verdicts (witnesses included) as the
    # refinement that intersects every block with every eigenspace
    rng = Random(f"block split {field}")
    seen = set()
    for _ in range(8):
        for d in range(2, 7):
            for kind in ORACLE_KINDS:
                a = _oracle_case(rng, field, d, kind)
                verdict = classify_subspace(a)
                with monkeypatch.context() as patch:
                    patch.setattr(cartan, "_refined_lines", refined_lines_by_intersection)
                    assert classify_subspace(a) == verdict
                seen.add((verdict.status, verdict.reason))
    assert seen == {
        (CartanStatus.SPLIT, None),
        (CartanStatus.NONSPLIT, None),
        (CartanStatus.NOT_CARTAN, cartan.NotCartanReason.WRONG_DIMENSION),
        (CartanStatus.NOT_CARTAN, cartan.NotCartanReason.NOT_COMMUTATIVE),
        (CartanStatus.NOT_CARTAN, cartan.NotCartanReason.NOT_DIAGONALIZABLE),
    }


def test_roundtrip_pushes_forward_once(monkeypatch):
    # only the input line bundle is pushed forward, to make the algebra
    # bundle; the rebuilt one is not, and the flat-section dimension is
    # read off the cover, with no tree paths and so no holonomy
    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        covers, "direct_image_line_bundle", counting("pushforward", covers.direct_image_line_bundle)
    )
    monkeypatch.setattr(bundles, "tree_paths", counting("tree_paths", bundles.tree_paths))
    rng = Random(9)
    for i in range(6):
        bundle, algebra = gauged_bundle(rng, FIELDS[i % 3], min_vertices=3)
        del calls[:]
        assert roundtrip_verify(algebra).all_ok()
        assert calls == []
        cover, line = random_cover_instance(rng, FIELDS[i % 3])
        assert cover_roundtrip(cover, line).all_ok()
        assert calls == ["pushforward"]


@pytest.mark.parametrize("field", (QQ, GF(2), GF(3), GF(5), GF(7)), ids=str)
def test_flat_section_dim_matches_linear_algebra(field):
    # the component count the round trip reports, against the holonomy
    # linear algebra of the reference flat sections
    rng = Random(400 + getattr(field, "p", 0))
    for _ in range(40):
        bundle, algebra = gauged_bundle(rng, field)
        record = roundtrip_verify(algebra)
        assert record.flat_section_dim == flat_sections(algebra).dimension


@pytest.fixture
def fiber_checks(monkeypatch):
    """The fibers checked against lines, in order, as ``(fiber, lines)``:
    every call of ``spans_diagonal_algebra``, the one test of A = D(L),
    whether a split certifies its lines by it or a vertex its transported
    ones."""
    checks = []
    real = cartan.spans_diagonal_algebra

    def counting(fiber, lines):
        checks.append((fiber, tuple(lines)))
        return real(fiber, lines)

    for name, module in list(sys.modules.items()):
        if name.startswith("cartancover") and getattr(module, real.__name__, None) is real:
            monkeypatch.setattr(module, real.__name__, counting)
    return checks


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_spans_diagonal_algebra_is_the_only_certificate(field, fiber_checks):
    # a split certifies its lines by the check every vertex runs: one call,
    # on the fiber and the very lines it returns (a bundle with n distinct
    # fibers then makes n calls, test_valid_bundle_checks_each_fiber_once)
    rng = Random(70 + getattr(field, "p", 0))
    for d in range(1, 5):
        a = conjugate_subspace(
            MatrixSubspace.diagonal_algebra(field, d), random_invertible_matrix(rng, field, d)
        )
        del fiber_checks[:]
        lines = simultaneous_eigenlines(a)
        assert fiber_checks == [(a, lines)]


def test_a_faulty_refinement_is_refused(monkeypatch):
    # lines that are not independent are no certificate: a refinement that
    # ends in a repeated eigenline makes the split raise, not return it
    real = cartan._refined_lines

    def repeating(a, spectra):
        lines = real(a, spectra)
        return (lines[0],) * len(lines)

    monkeypatch.setattr(cartan, "_refined_lines", repeating)
    for field in FIELDS:
        for d in (2, 3):
            with pytest.raises(AssertionError, match="must split"):
                simultaneous_eigenlines(MatrixSubspace.diagonal_algebra(field, d))


def test_valid_bundle_checks_each_fiber_once(fiber_checks):
    # the root split certifies the root fiber on its own lines, so the
    # transported lines are checked at the other vertices only: one check
    # inside the split and n - 1 on n vertices; the gauges make every fiber
    # differ, so no verdict is reused
    rng = Random(12)
    for i in range(6):
        bundle, algebra = gauged_bundle(rng, FIELDS[i % 3], min_vertices=3)
        assert len(set(algebra.fibers)) == len(algebra.fibers)
        del fiber_checks[:]
        split = validate_cartan_bundle(algebra)
        root, *others = algebra.fibers
        assert fiber_checks == [(root, split.lines[0])] + list(zip(others, split.lines[1:]))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_direct_image_checks_one_fiber(field, fiber_checks):
    # every fiber of f_*L is the diagonal algebra and every transported line
    # set is the label basis, the root's pair, whose verdict the split gave
    rng = Random(13 + getattr(field, "p", 0))
    config = CoverInstanceConfig(max_vertices=6, max_edges=9, max_degree=4)
    checked = 0
    while checked < 5:
        cover, line = random_cover_instance(rng, field, config)
        if cover.base.num_vertices < 3:
            continue
        algebra = canonical_algebra_map(line)
        del fiber_checks[:]
        split = validate_cartan_bundle(algebra)
        assert fiber_checks == [(algebra.fibers[0], split.lines[0])]
        assert set(split.lines) == {split.lines[0]}
        checked += 1


def test_cover_build_of_a_pushforward_checks_one_fiber(tmp_path, capsys, fiber_checks):
    # the bundle file that pushforward writes is read back into fibers that
    # are equal in value but distinct objects; verdicts are keyed by value:
    # by the lines, then by the given matrices
    graph = BaseGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 1)])
    cover = CoverRep(graph, 3, [(1, 2, 0), (0, 1, 2), (2, 0, 1), (0, 2, 1), (1, 0, 2)])
    cover_path = tmp_path / "cover.json"
    cover_path.write_text(json.dumps(cover_instance_to_json(QQ, cover)), encoding="utf-8")
    assert main(["--format", "machine", "pushforward", str(cover_path)]) == 0
    bundle = json.loads(capsys.readouterr().out)["bundle"]
    bundle_path = tmp_path / "bundle.json"
    bundle_path.write_text(json.dumps(bundle), encoding="utf-8")
    instance = load_instance(str(bundle_path))
    fibers = instance.algebra.fibers
    assert len(set(fibers)) == 1 and len(set(map(id, fibers))) == 4
    del fiber_checks[:]
    assert main(["--format", "machine", "cover-build", str(bundle_path)]) == 0
    checks = fiber_checks[:]
    split = validate_cartan_bundle(instance.algebra)
    assert checks == [(fibers[0], split.lines[0])]
    # and the vertices, all with the label lines, share one eta
    eta = build_spectral_cover(instance.algebra).eta
    assert all(m is eta[0] for m in eta)


def _identity_bundle(field, d, n):
    """The trivial rank-d bundle on an n-cycle."""
    graph = BaseGraph(n, [(v, (v + 1) % n) for v in range(n)])
    return BundleRep(field, graph, d, [Matrix.identity(field, d)] * n)


def test_equal_non_cartan_fibers_fail_at_the_first():
    # the first of two equal fibers (distinct objects) that are not Cartan
    # raises, as in the per-vertex oracle, whether or not a diagonal fiber
    # lies between them
    field = QQ
    bundle = _identity_bundle(field, 2, 4)
    diag = MatrixSubspace.diagonal_algebra(field, 2)
    basis = [Matrix.identity(field, 2), Matrix(field, [[0, 1], [0, 0]])]
    first, second = MatrixSubspace(field, 2, basis), MatrixSubspace(field, 2, basis)
    for fibers, at in (([diag, first, diag, second], 1), ([diag, diag, first, second], 2)):
        algebra = SubalgebraBundle(bundle, fibers)
        expected = error_signature(per_vertex_validate, algebra)
        assert expected[:2] == ("NotCartanAtVertex", at)
        assert error_signature(validate_cartan_bundle, algebra) == expected
        assert error_signature(build_spectral_cover, algebra) == expected


def test_a_failed_verdict_is_reused(fiber_checks):
    # three equal split Cartan fibers off the transported lines: the first
    # fails the diagonal check and is split on its own, the other two reuse
    # its verdict and its lines, and the first edge, which no longer
    # permutes lines, raises
    field = QQ
    bundle = _identity_bundle(field, 2, 4)
    diag = MatrixSubspace.diagonal_algebra(field, 2)
    other = conjugate_subspace(diag, Matrix(field, [[1, 1], [0, 1]]))
    algebra = SubalgebraBundle(bundle, [diag, other, other, other])
    expected = error_signature(per_vertex_validate, algebra)
    assert expected[:3] == ("IncompatibleEdge", None, 0)
    del fiber_checks[:]
    assert error_signature(validate_cartan_bundle, algebra) == expected
    # the root inside its split, then vertex 1 on the root's lines, and
    # vertex 1 again inside its own split, on its own eigenlines
    checks = fiber_checks[:]
    units, own = simultaneous_eigenlines(diag), simultaneous_eigenlines(other)
    assert own != units
    assert checks == [(diag, units), (other, units), (other, own)]


SINGULAR_PLACES = ("tree_forward", "tree_backward", "cotree")
SINGULAR_KINDS = ("kills_a_line", "rank_d_minus_1", "merges_two_lines")


def _edges_at(bundle, place):
    """The edges of one place: tree edges the transport crosses along or
    against their orientation, or the cotree edges."""
    tree = bundle.graph.spanning_tree()
    if place == "cotree":
        return list(tree.cotree_edges)
    return sorted(e for _v, e, forward in tree.order[1:] if forward == (place == "tree_forward"))


def _singular_transition(bundle, algebra, e, kind):
    """T_e made singular on the lines L_u over its source u: one line sent
    to zero; (d >= 3) the last line sent onto the sum of the images of the
    first two, so rank d - 1 with the images of the lines pairwise
    distinct; or the last line sent onto the image of the first."""
    field, d = bundle.field, bundle.rank
    u = bundle.graph.edges[e][0]
    basis = Matrix.from_columns(
        field, eigenline_scalars(field, simultaneous_eigenlines(algebra.fibers[u]))
    )
    k = [[int(i == j) for j in range(d)] for i in range(d)]
    if kind == "kills_a_line":
        k[0][0] = 0
    elif kind == "rank_d_minus_1":
        k[d - 1][d - 1] = 0
        k[0][d - 1] = k[1][d - 1] = 1
    else:
        k[d - 1][d - 1] = 0
        k[0][d - 1] = 1
    return bundle.transitions[e] @ basis @ Matrix(field, k) @ basis.inverse()


def _not_cartan_fiber(rng, field, d):
    while True:
        fiber = random_subspace_for_cartan_test(rng, field, d)
        if classify_subspace(fiber).status is CartanStatus.NOT_CARTAN:
            return fiber


def _cover_build_report(tmp_path, capsys, algebra):
    """The exit code and machine report of ``cover-build`` on the algebra
    and its bundle, and the instance it read."""
    instance = cartan_bundle_instance_to_json(algebra)
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(instance), encoding="utf-8")
    code = main(["--format", "machine", "cover-build", str(path)])
    return code, json.loads(capsys.readouterr().out), instance


def planted_singular_cases(place, kind, count):
    """``count`` bundles with one singular transition at ``place``: alone,
    with an incompatible edge of lower index, or with a fiber that is not
    Cartan, in turn. Yields the bundle, the algebra, the singular edge,
    the companion fault, and the bundle with that fault alone."""
    rng = Random(f"singular {place} {kind}")
    made = 0
    while made < count:
        field = FIELDS[made % 3]
        bundle, algebra = gauged_bundle(rng, field, min_vertices=2)
        d, n = bundle.rank, bundle.graph.num_vertices
        companion = ("alone", "incompatible_edge", "not_cartan")[made % 3]
        pool = _edges_at(bundle, place)
        if companion == "incompatible_edge":
            pool = [e for e in pool if e > 0]
        if not pool or (kind == "rank_d_minus_1" and d < 3):
            continue
        e = rng.choice(pool)
        singular = _singular_transition(bundle, algebra, e, kind)
        if companion == "incompatible_edge":
            bundle, algebra = shear_edges(bundle, algebra, [rng.randrange(e)])
        elif companion == "not_cartan":
            fibers = list(algebra.fibers)
            fibers[rng.randrange(n)] = _not_cartan_fiber(rng, field, d)
            algebra = SubalgebraBundle(bundle, fibers)
        transitions = list(bundle.transitions)
        transitions[e] = singular
        faulty = BundleRep(field, bundle.graph, d, transitions)
        made += 1
        yield faulty, SubalgebraBundle(faulty, algebra.fibers), e, companion, (bundle, algebra)


@pytest.mark.parametrize("kind", SINGULAR_KINDS)
@pytest.mark.parametrize("place", SINGULAR_PLACES)
def test_singular_transitions_match_the_per_vertex_oracle(tmp_path, capsys, place, kind):
    # a singular transition is reported at its edge with exit 2, before an
    # incompatible edge of lower index or a fiber that is not Cartan,
    # wherever the transport meets it: as a line sent to zero or two lines
    # sent onto one, an inverse that does not exist, or an edge check that
    # finds a line sent off the lines, to zero, or onto the image of another
    companions = set()
    for _bundle, algebra, e, companion, _rest in planted_singular_cases(place, kind, 12):
        expected = error_signature(per_vertex_validate, algebra)
        assert expected[:3] == ("SingularTransition", None, e)
        assert error_signature(validate_cartan_bundle, algebra) == expected
        assert error_signature(build_spectral_cover, algebra) == expected
        code, report, instance = _cover_build_report(tmp_path, capsys, algebra)
        assert code == 2
        assert (report["error"]["type"], report["error"]["edge"]) == ("SingularTransition", e)
        assert check_error_report(instance, report) == []
        companions.add(companion)
    assert companions == {"alone", "incompatible_edge", "not_cartan"}


def test_incompatible_edge_reports_are_certified(tmp_path, capsys):
    # the planted incompatible edges alone, once the singular transition
    # is taken out: the report names the first edge that fails
    named = 0
    for place in SINGULAR_PLACES:
        cases = planted_singular_cases(place, "kills_a_line", 6)
        for _bundle, _algebra, _e, companion, (bundle, algebra) in cases:
            if companion != "incompatible_edge":
                continue
            expected = error_signature(per_vertex_validate, algebra)
            assert error_signature(validate_cartan_bundle, algebra) == expected
            code, report, instance = _cover_build_report(tmp_path, capsys, algebra)
            if expected is None:
                assert code == 0
                continue
            assert code == 1
            assert (report["error"]["type"], report["error"]["edge"]) == (expected[0], expected[2])
            assert check_error_report(instance, report) == []
            named += 1
            moved = copy.deepcopy(report)
            moved["error"]["edge"] = (report["error"]["edge"] + 1) % len(bundle.transitions)
            assert check_error_report(instance, moved) != []
    assert named >= 3


def test_dependent_generators_are_ranked_not_counted():
    # d given matrices diagonal in the transported lines, one of them
    # repeated, span d - 1 dimensions: WrongDimension at the vertex; d + 1
    # given matrices that span the diagonal algebra pass
    rng = Random(80)
    for i in range(24):
        field = FIELDS[i % 3]
        bundle, algebra = gauged_bundle(rng, field, min_vertices=2)
        d, v = bundle.rank, rng.randrange(1, bundle.graph.num_vertices)
        given = algebra.fibers[v].basis_matrices()
        fibers = list(algebra.fibers)
        fibers[v] = MatrixSubspace(field, d, given[:-1] + given[:1])
        faulty = SubalgebraBundle(bundle, fibers)
        expected = error_signature(per_vertex_validate, faulty)
        assert expected[:2] == ("NotCartanAtVertex", v)
        assert "WrongDimension" in expected[3]
        assert error_signature(validate_cartan_bundle, faulty) == expected
        assert error_signature(build_spectral_cover, faulty) == expected
        fibers[v] = MatrixSubspace(field, d, given + (given[0] + given[-1],))
        spanning = SubalgebraBundle(bundle, fibers)
        assert error_signature(per_vertex_validate, spanning) is None
        assert validate_cartan_bundle(spanning) == validate_cartan_bundle(algebra)


def test_valid_bundle_inverts_only_the_tree_edges_crossed_backwards(monkeypatch):
    # the transport inverts the tree edges it crosses against their
    # orientation, each once and in its order; the checks invert nothing
    inverted = []
    real_inverse = Matrix.inverse

    def counting(self):
        inverted.append(self)
        return real_inverse(self)

    rng = Random(14)
    spared = 0
    for i in range(9):
        bundle, algebra = gauged_bundle(rng, FIELDS[i % 3], min_vertices=3)
        tree = bundle.graph.spanning_tree()
        backward = [bundle.transitions[e] for _v, e, forward in tree.order[1:] if not forward]
        with monkeypatch.context() as patch:
            patch.setattr(Matrix, "inverse", counting)
            del inverted[:]
            validate_cartan_bundle(algebra)
        assert inverted == backward
        spared += len(bundle.transitions) - len(backward)
    assert spared > 0


def test_cover_build_of_a_gauged_bundle_builds_the_root_form_only(tmp_path, capsys, monkeypatch):
    # fibers keep their given matrices; only the root split builds a
    # canonical form, a span in k^(d^2)
    spans = []
    real_spanned = linalg.Subspace._spanned.__func__

    def counting(cls, field, ambient, rows):
        spans.append(ambient)
        return real_spanned(cls, field, ambient, rows)

    rng = Random(15)
    for i in range(6):
        bundle, algebra = gauged_bundle(rng, FIELDS[i % 3], min_vertices=3)
        d = bundle.rank
        instance = cartan_bundle_instance_to_json(algebra)
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(instance), encoding="utf-8")
        with monkeypatch.context() as patch:
            patch.setattr(linalg.Subspace, "_spanned", classmethod(counting))
            del spans[:]
            assert main(["--format", "machine", "cover-build", str(path)]) == 0
        capsys.readouterr()
        assert spans.count(d * d) == 1


def _is_scalar(m):
    c = m.ints[0][0]
    return all(x == (c if i == j else 0) for i, r in enumerate(m.ints) for j, x in enumerate(r))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_a_scalar_basis_matrix_costs_no_min_poly(field, monkeypatch):
    # the identity is the first canonical basis matrix of most gauged
    # fibers; its spectrum is read off it, and no scalar restriction
    # reaches min_poly
    min_polys = count_calls(monkeypatch, linalg.min_poly)
    rng = Random(16 + getattr(field, "p", 0))
    seen = 0
    while seen < 12:
        d = 2 + seen % 3
        g = random_invertible_matrix(rng, field, d)
        a = conjugate_subspace(MatrixSubspace.diagonal_algebra(field, d), g)
        if a.basis_matrices()[0] != Matrix.identity(field, d):
            continue
        del min_polys[:]
        simultaneous_eigenlines(a)
        assert [m for (m,) in min_polys if _is_scalar(m)] == []
        if d == 2:
            assert len(min_polys) == 1
        seen += 1


def _null_space_by_scalars(field, rows, d):
    """The null space of the rows from their RREF on field scalars: for
    each free column, its unit vector minus that column at the pivots."""
    reduced, pivots = rref_by_scalars(field, rows, d)
    vectors = []
    for fc in sorted(set(range(d)).difference(pivots)):
        v = [scalar(field, 0)] * d
        v[fc] = field.one()
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc]
        vectors.append(v)
    return Subspace(field, d, vectors)


@pytest.mark.parametrize("field", (QQ, GF(2), GF(5), GF(1009)), ids=str)
def test_scalar_spectrum_is_the_computed_one(field, monkeypatch):
    # eigenspaces reads a diagonal matrix, c I among them, on its face and
    # returns what its general path computes: the minimal polynomial, its
    # roots and, for each root lam, the null space of m - lam I; here each
    # from the scalar oracles
    min_polys = count_calls(monkeypatch, linalg.min_poly)
    root_searches = count_calls(monkeypatch, poly.roots_in_field)
    rng = Random(f"diagonal spectrum {field}")
    fractions = () if field.characteristic else (Fraction(-3, 4), Fraction(7, 2))
    values = [scalar(field, c) for c in (0, 1, -1, 3, 1010, *fractions)]
    distinct = set()
    for d in range(1, 6):
        diagonals = [[c] * d for c in values]
        diagonals += [[rng.choice(values) for _ in range(d)] for _ in range(8)]
        for diagonal in diagonals:
            rows = [[c if i == j else 0 for j in range(d)] for i, c in enumerate(diagonal)]
            m = Matrix(field, rows)
            mp = min_poly_by_scalars(m)
            roots, split = roots_by_enumeration(mp)
            assert split and all(mult == 1 for _num, _den, mult in roots)
            spaces = []
            for num, den, _mult in roots:
                lam = root_scalar(field, num, den)
                shifted = [
                    [x - (lam if i == j else scalar(field, 0)) for j, x in enumerate(r)]
                    for i, r in enumerate(m.rows)
                ]
                spaces.append(((num, den), _null_space_by_scalars(field, shifted, d)))
            assert linalg.eigenspaces(m) == (mp, roots, tuple(spaces))
            distinct.add(len(roots))
    assert min_polys == [] and root_searches == []
    assert distinct == set(range(1, min(len(set(values)), 5) + 1))
    for d in range(2, 5):
        # a shear is not diagonal, so its spectrum is computed; the last
        # unit is diagonal and read on its face
        shear = [[int(i == j or (i, j) == (0, 1)) for j in range(d)] for i in range(d)]
        unit = [[int(i == j == d - 1) for j in range(d)] for i in range(d)]
        for rows in (shear, unit):
            m = Matrix(field, rows)
            assert linalg.eigenspaces(m)[0] == min_poly_by_scalars(m)
    assert len(min_polys) == len(root_searches) == 3


def test_a_direct_image_of_degree_64_splits_with_no_min_poly(monkeypatch):
    # the root fiber of f_*L is the diagonal algebra in the label basis: its
    # split restricts E_11, ..., E_(d-1)(d-1) to blocks of sizes d, ..., 2,
    # each diagonal, so it takes d - 1 spectra and computes no minimal
    # polynomial and no root. The blocks are coordinate subspaces and the
    # lines unit lines, so no restriction, lift or line image multiplies
    # matrices, and the monomial transitions invert with no product either
    field = GF(1009)
    spectra = count_calls(monkeypatch, linalg.eigenspaces)
    min_polys = count_calls(monkeypatch, linalg.min_poly)
    root_searches = count_calls(monkeypatch, poly.roots_in_field)
    products = count_calls(monkeypatch, linalg._product)
    for d in (64, 128):
        rng = Random(d)
        base = BaseGraph(2, [(0, 1), (1, 0)])
        cover = CoverRep(base, d, [rng.sample(range(d), d) for _ in base.edges])
        scalars = [[rng.randint(1, 1008) for _ in range(d)] for _ in base.edges]
        spectra.clear()
        record = cover_roundtrip(cover, covers.LineBundleOnCover(cover, field, scalars))
        assert record.all_ok()
        assert [m.nrows for (m,) in spectra] == list(range(d, 1, -1))
        assert min_polys == [] and root_searches == [] and products == []
