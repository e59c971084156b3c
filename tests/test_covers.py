import json
from fractions import Fraction
from itertools import permutations, product
from random import Random

import pytest

from cartancover import covers
from cartancover.bundles import BaseGraph, BundleRep, SubalgebraBundle, flat_sections
from cartancover.cartan import CartanStatus, MatrixSubspace, classify_subspace
from cartancover.covers import (
    CoverRep,
    LineBundleOnCover,
    build_spectral_cover,
    canonical_algebra_map,
    cover_isomorphisms,
    cover_report,
    cover_roundtrip,
    direct_image_line_bundle,
    line_bundles_gauge_equivalent,
    roundtrip_verify,
    tree_gauge,
    trivial_line_bundle,
)
from cartancover.cli import run
from cartancover.errors import (
    DimensionMismatch,
    DisconnectedBase,
    EtaNotMonomial,
    NonSplitAtVertex,
)
from cartancover.fields import GF, QQ
from cartancover.linalg import Matrix
from cartancover.randgen import random_cover_instance, random_permutation
from certificates import _orbit_sizes
from helpers import count_calls, pullback_scalars, roundtrip_witness_holds

LOOP = BaseGraph(1, [(0, 0)])


def M(rows, field=QQ):
    return Matrix(field, rows)


# --- direct image -------------------------------------------------------------


def test_direct_image_degree_one_echoes_line_bundle():
    cover = CoverRep(LOOP, 1, [(0,)])
    line = LineBundleOnCover(cover, QQ, [(Fraction(5),)])
    bundle = direct_image_line_bundle(line)
    assert bundle.transitions[0] == M([[5]])


@pytest.mark.parametrize(
    "scalars",
    [
        Matrix(QQ, [[2, 3], [5, 7]]),
        Matrix(QQ, [[2, 3, 5]]),
        Matrix(GF(7), [[2, 3]]),
        [[2, 3, 5]],
        [[2, 3], [5]],
    ],
    ids=["two-rows", "three-labels", "other-field", "rows-three-labels", "rows-ragged"],
)
def test_line_bundle_refuses_scalars_of_another_shape_or_field(scalars):
    cover = CoverRep(LOOP, 2, [(1, 0)])
    with pytest.raises(DimensionMismatch):
        LineBundleOnCover(cover, QQ, scalars)


def test_direct_image_disconnected_double_cover_is_diagonal():
    cover = CoverRep(LOOP, 2, [(0, 1)])
    line = LineBundleOnCover(cover, QQ, [(2, 3)])
    bundle = direct_image_line_bundle(line)
    assert bundle.transitions[0] == M([[2, 0], [0, 3]])


def test_direct_image_connected_double_cover_swaps():
    cover = CoverRep(LOOP, 2, [(1, 0)])
    line = LineBundleOnCover(cover, QQ, [(Fraction(1), Fraction(2))])
    bundle = direct_image_line_bundle(line)
    assert bundle.transitions[0] == M([[0, 2], [1, 0]])


def test_direct_image_transitions_are_monomial():
    rng = Random(17)
    cover, line = random_cover_instance(rng, GF(5))
    bundle = direct_image_line_bundle(line)
    for t in bundle.transitions:
        for row in t.rows:
            assert sum(1 for x in row if x != 0) == 1
        for col in zip(*t.rows):
            assert sum(1 for x in col if x != 0) == 1


# --- canonical algebra ----------------------------------------------------------


def test_canonical_algebra_is_diagonal_and_compatible():
    cover = CoverRep(LOOP, 2, [(1, 0)])
    line = LineBundleOnCover(cover, QQ, [(1, 2)])
    algebra = canonical_algebra_map(line)
    assert algebra.fibers[0] == MatrixSubspace.diagonal_algebra(QQ, 2)
    from cartancover.bundles import validate_cartan_bundle

    validate_cartan_bundle(algebra)


def test_canonical_algebra_three_cycle():
    cover = CoverRep(LOOP, 3, [(1, 2, 0)])
    algebra = canonical_algebra_map(trivial_line_bundle(cover, QQ))
    from cartancover.bundles import validate_cartan_bundle

    validate_cartan_bundle(algebra)


# --- spectral cover reconstruction -----------------------------------------------


def test_build_trivial_rank2():
    e = BundleRep(QQ, LOOP, 2, [Matrix.identity(QQ, 2)])
    algebra = SubalgebraBundle(e, (MatrixSubspace.diagonal_algebra(QQ, 2),))
    result = build_spectral_cover(algebra)
    assert result.cover.sigma == ((0, 1),)
    assert result.line_bundle.scalars.rows == ((Fraction(1), Fraction(1)),)
    assert result.eta[0] == Matrix.identity(QQ, 2)
    assert cover_report(result.cover).component_count == 2


def test_build_swap_loop():
    e = BundleRep(QQ, LOOP, 2, [M([[0, 2], [1, 0]])])
    algebra = SubalgebraBundle(e, (MatrixSubspace.diagonal_algebra(QQ, 2),))
    result = build_spectral_cover(algebra)
    assert result.cover.sigma == ((1, 0),)
    assert result.line_bundle.scalars.rows == ((Fraction(1), Fraction(2)),)
    assert result.eta[0] == Matrix.identity(QQ, 2)


def test_build_split_diagonal_57():
    e = BundleRep(QQ, LOOP, 2, [M([[5, 0], [0, 7]])])
    algebra = SubalgebraBundle(e, (MatrixSubspace.diagonal_algebra(QQ, 2),))
    result = build_spectral_cover(algebra)
    assert result.cover.sigma == ((0, 1),)
    assert result.line_bundle.scalars.rows == ((Fraction(5), Fraction(7)),)
    report = cover_report(result.cover)
    assert report.component_count == 2 and report.split


def test_build_rejects_nonsplit_fiber():
    t = M([[0, 2], [1, 0]])
    e = BundleRep(QQ, LOOP, 2, [t])
    fiber = MatrixSubspace(QQ, 2, [Matrix.identity(QQ, 2), t])
    with pytest.raises(NonSplitAtVertex):
        build_spectral_cover(SubalgebraBundle(e, (fiber,)))


# --- cover reports ----------------------------------------------------------------


def test_cover_report_identity_splits():
    cover = CoverRep(LOOP, 3, [(0, 1, 2)])
    report = cover_report(cover)
    assert report.component_count == 3 and report.split
    assert report.degree_profile == (1, 1, 1)


def test_cover_report_transposition():
    cover = CoverRep(LOOP, 2, [(1, 0)])
    report = cover_report(cover)
    assert report.component_count == 1 and not report.split


def test_cover_report_mixed_cycle_type():
    cover = CoverRep(LOOP, 4, [(1, 0, 2, 3)])
    report = cover_report(cover)
    assert report.component_count == 3
    assert report.degree_profile == (2, 1, 1)
    assert not report.split


def test_cover_report_matches_the_orbit_oracle():
    # seeded covers of random graphs, connected or not, with loops and
    # parallel edges: the count and profile are those of the union-find
    # oracle's orbits, and a disconnected base is refused
    rng = Random(36)
    disconnected = 0
    for _ in range(2000):
        n = rng.randint(1, 5)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 7))]
        d = rng.randint(1, 7)
        sigma = [random_permutation(rng, d) for _ in edges]
        cover = CoverRep(BaseGraph(n, edges), d, sigma)
        if len(_orbit_sizes(n, edges, [(0,)] * len(edges), 1)) > 1:
            disconnected += 1
            with pytest.raises(DisconnectedBase, match="^base graph is not connected$"):
                cover_report(cover)
            continue
        sizes = _orbit_sizes(n, edges, sigma, d)
        profile = tuple(sorted((size // n for size in sizes), reverse=True))
        assert cover_report(cover) == (len(sizes), profile, len(sizes) == d)
    assert 500 < disconnected < 1500


# --- round trips --------------------------------------------------------------------


def test_roundtrip_swap_loop_counts():
    e = BundleRep(QQ, LOOP, 2, [M([[0, 2], [1, 0]])])
    algebra = SubalgebraBundle(e, (MatrixSubspace.diagonal_algebra(QQ, 2),))
    rec = roundtrip_verify(algebra)
    assert rec.all_ok()
    assert rec.component_count == 1 and rec.flat_section_dim == 1


def test_roundtrip_trivial_rank3_counts():
    e = BundleRep(QQ, LOOP, 3, [Matrix.identity(QQ, 3)])
    algebra = SubalgebraBundle(e, (MatrixSubspace.diagonal_algebra(QQ, 3),))
    rec = roundtrip_verify(algebra)
    assert rec.all_ok()
    assert rec.component_count == 3 and rec.flat_section_dim == 3


def test_cover_roundtrip_random_instances():
    # the isomorphism read off eta, against the search over all bijections
    # and the holonomy comparison (degree at most 6)
    rng = Random(271828)
    fields = (QQ, GF(5), GF(7))
    for i in range(300):
        cover, line = random_cover_instance(rng, fields[i % 3])
        rec = cover_roundtrip(cover, line)
        assert rec.all_ok(), f"failed at iteration {i}"
        assert roundtrip_witness_holds(cover, line, rec), f"failed at iteration {i}"


def test_valid_cover_roundtrip_searches_no_isomorphism(monkeypatch):
    searches = count_calls(monkeypatch, covers.cover_isomorphisms)
    comparisons = count_calls(monkeypatch, covers.line_bundles_gauge_equivalent)
    rng = Random(61)
    fields = (QQ, GF(5), GF(7))
    for i in range(12):
        cover, line = random_cover_instance(rng, fields[i % 3])
        assert cover_roundtrip(cover, line).all_ok()
    assert searches == comparisons == []


def _break_eta(monkeypatch, vertex, rows_of, at_call=None):
    """Make ``build_spectral_cover`` return eta[vertex] replaced by
    ``rows_of(eta[vertex])``, in every call or only in call ``at_call``
    (counted from 0)."""
    real = covers.build_spectral_cover
    calls = []

    def broken(algebra):
        result = real(algebra)
        calls.append(None)
        if at_call is not None and len(calls) != at_call + 1:
            return result
        eta = list(result.eta)
        eta[vertex] = Matrix(algebra.parent.field, rows_of(eta[vertex]))
        return result._replace(eta=tuple(eta))

    monkeypatch.setattr(covers, "build_spectral_cover", broken)


def _relabeled(result, pis):
    """The same reconstruction with label t over vertex v renamed pis[v][t]."""
    cover, line = result.cover, result.line_bundle
    rows = line.scalars.rows
    sigma, scalars = [], []
    for e, (u, v) in enumerate(cover.base.edges):
        s, c = [None] * cover.degree, [None] * cover.degree
        for t in range(cover.degree):
            s[pis[u][t]] = pis[v][cover.sigma[e][t]]
            c[pis[u][t]] = rows[e][t]
        sigma.append(tuple(s))
        scalars.append(tuple(c))
    new_cover = CoverRep(cover.base, cover.degree, sigma)
    eta = []
    for v, m in enumerate(result.eta):
        columns = [None] * cover.degree
        for t, column in enumerate(zip(*m.rows)):
            columns[pis[v][t]] = column
        eta.append(Matrix.from_columns(line.field, columns))
    return result._replace(
        cover=new_cover,
        line_bundle=LineBundleOnCover(new_cover, line.field, scalars),
        eta=tuple(eta),
    )


def test_cover_roundtrip_reads_a_relabeled_reconstruction(monkeypatch):
    # canonical line order puts label t on basis vector t, so the isomorphism
    # read off eta is the identity; renamed labels must be read back as such
    rng = Random(77)
    fields = (QQ, GF(5), GF(7))
    real = covers.build_spectral_cover
    for i in range(30):
        cover, line = random_cover_instance(rng, fields[i % 3])
        d = cover.degree
        pis = tuple(tuple(rng.sample(range(d), d)) for _ in range(cover.base.num_vertices))

        def relabeling(algebra):
            result = _relabeled(real(algebra), pis)
            pushed = direct_image_line_bundle(result.line_bundle)
            bundle = algebra.parent
            for e, (u, v) in enumerate(bundle.graph.edges):
                assert result.eta[v] @ pushed.transitions[e] == bundle.transitions[e] @ result.eta[u]
            return result

        monkeypatch.setattr(covers, "build_spectral_cover", relabeling)
        rec = cover_roundtrip(cover, line)
        assert rec.isomorphism == pis
        assert roundtrip_witness_holds(cover, line, rec), f"failed at iteration {i}"


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 1, 0], [0, 1, 0], [0, 0, 1]],  # two nonzero entries in column 1
        [[1, 1, 0], [0, 0, 0], [0, 0, 1]],  # columns 0 and 1 in one row
        [[0, 1, 0], [0, 0, 0], [0, 0, 1]],  # column 0 is zero
    ],
)
def test_non_monomial_eta_raises_with_its_vertex(monkeypatch, rows):
    base = BaseGraph(3, [(0, 1), (1, 2), (2, 2)])
    cover = CoverRep(base, 3, [(1, 2, 0), (0, 1, 2), (2, 0, 1)])
    _break_eta(monkeypatch, 1, lambda _eta: rows)
    with pytest.raises(EtaNotMonomial) as excinfo:
        cover_roundtrip(cover, trivial_line_bundle(cover, QQ))
    assert excinfo.value.vertex == 1


def _zero_first_column(eta):
    return [(0,) + tuple(r[1:]) for r in eta.rows]


def test_cover_roundtrip_refuses_a_line_bundle_on_another_cover():
    # the one call that takes a line bundle with a cover checks they agree
    cover = CoverRep(LOOP, 2, [(1, 0)])
    other = CoverRep(LOOP, 2, [(0, 1)])
    with pytest.raises(DimensionMismatch, match="different cover"):
        cover_roundtrip(cover, trivial_line_bundle(other, QQ))


def test_non_monomial_eta_in_selftest_reports_its_vertex(monkeypatch):
    # zero the first column of eta at the root: a failed check, exit 1, in
    # instance 0 of the default seed 1
    _break_eta(monkeypatch, 0, _zero_first_column)
    report, _fmt = run(["selftest", "--count", "1"])
    error = json.loads(report.to_machine_text())["error"]
    assert (report.exit_code, error["type"], error["vertex"]) == (1, "EtaNotMonomial", 0)
    assert (error["seed"], error["index"]) == (1, 0)


def test_selftest_error_names_the_instance_that_raised(monkeypatch):
    # break the third round trip only: the report names seed 7 and index 2,
    # and the same flags with --count index + 1 end at the same error
    _break_eta(monkeypatch, 0, _zero_first_column, at_call=2)
    report, _fmt = run(["--format", "machine", "selftest", "--seed", "7", "--count", "6"])
    error = json.loads(report.to_machine_text())["error"]
    assert (report.exit_code, error["type"], error["seed"], error["index"]) == (
        1,
        "EtaNotMonomial",
        7,
        2,
    )
    monkeypatch.undo()
    _break_eta(monkeypatch, 0, _zero_first_column, at_call=2)
    again, _fmt = run(["--format", "machine", "selftest", "--seed", "7", "--count", "3"])
    assert again.to_machine_text() == report.to_machine_text()


def test_unit_scalars_reconstruct_unit_holonomy():
    # structure-sheaf pushforward: rebuilt line bundle is trivial on cycles
    rng = Random(5)
    cover, _ = random_cover_instance(rng, QQ)
    line = trivial_line_bundle(cover, QQ)
    rec = cover_roundtrip(cover, line)
    assert rec.all_ok()


# --- cover isomorphism and holonomy machinery ------------------------------------


def test_cover_isomorphisms_find_relabeling():
    base = BaseGraph(2, [(0, 1), (1, 0)])
    c1 = CoverRep(base, 3, [(0, 1, 2), (1, 2, 0)])
    relabel = (2, 0, 1)
    sigma2 = []
    for e, (u, v) in enumerate(base.edges):
        s = c1.sigma[e]
        sigma2.append(tuple(relabel[s[_invert(relabel)[t]]] for t in range(3)))
    c2 = CoverRep(base, 3, tuple(sigma2))
    isos = list(cover_isomorphisms(c1, c2))
    assert isos
    for maps in isos:
        for e, (u, v) in enumerate(base.edges):
            for t in range(3):
                assert maps[v][c1.sigma[e][t]] == c2.sigma[e][maps[u][t]]


def _invert(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def test_no_isomorphism_between_different_monodromy():
    c1 = CoverRep(LOOP, 2, [(1, 0)])
    c2 = CoverRep(LOOP, 2, [(0, 1)])
    assert list(cover_isomorphisms(c1, c2)) == []


def test_gauge_equivalence_detects_cycle_holonomy():
    cover = CoverRep(LOOP, 2, [(1, 0)])
    a = LineBundleOnCover(cover, QQ, [(1, 2)])
    b = LineBundleOnCover(cover, QQ, [(2, 1)])  # same cycle product 2
    c = LineBundleOnCover(cover, QQ, [(1, 3)])  # cycle product 3
    assert line_bundles_gauge_equivalent(a, b)
    assert not line_bundles_gauge_equivalent(a, c)


def test_tree_gauge_makes_tree_edges_identities():
    rng = Random(23)
    cover, _ = random_cover_instance(rng, QQ)
    gauge = tree_gauge(cover)
    for e in gauge.tree.tree_edges:
        assert gauge.sigma[e] == tuple(range(cover.degree))


def test_pullback_scalars_through_identity_iso():
    cover = CoverRep(LOOP, 2, [(1, 0)])
    line = LineBundleOnCover(cover, QQ, [(1, 2)])
    ident_maps = ((0, 1),)
    assert pullback_scalars(ident_maps, cover, line).scalars == line.scalars


# --- splitting criterion against brute force ---------------------------------------


def brute_force_diagonalizable_by_relabeling(cover):
    """Try every tuple of per-vertex relabelings to make all transitions diagonal."""
    bundle = direct_image_line_bundle(trivial_line_bundle(cover, QQ))
    d = cover.degree
    perms = [Matrix(QQ, [[1 if c == p[r] else 0 for c in range(d)] for r in range(d)])
             for p in permutations(range(d))]
    for combo in product(range(len(perms)), repeat=cover.base.num_vertices):
        ok = True
        for e, (u, v) in enumerate(cover.base.edges):
            conj = perms[combo[v]] @ bundle.transitions[e] @ perms[combo[u]].inverse()
            if any(x != 0 for i, r in enumerate(conj.rows) for j, x in enumerate(r) if i != j):
                ok = False
                break
        if ok:
            return True
    return False


def test_split_flag_matches_relabeling_brute_force_small():
    for d in (1, 2, 3):
        for s1 in permutations(range(d)):
            for s2 in permutations(range(d)):
                cover = CoverRep(BaseGraph(1, [(0, 0), (0, 0)]), d, [s1, s2])
                assert cover_report(cover).split == brute_force_diagonalizable_by_relabeling(
                    cover
                )


# --- regression: one bundle carrying split and non-split maximal structures --------


@pytest.mark.parametrize("p,s", [(7, 3), (5, 2), (11, 2)])
def test_nonsquare_swap_loop_two_structures(p, s):
    field = GF(p)
    squares = {(x * x) % p for x in range(1, p)}
    assert s % p not in squares
    t = Matrix(field, [[0, s], [1, 0]])
    e = BundleRep(field, LOOP, 2, [t])

    diagonal = SubalgebraBundle(e, (MatrixSubspace.diagonal_algebra(field, 2),))
    rec = roundtrip_verify(diagonal)
    assert rec.all_ok()
    assert rec.component_count == 1 and rec.flat_section_dim == 1

    twisted = MatrixSubspace(field, 2, [Matrix.identity(field, 2), t])
    verdict = classify_subspace(twisted)
    assert verdict.status is CartanStatus.NONSPLIT
    # still conjugation-compatible along the loop
    from cartancover.cartan import conjugate_subspace

    assert conjugate_subspace(twisted, t) == twisted
    with pytest.raises(NonSplitAtVertex):
        roundtrip_verify(SubalgebraBundle(e, (twisted,)))
