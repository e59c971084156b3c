from fractions import Fraction
from itertools import permutations
from random import Random

import pytest

from cartancover.bundles import (
    BaseGraph,
    BundleRep,
    SubalgebraBundle,
    flat_sections,
    validate_bundle,
    validate_cartan_bundle,
)
from cartancover.cartan import MatrixSubspace, conjugate_subspace
from cartancover.errors import (
    DimensionMismatch,
    DisconnectedBase,
    IncompatibleEdge,
    NonSplitAtVertex,
    SingularTransition,
)
from cartancover.fields import GF, QQ
from cartancover.linalg import Matrix
from helpers import (
    bundle_iso_check,
    conjugation_operator,
    end_bundle,
    is_invertible,
    random_invertible_matrix,
    unflatten,
)


def M(rows, field=QQ):
    return Matrix(field, rows)


LOOP = BaseGraph(1, [(0, 0)])


def loop_bundle(t, field=QQ):
    return BundleRep(field, LOOP, t.nrows, [t])


# --- validation -------------------------------------------------------------


def test_validate_trivial_rank1():
    validate_bundle(loop_bundle(M([[1]])))


def test_validate_rejects_singular_transition():
    with pytest.raises(SingularTransition) as err:
        validate_bundle(loop_bundle(M([[1, 2], [2, 4]])))
    assert err.value.edge == 0


def test_validate_rejects_disconnected_base():
    graph = BaseGraph(2, [])
    with pytest.raises(DisconnectedBase):
        validate_bundle(BundleRep(QQ, graph, 1, []))


def test_validate_cartan_bundle_swap_loop():
    e = loop_bundle(M([[0, 2], [1, 0]]))
    algebra = SubalgebraBundle(e, (MatrixSubspace.diagonal_algebra(QQ, 2),))
    validate_cartan_bundle(algebra)


def test_validate_cartan_bundle_nonsplit_vertex():
    t = M([[0, 2], [1, 0]])
    e = loop_bundle(t)
    fiber = MatrixSubspace(QQ, 2, [Matrix.identity(QQ, 2), t])
    with pytest.raises(NonSplitAtVertex) as err:
        validate_cartan_bundle(SubalgebraBundle(e, (fiber,)))
    assert err.value.vertex == 0
    # the witness certifies an irreducible quadratic obstruction
    assert err.value.witness.degree == 2


def test_validate_cartan_bundle_incompatible_edge():
    e = loop_bundle(M([[1, 1], [0, 1]]))
    algebra = SubalgebraBundle(e, (MatrixSubspace.diagonal_algebra(QQ, 2),))
    with pytest.raises(IncompatibleEdge) as err:
        validate_cartan_bundle(algebra)
    assert err.value.edge == 0


def test_an_algebra_of_another_rank_never_reaches_the_cartan_check():
    # the algebra carries its bundle, so a size mismatch is refused when the
    # algebra is built, as a DimensionMismatch, not found by the edge check
    e = loop_bundle(M([[0, 2], [1, 0]]))
    with pytest.raises(DimensionMismatch):
        SubalgebraBundle(e, (MatrixSubspace.diagonal_algebra(QQ, 3),))


# --- endomorphism bundle ------------------------------------------------------


def test_end_bundle_rank_one():
    endo = end_bundle(loop_bundle(M([[5]])))
    assert endo.rank == 1
    assert endo.transitions[0] == M([[1]])


def test_end_bundle_diagonal_action():
    endo = end_bundle(loop_bundle(M([[2, 0], [0, 3]])))
    op = endo.transitions[0]
    # basis order E11, E12, E21, E22
    assert op.apply((1, 0, 0, 0)) == (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    assert op.apply((0, 1, 0, 0)) == (Fraction(0), Fraction(2, 3), Fraction(0), Fraction(0))
    assert op.apply((0, 0, 1, 0)) == (Fraction(0), Fraction(0), Fraction(3, 2), Fraction(0))


def test_end_bundle_transitions_invertible():
    rng = Random(4)
    for _ in range(10):
        t = random_invertible_matrix(rng, QQ, 3)
        endo = end_bundle(loop_bundle(t))
        assert is_invertible(endo.transitions[0])


def test_conjugation_operator_matches_direct_computation():
    rng = Random(12)
    t = random_invertible_matrix(rng, GF(5), 3)
    op = conjugation_operator(t)
    m = Matrix(GF(5), [[1, 2, 0], [0, 3, 1], [4, 0, 2]])
    moved = unflatten(GF(5), op.apply(m.flatten()), 3, 3)
    assert moved == t @ m @ t.inverse()


# --- flat sections -------------------------------------------------------------


def test_flat_sections_trivial_bundle():
    e = BundleRep(QQ, LOOP, 3, [Matrix.identity(QQ, 3)])
    space = flat_sections(e)
    assert space.dimension == 3


def test_flat_sections_loop_scalar_two_is_rigid():
    e = loop_bundle(M([[2]]))
    assert flat_sections(e).dimension == 0


def test_flat_algebra_sections_of_swap_compatible_diagonal():
    e = loop_bundle(M([[0, 2], [1, 0]]))
    algebra = SubalgebraBundle(e, (MatrixSubspace.diagonal_algebra(QQ, 2),))
    space = flat_sections(algebra)
    assert space.dimension == 1
    # the flat endomorphism is scalar: conjugation forces equal diagonal entries
    section = space.sections[0][0]
    assert section.rows[0][0] == section.rows[1][1]


def test_flat_sections_satisfy_edge_equations():
    graph = BaseGraph(2, [(0, 1), (1, 0), (0, 0)])
    rng = Random(8)
    transitions = [random_invertible_matrix(rng, QQ, 2) for _ in range(3)]
    e = BundleRep(QQ, graph, 2, transitions)
    space = flat_sections(e)
    for section in space.sections:
        for idx, (u, v) in enumerate(graph.edges):
            assert transitions[idx].apply(section[u]) == section[v]


def test_flat_sections_independent_of_spanning_tree():
    # the BFS tree takes edges in the order they are listed: the same edges
    # listed in every order, with the transitions permuted to match, give
    # the trees through either edge from vertex 0 to vertex 2, and the
    # same sections
    edges = [(0, 1), (1, 2), (2, 0), (0, 2)]
    rng = Random(21)
    gauges = [random_invertible_matrix(rng, QQ, 2) for _ in range(3)]
    perm = M([[0, 1], [1, 0]])
    # cycle 0 -> 1 -> 2 -> 0 composes to a swap, which fixes (1, 1) and,
    # among the diagonal matrices, the scalars: one section of each kind
    holonomies = [perm, perm, perm, Matrix.identity(QQ, 2)]
    transitions = [gauges[v] @ h @ gauges[u].inverse() for (u, v), h in zip(edges, holonomies)]
    diag = MatrixSubspace.diagonal_algebra(QQ, 2)
    fibers = tuple(conjugate_subspace(diag, g) for g in gauges)
    trees, vector, endo = set(), [], []
    for order in permutations(range(len(edges))):
        graph = BaseGraph(3, [edges[i] for i in order])
        bundle = BundleRep(QQ, graph, 2, [transitions[i] for i in order])
        trees.add(frozenset(order[i] for i in graph.spanning_tree().tree_edges))
        vector.append(flat_sections(bundle))
        endo.append(flat_sections(SubalgebraBundle(bundle, fibers)))
    assert trees == {frozenset({0, 2}), frozenset({0, 3})}
    assert vector[0].dimension == endo[0].dimension == 1
    assert vector == [vector[0]] * len(vector)
    assert endo == [endo[0]] * len(endo)


@pytest.mark.parametrize("field", [QQ, GF(5), GF(7)], ids=str)
def test_flat_sections_on_gauged_bundles(field):
    # non-trivial transitions on tree and cotree edges alike: the sections
    # satisfy every edge equation
    from test_root_split import gauged_bundle

    rng = Random(61 + getattr(field, "p", 0))
    for _ in range(6):
        bundle, algebra = gauged_bundle(rng, field, min_vertices=2)
        vector = flat_sections(bundle)
        for section in vector.sections:
            for t, (u, v) in zip(bundle.transitions, bundle.graph.edges):
                assert t.apply(section[u]) == section[v]
        endo = flat_sections(algebra)
        for section in endo.sections:
            for t, (u, v) in zip(bundle.transitions, bundle.graph.edges):
                assert t @ section[u] == section[v] @ t


def test_flat_sections_invert_no_matrix_once_transitions_are(monkeypatch):
    # path inverses and holonomy inverses come from the cached transition inverses
    from test_root_split import gauged_bundle

    rng = Random(62)
    cases = [gauged_bundle(rng, (QQ, GF(5), GF(7))[i], min_vertices=3) for i in range(3)]
    for bundle, _algebra in cases:
        validate_bundle(bundle)
    calls = []
    real = Matrix.inverse

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Matrix, "inverse", counting)
    for bundle, algebra in cases:
        flat_sections(bundle)
        flat_sections(algebra)
    assert calls == []


# --- isomorphism search ----------------------------------------------------------


def test_iso_check_identical_bundles():
    e = loop_bundle(M([[0, 2], [1, 0]]))
    result = bundle_iso_check(e, e)
    assert result.found and result.conclusive
    witness = result.witness[0]
    assert is_invertible(witness)
    assert witness @ e.transitions[0] == e.transitions[0] @ witness


def test_iso_check_distinct_rank_one_loops_is_conclusive_no():
    e = loop_bundle(M([[2]]))
    f = loop_bundle(M([[3]]))
    result = bundle_iso_check(e, f)
    assert not result.found
    assert result.hom_dimension == 0
    assert result.conclusive


def test_iso_check_finds_conjugated_bundle():
    t = M([[0, 2], [1, 0]])
    p = M([[0, 1], [1, 0]])
    e = loop_bundle(t)
    f = loop_bundle(p @ t @ p.inverse())
    result = bundle_iso_check(e, f)
    assert result.found
    w = result.witness[0]
    assert is_invertible(w)
    assert f.transitions[0] @ w == w @ e.transitions[0]


def test_iso_witness_intertwines_on_all_edges():
    graph = BaseGraph(2, [(0, 1), (1, 0)])
    rng = Random(31)
    ts = [random_invertible_matrix(rng, GF(7), 2) for _ in range(2)]
    e = BundleRep(GF(7), graph, 2, ts)
    g = random_invertible_matrix(rng, GF(7), 2)
    h = random_invertible_matrix(rng, GF(7), 2)
    gauged = [h @ ts[0] @ g.inverse(), g @ ts[1] @ h.inverse()]
    f = BundleRep(GF(7), graph, 2, gauged)
    result = bundle_iso_check(e, f)
    assert result.found
    for idx, (u, v) in enumerate(graph.edges):
        assert f.transitions[idx] @ result.witness[u] == result.witness[v] @ e.transitions[idx]
