from itertools import combinations
from pathlib import Path
from random import Random

import pytest

from cartancover import cli, covers, factorization, linalg
from cartancover.bundles import BaseGraph
from cartancover.covers import (
    CoverRep,
    cover_isomorphisms,
    direct_image_line_bundle,
    trivial_line_bundle,
)
from cartancover.errors import DegreeTooLarge, NotABlockSystem
from cartancover.factorization import (
    BlockSystem,
    block_systems,
    intermediate_cover,
    is_block_system,
    monodromy_generators,
    normalize_partition,
    summand_embedding_check,
)
from cartancover.fields import GF, QQ
from cartancover.instances import CoverInstance, load_instance
from cartancover.linalg import Matrix, Subspace
from cartancover.randgen import (
    CoverInstanceConfig,
    random_base_graph,
    random_cover_instance,
    random_permutation,
)
from helpers import composite_consistent, indicator_embedding_flat, scalar

INSTANCES = Path(__file__).resolve().parent.parent / "instances"

LOOP = BaseGraph(1, [(0, 0)])
LOOP2 = BaseGraph(1, [(0, 0), (0, 0)])


# --- independent oracle ---------------------------------------------------------
#
# A partition of the root fiber spans, at each vertex, the subspace of vectors
# constant on its transported blocks inside the structure-sheaf pushforward.
# The partition corresponds to an intermediate cover exactly when every edge
# matrix maps that span onto the next one. This route is pure linear algebra
# on the pushforward bundle and never looks at permutation block structure.


def _all_equal_partitions(d, size):
    def extend(remaining):
        if not remaining:
            yield []
            return
        first = min(remaining)
        rest = sorted(remaining - {first})
        for combo in combinations(rest, size - 1):
            block = (first, *combo)
            for tail in extend(remaining - set(block)):
                yield [block] + tail

    yield from extend(frozenset(range(d)))


def _indicator_span(field, d, blocks):
    one, zero = field.one(), scalar(field, 0)
    vecs = [
        tuple(one if t in block else zero for t in range(d)) for block in blocks
    ]
    return Subspace(field, d, vecs)


def _image_span(matrix, space):
    return Subspace(matrix.field, matrix.nrows, [matrix.apply(v) for v in space.basis])


def count_flat_summand_partitions(cover, field):
    """Brute force: proper equal-size partitions whose indicator spans form a
    transition-invariant family of the structure-sheaf pushforward."""
    bundle = direct_image_line_bundle(trivial_line_bundle(cover, field))
    tree = cover.base.spanning_tree()
    d = cover.degree
    count = 0
    for size in range(2, d):
        if d % size != 0:
            continue
        for partition in _all_equal_partitions(d, size):
            spans = [None] * cover.base.num_vertices
            for vertex, via, forward in tree.order:
                if via is None:
                    spans[vertex] = _indicator_span(field, d, partition)
                    continue
                u, v = cover.base.edges[via]
                if forward:
                    spans[v] = _image_span(bundle.transitions[via], spans[u])
                else:
                    spans[u] = _image_span(bundle.transition_inverse(via), spans[v])
            if all(
                _image_span(bundle.transitions[e], spans[u]) == spans[v]
                for e, (u, v) in enumerate(cover.base.edges)
            ):
                count += 1
    return count


# --- monodromy -------------------------------------------------------------------


def test_monodromy_of_trivial_cover():
    base = BaseGraph(2, [(0, 1)])
    cover = CoverRep(base, 3, [(0, 1, 2)])
    mono = monodromy_generators(cover)
    assert mono.generators == ()
    assert mono.tree_edge_indices == (0,)


def test_monodromy_single_loop():
    cover = CoverRep(LOOP, 4, [(1, 2, 3, 0)])
    mono = monodromy_generators(cover)
    assert mono.generators == ((0, (1, 2, 3, 0)),)


def test_monodromy_two_vertex_gauge():
    base = BaseGraph(2, [(0, 1), (0, 1)])
    cover = CoverRep(base, 2, [(0, 1), (1, 0)])
    mono = monodromy_generators(cover)
    assert mono.tree_edge_indices == (0,)
    assert mono.generators == ((1, (1, 0)),)


def test_monodromy_gauge_absorbs_tree_twist():
    # twisting the tree edge relocates the holonomy without changing it
    base = BaseGraph(2, [(0, 1), (0, 1)])
    cover = CoverRep(base, 2, [(1, 0), (0, 1)])
    mono = monodromy_generators(cover)
    assert mono.generators == ((1, (1, 0)),)


# --- block systems -----------------------------------------------------------------


def test_block_systems_of_4_cycle():
    cover = CoverRep(LOOP, 4, [(1, 2, 3, 0)])
    catalog = block_systems(monodromy_generators(cover))
    assert [s.blocks for s in catalog.proper] == [((0, 2), (1, 3))]
    assert [s.blocks for s in catalog.trivial] == [
        ((0,), (1,), (2,), (3,)),
        ((0, 1, 2, 3),),
    ]


def test_block_systems_two_transpositions():
    cover = CoverRep(LOOP2, 4, [(1, 0, 2, 3), (0, 1, 3, 2)])
    catalog = block_systems(monodromy_generators(cover))
    blocks = [s.blocks for s in catalog.proper]
    assert ((0, 1), (2, 3)) in blocks


def test_block_systems_identity_monodromy_d2():
    cover = CoverRep(LOOP, 2, [(0, 1)])
    catalog = block_systems(monodromy_generators(cover))
    assert catalog.proper == ()
    assert len(catalog.trivial) == 2


def test_block_systems_degree_bound():
    cover = CoverRep(LOOP, 13, [tuple(range(13))])
    with pytest.raises(DegreeTooLarge):
        block_systems(monodromy_generators(cover))


def test_two_transitive_action_has_no_proper_systems():
    # (0 1) and (0 1 2) generate S_3, which is primitive
    cover = CoverRep(LOOP2, 3, [(1, 0, 2), (1, 2, 0)])
    catalog = block_systems(monodromy_generators(cover))
    assert catalog.proper == ()


# --- intermediate covers --------------------------------------------------------------


def test_intermediate_cover_of_4_cycle():
    cover = CoverRep(LOOP, 4, [(1, 2, 3, 0)])
    system = normalize_partition([(0, 2), (1, 3)], 4)
    quotient = intermediate_cover(cover, system)
    assert quotient.degree == 2
    assert quotient.sigma == ((1, 0),)
    assert composite_consistent(cover, system, quotient)


def test_intermediate_cover_by_singletons_is_the_cover():
    cover = CoverRep(LOOP, 3, [(1, 2, 0)])
    system = normalize_partition([(0,), (1,), (2,)], 3)
    quotient = intermediate_cover(cover, system)
    assert quotient.degree == 3
    assert list(cover_isomorphisms(cover, quotient))
    assert composite_consistent(cover, system, quotient)


def test_intermediate_cover_by_one_block_is_the_base():
    cover = CoverRep(LOOP, 3, [(1, 2, 0)])
    system = normalize_partition([(0, 1, 2)], 3)
    quotient = intermediate_cover(cover, system)
    assert quotient.degree == 1
    assert composite_consistent(cover, system, quotient)


def test_intermediate_covers_are_consistent_by_construction():
    # the oracle on every proper system of seeded covers up to degree 8,
    # with few cotree edges so that most covers have proper systems
    rng = Random(4242)
    config = CoverInstanceConfig(max_vertices=4, max_edges=4, max_degree=8)
    checked = 0
    for i in range(200):
        cover, _line = random_cover_instance(rng, QQ, config)
        for system in block_systems(monodromy_generators(cover)).proper:
            quotient = intermediate_cover(cover, system)
            assert composite_consistent(cover, system, quotient), (i, system)
            checked += 1
    assert checked > 1000


def test_non_block_partition_rejected():
    cover = CoverRep(LOOP, 4, [(1, 2, 3, 0)])
    bad = normalize_partition([(0, 1), (2, 3)], 4)
    assert not is_block_system(monodromy_generators(cover).generators, bad)
    assert not indicator_embedding_flat(cover, bad, QQ)
    with pytest.raises(NotABlockSystem):
        intermediate_cover(cover, bad)
    with pytest.raises(NotABlockSystem):
        summand_embedding_check(cover, bad, QQ)


def test_degree_multiplicativity():
    cover = CoverRep(LOOP, 4, [(1, 2, 3, 0)])
    catalog = block_systems(monodromy_generators(cover))
    for system in catalog.proper:
        assert intermediate_cover(cover, system).degree * system.block_size == cover.degree


# --- summand checks -------------------------------------------------------------------


def test_summand_check_singleton_system_trivially_passes():
    cover = CoverRep(LOOP, 3, [(1, 2, 0)])
    system = normalize_partition([(0,), (1,), (2,)], 3)
    report = summand_embedding_check(cover, system, QQ)
    assert report.ok and report.average_retraction_agrees


def test_summand_check_4_cycle_block_system():
    cover = CoverRep(LOOP, 4, [(1, 2, 3, 0)])
    system = normalize_partition([(0, 2), (1, 3)], 4)
    report = summand_embedding_check(cover, system, QQ)
    assert report.ok
    assert report.retraction_identity and indicator_embedding_flat(cover, system, QQ)
    assert report.average_retraction_agrees


def test_summand_check_over_prime_field_skips_average_when_p_divides_block():
    cover = CoverRep(LOOP, 4, [(1, 2, 3, 0)])
    system = normalize_partition([(0, 2), (1, 3)], 4)
    report = summand_embedding_check(cover, system, GF(2))
    assert report.ok
    assert report.average_retraction_agrees is None
    report5 = summand_embedding_check(cover, system, GF(5))
    assert report5.ok and report5.average_retraction_agrees


# --- the bijection, against the linear-algebra oracle -----------------------------------


def test_bijection_on_4_cycle():
    cover = CoverRep(LOOP, 4, [(1, 2, 3, 0)])
    catalog = block_systems(monodromy_generators(cover))
    assert len(catalog.proper) == 1
    assert count_flat_summand_partitions(cover, QQ) == 1


def test_bijection_random_covers():
    rng = Random(1234)
    fields = (QQ, GF(5))
    for i in range(25):
        cover, _line = random_cover_instance(rng, fields[i % 2])
        if cover.degree > 6:
            continue
        catalog = block_systems(monodromy_generators(cover))
        count = count_flat_summand_partitions(cover, fields[i % 2])
        assert len(catalog.proper) == count
        for system in catalog.proper:
            report = summand_embedding_check(cover, system, fields[i % 2])
            assert report.ok


def test_nested_block_systems_compose():
    # monodromy (0 1 2 3 4 5 6 7): block systems of sizes 2 and 4 are nested
    cover = CoverRep(LOOP, 8, [(1, 2, 3, 4, 5, 6, 7, 0)])
    catalog = block_systems(monodromy_generators(cover))
    by_size = {s.block_size: s for s in catalog.proper}
    fine, coarse = by_size[2], by_size[4]
    fine_quotient = intermediate_cover(cover, fine)
    # the coarse system induces a partition of the fine quotient's fiber
    fine_block_of = fine.block_of()
    induced = {}
    for coarse_block in coarse.blocks:
        key = tuple(sorted({fine_block_of[x] for x in coarse_block}))
        induced[key] = True
    induced_system = normalize_partition(list(induced.keys()), fine_quotient.degree)
    mono_fine = monodromy_generators(fine_quotient)
    assert is_block_system(mono_fine.generators, induced_system)
    composed = intermediate_cover(fine_quotient, induced_system)
    direct = intermediate_cover(cover, coarse)
    assert list(cover_isomorphisms(composed, direct))


# --- the compression square as one product ---------------------------------------------


def square_commutes_oracle(p, include, num_vertices):
    """Oracle: the compression square tested vertex by vertex, basis vector by basis vector."""
    field = include.field
    m = include.ncols
    zero, one = scalar(field, 0), field.one()

    def diag(vec):
        n = len(vec)
        return Matrix(field, [[vec[i] if i == j else zero for j in range(n)] for i in range(n)])

    for _vertex in range(num_vertices):
        for j in range(m):
            basis_vec = tuple(one if i == j else zero for i in range(m))
            compressed = p @ diag(include.apply(basis_vec)) @ include
            if compressed != diag(basis_vec):
                return False
    return True


def _random_block_system(rng, d):
    b = rng.choice([k for k in range(1, d + 1) if d % k == 0])
    labels = list(range(d))
    rng.shuffle(labels)
    return normalize_partition([labels[i : i + b] for i in range(0, d, b)], d)


def _random_compression(rng, field, system, retraction):
    """A random m x d matrix; made to satisfy p . i = I when ``retraction`` is set."""
    m, d = system.num_blocks, system.degree
    rows = [[scalar(field, rng.randint(-2, 2)) for _ in range(d)] for _ in range(m)]
    if retraction:
        for i in range(m):
            for j, block in enumerate(system.blocks):
                rest = sum((rows[i][t] for t in block[1:]), scalar(field, 0))
                rows[i][block[0]] = (field.one() if i == j else scalar(field, 0)) - rest
    return Matrix(field, rows)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(7)], ids=str)
def test_compression_square_is_one_product(field):
    rng = Random(f"square-{field}")
    verdicts = []
    for _ in range(60):
        d = rng.randint(1, 6)
        system = _random_block_system(rng, d)
        one, zero = field.one(), scalar(field, 0)
        include = Matrix(
            field,
            [[one if t in block else zero for block in system.blocks] for t in range(d)],
        )
        p = _random_compression(rng, field, system, rng.random() < 0.5)
        new = p @ include == Matrix.identity(field, system.num_blocks)
        assert new == square_commutes_oracle(p, include, rng.randint(1, 3))
        verdicts.append(new)
    assert True in verdicts and False in verdicts


# --- the block system is the flatness of the indicator embedding ------------------------


def _planted_cover(rng, config):
    """A random cover whose every edge permutes the blocks of one random partition."""
    base = random_base_graph(rng, config.max_vertices, config.max_edges)
    d = rng.choice([k for k in range(4, config.max_degree + 1) if k % 2 == 0])
    b = rng.choice([k for k in range(2, d) if d % k == 0])
    labels = list(range(d))
    rng.shuffle(labels)
    blocks = [labels[i : i + b] for i in range(0, d, b)]
    sigma = []
    for _edge in base.edges:
        image = [None] * d
        for j, k in enumerate(random_permutation(rng, len(blocks))):
            target = blocks[k][:]
            rng.shuffle(target)
            for x, y in zip(blocks[j], target):
                image[x] = y
        sigma.append(tuple(image))
    return CoverRep(base, d, tuple(sigma))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)], ids=str)
def test_indicator_embedding_is_flat_exactly_on_block_systems(field):
    rng = Random(f"flat-{field}")
    config = CoverInstanceConfig(max_vertices=4, max_edges=6, max_degree=8)
    verdicts = []
    for i in range(24):
        if i % 2:
            cover, _line = random_cover_instance(rng, field, config)
        else:
            cover = _planted_cover(rng, config)
        mono = monodromy_generators(cover)
        catalog = block_systems(mono)
        for system in catalog.proper + catalog.trivial:
            quotient = intermediate_cover(cover, system)
            assert indicator_embedding_flat(cover, system, field, quotient)
        partitions = [_random_block_system(rng, cover.degree) for _ in range(4)]
        for system in partitions + list(catalog.proper[:2]):
            flat = indicator_embedding_flat(cover, system, field)
            assert flat == is_block_system(mono.generators, system)
            verdicts.append(flat)
    assert True in verdicts and False in verdicts


# --- work done per check --------------------------------------------------------------


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counts ``linalg.solve`` calls and matrix products."""
    calls = {"solve": 0, "matmul": 0}
    real_solve, real_matmul = linalg.solve, Matrix.__matmul__

    def solve(*args, **kwargs):
        calls["solve"] += 1
        return real_solve(*args, **kwargs)

    def matmul(self, other):
        calls["matmul"] += 1
        return real_matmul(self, other)

    monkeypatch.setattr(linalg, "solve", solve)
    monkeypatch.setattr(Matrix, "__matmul__", matmul)
    return calls


def test_summand_check_work_on_the_4_cycle_instance(linalg_calls, monkeypatch):
    # one product per retraction, and no pushforward: the block system is
    # the flatness of the embedding
    pushforwards = []
    real = covers.direct_image_line_bundle

    def counting(*args, **kwargs):
        pushforwards.append(args)
        return real(*args, **kwargs)

    for module in (covers, factorization):
        if hasattr(module, "direct_image_line_bundle"):
            monkeypatch.setattr(module, "direct_image_line_bundle", counting)
    cover = load_instance(str(INSTANCES / "cover_c4_loop_q.json")).cover
    (system,) = block_systems(monodromy_generators(cover)).proper
    linalg_calls.update(solve=0, matmul=0)
    assert summand_embedding_check(cover, system, QQ).ok
    assert linalg_calls["solve"] == 0
    assert linalg_calls["matmul"] == 2
    assert pushforwards == []


def test_factor_builds_each_intermediate_cover_once(monkeypatch):
    calls = []
    real = factorization.intermediate_cover

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(factorization, "intermediate_cover", counting)
    monkeypatch.setattr(cli, "intermediate_cover", counting)
    cover = CoverRep(LOOP, 8, [(1, 2, 3, 4, 5, 6, 7, 0)])
    instance = CoverInstance(QQ, cover, None)
    report = cli.cmd_factor(instance, 12)
    assert report.exit_code == 0
    assert len(calls) == report.machine["proper_count"] == 2


def test_factor_gauges_its_cover_once(monkeypatch):
    # the monodromy, every quotient and every summand check read one gauge
    calls = []
    real = BaseGraph.spanning_tree

    def counting(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(BaseGraph, "spanning_tree", counting)
    cover = CoverRep(LOOP, 8, [(1, 2, 3, 4, 5, 6, 7, 0)])
    report = cli.cmd_factor(CoverInstance(QQ, cover, None), 12)
    assert report.exit_code == 0
    assert report.machine["proper_count"] == 2
    assert len(calls) == 1
