"""Package records: value equality and hashing, repr, immutability."""

from fractions import Fraction

import pytest

from cartancover.bundles import BaseGraph, BundleRep, SubalgebraBundle
from cartancover.cartan import MatrixSubspace
from cartancover.covers import CoverRep, LineBundleOnCover, cover_report
from cartancover.factorization import BlockSystem
from cartancover.fields import GF, QQ
from cartancover.linalg import Matrix
from cartancover.parabolic import RamifiedCoverData
from cartancover.reports import Report


def graph(edges=((0, 1), (1, 1))):
    return BaseGraph(2, edges)


def cover(loop=(1, 0)):
    return CoverRep(graph(), 2, [(0, 1), loop])


def line_bundle(scale=Fraction(1, 2)):
    return LineBundleOnCover(cover(), QQ, [(1, scale), (2, 3)])


def algebra(field=GF(5)):
    bundle = BundleRep(field, graph(), 2, [Matrix.identity(field, 2)] * 2)
    diag = MatrixSubspace.diagonal_algebra(field, 2)
    return SubalgebraBundle(bundle, [diag, diag])


@pytest.mark.parametrize(
    "make, other",
    [
        (graph, lambda: graph(((0, 1), (0, 0)))),
        (cover, lambda: cover((0, 1))),
        (line_bundle, lambda: line_bundle(Fraction(1, 3))),
        (algebra, lambda: algebra(GF(7))),
    ],
    ids=["BaseGraph", "CoverRep", "LineBundleOnCover", "SubalgebraBundle"],
)
def test_equal_valued_records_compare_and_hash_equal(make, other):
    a, b, c = make(), make(), other()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) and len({a, b, c}) == 2
    assert a != c


def test_cover_equality_ignores_the_cached_gauge():
    a, b = cover(), cover()
    assert a.gauge is a.gauge
    assert a == b and hash(a) == hash(b)


def test_named_tuple_records_keep_their_repr_and_refuse_assignment():
    system = BlockSystem(((0, 1), (2, 3)), 4)
    assert repr(system) == "BlockSystem(blocks=((0, 1), (2, 3)), degree=4)"
    report = cover_report(cover())
    assert repr(report) == "CoverReport(component_count=1, degree_profile=(2,), split=False)"
    with pytest.raises(AttributeError):
        system.degree = 2
    with pytest.raises(AttributeError):
        report.split = True
    assert RamifiedCoverData(0, 2, (2,), ()).extra_parabolic_points == ()


def test_report_is_mutable_and_compares_by_value():
    a, b = Report("factor", {"ok": True}, ["line"], 0), Report("factor", {"ok": True}, ["line"], 0)
    assert a == b
    a.exit_code = 1
    assert a != b
    assert Report("factor", {}).human_lines == []
