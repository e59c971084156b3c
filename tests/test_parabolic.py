import tracemalloc
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartancover import instances, parabolic
from cartancover.cli import main
from cartancover.errors import (
    DimensionMismatch,
    NegativeGenus,
    NonIntegralGenus,
    ParseError,
)
from cartancover.parabolic import (
    BranchPoint,
    RamifiedCoverData,
    RamifiedSheet,
    check_pardeg_conservation,
    degree_direct_image,
    local_flags,
    merge_fiber_filtration,
    parabolic_degree,
    parse_weight,
    pushforward_parabolic,
    riemann_hurwitz_genus,
)
from cartancover.randgen import random_ramified_cover_data
from helpers import count_calls, tameness_check, total_dimension

F = Fraction


def simple_data(g_x, degree, profiles_per_point, weights_per_point=None, components=None):
    components = components or (degree,)
    points = []
    for i, profiles in enumerate(profiles_per_point):
        weights = (
            weights_per_point[i] if weights_per_point else [F(0)] * len(profiles)
        )
        points.append(
            BranchPoint(
                tuple(RamifiedSheet(b, w, 0) for b, w in zip(profiles, weights))
            )
        )
    return RamifiedCoverData(g_x, degree, components, tuple(points))


P1_DOUBLE = simple_data(0, 2, [(2,), (2,)])


# --- weights ----------------------------------------------------------------


def test_parse_weight_forms():
    assert parse_weight("1/2") == F(1, 2)
    assert parse_weight(0) == 0
    assert parse_weight("2/6") == F(1, 3)
    assert parse_weight(" +3/4 ") == F(3, 4)
    assert parse_weight("-0") == 0
    with pytest.raises(ParseError):
        parse_weight("3/2")
    with pytest.raises(ParseError, match="outside"):
        parse_weight("-1/2")
    with pytest.raises(ParseError):
        parse_weight(1)
    with pytest.raises(ParseError):
        parse_weight(0.5)


@pytest.mark.parametrize("text", ["1_0/12", "-1/-2", "1/ 2", "1 /2"])
def test_string_weights_follow_the_rational_grammar_of_matrix_entries(text):
    # a weight string is read like a matrix entry over Q: "a" or "a/b", with
    # only the whole string padded; int() on each side would take "1_0" or "-2"
    with pytest.raises(ParseError):
        parse_weight(text)


# --- local flags --------------------------------------------------------------


# a flag is the tuple of its step weights: step l, the span of e_l .. e_(b-1),
# has level l and dimension b - l


def test_local_flags_unramified_sheet():
    assert local_flags(1, F(0)) == (F(0),)


def test_local_flags_double_sheet():
    assert local_flags(2, F(0)) == (F(0), F(1, 2))


def test_local_flags_weighted_double_sheet():
    assert local_flags(2, F(1, 2)) == (F(1, 4), F(3, 4))


def test_local_flags_weighted_triple_sheet():
    assert local_flags(3, F(1, 2)) == (F(1, 6), F(1, 2), F(5, 6))


def test_local_flags_invariants_exhaustive():
    weights = sorted(
        {F(a, b) for b in range(1, 13) for a in range(b)} | {F(0)}
    )
    for b in range(1, 13):
        for lam in weights:
            ws = local_flags(b, lam)
            assert len(ws) == b
            assert all(F(0) <= w < 1 for w in ws)
            assert all(ws[i] < ws[i + 1] for i in range(b - 1))
            assert ws == tuple((l + lam) / b for l in range(b))


def test_local_flags_of_a_high_multiplicity_sheet_stay_linear():
    # a flag of b steps once stored b - l indices at step l, O(b^2) for one
    # sheet: 172 MB under tracemalloc at b = 3001; a flag is now its b weights
    b = 3001
    data = RamifiedCoverData(1, b, (b,), (BranchPoint((RamifiedSheet(b, F(1, 2), 0),)),))
    tracemalloc.start()
    try:
        report = check_pardeg_conservation(data, 0)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak
    assert report.equal and report.genus.per_component == (1501,)
    (point,) = report.pushforward.points
    assert total_dimension(point.filtration) == b
    flag = local_flags(b, F(1, 2))
    assert len(flag) == b and flag[b - 3] == (b - 3 + F(1, 2)) / b


# --- merging -------------------------------------------------------------------


def test_merge_two_unramified_zero_weights():
    filt = merge_fiber_filtration((), [F(0), F(0)], 2)
    assert filt.jumps == ((F(0), 2),)


def test_merge_single_double_sheet():
    filt = merge_fiber_filtration([local_flags(2, F(0))], (), 2)
    assert filt.jumps == ((F(1, 2), 1), (F(0), 1))


def test_merge_two_double_sheets_distinct_weights():
    filt = merge_fiber_filtration(
        [local_flags(2, F(0)), local_flags(2, F(1, 2))], (), 4
    )
    assert filt.jumps == ((F(3, 4), 1), (F(1, 2), 1), (F(1, 4), 1), (F(0), 1))


def test_merge_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        merge_fiber_filtration([local_flags(2, F(0))], (), 3)


def test_merge_is_permutation_invariant():
    rng = Random(6)
    for _ in range(20):
        flags = [
            local_flags(rng.randint(1, 4), F(rng.randrange(4), 4) / 2)
            for _ in range(rng.randint(1, 4))
        ]
        extra = [F(rng.randrange(3), 3) for _ in range(rng.randint(0, 3))]
        d = sum(len(f) for f in flags) + len(extra)
        reference = merge_fiber_filtration(flags, extra, d)
        shuffled = flags[:]
        rng.shuffle(shuffled)
        extra_shuffled = extra[:]
        rng.shuffle(extra_shuffled)
        assert merge_fiber_filtration(shuffled, extra_shuffled, d) == reference
        assert total_dimension(reference) == d


# --- genus and degree -------------------------------------------------------------


def test_genus_unramified_double_cover_of_elliptic_base():
    data = simple_data(1, 2, [])
    assert riemann_hurwitz_genus(data).per_component == (1,)


def test_genus_p1_double_cover_two_branch_points():
    assert riemann_hurwitz_genus(P1_DOUBLE).per_component == (0,)


def test_genus_parity_failure():
    data = simple_data(0, 2, [(2,)])
    with pytest.raises(NonIntegralGenus):
        riemann_hurwitz_genus(data)


@pytest.mark.parametrize("entry", (riemann_hurwitz_genus, check_pardeg_conservation))
def test_odd_ramification_is_refused_by_validation(entry):
    # validation proves every component's ramification even, so the genus
    # and the degree need no parity check of their own; odd ramification,
    # on either component, still raises validation's message
    args = () if entry is riemann_hurwitz_genus else (0,)
    second = BranchPoint((RamifiedSheet(1, F(0), 0),) * 2 + (RamifiedSheet(2, F(0), 1),))
    cases = (
        (simple_data(0, 2, [(2,)]), 0),
        (simple_data(0, 3, [(2, 1), (1, 1, 1)]), 0),
        (RamifiedCoverData(0, 4, (2, 2), (second,)), 1),
    )
    for data, j in cases:
        with pytest.raises(NonIntegralGenus, match=f"^component {j} has odd total ramification$"):
            entry(data, *args)


@pytest.mark.parametrize("entry", (riemann_hurwitz_genus, check_pardeg_conservation))
def test_non_integer_multiplicities_are_refused(entry):
    # sheets (2.5, 1.5) sum to the degree 4 and ramify by 2.0, an even
    # total, so only an integer check refuses them
    args = () if entry is riemann_hurwitz_genus else (0,)
    point = BranchPoint((RamifiedSheet(2.5, F(0), 0), RamifiedSheet(1.5, F(0), 0)))
    data = RamifiedCoverData(0, 4, (4,), (point, point))
    with pytest.raises(ParseError, match="^sheet multiplicity 2.5 is not an integer$"):
        entry(data, *args)


def _one_sheet(**fields):
    """P1_DOUBLE with its sheets' fields replaced."""
    point = BranchPoint((RamifiedSheet(2, F(0), 0)._replace(**fields),))
    return P1_DOUBLE._replace(branch_points=(point, point))


def _two_sheets(first, second, components=(2,)):
    """Degree-2 data with one branch point of the two sheets given."""
    point = BranchPoint((RamifiedSheet(*first), RamifiedSheet(*second)))
    return RamifiedCoverData(0, 2, components, (point,))


NOT_INTEGERS = (
    ("base genus", "0", P1_DOUBLE._replace(base_genus="0")),
    ("base genus", 0.5, P1_DOUBLE._replace(base_genus=0.5)),
    ("degree", "2", P1_DOUBLE._replace(degree="2")),
    ("degree", True, RamifiedCoverData(0, True, (1,), ())),
    ("component degree", "2", P1_DOUBLE._replace(component_degrees=("2",))),
    ("component degree", True, RamifiedCoverData(0, 1, (True,), ())),
    ("sheet multiplicity", "2", _one_sheet(multiplicity="2")),
    ("sheet multiplicity", True, _two_sheets((True, F(0), 0), (True, F(0), 0))),
    ("sheet component", "0", _one_sheet(component="0")),
    ("sheet component", True, _two_sheets((1, F(0), 0), (1, F(0), True), (1, 1))),
)


@pytest.mark.parametrize(
    "name, value, data",
    [
        pytest.param(name, value, data, id=f"{name.replace(' ', '_')}-{type(value).__name__}")
        for name, value, data in NOT_INTEGERS
    ],
)
def test_integer_fields_that_are_not_integers_are_refused(name, value, data):
    # a string once raised a raw TypeError, a base genus of 0.5 gave a
    # genus of 0.0, and a bool passed as 0 or 1
    with pytest.raises(ParseError, match=f"^{name} {value!r} is not an integer$"):
        riemann_hurwitz_genus(data)


@pytest.mark.parametrize("multiplicity", (2.5, 2.0, F(2), 0, True))
def test_local_flags_refuse_a_non_integer_multiplicity(multiplicity):
    # 2.5 was once truncated to a flag of two steps
    with pytest.raises(DimensionMismatch, match="is not a positive integer$"):
        local_flags(multiplicity, F(0))


def test_genus_rejects_impossible_cover():
    # a connected unramified double cover of genus zero cannot exist
    data = simple_data(0, 2, [])
    with pytest.raises(NegativeGenus):
        riemann_hurwitz_genus(data)


def test_degree_trivial_cover():
    data = simple_data(1, 1, [])
    assert degree_direct_image(data, 5) == 5


def test_degree_worked_p1_example():
    assert degree_direct_image(P1_DOUBLE, 0) == -1


def test_degree_unramified_double_cover_genus_one():
    data = simple_data(1, 2, [])
    assert degree_direct_image(data, 0) == 0


def test_degree_disconnected_cover():
    # two disjoint copies of the base: chi doubles, no ramification
    data = RamifiedCoverData(1, 2, (1, 1), ())
    assert riemann_hurwitz_genus(data).per_component == (1, 1)
    assert degree_direct_image(data, 3) == 3


def test_degree_is_the_euler_characteristic_route():
    # the pushforward degree L - R/2 equals L + sum_j (1 - g_j) - d (1 - g_X),
    # by Riemann-Hurwitz, on every validated input
    cases = [(P1_DOUBLE, 0)] + [random_ramified_cover_data(Random(seed)) for seed in range(500)]
    for data, line_degree in cases:
        report = check_pardeg_conservation(data, line_degree)
        chi = sum(1 - g for g in report.genus.per_component)
        euler = line_degree + chi - data.degree * (1 - data.base_genus)
        assert report.pushforward.degree == euler, (data, line_degree)


# --- pushforward ---------------------------------------------------------------------


def test_pushforward_trivial_cover_echoes_line_bundle():
    data = simple_data(1, 1, [])
    result = pushforward_parabolic(data, 7)
    assert result.degree == 7 and result.rank == 1
    assert result.points == ()


def test_pushforward_worked_p1_example():
    result = pushforward_parabolic(P1_DOUBLE, 0)
    assert result.degree == -1
    assert [p.filtration.jumps for p in result.points] == [
        ((F(1, 2), 1), (F(0), 1)),
        ((F(1, 2), 1), (F(0), 1)),
    ]
    assert parabolic_degree(result) == 0


def test_pushforward_with_weighted_sheet():
    data = simple_data(0, 2, [(2,), (2,)], [[F(1, 2)], [F(0)]])
    result = pushforward_parabolic(data, 0)
    assert result.points[0].filtration.jumps == ((F(3, 4), 1), (F(1, 4), 1))
    assert parabolic_degree(result) == F(1, 2)


def test_pushforward_omits_weightless_unramified_points():
    data = RamifiedCoverData(1, 2, (2,), (), ((F(0), F(0)), (F(1, 3), F(0))))
    result = pushforward_parabolic(data, 0)
    assert [p.label for p in result.points] == ["u1"]
    assert result.points[0].filtration.jumps == ((F(1, 3), 1), (F(0), 1))


def test_parabolic_degree_parabolic_free():
    data = simple_data(1, 1, [])
    assert parabolic_degree(pushforward_parabolic(data, 3)) == 3


def test_parabolic_degree_single_point_sums_to_zero():
    from cartancover.parabolic import ParabolicBundleData, ParabolicPoint, WeightedFiltration

    bundle = ParabolicBundleData(
        -1,
        2,
        (ParabolicPoint("b0", WeightedFiltration(((F(3, 4), 1), (F(1, 4), 1)))),),
    )
    assert parabolic_degree(bundle) == 0


# --- conservation ----------------------------------------------------------------------


def test_conservation_unramified_weightless():
    data = simple_data(1, 2, [])
    report = check_pardeg_conservation(data, 4)
    assert report.upstairs == report.downstairs == 4


def test_conservation_worked_p1_example():
    report = check_pardeg_conservation(P1_DOUBLE, 0)
    assert report.upstairs == report.downstairs == 0


def test_conservation_randomized():
    rng = Random(31415)
    for _ in range(60):
        data, line_degree = random_ramified_cover_data(rng)
        report = check_pardeg_conservation(data, line_degree)
        assert report.equal, (data, line_degree)


@settings(max_examples=40)
@given(
    st.integers(min_value=1, max_value=5),
    st.fractions(min_value=0, max_value=F(11, 12), max_denominator=12),
    st.integers(min_value=-3, max_value=3),
)
def test_conservation_single_component_single_point(b, lam, line_degree):
    # one branch point of full multiplicity, padded to even parity
    profiles = (b, b) if b > 1 else (1,)
    data = simple_data(0, sum(profiles), [profiles], [[lam] * len(profiles)])
    try:
        riemann_hurwitz_genus(data)
    except (NonIntegralGenus, NegativeGenus):
        return
    report = check_pardeg_conservation(data, line_degree)
    assert report.equal


def test_each_entry_validates_its_data_once(monkeypatch, capsys):
    # a public entry validates once and runs its helpers on validated data;
    # the pushforward command builds one pushforward (one local flag per sheet)
    validations = count_calls(monkeypatch, RamifiedCoverData, "validate")
    flags = count_calls(monkeypatch, parabolic.local_flags)
    data = simple_data(
        1, 4, [(2, 1, 1), (2, 1, 1), (2, 2)], [[F(1, 3), F(0), F(1, 2)], [F(0)] * 3, [F(0), F(1, 4)]]
    )
    for entry, args in [
        (riemann_hurwitz_genus, (data,)),
        (degree_direct_image, (data, 1)),
        (pushforward_parabolic, (data, 1)),
        (check_pardeg_conservation, (data, 1)),
    ]:
        del validations[:]
        entry(*args)
        assert len(validations) == 1, entry.__name__
    del validations[:], flags[:]
    path = Path(__file__).resolve().parent.parent / "instances" / "parabolic_p1_double_q.json"
    assert main(["--format", "machine", "pushforward", str(path)]) == 0
    assert '"conservation_ok": true' in capsys.readouterr().out
    assert (len(validations), len(flags)) == (1, 2)


def test_each_weight_is_parsed_once(monkeypatch, capsys):
    # validation parses every weight not parsed yet (a Fraction in [0, 1)
    # is) and hands the parsed weights to the flags, the merges and the
    # upstairs degree, which parse none again; every module binding of
    # parse_weight is counted
    assert instances.parse_weight is parabolic.parse_weight
    parses = count_calls(monkeypatch, parabolic.parse_weight)
    data = RamifiedCoverData(
        1,
        4,
        (4,),
        (
            BranchPoint(tuple(RamifiedSheet(*s) for s in ((2, "1/3", 0), (1, 0, 0), (1, "1/2", 0)))),
            BranchPoint(tuple(RamifiedSheet(*s) for s in ((2, F(1, 4), 0), (1, "0", 0), (1, 0, 0)))),
        ),
        ((F(0), "2/3", 0, F(1, 5)),),
    )
    for entry in (pushforward_parabolic, check_pardeg_conservation):
        del parses[:]
        entry(data, 1)
        assert len(parses) == 7, entry.__name__
    upstairs = 1 + F(1, 3) + F(1, 2) + F(1, 4) + F(2, 3) + F(1, 5)
    assert check_pardeg_conservation(data, 1).upstairs == upstairs
    # the instance reader parses its two weights; validation parses none again
    del parses[:]
    path = Path(__file__).resolve().parent.parent / "instances" / "parabolic_p1_double_q.json"
    assert main(["--format", "machine", "pushforward", str(path)]) == 0
    capsys.readouterr()
    assert len(parses) == 2


@pytest.mark.parametrize(
    "data, error",
    [
        (simple_data(0, 2, [(2, 1)]), DimensionMismatch),
        (simple_data(0, 3, [(2, 1)]), NonIntegralGenus),
        (simple_data(0, 2, [(2,)], [[F(3, 2)]]), ParseError),
    ],
)
def test_each_entry_raises_the_validation_error(data, error):
    for entry in (degree_direct_image, pushforward_parabolic, check_pardeg_conservation):
        with pytest.raises(error):
            entry(data, 0)
    with pytest.raises(error):
        riemann_hurwitz_genus(data)


# --- tameness ----------------------------------------------------------------------------


def test_tameness_examples():
    assert tameness_check([F(1, 2)], 3) == (True,)
    assert tameness_check([F(1, 3)], 3) == (False,)
    assert tameness_check([F(2, 6)], 2) == (True,)
    assert tameness_check([F(0)], 5) == (True,)


def test_tameness_requires_prime():
    with pytest.raises(ParseError):
        tameness_check([F(1, 2)], 4)
