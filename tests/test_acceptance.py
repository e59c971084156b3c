"""Acceptance suite: every criterion prints one pass/fail line.

All arithmetic is exact, so every check is tolerance zero. Criteria with
instance counts and time budgets state them inline. Run with ``-s`` to
see the lines as they print.
"""

import json
import time
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path
from random import Random

import pytest

from cartancover.bundles import BaseGraph, BundleRep, SubalgebraBundle, flat_sections
from cartancover.cartan import CartanStatus, MatrixSubspace, classify_subspace, conjugate_subspace
from cartancover.cli import main as cli_main
from cartancover.covers import (
    CoverRep,
    canonical_algebra_map,
    cover_report,
    cover_roundtrip,
    direct_image_line_bundle,
    roundtrip_verify,
    trivial_line_bundle,
)
from cartancover.errors import NonSplitAtVertex
from cartancover.factorization import block_systems, monodromy_generators, summand_embedding_check
from cartancover.fields import GF, QQ
from cartancover.linalg import Matrix
from cartancover.parabolic import (
    check_pardeg_conservation,
    degree_direct_image,
    local_flags,
    pushforward_parabolic,
)
from cartancover.randgen import random_cover_instance, random_ramified_cover_data

from helpers import (
    is_split,
    random_subspace_for_cartan_test,
    roundtrip_witness_holds,
)
from test_cartan import diagonalizable_by_conjugation_oracle
from test_covers import brute_force_diagonalizable_by_relabeling
from test_factorization import count_flat_summand_partitions

INSTANCES = Path(__file__).resolve().parent.parent / "instances"

ROUNDTRIP_COUNT = 200
ROUNDTRIP_TIME_BUDGET = 60.0
CARTAN_ORACLE_COUNT = 500
BIJECTION_COUNT = 50
CONSERVATION_COUNT = 500
CONSERVATION_TIME_BUDGET = 10.0


def _line(name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}", flush=True)
    assert ok, f"{name}{suffix}"


_roundtrip_cache = None


def _roundtrip_records():
    """One shared pass over the seeded round-trip instance stream."""
    global _roundtrip_cache
    if _roundtrip_cache is None:
        fields = (QQ, GF(5), GF(7))
        records = []
        start = time.perf_counter()
        for i in range(ROUNDTRIP_COUNT):
            rng = Random(900_000 + i)
            cover, line = random_cover_instance(rng, fields[i % 3])
            records.append((i, cover, line, cover_roundtrip(cover, line)))
        elapsed = time.perf_counter() - start
        _roundtrip_cache = (records, elapsed)
    return _roundtrip_cache


def test_c1_roundtrip_reconstruction():
    records, elapsed = _roundtrip_records()
    # a returned record certifies the round trip; its witness is checked
    # here against the isomorphism search and the holonomy comparison
    failures = [
        (i, cover.degree)
        for i, cover, line, rec in records
        if not roundtrip_witness_holds(cover, line, rec)
    ]
    ok = not failures and elapsed < ROUNDTRIP_TIME_BUDGET
    _line(
        "C1 round trip: direct image -> algebra -> spectral cover on "
        f"{ROUNDTRIP_COUNT} seeded instances",
        ok,
        f"failures={failures[:3]}, elapsed={elapsed:.1f}s",
    )


def test_c2_components_equal_flat_sections():
    # the record's count against the linear-algebra flat sections of the
    # pushforward's algebra bundle, computed independently
    records, _ = _roundtrip_records()
    failures = []
    for i, cover, line, rec in records:
        sections = flat_sections(canonical_algebra_map(line)).dimension
        if rec.roundtrip.component_count != sections:
            failures.append((i, rec.roundtrip.component_count, sections))
    _line(
        "C2 component count equals flat-section dimension on every C1 instance",
        not failures,
        f"failures={failures[:3]}",
    )


def test_c3_split_flag_exhaustive_vs_brute_force():
    base = BaseGraph(1, [(0, 0), (0, 0)])
    mismatches = []
    cases = 0
    for d in range(1, 5):
        for s1, s2 in product(permutations(range(d)), repeat=2):
            cases += 1
            cover = CoverRep(base, d, [s1, s2])
            split = cover_report(cover).split
            brute = brute_force_diagonalizable_by_relabeling(cover)
            if split != brute:
                mismatches.append((d, s1, s2))
    _line(
        f"C3 split flag agrees with relabeling brute force on {cases} exhaustive cases",
        not mismatches,
        f"mismatches={mismatches[:3]}",
    )


def test_c4_cartan_classifier_vs_conjugation_search():
    fields = (GF(3), GF(5))
    mismatches = []
    for i in range(CARTAN_ORACLE_COUNT):
        rng = Random(700_000 + i)
        field = fields[i % 2]
        d = rng.randint(1, 3)
        subspace = random_subspace_for_cartan_test(rng, field, d)
        got = is_split(classify_subspace(subspace))
        want = diagonalizable_by_conjugation_oracle(subspace, d, field)
        if got != want:
            mismatches.append((i, d))
    _line(
        f"C4 Cartan classification agrees with exhaustive conjugation search on "
        f"{CARTAN_ORACLE_COUNT} subspaces over GF(3) and GF(5)",
        not mismatches,
        f"mismatches={mismatches[:3]}",
    )


def test_c5_block_system_summand_bijection():
    fields = (QQ, GF(5), GF(7))
    mismatches = []
    for i in range(BIJECTION_COUNT):
        rng = Random(500_000 + i)
        field = fields[i % 3]
        cover, _ = random_cover_instance(rng, field)
        catalog = block_systems(monodromy_generators(cover))
        summand_count = count_flat_summand_partitions(cover, field)
        if len(catalog.proper) != summand_count:
            mismatches.append((i, len(catalog.proper), summand_count))
            continue
        for system in catalog.proper:
            if not summand_embedding_check(cover, system, field).ok:
                mismatches.append((i, "summand check failed"))
                break
    four_cycle = CoverRep(BaseGraph(1, [(0, 0)]), 4, [(1, 2, 3, 0)])
    four_catalog = block_systems(monodromy_generators(four_cycle))
    four_ok = (
        len(four_catalog.proper) == 1
        and summand_embedding_check(four_cycle, four_catalog.proper[0], QQ).ok
    )
    _line(
        f"C5 intermediate covers are in bijection with checked summands on "
        f"{BIJECTION_COUNT} covers, with one proper factorization for the 4-cycle",
        not mismatches and four_ok,
        f"mismatches={mismatches[:3]}, four_cycle_ok={four_ok}",
    )


def test_c6_parabolic_degree_conservation():
    failures = []
    start = time.perf_counter()
    for i in range(CONSERVATION_COUNT):
        rng = Random(300_000 + i)
        data, line_degree = random_ramified_cover_data(rng)
        report = check_pardeg_conservation(data, line_degree)
        if not report.equal:
            failures.append(i)
    elapsed = time.perf_counter() - start

    from cartancover.parabolic import BranchPoint, RamifiedCoverData, RamifiedSheet

    worked = RamifiedCoverData(
        0,
        2,
        (2,),
        (
            BranchPoint((RamifiedSheet(2, Fraction(0), 0),)),
            BranchPoint((RamifiedSheet(2, Fraction(0), 0),)),
        ),
    )
    worked_degree = degree_direct_image(worked, 0)
    worked_report = check_pardeg_conservation(worked, 0)
    worked_points = pushforward_parabolic(worked, 0).points
    worked_ok = (
        worked_degree == -1
        and worked_report.upstairs == 0 == worked_report.downstairs
        and [p.filtration.jumps for p in worked_points]
        == [((Fraction(1, 2), 1), (Fraction(0), 1))] * 2
    )
    ok = not failures and worked_ok and elapsed < CONSERVATION_TIME_BUDGET
    _line(
        f"C6 parabolic degree conservation on {CONSERVATION_COUNT} random covers "
        "plus the genus-zero double-cover example",
        ok,
        f"failures={failures[:3]}, worked_ok={worked_ok}, elapsed={elapsed:.1f}s",
    )


def test_c7_local_flag_model_exhaustive():
    weights = sorted({Fraction(a, b) for b in range(1, 13) for a in range(b)})
    bad = []
    for b in range(1, 13):
        for lam in weights:
            ws = local_flags(b, lam)
            increasing = all(ws[i] < ws[i + 1] for i in range(b - 1))
            in_range = all(0 <= w < 1 for w in ws)
            expected = tuple((l + lam) / b for l in range(b))
            if not (len(ws) == b and increasing and in_range and ws == expected):
                bad.append((b, lam))
    _line(
        f"C7 local flag model invariants hold for all multiplicities up to 12 "
        f"and all {len(weights)} weights with denominator up to 12",
        not bad,
        f"bad={bad[:3]}",
    )


def test_c8_two_structures_on_one_endomorphism_bundle():
    field = GF(7)
    s = 3  # not a square mod 7
    assert s not in {(x * x) % 7 for x in range(1, 7)}
    t = Matrix(field, [[0, s], [1, 0]])
    bundle = BundleRep(field, BaseGraph(1, [(0, 0)]), 2, [t])

    diagonal = SubalgebraBundle(bundle, (MatrixSubspace.diagonal_algebra(field, 2),))
    rec = roundtrip_verify(diagonal)
    split_ok = (
        rec.all_ok()
        and rec.component_count == 1
        and rec.flat_section_dim == 1
        and not cover_report(rec.result.cover).split
    )

    twisted = MatrixSubspace(field, 2, [Matrix.identity(field, 2), t])
    verdict = classify_subspace(twisted)
    twisted_ok = (
        verdict.status is CartanStatus.NONSPLIT
        and conjugate_subspace(twisted, t) == twisted
    )
    nonsplit_raises = False
    try:
        roundtrip_verify(SubalgebraBundle(bundle, (twisted,)))
    except NonSplitAtVertex:
        nonsplit_raises = True
    _line(
        "C8 one endomorphism bundle carries a split diagonal structure "
        "(connected double cover, one flat section) and a non-split one",
        split_ok and twisted_ok and nonsplit_raises,
        f"split_ok={split_ok}, twisted_ok={twisted_ok}, raises={nonsplit_raises}",
    )


def test_c9_machine_reports_are_deterministic(capsys):
    commands = [
        ("--format", "machine", "classify", str(INSTANCES / "cartan_diagonal_q.json")),
        ("--format", "machine", "classify", str(INSTANCES / "cartan_nonsplit_q.json")),
        ("--format", "machine", "cover-build", str(INSTANCES / "bundle_loop_swap2_q.json")),
        ("--format", "machine", "cover-build", str(INSTANCES / "bundle_elliptic_analogue_f7.json")),
        ("--format", "machine", "pushforward", str(INSTANCES / "cover_swap_loop_q.json")),
        ("--format", "machine", "pushforward", str(INSTANCES / "parabolic_p1_double_q.json")),
        ("--format", "machine", "factor", str(INSTANCES / "cover_c4_loop_q.json")),
        ("--format", "machine", "selftest", "--seed", "11", "--count", "8"),
    ]
    stable = True
    for argv in commands:
        cli_main(list(argv))
        first = capsys.readouterr().out
        cli_main(list(argv))
        second = capsys.readouterr().out
        json.loads(first)  # machine reports stay valid JSON
        if first.encode() != second.encode():
            stable = False
            break
    with capsys.disabled():
        _line(
            "C9 machine reports are byte-identical across repeated runs "
            f"of all {len(commands)} command invocations",
            stable,
        )
