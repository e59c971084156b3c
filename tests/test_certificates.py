"""``cover-build``, ``pushforward``, ``classify`` and ``factor``
certificates, and the vertex error reports of ``cover-build``, checked by
``tests/certificates.py``, which reads only the instance and the machine
report."""

import copy
import json
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from certificates import (
    check_classify,
    check_cover_build,
    check_error_report,
    check_factor,
    check_parabolic_pushforward,
    check_pushforward,
    gauged_cover,
    summand_exists,
)
from helpers import (
    random_invertible_matrix,
    random_subspace_for_cartan_test,
    rootless_quadratic_block,
)

from cartancover.bundles import SubalgebraBundle
from cartancover.cartan import (
    CartanStatus,
    MatrixSubspace,
    classify_subspace,
    conjugate_subspace,
)
from cartancover.cli import main
from cartancover.covers import direct_image_line_bundle
from cartancover.fields import GF, QQ, field_to_json
from cartancover.instances import cartan_bundle_instance_to_json
from cartancover.linalg import Matrix
from cartancover.randgen import (
    CoverInstanceConfig,
    random_cover_instance,
    random_ramified_cover_data,
)
from cartancover.reports import render_matrix

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "instances"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _machine(capsys, *argv):
    code = main(["--format", "machine", *argv])
    return code, json.loads(capsys.readouterr().out)


def _golden_cases():
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    stems = sorted(
        name.split("__", 1)[1]
        for name, code in codes.items()
        if name.startswith("cover-build__") and code == 0
    )
    return [
        (
            json.loads((INSTANCES / f"{stem}.json").read_text(encoding="utf-8")),
            json.loads((GOLDEN / f"cover-build__{stem}.machine.txt").read_text(encoding="utf-8")),
        )
        for stem in stems
    ]


GOLDEN_CASES = _golden_cases()


def _pushforward_case(tmp_path, capsys, stem):
    """The bundle ``pushforward`` emits for a cover instance, and the
    ``cover-build`` report on it."""
    code, doc = _machine(capsys, "pushforward", str(INSTANCES / f"{stem}.json"))
    assert code == 0
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc["bundle"]), encoding="utf-8")
    code, report = _machine(capsys, "cover-build", str(path))
    assert code == 0
    return doc["bundle"], report


def test_three_cover_build_goldens_exit_zero():
    assert len(GOLDEN_CASES) == 3


@pytest.mark.parametrize("instance, report", GOLDEN_CASES)
def test_golden_cover_build_certificates_hold(instance, report):
    assert check_cover_build(instance, report) == []


@pytest.mark.parametrize("stem", ["cover_c4_loop_q", "cover_swap_loop_q"])
def test_cover_build_of_a_pushforward_is_certified(tmp_path, capsys, stem):
    instance, report = _pushforward_case(tmp_path, capsys, stem)
    assert check_cover_build(instance, report) == []


def _bumped(x: str, p: int) -> str:
    bumped = Fraction(x) + 1
    return str(bumped % p if p else bumped)


def _mutations(report):
    """Copies of ``report`` with one entry changed: each zero entry of each
    eta set to 1 (its column then leaves its eigenline), each scalar
    increased by 1 and each sigma entry moved to the next label; and with
    two adjacent sigma entries swapped, which keeps sigma a permutation."""
    cover = report["cover"]["payload"]
    p = report["field"].get("p", 0)
    d = cover["degree"]
    out = []
    for v, m in enumerate(report["eta"]):
        for i, row in enumerate(m):
            for j, x in enumerate(row):
                if x == "0":
                    out.append(("eta", v, i, j, "1"))
    for e, row in enumerate(cover["scalars"]):
        for t, x in enumerate(row):
            out.append(("scalars", e, t, None, _bumped(x, p)))
    for e, perm in enumerate(cover["sigma"]):
        for t, x in enumerate(perm):
            out.append(("sigma", e, t, None, x % d + 1))
            out.append(("sigma swap", e, t, None, None))
    for kind, a, b, c, value in out:
        mutated = copy.deepcopy(report)
        if kind == "eta":
            mutated["eta"][a][b][c] = value
        elif kind == "sigma swap":
            perm = mutated["cover"]["payload"]["sigma"][a]
            perm[b], perm[b - 1] = perm[b - 1], perm[b]
        else:
            mutated["cover"]["payload"][kind][a][b] = value
        yield (kind, a, b, c), mutated


@pytest.mark.parametrize("source", ["golden", "cover_c4_loop_q", "cover_swap_loop_q"])
def test_changing_one_entry_fails_the_certificate(tmp_path, capsys, source):
    if source == "golden":
        cases = GOLDEN_CASES
    else:
        cases = [_pushforward_case(tmp_path, capsys, source)]
    for instance, report in cases:
        kinds = set()
        for where, mutated in _mutations(report):
            assert check_cover_build(instance, mutated) != [], where
            kinds.add(where[0])
        assert kinds == {"eta", "scalars", "sigma", "sigma swap"}


def test_a_wrong_component_count_fails_the_certificate():
    instance, report = GOLDEN_CASES[0]
    mutated = dict(report, component_count=report["component_count"] + 1)
    assert check_cover_build(instance, mutated) != []


@pytest.mark.parametrize("field", [QQ, GF(5), GF(7)], ids=str)
def test_dense_tree_edges_are_certified(tmp_path, capsys, field):
    # gauged bundles on three or more vertices: every tree edge, crossed
    # forward or backward, carries dense lines, and the certificate reads
    # its labels and scalars from the instance alone
    from test_root_split import gauged_bundle

    p = getattr(field, "p", 0)
    rng = Random(33 + p)
    backward = 0
    for i in range(8):
        bundle, algebra = gauged_bundle(rng, field, min_vertices=3)
        instance = cartan_bundle_instance_to_json(algebra)
        path = tmp_path / f"bundle_{i}.json"
        path.write_text(json.dumps(instance), encoding="utf-8")
        code, report = _machine(capsys, "cover-build", str(path))
        assert code == 0
        assert check_cover_build(instance, report) == []
        for _vertex, e, forward in bundle.graph.spanning_tree().order[1:]:
            backward += not forward
            mutated = copy.deepcopy(report)
            scalars = mutated["cover"]["payload"]["scalars"][e]
            scalars[0] = _bumped(scalars[0], p)
            assert check_cover_build(instance, mutated) != [], (i, e)
    assert backward > 0


PUSHFORWARD_STEMS = ["cover_c4_loop_q", "cover_swap_loop_q"]


def _cover_build_cases(tmp_path, capsys):
    return GOLDEN_CASES + [_pushforward_case(tmp_path, capsys, stem) for stem in PUSHFORWARD_STEMS]


def test_given_matrices_spanning_less_fail_algebra_matches(tmp_path, capsys):
    # the last given matrix at each vertex replaced by the first: eta's
    # columns stay eigenvectors of every given matrix, but their eigenvalue
    # vectors span less than k^d, so the fiber is not the diagonal algebra
    for instance, report in _cover_build_cases(tmp_path, capsys):
        d = instance["payload"]["rank"]
        for v, given in enumerate(instance["payload"]["cartan_bundle"]):
            mutated = copy.deepcopy(instance)
            mutated["payload"]["cartan_bundle"][v][-1] = given[0]
            failures = check_cover_build(mutated, report)
            assert f"the eigenvalue vectors at vertex {v} span less than k^{d}" in failures
            assert "algebra_matches is True, re-derived False" in failures


def test_changed_section_claims_fail_the_certificate(tmp_path, capsys):
    for instance, report in _cover_build_cases(tmp_path, capsys):
        count = report["component_count"]
        assert report["flat_section_dim"] == count
        mutated = dict(report, flat_section_dim=count + 1)
        assert check_cover_build(instance, mutated) == [
            f"flat_section_dim {count + 1}, solved {count}"
        ]
        for claim in ("algebra_matches", "components_match_sections"):
            mutated = copy.deepcopy(report)
            mutated["checks"][claim] = False
            failures = check_cover_build(instance, mutated)
            assert len(failures) == 1 and failures[0].startswith(f"{claim} is False"), failures


def _pushforward_golden(stem):
    return (
        json.loads((INSTANCES / f"{stem}.json").read_text(encoding="utf-8")),
        json.loads((GOLDEN / f"pushforward__{stem}.machine.txt").read_text(encoding="utf-8")),
    )


# three vertices over GF(7), two components: one of degree 2, one of degree 1
MULTI_VERTEX_COVER = {
    "field": {"kind": "Fp", "p": 7},
    "kind": "cover",
    "payload": {
        "graph": {"vertices": 3, "edges": [[0, 1], [1, 2], [2, 0], [1, 1]]},
        "degree": 3,
        "sigma": [[2, 1, 3], [1, 2, 3], [1, 2, 3], [2, 1, 3]],
        "scalars": [["1", "2", "3"], ["4", "5", "6"], ["1", "1", "1"], ["3", "5", "2"]],
    },
}


def _pushforward_cases(tmp_path, capsys):
    cases = [_pushforward_golden(stem) for stem in PUSHFORWARD_STEMS]
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(MULTI_VERTEX_COVER), encoding="utf-8")
    code, report = _machine(capsys, "pushforward", str(path))
    assert code == 0
    return cases + [(MULTI_VERTEX_COVER, report)]


def test_a_permuted_or_altered_profile_or_split_fails_the_certificate(tmp_path, capsys):
    # the bundle pushed down from MULTI_VERTEX_COVER rebuilds a cover of
    # profile [2, 1], whose reversal is another list
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(MULTI_VERTEX_COVER), encoding="utf-8")
    code, doc = _machine(capsys, "pushforward", str(path))
    assert code == 0
    path = tmp_path / "multi_vertex_bundle.json"
    path.write_text(json.dumps(doc["bundle"]), encoding="utf-8")
    code, report = _machine(capsys, "cover-build", str(path))
    assert code == 0 and report["degree_profile"] == [2, 1]
    permuted = 0
    for instance, report in _cover_build_cases(tmp_path, capsys) + [(doc["bundle"], report)]:
        assert check_cover_build(instance, report) == []
        profile = report["degree_profile"]
        mutations = [profile[::-1], [profile[0] + 1, *profile[1:]], [*profile, 1]]
        for mutated in mutations:
            if mutated == profile:
                continue
            permuted += sorted(mutated) == sorted(profile)
            failures = check_cover_build(instance, dict(report, degree_profile=mutated))
            assert failures == [f"degree_profile {mutated}, orbit degrees {profile}"]
        failures = check_cover_build(instance, dict(report, split=not report["split"]))
        assert len(failures) == 1 and failures[0].startswith(f"split {not report['split']}, ")
    assert permuted == 1


@pytest.mark.parametrize("stem", PUSHFORWARD_STEMS)
def test_golden_pushforward_certificates_hold(stem):
    assert check_pushforward(*_pushforward_golden(stem)) == []


def test_multi_vertex_pushforward_certificate_holds(tmp_path, capsys):
    instance, report = _pushforward_cases(tmp_path, capsys)[-1]
    assert (report["component_count"], report["split"]) == (2, False)
    assert check_pushforward(instance, report) == []


def _pushforward_mutations(report):
    """Copies of ``report`` with one entry changed: each transition entry
    increased by 1; each off-diagonal entry of each fiber basis matrix set
    to 1, and each nonzero entry set to 0 (a diagonal entry changed to
    another nonzero value can leave the span the diagonal algebra); the
    component count increased by 1; and ``split`` negated."""
    p = report["field"].get("p", 0)
    payload = report["bundle"]["payload"]
    for e, m in enumerate(payload["transitions"]):
        for i, row in enumerate(m):
            for j, x in enumerate(row):
                mutated = copy.deepcopy(report)
                mutated["bundle"]["payload"]["transitions"][e][i][j] = _bumped(x, p)
                yield ("transition", e, i, j), mutated
    for v, basis in enumerate(payload["cartan_bundle"]):
        for k, m in enumerate(basis):
            for i, row in enumerate(m):
                for j, x in enumerate(row):
                    if i == j and x == "0":
                        continue
                    mutated = copy.deepcopy(report)
                    mutated["bundle"]["payload"]["cartan_bundle"][v][k][i][j] = (
                        "1" if i != j else "0"
                    )
                    yield ("basis", v, k, i, j), mutated
    yield ("count",), dict(report, component_count=report["component_count"] + 1)
    yield ("split",), dict(report, split=not report["split"])


def test_changing_one_pushforward_entry_fails_the_certificate(tmp_path, capsys):
    for instance, report in _pushforward_cases(tmp_path, capsys):
        kinds = set()
        for where, mutated in _pushforward_mutations(report):
            assert check_pushforward(instance, mutated) != [], where
            kinds.add(where[0])
        assert kinds == {"transition", "basis", "count", "split"}


def _classify_golden_cases():
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    stems = sorted(
        name.split("__", 1)[1]
        for name, code in codes.items()
        if name.startswith("classify__") and code == 0
    )
    return [
        (
            json.loads((INSTANCES / f"{stem}.json").read_text(encoding="utf-8")),
            json.loads((GOLDEN / f"classify__{stem}.machine.txt").read_text(encoding="utf-8")),
        )
        for stem in stems
    ]


CLASSIFY_GOLDEN_CASES = _classify_golden_cases()

# the diagonal algebra of Q^3 and of GF(7)^3 conjugated by
# [[1, 1, 0], [1, 2, 1], [0, 1, 2]], of determinant 1: lines with several
# nonzero entries
GAUGED_CARTAN = [
    {
        "field": field,
        "kind": "cartan",
        "payload": {
            "d": 3,
            "basis": [
                [["3", "-2", "1"], ["3", "-2", "1"], ["0", "0", "0"]],
                [["-2", "2", "-1"], ["-4", "4", "-2"], ["-2", "2", "-1"]],
                [["0", "0", "0"], ["1", "-1", "1"], ["2", "-2", "2"]],
            ],
        },
    }
    for field in ({"kind": "Q"}, {"kind": "Fp", "p": 7})
]


def _classify_cases(tmp_path, capsys):
    cases = list(CLASSIFY_GOLDEN_CASES)
    for instance in GAUGED_CARTAN:
        path = tmp_path / "cartan.json"
        path.write_text(json.dumps(instance), encoding="utf-8")
        code, report = _machine(capsys, "classify", str(path))
        assert code == 0 and report["status"] == "CartanSplit"
        cases.append((instance, report))
    return cases


def test_two_classify_goldens_exit_zero():
    statuses = [report["status"] for _instance, report in CLASSIFY_GOLDEN_CASES]
    assert statuses == ["CartanSplit", "CartanNonSplit"]


def test_classify_certificates_hold(tmp_path, capsys):
    for instance, report in _classify_cases(tmp_path, capsys):
        assert check_classify(instance, report) == []


def test_changing_one_classify_entry_fails_the_certificate(tmp_path, capsys):
    # every entry of every line and of every functional, increased by 1
    changed = set()
    for instance, report in _classify_cases(tmp_path, capsys):
        p = report["field"].get("p", 0)
        for key in ("eigenlines", "functionals"):
            for t, row in enumerate(report[key] or []):
                for k, x in enumerate(row):
                    mutated = copy.deepcopy(report)
                    mutated[key][t][k] = _bumped(x, p)
                    assert check_classify(instance, mutated) != [], (key, t, k)
                    changed.add(key)
    assert changed == {"eigenlines", "functionals"}


def _parabolic_instance(data, line_degree):
    """A parabolic instance file's JSON for ``RamifiedCoverData``."""
    branch = [
        {
            "profiles": [sheet.multiplicity for sheet in bp.sheets],
            "weights": [str(sheet.weight) for sheet in bp.sheets],
            "component_of_sheet": [sheet.component for sheet in bp.sheets],
        }
        for bp in data.branch_points
    ]
    payload = {
        "gX": data.base_genus,
        "degree": data.degree,
        "components": list(data.component_degrees),
        "branch_points": branch,
        "unramified_weights": [[str(w) for w in ws] for ws in data.extra_parabolic_points],
        "degL": line_degree,
    }
    return {"field": {"kind": "Q"}, "kind": "parabolic", "payload": payload}


# one sheet of multiplicity 3001 over an elliptic base, weight 1/2
HIGH_MULTIPLICITY = {
    "field": {"kind": "Q"},
    "kind": "parabolic",
    "payload": {
        "gX": 1,
        "degree": 3001,
        "components": [3001],
        "branch_points": [{"profiles": [3001], "weights": ["1/2"], "component_of_sheet": [0]}],
        "degL": 0,
    },
}


def _parabolic_cases(tmp_path, capsys):
    """The golden parabolic pushforward, 50 seeded instances written to a
    file and run through the CLI, and the multiplicity-3001 sheet."""
    cases = [_pushforward_golden("parabolic_p1_double_q")]
    rng = Random(2011)
    instances = [_parabolic_instance(*random_ramified_cover_data(rng)) for _ in range(50)]
    for instance in [*instances, HIGH_MULTIPLICITY]:
        path = tmp_path / "parabolic.json"
        path.write_text(json.dumps(instance), encoding="utf-8")
        code, report = _machine(capsys, "pushforward", str(path))
        assert code == 0
        cases.append((instance, report))
    return cases


def test_parabolic_pushforward_certificates_hold(tmp_path, capsys):
    cases = _parabolic_cases(tmp_path, capsys)
    for instance, report in cases:
        assert check_parabolic_pushforward(instance, report) == []
    # the seeded instances reach points of both kinds and several components
    labels = {point["label"][0] for _instance, report in cases for point in report["points"]}
    assert labels == {"b", "u"}
    assert max(len(report["genus_per_component"]) for _instance, report in cases) > 1
    assert len(cases[-1][1]["points"][0]["filtration"]) == 3001


def _parabolic_mutations(report):
    """Copies of ``report`` with one entry changed: each weight of each
    point increased by 1/2 (mod 1), each jump increased by 1, each genus
    increased by 1, and the degree increased by 1."""
    for i, point in enumerate(report["points"]):
        for k, jump in enumerate(point["filtration"]):
            mutated = copy.deepcopy(report)
            mutated["points"][i]["filtration"][k]["weight"] = str(
                (Fraction(jump["weight"]) + Fraction(1, 2)) % 1
            )
            yield ("weight", i, k), mutated
            mutated = copy.deepcopy(report)
            mutated["points"][i]["filtration"][k]["jump"] += 1
            yield ("jump", i, k), mutated
    for j, g in enumerate(report["genus_per_component"]):
        mutated = copy.deepcopy(report)
        mutated["genus_per_component"][j] = g + 1
        yield ("genus", j), mutated
    yield ("degree",), dict(report, degree=report["degree"] + 1)


def test_changing_one_parabolic_entry_fails_the_certificate(tmp_path, capsys):
    kinds = set()
    for instance, report in _parabolic_cases(tmp_path, capsys)[:8]:
        for where, mutated in _parabolic_mutations(report):
            assert check_parabolic_pushforward(instance, mutated) != [], where
            kinds.add(where[0])
    assert kinds == {"weight", "jump", "genus", "degree"}


# --- classify verdicts and vertex error reports ----------------------------------

VERDICTS = {
    ("CartanSplit", None),
    ("CartanNonSplit", None),
    ("NotCartan", "WrongDimension"),
    ("NotCartan", "NotCommutative"),
    ("NotCartan", "NotDiagonalizable"),
}


def _faulty_fiber(rng, field, d):
    """A subspace of d x d matrices that is not split Cartan: a conjugate
    of a non-split algebra (a rootless quadratic's companion beside the
    units), or a random subspace that is not Cartan."""
    if rng.random() < 0.4:
        rows = [[[0] * d for _ in range(d)] for _ in range(d)]
        rows[0][0][0] = rows[0][1][1] = 1
        for i, row in enumerate(rootless_quadratic_block(field)):
            rows[1][i][:2] = row
        for t in range(2, d):
            rows[t][t][t] = 1
        algebra = MatrixSubspace(field, d, [Matrix(field, r) for r in rows])
        return conjugate_subspace(algebra, random_invertible_matrix(rng, field, d))
    while True:
        fiber = random_subspace_for_cartan_test(rng, field, d)
        if classify_subspace(fiber).status is CartanStatus.NOT_CARTAN:
            return fiber


def _classify_verdict_cases(tmp_path, capsys):
    """``classify`` reports of every verdict: the goldens that exit 0 or
    1, and random subspaces over Q, GF(2), GF(5) and GF(7)."""
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    stems = sorted(
        name.split("__", 1)[1]
        for name, code in codes.items()
        if name.startswith("classify__") and code in (0, 1)
    )
    cases = [
        (
            json.loads((INSTANCES / f"{stem}.json").read_text(encoding="utf-8")),
            json.loads((GOLDEN / f"classify__{stem}.machine.txt").read_text(encoding="utf-8")),
        )
        for stem in stems
    ]
    rng = Random("classify verdicts")
    path = tmp_path / "cartan.json"
    for field in (QQ, GF(2), GF(5), GF(7)):
        for i in range(16):
            d = 2 + i % 3
            if i % 4:
                fiber = _faulty_fiber(rng, field, d)
            else:
                fiber = random_subspace_for_cartan_test(rng, field, d)
            instance = {
                "field": field_to_json(field),
                "kind": "cartan",
                "payload": {"d": d, "basis": [render_matrix(m) for m in fiber.generators]},
            }
            path.write_text(json.dumps(instance), encoding="utf-8")
            _code, report = _machine(capsys, "classify", str(path))
            cases.append((instance, report))
    return cases


def test_classify_verdicts_are_certified(tmp_path, capsys):
    seen = set()
    for instance, report in _classify_verdict_cases(tmp_path, capsys):
        assert check_classify(instance, report) == [], report
        seen.add((report["status"], report["reason"]))
    assert seen == VERDICTS


def _verdict_mutations(report):
    """Copies of a report of a verdict other than split with one claim
    changed: the witness polynomial, basis index or basis pair, the
    status and reason, or ``ok``."""
    witness = report["witness"] or {}
    changes = [("ok", not report["ok"])]
    if "poly" in witness:
        changes.append(("poly", "x"))
        changes.append(("poly", witness["poly"] + " + 1"))
    if "basis_index" in witness:
        changes.append(("basis_index", witness["basis_index"] + 1))
    if "basis_pair" in witness:
        i, j = witness["basis_pair"]
        changes.append(("basis_pair", [i, j + 1]))
        changes.append(("basis_pair", [j, i]))
    if report["status"] == "CartanNonSplit":
        changes.append(("status", ("NotCartan", "NotDiagonalizable")))
    else:
        changes.append(("status", ("CartanNonSplit", None)))
        other = "NotCommutative" if report["reason"] != "NotCommutative" else "WrongDimension"
        changes.append(("status", ("NotCartan", other)))
    for key, value in changes:
        mutated = copy.deepcopy(report)
        if key == "ok":
            mutated["ok"] = value
        elif key == "status":
            mutated["status"], mutated["reason"] = value
        else:
            mutated["witness"][key] = value
        yield key, mutated


def test_changing_a_verdict_fails_the_certificate(tmp_path, capsys):
    changed = set()
    for instance, report in _classify_verdict_cases(tmp_path, capsys):
        if report["status"] == "CartanSplit":
            continue
        for key, mutated in _verdict_mutations(report):
            assert check_classify(instance, mutated) != [], (key, mutated)
            changed.add(key)
    assert changed == {"ok", "poly", "basis_index", "basis_pair", "status"}


def _vertex_error_cases(tmp_path, capsys):
    """``cover-build`` reports of ``NonSplitAtVertex`` and
    ``NotCartanAtVertex``: the golden, and direct images with the fibers
    at one or two random vertices replaced by ones not split Cartan."""
    stem = "bundle_nonsplit_f_q"
    cases = [
        (
            json.loads((INSTANCES / f"{stem}.json").read_text(encoding="utf-8")),
            json.loads((GOLDEN / f"cover-build__{stem}.machine.txt").read_text(encoding="utf-8")),
        )
    ]
    rng = Random("vertex error reports")
    config = CoverInstanceConfig(max_vertices=4, max_edges=6, max_degree=4)
    path = tmp_path / "bundle.json"
    while len(cases) < 40:
        field = (QQ, GF(2), GF(5), GF(7))[len(cases) % 4]
        cover, line = random_cover_instance(rng, field, config)
        if cover.degree < 2:
            continue
        bundle = direct_image_line_bundle(line)
        fibers = [MatrixSubspace.diagonal_algebra(field, cover.degree)] * cover.base.num_vertices
        for v in rng.sample(range(len(fibers)), min(2, len(fibers))):
            fibers[v] = _faulty_fiber(rng, field, cover.degree)
        instance = cartan_bundle_instance_to_json(SubalgebraBundle(bundle, fibers))
        path.write_text(json.dumps(instance), encoding="utf-8")
        _code, report = _machine(capsys, "cover-build", str(path))
        if report.get("error", {}).get("type") in ("NonSplitAtVertex", "NotCartanAtVertex"):
            cases.append((json.loads(json.dumps(instance)), report))
    return cases


def test_vertex_error_reports_are_certified(tmp_path, capsys):
    seen = set()
    for instance, report in _vertex_error_cases(tmp_path, capsys):
        assert check_error_report(instance, report) == [], report
        error = report["error"]
        seen.add((error["type"], error["vertex"] > 0))
    kinds = ("NonSplitAtVertex", "NotCartanAtVertex")
    assert seen == {(kind, away) for kind in kinds for away in (False, True)}


def test_changing_a_vertex_error_report_fails_the_certificate(tmp_path, capsys):
    # the vertex moved to each other vertex, the witness or the message
    # changed, the type swapped
    changed = set()
    for instance, report in _vertex_error_cases(tmp_path, capsys):
        error = report["error"]
        vertices = instance["payload"]["graph"]["vertices"]
        other = "NotCartanAtVertex" if error["type"] == "NonSplitAtVertex" else "NonSplitAtVertex"
        changes = [("vertex", v) for v in range(vertices) if v != error["vertex"]]
        changes += [
            ("witness", error["witness"] + " + 1"),
            ("message", error["message"].replace("fiber", "the fiber")),
            ("type", other),
        ]
        for key, value in changes:
            mutated = copy.deepcopy(report)
            mutated["error"][key] = value
            assert check_error_report(instance, mutated) != [], (key, value)
            changed.add(key)
    assert changed == {"vertex", "witness", "message", "type"}


# --- factor ---------------------------------------------------------------


def _factor_goldens():
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    stems = sorted(
        name.split("__", 1)[1]
        for name, code in codes.items()
        if name.startswith("factor__") and code == 0
    )
    return [
        (
            json.loads((INSTANCES / f"{stem}.json").read_text(encoding="utf-8")),
            json.loads((GOLDEN / f"factor__{stem}.machine.txt").read_text(encoding="utf-8")),
        )
        for stem in stems
    ]


FACTOR_GOLDENS = _factor_goldens()


def test_two_factor_goldens_exit_zero():
    assert len(FACTOR_GOLDENS) == 2


@pytest.mark.parametrize("instance, report", FACTOR_GOLDENS)
def test_golden_factor_certificates_hold(instance, report):
    assert check_factor(instance, report) == []


def _factor_report(tmp_path, capsys, instance):
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(instance), encoding="utf-8")
    code, report = _machine(capsys, "factor", str(path))
    assert code == 0
    return report


def _seeded_cover(rng, p):
    """A cover of degree at most 8 on a connected base of one to three
    vertices whose holonomy lies in the wreath product of a random
    partition into blocks of a random size b dividing d (b = 1 or d: any
    permutation), with every fiber relabeled at random, as an instance."""
    n, d = rng.randint(1, 3), rng.choice([2, 3, 4, 4, 6, 6, 8])
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges = [e if rng.random() < 0.5 else e[::-1] for e in edges]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3))]
    rng.shuffle(edges)
    b = rng.choice([b for b in range(1, d + 1) if d % b == 0])
    labels = rng.sample(range(d), d)
    blocks = [labels[i : i + b] for i in range(0, d, b)]

    def holonomy():
        g = [None] * d
        for blk, target in zip(blocks, rng.sample(blocks, len(blocks))):
            for x, y in zip(blk, rng.sample(target, b)):
                g[x] = y
        return g

    taus = [rng.sample(range(d), d) for _ in range(n)]
    sigma = []
    for u, v in edges:
        h, back = holonomy(), [taus[u].index(t) for t in range(d)]
        sigma.append([taus[v][h[back[t]]] + 1 for t in range(d)])
    return {
        "field": {"kind": "Q"} if p == 0 else {"kind": "Fp", "p": p},
        "kind": "cover",
        "payload": {
            "graph": {"vertices": n, "edges": [list(e) for e in edges]},
            "degree": d,
            "sigma": sigma,
        },
    }


def _seeded_factor_cases(tmp_path, capsys, p, count=24):
    rng = Random(f"factor {p}")
    covers = [_seeded_cover(rng, p) for _ in range(count)]
    return [(c, _factor_report(tmp_path, capsys, c)) for c in covers]


def _refuted(instance, report) -> list:
    """The listed systems whose quotient pushforward the orbit criterion
    shows no flat direct summand (ROADMAP item 1)."""
    p = instance["field"].get("p", 0)
    d = instance["payload"]["degree"]
    tree, gauged = gauged_cover(instance)
    generators = [g for e, g in enumerate(gauged) if e not in tree]
    return [
        i
        for i, system in enumerate(report["proper_block_systems"])
        if not summand_exists(p, d, generators, [[x - 1 for x in b] for b in system["blocks"]])
    ]


@pytest.mark.parametrize("p", [0, 2, 3, 5], ids=["Q", "GF(2)", "GF(3)", "GF(5)"])
def test_factor_certificates_hold_on_seeded_covers(tmp_path, capsys, p):
    # where the orbit criterion refutes a summand, the package's summand
    # verdict is True anyway (ROADMAP item 1): those reports may fail on
    # summand_ok and ok alone, and every other claim is still checked
    systems = refuted = 0
    for instance, report in _seeded_factor_cases(tmp_path, capsys, p):
        systems += report["proper_count"]
        known = _refuted(instance, report)
        refuted += len(known)
        failures = check_factor(instance, report)
        allowed = [f for i in known for f in failures if f.startswith(f"system {i}: summand_ok ")]
        allowed += [f for f in failures if known and f.startswith("ok is ")]
        assert [f for f in failures if f not in allowed] == [], instance
    assert systems >= 10
    # over Q and GF(5) every block size is a unit, so no summand is refuted
    assert (refuted > 0) == (p in (2, 3)), refuted


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the summand verdict is True on every block system, "
    "yet over GF(2) no flat retraction exists for blocks {1,3},{2,4} of the 4-cycle",
)
def test_factor_certificate_of_the_gf2_four_cycle(tmp_path, capsys):
    instance = json.loads((INSTANCES / "cover_c4_loop_q.json").read_text(encoding="utf-8"))
    instance["field"] = {"kind": "Fp", "p": 2}
    report = _factor_report(tmp_path, capsys, instance)
    assert [s["blocks"] for s in report["proper_block_systems"]] == [[[1, 3], [2, 4]]]
    assert check_factor(instance, report) == []


def _factor_mutations(report):
    """Copies of ``report`` with one claim changed: the degree, the tree
    edges, each generator's edge and its first two images, a generator
    dropped; per system its blocks (a label moved between the first two),
    its intermediate degree and first two images, each verdict negated or
    moved, the system dropped with the count kept consistent (for the
    first two systems, which keeps a report of many systems quick); the
    trivial systems, the count and ``ok``."""
    tree = report["monodromy"]["tree_edges"]
    changes = [("degree", lambda r: r.update(degree=r["degree"] + 1))]
    changes.append(
        ("tree_edges", lambda r: r["monodromy"].update(tree_edges=tree[:-1] if tree else [0]))
    )
    for k in range(len(report["monodromy"]["generators"])):
        changes.append(("edge", lambda r, k=k: r["monodromy"]["generators"][k].update(edge=-1)))
        changes.append(("perm", lambda r, k=k: _swap(r["monodromy"]["generators"][k]["perm"])))
        changes.append(("generator dropped", lambda r, k=k: r["monodromy"]["generators"].pop(k)))
    for i, system in enumerate(report["proper_block_systems"][:2]):
        agrees = True if system["retraction_agrees"] is None else None
        changes += [
            ("blocks", lambda r, i=i: _move_a_label(_entry(r, i)["blocks"])),
            ("system dropped", lambda r, i=i: _drop_system(r, i)),
            ("intermediate degree", lambda r, i=i: _quotient(r, i).update(degree=0)),
            ("intermediate sigma", lambda r, i=i: _swap(_quotient(r, i)["sigma"][0])),
            ("summand_ok", lambda r, i=i, s=system: _set(r, i, summand_ok=not s["summand_ok"])),
            ("composite_consistent", lambda r, i=i: _set(r, i, composite_consistent=False)),
            ("retraction_agrees", lambda r, i=i, a=agrees: _set(r, i, retraction_agrees=a)),
            ("witness", lambda r, i=i: _set(r, i, witness="no retraction")),
        ]
    changes += [
        ("trivial", lambda r: r["trivial_block_systems"].pop()),
        ("proper_count", lambda r: r.update(proper_count=r["proper_count"] + 1)),
        ("ok", lambda r: r.update(ok=not r["ok"])),
    ]
    for kind, change in changes:
        mutated = copy.deepcopy(report)
        change(mutated)
        yield kind, mutated


def _swap(images):
    images[0], images[1] = images[1], images[0]


def _entry(report, i):
    return report["proper_block_systems"][i]


def _set(report, i, **claims):
    _entry(report, i).update(claims)


def _quotient(report, i):
    return _entry(report, i)["intermediate"]["payload"]


def _move_a_label(blocks):
    blocks[0][-1], blocks[1][0] = blocks[1][0], blocks[0][-1]


def _drop_system(report, i):
    report["proper_block_systems"].pop(i)
    report["proper_count"] -= 1


def test_changing_one_factor_claim_fails_the_certificate(tmp_path, capsys):
    cases = FACTOR_GOLDENS + [
        case
        for p in (0, 2, 3, 5)
        for case in _seeded_factor_cases(tmp_path, capsys, p, count=8)
        if check_factor(*case) == []
    ]
    kinds = set()
    for instance, report in cases:
        for kind, mutated in _factor_mutations(report):
            assert check_factor(instance, mutated) != [], (kind, instance)
            kinds.add(kind)
    assert len(kinds) == 16, sorted(kinds)
