"""``cover-build`` certificates checked by ``tests/certificates.py``, which
reads only the instance and the machine report."""

import copy
import json
from fractions import Fraction
from pathlib import Path

import pytest
from certificates import check_cover_build

from cartancover.cli import main

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
            bumped = Fraction(x) + 1
            out.append(("scalars", e, t, None, str(bumped % p if p else bumped)))
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
