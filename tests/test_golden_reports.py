"""Machine and human reports, with exit codes, are byte-identical to the golden files.

``tests/golden`` holds the stdout of every shipped instance under each
instance subcommand (error reports included) and of ``selftest`` at its
defaults and at ``--seed 7 --count 40``, in both formats, with the exit
codes in ``exit_codes.json``. One instance per subcommand is also run as
``python -O -m cartancover``, which strips assert statements. A change
that alters any report on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden_reports.py --write

and says why in its description.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cartancover.cli import run

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "instances"
GOLDEN = Path(__file__).resolve().parent / "golden"
SUBCOMMANDS = ("classify", "cover-build", "pushforward", "factor")
FORMATS = ("machine", "human")


def invocations():
    """(name, argv after --format) of every golden invocation."""
    out = []
    for sub in SUBCOMMANDS:
        for path in sorted(INSTANCES.glob("*.json")):
            out.append((f"{sub}__{path.stem}", [sub, str(path)]))
    out.append(("selftest__defaults", ["selftest"]))
    out.append(("selftest__seed7_count40", ["selftest", "--seed", "7", "--count", "40"]))
    return out


def render(argv):
    """Exit code and the stdout bytes of each format, from one run."""
    report, _fmt = run(argv)
    texts = {"machine": report.to_machine_text(), "human": report.to_human_text()}
    return report.exit_code, {fmt: text.encode("utf-8") for fmt, text in texts.items()}


def golden_path(name, fmt):
    return GOLDEN / f"{name}.{fmt}.txt"


@pytest.fixture(scope="module")
def exit_codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


def test_golden_set_is_complete(exit_codes):
    names = [name for name, _argv in invocations()]
    assert sorted(exit_codes) == sorted(names)
    stored = {p.name for p in GOLDEN.glob("*.txt")}
    assert stored == {golden_path(n, fmt).name for n in names for fmt in FORMATS}


@pytest.mark.parametrize("name,argv", invocations(), ids=[n for n, _a in invocations()])
def test_report_bytes_match_golden(name, argv, exit_codes):
    code, texts = render(argv)
    assert code == exit_codes[name]
    for fmt in FORMATS:
        assert texts[fmt] == golden_path(name, fmt).read_bytes(), fmt


@pytest.mark.parametrize(
    "sub, stem",
    [
        ("classify", "cartan_nilpotent_q"),
        ("cover-build", "bundle_loop_swap2_q"),
        ("pushforward", "parabolic_p1_double_q"),
        ("factor", "cover_c4_loop_q"),
    ],
)
def test_machine_report_matches_golden_under_python_O(sub, stem, exit_codes):
    # python -O strips assert statements: a check that hid in one would
    # change these reports or their exit codes
    name = f"{sub}__{stem}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = ["--format", "machine", sub, str(INSTANCES / f"{stem}.json")]
    done = subprocess.run(
        [sys.executable, "-O", "-m", "cartancover", *argv], env=env, capture_output=True
    )
    assert done.returncode == exit_codes[name]
    assert done.stdout == golden_path(name, "machine").read_bytes()


def write_golden():
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in invocations():
        codes[name], texts = render(argv)
        for fmt in FORMATS:
            golden_path(name, fmt).write_bytes(texts[fmt])
    text = json.dumps(codes, indent=2, sort_keys=True) + "\n"
    (GOLDEN / "exit_codes.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_reports.py --write")
    write_golden()
