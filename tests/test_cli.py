import io
import json
import signal
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from cartancover import cli, covers
from cartancover.cli import main
from cartancover.fields import field_from_json, field_to_json
from cartancover.instances import load_instance, parse_instance_text
from cartancover.linalg import Matrix
from cartancover.reports import render_matrix

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# --- classify ---------------------------------------------------------------


def test_classify_diagonal_prints_eigenlines(capsys):
    code, out = run_cli(capsys, "classify", str(INSTANCES / "cartan_diagonal_q.json"))
    assert code == 0
    assert "CartanSplit" in out
    assert "line 1" in out and "mu" in out


def test_classify_nilpotent_reports_witness(capsys):
    code, out = run_cli(capsys, "classify", str(INSTANCES / "cartan_nilpotent_q.json"))
    assert code == 1
    assert "NotDiagonalizable" in out and "x^2" in out


def test_classify_nonsplit_exit_zero(capsys):
    code, out = run_cli(capsys, "classify", str(INSTANCES / "cartan_nonsplit_q.json"))
    assert code == 0
    assert "CartanNonSplit" in out and "x^2 - 2" in out


def test_malformed_rational_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "field": {"kind": "Q"},
                "kind": "cartan",
                "payload": {"d": 1, "basis": [[["1/0"]]]},
            }
        )
    )
    code, out = run_cli(capsys, "--format", "machine", "classify", str(bad))
    assert code == 2
    doc = json.loads(out)
    assert doc["ok"] is False and doc["error"]["type"] == "ParseError"


def test_invalid_json_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli(capsys, "classify", str(bad))
    assert code == 2


def test_stdin_instance(capsys, monkeypatch):
    text = (INSTANCES / "cartan_diagonal_q.json").read_text()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out = run_cli(capsys, "classify", "-")
    assert code == 0 and "CartanSplit" in out


def _cartan_bytes(basis: bytes, extra: bytes = b"") -> bytes:
    return b'{"field": {"kind": "Q"}, "kind": "cartan", "payload": {"d": 1, "basis": %s%s}}' % (
        basis,
        extra,
    )


@pytest.mark.parametrize("source", ["path", "stdin"])
@pytest.mark.parametrize(
    "data",
    [
        _cartan_bytes(b'[[["1"]]]', b', "note": "\xff"'),
        _cartan_bytes(b"[" * 200000 + b"]" * 200000),
        _cartan_bytes(b'[[["' + b"7" * 5000 + b'"]]]'),
        _cartan_bytes(b"[[[" + b"7" * 5000 + b"]]]"),
    ],
    ids=["not_utf8", "nested_200000_deep", "5000_digit_string", "5000_digit_int"],
)
def test_malformed_instance_bytes_are_input_errors(tmp_path, capsys, monkeypatch, source, data):
    # bytes that are not UTF-8, nesting past the recursion limit and an
    # integer past the digit limit are refused, not a traceback
    if source == "path":
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        arg = str(path)
    else:
        # as Python sets up stdin under the C locale: bytes that are not
        # UTF-8 come through as lone surrogates instead of failing the read
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
        monkeypatch.setattr(sys, "stdin", stdin)
        arg = "-"
    code, out = run_cli(capsys, "--format", "machine", "classify", arg)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"


# --- cover-build ----------------------------------------------------------------


def test_cover_build_swap_loop(capsys):
    code, out = run_cli(
        capsys, "--format", "machine", "cover-build", str(INSTANCES / "bundle_loop_swap2_q.json")
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["component_count"] == 1 == doc["flat_section_dim"]
    assert doc["cover"]["payload"]["sigma"] == [[2, 1]]
    assert all(doc["checks"].values())


def test_cover_build_trivial_rank3(capsys):
    code, out = run_cli(
        capsys, "--format", "machine", "cover-build", str(INSTANCES / "bundle_rank3_trivial_q.json")
    )
    doc = json.loads(out)
    assert code == 0 and doc["component_count"] == 3 and doc["split"] is True


def test_cover_build_nonsplit_reports_witness(capsys):
    code, out = run_cli(
        capsys, "--format", "machine", "cover-build", str(INSTANCES / "bundle_nonsplit_f_q.json")
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["type"] == "NonSplitAtVertex"
    assert "x^2" in doc["error"]["witness"]


def test_cover_build_reports_the_cover_once(capsys, monkeypatch):
    # the round trip's record carries the cover report the CLI prints
    from cartancover import covers

    calls = []
    real = covers.cover_report

    def counting(cover):
        calls.append(cover)
        return real(cover)

    for name, module in list(sys.modules.items()):
        if name.startswith("cartancover") and getattr(module, "cover_report", None) is real:
            monkeypatch.setattr(module, "cover_report", counting)
    code, _ = run_cli(capsys, "cover-build", str(INSTANCES / "bundle_rank3_trivial_q.json"))
    assert code == 0 and len(calls) == 1


def test_cover_build_rank_zero_is_input_error(tmp_path, capsys):
    doc = {
        "field": {"kind": "Q"},
        "kind": "bundle",
        "payload": {
            "graph": {"vertices": 1, "edges": []},
            "rank": 0,
            "transitions": [],
            "cartan_bundle": [[]],
        },
    }
    path = tmp_path / "rank0.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "--format", "machine", "cover-build", str(path))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "DimensionMismatch"


def test_cover_build_emitted_instance_reparses(capsys):
    _, out = run_cli(
        capsys, "--format", "machine", "cover-build", str(INSTANCES / "bundle_loop_swap2_q.json")
    )
    doc = json.loads(out)
    emitted = json.dumps(doc["cover"])
    instance = parse_instance_text(emitted)
    assert instance.cover.sigma == ((1, 0),)
    assert instance.line_bundle is not None


# --- cover-build cost flat in p and in height ----------------------------------------

BIG_PRIME = 2**61 - 1
TALL = 10**10


def _gauged_double_cover_bundle(field, gauges):
    """The pushforward of a line bundle on the connected double cover of two
    vertices joined by two edges, re-gauged by ``gauges[v]`` at vertex v.

    Edge 0 (1 -> 0) swaps the sheets and edge 1 (0 -> 1) keeps them; the
    Cartan fiber at v is spanned by g_v E_ii g_v^-1, so the canonical basis
    matrices have eigenvalues as tall as the gauges.
    """
    edges = [[1, 0], [0, 1]]
    monomial = [Matrix(field, [[0, 2], [3, 0]]), Matrix(field, [[5, 0], [0, 7]])]
    transitions = [gauges[v] @ m @ gauges[u].inverse() for (u, v), m in zip(edges, monomial)]
    units = [Matrix(field, [[1, 0], [0, 0]]), Matrix(field, [[0, 0], [0, 1]])]
    fibers = [[g @ e @ g.inverse() for e in units] for g in gauges]
    return {
        "field": field_to_json(field),
        "kind": "bundle",
        "payload": {
            "graph": {"vertices": 2, "edges": edges},
            "rank": 2,
            "transitions": [render_matrix(t) for t in transitions],
            "cartan_bundle": [[render_matrix(b) for b in fiber] for fiber in fibers],
        },
    }


def _on_alarm(signum, frame):
    raise TimeoutError("cover-build did not finish within the cap")


@pytest.mark.parametrize(
    "descriptor, gauges",
    [
        (
            {"kind": "Fp", "p": BIG_PRIME},
            [[[123456789012345678, 987654321098765432], [112233445566778899, 998877665544332211]],
             [[314159265358979323, 271828182845904523], [161803398874989484, 141421356237309504]]],
        ),
        (
            {"kind": "Q"},
            [[[TALL + 1, TALL - 3], [TALL + 7, -TALL + 11]],
             [[TALL - 13, TALL + 17], [-TALL - 19, TALL + 23]]],
        ),
    ],
    ids=["gf_2_61_minus_1", "q_height_1e10"],
)
def test_cover_build_large_prime_and_tall_entries_finish(tmp_path, capsys, descriptor, gauges):
    # cost flat in p and in height: trial division of 2^61 - 1, a scan of GF(p)
    # or a divisor search up to the square root of a constant term near 10^40
    # would each run far past the cap
    path = tmp_path / "bundle.json"
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(5)
    try:
        field = field_from_json(descriptor)
        doc = _gauged_double_cover_bundle(field, [Matrix(field, g) for g in gauges])
        path.write_text(json.dumps(doc))
        code, out = run_cli(capsys, "--format", "machine", "cover-build", str(path))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True and report["component_count"] == 1


# --- pushforward -----------------------------------------------------------------


def test_pushforward_cover_emits_reparseable_bundle(capsys):
    code, out = run_cli(
        capsys, "--format", "machine", "pushforward", str(INSTANCES / "cover_swap_loop_q.json")
    )
    assert code == 0
    doc = json.loads(out)
    bundle_doc = json.dumps(doc["bundle"])
    instance = parse_instance_text(bundle_doc)
    assert instance.bundle.transitions[0].rows[0][1] == 2
    assert instance.algebra is not None


def test_pushforward_cover_builds_the_bundle_once(monkeypatch, capsys):
    calls = []
    real = covers.direct_image_line_bundle

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    # count every route the command has to the pushforward
    for module in (covers, cli):
        if hasattr(module, "direct_image_line_bundle"):
            monkeypatch.setattr(module, "direct_image_line_bundle", counting)
    code, _out = run_cli(
        capsys, "--format", "machine", "pushforward", str(INSTANCES / "cover_c4_loop_q.json")
    )
    assert code == 0
    assert len(calls) == 1


def test_pushforward_parabolic_worked_example(capsys):
    code, out = run_cli(
        capsys,
        "--format",
        "machine",
        "pushforward",
        str(INSTANCES / "parabolic_p1_double_q.json"),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == -1
    assert doc["pardeg_upstairs"] == "0" == doc["pardeg_downstairs"]
    assert doc["conservation_ok"] is True
    assert doc["points"][0]["filtration"] == [
        {"weight": "1/2", "jump": 1},
        {"weight": "0", "jump": 1},
    ]


def test_pushforward_parity_violation_is_input_error(tmp_path, capsys):
    doc = {
        "field": {"kind": "Q"},
        "kind": "parabolic",
        "payload": {
            "gX": 0,
            "degree": 2,
            "components": [2],
            "branch_points": [{"profiles": [2], "weights": ["0"], "component_of_sheet": [0]}],
            "unramified_weights": [],
            "degL": 0,
        },
    }
    bad = tmp_path / "parity.json"
    bad.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "--format", "machine", "pushforward", str(bad))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "NonIntegralGenus"


def test_pushforward_disconnected_base_is_input_error(tmp_path, capsys):
    doc = {
        "field": {"kind": "Q"},
        "kind": "cover",
        "payload": {"graph": {"vertices": 2, "edges": []}, "degree": 2, "sigma": []},
    }
    bad = tmp_path / "disconnected.json"
    bad.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "--format", "machine", "pushforward", str(bad))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "DisconnectedBase"


def test_pushforward_of_a_cubic_report_is_refused(tmp_path, capsys):
    # the report writes d matrices of size d x d at each vertex: degree 400
    # on one vertex would be 6.4 * 10^7 entries, refused before any is built
    doc = {
        "field": {"kind": "Q"},
        "kind": "cover",
        "payload": {"graph": {"vertices": 1, "edges": []}, "degree": 400, "sigma": []},
    }
    path = tmp_path / "degree400.json"
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        code, out = run_cli(capsys, "--format", "machine", "pushforward", str(path))
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "DegreeTooLarge",
        "message": "pushforward of degree 400 would write 64000000 matrix entries, "
        "above the bound 1000000",
    }
    assert peak < 5 * 2**20


@pytest.mark.parametrize("bound,code", [(80, 0), (79, 2)])
def test_pushforward_entry_bound_counts_vertices_and_edges(monkeypatch, capsys, bound, code):
    # degree 4 on one vertex and one edge: 4^3 + 4^2 = 80 entries
    monkeypatch.setattr(cli, "PUSHFORWARD_ENTRY_BOUND", bound)
    path = str(INSTANCES / "cover_c4_loop_q.json")
    assert run_cli(capsys, "--format", "machine", "pushforward", path)[0] == code


@pytest.mark.parametrize("command", ["classify", "cover-build", "pushforward", "factor"])
def test_huge_vertex_count_is_refused_before_any_work(tmp_path, capsys, command):
    # fewer than n - 1 edges cannot connect n vertices: refused at parse time,
    # before any per-vertex table is allocated
    doc = {
        "field": {"kind": "Q"},
        "kind": "cover",
        "payload": {"graph": {"vertices": 10**9, "edges": []}, "degree": 2, "sigma": []},
    }
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out = run_cli(capsys, "--format", "machine", command, str(bad))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    error = json.loads(out)["error"]
    assert error == {"type": "DisconnectedBase", "message": "base graph is not connected"}


@pytest.mark.parametrize("command", ["pushforward", "factor"])
def test_huge_cover_degree_is_refused_at_its_sigma(tmp_path, capsys, command):
    # the length of each image list is compared with the degree before a
    # list of 1..degree is built
    doc = json.loads((INSTANCES / "cover_c4_loop_q.json").read_text(encoding="utf-8"))
    doc["payload"]["degree"] = 10**30
    bad = tmp_path / "huge_degree.json"
    bad.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "--format", "machine", command, str(bad))
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ParseError"
    assert error["message"].startswith("payload.sigma[0]: expected a 1-based image list")


def test_parse_graph_refuses_too_few_edges_unwrapped():
    from cartancover.errors import DisconnectedBase
    from cartancover.instances import parse_graph

    with pytest.raises(DisconnectedBase):
        parse_graph({"vertices": 4, "edges": [[0, 1], [1, 2]]}, "graph")
    assert parse_graph({"vertices": 4, "edges": [[0, 1], [1, 2], [2, 3]]}, "graph")


# --- factor -------------------------------------------------------------------------


def test_factor_4_cycle(capsys):
    code, out = run_cli(
        capsys, "--format", "machine", "factor", str(INSTANCES / "cover_c4_loop_q.json")
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["proper_count"] == 1
    entry = doc["proper_block_systems"][0]
    assert entry["blocks"] == [[1, 3], [2, 4]]
    assert entry["summand_ok"] is True
    assert entry["intermediate"]["payload"]["degree"] == 2
    assert doc["trivial_block_systems"] == [[[1], [2], [3], [4]], [[1, 2, 3, 4]]]


def test_factor_identity_monodromy_has_no_proper_systems(tmp_path, capsys):
    doc = {
        "field": {"kind": "Q"},
        "kind": "cover",
        "payload": {
            "graph": {"vertices": 1, "edges": [[0, 0]]},
            "degree": 2,
            "sigma": [[1, 2]],
        },
    }
    path = tmp_path / "id.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "--format", "machine", "factor", str(path))
    assert code == 0
    assert json.loads(out)["proper_count"] == 0


def test_factor_respects_max_degree(capsys):
    code, out = run_cli(
        capsys,
        "--format",
        "machine",
        "factor",
        str(INSTANCES / "cover_c4_loop_q.json"),
        "--max-degree",
        "3",
    )
    assert code == 2
    assert json.loads(out)["error"]["type"] == "DegreeTooLarge"


@pytest.mark.parametrize("value", ["0", "-3"])
def test_factor_nonpositive_max_degree_is_input_error(capsys, value):
    code, out = run_cli(
        capsys,
        "--format",
        "machine",
        "factor",
        str(INSTANCES / "cover_c4_loop_q.json"),
        "--max-degree",
        value,
    )
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ParseError"
    assert error["message"] == f"--max-degree expects a positive integer, got {value}"


def test_factor_primitive_action(tmp_path, capsys):
    doc = {
        "field": {"kind": "Q"},
        "kind": "cover",
        "payload": {
            "graph": {"vertices": 1, "edges": [[0, 0], [0, 0]]},
            "degree": 3,
            "sigma": [[2, 1, 3], [2, 3, 1]],
        },
    }
    path = tmp_path / "prim.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "--format", "machine", "factor", str(path))
    assert code == 0
    assert json.loads(out)["proper_count"] == 0


# --- selftest ------------------------------------------------------------------------


def test_selftest_passes_and_reports(capsys):
    code, out = run_cli(capsys, "--format", "machine", "selftest", "--seed", "1", "--count", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == 0
    assert len(doc["results"]) == 6
    assert {r["field"] for r in doc["results"]} == {"Q", "F5", "F7"}


def test_selftest_count_zero(capsys):
    code, out = run_cli(capsys, "--format", "machine", "selftest", "--count", "0")
    assert code == 0
    assert json.loads(out)["results"] == []


@pytest.mark.parametrize("value", ["-1", "-2"])
def test_selftest_negative_count_is_input_error(capsys, value):
    code, out = run_cli(capsys, "--format", "machine", "selftest", "--count", value)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"


@pytest.mark.parametrize("value", ["0", "-3"])
def test_selftest_nonpositive_max_degree_is_input_error(capsys, value):
    code, out = run_cli(capsys, "--format", "machine", "selftest", "--max-degree", value)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"


@pytest.mark.parametrize("value", ["7", "9"])
def test_selftest_max_degree_above_its_bound_is_input_error(capsys, value):
    # selftest draws covers of degree at most 6; a higher flag is refused,
    # not clamped
    code, out = run_cli(capsys, "--format", "machine", "selftest", "--max-degree", value)
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "ParseError",
        "message": f"--max-degree expects at most 6, got {value}",
    }


def test_selftest_field_restriction(capsys):
    code, out = run_cli(
        capsys, "--format", "machine", "selftest", "--count", "4", "--field", "F5"
    )
    assert code == 0
    doc = json.loads(out)
    assert {r["field"] for r in doc["results"]} == {"F5"}


# --- determinism ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("--format", "machine", "classify", str(INSTANCES / "cartan_diagonal_q.json")),
        ("--format", "machine", "classify", str(INSTANCES / "cartan_nonsplit_q.json")),
        ("--format", "machine", "cover-build", str(INSTANCES / "bundle_loop_swap2_q.json")),
        ("--format", "machine", "pushforward", str(INSTANCES / "cover_swap_loop_q.json")),
        ("--format", "machine", "pushforward", str(INSTANCES / "parabolic_p1_double_q.json")),
        ("--format", "machine", "factor", str(INSTANCES / "cover_c4_loop_q.json")),
        ("--format", "machine", "selftest", "--seed", "7", "--count", "5"),
    ],
)
def test_machine_reports_are_byte_identical(capsys, argv):
    code1, out1 = run_cli(capsys, *argv)
    code2, out2 = run_cli(capsys, *argv)
    assert code1 == code2
    assert out1.encode() == out2.encode()


def test_parser_is_built_once_per_process(capsys):
    cli.build_parser.cache_clear()
    for _ in range(2):
        code, _ = run_cli(capsys, "classify", str(INSTANCES / "cartan_diagonal_q.json"))
        assert code == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize(
    "argv, code, stream, text",
    [
        (["--version"], 0, "out", "cartancover "),
        (["--help"], 0, "out", "usage: cartancover"),
        (["nosuch"], 2, "err", "invalid choice: 'nosuch'"),
        ([], 2, "err", "the following arguments are required: subcommand"),
    ],
)
def test_shared_parser_exits_as_before(capsys, argv, code, stream, text):
    # the cached parser answers every call the same, not only the first
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        captured = capsys.readouterr()
        assert text in getattr(captured, stream)


def test_machine_report_json_roundtrip(capsys):
    _, out = run_cli(
        capsys, "--format", "machine", "cover-build", str(INSTANCES / "bundle_loop_swap2_q.json")
    )
    doc = json.loads(out)
    assert json.loads(json.dumps(doc)) == doc


def test_missing_file_is_input_error(capsys):
    code, _ = run_cli(capsys, "classify", "/nonexistent/file.json")
    assert code == 2


def test_elliptic_analogue_instance(capsys):
    code, out = run_cli(
        capsys,
        "--format",
        "machine",
        "cover-build",
        str(INSTANCES / "bundle_elliptic_analogue_f7.json"),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["component_count"] == 1 == doc["flat_section_dim"]


def test_instance_files_load(capsys):
    for path in sorted(INSTANCES.glob("*.json")):
        load_instance(str(path))


def test_every_error_type_has_one_exit_class():
    # each concrete error is either a rejected input (exit 2) or a failed check (exit 1)
    from cartancover import errors

    expected = {
        "ParseError": 2,
        "DimensionMismatch": 2,
        "DisconnectedBase": 2,
        "SingularTransition": 2,
        "DegreeTooLarge": 2,
        "NonIntegralGenus": 2,
        "NegativeGenus": 2,
        "NonSplitAtVertex": 1,
        "NotCartanAtVertex": 1,
        "IncompatibleEdge": 1,
        "EtaNotMonomial": 1,
        "NotABlockSystem": 1,
        "NotSplitCartan": 1,
        "SingularMatrix": 1,
    }
    concrete = {
        name: obj
        for name, obj in vars(errors).items()
        if isinstance(obj, type)
        and issubclass(obj, errors.CartanCoverError)
        and obj is not errors.CartanCoverError
    }
    assert {name: exc_type.exit_code for name, exc_type in concrete.items()} == expected


def test_error_report_copies_the_vertex_edge_and_witness_an_error_carries():
    from cartancover import errors
    from cartancover.fields import QQ
    from cartancover.poly import Poly

    poly = Poly(QQ, [-2, 0, 1])
    # selftest attaches its seed and the index of the instance that raised
    in_selftest = errors.EtaNotMonomial(4)
    in_selftest.seed, in_selftest.index = 7, 2
    cases = [
        (errors.SingularTransition(3), {"edge": 3}),
        (errors.IncompatibleEdge(1), {"edge": 1}),
        (errors.NotCartanAtVertex(2, "NotCartan"), {"vertex": 2, "witness": "NotCartan"}),
        (errors.NonSplitAtVertex(0, poly), {"vertex": 0, "witness": "x^2 - 2"}),
        (errors.EtaNotMonomial(4), {"vertex": 4}),
        (in_selftest, {"vertex": 4, "seed": 7, "index": 2}),
        # a verdict is no witness field of the report
        (errors.NotSplitCartan("verdict"), {}),
        (errors.ParseError("bad entry"), {}),
    ]
    for exc, carried in cases:
        report = cli._error_report("cover-build", exc)
        detail = {"type": type(exc).__name__, "message": str(exc), **carried}
        assert report.machine == {"ok": False, "error": detail}
        assert report.exit_code == type(exc).exit_code
