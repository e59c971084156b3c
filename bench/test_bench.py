"""Tests of the benchmark itself: inputs, the summand oracle and the tracer.

Run with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import filecmp
import math
import os
import signal
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import worker  # noqa: E402
from oracles import Field, summand_exists  # noqa: E402
from spans import NAMES, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import BATCHES, CHECKS, known_defect_requests, roundtrip_batch  # noqa: E402


@pytest.mark.parametrize("workload", ["cover_build", "factor"])
def test_same_seed_gives_identical_instance_files(workload, tmp_path):
    first, second, other = (tmp_path / "a", tmp_path / "b", tmp_path / "c")
    for d in (first, second, other):
        d.mkdir()
    BATCHES[workload](7, str(first))
    BATCHES[workload](7, str(second))
    BATCHES[workload](8, str(other))
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(second))
    match, mismatch, errors = filecmp.cmpfiles(first, second, names, shallow=False)
    assert (mismatch, errors) == ([], [])
    _m, differ, _e = filecmp.cmpfiles(first, other, names, shallow=False)
    assert differ


def test_same_seed_gives_identical_roundtrip_batch():
    assert roundtrip_batch(7) == roundtrip_batch(7)
    assert roundtrip_batch(7) != roundtrip_batch(8)


def test_summand_oracle_on_the_four_cycle():
    # one loop carrying the 4-cycle 0 -> 1 -> 2 -> 3 -> 0, blocks {0, 2}, {1, 3}:
    # F2[Z/4] is uniserial, so there is no flat retraction over GF(2)
    gens = [(1, 2, 3, 0)]
    blocks = [[0, 2], [1, 3]]
    assert not summand_exists(Field(2), 4, gens, blocks)
    assert summand_exists(Field(0), 4, gens, blocks)
    assert summand_exists(Field(3), 4, gens, blocks)


def test_latency_quantiles():
    times = [i / 1000 for i in range(1, 108)]
    assert run.percentile_ms(times, 0.5) == pytest.approx(54.0)
    assert 96.0 < run.percentile_ms(times, 0.9) < 97.5
    # a capped request counts as the cap, above every finished one
    assert run.percentile_ms([0.001, math.inf], 0.5) == pytest.approx(
        (0.001 + run.CAP_S) / 2 * 1000.0, rel=0.01
    )


def test_self_time_on_a_hand_built_span_tree():
    #   A [0, 10]
    #   +-- B [1, 4]          children B and C overlap on [3, 4]
    #   |   +-- D [2, 3]
    #   +-- C [3, 6]
    #       +-- E [5, 8]      runs past its parent; only [5, 6] counts
    start = [0.0, 1.0, 3.0, 2.0, 5.0]
    end = [10.0, 4.0, 6.0, 3.0, 8.0]
    parent = [-1, 0, 0, 1, 2]
    assert self_times(start, end, parent) == [5.0, 2.0, 2.0, 1.0, 3.0]


def test_nested_spans_of_one_name_count_once_in_total():
    tracer = Tracer()
    outer = tracer.open(0)
    inner = tracer.open(0)
    tracer.close(inner)
    tracer.close(outer)
    tracer.calls[0] = 2
    metrics = layer_metrics(tracer)
    assert metrics[f"{NAMES[0]}.total_ms"] == pytest.approx(
        (tracer.end[outer] - tracer.start[outer]) * 1000.0
    )


def _traced_calls(workload, directory):
    from cartancover import bundles, cli, covers, fields, parabolic

    batch = BATCHES[workload](3, directory)[:6]
    if workload == "roundtrip":
        run = worker.roundtrip_request(fields, covers, bundles, parabolic)
    else:
        run = worker.cli_request(cli, {"cover_build": "cover-build", "factor": "factor"}[workload])
    originals = (covers.cover_roundtrip, cli.cover_report, cli.load_instance)
    tracer = Tracer()
    previous = signal.signal(signal.SIGALRM, worker._on_alarm)
    try:
        worker.Loop(batch, run, 60.0).traced_pass(tracer)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert (covers.cover_roundtrip, cli.cover_report, cli.load_instance) == originals
    return {k: v for k, v in layer_metrics(tracer).items() if k.endswith(".calls")}


@pytest.mark.parametrize("workload", ["roundtrip", "cover_build", "factor"])
def test_layer_call_counts_repeat_across_traced_runs(workload, tmp_path):
    first = _traced_calls(workload, str(tmp_path))
    second = _traced_calls(workload, str(tmp_path))
    assert first == second
    assert first["linalg.Matrix.new.calls"] > 0


@pytest.mark.xfail(
    raises=AssertionError,
    reason="ROADMAP items 3 and 5: known defects, kept out of the timed batches",
)
@pytest.mark.parametrize("name", ["four_cycle_gf2", "big_prime", "tall_q"])
def test_known_defect_inputs_agree_with_the_oracle(name, tmp_path):
    # an XPASS here means the defect is fixed: its input can join a batch
    from cartancover import cli

    workload, req = known_defect_requests(str(tmp_path))[name]
    run = worker.cli_request(cli, {"cover_build": "cover-build", "factor": "factor"}[workload])
    previous = signal.signal(signal.SIGALRM, worker._on_alarm)
    try:
        loop = worker.Loop([req], run, 1.0)
        loop.request(0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert CHECKS[workload](req, loop.outputs[0])
