"""The call counter the cost tests are built on: it counts a package
callable however the package reaches it, and the patch's undo puts the
real objects back."""

from pathlib import Path

import pytest

from cartancover import cli, covers
from cartancover.cli import cmd_pushforward
from cartancover.fields import QQ
from cartancover.instances import load_instance
from cartancover.linalg import Matrix, Subspace
from helpers import count_calls

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def test_counts_a_call_through_another_modules_binding(monkeypatch):
    # cmd_pushforward calls cover_report as cli binds it, not through covers
    real = covers.cover_report
    assert cli.cover_report is real
    instance = load_instance(str(INSTANCES / "cover_c4_loop_q.json"))
    calls = count_calls(monkeypatch, real)
    assert cmd_pushforward(instance).exit_code == 0
    assert calls == [(instance.cover,)]
    monkeypatch.undo()
    assert cli.cover_report is covers.cover_report is real


def test_refuses_a_function_no_package_module_binds(monkeypatch):
    with pytest.raises(ValueError, match="no cartancover module binds len"):
        count_calls(monkeypatch, len)


def test_counts_a_method(monkeypatch):
    real = Matrix.inverse
    m = Matrix(QQ, [[1, 1], [0, 1]])
    calls = count_calls(monkeypatch, Matrix, "inverse")
    assert m.inverse() == Matrix(QQ, [[1, -1], [0, 1]])
    assert calls == [(m,)]
    monkeypatch.undo()
    assert Matrix.inverse is real


def test_counts_a_dunder(monkeypatch):
    real = Matrix.__matmul__
    a, b = Matrix(QQ, [[1, 2], [0, 1]]), Matrix(QQ, [[0, 1], [1, 0]])
    calls = count_calls(monkeypatch, Matrix, "__matmul__")
    assert a @ b == Matrix(QQ, [[2, 1], [1, 0]])
    assert calls == [(a, b)]
    monkeypatch.undo()
    assert Matrix.__matmul__ is real


def test_counts_a_classmethod_and_keeps_it_one(monkeypatch):
    real = vars(Subspace)["_spanned"]
    calls = count_calls(monkeypatch, Subspace, "_spanned")
    assert isinstance(vars(Subspace)["_spanned"], classmethod)
    # zero reaches it through cls, which the count records first
    assert Subspace.zero(QQ, 2).echelon.nrows == 0
    assert calls == [(Subspace, QQ, 2, [])]
    monkeypatch.undo()
    assert vars(Subspace)["_spanned"] is real
