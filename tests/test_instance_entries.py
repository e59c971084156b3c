"""Matrix entries of instance files: the canonical integer form they are
read into and the strings written back, against the per-entry scalar
path."""

import random

import pytest
from helpers import parse_matrix_by_scalars, render_matrix_by_scalars

from cartancover.fields import GF, QQ
from cartancover.instances import parse_matrix
from cartancover.reports import matrix_oneline, render_matrix


def _entry(rng, field):
    """One instance-file entry, in one of the spellings a file may use."""
    p = field.characteristic
    n = rng.choice([0, 1, -1, rng.randint(-50, 50), rng.randint(-(10**30), 10**30)])
    if p:
        n = rng.choice([n, n + p, n * p, p - 1, p, 2 * p + 3])
    spelling = rng.randrange(9)
    if spelling == 0:
        return n
    if spelling == 1:
        return f" {n}\t"
    if spelling == 2:
        return f"+{n}" if n >= 0 else str(n)
    if spelling == 3:
        return "-0" if n == 0 else f"{'-' if n < 0 else ''}000{abs(n)}"
    if p or spelling == 4:
        return str(n)
    # rationals, unreduced ones included
    d = rng.choice([1, 2, 3, 4, 6, 9, 12, rng.randint(1, 10**30)])
    k = rng.choice([1, 1, 2, 6, 10**12])
    text = f"{n * k}/{d * k}"
    return f"  {text} " if spelling == 5 else ("+" + text if n >= 0 and spelling == 6 else text)


FIELDS = [QQ, GF(2), GF(7), GF(2**61 - 1)]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_entries_read_straight_into_the_canonical_form(field):
    rng = random.Random(f"entries-{field!r}")
    for _ in range(300):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        raw = [[_entry(rng, field) for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.2:
            raw = [[0] * ncols for _ in range(nrows)]
        m = parse_matrix(field, raw, "m")
        oracle = parse_matrix_by_scalars(field, raw, "m")
        assert (m.den, m.ints, hash(m)) == (oracle.den, oracle.ints, hash(oracle)), raw
        assert render_matrix(field, m) == render_matrix_by_scalars(field, oracle)
        assert matrix_oneline(field, m) == "[" + "; ".join(
            " ".join(row) for row in render_matrix_by_scalars(field, oracle)
        ) + "]"
        assert repr(m) == "Matrix" + matrix_oneline(field, m)


def test_unreduced_strings_reach_the_canonical_form():
    m = parse_matrix(QQ, [["6/4", "-9/6"], ["+3", " 0003/0001 "]], "m")
    assert (m.den, m.ints) == (2, [[3, -3], [6, 6]])
    assert render_matrix(QQ, m) == [["3/2", "-3/2"], ["3", "3"]]
    m = parse_matrix(QQ, [["2/4", "-0"], ["10/20", "0/7"]], "m")
    assert (m.den, m.ints) == (2, [[1, 0], [1, 0]])
    m = parse_matrix(GF(7), [["-1", 15], [" +8 ", "-0"]], "m")
    assert (m.den, m.ints) == (1, [[6, 1], [1, 0]])
