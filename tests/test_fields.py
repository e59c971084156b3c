from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cartancover.errors import DimensionMismatch, ParseError
from cartancover.fields import (
    GF,
    PRIME_BOUND,
    QQ,
    Fp,
    PrimeField,
    field_from_json,
    field_to_json,
    is_prime,
)
from helpers import scalar

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
f7 = st.integers(min_value=0, max_value=6).map(lambda v: Fp(v, 7))


def test_primality_small_cases():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    with pytest.raises(ParseError):
        PrimeField(6)
    with pytest.raises(ParseError):
        PrimeField(1)


def _by_trial_division(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_miller_rabin_agrees_with_trial_division_below_1e5():
    assert all(is_prime(n) == _by_trial_division(n) for n in range(-5, 10**5))


def test_carmichael_numbers_are_composite():
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 825265,
                  321197185, 5394826801, 232250619601, 9746347772161]
    assert not any(is_prime(n) for n in carmichael)


def test_strong_pseudoprimes_to_the_first_prime_bases():
    # psi_12 passes every base 2..37, so base 41 is needed below psi_13
    psi_12 = 318665857834031151167461
    assert psi_12 == 399165290221 * 798330580441
    assert not is_prime(psi_12)
    assert is_prime(399165290221) and is_prime(798330580441)
    assert PRIME_BOUND == 3317044064679887385961981
    for n in (PRIME_BOUND, PRIME_BOUND + 2, 2**89 - 1):
        with pytest.raises(ParseError):
            is_prime(n)
        with pytest.raises(ParseError):
            field_from_json({"kind": "Fp", "p": n})


def test_large_primes_are_accepted():
    for p in (2**31 - 1, 2**61 - 1, 10**12 + 39):
        assert is_prime(p)
        assert GF(p).p == p
    assert not is_prime((2**31 - 1) * (2**19 - 1))


def test_prime_field_arithmetic():
    f = GF(5)
    a, b = scalar(f, 3), scalar(f, "4")
    assert a + b == 2
    assert a * b == 2
    assert a - b == 4
    assert (a / b) * b == a
    assert -a == 2
    assert a**3 == 2
    with pytest.raises(ZeroDivisionError):
        a / scalar(f, 0)


def test_fp_equality_with_ints_agrees_with_hash():
    for p in (2, 5, 7):
        for v in range(p):
            x = Fp(v, p)
            for n in range(-2 * p, 2 * p):
                assert (x == n) == (n == v)
                if x == n:
                    assert hash(x) == hash(n)
    assert Fp(3, 7) != 10
    assert len({Fp(3, 7), 3}) == 1


@given(rationals, rationals, rationals)
def test_field_axioms_rationals(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x + scalar(QQ, 0) == x
    if x != 0:
        assert x * (QQ.one() / x) == 1


@given(f7, f7, f7)
def test_field_axioms_gf7(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    if x != 0:
        assert x * (Fp(1, 7) / x) == 1


def test_rational_parse_render_roundtrip():
    for s in ["3", "-1/2", "0", "7/3", "-4"]:
        den, ints = QQ.to_ints([s])
        assert QQ.render_ints(ints, den) == [s]
        assert QQ.to_ints(QQ.render_ints(ints, den)) == (den, ints)
    assert QQ.to_ints(["2/4"]) == (2, [1])


def test_rational_parse_rejects_garbage():
    for bad in ["1/0", "1.5", "a", "1/2/3", ""]:
        with pytest.raises(ParseError):
            QQ.to_ints([bad])


def test_prime_field_parse_reduces():
    f = GF(7)
    assert f.to_ints(["9"]) == (1, [2])
    assert f.to_ints(["-1"]) == (1, [6])
    with pytest.raises(ParseError):
        f.to_ints(["2/3"])


def test_to_ints_reads_scalars_and_refuses_other_types():
    assert QQ.to_ints([Fraction(1, 2), 3, " 1/3 "]) == (6, [3, 18, 2])
    assert GF(7).to_ints([Fp(3, 7), -1, "+9"]) == (1, [3, 6, 2])
    for field, kind in ((QQ, "rational"), (GF(7), "prime-field")):
        with pytest.raises(ParseError, match=f"^booleans are not {kind} scalars$"):
            field.to_ints([1, True])
    with pytest.raises(ParseError, match=r"^cannot interpret None as a rational number$"):
        QQ.to_ints([None])
    with pytest.raises(ParseError, match=r"^cannot interpret \[\] as an element of GF\(7\)$"):
        GF(7).to_ints([[]])
    with pytest.raises(DimensionMismatch):
        QQ.to_ints([Fp(1, 7)])
    with pytest.raises(DimensionMismatch):
        GF(7).to_ints([Fraction(1, 2)])


def test_field_descriptors_roundtrip():
    for f in (QQ, GF(5), GF(7)):
        assert field_from_json(field_to_json(f)) == f
    with pytest.raises(ParseError):
        field_from_json({"kind": "R"})
    with pytest.raises(ParseError):
        field_from_json({"kind": "Fp", "p": 9})


def test_cross_field_scalars_rejected():
    with pytest.raises(ParseError):
        GF(5).to_ints([Fp(1, 7)], ParseError)
    with pytest.raises(DimensionMismatch):
        GF(5).to_ints([Fp(1, 7)])
    assert Fp(1, 5).__add__(Fp(1, 7)) is NotImplemented
