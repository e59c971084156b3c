from fractions import Fraction
from random import Random

import pytest

from cartancover.fields import GF, QQ
from cartancover.poly import (
    Poly,
    nonsplit_witness,
    poly_gcd,
    roots_in_field,
    squarefree_no_guard,
    squarefree_part,
)
from helpers import roots_by_enumeration


def P(field, *coeffs):
    return Poly(field, coeffs)


def test_canonical_form_strips_trailing_zeros():
    assert P(QQ, 1, 2, 0, 0).coeffs == (Fraction(1), Fraction(2))
    assert P(QQ, 0).is_zero()
    assert P(QQ, 0, 0, 3).degree == 2


def test_roots_x_squared_minus_one_over_q():
    roots, split = roots_in_field(P(QQ, -1, 0, 1))
    assert roots == ((Fraction(-1), 1), (Fraction(1), 1))
    assert split


def test_roots_x_squared_minus_two_over_q_not_split():
    roots, split = roots_in_field(P(QQ, -2, 0, 1))
    assert roots == ()
    assert not split


def test_roots_x_squared_minus_two_over_gf7():
    f = GF(7)
    roots, split = roots_in_field(P(f, -2, 0, 1))
    assert [(r.val, m) for r, m in roots] == [(3, 1), (4, 1)]
    assert split


def test_roots_with_multiplicity_and_rational_candidates():
    # (x - 1/2)^2 (x + 3)
    p = Poly.from_roots(QQ, [Fraction(1, 2), Fraction(1, 2), Fraction(-3)])
    roots, split = roots_in_field(p)
    assert dict(roots) == {Fraction(-3): 1, Fraction(1, 2): 2}
    assert split


def test_zero_root_is_found():
    roots, split = roots_in_field(P(QQ, 0, 0, 1, 1))  # x^2 (x + 1)
    assert dict(roots) == {Fraction(0): 2, Fraction(-1): 1}
    assert split


def test_squarefree_no_guard_examples():
    assert squarefree_no_guard(P(QQ, -1, 0, 1))
    assert not squarefree_no_guard(P(QQ, 0, 0, 1))
    # (x-1)^2 (x-2), expanded
    p = Poly.from_roots(QQ, [1, 1, 2])
    assert not squarefree_no_guard(p)
    # over GF(3) the degree may reach the characteristic
    f = GF(3)
    assert squarefree_no_guard(P(f, 0, 2, 0, 1))  # x^3 - x = x(x-1)(x-2)
    assert not squarefree_no_guard(P(f, 0, 0, 0, 1))  # x^3


def test_squarefree_no_guard_detects_pth_powers():
    f = GF(3)
    # (x^2 + 1)^3 = x^6 + 1 over GF(3): derivative vanishes
    p = P(f, 1, 0, 0, 0, 0, 0, 1)
    assert p.derivative().is_zero()
    assert not squarefree_no_guard(p)
    assert squarefree_part(p) == P(f, 1, 0, 1)


def test_gcd_examples():
    p = Poly.from_roots(QQ, [1, 1, 2])
    q = Poly.from_roots(QQ, [1, 3])
    assert poly_gcd(p, q) == Poly.from_roots(QQ, [1])
    assert poly_gcd(p, p) == p.monic()


def test_nonsplit_witness_is_rootless_factor():
    p = Poly.from_roots(QQ, [2]) * P(QQ, -2, 0, 1)  # (x - 2)(x^2 - 2)
    w = nonsplit_witness(p, roots_in_field(p)[0])
    assert w == P(QQ, -2, 0, 1)
    assert (p % w).is_zero()


def test_division_identity():
    a = P(QQ, 3, -1, 0, 2, 5)
    b = P(QQ, -1, 1, 1)
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_poly_str_formatting():
    assert str(P(QQ, -2, 0, 1)) == "x^2 - 2"
    assert str(P(QQ, 0, 0, 1)) == "x^2"
    assert str(P(GF(7), 5, 0, 1)) == "x^2 + 5"
    assert str(P(QQ, Fraction(-1, 2), 1)) == "x - 1/2"


def test_evaluation_annihilates_roots():
    p = Poly.from_roots(QQ, [Fraction(2, 3), -1])
    assert p(Fraction(2, 3)) == 0
    assert p(-1) == 0
    assert p(0) != 0


# --- agreement with the exhaustive search ---------------------------------------------


def _random_poly(rng, field):
    """A nonconstant polynomial of degree at most 6: with random coefficients
    half of the time, else a planted product of linear factors with a
    repeated root, sometimes times a random monic quadratic."""
    def scalar():
        if field == QQ:
            return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4)))
        return field.coerce(rng.randrange(field.p))

    if rng.random() < 0.5:
        d = rng.randint(1, 6)
        while True:
            coeffs = [scalar() for _ in range(d + 1)]
            if coeffs[-1] != 0:
                return Poly(field, coeffs)
    roots = []
    while len(roots) < 2:
        roots += [scalar()] * rng.randint(2, 3)
    p = Poly.from_roots(field, roots[: rng.randint(2, 4)])
    if rng.random() < 0.4:
        p = p * Poly(field, (scalar(), scalar(), field.one()))
    lead = scalar()
    return p.scale(lead if lead != 0 else field.one())


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), GF(7), GF(1009), QQ], ids=repr)
def test_roots_agree_with_the_exhaustive_search(field):
    rng = Random(f"roots:{field!r}")
    repeated = 0
    for i in range(1000):
        p = _random_poly(rng, field)
        found = roots_in_field(p)
        assert found == roots_by_enumeration(p), (i, str(p))
        repeated += any(m > 1 for _, m in found[0])
    assert repeated > 300


def test_roots_over_a_large_prime_and_of_tall_rationals():
    # neither search is feasible for the exhaustive oracle
    f = GF(2**61 - 1)
    planted = [3, 3, 2**60 + 7, 123456789123456789]
    roots, split = roots_in_field(Poly.from_roots(f, planted) * P(f, 1, 0, 1))
    assert [(r.val, m) for r, m in roots] == [(3, 2), (123456789123456789, 1), (2**60 + 7, 1)]
    assert not split  # x^2 + 1 is irreducible since 2^61 - 1 = 3 mod 4
    tall = [Fraction(10**12 + 39, 10**6 + 3), Fraction(-(10**10), 7), Fraction(-(10**10), 7)]
    roots, split = roots_in_field(Poly.from_roots(QQ, tall) * P(QQ, -2, 0, 1))
    assert roots == ((Fraction(-(10**10), 7), 2), (Fraction(10**12 + 39, 10**6 + 3), 1))
    assert not split
