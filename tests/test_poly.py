from fractions import Fraction
from random import Random

import pytest

from cartancover.fields import GF, QQ, PrimeField, Rationals
from cartancover.poly import Poly, nonsplit_witness, roots_in_field, squarefree_no_guard
from helpers import (
    divmod_by_scalars,
    from_roots_by_scalars,
    mul_by_scalars,
    nonsplit_witness_by_scalars,
    render_by_scalars,
    roots_by_enumeration,
    scalar,
    squarefree_by_scalars,
    squarefree_part_by_scalars,
)


def P(field, *coeffs):
    return Poly(field, coeffs)


def test_canonical_form_strips_trailing_zeros():
    assert P(QQ, 1, 2, 0, 0).coeffs == (Fraction(1), Fraction(2))
    assert P(QQ, 0).is_zero()
    assert P(QQ, 0, 0, 3).degree == 2


def test_canonical_integer_form():
    # over Q integers over the least common denominator, over GF(p) least
    # residues over 1; the form is reached however the polynomial is given
    p = P(QQ, Fraction(1, 2), Fraction(-2, 3), 0, 0)
    assert (p.den, p.ints) == (6, (3, -4))
    assert Poly._make(QQ, -12, [-6, 8, 0]) == p
    f = GF(7)
    q = P(f, -1, 9, 0)
    assert (q.den, q.ints) == (1, (6, 2))
    assert Poly._make(f, 3, [3, 6]) == P(f, 1, 2)
    # equal polynomials reached by different routes hash equal
    assert hash(Poly._make(QQ, -12, [-6, 8, 0])) == hash(p)
    assert hash(Poly._make(f, 3, [3, 6])) == hash(P(f, 1, 2))


def test_roots_x_squared_minus_one_over_q():
    roots, split = roots_in_field(P(QQ, -1, 0, 1))
    assert roots == ((-1, 1, 1), (1, 1, 1))
    assert split


def test_roots_x_squared_minus_two_over_q_not_split():
    roots, split = roots_in_field(P(QQ, -2, 0, 1))
    assert roots == ()
    assert not split


def test_roots_x_squared_minus_two_over_gf7():
    f = GF(7)
    roots, split = roots_in_field(P(f, -2, 0, 1))
    assert roots == ((3, 1, 1), (4, 1, 1))
    assert split


def test_roots_with_multiplicity_and_rational_candidates():
    # (x - 1/2)^2 (x + 3)
    p = from_roots_by_scalars(QQ, [Fraction(1, 2), Fraction(1, 2), Fraction(-3)])
    roots, split = roots_in_field(p)
    assert roots == ((-3, 1, 1), (1, 2, 2))
    assert split


def test_zero_root_is_found():
    roots, split = roots_in_field(P(QQ, 0, 0, 1, 1))  # x^2 (x + 1)
    assert roots == ((-1, 1, 1), (0, 1, 2))
    assert split


def test_squarefree_no_guard_examples():
    assert squarefree_no_guard(P(QQ, -1, 0, 1))
    assert not squarefree_no_guard(P(QQ, 0, 0, 1))
    # (x-1)^2 (x-2), expanded
    p = from_roots_by_scalars(QQ, [1, 1, 2])
    assert not squarefree_no_guard(p)
    # over GF(3) the degree may reach the characteristic
    f = GF(3)
    assert squarefree_no_guard(P(f, 0, 2, 0, 1))  # x^3 - x = x(x-1)(x-2)
    assert not squarefree_no_guard(P(f, 0, 0, 0, 1))  # x^3


def test_squarefree_no_guard_detects_pth_powers():
    f = GF(3)
    # (x^2 + 1)^3 = x^6 + 1 over GF(3): derivative vanishes
    p = P(f, 1, 0, 0, 0, 0, 0, 1)
    assert not squarefree_no_guard(p)
    # x^2 + 1 has no root in GF(3), so it is the witness
    assert nonsplit_witness(p, roots_in_field(p)[0]) == P(f, 1, 0, 1)


def test_nonsplit_witness_is_rootless_factor():
    p = mul_by_scalars(from_roots_by_scalars(QQ, [2]), P(QQ, -2, 0, 1))  # (x - 2)(x^2 - 2)
    w = nonsplit_witness(p, roots_in_field(p)[0])
    assert w == P(QQ, -2, 0, 1)
    assert divmod_by_scalars(p, w)[1].is_zero()


def test_nonsplit_witness_refuses_a_split_polynomial_and_a_wrong_root():
    p = from_roots_by_scalars(QQ, [1, 1, 2])
    with pytest.raises(ValueError, match="splits"):
        nonsplit_witness(p, roots_in_field(p)[0])
    with pytest.raises(ValueError, match="not a root"):
        nonsplit_witness(p, ((3, 1, 1),))


def test_poly_str_formatting():
    assert str(P(QQ, -2, 0, 1)) == "x^2 - 2"
    assert str(P(QQ, 0, 0, 1)) == "x^2"
    assert str(P(GF(7), 5, 0, 1)) == "x^2 + 5"
    assert str(P(QQ, Fraction(-1, 2), 1)) == "x - 1/2"


# --- agreement with the scalar oracles ------------------------------------------------


def _scalar(rng, field):
    if field == QQ:
        return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4)))
    return scalar(field, rng.randrange(field.p))


def _random_poly(rng, field):
    """A nonconstant polynomial of degree at most 6: with random coefficients
    half of the time, else a planted product of linear factors with a
    repeated root, sometimes times a random monic quadratic."""
    if rng.random() < 0.5:
        d = rng.randint(1, 6)
        while True:
            coeffs = [_scalar(rng, field) for _ in range(d + 1)]
            if coeffs[-1] != 0:
                return Poly(field, coeffs)
    roots = []
    while len(roots) < 2:
        roots += [_scalar(rng, field)] * rng.randint(2, 3)
    p = from_roots_by_scalars(field, roots[: rng.randint(2, 4)])
    if rng.random() < 0.4:
        p = mul_by_scalars(p, Poly(field, (_scalar(rng, field), _scalar(rng, field), 1)))
    lead = _scalar(rng, field)
    return Poly(field, [(lead if lead != 0 else 1) * c for c in p.coeffs])


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), GF(7), GF(1009), QQ], ids=repr)
def test_roots_agree_with_the_exhaustive_search(field):
    rng = Random(f"roots:{field!r}")
    repeated = 0
    for i in range(1000):
        p = _random_poly(rng, field)
        found = roots_in_field(p)
        assert found == roots_by_enumeration(p), (i, str(p))
        repeated += any(m > 1 for _num, _den, m in found[0])
    assert repeated > 300


def _planted_poly(rng, field):
    """A nonzero polynomial built from planted factors: linear factors with
    multiplicities up to 4 (over GF(p) up to p + 1, so some divisible by
    p), random quadratics, sometimes squared, and over a small GF(p) a
    p-th power g(x^p) of a random g; times a random nonzero scalar."""
    p = field.characteristic
    out = Poly(field, (1,))
    for _ in range(rng.randint(0, 3)):
        mult = rng.randint(1, p + 1 if 1 < p < 10 else 4)
        out = mul_by_scalars(out, from_roots_by_scalars(field, [_scalar(rng, field)] * mult))
    for _ in range(rng.randint(0, 2)):
        quad = Poly(field, (_scalar(rng, field), _scalar(rng, field), 1))
        out = mul_by_scalars(out, mul_by_scalars(quad, quad) if rng.random() < 0.3 else quad)
    if 1 < p < 10 and rng.random() < 0.4:
        g = [_scalar(rng, field) for _ in range(rng.randint(1, 3))] + [1]
        spread = [0] * ((len(g) - 1) * p + 1)
        spread[::p] = g
        out = mul_by_scalars(out, Poly(field, spread))
    lead = _scalar(rng, field)
    return Poly(field, [(lead if lead != 0 else 1) * c for c in out.coeffs])


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), GF(7), GF(1009), QQ], ids=repr)
def test_integer_form_agrees_with_the_scalar_oracles(field):
    # roots, squarefreeness, the witness and the rendering of polynomials in
    # canonical integer form against the scalar algorithms they replaced
    rng = Random(f"poly-forms:{field!r}")
    powers = divisible = nonsplit = 0
    for i in range(300):
        p = _planted_poly(rng, field)
        where = (i, str(p))
        assert str(p) == render_by_scalars(field, p.coeffs), where
        # a scaled integer form is brought to the same polynomial (-11 is a
        # unit in each of these fields)
        assert Poly._make(field, -11 * p.den, [-11 * c for c in p.ints]) == p, where
        if p.is_constant():
            continue
        roots, split = roots_in_field(p)
        assert (roots, split) == roots_by_enumeration(p), where
        assert squarefree_no_guard(p) == squarefree_by_scalars(p), where
        expected = nonsplit_witness_by_scalars(p, roots)
        if split:
            assert expected.is_constant(), where
            with pytest.raises(ValueError):
                nonsplit_witness(p, roots)
        else:
            w = nonsplit_witness(p, roots)
            assert w == expected and str(w) == render_by_scalars(field, expected.coeffs), where
            assert w == squarefree_part_by_scalars(w) and not roots_in_field(w)[0], where
            nonsplit += 1
        q = field.characteristic
        if 1 < q < 10:
            powers += all(c == 0 for c in p.coeffs[1::q])
            divisible += any(m % q == 0 for _num, _den, m in roots)
    assert nonsplit > 60
    if 1 < field.characteristic < 10:
        assert powers > 20 and divisible > 50


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7), GF(2**61 - 1)], ids=repr)
def test_rendering_builds_no_field_scalar(field, monkeypatch):
    # str(Poly) writes each coefficient from the integer form; with both
    # from_ints methods refusing, it still matches the scalar rendering
    rng = Random(f"poly-render:{field!r}")
    polys = [P(field), P(field, 1), P(field, -1), P(field, 0, -1), P(field, 2, 0, 1)]
    polys += [_random_poly(rng, field) for _ in range(150)]
    polys += [_planted_poly(rng, field) for _ in range(150)]
    expected = [render_by_scalars(field, p.coeffs) for p in polys]

    def refuse(*_args):
        raise AssertionError("a field scalar was built")

    for cls in (Rationals, PrimeField):
        monkeypatch.setattr(cls, "from_ints", refuse)
    assert [str(p) for p in polys] == expected


def test_roots_over_a_large_prime_and_of_tall_rationals():
    # neither search is feasible for the exhaustive oracle
    f = GF(2**61 - 1)
    planted = [3, 3, 2**60 + 7, 123456789123456789]
    roots, split = roots_in_field(mul_by_scalars(from_roots_by_scalars(f, planted), P(f, 1, 0, 1)))
    assert roots == ((3, 1, 2), (123456789123456789, 1, 1), (2**60 + 7, 1, 1))
    assert not split  # x^2 + 1 is irreducible since 2^61 - 1 = 3 mod 4
    tall = [Fraction(10**12 + 39, 10**6 + 3), Fraction(-(10**10), 7), Fraction(-(10**10), 7)]
    roots, split = roots_in_field(mul_by_scalars(from_roots_by_scalars(QQ, tall), P(QQ, -2, 0, 1)))
    assert roots == ((-(10**10), 7, 2), (10**12 + 39, 10**6 + 3, 1))
    assert not split
