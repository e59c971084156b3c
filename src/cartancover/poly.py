"""Univariate polynomials over an exact field, with root finding.

Coefficients are stored in ascending order with no trailing zeros, so
the representation is canonical and equality is coefficientwise. Root
finding works on plain-int coefficient lists and costs polynomial time
in the degree, in log p and in the coefficient height: over GF(p) it
splits gcd(f, x^p - x) by Cantor-Zassenhaus equal-degree splitting with
deterministic shifts, and over Q it Hensel-lifts the roots of the
squarefree part modulo a good prime and reads each rational off a
symmetric residue. Every candidate is then certified by exact
evaluation. General factorization is out of scope; when a polynomial
fails to split, ``nonsplit_witness`` divides out the roots already found
and keeps a rootless monic factor as witness.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .fields import Fp, PrimeField, Rationals, is_prime


class Poly:
    """A polynomial with exact coefficients, canonical form."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = [field.coerce(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def constant(cls, field, c):
        return cls(field, (c,))

    @classmethod
    def from_roots(cls, field, roots):
        p = cls(field, (field.one(),))
        for r in roots:
            p = p * cls(field, (-field.coerce(r), field.one()))
        return p

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def lead(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        c = self.lead()
        return Poly(self.field, tuple(a / c for a in self.coeffs))

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.field.zero()
        a = list(self.coeffs) + [z] * (n - len(self.coeffs))
        b = list(other.coeffs) + [z] * (n - len(other.coeffs))
        return Poly(self.field, [x + y for x, y in zip(a, b)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.field)
        z = self.field.zero()
        out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    def scale(self, c):
        c = self.field.coerce(c)
        return Poly(self.field, [a * c for a in self.coeffs])

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        field = self.field
        rem = list(self.coeffs)
        q = [field.zero()] * max(0, len(rem) - len(other.coeffs) + 1)
        inv_lead = field.one() / other.lead()
        d = other.degree
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i] * inv_lead
            if c == 0:
                continue
            q[i - d] = c
            for j, b in enumerate(other.coeffs):
                rem[i - d + j] = rem[i - d + j] - c * b
        return Poly(field, q), Poly(field, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def derivative(self) -> "Poly":
        if self.degree < 1:
            return Poly.zero(self.field)
        one = self.field.one()
        out = []
        k = self.field.zero()
        for c in self.coeffs[1:]:
            k = k + one
            out.append(k * c)
        return Poly(self.field, out)

    def __call__(self, x):
        x = self.field.coerce(x)
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return f"Poly({self.field!r}, {self!s})"

    def __str__(self):
        if self.is_zero():
            return "0"
        field = self.field
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if isinstance(field, Rationals):
                neg = c < 0
                mag = -c if neg else c
            else:
                neg = False
                mag = c
            mag_s = field.render(mag)
            if k == 0:
                term = mag_s
            else:
                xk = "x" if k == 1 else f"x^{k}"
                term = xk if mag == 1 else f"{mag_s}*{xk}"
            if not parts:
                parts.append(("-" if neg else "") + term)
            else:
                parts.append(("- " if neg else "+ ") + term)
        return " ".join(parts)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


def roots_in_field(p: Poly):
    """All roots of ``p`` in its field, with multiplicities.

    Returns ``(roots, split)`` where ``roots`` is a tuple of
    ``(value, multiplicity)`` pairs sorted canonically, and ``split``
    says whether ``p`` is a product of linear factors over the field.

    The candidates come from ``_gf_roots`` over GF(p) and from
    ``_rational_root_candidates`` over Q. Neither enumerates field
    elements or divisors, so the cost is polynomial in the degree, in
    log p and in the coefficient height. Each candidate is then
    evaluated exactly and its linear factor divided out as often as it
    divides, which certifies every root and its multiplicity.
    """
    if p.is_zero():
        raise ValueError("root finding needs a nonzero polynomial")
    field = p.field
    if p.is_constant():
        return (), True

    if isinstance(field, PrimeField):
        candidates = [Fp(r, field.p) for r in _gf_roots([c.val for c in p.coeffs], field.p)]
    else:
        candidates = _rational_root_candidates(p.coeffs)

    roots = []
    rem = list(p.coeffs)
    for c in candidates:
        mult = 0
        while len(rem) > 1:
            quo, value = _divide_by_linear(rem, c)
            if value != 0:
                break
            rem = quo
            mult += 1
        if mult:
            roots.append((c, mult))
    roots.sort(key=lambda rm: field.element_key(rm[0]))
    split = sum(m for _, m in roots) == p.degree
    return tuple(roots), split


def _divide_by_linear(a: list, c) -> tuple:
    """Quotient of ``a`` by x - c and the value of ``a`` at c (Horner)."""
    acc = a[-1]
    quo = []
    for coeff in a[-2::-1]:
        quo.append(acc)
        acc = coeff + c * acc
    quo.reverse()
    return quo, acc


# --- plain-int polynomials ----------------------------------------------------------
#
# Ascending integer coefficient lists with no trailing zeros, as in ``Poly``;
# the empty list is the zero polynomial. Over GF(p) the entries are least
# residues.


def _trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _gf_monic(a: list, p: int) -> list:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gf_mul(a: list, b: list, p: int) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % p for c in out]


def _gf_divmod(a: list, b: list, p: int) -> tuple:
    """Quotient and remainder of ``a`` by the monic ``b``."""
    rem = list(a)
    db = len(b) - 1
    quo = [0] * max(0, len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] % p
        if c:
            quo[i - db] = c
            for j in range(db):
                rem[i - db + j] -= c * b[j]
    return quo, _trim([c % p for c in rem[:db]])


def _gf_gcd(a: list, b: list, p: int) -> list:
    """Monic gcd of the nonzero ``a`` and ``b``."""
    while b:
        a, b = b, _gf_divmod(a, _gf_monic(b, p), p)[1]
    return _gf_monic(a, p)


def _gf_pow_linear_mod(a: int, n: int, f: list, p: int) -> list:
    """``(x + a)^n`` for a residue ``a`` and ``n >= 1``, modulo the monic
    ``f`` of degree at least 2.

    Left-to-right repeated squaring: a step by x + a is a shift, an
    addition and one reduction.
    """
    top = len(f) - 1
    out = [a, 1]
    for bit in bin(n)[3:]:
        out = _gf_divmod(_gf_mul(out, out, p), f, p)[1]
        if bit == "1":
            step = [0] + out
            for i, c in enumerate(out):
                step[i] += a * c
            if len(step) > top:
                c = step.pop()
                for j in range(top):
                    step[j] -= c * f[j]
            out = _trim([c % p for c in step])
    return out


def _gf_roots(f: list, p: int) -> list:
    """The distinct roots in GF(p) of the nonconstant ``f``.

    They are the roots of g = gcd(f, x^p - x), the product of the distinct
    linear factors of f; x^p mod f takes O(log p) products.
    """
    f = _gf_monic(f, p)
    if len(f) == 2:
        return [-f[0] % p]
    xp = _gf_pow_linear_mod(0, p, f, p) + [0, 0]
    xp[1] -= 1
    return _gf_split(_gf_gcd(f, _trim([c % p for c in xp]), p), p)


def _gf_split(g: list, p: int) -> list:
    """The roots of the monic ``g``, a product of distinct linear factors.

    Equal-degree splitting (Cantor-Zassenhaus): for a shift a, the roots
    r with r + a a nonzero square are the roots of
    gcd(g, (x + a)^((p - 1)/2) - 1). Two distinct roots r, s fall on
    different sides for some a in GF(p), since (r + a)/(s + a) takes every
    value but 1, so the deterministic shifts a = 1, 2, ... split g.
    """
    if len(g) <= 2:
        return [-g[0] % p] if len(g) == 2 else []
    if p == 2:
        # the one squarefree split quadratic over GF(2) is x^2 + x
        return [0, 1]
    half = (p - 1) // 2
    a = 1
    while True:
        s = _gf_pow_linear_mod(a % p, half, g, p) + [0]
        s[0] -= 1
        h = _gf_gcd(g, _trim([c % p for c in s]), p)
        if 1 < len(h) < len(g):
            return _gf_split(h, p) + _gf_split(_gf_divmod(g, h, p)[0], p)
        a += 1


def _rational_root_candidates(coeffs) -> list:
    """Rationals among which lie all roots over Q of the polynomial.

    With denominators cleared and the factor x^k split off (root 0), a
    root a/b of the primitive squarefree part g has b | lc(g) and
    a | g(0). Modulo a prime q dividing neither lc(g) nor the
    discriminant, a/b reduces to a simple root of g mod q, which Newton
    iteration lifts to a root mod m = q^(2^i) > 2 |lc(g) g(0)|; then
    lc(g) a/b is the symmetric residue of lc(g) times the lifted root.
    """
    denom = 1
    for c in coeffs:
        denom = math.lcm(denom, c.denominator)
    ints = [c.numerator * (denom // c.denominator) for c in coeffs]
    k = next(i for i, c in enumerate(ints) if c)
    candidates = [Fraction(0)] if k else []
    g = _zz_squarefree(ints[k:])
    if len(g) == 2:
        return candidates + [Fraction(-g[0], g[1])]
    if len(g) < 2:
        return candidates
    lc, dg = g[-1], _zz_derivative(g)
    q = _good_prime(g, dg)
    lifted = _gf_roots([c % q for c in g], q)
    bound, m = 2 * abs(lc * g[0]), q
    while m <= bound:
        m *= m
        lifted = [(r - _zz_eval(g, r, m) * pow(_zz_eval(dg, r, m), -1, m)) % m for r in lifted]
    for r in lifted:
        s = lc * r % m
        candidates.append(Fraction(s - m if 2 * s > m else s, lc))
    return candidates


def _good_prime(g: list, dg: list) -> int:
    """The least prime q not dividing lc(g) with g mod q squarefree.

    g is squarefree over Q, so only the finitely many primes dividing
    lc(g) times its discriminant are passed over.
    """
    q = 2
    while True:
        if g[-1] % q:
            dq = _trim([c % q for c in dg])
            if dq and len(_gf_gcd([c % q for c in g], dq, q)) == 1:
                return q
        q += 1
        while not is_prime(q):
            q += 1


def _zz_eval(a: list, x: int, m: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % m
    return acc


def _zz_derivative(a: list) -> list:
    return [i * c for i, c in enumerate(a)][1:]


def _zz_primitive(a: list) -> list:
    """The nonzero ``a`` divided by its content, with positive leading coefficient."""
    content = math.gcd(*a)
    return [c // content for c in a] if a[-1] > 0 else [-c // content for c in a]


def _zz_squarefree(a: list) -> list:
    """The primitive squarefree part a / gcd(a, a') of the nonzero ``a``."""
    a = _zz_primitive(a)
    if len(a) <= 2:
        return a
    # primitive remainder sequence: ends in gcd(a, a') up to a constant
    g, b = a, _zz_primitive(_zz_derivative(a))
    while len(b) > 1:
        g, b = b, _zz_pseudo_rem(g, b)
        if b:
            b = _zz_primitive(b)
    return a if b else _zz_exact_quo(a, g)


def _zz_pseudo_rem(a: list, b: list) -> list:
    """A remainder of ``a`` by ``b`` in Z[x], up to a power of lc(b)."""
    rem = list(a)
    lb, db = b[-1], len(b) - 1
    while len(rem) > db:
        c, shift = rem[-1], len(rem) - 1 - db
        rem = [x * lb for x in rem]
        for j, y in enumerate(b):
            rem[shift + j] -= c * y
        _trim(rem)
    return rem


def _zz_exact_quo(a: list, b: list) -> list:
    """``a`` divided by its primitive factor ``b``: in Z[x] by Gauss's lemma."""
    rem = list(a)
    lb, db = b[-1], len(b) - 1
    quo = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i] // lb
        quo[i - db] = c
        for j, y in enumerate(b):
            rem[i - db + j] -= c * y
    return _zz_primitive(quo)


def squarefree_no_guard(p: Poly) -> bool:
    """Squarefreeness over Q or GF(p), valid in every degree.

    Over a prime field a vanishing derivative forces the polynomial to
    be a p-th power (Frobenius fixes GF(p)), hence not squarefree when
    nonconstant; otherwise gcd with the derivative decides.
    """
    if p.is_zero():
        raise ValueError("squarefreeness of the zero polynomial is undefined")
    if p.is_constant():
        return True
    d = p.derivative()
    if d.is_zero():
        return False
    return poly_gcd(p, d).is_constant()


def squarefree_part(p: Poly) -> Poly:
    """A monic squarefree nonconstant divisor of a nonconstant ``p``.

    Over GF(q), a polynomial with zero derivative is a q-th power whose
    base divides it, so the reduction recurses on the base. Factors whose
    multiplicity is divisible by the characteristic may be dropped; the
    result is only guaranteed to be a squarefree divisor.
    """
    if p.is_constant():
        return p.monic()
    d = p.derivative()
    if d.is_zero():
        field = p.field
        if not isinstance(field, PrimeField):
            raise ValueError(f"nonconstant {p} has zero derivative outside characteristic p")
        base = Poly(field, p.coeffs[:: field.p])
        return squarefree_part(base)
    g = poly_gcd(p, d)
    if g.is_constant():
        return p.monic()
    return squarefree_part(p // g)


def nonsplit_witness(p: Poly, roots) -> Poly:
    """A monic nonconstant factor of ``p`` with no roots in the field: the
    squarefree part of ``p`` with ``roots`` (as ``roots_in_field`` gives
    them, which the caller already holds) divided out.

    Irreducible whenever its degree is at most three; higher degrees may
    still be products of irreducibles (full factorization is a non-goal).
    """
    linear = Poly.from_roots(p.field, [c for c, mult in roots for _ in range(mult)])
    w = squarefree_part(p // linear)
    if w.is_constant():
        raise ValueError("polynomial splits; no witness exists")
    return w
