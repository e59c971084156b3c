"""Univariate polynomials over an exact field, with root finding.

Coefficients are stored in ascending order with no trailing zeros, so
the representation is canonical and equality is coefficientwise. Root
finding is deliberately elementary: divisor enumeration over Q after
clearing denominators, exhaustive evaluation over GF(p). General
factorization is out of scope; when a polynomial fails to split, the
typed outcome carries a rootless monic cofactor as witness.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import PrimeField, Rationals


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


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    f = 1
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            if f != n // f:
                out.append(n // f)
        f += 1
    return sorted(out)


def roots_in_field(p: Poly):
    """All roots of ``p`` in its field, with multiplicities.

    Returns ``(roots, split)`` where ``roots`` is a tuple of
    ``(value, multiplicity)`` pairs sorted canonically, and ``split``
    says whether ``p`` is a product of linear factors over the field.
    """
    if p.is_zero():
        raise ValueError("root finding needs a nonzero polynomial")
    field = p.field
    if p.is_constant():
        return (), True

    if isinstance(field, PrimeField):
        candidates = field.elements()
    else:
        # clear denominators, then try +-(divisor of constant)/(divisor of lead)
        denom_lcm = 1
        for c in p.coeffs:
            denom_lcm = denom_lcm * c.denominator // _gcd(denom_lcm, c.denominator)
        ints = [int(c * denom_lcm) for c in p.coeffs]
        k = 0
        while ints[k] == 0:
            k += 1
        candidates = [Fraction(0)] if k > 0 else []
        a0, an = ints[k], ints[-1]
        seen = set()
        for num in _divisors(a0):
            for den in _divisors(an):
                for s in (1, -1):
                    c = Fraction(s * num, den)
                    if c not in seen:
                        seen.add(c)
                        candidates.append(c)

    roots = []
    rem = p
    for c in candidates:
        if rem.is_constant():
            break
        if rem(c) != 0:
            continue
        lin = Poly(field, (-c, field.one()))
        mult = 0
        while True:
            q, r = divmod(rem, lin)
            if not r.is_zero():
                break
            rem = q
            mult += 1
        roots.append((c, mult))
    roots.sort(key=lambda rm: field.element_key(rm[0]))
    split = sum(m for _, m in roots) == p.degree
    return tuple(roots), split


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


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


def rootless_cofactor(p: Poly) -> Poly:
    """Monic cofactor of ``p`` after removing all linear factors over the field."""
    roots, _split = roots_in_field(p)
    rem = p
    for c, mult in roots:
        lin = Poly(p.field, (-c, p.field.one()))
        for _ in range(mult):
            rem = rem // lin
    return rem.monic()


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


def nonsplit_witness(p: Poly) -> Poly:
    """A monic nonconstant factor of ``p`` with no roots in the field.

    Irreducible whenever its degree is at most three; higher degrees may
    still be products of irreducibles (full factorization is a non-goal).
    """
    w = squarefree_part(rootless_cofactor(p))
    if w.is_constant():
        raise ValueError("polynomial splits; no witness exists")
    return w
