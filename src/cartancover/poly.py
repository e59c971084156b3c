"""Univariate polynomials over Q and GF(p) in canonical integer form,
with root finding.

A polynomial holds one form, like ``linalg.Matrix``: ascending integer
coefficients ``ints`` with no trailing zeros over a positive ``den``, the
coefficients being ``ints[k] / den``. Over GF(p) the ints are least
residues and ``den`` is 1; over Q ``den`` is the least common denominator,
so gcd(den, every coefficient) = 1. The form is unique, so equality reads
it, and field scalars are built (``coeffs``) only for rendering and for
callers that read coefficients. Roots are integer pairs num / den too.

All arithmetic runs on plain-int coefficient lists, in the dense style of
sympy's ``galoistools``: the ``_gf_*`` kernels on residues and the ``_zz_*``
kernels in Z[x]. Root finding costs polynomial time in the degree, in
log p and in the coefficient height: over GF(p) it splits
gcd(f, x^p - x) by Cantor-Zassenhaus equal-degree splitting with
deterministic shifts, and over Q it Hensel-lifts the roots of the
squarefree part modulo a good prime and reads each rational off a
symmetric residue. Every candidate num/den is then certified by exact
division by den x - num, on residues over GF(p) and in Z[x] over Q, where
Gauss's lemma makes the quotient integral. General factorization is out
of scope; when a polynomial fails to split, ``nonsplit_witness`` divides
out the roots already found and keeps a rootless monic factor as witness.
"""

from __future__ import annotations

import math

from .fields import is_prime


class Poly:
    """A polynomial over a fixed field, in canonical integer form."""

    __slots__ = ("field", "den", "ints")

    def __init__(self, field, coeffs):
        self.field = field
        self.den, ints = field.to_ints(coeffs)
        self.ints = tuple(_trim(ints))

    @classmethod
    def _make(cls, field, den: int, ints: list) -> "Poly":
        """The polynomial with coefficients ``ints[k] / den`` for a nonzero
        ``den``, brought to the canonical form."""
        p = field.characteristic
        if p:
            inv = pow(den, -1, p)
            ints, den = [c * inv % p for c in ints], 1
        else:
            g = math.gcd(den, *ints) if den > 0 else -math.gcd(den, *ints)
            ints, den = [c // g for c in ints], den // g
        poly = object.__new__(cls)
        poly.field = field
        poly.den = den
        poly.ints = tuple(_trim(ints))
        return poly

    @property
    def coeffs(self) -> tuple:
        """The coefficients as field scalars, ascending, built on each read."""
        return self.field.from_ints(self.ints, self.den)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.ints) - 1

    def is_zero(self) -> bool:
        return not self.ints

    def is_constant(self) -> bool:
        return len(self.ints) <= 1

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.den == other.den
            and self.ints == other.ints
        )

    def __hash__(self):
        # the form is canonical, so equal polynomials hash equal
        return hash((self.field, self.den, self.ints))

    def __repr__(self):
        return f"Poly({self.field!r}, {self!s})"

    def __str__(self):
        if self.is_zero():
            return "0"
        # over Q ``den`` > 0, so the integer carries the sign of the
        # coefficient; over GF(p) the residues are nonnegative
        mags = self.field.render_ints([abs(n) for n in self.ints], self.den)
        text = ""
        for k in range(self.degree, -1, -1):
            n = self.ints[k]
            if not n:
                continue
            if k == 0:
                term = mags[k]
            else:
                xk = "x" if k == 1 else f"x^{k}"
                term = xk if abs(n) == self.den else f"{mags[k]}*{xk}"
            text += (" - " if n < 0 else " + ") + term
        return ("-" if text[1] == "-" else "") + text[3:]


def roots_in_field(p: Poly):
    """All roots of ``p`` in its field, with multiplicities.

    Returns ``(roots, split)`` where ``roots`` is a tuple of
    ``(num, den, multiplicity)`` triples, one per root num / den, sorted
    by value, and ``split`` says whether ``p`` is a product of linear
    factors over the field. Over Q num / den is in lowest terms with
    den > 0; over GF(p) num is the least residue and den is 1. No field
    scalar is built.

    The candidates come from ``_gf_roots`` over GF(p) and from
    ``_rational_root_candidates`` over Q. Neither enumerates field
    elements or divisors, so the cost is polynomial in the degree, in
    log p and in the coefficient height. The linear factor of each
    candidate is then divided out exactly as often as it divides
    (``_divide_linear``), which certifies every root and its multiplicity.
    """
    if p.is_zero():
        raise ValueError("root finding needs a nonzero polynomial")
    if p.is_constant():
        return (), True
    q = p.field.characteristic
    if q:
        candidates = [(r, 1) for r in _gf_roots(p.ints, q)]
    else:
        candidates = _rational_root_candidates(p.ints)
    roots = []
    rem = p.ints
    for num, den in candidates:
        mult = 0
        while len(rem) > 1:
            quo = _divide_linear(rem, num, den, q)
            if quo is None:
                break
            rem = quo
            mult += 1
        if mult:
            roots.append((num, den, mult))
    # num / den compares as the integer num (top / den), top the lcm of the dens
    top = math.lcm(*[den for _num, den, _mult in roots])
    roots.sort(key=lambda root: root[0] * (top // root[1]))
    split = sum(mult for _num, _den, mult in roots) == p.degree
    return tuple(roots), split


def coefficient_product(a: list, b: list, p: int) -> list:
    """The product of two nonzero ascending integer coefficient lists: on
    residues in GF(p)[x], and made primitive in Z[x] when p is 0, which
    keeps the same polynomial up to a unit scale."""
    out = _gf_mul(a, b, p)
    return out if p else _zz_primitive(out)


def squarefree_no_guard(p: Poly) -> bool:
    """Squarefreeness over Q or GF(p), valid in every degree: ``p`` is
    squarefree exactly when ``_squarefree`` keeps its whole degree."""
    if p.is_zero():
        raise ValueError("squarefreeness of the zero polynomial is undefined")
    return len(_squarefree(p.ints, p.field.characteristic)) == len(p.ints)


def nonsplit_witness(p: Poly, roots) -> Poly:
    """A monic nonconstant factor of ``p`` with no roots in the field: the
    squarefree part of ``p`` with ``roots`` (the ``(num, den, multiplicity)``
    triples of ``roots_in_field``, which the caller already holds) divided out.

    Irreducible whenever its degree is at most three; higher degrees may
    still be products of irreducibles (full factorization is a non-goal).
    """
    field = p.field
    q = field.characteristic
    rem = p.ints
    for num, den, mult in roots:
        for _ in range(mult):
            rem = _divide_linear(rem, num, den, q)
            if rem is None:
                root = field.render_ints([num], den)[0]
                raise ValueError(f"{root} is not a root of {p} of multiplicity {mult}")
    w = _squarefree(rem, q)
    if len(w) <= 1:
        raise ValueError("polynomial splits; no witness exists")
    return Poly._make(field, w[-1], w)


# --- plain-int polynomials ----------------------------------------------------------
#
# Ascending integer coefficient lists (or the tuples ``Poly.ints``) with no
# trailing zeros; the empty list is the zero polynomial. Over GF(p) the
# entries are least residues, and ``p`` == 0 stands for Q, whose
# polynomials are integer multiples of rational ones.


def _divide_linear(a, num: int, den: int, p: int) -> list | None:
    """The quotient of the nonconstant ``a`` by den x - num, or None when it
    does not divide ``a``.

    Over GF(p) ``den`` is 1 and the division runs on residues. Over Q,
    num/den is in lowest terms, so den x - num is primitive and, by
    Gauss's lemma, divides ``a`` in Q[x] only with a quotient in Z[x]: a
    coefficient that den does not divide rules the root out.
    """
    quo = [0] * (len(a) - 1)
    carry = 0
    for i in range(len(a) - 1, 0, -1):
        if p:
            c = (a[i] + carry) % p
        else:
            c, r = divmod(a[i] + carry, den)
            if r:
                return None
        quo[i - 1] = c
        carry = num * c
    value = a[0] + carry
    return None if (value % p if p else value) else quo


def _squarefree(a, p: int) -> list:
    """A squarefree divisor of the nonzero ``a`` with the same degree
    exactly when ``a`` is squarefree.

    Over Q it is the primitive a / gcd(a, a'), with every root of ``a``.
    Over GF(p) a vanishing derivative makes ``a`` = f(x^p), which is f^p
    since Frobenius fixes GF(p), and the reduction goes on with f;
    otherwise ``a`` is divided by gcd(a, a') until that gcd is constant.
    Factors whose multiplicity is divisible by p may be dropped, so over
    GF(p) the result is only guaranteed to be a squarefree divisor.
    """
    if not p:
        return _zz_squarefree(list(a))
    while len(a) > 1:
        d = _trim([c % p for c in _zz_derivative(a)])
        if not d:
            a = a[::p]
            continue
        g = _gf_gcd(a, d, p)
        if len(g) == 1:
            break
        a = _gf_divmod(a, g, p)[0]
    return list(a)


def _trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _gf_monic(a: list, p: int) -> list:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gf_mul(a: list, b: list, p: int) -> list:
    """The product in GF(p)[x], or in Z[x] unreduced when p is 0."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % p for c in out] if p else out


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


def _rational_root_candidates(ints) -> list:
    """Pairs ``(num, den)``, in lowest terms with den > 0, among whose
    rationals num / den lie all roots over Q of the polynomial with the
    integer coefficients ``ints``.

    With the factor x^k split off (root 0), a root a/b of the primitive
    squarefree part g has b | lc(g) and a | g(0). Modulo a prime q dividing neither lc(g) nor the
    discriminant, a/b reduces to a simple root of g mod q, which Newton
    iteration lifts to a root mod m = q^(2^i) > 2 |lc(g) g(0)|; then
    lc(g) a/b is the symmetric residue of lc(g) times the lifted root.
    """
    k = next(i for i, c in enumerate(ints) if c)
    candidates = [(0, 1)] if k else []
    # g is primitive with a positive leading coefficient
    g = _zz_squarefree(ints[k:])
    if len(g) == 2:
        return candidates + [(-g[0], g[1])]
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
        num = s - m if 2 * s > m else s
        c = math.gcd(num, lc)
        candidates.append((num // c, lc // c))
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
