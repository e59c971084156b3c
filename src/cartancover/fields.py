"""Exact ground fields: the rationals and prime fields GF(p).

Rational scalars are ``fractions.Fraction`` values (unbounded integers,
always in lowest terms with positive denominator, so equality is exact).
Prime-field scalars are ``Fp`` values holding a least residue in [0, p).
Both representations are canonical per value, so equality of scalars is
exact.

No value the package computes with is a scalar: matrices (the
line-bundle scalars of a cover among them), subspaces, lines,
polynomials and their roots hold a canonical integer form (see
``linalg`` and ``poly``), least residues over GF(p) and over Q integers
over their least common denominator. A field object has one reader into
that form and one writer out of it:

- ``to_ints`` reads every value that enters the package: ints, the
  strings of instance files ("a" or "a/b" over Q, a decimal residue over
  GF(p)) and scalars. A scalar of another field raises
  ``DimensionMismatch``, or the error the caller names; a bool or any
  other value raises ``ParseError``.
- ``render_ints`` writes the form as reports and instance files show it.

``from_ints`` builds scalars from the form only for the scalar views:
``Matrix.rows``, ``Subspace.basis``, ``Matrix.apply``, ``linalg.solve``,
``Subspace.coordinates_of`` and ``Poly.coeffs``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatch, ParseError

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")
_RESIDUE_RE = re.compile(r"^[+-]?\d+$")


# psi_13: the least odd composite that is a strong pseudoprime to every prime
# base up to 41; Miller-Rabin with those bases is exact below it
# (Sorenson-Webster 2015). psi_12 = 318665857834031151167461 passes bases 2..37.
PRIME_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for ``n < PRIME_BOUND``.

    Raises ``ParseError`` at or above the bound, where these bases no
    longer decide primality.
    """
    if n >= PRIME_BOUND:
        raise ParseError(f"modulus {n} is too large: primality is decided below {PRIME_BOUND}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Fp:
    """An element of GF(p), stored as the least residue."""

    __slots__ = ("val", "p")

    def __init__(self, val: int, p: int):
        self.val = val % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                return None
            return other.val
        if isinstance(other, int):
            return other % self.p
        return None

    def __add__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return Fp(self.val + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return Fp(self.val - v, self.p)

    def __rsub__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return Fp(v - self.val, self.p)

    def __mul__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return Fp(self.val * v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        if v == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return Fp(self.val * pow(v, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        if self.val == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return Fp(v * pow(self.val, self.p - 2, self.p), self.p)

    def __neg__(self):
        return Fp(-self.val, self.p)

    def __pow__(self, n: int):
        if n < 0:
            return (Fp(1, self.p) / self) ** (-n)
        return Fp(pow(self.val, n, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.val == other.val
        if isinstance(other, int):
            # only the least residue, so that equality agrees with hashing
            return self.val == other
        return NotImplemented

    def __hash__(self):
        return hash(self.val)

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return f"Fp({self.val}, {self.p})"

    def __str__(self):
        return str(self.val)


def _parse_int(s: str) -> int:
    try:
        return int(s)
    except ValueError:  # more digits than Python's integer-string limit
        raise ParseError(f"integer of {len(s)} characters exceeds the digit limit") from None


def _parse_ratio(s: str) -> tuple:
    """``(num, den)`` of the string "a" or "a/b" as written, not reduced."""
    s = s.strip()
    m = _RATIONAL_RE.match(s)
    if m is None:
        raise ParseError(f"malformed rational {s!r}; expected 'a' or 'a/b'")
    num, den = m.group(1, 2)
    num, den = _parse_int(num), _parse_int(den) if den else 1
    if den == 0:
        raise ParseError(f"malformed rational {s!r}: zero denominator")
    return num, den


def _parse_residue(s: str, p: int) -> int:
    """The least residue mod p of the decimal integer string ``s``."""
    s = s.strip()
    if not _RESIDUE_RE.match(s):
        raise ParseError(f"malformed GF({p}) residue {s!r}")
    return _parse_int(s) % p


class Rationals:
    """The field of rational numbers."""

    characteristic = 0

    def one(self):
        return Fraction(1)

    def to_ints(self, values, foreign=DimensionMismatch) -> tuple:
        """``(den, ints)``, the canonical integer form of ``values``:
        ``values[j] == ints[j] / den`` over the least common denominator.
        A value is an int, a string "a" or "a/b" or a rational scalar. A
        scalar of a prime field raises ``foreign``, any other value
        ``ParseError``."""
        pairs = [_parse_ratio(x) if type(x) is str else self._ratio(x, foreign) for x in values]
        den = lcm(*[d for _, d in pairs])
        ints = [n * (den // d) for n, d in pairs]
        # a string such as "6/4" is not reduced: one division by the common
        # factor leaves gcd(den, ints) = 1, which is the canonical form
        g = gcd(den, *ints)
        if g != 1:
            den //= g
            ints = [x // g for x in ints]
        return den, ints

    def _ratio(self, x, foreign) -> tuple:
        if isinstance(x, bool):
            raise ParseError("booleans are not rational scalars")
        if isinstance(x, (int, Fraction)):
            return x.numerator, x.denominator
        if isinstance(x, str):
            return _parse_ratio(x)
        if isinstance(x, Fp):
            raise foreign(f"scalar {x!r} is not an element of Q")
        raise ParseError(f"cannot interpret {x!r} as a rational number")

    def from_ints(self, ints, den: int) -> tuple:
        """The scalars ``ints[j] / den``."""
        return tuple(Fraction(x, den) for x in ints)

    def render_ints(self, ints, den: int) -> list:
        """The string of each scalar ``ints[j] / den``: "a" or "a/b" in
        lowest terms."""
        if den == 1:
            return [str(x) for x in ints]
        out = []
        for x in ints:
            g = gcd(x, den)
            out.append(str(x // g) if g == den else f"{x // g}/{den // g}")
        return out

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField:
    """The field GF(p) for a prime p."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ParseError(f"modulus {p} is not prime")
        self.p = p
        self.characteristic = p

    def one(self):
        return Fp(1, self.p)

    def to_ints(self, values, foreign=DimensionMismatch) -> tuple:
        """``(1, residues)``, the canonical integer form of ``values``: their
        least residues. A value is an int, a decimal integer string or a
        scalar of this field. A rational or a scalar of another prime field
        raises ``foreign``, any other value ``ParseError``."""
        p = self.p
        return 1, [x % p if type(x) is int else self._residue(x, foreign) for x in values]

    def _residue(self, x, foreign) -> int:
        if isinstance(x, bool):
            raise ParseError("booleans are not prime-field scalars")
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, str):
            return _parse_residue(x, self.p)
        if isinstance(x, Fp) and x.p == self.p:
            return x.val
        if isinstance(x, (Fraction, Fp)):
            raise foreign(f"scalar {x!r} is not an element of GF({self.p})")
        raise ParseError(f"cannot interpret {x!r} as an element of GF({self.p})")

    def from_ints(self, ints, den: int) -> tuple:
        """The scalars ``ints[j] / den``."""
        p = self.p
        inv = pow(den, -1, p)
        return tuple(Fp(x * inv, p) for x in ints)

    def render_ints(self, ints, den: int) -> list:
        """The string of each scalar ``ints[j] / den``: its least residue."""
        p = self.p
        if den % p != 1:
            inv = pow(den, -1, p)
            ints = [x * inv for x in ints]
        return [str(x % p) for x in ints]

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = Rationals()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_from_json(obj) -> Rationals | PrimeField:
    """Build a field from the instance-file descriptor."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError("field descriptor must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "Q":
        return QQ
    if kind == "Fp":
        if "p" not in obj or not isinstance(obj["p"], int):
            raise ParseError("prime field descriptor needs an integer 'p'")
        return PrimeField(obj["p"])
    raise ParseError(f"unknown field kind {kind!r}")


def field_to_json(field) -> dict:
    if isinstance(field, Rationals):
        return {"kind": "Q"}
    return {"kind": "Fp", "p": field.p}


def field_label(field) -> str:
    return "Q" if isinstance(field, Rationals) else f"F{field.p}"
