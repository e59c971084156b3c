"""Parabolic structure on the pushforward of a line bundle along a ramified cover.

The cover of curves is given purely combinatorially: base genus, degree,
component degrees, and per branch point the ramification profile with a
component assignment and an optional weight on each sheet. Over a branch
point, a sheet of multiplicity b with weight w contributes a complete
local flag whose step l carries weight (l + w)/b; merging all sheets (and
any unramified parabolic sheets) gives the weighted filtration of the
pushforward fiber. The degree and the genus of each component come out
of the ramification count, and the parabolic degree is conserved by the
pushforward, which the toolkit checks exactly.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .errors import DimensionMismatch, NegativeGenus, NonIntegralGenus, ParseError
from .fields import QQ


def parse_weight(w) -> Fraction:
    """Coerce to an exact rational parabolic weight in [0, 1)."""
    if isinstance(w, bool):
        raise ParseError("booleans are not parabolic weights")
    if isinstance(w, float):
        raise ParseError("parabolic weights must be exact rationals, not floats")
    if isinstance(w, str):
        den, (num,) = QQ.to_ints([w])
        w = Fraction(num, den)
    else:
        try:
            w = Fraction(w)
        except (TypeError, ValueError):
            raise ParseError(f"cannot interpret {w!r} as a parabolic weight") from None
    if not 0 <= w < 1:
        raise ParseError(f"parabolic weight {w} outside [0, 1)")
    return w


def _parsed(w) -> Fraction:
    """``w`` itself when it is a parsed weight already, as the instance
    reader and validation return them, else ``parse_weight(w)``."""
    return w if type(w) is Fraction and 0 <= w < 1 else parse_weight(w)


class RamifiedSheet(NamedTuple):
    """One point of the fiber over a branch point."""

    multiplicity: int
    weight: Fraction
    component: int


class BranchPoint(NamedTuple):
    sheets: tuple


class RamifiedCoverData(NamedTuple):
    """A ramified cover of curves with weighted parabolic data upstairs.

    ``component_degrees`` lists the degree of each component of the cover;
    ``extra_parabolic_points`` are base points outside the branch locus,
    each carrying one weight per sheet of the full fiber.
    """

    base_genus: int
    degree: int
    component_degrees: tuple
    branch_points: tuple
    extra_parabolic_points: tuple = ()

    def validate(self) -> tuple:
        """Check the data and return ``(branch, extra, ramification)``: per
        branch point and per extra parabolic point its weights parsed, one
        per sheet, and per component the total of b - 1 over its sheets."""
        if self.base_genus < 0:
            raise ParseError("base genus must be nonnegative")
        if self.degree < 1:
            raise ParseError("degree must be positive")
        if sum(self.component_degrees) != self.degree or any(k < 1 for k in self.component_degrees):
            raise ParseError("component degrees must be positive and sum to the degree")
        c = len(self.component_degrees)
        branch = []
        ramification = [0] * c
        for bp in self.branch_points:
            if sum(s.multiplicity for s in bp.sheets) != self.degree:
                raise DimensionMismatch("branch profile must sum to the degree")
            weights = []
            for s in bp.sheets:
                if s.multiplicity < 1:
                    raise ParseError("sheet multiplicities must be positive")
                if not 0 <= s.component < c:
                    raise ParseError("sheet assigned to a nonexistent component")
                weights.append(_parsed(s.weight))
                ramification[s.component] += s.multiplicity - 1
            branch.append(tuple(weights))
            for j, dj in enumerate(self.component_degrees):
                got = sum(s.multiplicity for s in bp.sheets if s.component == j)
                if got != dj:
                    raise DimensionMismatch(
                        f"component {j} collects multiplicity {got}, needs {dj}"
                    )
        extra = []
        for weights in self.extra_parabolic_points:
            if len(weights) != self.degree:
                raise DimensionMismatch("one weight per sheet required away from branching")
            extra.append(tuple(_parsed(w) for w in weights))
        for j, r in enumerate(ramification):
            if r % 2 != 0:
                raise NonIntegralGenus(f"component {j} has odd total ramification")
        return tuple(branch), tuple(extra), tuple(ramification)


def local_flags(multiplicity: int, weight) -> tuple:
    """The step weights of the complete flag of a sheet of multiplicity b
    with weight w: step l, the span of the last b - l coordinates, carries
    (l + w)/b, which increases strictly with l and stays inside [0, 1)."""
    b = int(multiplicity)
    if b < 1:
        raise DimensionMismatch("multiplicity must be positive")
    w = _parsed(weight)
    return tuple((level + w) / b for level in range(b))


class WeightedFiltration(NamedTuple):
    """Decreasing (weight, dimension-jump) pairs with positive jumps."""

    jumps: tuple

    def is_trivial(self) -> bool:
        return all(w == 0 for w, _j in self.jumps)


def merge_fiber_filtration(flags, unramified_weights, rank: int) -> WeightedFiltration:
    """Merge per-sheet weight data into one filtration of the fiber.

    Each ramified sheet's flag, the tuple of its step weights, contributes
    one line per step at that step's weight; each unramified parabolic
    sheet contributes its single line. Jumps at equal weights add up, and
    the result is sorted by strictly decreasing weight.
    """
    tally = Counter(w for flag in flags for w in flag)
    tally.update(map(_parsed, unramified_weights))
    total = sum(tally.values())
    if total != rank:
        raise DimensionMismatch(f"fiber data spans dimension {total}, rank is {rank}")
    return WeightedFiltration(tuple(sorted(tally.items(), reverse=True)))


class GenusReport(NamedTuple):
    per_component: tuple
    total: int


def riemann_hurwitz_genus(data: RamifiedCoverData) -> GenusReport:
    """Per-component genus from 2g - 2 = deg * (2g_X - 2) + total ramification."""
    return _genus(data, data.validate()[2])


def _genus(data: RamifiedCoverData, ramification: tuple) -> GenusReport:
    """The genera of validated data from its per-component ramification,
    which validation made even, so 2g - 2 is."""
    out = []
    for j, (dj, r) in enumerate(zip(data.component_degrees, ramification)):
        g = (dj * (2 * data.base_genus - 2) + r) // 2 + 1
        if g < 0:
            raise NegativeGenus(f"component {j} would have genus {g}")
        out.append(g)
    return GenusReport(tuple(out), sum(out))


def degree_direct_image(data: RamifiedCoverData, line_degree: int) -> int:
    """Degree of the pushforward: the line-bundle degree less half the
    total ramification (see ``check_pardeg_conservation``)."""
    return check_pardeg_conservation(data, line_degree).pushforward.degree


class ParabolicPoint(NamedTuple):
    label: str
    filtration: WeightedFiltration


class ParabolicBundleData(NamedTuple):
    """The pushforward with its induced parabolic structure."""

    degree: int
    rank: int
    points: tuple


def pushforward_parabolic(data: RamifiedCoverData, line_degree: int) -> ParabolicBundleData:
    """Assemble the parabolic pushforward from degrees, flags, and merges.

    Branch points are labeled b0, b1, ... and extra parabolic points
    u0, u1, ...; points whose filtration carries only weight zero are
    not part of the parabolic divisor.
    """
    return check_pardeg_conservation(data, line_degree).pushforward


def parabolic_degree(bundle: ParabolicBundleData) -> Fraction:
    """Underlying degree plus the weighted sum of all dimension jumps."""
    jumps = (w * j for point in bundle.points for w, j in point.filtration.jumps)
    return sum(jumps, Fraction(bundle.degree))


class ConservationReport(NamedTuple):
    """Both parabolic degrees, with the pushforward and the genus report
    of the data they were computed from."""

    upstairs: Fraction
    downstairs: Fraction
    pushforward: ParabolicBundleData
    genus: GenusReport

    @property
    def equal(self) -> bool:
        return self.upstairs == self.downstairs


def check_pardeg_conservation(data: RamifiedCoverData, line_degree: int) -> ConservationReport:
    """Parabolic degree upstairs equals parabolic degree of the pushforward.

    The one pass over the data that the other entries read their results
    off: one validation, whose parsed weights the flags, the merges and
    the upstairs degree reuse and whose ramification sums the genus and
    the degree reuse, then the parabolic points and both parabolic degrees.

    The degree is L - R/2 for a line bundle of degree L and a total
    ramification R, which validation made even. Riemann-Hurwitz gives
    g_j = d_j (g_X - 1) + R_j/2 + 1 on each component, so the Euler route
    L + sum_j (1 - g_j) - d (1 - g_X) is L - R/2 too.
    """
    branch, extra, ramification = data.validate()
    genus = _genus(data, ramification)
    points = []
    for i, (bp, ws) in enumerate(zip(data.branch_points, branch)):
        flags = [local_flags(s.multiplicity, w) for s, w in zip(bp.sheets, ws)]
        filt = merge_fiber_filtration(flags, (), data.degree)
        if not filt.is_trivial():
            points.append(ParabolicPoint(f"b{i}", filt))
    for i, ws in enumerate(extra):
        filt = merge_fiber_filtration((), ws, data.degree)
        if not filt.is_trivial():
            points.append(ParabolicPoint(f"u{i}", filt))
    degree = line_degree - sum(ramification) // 2
    pushforward = ParabolicBundleData(degree, data.degree, tuple(points))
    upstairs = sum((w for ws in (*branch, *extra) for w in ws), Fraction(line_degree))
    return ConservationReport(upstairs, parabolic_degree(pushforward), pushforward, genus)
