"""Parabolic structure on the pushforward of a line bundle along a ramified cover.

The cover of curves is given purely combinatorially: base genus, degree,
component degrees, and per branch point the ramification profile with a
component assignment and an optional weight on each sheet. Over a branch
point, a sheet of multiplicity b with weight w contributes a complete
local flag whose step l carries weight (l + w)/b; merging all sheets (and
any unramified parabolic sheets) gives the weighted filtration of the
pushforward fiber. Degrees come out of the Euler characteristic and the
genus of each component out of the ramification count, and the parabolic
degree is conserved by the pushforward, which the toolkit checks exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import DegreeMismatch, DimensionMismatch, NegativeGenus, NonIntegralGenus, ParseError
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
        """Check the data and return its weights parsed, ``(branch, extra)``:
        per branch point and per extra parabolic point, one weight per sheet."""
        if self.base_genus < 0:
            raise ParseError("base genus must be nonnegative")
        if self.degree < 1:
            raise ParseError("degree must be positive")
        if sum(self.component_degrees) != self.degree or any(
            k < 1 for k in self.component_degrees
        ):
            raise ParseError("component degrees must be positive and sum to the degree")
        c = len(self.component_degrees)
        branch = []
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
        for j in range(c):
            if self.ramification_sum(j) % 2 != 0:
                raise NonIntegralGenus(
                    f"component {j} has odd total ramification"
                )
        return tuple(branch), tuple(extra)

    def ramification_sum(self, component: int | None = None) -> int:
        total = 0
        for bp in self.branch_points:
            for s in bp.sheets:
                if component is None or s.component == component:
                    total += s.multiplicity - 1
        return total


class FlagStep(NamedTuple):
    """The span of e_level .. e_(b-1), b = level + dimension, with its weight."""

    level: int
    weight: Fraction
    dimension: int


class LocalFlagModel(NamedTuple):
    """Explicit local model of the pushforward flag for one ramified sheet."""

    multiplicity: int
    weight: Fraction
    steps: tuple


def local_flags(multiplicity: int, weight) -> LocalFlagModel:
    """The complete flag of a sheet of multiplicity b with weight w.

    Step l is the span of the last b - l coordinates and carries weight
    (l + w)/b, which increases strictly with l and stays inside [0, 1).
    """
    b = int(multiplicity)
    if b < 1:
        raise DimensionMismatch("multiplicity must be positive")
    w = _parsed(weight)
    steps = []
    for level in range(b):
        steps.append(FlagStep(level, (level + w) / b, b - level))
    return LocalFlagModel(b, w, tuple(steps))


class WeightedFiltration(NamedTuple):
    """Decreasing (weight, dimension-jump) pairs with positive jumps."""

    jumps: tuple

    def weight_sum(self) -> Fraction:
        return sum((w * j for w, j in self.jumps), Fraction(0))

    def is_trivial(self) -> bool:
        return all(w == 0 for w, _j in self.jumps)


def merge_fiber_filtration(flags, unramified_weights, rank: int) -> WeightedFiltration:
    """Merge per-sheet weight data into one filtration of the fiber.

    Each ramified sheet contributes one line per flag step at that step's
    weight; each unramified parabolic sheet contributes its single line.
    Jumps at equal weights add up, and the result is sorted by strictly
    decreasing weight.
    """
    tally: dict[Fraction, int] = {}
    total = 0
    for flag in flags:
        for step in flag.steps:
            tally[step.weight] = tally.get(step.weight, 0) + 1
            total += 1
    for w in unramified_weights:
        w = _parsed(w)
        tally[w] = tally.get(w, 0) + 1
        total += 1
    if total != rank:
        raise DimensionMismatch(f"fiber data spans dimension {total}, rank is {rank}")
    jumps = tuple(sorted(tally.items(), key=lambda kv: kv[0], reverse=True))
    return WeightedFiltration(jumps)


class GenusReport(NamedTuple):
    per_component: tuple
    total: int

    @property
    def euler_characteristic(self) -> int:
        return sum(1 - g for g in self.per_component)


def riemann_hurwitz_genus(data: RamifiedCoverData) -> GenusReport:
    """Per-component genus from 2g - 2 = deg * (2g_X - 2) + total ramification."""
    data.validate()
    return _genus(data)


def _genus(data: RamifiedCoverData) -> GenusReport:
    """The genera of validated data, whose ramification is even on every
    component, so 2g - 2 is."""
    out = []
    for j, dj in enumerate(data.component_degrees):
        g = (dj * (2 * data.base_genus - 2) + data.ramification_sum(j)) // 2 + 1
        if g < 0:
            raise NegativeGenus(f"component {j} would have genus {g}")
        out.append(g)
    return GenusReport(tuple(out), sum(out))


def degree_direct_image(data: RamifiedCoverData, line_degree: int) -> int:
    """Degree of the pushforward, computed two independent ways.

    The Euler-characteristic route uses the component genera; the
    ramification route subtracts half the total ramification from the
    line-bundle degree. Riemann-Hurwitz makes the two agree; a
    disagreement raises ``DegreeMismatch``.
    """
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
    total = Fraction(bundle.degree)
    for point in bundle.points:
        total += point.filtration.weight_sum()
    return total


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
    the upstairs degree reuse, the genus, the degree by both routes, the
    parabolic points, then both parabolic degrees.
    """
    branch, extra = data.validate()
    genus = _genus(data)
    euler_route = line_degree + genus.euler_characteristic - data.degree * (1 - data.base_genus)
    # validation made each component's ramification even, so the total is
    drop_route = line_degree - data.ramification_sum() // 2
    if euler_route != drop_route:
        raise DegreeMismatch(f"Euler route gives {euler_route}, ramification route {drop_route}")
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
    pushforward = ParabolicBundleData(euler_route, data.degree, tuple(points))
    upstairs = sum((w for ws in (*branch, *extra) for w in ws), Fraction(line_degree))
    return ConservationReport(upstairs, parabolic_degree(pushforward), pushforward, genus)
