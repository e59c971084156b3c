"""Seeded random instances for the property suites and the self test.

All generation goes through ``random.Random(seed)`` so failures are
reproducible from the reported seed alone. Rational scalars are kept
small to bound coefficient growth in exact elimination.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random
from typing import NamedTuple

from .bundles import BaseGraph
from .covers import CoverRep, LineBundleOnCover
from .fields import GF, QQ, PrimeField
from .errors import CartanCoverError
from .parabolic import BranchPoint, RamifiedCoverData, RamifiedSheet, riemann_hurwitz_genus


class CoverInstanceConfig(NamedTuple):
    max_vertices: int = 6
    max_edges: int = 9
    max_degree: int = 6


DEFAULT_FIELDS = (QQ, GF(5), GF(7))

# bounds of the ramified cover data random_ramified_cover_data samples
MAX_RAMIFIED_DEGREE = 8
MAX_BRANCH_POINTS = 5
MAX_WEIGHT_DENOMINATOR = 12
MAX_RAMIFIED_TRIES = 200


def random_base_graph(rng: Random, max_vertices: int = 6, max_edges: int = 9) -> BaseGraph:
    """A connected multigraph: a random tree plus extra edges (loops allowed)."""
    n = rng.randint(1, max_vertices)
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v) if rng.random() < 0.5 else (v, u))
    extra = rng.randint(0, max(0, max_edges - len(edges)))
    for _ in range(extra):
        edges.append((rng.randrange(n), rng.randrange(n)))
    return BaseGraph(n, tuple(edges))


def random_nonzero_scalar(rng: Random, field):
    if isinstance(field, PrimeField):
        return rng.randint(1, field.p - 1)
    num = rng.choice([1, 2, 3, 5])
    den = rng.choice([1, 2, 3])
    sign = rng.choice([1, -1])
    return Fraction(sign * num, den)


def random_permutation(rng: Random, d: int) -> tuple:
    perm = list(range(d))
    rng.shuffle(perm)
    return tuple(perm)


def random_cover_instance(rng: Random, field, config: CoverInstanceConfig = CoverInstanceConfig()):
    """A random cover with a random line bundle on it."""
    base = random_base_graph(rng, config.max_vertices, config.max_edges)
    d = rng.randint(1, config.max_degree)
    sigma = tuple(random_permutation(rng, d) for _ in base.edges)
    cover = CoverRep(base, d, sigma)
    scalars = tuple(
        tuple(random_nonzero_scalar(rng, field) for _ in range(d)) for _ in base.edges
    )
    return cover, LineBundleOnCover(cover, field, scalars)


def random_ramified_cover_data(rng: Random) -> tuple:
    """Valid ramified cover data with weights, plus a line-bundle degree.

    Sampled by rejection: profiles are drawn per component per branch
    point, then the data must pass parity and nonnegative-genus checks.
    """
    for _ in range(MAX_RAMIFIED_TRIES):
        g_x = rng.randint(0, 2)
        d = rng.randint(1, MAX_RAMIFIED_DEGREE)
        comps = _random_composition(rng, d, rng.randint(1, min(3, d)))
        branch = []
        for _ in range(rng.randint(0, MAX_BRANCH_POINTS)):
            sheets = []
            for j, dj in enumerate(comps):
                for b in _random_composition(rng, dj, rng.randint(1, dj)):
                    sheets.append(RamifiedSheet(b, _random_weight(rng), j))
            branch.append(BranchPoint(tuple(sheets)))
        extra = []
        for _ in range(rng.randint(0, 2)):
            extra.append(tuple(_random_weight(rng) for _ in range(d)))
        data = RamifiedCoverData(g_x, d, tuple(comps), tuple(branch), tuple(extra))
        try:
            riemann_hurwitz_genus(data)
        except CartanCoverError:
            continue
        return data, rng.randint(-4, 6)
    raise AssertionError("failed to sample valid ramified cover data")


def _random_composition(rng: Random, total: int, parts: int) -> list:
    """A random composition of ``total`` into exactly ``parts`` positive parts."""
    if parts >= total:
        return [1] * total
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    bounds = [0, *cuts, total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def _random_weight(rng: Random) -> Fraction:
    den = rng.randint(1, MAX_WEIGHT_DENOMINATOR)
    num = rng.randrange(den)
    return Fraction(num, den)
