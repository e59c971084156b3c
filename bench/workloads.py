"""Seeded request batches for the three workloads, and the per-request checks.

Inputs come from ``random.Random`` seeded with the workload name and the
run seed, never from ``cartancover.randgen``, so a change to the package
cannot change a workload. Each batch is stratified: the shape of every
request (degree, vertex count, field, extra edges, cotree rank) comes
from a fixed grid, the same for every seed, and the seed draws the
permutations, scalars, gauges, edge ends and order. That keeps the cost
mix of a batch nearly the same from seed to seed.

Every request carries an ``expect`` entry that its check compares with
the program's output; a check returns whether they agree. The batches
hold only inputs the program answers correctly today; the inputs of its
known defects are in ``known_defect_requests``, for the benchmark's tests.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from random import Random

from oracles import (
    Field,
    components,
    identity,
    inverse,
    is_transitive,
    matmul,
    preserves,
    root_holonomy,
    summand_exists,
)

BIG_PRIME = 2**61 - 1

ROUNDTRIP_FIELDS = (Field(0), Field(5), Field(7))
COVER_BUILD_FIELDS = (Field(0), Field(7), Field(1009))
FACTOR_FIELDS = (Field(0), Field(2), Field(3), Field(5))
# (degree, block size) of the planted block systems
FACTOR_SHAPES = (
    (4, 2), (6, 2), (6, 3), (8, 2), (8, 4), (9, 3),
    (10, 2), (10, 5), (12, 2), (12, 3), (12, 4), (12, 6),
)
FACTOR_REPS = 24


def _rng(workload: str, seed: int) -> Random:
    return Random(f"{workload}:{seed}")


def _random_graph(rng: Random, n: int, extra: int):
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append([u, v] if rng.random() < 0.5 else [v, u])
    for _ in range(extra):
        edges.append([rng.randrange(n), rng.randrange(n)])
    return edges


def _perm(rng: Random, d: int) -> list:
    p = list(range(d))
    rng.shuffle(p)
    return p


def _nonzero(rng: Random, f: Field):
    if f.p:
        return rng.randrange(1, f.p)
    return Fraction(rng.choice((1, -1)) * rng.choice((1, 2, 3, 5)), rng.choice((1, 2, 3)))


# ---------------------------------------------------------------------------
# roundtrip: library cover -> bundle -> cover, plus a parabolic conservation check


def _composition(rng: Random, total: int, parts: int) -> list:
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    bounds = [0, *cuts, total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def _weight(rng: Random) -> str:
    den = rng.randint(1, 12)
    return str(Fraction(rng.randrange(den), den))


def _parabolic(rng: Random) -> dict:
    """Ramified cover data whose genera are whole and nonnegative."""
    while True:
        g_x = rng.randint(0, 2)
        degree = rng.randint(1, 8)
        comps = _composition(rng, degree, rng.randint(1, min(3, degree)))
        branch = []
        for _ in range(rng.randint(0, 5)):
            sheets = []
            for j, dj in enumerate(comps):
                for mult in _composition(rng, dj, rng.randint(1, dj)):
                    sheets.append([mult, _weight(rng), j])
            branch.append(sheets)
        extra = [[_weight(rng) for _ in range(degree)] for _ in range(rng.randint(0, 2))]
        ok = True
        for j, dj in enumerate(comps):
            ram = sum(m - 1 for sheets in branch for m, _w, c in sheets if c == j)
            rhs = dj * (2 * g_x - 2) + ram
            if rhs % 2 or rhs // 2 + 1 < 0:
                ok = False
        if ok:
            return {
                "gX": g_x,
                "degree": degree,
                "components": comps,
                "branch_points": branch,
                "extra": extra,
                "line_degree": rng.randint(-4, 6),
            }


def roundtrip_batch(seed: int) -> list:
    """108 covers: every (degree 1-6, vertices 1-6) pair once per field."""
    rng = _rng("roundtrip", seed)
    batch = []
    for d in range(1, 7):
        for n in range(1, 7):
            room = 9 - (n - 1)
            for k, f in enumerate(ROUNDTRIP_FIELDS):
                edges = _random_graph(rng, n, (room * ((d + n + k) % 3)) // 2)
                sigma = [_perm(rng, d) for _ in edges]
                scalars = [[f.render(_nonzero(rng, f)) for _ in range(d)] for _ in edges]
                par = _parabolic(rng)
                upstairs = par["line_degree"] + sum(
                    (Fraction(w) for sheets in par["branch_points"] for _m, w, _c in sheets),
                    Fraction(0),
                ) + sum((Fraction(w) for ws in par["extra"] for w in ws), Fraction(0))
                batch.append(
                    {
                        "field": f.to_json(),
                        "vertices": n,
                        "edges": edges,
                        "degree": d,
                        "sigma": sigma,
                        "scalars": scalars,
                        "parabolic": par,
                        "expect": {
                            "components": len(components(n, edges, d, sigma)),
                            "upstairs": str(upstairs),
                        },
                    }
                )
    rng.shuffle(batch)
    return batch


def check_roundtrip(req: dict, out: dict):
    if "ok" not in out:
        return False
    exp = req["expect"]
    agrees = (
        out["ok"]
        and out["components"] == exp["components"]
        and out["sections"] == exp["components"]
        and out["equal"]
        and out["upstairs"] == exp["upstairs"]
    )
    return agrees


# ---------------------------------------------------------------------------
# cover_build: the CLI cover-build command on gauged pushforward bundles


def _random_invertible(rng: Random, f: Field, d: int, height: int = 2):
    while True:
        if f.p:
            m = [[rng.randrange(f.p) for _ in range(d)] for _ in range(d)]
        else:
            m = [[Fraction(rng.randint(-height, height)) for _ in range(d)] for _ in range(d)]
        inv = inverse(f, m)
        if inv is not None:
            return m, inv


def _non_residue(p: int) -> int:
    return next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)


def _unit(f: Field, d: int, i: int, j: int):
    m = [[f.elt(0)] * d for _ in range(d)]
    m[i][j] = f.elt(1)
    return m


def _block_algebra(f: Field, d: int, top):
    """span{I2 + 0, top + 0, E_kk (k >= 2)}: dimension d, commutative."""
    ident2 = [[f.elt(1), f.elt(0)], [f.elt(0), f.elt(1)]]
    basis = []
    for small in (ident2, top):
        m = [[f.elt(0)] * d for _ in range(d)]
        for i in range(2):
            for j in range(2):
                m[i][j] = small[i][j]
        basis.append(m)
    basis.extend(_unit(f, d, k, k) for k in range(2, d))
    return basis


def _algebra_unit(rng: Random, f: Field, basis, d: int):
    """A random invertible element of a block algebra from ``_block_algebra``."""
    while True:
        coeffs = [_nonzero(rng, f) for _ in basis]
        m = [[f.elt(0)] * d for _ in range(d)]
        for c, b in zip(coeffs, basis):
            for i in range(d):
                for j in range(d):
                    m[i][j] = f.add(m[i][j], f.mul(c, b[i][j]))
        if inverse(f, m) is not None:
            return m


def _bundle_doc(f: Field, n, edges, d, transitions, fibers) -> dict:
    def mat(m):
        return [[f.render(x) for x in row] for row in m]

    return {
        "field": f.to_json(),
        "kind": "bundle",
        "payload": {
            "graph": {"vertices": n, "edges": edges},
            "rank": d,
            "transitions": [mat(t) for t in transitions],
            "cartan_bundle": [[mat(b) for b in fiber] for fiber in fibers],
        },
    }


def _gauged_pushforward(rng: Random, f: Field, n: int, d: int, extra: int, height: int = 2):
    """A pushforward bundle re-gauged by a random invertible matrix at each vertex."""
    edges = _random_graph(rng, n, extra)
    sigma = [_perm(rng, d) for _ in edges]
    gauges = [_random_invertible(rng, f, d, height) for _ in range(n)]
    transitions = []
    for e, (u, v) in enumerate(edges):
        mono = [[f.elt(0)] * d for _ in range(d)]
        for t in range(d):
            mono[sigma[e][t]][t] = f.elt(_nonzero(rng, f))
        transitions.append(matmul(f, matmul(f, gauges[v][0], mono), gauges[u][1]))
    fibers = [
        [matmul(f, matmul(f, g, _unit(f, d, i, i)), g_inv) for i in range(d)]
        for g, g_inv in gauges
    ]
    profile = components(n, edges, d, sigma)
    return edges, sigma, gauges, transitions, fibers, profile


def _ok_expect(profile) -> dict:
    return {"outcome": "ok", "components": len(profile), "profile": profile}


def _normal_instance(rng, f, n, d, extra, height=2):
    edges, _s, _g, transitions, fibers, profile = _gauged_pushforward(rng, f, n, d, extra, height)
    return _bundle_doc(f, n, edges, d, transitions, fibers), _ok_expect(profile)


def _incompatible_instance(rng, f, n, d, extra):
    """One edge's transition is composed with I + E_01, which breaks that edge only."""
    edges, sigma, gauges, transitions, fibers, _p = _gauged_pushforward(rng, f, n, d, extra)
    e = rng.randrange(len(edges))
    u, v = edges[e]
    shear = identity(f, d)
    shear[0][1] = f.elt(1)
    # T_e = g_v P_e g_u^-1  ->  g_v P_e (I + E_01) g_u^-1
    transitions[e] = matmul(f, matmul(f, transitions[e], gauges[u][0]), matmul(f, shear, gauges[u][1]))
    doc = _bundle_doc(f, n, edges, d, transitions, fibers)
    return doc, {"outcome": "error", "type": "IncompatibleEdge", "exit": 1, "edge": e}


def _global_algebra_instance(rng, f, n, d, extra, kind):
    """Every fiber is one conjugate of a non-split (or non-semisimple) algebra.

    Transitions are gauged units of that algebra, so every edge is
    compatible and the only fault is the fiber type: a correct program
    reports it at vertex 0, the first vertex and the root.
    """
    zero, one = f.elt(0), f.elt(1)
    if kind == "NonSplitAtVertex":
        c = 2 if f.p == 0 else (f.p - 1 if f.p % 4 == 3 else _non_residue(f.p))
        top = [[zero, f.elt(c)], [one, zero]]  # companion of x^2 - c, irreducible
    else:
        top = [[zero, one], [zero, zero]]  # nilpotent: not diagonalizable
    basis = _block_algebra(f, d, top)
    edges = _random_graph(rng, n, extra)
    gauges = [_random_invertible(rng, f, d) for _ in range(n)]
    transitions = [
        matmul(f, matmul(f, gauges[v][0], _algebra_unit(rng, f, basis, d)), gauges[u][1])
        for u, v in edges
    ]
    fibers = [[matmul(f, matmul(f, g, b), g_inv) for b in basis] for g, g_inv in gauges]
    doc = _bundle_doc(f, n, edges, d, transitions, fibers)
    return doc, {"outcome": "error", "type": kind, "exit": 1, "vertex": 0}


def write_instance(directory: str, index: int, doc: dict) -> str:
    path = os.path.join(directory, f"req{index:03d}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")
    return path


def cover_build_batch(seed: int, directory: str) -> list:
    """180 gauged pushforwards and 18 planted faults.

    Normal inputs cover every (degree 2-4, vertices 2-8) pair twice per
    field, and the (degree, vertices 2-4) pairs twice more. Each fault
    kind meets each field and each degree.
    """
    rng = _rng("cover_build", seed)
    specs = []
    for rep in range(2):
        for d in (2, 3, 4):
            for j, n in enumerate([*range(2, 9), 2, 3, 4]):
                for k, f in enumerate(COVER_BUILD_FIELDS):
                    specs.append(("ok", f, n, d, (d + j + k + rep) % 3))
    for i, kind in enumerate(
        ("NonSplitAtVertex", "NotCartanAtVertex", "IncompatibleEdge") * 6
    ):
        f = COVER_BUILD_FIELDS[(i // 3) % 3]
        specs.append((kind, f, 2 + (2 * i) % 7, 2 + (i + i // 3) % 3, (i + i // 9) % 3))
    rng.shuffle(specs)

    batch = []
    for index, (kind, f, n, d, extra) in enumerate(specs):
        if kind == "ok":
            doc, expect = _normal_instance(rng, f, n, d, extra)
        elif kind == "IncompatibleEdge":
            doc, expect = _incompatible_instance(rng, f, n, d, extra)
        else:
            doc, expect = _global_algebra_instance(rng, f, n, d, extra, kind)
        batch.append({"path": write_instance(directory, index, doc), "vertices": n, "expect": expect})
    return batch


def check_cover_build(req: dict, out: dict):
    exp = req["expect"]
    if "exit" not in out:
        return False
    doc = json.loads(out["text"])
    if exp["outcome"] == "error":
        err = doc.get("error", {})
        where = "vertex" if "vertex" in exp else "edge"
        agrees = (
            out["exit"] == exp["exit"]
            and doc.get("ok") is False
            and err.get("type") == exp["type"]
            and err.get(where) == exp[where]
        )
        return agrees
    agrees = (
        out["exit"] == 0
        and doc.get("ok") is True
        and doc.get("component_count") == exp["components"]
        and doc.get("flat_section_dim") == exp["components"]
        and doc.get("degree_profile") == exp["profile"]
    )
    return agrees


# ---------------------------------------------------------------------------
# factor: the CLI factor command on covers with a planted block system


def _wreath_element(rng: Random, blocks) -> list:
    """A random permutation mapping the planted blocks onto blocks."""
    m, b = len(blocks), len(blocks[0])
    target = _perm(rng, m)
    g = [0] * (m * b)
    for j, blk in enumerate(blocks):
        images = list(blocks[target[j]])
        rng.shuffle(images)
        for x, y in zip(blk, images):
            g[x] = y
    return g


def _factor_request(directory: str, index: int, f: Field, n: int, edges, d: int, sigma, planted):
    gens = root_holonomy(n, edges, d, sigma)
    doc = {
        "field": f.to_json(),
        "kind": "cover",
        "payload": {
            "graph": {"vertices": n, "edges": edges},
            "degree": d,
            "sigma": [[x + 1 for x in s] for s in sigma],
        },
    }
    return {
        "path": write_instance(directory, index, doc),
        "vertices": n,
        "expect": {"field": f.to_json(), "degree": d, "gens": gens, "planted": planted},
    }


def factor_batch(seed: int, directory: str) -> list:
    """672 covers: every planted (degree, block size) 24 times per field whose
    characteristic does not divide the degree.

    The monodromy is transitive and lies in the wreath product of the
    planted blocks. Vertices (1-3) and cotree rank (1-2) are balanced.
    """
    rng = _rng("factor", seed)
    specs = []
    shapes = [(n, r) for n in (1, 2, 3) for r in (1, 2)]
    for d, b in FACTOR_SHAPES:
        for f in FACTOR_FIELDS:
            if f.p and d % f.p == 0:
                continue
            for _rep in range(FACTOR_REPS):
                specs.append((f, d, b) + shapes[len(specs) % len(shapes)])
    rng.shuffle(specs)

    batch = []
    for index, (f, d, b, n, rank) in enumerate(specs):
        labels = _perm(rng, d)
        blocks = sorted(sorted(labels[i : i + b]) for i in range(0, d, b))
        while True:
            edges = _random_graph(rng, n, 0)
            for _ in range(rank):
                edges.append([rng.randrange(n), rng.randrange(n)])
            sigma = [_wreath_element(rng, blocks) for _ in edges]
            if is_transitive(d, root_holonomy(n, edges, d, sigma)):
                break
        batch.append(_factor_request(directory, index, f, n, edges, d, sigma, blocks))
    return batch


def check_factor(req: dict, out: dict):
    """Blocks preserved by our holonomy, planted system present, summand verdicts exact."""
    if "exit" not in out:
        return False
    exp = req["expect"]
    doc = json.loads(out["text"])
    f = Field.from_json(exp["field"])
    d, gens = exp["degree"], exp["gens"]
    systems = doc.get("proper_block_systems", [])
    reported = []
    for entry in systems:
        blocks = [[x - 1 for x in blk] for blk in entry["blocks"]]
        reported.append(sorted(sorted(blk) for blk in blocks))
        if not preserves(gens, blocks) or not entry["composite_consistent"]:
            return False
        if entry["summand_ok"] != summand_exists(f, d, gens, blocks):
            return False
    if exp["planted"] not in reported:
        return False
    all_true = all(e["summand_ok"] for e in systems)
    return doc.get("ok") is all_true and out["exit"] == (0 if all_true else 1)


# ---------------------------------------------------------------------------
# known defects: inputs the program answers wrongly today (ROADMAP items 3 and 5)


def known_defect_requests(directory: str) -> dict:
    """One request per known defect, as ``name -> (workload, request)``.

    The timed batches leave these out, since every operation there must
    succeed; the benchmark's tests run them as expected failures.

    - ``four_cycle_gf2`` (item 5): one loop carrying the 4-cycle, over
      GF(2). F2[Z/4] is uniserial, so the quotient by blocks {0, 2},
      {1, 3} is no flat summand, but ``factor`` reports ``summand_ok``.
      Any block size divisible by p can do this, so ``factor_batch``
      uses only fields whose characteristic does not divide the degree.
    - ``big_prime`` (item 3): a valid bundle over GF(2^61 - 1), whose
      trial-division primality test hangs while parsing.
    - ``tall_q`` (item 3): a valid bundle over Q gauged with entries near
      10^10, whose rational-root search enumerates divisors up to the
      square root of a constant term near 10^40.

    Neither hang allocates while it hangs. No prime between about 10^7
    and 2^61 that parses is used: root finding would build a list of all
    p elements.
    """
    rng = _rng("known_defects", 0)
    four = _factor_request(directory, 0, Field(2), 1, [[0, 0]], 4, [[1, 2, 3, 0]], [[0, 2], [1, 3]])
    requests = {"four_cycle_gf2": ("factor", four)}
    for index, (name, f, height) in enumerate(
        (("big_prime", Field(BIG_PRIME), 2), ("tall_q", Field(0), 10**10)), start=1
    ):
        doc, expect = _normal_instance(rng, f, 2, 2, 1, height)
        req = {"path": write_instance(directory, index, doc), "vertices": 2, "expect": expect}
        requests[name] = ("cover_build", req)
    return requests


BATCHES = {
    "roundtrip": lambda seed, directory: roundtrip_batch(seed),
    "cover_build": cover_build_batch,
    "factor": factor_batch,
}
CHECKS = {
    "roundtrip": check_roundtrip,
    "cover_build": check_cover_build,
    "factor": check_factor,
}
