"""An independent checker of ``cover-build`` and ``pushforward`` certificates.

Nothing here imports ``cartancover``: a certificate is read from the
bundle instance and the machine report alone, with field elements kept as
``Fraction`` over Q and least residues over GF(p), as ``bench/oracles.py``
keeps them.

A ``cover-build`` report of exit 0 certifies that its cover and line
bundle push forward to the input bundle. The checker accepts it when

- the report's cover lives on the instance's graph, in degree ``rank``,
  with one permutation per edge;
- each ``eta_v`` is invertible, and its columns are common eigenvectors
  of the Cartan algebra fiber over v;
- T_e eta_u = eta_v P_e on every edge e = (u, v), where P_e sends basis
  vector t to scalars_e[t] e_{sigma_e(t)}, the convention documented in
  ``build_spectral_cover``;
- ``component_count`` is the number of orbits of the points (v, t) of
  the cover under its edges, for a one-vertex base the orbit count of
  the group generated by the sigma_e.

A ``pushforward`` report of exit 0 on a cover instance certifies that its
bundle is the direct image of the cover's line bundle, with the diagonal
algebra as its Cartan bundle. The checker accepts it when

- the bundle lives on the cover's graph, in rank ``degree``;
- each transition is P_e, with the instance's scalars, or scalar 1 on
  every label when the instance gives none;
- each fiber's basis spans exactly the diagonal algebra: d diagonal
  matrices whose diagonals are independent;
- ``component_count`` is the orbit count of the cover's points, and
  ``split`` says that it is the degree.
"""

from __future__ import annotations

from fractions import Fraction


def _entry(p: int, x):
    """An instance or report entry: a Fraction over Q, a least residue mod p."""
    q = Fraction(x)
    return q if p == 0 else q.numerator * pow(q.denominator, -1, p) % p


def _matrix(p: int, rows) -> list:
    return [[_entry(p, x) for x in row] for row in rows]


def _matmul(p: int, a, b) -> list:
    out = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    return out if p == 0 else [[x % p for x in row] for row in out]


def _rank(p: int, rows) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][c] if p == 0 else pow(rows[rank][c], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
                if p:
                    rows[i] = [x % p for x in rows[i]]
        rank += 1
    return rank


def _orbit_count(vertices: int, edges, sigma, d: int) -> int:
    parent = list(range(vertices * d))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v), perm in zip(edges, sigma):
        for t in range(d):
            parent[find(u * d + t)] = find(v * d + perm[t])
    return sum(find(x) == x for x in range(vertices * d))


def _monomial(d: int, perm, scalars) -> list:
    """P_e: basis vector t to scalars[t] times basis vector perm[t]."""
    out = [[0] * d for _ in range(d)]
    for t in range(d):
        out[perm[t]][t] = scalars[t]
    return out


def check_cover_build(instance: dict, report: dict) -> list:
    """What fails in the certificate of a ``cover-build`` machine report
    (parsed JSON) for its bundle instance (parsed JSON); empty when every
    claim above holds."""
    field = instance["field"]
    p = 0 if field["kind"] == "Q" else field["p"]
    payload = instance["payload"]
    graph, d = payload["graph"], payload["rank"]
    vertices = graph["vertices"]
    edges = [tuple(e) for e in graph["edges"]]
    cover = report["cover"]["payload"]
    if report["field"] != field or cover["graph"] != graph or cover["degree"] != d:
        return ["the report's cover is not over the instance's field, graph and rank"]
    sigma = [[t - 1 for t in perm] for perm in cover["sigma"]]
    if len(sigma) != len(edges) or any(sorted(perm) != list(range(d)) for perm in sigma):
        return ["sigma is not one permutation of the labels per edge"]
    scalars = _matrix(p, cover["scalars"])
    eta = [_matrix(p, m) for m in report["eta"]]
    if len(eta) != vertices or any(len(m) != d or len(m[0]) != d for m in eta):
        return ["eta is not one d x d matrix per vertex"]

    failures = []
    for v, m in enumerate(eta):
        if _rank(p, m) != d:
            failures.append(f"eta at vertex {v} is singular")
            continue
        for k, a in enumerate(payload["cartan_bundle"][v]):
            image = _matmul(p, _matrix(p, a), m)
            for t, (col, img) in enumerate(zip(zip(*m), zip(*image))):
                if _rank(p, [col, img]) != 1:
                    failures.append(
                        f"column {t} of eta at vertex {v} is no eigenvector of basis matrix {k}"
                    )
    for e, ((u, v), t_e) in enumerate(zip(edges, payload["transitions"])):
        monomial = _monomial(d, sigma[e], scalars[e])
        if _matmul(p, _matrix(p, t_e), eta[u]) != _matmul(p, eta[v], monomial):
            failures.append(f"T_e eta_u != eta_v P_e on edge {e}")
    count = _orbit_count(vertices, edges, sigma, d)
    if report["component_count"] != count:
        failures.append(f"component_count {report['component_count']}, orbit count {count}")
    return failures


def check_pushforward(instance: dict, report: dict) -> list:
    """What fails in the certificate of a ``pushforward`` machine report
    (parsed JSON) for its cover instance (parsed JSON); empty when every
    claim above holds."""
    field = instance["field"]
    p = 0 if field["kind"] == "Q" else field["p"]
    cover = instance["payload"]
    graph, d = cover["graph"], cover["degree"]
    vertices = graph["vertices"]
    edges = [tuple(e) for e in graph["edges"]]
    sigma = [[t - 1 for t in perm] for perm in cover["sigma"]]
    scalars = _matrix(p, cover.get("scalars", [[1] * d for _ in edges]))
    bundle = report["bundle"]
    payload = bundle["payload"]
    if (
        report["field"] != field
        or bundle["field"] != field
        or payload["graph"] != graph
        or payload["rank"] != d
    ):
        return ["the report's bundle is not over the instance's field and graph in rank degree"]
    transitions = [_matrix(p, m) for m in payload["transitions"]]
    fibers = [[_matrix(p, m) for m in basis] for basis in payload["cartan_bundle"]]
    if len(transitions) != len(edges) or len(fibers) != vertices:
        return ["the bundle is not one transition per edge and one fiber per vertex"]

    failures = []
    for e, t_e in enumerate(transitions):
        if t_e != _monomial(d, sigma[e], scalars[e]):
            failures.append(f"transition {e} is not P_e(sigma_e, scalars_e)")
    for v, basis in enumerate(fibers):
        diagonal = all(m[i][j] == 0 for m in basis for i in range(d) for j in range(d) if i != j)
        diagonals = [[m[i][i] for i in range(d)] for m in basis]
        if not diagonal or len(basis) != d or _rank(p, diagonals) != d:
            failures.append(f"the fiber at vertex {v} does not span the diagonal algebra")
    count = _orbit_count(vertices, edges, sigma, d)
    if report["component_count"] != count:
        failures.append(f"component_count {report['component_count']}, orbit count {count}")
    if report["split"] != (count == d):
        failures.append(f"split {report['split']}, but {count} components in degree {d}")
    return failures
