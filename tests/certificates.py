"""An independent checker of ``cover-build``, ``pushforward`` (cover and
parabolic), ``classify`` and ``factor`` certificates, and of
``cover-build`` error reports.

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
  the group generated by the sigma_e; ``degree_profile`` lists each
  orbit's degree, its size over the vertex count, in descending order,
  and ``split`` says that the count is the degree;
- ``checks.algebra_matches`` says whether, at every vertex, the
  eigenvalue vectors of the given matrices on eta's columns span k^d,
  which makes the fiber the diagonal algebra of those columns;
- ``flat_section_dim`` is the dimension of the flat sections of the
  algebra bundle, families a_v in A_v with T_e a_u = a_v T_e on every
  edge, solved from the instance, and ``checks.components_match_sections``
  says whether it is the orbit count.

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

A ``pushforward`` report on a parabolic instance certifies the
parabolic direct image of its line bundle. The checker re-derives every
claim from the instance alone and accepts the report when it says the
same:

- the rank is the degree of the cover, and the degree is
  degL - ram / 2, for ram the total ramification;
- component j has genus g_j with 2 g_j - 2 = d_j (2 gX - 2) + ram_j
  (Riemann-Hurwitz), and ``genus_total`` is their sum;
- over branch point i a sheet of multiplicity b and weight w has jumps
  of one at the weights (l + w) / b, l = 0 .. b - 1; merged over the
  sheets, equal weights adding their jumps, in decreasing weight, they
  are the filtration of point ``b{i}``, and the unramified weights of
  extra point i that of ``u{i}``; a point whose only weight is zero is
  not listed;
- ``pardeg_upstairs`` is degL plus every weight of the instance,
  ``pardeg_downstairs`` the degree plus each point's weights times their
  jumps, and ``conservation_ok`` and ``ok`` say whether they are equal.

A ``classify`` report of a split verdict certifies that the span of the
instance's basis is the diagonal algebra of its eigenlines. The checker
accepts it when

- ``span_dimension`` is the rank of the instance's basis;
- each reported line is written leading-one normalized, and is an
  eigenline of each canonical basis matrix (the reduced row echelon basis
  of the flattened span, in pivot order) with the reported functional
  entry as its eigenvalue;
- the d lines are independent.

A report of any other verdict carries no lines and no functionals, and
its verdict is re-derived from the instance by the test the eigenline
split replaced, which names a verdict without splitting anything: the
canonical basis (as above) spans d dimensions, else ``WrongDimension``;
its matrices commute, else ``NotCommutative`` with the first pair (i, j),
i < j; then each minimal polynomial in basis order, by elimination of the
powers, with its roots by search (every residue over GF(p), over Q the
rationals a/b with a dividing the lowest and b the leading coefficient of
the cleared polynomial). A repeated root, or a rootless part that is not
squarefree (gcd with its derivative), is ``NotDiagonalizable`` with that
basis index and minimal polynomial. Otherwise a minimal polynomial that
does not split makes the verdict ``CartanNonSplit``, whose witness is the
first such polynomial with its roots divided out, made monic. The report
names the same status, reason and witness, each polynomial written as the
package writes one, and ``ok`` is false exactly for ``NotCartan``.

A ``cover-build`` error report names one vertex or one edge. The
checker accepts a ``NonSplitAtVertex`` or ``NotCartanAtVertex`` report
when no transition is singular, the fiber at every earlier vertex is
split Cartan, and the re-derived verdict of the named vertex's fiber is
``CartanNonSplit`` or ``NotCartan`` respectively, with the report's
``witness`` and ``message`` written from it: the witness polynomial, or
the verdict's text (``NotCartan: WrongDimension``, ``NotCartan:
NotCommutative (basis pair i, j)``, ``NotCartan: NotDiagonalizable (basis
i, witness f)``). It accepts a
``SingularTransition`` report when the named edge's transition is
singular and every earlier edge's transition is invertible, and an
``IncompatibleEdge`` report when no transition is singular, the named
edge e = (u, v) does not conjugate A_u onto A_v, and every earlier edge
does. T A_u T^-1 = A_v reads T A_u = A_v T, a comparison of two spans
that needs no inverse.

A ``factor`` report of exit 0 lists the intermediate covers of a cover.
The checker re-derives every claim from the cover instance and accepts
the report when

- ``monodromy`` is the BFS tree gauge (``gauged_cover``): the sorted tree
  edges, and the gauged permutation of each cotree edge in index order;
- the proper block systems are exactly the partitions of the labels into
  equal blocks of a size strictly between 1 and d that every generator
  carries onto themselves, each listed once, found by brute force over
  all such partitions; ``proper_count`` is their number and
  ``trivial_block_systems`` the singletons and the whole fiber;
- each system's ``intermediate`` cover is the action of every gauged
  edge on its blocks, and ``composite_consistent`` says whether the
  quotient map carries each gauged edge onto the reported one;
- ``summand_ok`` is the orbit criterion of ROADMAP item 1
  (``summand_exists``), ``retraction_agrees`` is null when the
  characteristic divides the block size and true otherwise, a summand
  carries no ``witness``, and ``ok`` says whether every summand exists.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import lcm


def _entry(p: int, x):
    """An instance or report entry: a Fraction over Q, a least residue mod p."""
    q = Fraction(x)
    return q if p == 0 else q.numerator * pow(q.denominator, -1, p) % p


def _matrix(p: int, rows) -> list:
    return [[_entry(p, x) for x in row] for row in rows]


def _matmul(p: int, a, b) -> list:
    out = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    return out if p == 0 else [[x % p for x in row] for row in out]


def _echelon(p: int, rows) -> list:
    """The nonzero rows of the reduced row echelon form of ``rows``, with
    leading ones, in pivot order."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][c] if p == 0 else pow(rows[rank][c], -1, p)
        rows[rank] = [x * inv if p == 0 else x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
                if p:
                    rows[i] = [x % p for x in rows[i]]
        rank += 1
    return rows[:rank]


def _rank(p: int, rows) -> int:
    return len(_echelon(p, rows))


def _flat(m) -> list:
    return [x for row in m for x in row]


def _orbits(size: int, maps) -> list:
    """The orbit of each of 0..size-1, named by one of its members: the
    classes of x ~ g[x] for every map g, by union-find. For permutations
    these are the orbits of the group they generate."""
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in maps:
        for x in range(size):
            parent[find(x)] = find(g[x])
    return [find(x) for x in range(size)]


def _orbit_sizes(vertices: int, edges, sigma, d: int) -> list:
    """The number of points in each orbit of the points (v, t) of the cover,
    numbered v d + t, under its edges: edge e sends (u, t) to (v, sigma_e(t))
    and fixes the points off its source."""
    moves = []
    for (u, v), perm in zip(edges, sigma):
        move = list(range(vertices * d))
        move[u * d : (u + 1) * d] = [v * d + image for image in perm]
        moves.append(move)
    return list(Counter(_orbits(vertices * d, moves)).values())


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

    fibers = [[_matrix(p, a) for a in given] for given in payload["cartan_bundle"]]
    failures = []
    spans = True
    for v, m in enumerate(eta):
        if _rank(p, m) != d:
            failures.append(f"eta at vertex {v} is singular")
            spans = False
            continue
        # per column of eta, its eigenvalue under each given matrix
        values = [[] for _ in range(d)]
        for k, a in enumerate(fibers[v]):
            image = _matmul(p, a, m)
            for t, (col, img) in enumerate(zip(zip(*m), zip(*image))):
                if _rank(p, [col, img]) != 1:
                    failures.append(
                        f"column {t} of eta at vertex {v} is no eigenvector of basis matrix {k}"
                    )
                    spans = False
                    continue
                i = next(i for i, x in enumerate(col) if x)
                values[t].append(img[i] / col[i] if p == 0 else img[i] * pow(col[i], -1, p) % p)
        if spans and _rank(p, values) != d:
            failures.append(f"the eigenvalue vectors at vertex {v} span less than k^{d}")
            spans = False
    if report["checks"]["algebra_matches"] != spans:
        failures.append(f"algebra_matches is {report['checks']['algebra_matches']}, re-derived {spans}")
    for e, ((u, v), t_e) in enumerate(zip(edges, payload["transitions"])):
        monomial = _monomial(d, sigma[e], scalars[e])
        if _matmul(p, _matrix(p, t_e), eta[u]) != _matmul(p, eta[v], monomial):
            failures.append(f"T_e eta_u != eta_v P_e on edge {e}")
    sizes = _orbit_sizes(vertices, edges, sigma, d)
    count = len(sizes)
    if report["component_count"] != count:
        failures.append(f"component_count {report['component_count']}, orbit count {count}")
    profile = sorted((size // vertices for size in sizes), reverse=True)
    if report["degree_profile"] != profile:
        failures.append(f"degree_profile {report['degree_profile']}, orbit degrees {profile}")
    if report["split"] != (count == d):
        failures.append(f"split {report['split']}, but {count} components in degree {d}")
    sections = _flat_section_dim(p, d, edges, payload["transitions"], fibers)
    if report["flat_section_dim"] != sections:
        failures.append(f"flat_section_dim {report['flat_section_dim']}, solved {sections}")
    if report["checks"]["components_match_sections"] != (sections == count):
        failures.append(
            f"components_match_sections is {report['checks']['components_match_sections']}, "
            f"{sections} flat sections and {count} orbits"
        )
    return failures


def _flat_section_dim(p: int, d: int, edges, transitions, fibers) -> int:
    """The dimension of the families (a_v), a_v in the span A_v of the
    fiber's given matrices, with T_e a_u - a_v T_e = 0 on every edge:
    the nullity of those d^2 equations per edge in the coordinates of
    each a_v in the echelon basis of A_v."""
    bases = [_echelon(p, [_flat(a) for a in given]) for given in fibers]
    offsets = [0]
    for basis in bases:
        offsets.append(offsets[-1] + len(basis))
    equations = []
    for (u, v), t_e in zip(edges, transitions):
        t = _matrix(p, t_e)
        # column j of this edge's equations: the image of the j-th unknown
        columns = [[0] * (d * d) for _ in range(offsets[-1])]
        for k, b in enumerate(bases[u]):
            moved = _flat(_matmul(p, t, [b[i * d : (i + 1) * d] for i in range(d)]))
            columns[offsets[u] + k] = [x + y for x, y in zip(columns[offsets[u] + k], moved)]
        for k, b in enumerate(bases[v]):
            moved = _flat(_matmul(p, [b[i * d : (i + 1) * d] for i in range(d)], t))
            columns[offsets[v] + k] = [x - y for x, y in zip(columns[offsets[v] + k], moved)]
        equations += [list(row) for row in zip(*columns)]
    if p:
        equations = [[x % p for x in row] for row in equations]
    return offsets[-1] - _rank(p, equations)


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
    count = len(_orbit_sizes(vertices, edges, sigma, d))
    if report["component_count"] != count:
        failures.append(f"component_count {report['component_count']}, orbit count {count}")
    if report["split"] != (count == d):
        failures.append(f"split {report['split']}, but {count} components in degree {d}")
    return failures


def _merged(label: str, weights) -> dict | None:
    """The report entry of a point whose fiber lines carry ``weights``:
    the jumps in decreasing weight, or None when every weight is zero."""
    tally = {}
    for w in weights:
        tally[w] = tally.get(w, 0) + 1
    if not any(tally):
        return None
    jumps = sorted(tally.items(), reverse=True)
    return {"label": label, "filtration": [{"weight": w, "jump": j} for w, j in jumps]}


def check_parabolic_pushforward(instance: dict, report: dict) -> list:
    """What fails in the certificate of a ``pushforward`` machine report
    (parsed JSON) for its parabolic instance (parsed JSON); empty when
    every claim above holds."""
    payload = instance["payload"]
    g_x, d, deg_l = payload["gX"], payload["degree"], payload["degL"]
    components = payload["components"]
    ram = [0] * len(components)
    points, upstairs = [], Fraction(deg_l)
    for i, bp in enumerate(payload.get("branch_points", [])):
        profiles = bp["profiles"]
        weights = [Fraction(w) for w in bp.get("weights", ["0"] * len(profiles))]
        for b, c in zip(profiles, bp.get("component_of_sheet", [0] * len(profiles))):
            ram[c] += b - 1
        upstairs += sum(weights)
        lines = [(l + w) / b for b, w in zip(profiles, weights) for l in range(b)]
        points.append(_merged(f"b{i}", lines))
    for i, ws in enumerate(payload.get("unramified_weights", [])):
        weights = [Fraction(w) for w in ws]
        upstairs += sum(weights)
        points.append(_merged(f"u{i}", weights))
    points = [point for point in points if point is not None]
    degree = deg_l - sum(ram) // 2
    genera = [(dj * (2 * g_x - 2) + r) // 2 + 1 for dj, r in zip(components, ram)]
    downstairs = degree + sum(
        j["weight"] * j["jump"] for point in points for j in point["filtration"]
    )

    failures = []
    if report["field"] != instance["field"]:
        failures.append("the report is not over the instance's field")
    if (report["rank"], report["degree"]) != (d, degree):
        failures.append(f"rank {report['rank']} and degree {report['degree']}, not {d} and {degree}")
    if report["genus_per_component"] != genera or report["genus_total"] != sum(genera):
        failures.append(f"genera {report['genus_per_component']}, Riemann-Hurwitz gives {genera}")
    reported = [
        {
            "label": point["label"],
            "filtration": [
                {"weight": Fraction(j["weight"]), "jump": j["jump"]} for j in point["filtration"]
            ],
        }
        for point in report["points"]
    ]
    if reported != points:
        failures.append("the points are not the merged local flags of the instance")
    for key, value in (("pardeg_upstairs", upstairs), ("pardeg_downstairs", downstairs)):
        if Fraction(report[key]) != value:
            failures.append(f"{key} {report[key]}, re-derived {value}")
    conserved = upstairs == downstairs
    if report["conservation_ok"] != conserved or report["ok"] != conserved:
        failures.append(f"conservation_ok and ok are not {conserved}")
    return failures


def check_classify(instance: dict, report: dict) -> list:
    """What fails in the certificate of a ``classify`` machine report
    (parsed JSON) for its cartan instance (parsed JSON); empty when every
    claim above holds."""
    field = instance["field"]
    p = 0 if field["kind"] == "Q" else field["p"]
    d = instance["payload"]["d"]
    given = [_flat(_matrix(p, m)) for m in instance["payload"]["basis"]]
    basis = [[row[i * d : (i + 1) * d] for i in range(d)] for row in _echelon(p, given)]
    failures = []
    if report["span_dimension"] != len(basis):
        failures.append(f"span_dimension {report['span_dimension']}, rank {len(basis)}")
    verdict, _text = _verdict(p, d, [_matrix(p, m) for m in instance["payload"]["basis"]])
    reported = (report["status"], report["reason"], report["witness"])
    if reported != verdict:
        failures.append(f"the verdict {reported}, re-derived {verdict}")
    if report["ok"] != (verdict[0] != "NotCartan"):
        failures.append(f"ok {report['ok']} for a {verdict[0]} verdict")
    if report["status"] != "CartanSplit":
        if report["eigenlines"] is not None or report["functionals"] is not None:
            failures.append(f"a {report['status']} report carries lines or functionals")
        return failures
    lines = _matrix(p, report["eigenlines"])
    mus = _matrix(p, report["functionals"])
    if len(lines) != d or any(len(line) != d for line in lines) or len(mus) != d or any(
        len(row) != len(basis) for row in mus
    ):
        return failures + ["not d lines of length d with one functional entry per basis matrix"]
    for t, line in enumerate(lines):
        if next((x for x in line if x), None) != 1:
            failures.append(f"line {t} is not leading-one normalized")
        for k, b in enumerate(basis):
            image = _matmul(p, b, [[x] for x in line])
            scaled = [[mus[t][k] * x if p == 0 else mus[t][k] * x % p] for x in line]
            if image != scaled:
                failures.append(
                    f"line {t} is no eigenline of basis matrix {k} with eigenvalue mu[{t}][{k}]"
                )
    if _rank(p, lines) != d:
        failures.append("the lines are dependent")
    return failures


def _trimmed(coeffs: list) -> list:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _monic(p: int, coeffs: list) -> list:
    lead = coeffs[-1]
    if p == 0:
        return [c / lead for c in coeffs]
    inv = pow(lead, -1, p)
    return [c * inv % p for c in coeffs]


def _poly_rem(p: int, a: list, b: list) -> list:
    """The remainder of ``a`` by the nonzero ``b``, coefficients ascending."""
    a, b = _trimmed(list(a)), _monic(p, _trimmed(list(b)))
    while len(a) >= len(b):
        c, shift = a[-1], len(a) - len(b)
        for j, y in enumerate(b):
            a[shift + j] = a[shift + j] - c * y if p == 0 else (a[shift + j] - c * y) % p
        _trimmed(a)
    return a


def _squarefree(p: int, coeffs: list) -> bool:
    """Whether the nonconstant polynomial has no repeated factor: its gcd
    with its derivative is a constant (a zero derivative over GF(p) makes
    it a p-th power)."""
    a = list(coeffs)
    b = _trimmed([k * c if p == 0 else k * c % p for k, c in enumerate(a)][1:])
    while b:
        a, b = b, _poly_rem(p, a, b)
    return len(a) == 1


def _render_poly(p: int, coeffs: list) -> str:
    """A polynomial as the package writes one: highest term first, a
    coefficient of one left off, over Q each sign between the terms."""
    text = ""
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        mag = abs(c) if p == 0 else c
        xk = "x" if k == 1 else f"x^{k}"
        term = str(mag) if k == 0 else xk if mag == 1 else f"{mag}*{xk}"
        text += (" - " if p == 0 and c < 0 else " + ") + term
    return "0" if not text else ("-" if text[1] == "-" else "") + text[3:]


def _min_poly(p: int, m) -> list:
    """The monic minimal polynomial of ``m``, ascending: each flattened
    power, carried with its coefficients in the powers, is reduced against
    the rows of the lower ones until it vanishes."""
    d = len(m)
    kept = []
    power = [[int(i == j) for j in range(d)] for i in range(d)]
    for k in range(d + 1):
        if k:
            power = _matmul(p, power, m)
        vec = _flat(power)
        coeffs = [int(j == k) for j in range(d + 1)]
        for q, row, rc in kept:
            f = vec[q]
            if f:
                vec = [x - f * y if p == 0 else (x - f * y) % p for x, y in zip(vec, row)]
                coeffs = [x - f * y if p == 0 else (x - f * y) % p for x, y in zip(coeffs, rc)]
        q = next((j for j, x in enumerate(vec) if x), None)
        if q is None:
            return coeffs[: k + 1]
        inv = 1 / Fraction(vec[q]) if p == 0 else pow(vec[q], -1, p)
        vec = [x * inv if p == 0 else x * inv % p for x in vec]
        coeffs = [x * inv if p == 0 else x * inv % p for x in coeffs]
        kept.append((q, vec, coeffs))
    raise ValueError("no dependence among the first d + 1 powers")


def _divisors(n: int) -> list:
    n = abs(n)
    return [a for a in range(1, n + 1) if n % a == 0]


def _roots(p: int, coeffs: list) -> tuple:
    """The roots of a nonconstant polynomial in the field, as
    ``(root, multiplicity)`` pairs, and the polynomial left once each
    linear factor is divided out as often as it divides."""
    if p:
        candidates = range(p)
    else:
        den = lcm(*[Fraction(c).denominator for c in coeffs])
        ints = [int(c * den) for c in coeffs]
        low = next(k for k, c in enumerate(ints) if c)
        candidates = {Fraction(0)} if low else set()
        candidates |= {
            Fraction(s * a, b)
            for a in _divisors(ints[low])
            for b in _divisors(ints[-1])
            for s in (1, -1)
        }
    roots, rest = [], list(coeffs)
    for r in sorted(candidates):
        mult = 0
        while len(rest) > 1:
            # synthetic division by x - r
            quo, carry = [0] * (len(rest) - 1), 0
            for i in range(len(rest) - 1, 0, -1):
                carry = rest[i] + carry * r if p == 0 else (rest[i] + carry * r) % p
                quo[i - 1] = carry
            value = rest[0] + carry * r
            if value % p if p else value:
                break
            rest, mult = quo, mult + 1
        if mult:
            roots.append((r, mult))
    return roots, rest


def _verdict(p: int, d: int, given) -> tuple:
    """``((status, reason, witness), text)`` of the Cartan test on the
    span of the given d x d matrices: the report's fields and the
    verdict's text, re-derived by minimal polynomials."""
    rows = _echelon(p, [_flat(m) for m in given])
    basis = [[row[i * d : (i + 1) * d] for i in range(d)] for row in rows]
    if len(basis) != d:
        return ("NotCartan", "WrongDimension", None), "NotCartan: WrongDimension"
    for i in range(d):
        for j in range(i + 1, d):
            if _matmul(p, basis[i], basis[j]) != _matmul(p, basis[j], basis[i]):
                text = f"NotCartan: NotCommutative (basis pair {i}, {j})"
                return ("NotCartan", "NotCommutative", {"basis_pair": [i, j]}), text
    nonsplit = None
    for i, m in enumerate(basis):
        mp = _min_poly(p, m)
        roots, rest = _roots(p, mp)
        if any(mult > 1 for _r, mult in roots) or (len(rest) > 1 and not _squarefree(p, mp)):
            poly = _render_poly(p, mp)
            text = f"NotCartan: NotDiagonalizable (basis {i}, witness {poly})"
            return ("NotCartan", "NotDiagonalizable", {"basis_index": i, "poly": poly}), text
        if len(rest) > 1 and nonsplit is None:
            nonsplit = _render_poly(p, _monic(p, rest))
    if nonsplit is not None:
        return ("CartanNonSplit", None, {"poly": nonsplit}), f"CartanNonSplit (witness {nonsplit})"
    return ("CartanSplit", None, None), "CartanSplit"


def _conjugates_onto(p: int, t, a_u, a_v) -> bool:
    """Whether t A_u t^-1 = A_v for an invertible t: span(t a) = span(b t)."""
    left = [_flat(_matmul(p, t, a)) for a in a_u]
    right = [_flat(_matmul(p, b, t)) for b in a_v]
    rank = _rank(p, left)
    return rank == _rank(p, right) == _rank(p, left + right)


def check_error_report(instance: dict, report: dict) -> list:
    """What fails in the certificate of a ``cover-build`` error report
    (parsed JSON) of type ``SingularTransition``, ``IncompatibleEdge``,
    ``NonSplitAtVertex`` or ``NotCartanAtVertex`` for its bundle instance
    (parsed JSON); empty when every claim above holds."""
    field = instance["field"]
    p = 0 if field["kind"] == "Q" else field["p"]
    payload = instance["payload"]
    d = payload["rank"]
    edges = [tuple(e) for e in payload["graph"]["edges"]]
    transitions = [_matrix(p, m) for m in payload["transitions"]]
    fibers = [[_matrix(p, m) for m in basis] for basis in payload["cartan_bundle"]]
    error = report["error"]
    kind = error["type"]
    singular = [e for e, t in enumerate(transitions) if _rank(p, t) < d]
    if kind in ("NonSplitAtVertex", "NotCartanAtVertex"):
        return _vertex_report_failures(p, d, fibers, singular, report)
    named = error.get("edge")
    if report["ok"] is not False or not isinstance(named, int) or not 0 <= named < len(edges):
        return ["the report does not name an edge of the instance"]
    if kind == "SingularTransition":
        if named not in singular:
            return [f"transition {named} is invertible"]
        return [f"transition {e} is singular, before edge {named}" for e in singular if e < named]
    if kind != "IncompatibleEdge":
        return [f"no certificate for a {kind} report"]
    if singular:
        return [f"transition {e} is singular" for e in singular]
    failures = []
    for v, fiber in enumerate(fibers):
        (status, _reason, _witness), _text = _verdict(p, d, fiber)
        if status != "CartanSplit":
            failures.append(f"the fiber at vertex {v} is {status}, before any edge")
    for e in range(named + 1):
        (u, v), t = edges[e], transitions[e]
        if _conjugates_onto(p, t, fibers[u], fibers[v]) != (e < named):
            failures.append(
                f"edge {e} conjugates A_u onto A_v" if e == named else f"edge {e} fails first"
            )
    return failures


def _vertex_report_failures(p: int, d: int, fibers, singular, report) -> list:
    """What fails in a ``NonSplitAtVertex`` or ``NotCartanAtVertex``
    report: the named vertex's fiber is the first that is not split
    Cartan, of the reported kind, and the message and witness are written
    from its re-derived verdict."""
    error = report["error"]
    v = error.get("vertex")
    if report["ok"] is not False or not isinstance(v, int) or not 0 <= v < len(fibers):
        return ["the report does not name a vertex of the instance"]
    if "edge" in error:
        return ["a vertex report names an edge"]
    if singular:
        return [f"transition {e} is singular" for e in singular]
    failures = []
    for u in range(v):
        (status, _reason, _witness), _text = _verdict(p, d, fibers[u])
        if status != "CartanSplit":
            failures.append(f"the fiber at vertex {u} is {status}, before vertex {v}")
    (status, _reason, witness), text = _verdict(p, d, fibers[v])
    if error["type"] == "NonSplitAtVertex":
        if status != "CartanNonSplit":
            return failures + [f"the fiber at vertex {v} is {text}"]
        poly = witness["poly"]
        expected = (f"fiber at vertex {v} is Cartan but not split (witness {poly})", poly)
    else:
        if status != "NotCartan":
            return failures + [f"the fiber at vertex {v} is {text}"]
        expected = (f"fiber at vertex {v} is not a Cartan subalgebra: {text}", text)
    reported = (error.get("message"), error.get("witness"))
    if reported != expected:
        failures.append(f"message and witness {reported}, re-derived {expected}")
    return failures


def _inverse(perm) -> list:
    out = [0] * len(perm)
    for i, x in enumerate(perm):
        out[x] = i
    return out


def gauged_cover(instance: dict) -> tuple:
    """The BFS tree gauge of a cover instance (parsed JSON): the tree edges,
    sorted, and the gauged permutation of every edge, 0-based.

    The tree is grown from vertex 0, each vertex taking its incident edges
    in index order (an edge from u to v is met at u forward and at v
    backward). tau_v carries root labels to labels over v: tau_0 is the
    identity, tau_w = sigma_e tau_u across a tree edge e = (u, w) and
    tau_w = sigma_e^-1 tau_v across e = (w, v). Edge e = (u, v) is gauged
    to tau_v^-1 sigma_e tau_u, the identity on a tree edge.
    """
    payload = instance["payload"]
    vertices, d = payload["graph"]["vertices"], payload["degree"]
    edges = [tuple(e) for e in payload["graph"]["edges"]]
    sigma = [[t - 1 for t in perm] for perm in payload["sigma"]]
    incidence = [[] for _ in range(vertices)]
    for idx, (u, v) in enumerate(edges):
        incidence[u].append((idx, v, True))
        if u != v:
            incidence[v].append((idx, u, False))
    taus = [None] * vertices
    taus[0] = list(range(d))
    queue, tree = [0], set()
    for u in queue:
        for idx, w, forward in incidence[u]:
            if taus[w] is None:
                step = sigma[idx] if forward else _inverse(sigma[idx])
                taus[w] = [step[x] for x in taus[u]]
                tree.add(idx)
                queue.append(w)
    gauged = [
        [_inverse(taus[v])[sigma[e][taus[u][t]]] for t in range(d)]
        for e, (u, v) in enumerate(edges)
    ]
    return sorted(tree), gauged


def _equal_partitions(d: int, b: int):
    """Every partition of 0..d-1 into blocks of size b, each a sorted tuple,
    the blocks ordered by their first label."""

    def extend(remaining):
        if not remaining:
            yield ()
            return
        first, rest = remaining[0], remaining[1:]
        for companions in combinations(rest, b - 1):
            left = [x for x in rest if x not in companions]
            for tail in extend(left):
                yield ((first, *companions), *tail)

    yield from extend(list(range(d)))


def summand_exists(p: int, d: int, generators, blocks) -> bool:
    """ROADMAP item 1's orbit criterion: the quotient pushforward is a flat
    direct summand exactly when every orbit O of blocks under the monodromy
    group G has a block B and an orbit P of points of G with
    c_P = |B n P| > 0 and p not dividing c_P (always over Q)."""
    block_of = [0] * d
    for j, blk in enumerate(blocks):
        for t in blk:
            block_of[t] = j
    points = _orbits(d, generators)
    induced = [[block_of[g[blk[0]]] for blk in blocks] for g in generators]
    block_orbits = _orbits(len(blocks), induced)
    for j in set(block_orbits):
        counts = {}
        for t in blocks[j]:
            counts[points[t]] = counts.get(points[t], 0) + 1
        if p and all(c % p == 0 for c in counts.values()):
            return False
    return True


def check_factor(instance: dict, report: dict) -> list:
    """What fails in the certificate of a ``factor`` machine report of exit
    0 (parsed JSON) for its cover instance (parsed JSON); empty when every
    claim in the module docstring holds."""
    field = instance["field"]
    p = 0 if field["kind"] == "Q" else field["p"]
    payload = instance["payload"]
    graph, d = payload["graph"], payload["degree"]
    if report["field"] != field or report["degree"] != d:
        return ["the report is not over the instance's field in its degree"]
    tree, gauged = gauged_cover(instance)
    cotree = [e for e in range(len(gauged)) if e not in tree]
    generators = [gauged[e] for e in cotree]
    monodromy = {
        "tree_edges": tree,
        "generators": [{"edge": e, "perm": [x + 1 for x in gauged[e]]} for e in cotree],
    }
    failures = []
    if report["monodromy"] != monodromy:
        failures.append(f"monodromy {report['monodromy']}, re-derived {monodromy}")
    preserved = {
        blocks
        for b in range(2, d)
        if d % b == 0
        for blocks in _equal_partitions(d, b)
        if all(
            tuple(sorted(g[x] for x in blk)) in blocks for g in generators for blk in blocks
        )
    }
    systems = report["proper_block_systems"]
    reported = [tuple(tuple(x - 1 for x in blk) for blk in s["blocks"]) for s in systems]
    if len(set(reported)) != len(reported) or set(reported) != preserved:
        failures.append(
            f"proper block systems {sorted(reported)}, preserved partitions {sorted(preserved)}"
        )
    if report["proper_count"] != len(systems):
        failures.append(f"proper_count {report['proper_count']}, {len(systems)} systems listed")
    trivial = [[[t + 1] for t in range(d)]] + ([[list(range(1, d + 1))]] if d > 1 else [])
    if report["trivial_block_systems"] != trivial:
        failures.append(f"trivial_block_systems {report['trivial_block_systems']}")
    for i, (system, blocks) in enumerate(zip(systems, reported)):
        if blocks in preserved:
            failures += _system_failures(p, instance, gauged, generators, i, system, blocks)
    all_ok = all(summand_exists(p, d, generators, blocks) for blocks in preserved)
    if report["ok"] != all_ok:
        failures.append(f"ok is {report['ok']}, re-derived {all_ok}")
    return failures


def _system_failures(p: int, instance, gauged, generators, i: int, system, blocks) -> list:
    """What fails in the entry of one proper block system: the intermediate
    cover is the induced action of every gauged edge on the blocks, the
    composite of the quotient map with it is consistent, and the summand
    verdict is the orbit criterion's."""
    payload = instance["payload"]
    edges = payload["graph"]["edges"]
    d, b = payload["degree"], len(blocks[0])
    block_of = [0] * d
    for j, blk in enumerate(blocks):
        for t in blk:
            block_of[t] = j
    induced = [[block_of[g[blk[0]]] for blk in blocks] for g in gauged]
    intermediate = {
        "field": instance["field"],
        "kind": "cover",
        "payload": {
            "graph": payload["graph"],
            "degree": len(blocks),
            "sigma": [[j + 1 for j in images] for images in induced],
        },
    }
    failures = []
    if system["intermediate"] != intermediate:
        failures.append(
            f"system {i}: intermediate {system['intermediate']}, induced {intermediate}"
        )
    # the quotient map block_of after tau_v^-1 carries each edge to the
    # reported quotient's: in the gauge, block_of g_e(t) = sigma'_e(block_of t)
    quotient = system["intermediate"]["payload"]["sigma"]
    consistent = len(quotient) == len(edges) and all(
        len(q) > block_of[t] and q[block_of[t]] == block_of[g[t]] + 1
        for g, q in zip(gauged, quotient)
        for t in range(d)
    )
    if system["composite_consistent"] != consistent:
        failures.append(f"system {i}: composite_consistent, re-derived {consistent}")
    exists = summand_exists(p, d, generators, blocks)
    if system["summand_ok"] != exists:
        failures.append(
            f"system {i}: summand_ok is {system['summand_ok']}, the orbit criterion gives {exists}"
        )
    agrees = None if p and b % p == 0 else True
    if system["retraction_agrees"] is not agrees:
        failures.append(
            f"system {i}: retraction_agrees {system['retraction_agrees']}, re-derived {agrees}"
        )
    if exists and system["witness"] is not None:
        failures.append(f"system {i}: a summand with witness {system['witness']!r}")
    return failures
