"""Exact arithmetic and outcome oracles of the benchmark, independent of the package.

Nothing here imports ``cartancover``: the oracles decide what a correct
answer is from the generated data alone, so a change to the package can
neither move a workload nor its verdicts.

Field elements are ``Fraction`` over Q and plain ints in [0, p) over GF(p).
"""

from __future__ import annotations

from fractions import Fraction


class Field:
    """Q (``p == 0``) or GF(p), with elements as Fraction or least residue."""

    def __init__(self, p: int = 0):
        self.p = p

    @classmethod
    def from_json(cls, desc: dict) -> "Field":
        return cls(0 if desc["kind"] == "Q" else desc["p"])

    def to_json(self) -> dict:
        return {"kind": "Q"} if self.p == 0 else {"kind": "Fp", "p": self.p}

    def elt(self, x):
        return Fraction(x) if self.p == 0 else x % self.p

    def add(self, a, b):
        return a + b if self.p == 0 else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p == 0 else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p == 0 else (a * b) % self.p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a) if self.p == 0 else pow(a, self.p - 2, self.p)

    def render(self, a):
        """Instance-file form: rationals as strings, residues as ints."""
        return str(a) if self.p == 0 else a


def matmul(f: Field, a, b):
    return [
        [_dot(f, row, [b[k][j] for k in range(len(b))]) for j in range(len(b[0]))]
        for row in a
    ]


def _dot(f: Field, xs, ys):
    acc = f.elt(0)
    for x, y in zip(xs, ys):
        if x and y:
            acc = f.add(acc, f.mul(x, y))
    return acc


def identity(f: Field, n: int):
    return [[f.elt(1 if i == j else 0) for j in range(n)] for i in range(n)]


def row_reduce(f: Field, rows, ncols: int):
    """Gauss-Jordan elimination in place over the first ``ncols`` columns.

    Returns the pivot columns; rows past the rank end up zero in those columns.
    """
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = f.inv(rows[r][c])
        rows[r] = [f.mul(x, inv) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                k = rows[i][c]
                rows[i] = [f.sub(x, f.mul(k, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots


def inverse(f: Field, m):
    """Inverse of a square matrix, or None when it is singular."""
    n = len(m)
    aug = [list(row) + ident for row, ident in zip(m, identity(f, n))]
    if len(row_reduce(f, aug, n)) < n:
        return None
    return [row[n:] for row in aug]


def consistent(f: Field, rows, nvars: int) -> bool:
    """Whether the augmented system ``rows`` (last column = right side) has a solution."""
    rows = [list(r) for r in rows]
    rank = len(row_reduce(f, rows, nvars))
    return not any(row[nvars] for row in rows[rank:])


# ---------------------------------------------------------------------------
# covers: components and holonomy


def components(n: int, edges, d: int, sigma) -> list:
    """Per component of the cover's total space, its number of labels per vertex.

    Union-find over (vertex, label); sigma[e][t] is the image of label t
    along edge e.
    """
    parent = list(range(n * d))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e, (u, v) in enumerate(edges):
        for t in range(d):
            a, b = find(u * d + t), find(v * d + sigma[e][t])
            if a != b:
                parent[b] = a
    sizes = {}
    for x in range(n * d):
        root = find(x)
        sizes[root] = sizes.get(root, 0) + 1
    return sorted((s // n for s in sizes.values()), reverse=True)


def root_holonomy(n: int, edges, d: int, sigma) -> list:
    """Monodromy generators at vertex 0, as permutations of the labels there.

    A BFS tree from vertex 0 gives path maps tau_v (labels at 0 -> labels
    at v); each non-tree edge u -> v contributes tau_v^-1 . sigma_e . tau_u.
    """
    tau = [None] * n
    tau[0] = tuple(range(d))
    tree = set()
    queue = [0]
    while queue:
        u = queue.pop(0)
        for e, (a, b) in enumerate(edges):
            if a == u and tau[b] is None:
                tau[b] = tuple(sigma[e][tau[a][t]] for t in range(d))
            elif b == u and tau[a] is None:
                inv = _invert(sigma[e])
                tau[a] = tuple(inv[tau[b][t]] for t in range(d))
            else:
                continue
            tree.add(e)
            queue.append(a if b == u else b)
    if any(t is None for t in tau):
        raise ValueError("base graph is not connected")
    gens = []
    for e, (u, v) in enumerate(edges):
        if e in tree:
            continue
        back = _invert(tau[v])
        gens.append(tuple(back[sigma[e][tau[u][t]]] for t in range(d)))
    return gens


def _invert(perm):
    out = [0] * len(perm)
    for i, x in enumerate(perm):
        out[x] = i
    return tuple(out)


def is_transitive(d: int, gens) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for g in gens:
            if g[x] not in seen:
                seen.add(g[x])
                stack.append(g[x])
    return len(seen) == d


def preserves(gens, blocks) -> bool:
    """Whether every generator maps each block onto a block."""
    block_set = {frozenset(b) for b in blocks}
    return all(frozenset(g[x] for x in b) in block_set for g in gens for b in blocks)


def summand_exists(f: Field, d: int, gens, blocks) -> bool:
    """Whether the quotient pushforward is a flat direct summand of the full one.

    Decides the linear system r . P_g = Q_g . r (for every holonomy
    generator g), r . i = I over the field, where i: k^m -> k^d sends a
    block to the sum of its labels. The equivariance equations say
    exactly that r[j][t] is constant on the orbits of the monodromy on
    (block, label) pairs, so the unknowns are one value per orbit and only
    the m x m equations of r . i = I remain.
    """
    m = len(blocks)
    block_of = [0] * d
    for j, blk in enumerate(blocks):
        for t in blk:
            block_of[t] = j
    parent = list(range(m * d))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in gens:
        for j, blk in enumerate(blocks):
            gj = block_of[g[blk[0]]]
            for t in range(d):
                a, b = find(j * d + t), find(gj * d + g[t])
                if a != b:
                    parent[b] = a
    orbit_index = {}
    var = [orbit_index.setdefault(find(x), len(orbit_index)) for x in range(m * d)]
    nvars = len(orbit_index)
    rows = []
    for j in range(m):
        for jj, blk in enumerate(blocks):
            row = [f.elt(0)] * (nvars + 1)
            for t in blk:
                k = var[j * d + t]
                row[k] = f.add(row[k], f.elt(1))
            row[nvars] = f.elt(1 if j == jj else 0)
            rows.append(row)
    return consistent(f, rows, nvars)
