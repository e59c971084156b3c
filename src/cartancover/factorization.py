"""Factoring covers through intermediate covers via block systems.

After gauge-fixing along a spanning tree, a cover is encoded by one
permutation per remaining edge; the gauge comes from the cover
(``CoverRep.gauge``), computed once however many block systems read it.
A partition of the fiber into equal blocks preserved by all those
permutations determines an intermediate cover whose fibers are the
blocks. The pushforward of the structure sheaf along the intermediate
cover sits inside the full pushforward as the span of block indicator
vectors, and that embedding is flat because the partition is a block
system. So the summand check builds neither pushforward: it tests only
that a retraction splits the indicator embedding.

That check certifies nothing beyond the block-system property. Both of
its identities hold on every block system by construction, so its
verdict is True whenever ``is_block_system`` holds. In particular it
proves no direct summand when the characteristic divides the block size:
over GF(2) the 4-cycle with blocks {1,3},{2,4} passes, yet no flat
retraction exists.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .covers import CoverRep, TreeGauge
from .errors import DegreeTooLarge, NotABlockSystem
from .linalg import Matrix

ENUMERATION_DEGREE_BOUND = 12


def monodromy_generators(cover: CoverRep) -> TreeGauge:
    """The cover's tree gauge, whose ``generators`` are its holonomy."""
    return cover.gauge


class BlockSystem(NamedTuple):
    """A partition of the fiber into equal-size blocks mapped to blocks."""

    blocks: tuple  # sorted tuples of labels, ordered by first element
    degree: int

    @property
    def block_size(self) -> int:
        return len(self.blocks[0])

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_of(self) -> tuple:
        out = [None] * self.degree
        for i, b in enumerate(self.blocks):
            for x in b:
                out[x] = i
        return tuple(out)


def normalize_partition(blocks, degree: int) -> BlockSystem:
    norm = tuple(sorted(tuple(sorted(b)) for b in blocks))
    seen = [x for b in norm for x in b]
    if sorted(seen) != list(range(degree)):
        raise NotABlockSystem("not a partition of the fiber")
    sizes = {len(b) for b in norm}
    if len(sizes) != 1:
        raise NotABlockSystem("blocks have unequal sizes")
    return BlockSystem(norm, degree)


def is_block_system(generators, system: BlockSystem) -> bool:
    block_set = set(system.blocks)
    for _e, g in generators:
        for b in system.blocks:
            if tuple(sorted(g[x] for x in b)) not in block_set:
                return False
    return True


class BlockSystemCatalog(NamedTuple):
    proper: tuple
    trivial: tuple


def _closed_block_families(seed, gens):
    """Close a seed block under the generators; None on partial overlap."""
    family = {seed}
    queue = [seed]
    while queue:
        block = queue.pop()
        for g in gens:
            image = frozenset(g[x] for x in block)
            if image in family:
                continue
            if any(image & other for other in family):
                return None
            family.add(image)
            queue.append(image)
    return family


def _partitions_with_block_size(d: int, b: int, gens):
    """All generator-stable partitions of 0..d-1 into blocks of size b."""

    def extend(remaining):
        if not remaining:
            yield []
            return
        first = min(remaining)
        rest = sorted(remaining - {first})
        for companions in combinations(rest, b - 1):
            seed = frozenset((first, *companions))
            family = _closed_block_families(seed, gens)
            if family is None:
                continue
            used = frozenset(x for blk in family for x in blk)
            family_blocks = sorted(tuple(sorted(blk)) for blk in family)
            for tail in extend(remaining - used):
                yield family_blocks + tail

    for blocks in extend(frozenset(range(d))):
        yield normalize_partition(blocks, d)


def block_systems(mono: TreeGauge) -> BlockSystemCatalog:
    """Enumerate all block systems, separating the two trivial ones.

    Proper systems have block size strictly between 1 and the degree.
    Refuses degrees beyond the enumeration bound instead of sampling.
    """
    d = len(mono.taus[0])
    if d > ENUMERATION_DEGREE_BOUND:
        raise DegreeTooLarge(f"degree {d} exceeds enumeration bound {ENUMERATION_DEGREE_BOUND}")
    gens = [g for _e, g in mono.generators]
    proper = []
    for b in range(2, d):
        if d % b != 0:
            continue
        proper.extend(_partitions_with_block_size(d, b, gens))
    trivial = [normalize_partition([[x] for x in range(d)], d)]
    if d > 1:
        trivial.append(normalize_partition([list(range(d))], d))
    return BlockSystemCatalog(tuple(proper), tuple(trivial))


def intermediate_cover(cover: CoverRep, system: BlockSystem) -> CoverRep:
    """The quotient of a cover by a block system of its monodromy.

    The quotient's fibers are the blocks; each edge permutes blocks as it
    permutes their members. The quotient map (block_of . tau_v^-1 at v)
    followed by the quotient's projection reproduces every edge bijection:
    the gauged tau_v^-1 . sigma_e . tau_u carries each block onto a block
    (tree edges carry the identity, ``is_block_system`` checks the rest),
    so it sends a whole block where it sends the block's first label.
    """
    gauge = cover.gauge
    if not is_block_system(gauge.generators, system):
        raise NotABlockSystem("partition is not preserved by the monodromy")
    block_of = system.block_of()
    m = system.num_blocks
    quotient_sigma = []
    for e in range(len(cover.base.edges)):
        g = gauge.sigma[e]
        images = [None] * m
        for i, block in enumerate(system.blocks):
            images[i] = block_of[g[block[0]]]
        quotient_sigma.append(tuple(images))
    return CoverRep(cover.base, m, tuple(quotient_sigma))


class SummandCheckReport(NamedTuple):
    """Verdict of the direct-summand test for an intermediate cover."""

    ok: bool
    retraction_identity: bool
    average_retraction_agrees: bool | None
    witness: str | None = None


def summand_embedding_check(cover: CoverRep, system: BlockSystem, field) -> SummandCheckReport:
    """Check that a retraction splits the embedding of the quotient pushforward.

    The verdict is True on every block system: both identities below hold
    by construction, so it certifies no more than ``is_block_system``. When
    the characteristic divides the block size it does not prove that the
    quotient pushforward is a direct summand, and it can be wrong there.

    Embeds the quotient pushforward V into the full pushforward W by block
    indicator vectors i, retracts by picking the first label of each
    block, and verifies that the retraction splits the embedding. When the
    characteristic does not divide the block size, the block-average
    retraction is run as well and must agree. A partition that is not a
    block system raises ``NotABlockSystem``.

    Neither pushforward is built: the embedding commutes with every
    transition because the partition is a block system. In the tree gauge
    the structure sheaf's transition W_e sends basis vector t to basis
    vector g_e(t), so column j of W_e . i is the indicator of g_e(B_j),
    and column j of i . V_e is the indicator of the block holding
    g_e(B_j[0]). They agree when g_e carries every block onto a block,
    which ``is_block_system`` checks on the cotree edges; tree edges carry
    the identity.

    The compression square m -> p . m . i for a retraction p is the same
    test as p . i = I: the indicator i has 0/1 entries and disjoint block
    supports, so p . diag(i . e_j) . i equals diag(e_j) for every j exactly
    when p . i is the identity, at every vertex alike.
    """
    if not is_block_system(cover.gauge.generators, system):
        raise NotABlockSystem("partition is not preserved by the monodromy")
    d, m, b = cover.degree, system.num_blocks, system.block_size
    identity = Matrix.identity(field, m)
    # row j is the indicator of block j; the embedding is its transpose
    indicator = [[int(t in blk) for t in range(d)] for blk in system.blocks]
    include = Matrix(field, [list(col) for col in zip(*indicator)])
    retract = Matrix(field, [[int(t == blk[0]) for t in range(d)] for blk in system.blocks])

    witness = None
    retraction_identity = retract @ include == identity
    if not retraction_identity:
        witness = "retraction does not split the embedding"

    average_agrees = None
    p = field.characteristic
    if not (p and b % p == 0):
        average = Matrix._make(field, b, indicator, d)
        # one product decides both the splitting and the square of the average
        average_agrees = (average @ include == identity) == retraction_identity
        if not average_agrees:
            witness = witness or "retraction choice changes the verdict"

    ok = retraction_identity and (average_agrees is None or average_agrees)
    return SummandCheckReport(ok, retraction_identity, average_agrees, witness)
