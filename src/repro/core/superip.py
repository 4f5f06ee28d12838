"""Super-IP graphs (Section 3 of the paper).

A *super-IP graph* is an IP graph whose seed consists of ``l`` identical
blocks (*super-symbols*) of ``m`` symbols, and whose generators either
permute the symbols inside the leftmost block (*nucleus generators*) or
permute whole blocks without reordering their contents (*super-generators*).

This module provides:

* :class:`NucleusSpec` — a nucleus graph given as (seed block, generators);
* :class:`SuperGeneratorSet` — a named family of block permutations, with
  constructors for the paper's three families (transpositions → HSN,
  cyclic shifts → CN, prefix flips → super-flip networks);
* :func:`build_super_ip_graph` — materialize a (possibly symmetric) super-IP
  graph through the generic IP engine;
* one search over block-arrangement states for the shortest fronting
  schedules, from which the quantities ``t`` and ``t_S`` of Theorems
  4.1/4.3, the resulting diameter formulas (Corollary 4.2) and the sorting
  router's schedules all derive;
* the size formulas of Theorem 3.2 and the symmetric-variant counting of
  Section 3.5.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from repro.cache.memory import memoize_lru

from .ipgraph import NUCLEUS, SUPER, Generator, IPGraph, build_ip_graph
from .permutation import (
    Permutation,
    block_permutation,
    cyclic_shift_left,
    cyclic_shift_right,
    identity,
    lift_to_block,
    prefix_reversal,
    transposition,
)

__all__ = [
    "NucleusSpec",
    "SuperGeneratorSet",
    "build_super_ip_graph",
    "super_ip_size",
    "symmetric_super_ip_size",
    "fronting_schedules",
    "min_supergen_steps",
    "min_supergen_steps_symmetric",
    "reachable_arrangements",
    "diameter_formula",
    "symmetric_diameter_formula",
]


# ----------------------------------------------------------------------
# nucleus
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NucleusSpec:
    """A nucleus graph ``G`` given as an IP-graph specification.

    Attributes
    ----------
    name:
        Display name, e.g. ``"Q3"``.
    seed:
        The seed block (``m`` symbols).  If its symbols are all distinct the
        nucleus is a Cayley graph and symmetric super-IP variants can be
        derived from it (Section 3.5).
    perms:
        The nucleus generators, as permutations of the ``m`` block positions.
    """

    name: str
    seed: tuple
    perms: tuple[Permutation, ...]

    def __post_init__(self) -> None:
        for p in self.perms:
            if p.size != len(self.seed):
                raise ValueError("nucleus generator size != seed block length")
        if not self.perms:
            raise ValueError("nucleus needs at least one generator")

    @property
    def m(self) -> int:
        """Number of symbols per block."""
        return len(self.seed)

    @property
    def num_generators(self) -> int:
        """Number of nucleus generators ``d_N``."""
        return len(self.perms)

    def has_distinct_symbols(self) -> bool:
        """True iff the seed block has no repeated symbols."""
        return len(set(self.seed)) == len(self.seed)

    def build(self, max_nodes: int = 2_000_000) -> IPGraph:
        """Materialize the nucleus graph itself."""
        gens = [
            Generator(p, name=f"g{i}", kind=NUCLEUS) for i, p in enumerate(self.perms)
        ]
        return build_ip_graph(self.seed, gens, name=self.name, max_nodes=max_nodes)

    def size(self, max_nodes: int = 2_000_000) -> int:
        """Number of nodes ``M`` of the nucleus graph."""
        return _nucleus_graph_cached(self, max_nodes).num_nodes

    def diameter(self, max_nodes: int = 2_000_000) -> int:
        """Diameter ``D_G`` of the nucleus graph (exact, by BFS)."""
        from repro.metrics.distances import diameter

        return diameter(_nucleus_graph_cached(self, max_nodes))


# Bounded + centrally clearable (repro.cache.clear_memory_caches): a plain
# module-level ``@lru_cache`` here pinned every nucleus graph ever built for
# the whole process lifetime, leaking memory across registry/contract sweeps.
@memoize_lru(maxsize=8)
def _nucleus_graph_cached(nucleus: NucleusSpec, max_nodes: int) -> IPGraph:
    return nucleus.build(max_nodes=max_nodes)


# ----------------------------------------------------------------------
# super-generator sets
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SuperGeneratorSet:
    """A named set of block permutations over ``l`` blocks.

    ``block_perms`` are permutations of the *block positions* in gather form
    (size ``l``); position 0 is the leftmost block, the one nucleus
    generators act on.
    """

    name: str
    l: int
    block_perms: tuple[tuple[str, Permutation], ...]

    def __post_init__(self) -> None:
        for _, p in self.block_perms:
            if p.size != self.l:
                raise ValueError("block permutation size != l")
        if not self.block_perms:
            raise ValueError("at least one super-generator is required")

    @property
    def num_generators(self) -> int:
        """Number of super-generators ``d_S``."""
        return len(self.block_perms)

    def perms(self) -> list[Permutation]:
        """The bare block permutations."""
        return [p for _, p in self.block_perms]

    # -- the paper's families -----------------------------------------
    @classmethod
    def transpositions(cls, l: int) -> "SuperGeneratorSet":
        """HSN super-generators ``T_2 .. T_l`` (swap block 0 with block i)."""
        if l < 2:
            raise ValueError("l must be >= 2")
        bp = tuple(
            (f"T{i + 1}", transposition(l, 0, i)) for i in range(1, l)
        )
        return cls(name="transpositions", l=l, block_perms=bp)

    @classmethod
    def ring(cls, l: int) -> "SuperGeneratorSet":
        """Ring-CN super-generators: left and right cyclic shift by one."""
        if l < 2:
            raise ValueError("l must be >= 2")
        left = cyclic_shift_left(l, 1)
        if l == 2:
            return cls(name="ring", l=l, block_perms=(("L1", left),))
        return cls(
            name="ring",
            l=l,
            block_perms=(("L1", left), ("R1", cyclic_shift_right(l, 1))),
        )

    @classmethod
    def complete_shifts(cls, l: int) -> "SuperGeneratorSet":
        """Complete-CN super-generators: all cyclic shifts ``L_1 .. L_{l-1}``."""
        if l < 2:
            raise ValueError("l must be >= 2")
        bp = tuple(
            (f"L{s}", cyclic_shift_left(l, s)) for s in range(1, l)
        )
        return cls(name="complete-shifts", l=l, block_perms=bp)

    @classmethod
    def directed_ring(cls, l: int) -> "SuperGeneratorSet":
        """Directed-CN super-generator: left cyclic shift only."""
        if l < 2:
            raise ValueError("l must be >= 2")
        return cls(name="directed-ring", l=l, block_perms=(("L1", cyclic_shift_left(l, 1)),))

    @classmethod
    def flips(cls, l: int) -> "SuperGeneratorSet":
        """Super-flip super-generators ``F_2 .. F_l`` (reverse first i blocks)."""
        if l < 2:
            raise ValueError("l must be >= 2")
        bp = tuple(
            (f"F{i}", prefix_reversal(l, i)) for i in range(2, l + 1)
        )
        return cls(name="flips", l=l, block_perms=bp)


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------
def _symmetric_seed(nucleus: NucleusSpec, l: int) -> tuple:
    """Seed ``S_1 S_2 ... S_l`` with disjoint symbol ranges per block.

    Follows Section 3.5: block ``i`` uses symbols offset by ``i * m`` so that
    no symbol repeats, turning the super-IP graph into a Cayley graph.
    Requires a distinct-symbol nucleus seed.
    """
    if not nucleus.has_distinct_symbols():
        raise ValueError(
            "symmetric variant requires a nucleus seed with distinct symbols"
        )
    m = nucleus.m
    sym_index = {s: j for j, s in enumerate(sorted(set(nucleus.seed), key=repr))}
    seed: list = []
    for b in range(l):
        seed.extend(b * m + sym_index[s] for s in nucleus.seed)
    return tuple(seed)


def build_super_ip_graph(
    nucleus: NucleusSpec,
    sgs: SuperGeneratorSet,
    symmetric: bool = False,
    name: str | None = None,
    max_nodes: int = 2_000_000,
    directed: bool = False,
) -> IPGraph:
    """Materialize a super-IP graph (or its symmetric variant).

    Parameters
    ----------
    nucleus:
        The nucleus specification ``G``.
    sgs:
        The super-generator set (determines the family: HSN, CN, ...); its
        ``l`` gives the number of blocks.
    symmetric:
        Build the symmetric super-IP variant of Section 3.5 (distinct-symbol
        seed → a vertex-symmetric, regular Cayley graph with
        ``|A|·M^l`` nodes, where ``A`` is the arrangement group generated by
        the super-generators).
    directed:
        Treat arcs as directed (directed cyclic-shift networks).

    Returns
    -------
    IPGraph
        Nucleus-generator arcs carry kind :data:`~repro.core.ipgraph.NUCLEUS`,
        super-generator arcs kind :data:`~repro.core.ipgraph.SUPER` — the
        inter-cluster metrics rely on this attribution.
    """
    l, m = sgs.l, nucleus.m
    if symmetric:
        seed = _symmetric_seed(nucleus, l)
    else:
        seed = tuple(nucleus.seed) * l
    gens: list[Generator] = [
        Generator(lift_to_block(p, l, m, block=0), name=f"n{i}", kind=NUCLEUS)
        for i, p in enumerate(nucleus.perms)
    ]
    gens.extend(
        Generator(block_permutation(p.img, m), name=gname, kind=SUPER)
        for gname, p in sgs.block_perms
    )
    if name is None:
        prefix = "sym-" if symmetric else ""
        name = f"{prefix}{sgs.name}(l={l},{nucleus.name})"

    # the closure is a pure function of (seed, generator set, flags): consult
    # the artifact cache when one is configured (repro.cache.configure)
    from repro.cache import cache_key, get_cache

    cache = get_cache()
    key: str | None = None
    if cache is not None:
        key = cache_key(
            "superip.build",
            seed=seed,
            generators=[(g.name, g.kind, list(g.perm.img)) for g in gens],
            name=name,
            directed=directed,
            max_nodes=max_nodes,
        )
        hit = cache.load_network(key)
        if isinstance(hit, IPGraph):
            hit.cache_key = key
            return hit

    graph = build_ip_graph(seed, gens, name=name, max_nodes=max_nodes, directed=directed)
    if cache is not None and key is not None:
        cache.store_network(key, graph)
        graph.cache_key = key
    return graph


# ----------------------------------------------------------------------
# counting (Theorem 3.2 / Section 3.5)
# ----------------------------------------------------------------------
def super_ip_size(nucleus_size: int, l: int) -> int:
    """Theorem 3.2: a super-IP graph has ``N = M^l`` nodes."""
    if nucleus_size < 1 or l < 1:
        raise ValueError("nucleus_size and l must be positive")
    return nucleus_size**l


def reachable_arrangements(sgs: SuperGeneratorSet) -> set[tuple[int, ...]]:
    """All block arrangements reachable from identity (the arrangement
    group's orbit); its size is the symmetric variant's multiplicity.

    For transposition and flip super-generators this is all ``l!``
    arrangements; for cyclic shifts only the ``l`` rotations.
    """
    start = tuple(range(sgs.l))
    seen = {start}
    queue = deque([start])
    perms = sgs.perms()
    while queue:
        cur = queue.popleft()
        for p in perms:
            nxt = p(cur)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def symmetric_super_ip_size(nucleus_size: int, sgs: SuperGeneratorSet) -> int:
    """Size of the symmetric variant: ``|A| · M^l`` (Section 3.5).

    ``|A|`` is the number of reachable block arrangements: ``l!`` for HSN
    and super-flip networks, ``l`` for cyclic-shift networks.
    """
    return len(reachable_arrangements(sgs)) * super_ip_size(nucleus_size, sgs.l)


# ----------------------------------------------------------------------
# the quantities t and t_S (Theorems 4.1 / 4.3)
# ----------------------------------------------------------------------
def fronting_schedules(
    sgs: SuperGeneratorSet,
) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """Shortest fronting schedules, one per reachable final arrangement.

    A *fronting schedule* is a sequence of super-generator indices after
    which every block has occupied the leftmost position at least once (the
    initially-leftmost block counts immediately).  One BFS over
    (arrangement, fronted-block set) states yields ``(arrangement,
    schedule)`` once per arrangement reachable with every block fronted,
    in BFS order — so schedule lengths never decrease and the first pair
    is a shortest fronting schedule overall.
    The search is lazy: a consumer that stops after the first pair pays
    only for the BFS levels up to it.

    ``arrangement[pos]`` is the initial position of the block that ends at
    ``pos``.
    """
    start_arr = tuple(range(sgs.l))
    full = (1 << sgs.l) - 1
    start = (start_arr, 1 << start_arr[0])
    if start[1] == full:
        yield start_arr, []
    perms = sgs.perms()
    parent: dict = {start: None}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        arr, vis = state
        for gi, p in enumerate(perms):
            nxt_arr = p(arr)
            key = (nxt_arr, vis | (1 << nxt_arr[0]))
            if key in parent:
                continue
            parent[key] = (state, gi)
            queue.append(key)
            # each (arrangement, all fronted) state is reached once, at
            # its BFS depth
            if key[1] == full:
                seq: list[int] = []
                cur = key
                while parent[cur] is not None:
                    cur, g = parent[cur]
                    seq.append(g)
                seq.reverse()
                yield nxt_arr, seq


def min_supergen_steps(sgs: SuperGeneratorSet) -> int:
    """Exact ``t`` of Theorem 4.1: the minimum number of super-generator
    applications after which every block has occupied the leftmost position
    at least once (the initially-leftmost block counts immediately).

    The length of the first schedule :func:`fronting_schedules` finds; for
    all the paper's families the result is ``l - 1``.
    """
    for _, schedule in fronting_schedules(sgs):
        return len(schedule)
    raise ValueError(
        "super-generators cannot bring every block to the front "
        "(not a valid super-IP generator set)"
    )


def min_supergen_steps_symmetric(sgs: SuperGeneratorSet) -> int:
    """Exact ``t_S`` of Theorem 4.3: the worst case over reachable target
    arrangements of the minimum number of super-generator applications that
    (a) bring every block to the front at least once and (b) leave the
    blocks in the target arrangement.
    """
    done = {arr: len(schedule) for arr, schedule in fronting_schedules(sgs)}
    targets = reachable_arrangements(sgs)
    missing = targets - set(done)
    if missing:
        raise ValueError(f"arrangements unreachable with all blocks fronted: {missing}")
    return max(done[t] for t in targets)


# ----------------------------------------------------------------------
# diameter formulas (Theorem 4.1 / 4.3 / Corollary 4.2)
# ----------------------------------------------------------------------
def diameter_formula(nucleus_diameter: int, sgs: SuperGeneratorSet) -> int:
    """Theorem 4.1: ``diameter = l · D_G + t``.

    For the paper's families ``t = l − 1`` and therefore (Corollary 4.2)
    ``diameter = (D_G + 1) · log_M N − 1``.
    """
    return sgs.l * nucleus_diameter + min_supergen_steps(sgs)


def symmetric_diameter_formula(nucleus_diameter: int, sgs: SuperGeneratorSet) -> int:
    """Theorem 4.3: ``diameter = l · D_G + t_S`` for the symmetric variant."""
    return sgs.l * nucleus_diameter + min_supergen_steps_symmetric(sgs)
