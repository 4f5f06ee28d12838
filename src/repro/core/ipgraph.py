"""The index-permutation (IP) graph engine.

An IP graph is defined by a *seed label* (a string of symbols, possibly with
repetitions) and a set of *generators* (index permutations).  Its vertices
are all labels reachable from the seed by applying generators, and its edges
are the generator actions (Yeh & Parhami, ICPP 1999, Section 2).

When all symbols of the seed are distinct the IP graph is exactly the Cayley
graph of the permutation group generated by the generator set, so the classic
Cayley-graph networks (star graph, hypercube, pancake, CCC, ...) are special
cases.  Repeated symbols collapse states together and yield the richer IP
class (HCN, HSN, cyclic-shift networks, de Bruijn, shuffle-exchange, ...).

The engine performs a breadth-first closure of the seed under the generators
and exposes the resulting graph through the :class:`~repro.core.network.Network`
interface used by all metric kernels.  The closure is batched: the action of
an index permutation on a *batch* of labels is a NumPy column gather, so the
whole BFS frontier is expanded at once:

* labels live in an ``(N, k)`` integer matrix;
* applying generator ``p`` to a frontier block ``F`` is ``F[:, p.img]``;
* deduplication uses byte-view keys with ``searchsorted`` against the
  sorted known set and ``np.unique`` within the batch — no per-arc Python.

Node ids follow BFS discovery order with generators applied in index order,
exactly as a label-by-label closure would number them; the test suite
checks this against a per-label oracle on ~50 randomized seed/generator
sets (``tests/test_equivalence_random.py``).

When :mod:`repro.obs` is enabled the build reports per-level frontier
sizes, dedup hit rates and nodes/sec; all instrumentation is guarded so
the disabled path stays on the vectorized fast path untouched.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro import obs

from .network import Label, Network
from .permutation import Permutation

__all__ = ["Generator", "IPGraph", "build_ip_graph", "NUCLEUS", "SUPER", "GENERIC"]

#: generator kinds (used for inter-cluster accounting)
NUCLEUS = "nucleus"
SUPER = "super"
GENERIC = "generic"
_KINDS = (NUCLEUS, SUPER, GENERIC)


@dataclass(frozen=True)
class Generator:
    """A named generator of an IP graph.

    Attributes
    ----------
    perm:
        The index permutation defining the action on labels.
    name:
        Human-readable name, e.g. ``"T2"`` or ``"(0 1)"``.
    kind:
        One of :data:`NUCLEUS`, :data:`SUPER`, :data:`GENERIC`.  Nucleus vs
        super matters for the hierarchical (inter-cluster) cost metrics of
        Section 5 of the paper.
    """

    perm: Permutation
    name: str = ""
    kind: str = GENERIC

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if not self.name:
            object.__setattr__(self, "name", str(self.perm))

    def __call__(self, label: Sequence) -> Label:
        return self.perm(label)


class IPGraph(Network):
    """An index-permutation graph, fully materialized.

    Use :func:`build_ip_graph` (or the family constructors in
    :mod:`repro.networks`) to create instances.

    In addition to the :class:`~repro.core.network.Network` interface, an
    IP graph knows which generator produced each arc (``edges_gen``), which
    makes the inter-cluster edge accounting of Section 5 exact.  Self-loops
    produced by a generator fixing a label (common in super-IP graphs with
    repeated symbols, e.g. the HCN seed) are recorded in the arc arrays but
    excluded from the simple adjacency, matching how the paper counts node
    degree.
    """

    def __init__(
        self,
        labels: Sequence[Label],
        generators: Sequence[Generator],
        edges: np.ndarray,
        name: str = "ip-graph",
        seed: Label | None = None,
        directed: bool = False,
    ) -> None:
        super().__init__(labels, edges[:, 0], edges[:, 1], name=name, directed=directed)
        self.generators = list(generators)
        self.seed = seed if seed is not None else (self.labels[0] if self.labels else ())
        self._gen_ids = np.asarray(edges[:, 2], dtype=np.int64)

    def __repr__(self) -> str:
        return (
            f"IPGraph({self.name!r}, N={self.num_nodes}, "
            f"generators={len(self.generators)})"
        )

    @property
    def edges_gen(self) -> np.ndarray:
        """Generator index per arc (aligned with ``edges_src``/``edges_dst``)."""
        return self._gen_ids

    def apply_generator(self, node: int, gen: int) -> int:
        """Node reached from ``node`` by generator index ``gen``."""
        return self.index[self.generators[gen].perm(self.labels[node])]

    def edge_kinds(self) -> np.ndarray:
        """Per-arc kind codes: 0 nucleus, 1 super, 2 generic (loops incl.)."""
        code = {NUCLEUS: 0, SUPER: 1, GENERIC: 2}
        gk = np.array([code[g.kind] for g in self.generators], dtype=np.int8)
        return gk[self._gen_ids]

    def generator_names(self) -> list[str]:
        """Names of the generators, in index order."""
        return [g.name for g in self.generators]

    def is_vertex_transitive(self, max_nodes: int = 2000) -> bool:
        """Exact vertex-transitivity test (small graphs only).

        Raises ``ValueError`` for graphs above ``max_nodes`` — use
        :func:`repro.metrics.symmetry.looks_vertex_transitive` for a cheap
        necessary-condition check on larger instances.
        """
        if self.num_nodes > max_nodes:
            raise ValueError(
                f"graph too large for exact transitivity test ({self.num_nodes} nodes)"
            )
        from repro.metrics.symmetry import is_vertex_transitive

        return is_vertex_transitive(self)


def _encode_seed(seed: Sequence) -> tuple[np.ndarray, list]:  # repro: noqa[RPR021,RPR022] — runs once per build on the k-symbol seed label, not per node
    """Map arbitrary hashable symbols to small ints (order of appearance)."""
    symbols: dict = {}
    row = []
    for s in seed:
        row.append(symbols.setdefault(s, len(symbols)))
    alphabet = [None] * len(symbols)
    for s, i in symbols.items():
        alphabet[i] = s
    return np.asarray(row, dtype=np.int32), alphabet


def _void_view(rows: np.ndarray) -> np.ndarray:
    """View (n, k) int rows as an (n,) array of fixed-size byte keys."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()


def build_ip_graph(
    seed: Sequence,
    generators: Iterable[Generator | Permutation],
    name: str = "ip-graph",
    max_nodes: int = 2_000_000,
    directed: bool = False,
) -> IPGraph:
    """Materialize the IP graph of ``(seed, generators)`` by batched BFS closure.

    Parameters
    ----------
    seed:
        The seed label (any sequence of hashable symbols).
    generators:
        Generators; bare :class:`Permutation` objects are wrapped as
        :data:`GENERIC` generators.
    max_nodes:
        Safety bound; construction aborts with ``ValueError`` beyond it.
    directed:
        Treat generator arcs as directed (used for directed cyclic-shift
        networks).  Note that with ``directed=True`` the closure still
        explores forward arcs only, exactly as the game defines it.

    Returns
    -------
    IPGraph

    Examples
    --------
    The paper's Section 2 example (36-node IP graph with repeated symbols)::

        >>> from repro.core.permutation import from_cycles, cyclic_shift_left
        >>> seed = (1, 2, 3, 1, 2, 3)
        >>> gens = [from_cycles(6, [(0, 1)]), from_cycles(6, [(0, 2)]),
        ...         cyclic_shift_left(6, 3)]
        >>> g = build_ip_graph(seed, gens)
        >>> g.num_nodes
        36
    """
    gens: list[Generator] = []
    for g in generators:
        if isinstance(g, Permutation):
            g = Generator(g)
        gens.append(g)
    if not gens:
        raise ValueError("at least one generator is required")
    k = gens[0].perm.size
    seed_t = tuple(seed)
    if len(seed_t) != k:
        raise ValueError(f"seed length {len(seed_t)} != generator size {k}")
    for g in gens:
        if g.perm.size != k:
            raise ValueError("all generators must act on the same number of positions")

    _reg = obs.registry()
    _profiling = obs.enabled()
    with obs.span("closure.build.fast", name=name, generators=len(gens)) as sp:
        t0 = time.perf_counter() if _profiling else 0.0
        level = 0
        dedup_hits = 0

        seed_row, alphabet = _encode_seed(seed_t)
        gen_imgs = [np.asarray(g.perm.img, dtype=np.int64) for g in gens]
        ngen = len(gens)

        rows_blocks = [seed_row[None, :]]
        known_keys = _void_view(seed_row[None, :]).copy()  # sorted (length 1)
        known_ids = np.array([0], dtype=np.int64)
        total = 1

        arc_src: list[np.ndarray] = []
        arc_dst: list[np.ndarray] = []
        arc_gen: list[np.ndarray] = []

        frontier = seed_row[None, :]
        frontier_ids = np.array([0], dtype=np.int64)
        while len(frontier):
            f = len(frontier)
            src_ids = frontier_ids
            # stacked[i*ngen + gi] = gens[gi](frontier[i]) — the (node,
            # generator) order a label-by-label closure would visit
            stacked = np.empty((f * ngen, k), dtype=frontier.dtype)
            for gi, img in enumerate(gen_imgs):
                stacked[gi::ngen] = frontier[:, img]
            keys = _void_view(stacked)

            pos = np.searchsorted(known_keys, keys)
            pos_c = np.minimum(pos, len(known_keys) - 1)
            hit = known_keys[pos_c] == keys
            dst = np.empty(f * ngen, dtype=np.int64)
            dst[hit] = known_ids[pos_c[hit]]

            miss_idx = np.nonzero(~hit)[0]
            if len(miss_idx):
                miss_keys = keys[miss_idx]
                uniq, first, inv = np.unique(
                    miss_keys, return_index=True, return_inverse=True
                )
                # discovery order = ascending first-occurrence position
                order = np.argsort(first, kind="stable")
                rank = np.empty(len(uniq), dtype=np.int64)
                rank[order] = np.arange(len(uniq))
                if total + len(uniq) > max_nodes:
                    raise ValueError(
                        f"IP graph exceeds max_nodes={max_nodes}; "
                        "raise the bound explicitly if intended"
                    )
                new_ids = total + rank
                dst[miss_idx] = new_ids[inv]
                new_rows = stacked[miss_idx[first[order]]]
                rows_blocks.append(new_rows)
                # merge the new keys into the sorted known set — once per
                # BFS level (O(diameter) iterations), not per element
                merged_keys = np.concatenate([known_keys, uniq])  # repro: noqa[RPR021]
                merged_ids = np.concatenate([known_ids, new_ids])  # repro: noqa[RPR021]
                sort = np.argsort(merged_keys, kind="stable")
                known_keys = merged_keys[sort]
                known_ids = merged_ids[sort]
                old_total = total
                total += len(uniq)
                frontier = new_rows
                frontier_ids = np.arange(old_total, total, dtype=np.int64)
            else:
                frontier = frontier[:0]

            # record this level's arcs (sources are the frontier we expanded)
            arc_src.append(np.repeat(src_ids, ngen))
            arc_dst.append(dst)
            arc_gen.append(np.tile(np.arange(ngen, dtype=np.int64), f))

            if _profiling:
                # every arc that did not discover a new node is a dedup hit
                # (within-batch duplicates included)
                batch_hits = f * ngen - len(frontier)
                dedup_hits += batch_hits
                level += 1
                _reg.observe("closure.fast.level_frontier", f)
                obs.trace_instant(
                    "closure.level",
                    level=level - 1,
                    frontier=f,
                    expanded=f * ngen,
                    dedup_hits=batch_hits,
                    new_nodes=len(frontier),
                )

        mat = np.concatenate(rows_blocks, axis=0)
        if alphabet == list(range(len(alphabet))):
            # symbols are already 0..a-1: skip the per-symbol remapping
            labels: list[Label] = list(map(tuple, mat.tolist()))
        else:
            amap = np.array(alphabet, dtype=object)
            labels = list(map(tuple, amap[mat].tolist()))
        edges = np.column_stack(
            [np.concatenate(arc_src), np.concatenate(arc_dst), np.concatenate(arc_gen)]
        )

        if _profiling:
            dt = time.perf_counter() - t0
            arcs = len(edges)
            _reg.incr("closure.fast.builds")
            _reg.incr("closure.fast.nodes", total)
            _reg.incr("closure.fast.arcs", arcs)
            _reg.incr("closure.fast.dedup_hits", dedup_hits)
            _reg.gauge("closure.fast.nodes_per_sec", total / dt if dt else 0.0)
            sp.set(
                nodes=total,
                arcs=arcs,
                levels=level,
                dedup_hits=dedup_hits,
                dedup_hit_rate=dedup_hits / arcs if arcs else 0.0,
            )
    return IPGraph(labels, gens, edges, name=name, seed=seed_t, directed=directed)
