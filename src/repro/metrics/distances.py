"""Distance metrics: BFS distances, diameter, average distance.

These kernels operate on any :class:`repro.core.network.Network` (or a raw
CSR adjacency).  They are the measurement side of the paper's topological
comparisons: diameter and average distance feed the DD-cost of Figure 2 and
the latency model of Section 5.

Every distance comes from one bit-parallel multi-source BFS,
:func:`_bit_levels` (MS-BFS, Then et al., PVLDB 2014; DESIGN.md §9): 64
sources share a ``uint64`` word per node, and a level is one gather over
in-neighbour lists plus one ``bitwise_or.reduceat``.  Only
:func:`bfs_distances` scatters levels into a dense ``(S, N)`` matrix; the
all-pairs reductions fold each level into per-source maxima and a total.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.core.network import Network

__all__ = [
    "approx_average_distance",
    "as_csr",
    "bfs_distances",
    "single_source_distances",
    "eccentricities",
    "diameter",
    "average_distance",
    "distance_histogram",
    "is_connected",
    "DistanceSummary",
    "distance_summary",
    "physical_memory",
    "require_memory",
]

#: words per level's ``(nnz, W)`` gather in reduction sweeps (~256 KiB, cache-resident)
_GATHER_WORDS = 1 << 15
#: in-neighbour lists as ``reduceat`` operands (see :func:`_in_arcs`)
_Arcs = tuple[np.ndarray, np.ndarray, np.ndarray]


def physical_memory() -> int | None:
    """Bytes of physical memory on this machine, or None where
    ``os.sysconf`` cannot tell."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return None


def require_memory(nbytes: int, what: str) -> None:
    """Fail fast, before allocating, when ``what`` needs more than the
    machine's physical memory: a :class:`MemoryError` naming the bytes
    needed and the table-free alternative."""
    total = physical_memory()
    if total is not None and nbytes > total:
        raise MemoryError(
            f"{what} needs {nbytes:,} bytes, more than the {total:,} bytes of "
            f"physical memory; route super-IP graphs table-free with "
            f"repro.routing.SuperIPRouter"
        )


def as_csr(net: Network | sp.spmatrix) -> sp.csr_matrix:
    """Coerce a Network or sparse matrix to simple CSR adjacency."""
    if isinstance(net, Network):
        return net.adjacency_csr()
    return sp.csr_matrix(net)


def _in_arcs(adj: sp.spmatrix) -> _Arcs:
    """In-neighbour lists of ``adj`` (arc ``u -> v`` at ``[u, v]``) as
    ``reduceat`` operands: tails grouped by head, row starts, empty rows."""
    heads = sp.csr_matrix(adj.T)
    indptr = heads.indptr
    return heads.indices, indptr[:-1], indptr[:-1] == indptr[1:]


def _gather_or(arcs: _Arcs, bits: np.ndarray) -> np.ndarray:
    """OR of ``bits`` over each node's in-neighbours: one BFS step."""
    tails, starts, empty = arcs
    # one zero row past the gather keeps every start (empty trailing rows
    # start at nnz) a valid reduceat index without cutting the last run
    gathered = np.empty((len(tails) + 1, bits.shape[1]), dtype=np.uint64)
    gathered[-1] = 0
    np.take(bits, tails, axis=0, out=gathered[:-1])
    out = np.bitwise_or.reduceat(gathered, starts, axis=0)
    out[empty] = 0  # reduceat reads the next row's first arc for empty rows
    return out


def _bit_levels(
    arcs: _Arcs,
    nodes: np.ndarray,
    bits: np.ndarray,
    width: int,
    zero_arcs: _Arcs | None = None,
    step: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> Iterator[tuple[int, np.ndarray]]:
    """The bit-parallel level kernel: yields ``(level, new)`` per BFS level.

    Source bit ``b`` (of ``width``) starts at node ``nodes[i]`` wherever
    ``bits[i] == b``; bit ``b`` of word ``w`` is source ``64 w + b``.
    ``new`` is an ``(N, W)`` ``uint64`` array of the sources first reaching
    each node at ``level``.  With ``zero_arcs`` every level is closed over
    those (cost-0) arcs before it is yielded, so ``arcs`` are the cost-1
    steps of a 0/1-weighted search.  ``step(frontier, seen)``, when given,
    replaces the cost-1 step (``_gather_or(arcs, frontier) & ~seen``) with
    an equivalent one that also records per-arc facts, as the next-hop
    table's port step does.
    """
    n = len(arcs[1])  # one row start per node
    frontier = np.zeros((n, (width + 63) // 64), dtype=np.uint64)
    np.bitwise_or.at(frontier, (nodes, bits >> 6), np.uint64(1) << (bits & 63).astype(np.uint64))
    seen = frontier.copy()
    reg = obs.registry()
    reg.incr("metrics.bfs.sweeps")
    reg.incr("metrics.bfs.sources", width)
    level = 0
    while frontier.any():
        grow = frontier
        while zero_arcs is not None and grow.any():
            grow = _gather_or(zero_arcs, grow) & ~seen
            seen |= grow
            frontier |= grow
        reg.incr("metrics.bfs.levels")
        yield level, frontier
        frontier = _gather_or(arcs, frontier) & ~seen if step is None else step(frontier, seen)
        seen |= frontier
        level += 1


def _source_bits(words: np.ndarray, width: int) -> np.ndarray:
    """``(..., W)`` little-endian bit-words as ``(..., width)`` booleans."""
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, axis=-1, count=width, bitorder="little").view(bool)


def bfs_distances(
    net: Network | sp.spmatrix, sources: Sequence[int] | np.ndarray
) -> np.ndarray:
    """Hop distances from each source to every node, along out-arcs.

    Returns an ``(S, N)`` int32 array; unreachable entries are ``-1``.
    Duplicate sources get duplicate rows.
    """
    csr = as_csr(net)
    sources = np.asarray(sources, dtype=np.int64)
    require_memory(
        4 * len(sources) * csr.shape[0],
        f"a ({len(sources)}, {csr.shape[0]}) int32 distance block",
    )
    dist = np.full((len(sources), csr.shape[0]), -1, dtype=np.int32)
    arcs = _in_arcs(csr)
    for level, new in _bit_levels(arcs, sources, np.arange(len(sources)), len(sources)):
        np.copyto(dist.T, level, where=_source_bits(new, len(sources)))
    return dist


def single_source_distances(net: Network | sp.spmatrix, source: int = 0) -> np.ndarray:
    """Hop distances from one source (1-D int array, ``-1`` unreachable)."""
    return bfs_distances(net, [source])[0]


def _sweep(
    net: Network | sp.spmatrix, sources: np.ndarray, chunk: int | None = None
) -> tuple[np.ndarray, float, bool]:
    """Reduction mode: each source's eccentricity, the average distance over
    (source, other node) pairs, and whether every source reaches every node.
    Sources run ``chunk`` at a time (default: sized by :data:`_GATHER_WORDS`).
    """
    csr = as_csr(net)
    arcs = _in_arcs(csr)
    step = chunk or 64 * max(1, _GATHER_WORDS // max(len(arcs[0]), 1))
    ecc = np.zeros(len(sources), dtype=np.int64)
    total = reached = 0
    for start in range(0, len(sources), step):
        block = sources[start : start + step]
        for level, new in _bit_levels(arcs, block, np.arange(len(block)), len(block)):
            count = int(np.bitwise_count(new).sum())
            total += level * count
            reached += count
            hit = _source_bits(np.bitwise_or.reduce(new, axis=0), len(block))
            ecc[start + np.flatnonzero(hit)] = level
    pairs = len(sources) * (csr.shape[0] - 1)
    # exact int / int division: the float bits do not depend on chunking
    return ecc, total / pairs if pairs > 0 else 0.0, reached == len(sources) * csr.shape[0]


def eccentricities(
    net: Network | sp.spmatrix,
    sources: Iterable[int] | None = None,
    chunk: int | None = None,
) -> np.ndarray:
    """Eccentricity (max finite distance) of each source node.

    Raises ``ValueError`` if the graph is disconnected (an eccentricity
    would be infinite).  ``chunk`` is the number of sources per sweep.
    """
    n = as_csr(net).shape[0]
    src = np.arange(n) if sources is None else np.asarray(list(sources), dtype=np.int64)
    ecc, _, complete = _sweep(net, src, chunk)
    if not complete:
        raise ValueError("graph is disconnected; eccentricity undefined")
    return ecc


def diameter(
    net: Network | sp.spmatrix,
    assume_vertex_transitive: bool = False,
    chunk: int | None = None,
) -> int:
    """Exact diameter (max over node pairs of hop distance).

    With ``assume_vertex_transitive=True`` a single BFS suffices (all
    eccentricities are equal in a vertex-transitive graph); the paper's
    symmetric super-IP graphs and all classic Cayley-graph networks qualify.
    """
    if assume_vertex_transitive:
        return int(eccentricities(net, sources=[0])[0])
    return int(eccentricities(net, chunk=chunk).max())


def average_distance(
    net: Network | sp.spmatrix,
    assume_vertex_transitive: bool = False,
    chunk: int | None = None,
) -> float:
    """Average hop distance over ordered pairs of distinct nodes."""
    n = as_csr(net).shape[0]
    _, avg, complete = _sweep(net, np.arange(min(n, 1) if assume_vertex_transitive else n), chunk)
    if not complete:
        raise ValueError("graph is disconnected")
    return avg


def approx_average_distance(
    net: Network | sp.spmatrix,
    samples: int,
    rng: np.random.Generator,
) -> float:
    """Sampled-source estimate of the average distance.

    Runs BFS from ``samples`` uniformly chosen sources; unbiased for the
    ordered-pair average, and exact when ``samples >= N``.  Use for
    networks too large for the exhaustive sweep.
    """
    csr = as_csr(net)
    n = csr.shape[0]
    if samples >= n:
        return average_distance(csr)
    _, avg, complete = _sweep(csr, rng.choice(n, size=samples, replace=False))
    if not complete:
        raise ValueError("graph is disconnected")
    return avg


def distance_histogram(net: Network | sp.spmatrix, source: int = 0) -> dict[int, int]:
    """Count of nodes at each distance from ``source``."""
    d = single_source_distances(net, source)
    vals, counts = np.unique(d[d >= 0], return_counts=True)
    return {int(v): int(c) for v, c in zip(vals, counts)}


def is_connected(net: Network | sp.spmatrix) -> bool:
    """True iff every node is reachable from node 0 (along out-arcs)."""
    return _sweep(net, np.arange(min(as_csr(net).shape[0], 1)))[2]


class DistanceSummary:
    """Summary of the distance structure of a network."""

    __slots__ = ("diameter", "average", "radius", "num_nodes")

    def __init__(self, diameter: int, average: float, radius: int, num_nodes: int):
        self.diameter = diameter
        self.average = average
        self.radius = radius
        self.num_nodes = num_nodes

    def __repr__(self) -> str:
        return (
            f"DistanceSummary(N={self.num_nodes}, D={self.diameter}, "
            f"avg={self.average:.3f}, radius={self.radius})"
        )


def distance_summary(
    net: Network | sp.spmatrix, assume_vertex_transitive: bool = False
) -> DistanceSummary:
    """Diameter, average distance and radius in one reduction sweep."""
    n = as_csr(net).shape[0]
    ecc, avg, complete = _sweep(net, np.arange(min(n, 1) if assume_vertex_transitive else n))
    if not complete:
        raise ValueError("graph is disconnected; eccentricity undefined")
    return DistanceSummary(int(ecc.max()), avg, int(ecc.min()), n)
