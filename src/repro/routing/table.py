"""Generic shortest-path routing support (BFS tables).

Used as the routing oracle for the packet simulator and as the baseline the
family-specific routers (Theorem 4.1 sorting router, e-cube, ...) are tested
against.  The table can optionally retain the full distance matrix, which is
what the fault-aware :class:`repro.fault.ResilientRouter` uses to enumerate
*alternate* minimal next hops when the preferred one has failed.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro import obs
from repro.core.network import Network, RoutingError
from repro.metrics.distances import (
    _GATHER_WORDS,
    _bit_levels,
    _source_bits,
    require_memory,
)

__all__ = ["shortest_path", "NextHopTable", "port_dtype", "port_sentinels"]


def shortest_path(net: Network, src: int, dst: int) -> list[int]:
    """One shortest path (node ids, inclusive of endpoints) via BFS."""
    reg = obs.registry()
    reg.incr("routing.routes")
    if src == dst:
        return [src]
    csr = net.adjacency_csr()
    indptr, indices = csr.indptr, csr.indices
    parent = {src: -1}
    q: deque[int] = deque([src])
    while q:
        u = q.popleft()
        for v in indices[indptr[u] : indptr[u + 1]]:
            v = int(v)
            if v in parent:
                continue
            parent[v] = u
            if v == dst:
                out = [dst]
                while out[-1] != src:
                    out.append(parent[out[-1]])
                out.reverse()
                reg.observe("routing.hops", len(out) - 1)
                return out
            q.append(v)
    raise RoutingError(
        f"no path from node {src} to node {dst} in {net.name!r}: "
        f"they lie in different connected components"
    )


def port_dtype(max_degree: int) -> np.dtype:
    """Smallest unsigned dtype holding every port ``0..max_degree-1`` plus
    the two sentinels of :func:`port_sentinels` (``uint8`` below degree
    255)."""
    for dt in (np.uint8, np.uint16, np.uint32):
        if max_degree < np.iinfo(dt).max:
            return np.dtype(dt)
    raise ValueError(f"out-degree {max_degree} does not fit a uint32 port")


def port_sentinels(dtype: np.dtype) -> tuple[int, int]:
    """``(self, none)`` port values of ``dtype``: the entry at ``u == dst``
    and the entry of an unreachable pair (the dtype's top two values)."""
    top = int(np.iinfo(dtype).max)
    return top - 1, top


def _port_block(
    arcs: tuple[np.ndarray, np.ndarray, np.ndarray],
    slots: list[tuple[np.ndarray | None, np.ndarray]],
    dsts: np.ndarray,
    dtype: np.dtype,
    dist: np.ndarray | None,
) -> tuple[np.ndarray, int]:
    """Ports toward each of ``dsts`` from every node: an ``(N, len(dsts))``
    block, plus the number of ``(node, dst)`` pairs that are connected.

    One bit-parallel BFS (destination ``i`` is source bit ``i``) walks
    ``arcs``, each node's sorted out-neighbour list, so level ``L`` holds
    the nodes ``L`` hops from each destination.  Its level step runs slot
    by slot: ``slots[k]`` is ``(rows, neighbour)`` of slot ``k`` over the
    rows with more than ``k`` arcs (``rows`` is None when that is every
    row), and a node still open for bit ``d`` that finds ``d`` on the
    previous frontier at slot ``k`` gains ``d`` with port ``k`` — the
    first slot, so the smallest-id neighbour one hop closer.  The hits
    together are the level's new bits, so this step replaces the kernel's
    gather-and-reduce step.  Port numbers are OR-ed into packed bit-planes
    and unpacked once.  ``dist`` (``(len(dsts), N)``, prefilled with
    ``-1``) receives hop counts when given.
    """
    n = len(arcs[1])
    width = len(dsts)
    words = (width + 63) // 64
    nbits = max(len(slots) - 1, 0).bit_length()
    planes = np.zeros((nbits, n, words), dtype=np.uint64)
    reached = np.zeros((n, words), dtype=np.uint64)
    hit_all = np.empty((n, words), dtype=np.uint64)
    # the planes slot k's hits are OR-ed into: the set bits of k
    slot_bits = [[b for b in range(nbits) if k >> b & 1] for k in range(len(slots))]

    def step(frontier: np.ndarray, seen: np.ndarray) -> np.ndarray:
        open_bits = ~seen
        for (rows, nbrs), set_bits in zip(slots, slot_bits):  # repro: noqa[RPR020] — one pass per CSR slot (max out-degree), each over every row at once
            if rows is None:  # every row has this slot: in-place, no scatter
                hit = np.take(frontier, nbrs, axis=0, out=hit_all)
                hit &= open_bits
                open_bits ^= hit
                for b in set_bits:
                    planes[b] |= hit
            else:
                hit = np.take(frontier, nbrs, axis=0)
                hit &= np.take(open_bits, rows, axis=0)
                open_bits[rows] ^= hit
                for b in set_bits:
                    planes[b, rows] |= hit
        return ~(open_bits | seen)

    for level, new in _bit_levels(arcs, dsts, np.arange(width), width, step=step):
        reached |= new
        if dist is not None:
            np.copyto(dist.T, level, where=_source_bits(new, width))
    shifts = np.arange(nbits, dtype=dtype).reshape(-1, 1, 1)
    bits = _source_bits(planes, width).view(np.uint8)
    ports = np.bitwise_or.reduce(np.left_shift(bits, shifts, dtype=dtype), axis=0)
    own, none = port_sentinels(dtype)
    ports[~_source_bits(reached, width)] = none
    ports[dsts, np.arange(width)] = own
    return ports, int(np.bitwise_count(reached).sum())


class NextHopTable:
    """All-pairs next-hop table for shortest-path routing, stored as ports.

    ``ports[dst, u]`` is the *port* of ``u`` toward ``dst``: the slot in
    ``u``'s sorted CSR row (the generator applied, in the paper's reading
    of a route as a generator word) whose neighbour lies on a shortest path
    to ``dst`` — the smallest-id such neighbour.  Decoding is one gather,
    ``indices[indptr[u] + port]``; :meth:`next_hop` / :meth:`decode` do it
    per entry and :meth:`node_table` for the whole table.  The dtype is
    :func:`port_dtype` of the largest out-degree (``uint8`` below 255) and
    :func:`port_sentinels` mark ``u == dst`` and unreachable pairs.  On a
    directed network ports are out-arcs, so routes follow arc directions.
    Memory is ``O(N^2)`` ports; construction is one chunked bit-parallel
    BFS from the destinations.  This is what the packet simulator routes
    by — deterministic, minimal, and family-agnostic.

    Parameters
    ----------
    net:
        The topology.
    chunk:
        Destinations per BFS sweep (memory/speed trade-off during
        construction); the default sizes each level's gather to
        :data:`~repro.metrics.distances._GATHER_WORDS` words.
    with_distances:
        Keep the full hop-distance matrix (``O(N^2)`` int32 extra;
        ``dist[dst, u]`` is the hop count from ``u`` to ``dst``) so
        :meth:`next_hops` / :meth:`distance` work.  Required by the
        fault-aware router's alternate-minimal-hop search.
    allow_unreachable:
        Build tables over disconnected graphs (e.g. fault-degraded survivor
        views).  Unreachable entries decode as ``-1`` and querying one
        raises a :class:`~repro.core.network.RoutingError` naming the pair.
        When False (default), construction itself fails with an error that
        names an unreachable pair — never let a silent ``-1`` leak
        downstream.

    Raises :class:`MemoryError` before allocating when the table (and
    distance matrix) would not fit in physical memory.
    """

    def __init__(
        self,
        net: Network,
        chunk: int | None = None,
        with_distances: bool = False,
        allow_unreachable: bool = False,
    ):
        if chunk is not None and int(chunk) < 1:
            raise ValueError(
                f"chunk must be a positive BFS batch size, got {chunk}"
            )
        n = net.num_nodes
        csr = net.adjacency_csr()
        indptr, indices = csr.indptr, csr.indices
        # a port is a slot of a sorted row: slot order is neighbour-id order
        assert csr.has_sorted_indices
        arc_counts = np.diff(indptr)
        maxdeg = int(arc_counts.max()) if n else 0
        dtype = port_dtype(maxdeg)
        self.net = net
        self._indptr = indptr
        self._indices = indices
        self._own, self._none = port_sentinels(dtype)
        require_memory(
            n * n * (dtype.itemsize + (4 if with_distances else 0)),
            f"the next-hop table of {net.name!r} ({n} nodes"
            f"{', with distances' if with_distances else ''})",
        )
        step = int(chunk or 64 * max(1, _GATHER_WORDS // max(len(indices), 1)))
        with obs.span("routing.table.build", n=n, chunk=step):
            if n > 1 and not allow_unreachable and (arc_counts == 0).any():
                bad = int(np.flatnonzero(arc_counts == 0)[0])
                raise RoutingError(
                    f"cannot build a next-hop table on {net.name!r}: node {bad} "
                    f"is isolated (no arcs); pass allow_unreachable=True to "
                    f"route within components"
                )
            self.ports = np.empty((n, n), dtype=dtype)
            self.dist: np.ndarray | None = (
                np.full((n, n), -1, dtype=np.int32) if with_distances else None
            )
            # each node's out-neighbour list is one BFS step toward dst
            starts = indptr[:-1]
            arcs = (indices, starts, arc_counts == 0)
            slots: list[tuple[np.ndarray | None, np.ndarray]] = []
            for k in range(maxdeg):
                rows = np.flatnonzero(arc_counts > k)
                if len(rows) == n:
                    slots.append((None, indices[starts + k]))
                else:
                    slots.append((rows, indices[starts[rows] + k]))
            for start in range(0, n, step):
                stop = min(start + step, n)
                dsts = np.arange(start, stop)
                dist = None if self.dist is None else self.dist[start:stop]
                block, reached = _port_block(arcs, slots, dsts, dtype, dist)
                if reached < n * len(dsts) and not allow_unreachable:
                    row, u = np.argwhere(block.T == self._none)[0]
                    raise RoutingError(
                        f"network {net.name!r} is disconnected: node {int(u)} "
                        f"cannot reach node {int(dsts[row])} (and possibly "
                        f"others); pass allow_unreachable=True to route "
                        f"within components"
                    )
                self.ports[start:stop] = block.T
        reg = obs.registry()
        reg.incr("routing.table.builds")
        reg.incr("routing.table.nodes", n)

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The port table (and distance matrix, if kept) as a named array
        bundle.

        The bundle round-trips through :meth:`from_arrays` and is what
        :func:`repro.cache.cached_next_hop_table` persists to disk.
        """
        out = {"ports": self.ports}
        if self.dist is not None:
            out["dist"] = self.dist
        return out

    @classmethod
    def from_arrays(
        cls,
        net: Network,
        ports: np.ndarray,
        dist: np.ndarray | None = None,
    ) -> "NextHopTable":
        """Reconstruct a table from :meth:`to_arrays` output without BFS.

        ``ports`` must carry :func:`port_dtype` of ``net``'s largest
        out-degree: a node-id table (int32) is rejected rather than read
        as ports.  The caller is responsible for pairing the arrays with
        the same topology they were built on (the artifact cache keys
        tables by the graph's own cache key, so a mismatch cannot happen
        through it).
        """
        n = net.num_nodes
        csr = net.adjacency_csr()
        ports = np.asarray(ports)
        want = port_dtype(int(np.diff(csr.indptr).max()) if n else 0)
        if ports.dtype != want:
            raise ValueError(
                f"next-hop ports of {net.name!r} must be {want}, got "
                f"{ports.dtype} (a node-id table is not a port table)"
            )
        if ports.shape != (n, n):
            raise ValueError(
                f"next-hop table shape {ports.shape} does not match "
                f"{net.name!r} ({n} nodes)"
            )
        self = cls.__new__(cls)
        self.net = net
        self._indptr = csr.indptr
        self._indices = csr.indices
        self._own, self._none = port_sentinels(want)
        self.ports = ports
        if dist is not None:
            dist = np.asarray(dist, dtype=np.int32)
            if dist.shape != (n, n):
                raise ValueError(
                    f"distance matrix shape {dist.shape} does not match "
                    f"{net.name!r} ({n} nodes)"
                )
        self.dist = dist
        reg = obs.registry()
        reg.incr("routing.table.loads")
        reg.incr("routing.table.nodes", n)
        return self

    def node_table(self) -> np.ndarray:
        """The decoded ``(N, N)`` int32 node-id table: ``[dst, u]`` is the
        next node from ``u`` toward ``dst``, ``dst`` itself on the diagonal
        and ``-1`` for unreachable pairs.  An ``O(N^2)`` decode — route
        with :meth:`decode` / :attr:`ports` where one entry suffices."""
        n = self.ports.shape[0]
        starts = self._indptr[:-1]
        out = np.full((n, n), -1, dtype=np.int32)
        # row blocks of ~2^16 entries keep the decode temporaries small
        rows = max(1, (1 << 16) // max(n, 1))
        for lo in range(0, n, rows):
            ports = self.ports[lo : lo + rows]
            hop = ports < self._own
            if hop.any():
                slot = np.where(hop, starts + ports, 0)  # isolated tails start at nnz
                np.copyto(out[lo : lo + rows], self._indices[slot], where=hop)
        out[np.arange(n), np.arange(n)] = np.arange(n, dtype=np.int32)
        return out

    def _check_node(self, v: int, role: str) -> int:
        """Validate one node id; negative or too-large ids would otherwise
        silently read another node's slot via numpy wraparound indexing."""
        v = int(v)
        n = self.net.num_nodes
        if not 0 <= v < n:
            raise ValueError(
                f"{role} node id {v} is out of range for {self.net.name!r} "
                f"(valid ids: 0..{n - 1})"
            )
        return v

    def next_hop(self, u: int, dst: int) -> int:
        """Neighbor of ``u`` on a shortest path to ``dst``.

        Raises :class:`ValueError` when either id is outside ``0..n-1``,
        and :class:`~repro.core.network.RoutingError` (naming the pair)
        if ``dst`` is unreachable from ``u`` — only possible on tables built
        with ``allow_unreachable=True``.
        """
        u = self._check_node(u, "source")
        dst = self._check_node(dst, "destination")
        v = self.decode(u, dst)
        if v < 0:
            raise RoutingError(
                f"no route from node {u} to node {dst} in {self.net.name!r}: "
                f"they lie in different connected components"
            )
        return v

    def decode(self, u: int, dst: int) -> int:
        """Entry ``[dst, u]`` as a node id, unchecked: the next node from
        ``u`` toward ``dst`` (one gather), ``dst`` when ``u == dst`` and
        ``-1`` when ``dst`` is unreachable."""
        p = int(self.ports[dst, u])
        if p < self._own:
            return int(self._indices[self._indptr[u] + p])
        return dst if p == self._own else -1

    def distance(self, u: int, dst: int) -> int:
        """Hop distance from ``u`` to ``dst`` (needs ``with_distances=True``).

        Raises :class:`~repro.core.network.RoutingError` for unreachable
        pairs rather than surfacing the internal ``-1`` sentinel.
        """
        if self.dist is None:
            raise ValueError("table was built without with_distances=True")
        u = self._check_node(u, "source")
        dst = self._check_node(dst, "destination")
        d = int(self.dist[dst, u])
        if d < 0:
            raise RoutingError(
                f"no route from node {u} to node {dst} in {self.net.name!r}: "
                f"they lie in different connected components"
            )
        return d

    def next_hops(self, u: int, dst: int) -> list[int]:
        """*All* neighbors of ``u`` on shortest paths to ``dst``, ascending.

        The first entry equals :meth:`next_hop`.  Needs
        ``with_distances=True``; returns ``[]`` when ``dst`` is unreachable
        and ``[dst]`` when ``u == dst``.
        """
        if self.dist is None:
            raise ValueError("table was built without with_distances=True")
        u = self._check_node(u, "source")
        dst = self._check_node(dst, "destination")
        if u == dst:
            return [dst]
        d = self.dist[dst]
        if d[u] < 0:
            return []
        nbrs = self._indices[self._indptr[u] : self._indptr[u + 1]]
        return [int(v) for v in nbrs if d[v] == d[u] - 1]

    def path(self, src: int, dst: int) -> list[int]:
        """Full shortest path from ``src`` to ``dst``."""
        src = self._check_node(src, "source")
        dst = self._check_node(dst, "destination")
        out = [src]
        guard = self.net.num_nodes + 1
        while out[-1] != dst:
            v = self.decode(out[-1], dst)
            if v < 0:
                raise RoutingError(
                    f"no route from node {src} to node {dst} in "
                    f"{self.net.name!r}: they lie in different connected "
                    f"components"
                )
            out.append(v)
            if len(out) > guard:  # pragma: no cover — corrupt table
                raise RuntimeError("routing loop detected")
        reg = obs.registry()
        reg.incr("routing.routes")
        reg.observe("routing.hops", len(out) - 1)
        return out
