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
from repro.metrics.distances import bfs_distances

__all__ = ["shortest_path", "NextHopTable"]


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


class NextHopTable:
    """All-pairs next-hop table for shortest-path routing.

    ``next_hop[dst, u]`` is the neighbor of ``u`` on a shortest path to
    ``dst`` (or ``u`` itself when ``u == dst``); on a directed network it is
    an out-neighbor, so routes follow arc directions.  Memory is
    ``O(N^2)``; construction is chunked BFS.  This is what the packet simulator uses to
    route — deterministic, minimal, and family-agnostic.

    Parameters
    ----------
    net:
        The topology.
    chunk:
        BFS batch size (memory/speed trade-off during construction).
    with_distances:
        Keep the full hop-distance matrix (``O(N^2)`` int32 extra;
        ``dist[dst, u]`` is the hop count from ``u`` to ``dst``) so
        :meth:`next_hops` / :meth:`distance` work.  Required by the
        fault-aware router's alternate-minimal-hop search.
    allow_unreachable:
        Build tables over disconnected graphs (e.g. fault-degraded survivor
        views).  Unreachable entries are stored as ``-1`` and querying one
        raises a :class:`~repro.core.network.RoutingError` naming the pair.
        When False (default), construction itself fails with an error that
        names an unreachable pair — never let a silent ``-1`` leak
        downstream.
    """

    def __init__(
        self,
        net: Network,
        chunk: int = 64,
        with_distances: bool = False,
        allow_unreachable: bool = False,
    ):
        chunk = int(chunk)
        if chunk < 1:
            raise ValueError(
                f"chunk must be a positive BFS batch size, got {chunk}"
            )
        n = net.num_nodes
        csr = net.adjacency_csr()
        indptr, indices = csr.indptr, csr.indices
        # hop counts *to* each destination: a BFS from dst over the
        # transposed arcs (the same graph when undirected)
        to_dst = csr.T.tocsr() if net.directed else csr
        self.net = net
        self._indptr = indptr
        self._indices = indices
        self.dist: np.ndarray | None = (
            np.empty((n, n), dtype=np.int32) if with_distances else None
        )
        with obs.span("routing.table.build", n=n, chunk=chunk):
            self.table = np.empty((n, n), dtype=np.int32)
            arc_counts = np.diff(indptr)
            isolated = arc_counts == 0
            if n > 1 and isolated.any() and not allow_unreachable:
                bad = int(np.nonzero(isolated)[0][0])
                raise RoutingError(
                    f"cannot build a next-hop table on {net.name!r}: node {bad} "
                    f"is isolated (no arcs); pass allow_unreachable=True to "
                    f"route within components"
                )
            nnz = len(indices)
            if nnz:
                # loop-invariant pieces hoisted out of the chunk loop: the
                # reduceat offsets, int32 candidate ids, and each arc's
                # source node (so the closer-test is two gathers, not a
                # per-row np.repeat)
                starts = indptr[:-1]
                cand_ids = indices.astype(np.int32)
                arc_src = np.repeat(np.arange(n), arc_counts)
                arc_dst = indices
                sentinel = np.int32(n)
                if starts[-1] == nnz:
                    # isolated nodes after the last node with arcs start
                    # their reduceat segment at nnz: one padding arc, never
                    # closer (0 vs 0), keeps those starts in range so the
                    # last node with arcs reduces over all of its arcs
                    pad = np.zeros(1, dtype=np.int32)
                    arc_src = np.concatenate([arc_src, pad])
                    arc_dst = np.concatenate([arc_dst, pad])
                    cand_ids = np.concatenate([cand_ids, pad + sentinel])
            # keep the (rows × arcs) int32 intermediates cache-resident —
            # past L2 the batched form loses to per-row gathers
            rows_per = max(1, min(chunk, (1 << 15) // max(nnz, 1)))
            for start in range(0, n, chunk):
                dsts = np.arange(start, min(start + chunk, n))
                dist = bfs_distances(to_dst, dsts)
                if (dist < 0).any() and not allow_unreachable:
                    row, u = np.argwhere(dist < 0)[0]
                    raise RoutingError(
                        f"network {net.name!r} is disconnected: node {int(u)} "
                        f"cannot reach node {int(dsts[row])} (and possibly "
                        f"others); pass allow_unreachable=True to route "
                        f"within components"
                    )
                if self.dist is not None:
                    self.dist[dsts] = dist
                if nnz == 0:
                    nh = np.full((len(dsts), n), -1, dtype=np.int32)
                    nh[np.arange(len(dsts)), dsts] = dsts
                    self.table[dsts] = nh
                    continue
                for s in range(0, len(dsts), rows_per):
                    bd = dsts[s : s + rows_per]
                    d = dist[s : s + rows_per]
                    # per-arc test, all rows at once: does this neighbor sit
                    # one step closer to each row's dst?
                    closer = d[:, arc_dst] == d[:, arc_src] - 1
                    # smallest eligible neighbor id per node (n = sentinel)
                    candidates = np.where(closer, cand_ids[None, :], sentinel)
                    nh = np.minimum.reduceat(candidates, starts, axis=1)
                    # unreachable or isolated nodes keep the sentinel / read a
                    # neighbor's slot — both become an explicit -1
                    nh[nh == n] = -1
                    nh[:, isolated] = -1
                    nh[np.arange(len(bd)), bd] = bd
                    self.table[bd] = nh
        reg = obs.registry()
        reg.incr("routing.table.builds")
        reg.incr("routing.table.nodes", n)

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The table (and distance matrix, if kept) as a named array bundle.

        The bundle round-trips through :meth:`from_arrays` and is what
        :func:`repro.cache.cached_next_hop_table` persists to disk.
        """
        out = {"table": self.table}
        if self.dist is not None:
            out["dist"] = self.dist
        return out

    @classmethod
    def from_arrays(
        cls,
        net: Network,
        table: np.ndarray,
        dist: np.ndarray | None = None,
    ) -> "NextHopTable":
        """Reconstruct a table from :meth:`to_arrays` output without BFS.

        The caller is responsible for pairing the arrays with the same
        topology they were built on (the artifact cache keys tables by the
        graph's own cache key, so a mismatch cannot happen through it).
        """
        n = net.num_nodes
        table = np.asarray(table, dtype=np.int32)
        if table.shape != (n, n):
            raise ValueError(
                f"next-hop table shape {table.shape} does not match "
                f"{net.name!r} ({n} nodes)"
            )
        self = cls.__new__(cls)
        csr = net.adjacency_csr()
        self.net = net
        self._indptr = csr.indptr
        self._indices = csr.indices
        self.table = table
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
        v = int(self.table[dst, u])
        if v < 0:
            raise RoutingError(
                f"no route from node {u} to node {dst} in {self.net.name!r}: "
                f"they lie in different connected components"
            )
        return v

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
            out.append(self.next_hop(out[-1], dst))
            if len(out) > guard:  # pragma: no cover — corrupt table
                raise RuntimeError("routing loop detected")
        reg = obs.registry()
        reg.incr("routing.routes")
        reg.observe("routing.hops", len(out) - 1)
        return out
