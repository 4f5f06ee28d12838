"""The Theorem 4.1 / 4.3 routing algorithm for (symmetric) super-IP graphs.

Routing in an IP graph is sorting the source label into the destination
label with generator applications.  The paper's algorithm (proof of
Theorem 4.1):

1. choose a ``t``-step super-generator schedule that brings every block to
   the leftmost position at least once;
2. compute ``d_i``, the final position of the block initially at position
   ``i`` under that schedule;
3. sort the current leftmost block to the destination's ``d_i``-th block
   with nucleus generators whenever block ``i`` first reaches the front.

The route length is at most ``l·D_G + t`` (``l·D_G + t_S`` for symmetric
variants, where the schedule must additionally realize the arrangement the
destination's block colors demand) — which Theorem 4.1 shows is exactly the
diameter, so this simple router is worst-case optimal.

One router serves both label encodings of a super graph: IP labels built
from a :class:`~repro.core.superip.NucleusSpec`, and the tuple-of-state
labels :func:`repro.networks.hier.explicit_super_graph` builds over any
nucleus :class:`~repro.core.network.Network` (e.g. the Petersen graph of
cyclic Petersen networks, which is not a Cayley graph).  The encodings
differ only in how a block maps to (color, nucleus node id) and back.
"""

from __future__ import annotations

from repro import obs
from repro.core.ipgraph import IPGraph
from repro.core.network import Label, Network
from repro.core.superip import (
    NucleusSpec,
    SuperGeneratorSet,
    fronting_schedules,
    min_supergen_steps,
    min_supergen_steps_symmetric,
)
from repro.metrics.distances import diameter

from .table import NextHopTable

__all__ = ["SuperIPRouter", "verify_route"]


class SuperIPRouter:
    """Label-sorting router for a (symmetric) super graph.

    Parameters must match the graph construction: same nucleus, same
    super-generator set, same ``symmetric`` flag.  ``nucleus`` is either a
    :class:`~repro.core.superip.NucleusSpec` (graphs from
    :func:`repro.core.superip.build_super_ip_graph`) or an explicit nucleus
    :class:`~repro.core.network.Network` (graphs from
    :func:`repro.networks.hier.explicit_super_graph`), dispatched as in
    :func:`repro.networks.hsn.hsn`.

    The router works purely on labels — it never searches the (potentially
    huge) network graph; a next-hop table over the nucleus (size ``O(M²)``)
    is the only precomputation.
    """

    def __init__(
        self,
        nucleus: NucleusSpec | Network,
        sgs: SuperGeneratorSet,
        symmetric: bool = False,
    ):
        self.nucleus = nucleus
        self.sgs = sgs
        self.symmetric = symmetric
        self.l = sgs.l
        self._explicit = not isinstance(nucleus, NucleusSpec)
        if isinstance(nucleus, NucleusSpec):
            self.m = nucleus.m
            self._nuc: Network = nucleus.build()
            # nucleus moves are forward generator arcs only: on a directed
            # super graph, or a generator set that is not inverse-closed,
            # the reverse arc is not a move
            moves = Network(
                self._nuc.labels, self._nuc.edges_src, self._nuc.edges_dst,
                name=self._nuc.name, directed=True,
            )
        else:
            self._nuc = moves = nucleus
        self._table = NextHopTable(moves)
        self._nucleus_diameter = diameter(self._nuc)
        found = fronting_schedules(sgs)
        if symmetric:
            self.t = min_supergen_steps_symmetric(sgs)
            self._schedules = dict(found)
        else:
            self.t = min_supergen_steps(sgs)
            self._schedules = dict([next(found)])

    # ------------------------------------------------------------------
    # label encoding: blocks <-> (color, nucleus node id)
    # ------------------------------------------------------------------
    def split(self, label: Label) -> list:
        """Split a full label into its ``l`` blocks."""
        if self._explicit:
            return list(label)
        m = self.m
        return [tuple(label[b * m : (b + 1) * m]) for b in range(self.l)]

    def join(self, blocks: list) -> Label:
        """Concatenate blocks back into a full label."""
        if self._explicit:
            return tuple(blocks)
        return tuple(s for b in blocks for s in b)

    def _code(self, block) -> tuple[int, int]:
        """``(color, nucleus node id)`` of one block; the color (which
        ``m``-symbol range a symmetric-variant block uses) is 0 otherwise."""
        if self._explicit:
            return block if self.symmetric else (0, block)
        color = min(block) // self.m if self.symmetric else 0
        if color:
            block = tuple(s - color * self.m for s in block)
        return color, self._nuc.index[block]

    def _block(self, color: int, node: int):
        """Inverse of :meth:`_code`."""
        if self._explicit:
            return (color, node) if self.symmetric else node
        block = self._nuc.labels[node]
        return tuple(s + color * self.m for s in block) if color else block

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _plan(self, blocks: list, goal: list[tuple[int, int]]):
        """The final arrangement (``arr[pos]`` = initial position of the
        block ending at ``pos``) and the fronting schedule realizing it."""
        if not self.symmetric:
            return next(iter(self._schedules.items()))
        # each block must end where the destination holds its color
        pos_of_color = {c: pos for pos, (c, _) in enumerate(goal)}
        arr = [0] * self.l
        for slot, block in enumerate(blocks):
            arr[pos_of_color[self._code(block)[0]]] = slot
        schedule = self._schedules.get(tuple(arr))
        if schedule is None:
            raise ValueError("destination arrangement unreachable (invalid label?)")
        return arr, schedule

    def route_labels(self, src: Label, dst: Label) -> list[Label]:
        """Full node-label path from ``src`` to ``dst`` (inclusive).

        Guaranteed length ≤ ``l·D_G + t`` (non-symmetric) or
        ``l·D_G + t_S`` (symmetric).
        """
        src, dst = tuple(src), tuple(dst)
        path = [src]
        if src != dst:
            blocks = self.split(src)
            goal = [self._code(b) for b in self.split(dst)]
            arr, schedule = self._plan(blocks, goal)
            final_pos = {slot: pos for pos, slot in enumerate(arr)}
            perms = self.sgs.perms()
            # order[pos] = initial position of the block now at pos
            order = tuple(range(self.l))
            fronted: set[int] = set()
            for gi in [None, *schedule]:
                if gi is not None:
                    moved = list(perms[gi](tuple(blocks)))
                    order = perms[gi](order)
                    if moved != blocks:
                        blocks = moved
                        path.append(self.join(blocks))
                if order[0] in fronted:
                    continue
                # first time this block is in front: sort it into the
                # destination block it will end up as
                fronted.add(order[0])
                color, u = self._code(blocks[0])
                goal_color, v = goal[final_pos[order[0]]]
                if color != goal_color:
                    raise RuntimeError("color mismatch during symmetric routing")
                while u != v:
                    u = self._table.next_hop(u, v)
                    blocks[0] = self._block(color, u)
                    path.append(self.join(blocks))
            if path[-1] != dst:
                raise RuntimeError("sorting router failed to reach destination")
        reg = obs.registry()
        reg.incr("routing.superip.routes")
        reg.observe("routing.superip.hops", len(path) - 1)
        return path

    def route_nodes(self, graph: IPGraph, src: int, dst: int) -> list[int]:
        """Route between node ids of a built graph; returns node-id path."""
        labels = self.route_labels(graph.labels[src], graph.labels[dst])
        return [graph.index[lab] for lab in labels]

    def next_hop_function(self, graph: IPGraph):
        """A ``(u, dst) -> v`` callable for the packet simulator that follows
        this router's (distributed, table-free) paths instead of global
        shortest paths.

        Hops are memoized per ``(node, dst)`` taking each node's successor
        at its *last* occurrence on the computed route.  That makes the
        per-destination hop map loop-free: within one route the last-
        occurrence rule strictly advances along the path, and a later
        route's fresh nodes can never be re-entered by chains cached
        earlier (they were unknown then), so every chain terminates at
        ``dst``.
        """
        cache: dict[tuple[int, int], int] = {}

        def next_hop(u: int, dst: int) -> int:
            if u == dst:
                return dst
            key = (u, dst)
            hop = cache.get(key)
            if hop is None:
                path = self.route_nodes(graph, u, dst)
                # reversed + setdefault == keep the last-occurrence hop
                for a, b in reversed(list(zip(path, path[1:]))):
                    cache.setdefault((a, dst), b)
                hop = cache[key]
            return hop

        return next_hop

    def max_route_length(self) -> int:
        """The Theorem 4.1/4.3 bound ``l·D_G + t``."""
        return self.l * self._nucleus_diameter + self.t


def verify_route(graph: IPGraph, path: list[int]) -> bool:
    """Check that consecutive path nodes are adjacent in the simple graph."""
    csr = graph.adjacency_csr()
    for u, v in zip(path, path[1:]):
        row = csr.indices[csr.indptr[u] : csr.indptr[u + 1]]
        if v not in row:
            return False
    return True
