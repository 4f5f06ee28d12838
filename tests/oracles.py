"""Brute-force oracles shared by the closure and distance-kernel tests.

Deliberately scalar and independent of the kernels they check: the IP
closure applies generators one label at a time, and the 0/1-BFS walks the
CSR arrays one node at a time.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.ipgraph import Generator, IPGraph


def build_ip_graph_reference(
    seed, generators, name="ip-graph", max_nodes=2_000_000, directed=False
) -> IPGraph:
    """Per-label BFS closure of ``(seed, generators)``.

    Node ids are assigned in discovery order, generators applied in index
    order, one arc per (node, generator) — the numbering and arc list
    :func:`repro.core.ipgraph.build_ip_graph` must reproduce.
    """
    gens = [g if isinstance(g, Generator) else Generator(g) for g in generators]
    seed_t = tuple(seed)
    labels = [seed_t]
    index = {seed_t: 0}
    srcs: list[int] = []
    dsts: list[int] = []
    gids: list[int] = []
    queue: deque[int] = deque([0])
    while queue:
        u = queue.popleft()
        lab = labels[u]
        for gi, g in enumerate(gens):
            nxt = g.perm(lab)
            v = index.get(nxt)
            if v is None:
                v = len(labels)
                if v >= max_nodes:
                    raise ValueError(
                        f"IP graph exceeds max_nodes={max_nodes}; "
                        "raise the bound explicitly if intended"
                    )
                index[nxt] = v
                labels.append(nxt)
                queue.append(v)
            srcs.append(u)
            dsts.append(v)
            gids.append(gi)
    edges = np.column_stack(
        [
            np.asarray(srcs, dtype=np.int64),
            np.asarray(dsts, dtype=np.int64),
            np.asarray(gids, dtype=np.int64),
        ]
    )
    return IPGraph(labels, gens, edges, name=name, seed=seed_t, directed=directed)


def zero_one_intermodule_distances(assignment) -> np.ndarray:
    """Per-module 0/1-BFS: on-module arcs cost 0, off-module arcs cost 1.

    Returns the ``(M, M)`` matrix of minimum off-module hop counts from any
    node of the row module to any node of the column module, ``-1`` where
    no walk exists.
    """
    csr = assignment.net.adjacency_csr()
    mod = assignment.module_of
    n = assignment.net.num_nodes
    k = assignment.num_modules
    unreached = np.iinfo(np.int64).max
    out = np.full((k, k), -1, dtype=np.int64)
    indptr, indices = csr.indptr, csr.indices
    for m in range(k):
        dist = np.full(n, unreached, dtype=np.int64)
        dq: deque[int] = deque()
        for u in np.nonzero(mod == m)[0]:
            dist[u] = 0
            dq.appendleft(int(u))
        while dq:
            u = dq.popleft()
            du = dist[u]
            for v in indices[indptr[u] : indptr[u + 1]]:
                w = 0 if mod[v] == mod[u] else 1
                if du + w < dist[v]:
                    dist[v] = du + w
                    if w == 0:
                        dq.appendleft(int(v))
                    else:
                        dq.append(int(v))
        for mm in range(k):
            best = int(dist[mod == mm].min())
            out[m, mm] = -1 if best == unreached else best
    return out
