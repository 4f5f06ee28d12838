"""Brute-force oracles shared by the distance-kernel tests.

Deliberately scalar and independent of :mod:`repro.metrics.distances`:
each walks the CSR arrays one node at a time.
"""

from __future__ import annotations

from collections import deque

import numpy as np


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
