"""Module (cluster) assignment and inter-cluster metrics — Section 5.

The paper evaluates hierarchical networks by assigning nodes to physical
modules (chips/boards) and measuring how much communication crosses module
boundaries:

* **I-degree** (inter-cluster degree): the maximum over modules of the
  average number of off-module links per node in that module (§5.3);
* **I-diameter**: the maximum over node pairs of the minimum number of
  off-module link traversals needed to route between them (§5.2);
* **average I-distance**: the same quantity averaged over all ordered pairs.

For super-IP graphs the canonical assignment places each *nucleus copy*
(the set of nodes connected by nucleus-generator edges alone) in one module;
then the off-module links are exactly the super-generator links.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.ipgraph import IPGraph
from repro.core.network import Network

from .distances import _Arcs, _bit_levels, _in_arcs, _source_bits

__all__ = [
    "ModuleAssignment",
    "nucleus_modules",
    "modules_by_key",
    "subcube_modules",
    "contiguous_modules",
    "split_modules",
    "intercluster_degree",
    "offmodule_links_per_node",
    "intercluster_distances",
    "intercluster_diameter",
    "average_intercluster_distance",
    "InterclusterSummary",
    "intercluster_summary",
]


class ModuleAssignment:
    """An assignment of network nodes to modules.

    Attributes
    ----------
    module_of:
        int array, ``module_of[node] = module id`` (0-based, contiguous).
    """

    def __init__(self, net: Network, module_of: np.ndarray, name: str = "modules"):
        module_of = np.asarray(module_of, dtype=np.int64)
        if module_of.shape != (net.num_nodes,):
            raise ValueError("module assignment length != number of nodes")
        # renumber to contiguous 0..M-1 preserving first-appearance order
        _, inverse = np.unique(module_of, return_inverse=True)
        self.net = net
        self.module_of = inverse.astype(np.int64)
        self.num_modules = int(inverse.max()) + 1 if len(inverse) else 0
        self.name = name

    def __repr__(self) -> str:
        return (
            f"ModuleAssignment({self.name!r}, modules={self.num_modules}, "
            f"max_size={self.max_module_size})"
        )

    @property
    def module_sizes(self) -> np.ndarray:
        """Node count per module."""
        return np.bincount(self.module_of, minlength=self.num_modules)

    @property
    def max_module_size(self) -> int:
        """Largest module size (the figure captions bound this)."""
        return int(self.module_sizes.max()) if self.num_modules else 0

    def members(self, module: int) -> np.ndarray:
        """Node ids belonging to ``module``."""
        return np.nonzero(self.module_of == module)[0]

    def modules_internally_connected(self) -> bool:
        """True iff every module induces a strongly connected subgraph."""
        return self._strong_components()[0] == self.num_modules

    def _strong_components(self) -> tuple[int, np.ndarray]:
        """Strongly connected components of the intra-module arcs (none
        spans two modules, so each module owns at least one)."""
        coo = self.net.adjacency_csr().tocoo()
        intra = self.module_of[coo.row] == self.module_of[coo.col]
        adj = sp.csr_matrix(
            (np.ones(int(intra.sum()), dtype=np.int8), (coo.row[intra], coo.col[intra])),
            shape=(self.net.num_nodes,) * 2,
        )
        return sp.csgraph.connected_components(adj, directed=True, connection="strong")


# ----------------------------------------------------------------------
# assignment strategies
# ----------------------------------------------------------------------
def nucleus_modules(graph: IPGraph) -> ModuleAssignment:
    """One module per nucleus copy (§5.3's canonical super-IP clustering).

    Modules are the connected components of the subgraph formed by
    nucleus-kind generator arcs; requires an IP graph built with nucleus /
    super generator attribution (see :mod:`repro.core.superip`).
    """
    kinds = graph.edge_kinds()
    src = graph.edges_src[kinds == 0]
    dst = graph.edges_dst[kinds == 0]
    if len(src) == 0:
        raise ValueError("graph has no nucleus-kind generators")
    n = graph.num_nodes
    adj = sp.coo_matrix(
        (np.ones(len(src), dtype=np.int8), (src, dst)), shape=(n, n)
    ).tocsr()
    ncomp, comp = sp.csgraph.connected_components(adj, directed=False)
    return ModuleAssignment(graph, comp, name="nucleus")


def modules_by_key(net: Network, key_fn) -> ModuleAssignment:
    """Group nodes by ``key_fn(label)``."""
    keys: dict = {}
    module_of = np.empty(net.num_nodes, dtype=np.int64)
    for i, lab in enumerate(net.labels):
        k = key_fn(lab)
        module_of[i] = keys.setdefault(k, len(keys))
    return ModuleAssignment(net, module_of, name="by-key")


def subcube_modules(net: Network, low_bits: int) -> ModuleAssignment:
    """Hypercube clustering: one module per ``low_bits``-subcube.

    Node labels must be bit tuples; nodes sharing all but the last
    ``low_bits`` coordinates share a module (the paper's "place a 3- or
    4-cube in each module").
    """
    return modules_by_key(net, lambda lab: tuple(lab[:-low_bits]) if low_bits else tuple(lab))


def contiguous_modules(net: Network, module_size: int) -> ModuleAssignment:
    """Chop node ids into consecutive blocks of ``module_size`` (e.g. ring
    segments); the natural clustering for rings and meshes in row-major
    label order."""
    if module_size < 1:
        raise ValueError("module_size must be positive")
    ids = np.arange(net.num_nodes) // module_size
    return ModuleAssignment(net, ids, name=f"contiguous({module_size})")


def split_modules(assignment: ModuleAssignment, max_size: int) -> ModuleAssignment:
    """Split oversized modules into chunks of at most ``max_size`` nodes.

    Used to honor the figures' "at most K processors per module" caption
    when a nucleus copy exceeds K: each module is subdivided along its node
    ordering (for hypercube nuclei in bit-tuple label order this cuts along
    subcubes, matching the paper's sub-partitioning).
    """
    if max_size < 1:
        raise ValueError("max_size must be positive")
    mod = assignment.module_of
    new_ids = np.empty_like(mod)
    next_id = 0
    for m in range(assignment.num_modules):
        nodes = np.nonzero(mod == m)[0]
        for start in range(0, len(nodes), max_size):
            new_ids[nodes[start : start + max_size]] = next_id
            next_id += 1
    return ModuleAssignment(assignment.net, new_ids, name=f"{assignment.name}|<={max_size}")


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def offmodule_links_per_node(assignment: ModuleAssignment) -> np.ndarray:
    """Number of off-module simple edges incident to each node."""
    csr = assignment.net.adjacency_csr()
    coo = csr.tocoo()
    off = assignment.module_of[coo.row] != assignment.module_of[coo.col]
    return np.bincount(coo.row[off], minlength=assignment.net.num_nodes).astype(np.int64)


def intercluster_degree(assignment: ModuleAssignment) -> float:
    """I-degree (§5.3): max over modules of the average per-node number of
    off-module links."""
    off = offmodule_links_per_node(assignment)
    mod = assignment.module_of
    sums = np.bincount(mod, weights=off, minlength=assignment.num_modules)
    sizes = assignment.module_sizes
    return float((sums / sizes).max())


def intercluster_distances(assignment: ModuleAssignment) -> np.ndarray:
    """Minimum off-module hop counts between all module pairs.

    Returns the ``(M, M)`` int32 matrix whose ``[a, b]`` is the least number
    of off-module arcs on any walk from module ``a`` to module ``b``
    (on-module arcs cost 0), ``-1`` when none exists.  Exact on every
    assignment, directed included: each module's intra-module strongly
    connected components are contracted, then one bit-parallel BFS with a
    source bit per module takes one cost-1 step per level and closes over
    the cost-0 arcs in between.
    """
    ncomp, comp = assignment._strong_components()
    comp_module = np.zeros(ncomp, dtype=np.int64)
    comp_module[comp] = assignment.module_of
    coo = assignment.net.adjacency_csr().tocoo()
    tail, head = comp[coo.row], comp[coo.col]
    keep = tail != head
    tail, head = tail[keep], head[keep]
    free = comp_module[tail] == comp_module[head]

    def in_arcs(sel: np.ndarray) -> _Arcs:
        ones = np.ones(int(sel.sum()), dtype=np.int8)
        return _in_arcs(sp.coo_matrix((ones, (tail[sel], head[sel])), shape=(ncomp, ncomp)))

    k = assignment.num_modules
    # components grouped by module: every module owns at least one
    order = np.argsort(comp_module, kind="stable")
    starts = np.searchsorted(comp_module[order], np.arange(k))
    seen = np.zeros((k, (k + 63) // 64), dtype=np.uint64)
    out = np.full((k, k), -1, dtype=np.int32)
    for level, new in _bit_levels(in_arcs(~free), np.arange(ncomp), comp_module, k, in_arcs(free)):
        fresh = np.bitwise_or.reduceat(new[order], starts, axis=0) & ~seen
        seen |= fresh
        np.copyto(out.T, level, where=_source_bits(fresh, k))
    return out


def intercluster_diameter(assignment: ModuleAssignment) -> int:
    """I-diameter (§5.2): max over node pairs of minimum off-module hops."""
    return intercluster_summary(assignment).i_diameter


def average_intercluster_distance(assignment: ModuleAssignment) -> float:
    """Average I-distance over ordered pairs of distinct nodes (§5.2).

    Weighted by module sizes: a pair inside one module contributes 0.
    """
    return intercluster_summary(assignment).avg_i_distance


class InterclusterSummary:
    """I-degree, I-diameter and average I-distance for one clustering."""

    __slots__ = ("i_degree", "i_diameter", "avg_i_distance", "num_modules", "max_module_size")

    def __init__(self, i_degree, i_diameter, avg_i_distance, num_modules, max_module_size):
        self.i_degree = i_degree
        self.i_diameter = i_diameter
        self.avg_i_distance = avg_i_distance
        self.num_modules = num_modules
        self.max_module_size = max_module_size

    def __repr__(self) -> str:
        return (
            f"InterclusterSummary(i_degree={self.i_degree:.3f}, "
            f"i_diameter={self.i_diameter}, avg_i_distance={self.avg_i_distance:.3f}, "
            f"modules={self.num_modules}, max_size={self.max_module_size})"
        )


def intercluster_summary(assignment: ModuleAssignment) -> InterclusterSummary:
    """All Section-5 inter-cluster metrics, from one I-distance matrix."""
    d = intercluster_distances(assignment)
    if (d < 0).any():
        raise ValueError("network is disconnected across modules")
    sizes = assignment.module_sizes.astype(np.float64)
    n = assignment.net.num_nodes
    total = float(sizes @ d @ sizes)  # pairs within a module add 0
    return InterclusterSummary(
        i_degree=intercluster_degree(assignment),
        i_diameter=int(d.max()),
        avg_i_distance=total / (n * (n - 1.0)) if n > 1 else 0.0,
        num_modules=assignment.num_modules,
        max_module_size=assignment.max_module_size,
    )
