"""Engine scalability — IP-graph closure and metric kernel throughput.

Not a paper figure; tracks the performance of the substrate itself
(nodes/second of BFS closure, distances/second of the metric kernels) so
regressions in the engine are visible.
"""

import numpy as np
import pytest

from repro import networks as nw
from repro.metrics.distances import bfs_distances
from repro.routing.table import NextHopTable


def test_ip_closure_speed(benchmark):
    g = benchmark(nw.hsn_hypercube, 2, 4)
    assert g.num_nodes == 256


def test_large_closure(benchmark):
    g = benchmark(nw.ring_cn_hypercube, 3, 4)
    assert g.num_nodes == 4096


def test_star_closure(benchmark):
    g = benchmark(nw.star_ip, 6)
    assert g.num_nodes == 720


def test_bfs_kernel_speed(benchmark):
    g = nw.ring_cn_hypercube(3, 4)
    srcs = np.arange(64)

    def run():
        return bfs_distances(g, srcs)

    d = benchmark(run)
    assert d.shape == (64, 4096)
    assert d.max() > 0


def test_next_hop_table_construction(benchmark):
    g = nw.hsn_hypercube(2, 3)
    table = benchmark(NextHopTable, g)
    assert table.node_table().shape == (64, 64)


def test_quotient_construction_speed(benchmark):
    from repro.analysis.formulas import supergen_module_quotient
    from repro.core.superip import SuperGeneratorSet

    q = benchmark(
        supergen_module_quotient, SuperGeneratorSet.ring(4), 16
    )
    assert q.num_nodes == 4096
