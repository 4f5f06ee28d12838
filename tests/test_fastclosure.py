"""Tests for the batched IP-graph closure (must be bit-identical to the
per-label oracle in :mod:`tests.oracles`)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ipgraph import build_ip_graph
from repro.core.permutation import (
    Permutation,
    cyclic_shift_left,
    from_cycles,
    transposition,
)
from repro.core.superip import SuperGeneratorSet, build_super_ip_graph
from repro.networks.nuclei import hypercube_nucleus, star_nucleus

from .oracles import build_ip_graph_reference


def assert_identical(seed, gens, **kw):
    a = build_ip_graph_reference(seed, gens, **kw)
    b = build_ip_graph(seed, gens, **kw)
    assert a.labels == b.labels
    assert (a.edges_src == b.edges_src).all()
    assert (a.edges_dst == b.edges_dst).all()
    assert (a.edges_gen == b.edges_gen).all()
    return a, b


class TestIdentical:
    def test_star(self):
        assert_identical(tuple(range(5)), [transposition(5, 0, i) for i in range(1, 5)])

    def test_repeated_symbols(self):
        seed = (1, 2, 3, 1, 2, 3)
        gens = [
            from_cycles(6, [(1, 2)], one_based=True),
            from_cycles(6, [(1, 3)], one_based=True),
            cyclic_shift_left(6, 3),
        ]
        a, b = assert_identical(seed, gens)
        assert a.num_nodes == 36

    def test_non_integer_symbols(self):
        seed = ("a", "b", "a", "b")
        gens = [transposition(4, 0, 1), cyclic_shift_left(4, 2)]
        a, b = assert_identical(seed, gens)
        assert b.labels[0] == ("a", "b", "a", "b")

    def test_directed(self):
        a, b = assert_identical(
            (0, 1, 2), [cyclic_shift_left(3, 1)], directed=True
        )
        assert b.directed

    def test_hsn(self):
        nuc = hypercube_nucleus(2)
        sgs = SuperGeneratorSet.transpositions(3)
        b = build_super_ip_graph(nuc, sgs)
        a = build_ip_graph_reference(b.seed, b.generators)
        assert a.labels == b.labels
        assert (a.edges_src == b.edges_src).all()
        assert (a.edges_gen == b.edges_gen).all()

    def test_symmetric_hsn(self):
        nuc = hypercube_nucleus(2)
        sgs = SuperGeneratorSet.transpositions(2)
        b = build_super_ip_graph(nuc, sgs, symmetric=True)
        a = build_ip_graph_reference(b.seed, b.generators)
        assert a.labels == b.labels

    def test_no_engine_knob(self):
        # one closure engine: there is no engine= switch
        with pytest.raises(TypeError, match="engine"):
            build_super_ip_graph(
                hypercube_nucleus(1), SuperGeneratorSet.ring(2), engine="fast"
            )

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(2, 5),
        st.lists(st.permutations(list(range(4))), min_size=1, max_size=3),
    )
    def test_random_generator_sets(self, reps, imgs):
        # build size-4 generator sets, inverse-closed, on a repeated seed
        perms = {Permutation(img) for img in imgs}
        perms |= {p.inverse() for p in perms}
        perms.discard(Permutation(range(4)))
        if not perms:
            perms = {transposition(4, 0, 1)}
        gens = sorted(perms, key=lambda p: p.img)
        seed = tuple(i % reps for i in range(4))
        assert_identical(seed, gens)


class TestGuards:
    def test_max_nodes(self):
        with pytest.raises(ValueError, match="max_nodes"):
            build_ip_graph(
                tuple(range(7)),
                [transposition(7, 0, i) for i in range(1, 7)],
                max_nodes=100,
            )

    def test_no_generators(self):
        with pytest.raises(ValueError):
            build_ip_graph((0, 1), [])

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            build_ip_graph((0, 1, 2), [transposition(2, 0, 1)])
        with pytest.raises(ValueError):
            build_ip_graph(
                (0, 1), [transposition(2, 0, 1), transposition(3, 0, 1)]
            )
