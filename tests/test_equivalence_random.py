"""Randomized equivalence: the batched closure must be bit-identical to
the per-label oracle on arbitrary (seed, generator) inputs.

``build_ip_graph`` promises the node numbering and arc list of a
label-by-label BFS; ``tests/test_fastclosure.py`` pins a handful of fixed
cases.
Here we fuzz ~50 seeded-random instances — mixed generator kinds
(nucleus/super/generic), repeated symbols, non-integer symbols, directed
closures — and compare every observable of the built graphs.
"""

import random

import pytest

from repro.core.ipgraph import GENERIC, NUCLEUS, SUPER, Generator, build_ip_graph
from repro.core.permutation import Permutation

from .oracles import build_ip_graph_reference

N_CASES = 50
KINDS = (NUCLEUS, SUPER, GENERIC)


def _random_case(rng: random.Random):
    """One random (seed, generators, directed) instance, kept small enough
    that the per-label oracle stays fast (k <= 7)."""
    k = rng.randint(3, 7)
    # repeated symbols with probability 2/3: alphabet smaller than k
    if rng.random() < 2 / 3:
        alphabet_size = rng.randint(1, max(1, k - 1))
    else:
        alphabet_size = k
    symbol_pool = list(range(alphabet_size))
    if rng.random() < 0.25:
        # non-integer hashables exercise the symbol-encoding path
        symbol_pool = [chr(ord("a") + s) for s in symbol_pool]
    # every alphabet symbol appears at least once; the rest are random
    seed = list(symbol_pool)
    seed += [rng.choice(symbol_pool) for _ in range(k - len(seed))]
    rng.shuffle(seed)

    ngen = rng.randint(1, 4)
    gens = []
    for i in range(ngen):
        img = list(range(k))
        rng.shuffle(img)
        gens.append(Generator(Permutation(img), name=f"g{i}", kind=rng.choice(KINDS)))
    directed = rng.random() < 0.25
    return tuple(seed), gens, directed


def _case_params():
    rng = random.Random(0x1999_1CC9)
    cases = [_random_case(rng) for _ in range(N_CASES)]
    # make sure the suite actually covers the interesting regimes
    assert any(len(set(seed)) < len(seed) for seed, _, _ in cases)
    assert any(len(set(seed)) == len(seed) for seed, _, _ in cases)
    assert any(d for _, _, d in cases)
    assert any(isinstance(seed[0], str) for seed, _, _ in cases)
    kinds = {g.kind for _, gens, _ in cases for g in gens}
    assert kinds == set(KINDS)
    return cases


@pytest.mark.parametrize("seed,gens,directed", _case_params())
def test_fast_closure_matches_reference(seed, gens, directed):
    ref = build_ip_graph_reference(seed, gens, directed=directed)
    fast = build_ip_graph(seed, gens, directed=directed)
    assert ref.labels == fast.labels  # identical node order
    assert (ref.edges_src == fast.edges_src).all()
    assert (ref.edges_dst == fast.edges_dst).all()
    assert (ref.edges_gen == fast.edges_gen).all()
    assert ref.seed == fast.seed
    assert ref.directed == fast.directed
    assert ref.num_nodes == fast.num_nodes
    assert ref.num_edges() == fast.num_edges()
    # the derived adjacency agrees too (loops excluded identically)
    a, b = ref.adjacency_csr(), fast.adjacency_csr()
    assert (a.indptr == b.indptr).all()
    assert (a.indices == b.indices).all()


def test_equivalence_holds_under_profiling(tmp_path):
    """Instrumentation must not perturb the closure's output."""
    from repro import obs

    rng = random.Random(7)
    seed, gens, directed = _random_case(rng)
    ref = build_ip_graph_reference(seed, gens, directed=directed)
    fast = build_ip_graph(seed, gens, directed=directed)
    obs.enable(trace=str(tmp_path / "t.jsonl"))
    try:
        fast_p = build_ip_graph(seed, gens, directed=directed)
    finally:
        obs.disable()
        obs.reset()
    assert ref.labels == fast.labels == fast_p.labels
    assert (fast.edges_src == fast_p.edges_src).all()
    assert (ref.edges_src == fast_p.edges_src).all()
    assert (ref.edges_dst == fast_p.edges_dst).all()
    assert (ref.edges_gen == fast_p.edges_gen).all()
