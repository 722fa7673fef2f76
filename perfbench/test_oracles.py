"""Self-tests of the benchmark's oracles against exact answers on tiny inputs.

Run with ``python3 -m pytest perfbench/test_oracles.py`` from the repository
root (the repository's own test run collects only ``tests/``).
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from oracles import (  # noqa: E402
    ForwardSimulator,
    exact_ic_spread,
    exact_lt_spread,
    greedy_max_cover,
    ris_hit_fraction,
)

# A 6-vertex graph with a cycle (1 -> 2 -> 1), two paths into 4 and a
# vertex (5) that nothing reaches: 9 edges, 512 live-edge worlds.
IC_EDGES = [
    (0, 1, 0.5), (1, 2, 0.7), (2, 1, 0.4), (0, 3, 0.3), (3, 4, 0.9),
    (2, 4, 0.2), (4, 0, 0.1), (1, 4, 0.6), (3, 2, 0.25),
]
# LT weights: every vertex's in-weights sum to at most 1.
LT_EDGES = [
    (0, 1, 0.5), (2, 1, 0.3), (1, 2, 0.6), (3, 2, 0.2), (0, 3, 0.8),
    (1, 4, 0.4), (2, 4, 0.35), (3, 4, 0.2), (4, 0, 0.3),
]


def _sim(edges, model, n=6):
    src, dst, p = (np.array(c) for c in zip(*edges))
    return ForwardSimulator(n, src, dst, p, model, batch=512)


def _agrees(sim, edges, seeds, exact_fn, n=6, sims=40000):
    exact = exact_fn(n, edges, seeds)
    mean, se = sim.spread(seeds, sims, seed=11)
    assert abs(mean - exact) < 4 * se + 1e-9, (mean, se, exact)


@pytest.mark.parametrize("seeds", [[0], [3], [1, 3], [5]])
def test_ic_simulator_matches_world_enumeration(seeds):
    _agrees(_sim(IC_EDGES, "IC"), IC_EDGES, seeds, exact_ic_spread)


@pytest.mark.parametrize("seeds", [[0], [3], [1, 3], [5]])
def test_lt_simulator_matches_in_edge_enumeration(seeds):
    _agrees(_sim(LT_EDGES, "LT"), LT_EDGES, seeds, exact_lt_spread)


def test_exact_enumerators_on_certain_edges():
    chain = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 0.0)]
    assert exact_ic_spread(4, chain, [0]) == 3.0
    assert exact_lt_spread(4, chain, [0]) == 3.0
    # Two parallel half-edges into one vertex: IC 1 - 0.25, LT 0.5 + 0.5.
    fork = [(0, 2, 0.5), (1, 2, 0.5)]
    assert exact_ic_spread(3, fork, [0, 1]) == pytest.approx(2.75)
    assert exact_lt_spread(3, fork, [0, 1]) == pytest.approx(3.0)


def test_simulators_exact_on_deterministic_edges():
    chain = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 0.0), (3, 0, 1.0)]
    for model in ("IC", "LT"):
        sizes = _sim(chain, model, n=4).cascade_sizes([0], 100, seed=3)
        assert np.all(sizes == 3)


def _flat(sets):
    offsets = np.concatenate(([0], np.cumsum([len(s) for s in sets])))
    return offsets, np.concatenate([np.asarray(s) for s in sets])


def test_greedy_ties_and_full_coverage():
    # Gains 0:2, 1:2, 2:1, 3:1 -> 0 wins its tie with 1; then 2 (tie with
    # 3); then 3 covers the last set, and the rest fill by lowest id.
    offsets, verts = _flat([[0, 1], [0, 1], [2], [3]])
    seeds, covered = greedy_max_cover(6, offsets, verts, 6)
    assert seeds.tolist() == [0, 2, 3, 1, 4, 5]
    assert covered.tolist() == [2, 3, 4, 4, 4, 4]


def test_greedy_prefers_marginal_gain_over_raw_count():
    # 5 is in the most sets, but after picking it 1 gains more than 2.
    offsets, verts = _flat([[5, 2], [5, 2], [5], [1], [1], [1, 2]])
    seeds, covered = greedy_max_cover(6, offsets, verts, 3)
    assert seeds.tolist() == [1, 5, 0]
    assert covered.tolist() == [3, 6, 6]


def test_greedy_matches_brute_force_on_random_sketches():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(3, 12))
        sets = [
            np.unique(rng.integers(0, n, size=int(rng.integers(1, 4))))
            for _ in range(int(rng.integers(1, 15)))
        ]
        k = int(rng.integers(1, n + 1))
        offsets, verts = _flat(sets)
        seeds, covered = greedy_max_cover(n, offsets, verts, k)
        alive = [set(s.tolist()) for s in sets]
        chosen: list[int] = []
        done = 0
        for i in range(k):
            gains = [
                -1 if v in chosen else sum(1 for s in alive if s and v in s)
                for v in range(n)
            ]
            v = gains.index(max(gains))
            chosen.append(v)
            for j, s in enumerate(alive):
                if s and v in s:
                    alive[j] = set()
                    done += 1
            assert seeds[i] == v and covered[i] == done


def test_ris_hit_fraction():
    offsets, verts = _flat([[0, 1], [2], [3, 4], [1, 4]])
    frac, num = ris_hit_fraction(offsets, verts, [1, 4])
    assert (frac, num) == (0.75, 4)
