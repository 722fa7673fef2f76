"""Reference computations the benchmark checks the program against.

Nothing here imports ``repro``: the forward simulators read a graph only as
``(n, src, dst, prob)`` edge arrays, and the greedy reads a sketch only as
``(offsets, vertices)`` flat arrays.  So a fault shared by the program's
samplers, diffusion models or selection kernels cannot hide in the check.

- :class:`ForwardSimulator` — Monte Carlo expected spread sigma(S) under
  the independent cascade (IC) or linear threshold (LT) model, many
  cascades per vectorised pass.
- :func:`exact_ic_spread` / :func:`exact_lt_spread` — exact sigma(S) on
  tiny graphs by enumerating every live-edge world (the self-tests'
  ground truth for the simulator).
- :func:`greedy_max_cover` — greedy maximum coverage with lowest-id
  tie-break, returning seeds and per-prefix covered-set counts.
- :func:`ris_hit_fraction` — share of sketch sets that meet a vertex set,
  the left side of the RIS identity n * P(R meets P) = sigma(P).
"""

from __future__ import annotations

import itertools
import math

import numpy as np


class ForwardSimulator:
    """Monte Carlo sigma(S) from the edge list alone.

    IC: every edge (u, v) is live with probability p(u, v), its coin flipped
    once when u activates.  LT: every vertex draws a threshold uniform on
    [0, 1] and activates once the summed weights of its active in-neighbours
    reach it.  The self-tests check both against live-edge enumeration.
    """

    def __init__(self, n: int, src, dst, prob, model: str, *, batch: int = 64):
        self.n = int(n)
        self.model = str(model).upper()
        if self.model not in ("IC", "LT"):
            raise ValueError(f"unknown model {model!r}")
        self.batch = int(batch)
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        prob = np.asarray(prob, dtype=np.float64)
        order = np.argsort(src, kind="stable")
        self._ptr = _indptr(src[order], self.n)
        self._tgt = dst[order]
        self._p = prob[order]

    def cascade_sizes(self, seeds, num_sims: int, seed: int) -> np.ndarray:
        """Active-set size of ``num_sims`` independent cascades from ``seeds``."""
        seeds = np.unique(np.asarray(seeds, dtype=np.int64))
        rng = np.random.default_rng(seed)
        out = []
        left = int(num_sims)
        while left > 0:
            b = min(self.batch, left)
            out.append(self._batch(seeds, b, rng))
            left -= b
        return np.concatenate(out).astype(np.float64)

    def spread(self, seeds, num_sims: int, seed: int) -> tuple[float, float]:
        """(mean, standard error) of sigma(seeds) over ``num_sims`` cascades."""
        sizes = self.cascade_sizes(seeds, num_sims, seed)
        se = float(sizes.std(ddof=1) / math.sqrt(sizes.size)) if sizes.size > 1 else 0.0
        return float(sizes.mean()), se

    def _batch(self, seeds, b: int, rng) -> np.ndarray:
        n = self.n
        lt = self.model == "LT"
        active = np.zeros(b * n, dtype=bool)
        # LT: thresholds drawn up front; a vertex activates once the weights
        # of its active in-neighbours reach its threshold.
        acc = np.zeros(b * n) if lt else None
        theta = rng.random(b * n) if lt else None
        frontier = (np.arange(b, dtype=np.int64)[:, None] * n + seeds[None, :]).ravel()
        active[frontier] = True
        ptr, tgt, p = self._ptr, self._tgt, self._p
        while frontier.size:
            v = frontier % n
            lo = ptr[v]
            deg = ptr[v + 1] - lo
            total = int(deg.sum())
            if total == 0:
                break
            # Edge index of every out-edge of every frontier vertex.
            edges = np.repeat(lo - np.cumsum(deg) + deg, deg) + np.arange(total)
            heads = np.repeat(frontier - v, deg) + tgt[edges]  # sim offset b * n
            if lt:
                np.add.at(acc, heads, p[edges])
                nxt = np.unique(heads)
                nxt = nxt[acc[nxt] >= theta[nxt]]
            else:
                nxt = np.unique(heads[rng.random(total) < p[edges]])
            nxt = nxt[~active[nxt]]
            active[nxt] = True
            frontier = nxt
        return active.reshape(b, n).sum(axis=1)


def _indptr(sorted_keys: np.ndarray, n: int) -> np.ndarray:
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(sorted_keys, minlength=n), out=ptr[1:])
    return ptr


def _reach(n: int, live_edges, seeds) -> int:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in live_edges:
        adj[u].append(v)
    seen = set(int(s) for s in seeds)
    stack = list(seen)
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen)


def exact_ic_spread(n: int, edges, seeds) -> float:
    """Exact IC sigma(seeds): the sum over all 2**m live-edge worlds."""
    edges = [(int(u), int(v), float(p)) for u, v, p in edges]
    if len(edges) > 20:
        raise ValueError("exact IC enumeration is for graphs of <= 20 edges")
    total = 0.0
    for world in itertools.product((False, True), repeat=len(edges)):
        weight = 1.0
        live = []
        for on, (u, v, p) in zip(world, edges):
            weight *= p if on else 1.0 - p
            if on:
                live.append((u, v))
        if weight:
            total += weight * _reach(n, live, seeds)
    return total


def exact_lt_spread(n: int, edges, seeds) -> float:
    """Exact LT sigma(seeds): each vertex picks one in-edge or none."""
    edges = [(int(u), int(v), float(w)) for u, v, w in edges]
    choices = []
    for v in range(n):
        ins = [(u, w) for u, vv, w in edges if vv == v]
        none = 1.0 - sum(w for _, w in ins)
        choices.append([(None, none)] + ins)
    total = 0.0
    for pick in itertools.product(*choices):
        weight = 1.0
        live = []
        for v, (u, w) in enumerate(pick):
            weight *= w
            if u is not None:
                live.append((u, v))
        if weight:
            total += weight * _reach(n, live, seeds)
    return total


def greedy_max_cover(n: int, offsets, vertices, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Greedy maximum coverage over a flat sketch, lowest id first on ties.

    Each round picks the unchosen vertex that covers the most still
    uncovered sets; among equals, the lowest vertex id.  Once every set is
    covered all gains are zero, so the rest are the lowest unchosen ids.
    Returns ``(seeds, covered)`` where ``covered[i]`` is the number of sets
    the first ``i + 1`` seeds cover.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    vertices = np.asarray(vertices, dtype=np.int64)
    num_sets = offsets.size - 1
    set_of = np.repeat(np.arange(num_sets, dtype=np.int64), np.diff(offsets))
    order = np.argsort(vertices, kind="stable")
    inv_ptr = _indptr(vertices[order], n)
    inv_sets = set_of[order]
    gain = np.bincount(vertices, minlength=n).astype(np.int64)
    alive = np.ones(num_sets, dtype=bool)
    chosen = np.zeros(n, dtype=bool)
    seeds = np.empty(k, dtype=np.int64)
    covered = np.empty(k, dtype=np.int64)
    total = 0
    for i in range(k):
        masked = np.where(chosen, -1, gain)
        v = int(np.argmax(masked))  # first maximum = lowest id
        seeds[i] = v
        chosen[v] = True
        hit = inv_sets[inv_ptr[v] : inv_ptr[v + 1]]
        hit = np.unique(hit[alive[hit]])
        if hit.size:
            alive[hit] = False
            total += int(hit.size)
            lo, hi = offsets[hit], offsets[hit + 1]
            lens = hi - lo
            idx = np.repeat(lo - np.cumsum(lens) + lens, lens) + np.arange(int(lens.sum()))
            np.subtract.at(gain, vertices[idx], 1)
        covered[i] = total
    return seeds, covered


def ris_hit_fraction(offsets, vertices, probe) -> tuple[float, int]:
    """(share of sets that contain any probe vertex, number of sets)."""
    offsets = np.asarray(offsets, dtype=np.int64)
    vertices = np.asarray(vertices)
    num_sets = offsets.size - 1
    inside = np.isin(vertices, np.asarray(probe)).astype(np.int64)
    per_set = np.add.reduceat(inside, offsets[:-1]) if vertices.size else np.zeros(num_sets)
    # reduceat on an empty slice returns the next element; sets are never
    # empty in a sketch (each holds its root), but guard anyway.
    per_set = np.where(np.diff(offsets) > 0, per_set, 0)
    return float(np.count_nonzero(per_set) / num_sets), int(num_sets)


def ris_z(n: int, hit_frac: float, num_sets: int, sigma: float, sigma_se: float) -> float:
    """z-score of n * hit_frac against a simulated sigma (binomial + MC error)."""
    var = (n * n) * hit_frac * (1.0 - hit_frac) / num_sets + sigma_se**2
    return (n * hit_frac - sigma) / math.sqrt(var) if var > 0 else 0.0
