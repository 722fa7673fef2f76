"""The four workloads: set-up, timed rounds, and the checks of their outputs.

Each workload function takes a :class:`Run` and returns a :class:`Outcome`.
Set-up runs ``SETUPS`` times and is timed each time; the measured phase
then repeats whole rounds until ``seconds`` have passed (at least one).
Checks run after the measured phase against :mod:`oracles`.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import resource
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Callable

import numpy as np

from oracles import ForwardSimulator, greedy_max_cover, ris_hit_fraction, ris_z
from repro.core import EfficientIMM, IMMParams
from repro.core.sampling import RRRSampler
from repro.diffusion.base import get_model
from repro.dynamic import DynamicService, EdgeUpdate, IncrementalMaintainer
from repro.gateway.client import AsyncGatewayClient
from repro.gateway.server import serve_in_thread
from repro.graph.datasets import load_dataset
from repro.service.protocol import IMQuery
from repro.shard import ShardCluster, ShardPlan
from repro.shard.worker import SketchSpec
from spans import Tracer

#: Set-ups timed before the first round (the median is reported).  imm-*
#: also times one more graph load after every solve: ten loads in a row
#: took one burst of contention together and spread 0.27 across runs.
SETUPS = {"imm-ic": 4, "imm-lt": 4, "serve-rw": 3, "gateway-read": 2}
K_MAX = 50
#: Read mix: the default of ``repro.gateway.loadgen.LoadGenConfig``, zipf
#: popularity 1/rank**1.1 over k = 5, 10, 20, 35, 50 (46%, 22%, 14%, 10%,
#: 8%).  Copied rather than imported, so the workload stays fixed when
#: those defaults change.
READ_KS = (5, 10, 20, 35, 50)
READ_P = tuple((r ** -1.1) / sum(q ** -1.1 for q in range(1, 6)) for r in range(1, 6))
#: op_p50_ms is the median over the reads of this k only: the overall
#: median sits near the 46% edge of the k=5 class and flips class run to run.
P50_K = 5
#: imm-* always runs this many solves; op_tail_ms is the slowest of them,
#: so its sample count does not depend on the program's speed.
TAIL_SOLVES = 3
#: |z| above this fails a RIS-identity check.
Z_LIMIT = 4.0
#: Probe sets and the audit stream are fixed, not drawn from --seed.
PROBE_SEED = 2024
AUDIT_STREAM_SEED = 0
SKETCH_SEED = 0


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    tracer: Tracer | None


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int
    failed: int
    rounds: int
    setups: int
    problems: list[str] = field(default_factory=list)
    facts: dict[str, Any] = field(default_factory=dict)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _phase(run: Run, phase: str | None) -> None:
    if run.tracer is not None:
        run.tracer.phase = phase
        run.tracer.recording = phase is not None


def _timed_setups(run: Run, build: Callable[[], Any], close: Callable[[Any], None]):
    """Build ``SETUPS`` times; returns (seconds per build, the last build).
    Earlier builds are closed right after they are timed."""
    _phase(run, "setup")
    times, obj = [], None
    for _ in range(SETUPS[run.workload]):
        if obj is not None:
            close(obj)
        t0 = time.perf_counter()
        obj = build()
        times.append(time.perf_counter() - t0)
    _phase(run, None)
    return times, obj


def _probe(n: int, size: int) -> np.ndarray:
    return np.sort(np.random.default_rng(PROBE_SEED).choice(n, size, replace=False))


def _simulator(graph, model: str) -> ForwardSimulator:
    src, dst, prob = graph.edge_array()
    return ForwardSimulator(graph.num_vertices, src, dst, prob, model)


# --------------------------------------------------------------------- IMM
IMM_SPECS = {
    # dataset, scale, model, theta cap, spread sims, allowed (low, high) of
    # the in-sample bias n*F(S)/sigma(S) - 1, probe size, RRR sets and
    # forward simulations for the RIS-identity probe.
    "imm-ic": dict(dataset="youtube", scale=1.0, model="IC", theta_cap=2000,
                   sims=128, bias=(-0.03, 0.20), probe=10, probe_sets=400, probe_sims=256),
    "imm-lt": dict(dataset="youtube", scale=4.0, model="LT", theta_cap=None,
                   sims=256, bias=(-0.06, 0.10), probe=200, probe_sets=20000, probe_sims=1024),
}


def imm(run: Run) -> Outcome:
    spec = IMM_SPECS[run.workload]
    def load():
        return load_dataset(spec["dataset"], model=spec["model"], scale=spec["scale"])

    setup_times, graph = _timed_setups(run, load, lambda g: None)

    def params(i: int) -> IMMParams:
        return IMMParams(
            k=K_MAX, epsilon=0.5, model=spec["model"],
            theta_cap=spec["theta_cap"], seed=run.seed * 1000 + i,
        )

    solves: list[tuple[float, Any]] = []
    measured_s = 0.0
    while len(solves) < TAIL_SOLVES or measured_s < run.seconds:
        _phase(run, "measure")
        t0 = time.perf_counter()
        result = EfficientIMM(graph).run(params(len(solves)))
        dt = time.perf_counter() - t0
        _phase(run, None)
        solves.append((dt, result))
        measured_s += dt
        if len(solves) == 1:
            rss = peak_rss_mb()
        _phase(run, "setup")
        t0 = time.perf_counter()
        load()
        setup_times.append(time.perf_counter() - t0)
        _phase(run, None)

    problems: list[str] = []
    n = graph.num_vertices
    sim = _simulator(graph, spec["model"])
    spreads, biases = [], []
    for i, (_, res) in enumerate(solves):
        seeds = np.asarray(res.seeds)
        if seeds.size != K_MAX or np.unique(seeds).size != K_MAX:
            problems.append(f"solve {i}: {seeds.size} seeds, {np.unique(seeds).size} distinct")
        if seeds.size and (seeds.min() < 0 or seeds.max() >= n):
            problems.append(f"solve {i}: seed id out of range")
        sigma, _ = sim.spread(seeds, spec["sims"], seed=99)
        spreads.append(sigma)
        bias = res.spread_estimate / sigma - 1.0
        biases.append(bias)
        lo, hi = spec["bias"]
        if not lo <= bias <= hi:
            problems.append(
                f"solve {i}: n*F(S)={res.spread_estimate:.1f} vs simulated "
                f"{sigma:.1f} ({bias:+.1%}, allowed {lo:+.0%}..{hi:+.0%})"
            )

    # RIS identity on the program's public sampler, for a fixed probe set.
    probe = _probe(n, spec["probe"])
    p0 = params(0)
    sampler = RRRSampler(
        get_model(spec["model"], graph), EfficientIMM(graph).sampling_config(p0), seed=777
    )
    sampler.extend(spec["probe_sets"])
    frac, num = ris_hit_fraction(sampler.store.offsets, sampler.store.vertices, probe)
    sigma_p, se_p = sim.spread(probe, spec["probe_sims"], seed=98)
    z = ris_z(n, frac, num, sigma_p, se_p)
    if abs(z) > Z_LIMIT:
        problems.append(f"RIS identity on RRRSampler: n*P={n * frac:.1f} vs sigma(P)={sigma_p:.1f}, z={z:.2f}")

    last = solves[-1][1]
    return Outcome(
        metrics={
            "setup_s": median(setup_times),
            "round_s": median(t for t, _ in solves),
            # A solve is the one operation: op_p50_ms is round_s in ms, and
            # with too few solves for a percentile the tail is the slowest
            # of the first TAIL_SOLVES.
            "op_p50_ms": median(t for t, _ in solves) * 1e3,
            "op_tail_ms": max(t for t, _ in solves[:TAIL_SOLVES]) * 1e3,
            "spread": median(spreads),
            "peak_rss_mb": rss,
        },
        attempted=len(solves),
        failed=0,
        rounds=len(solves),
        setups=len(setup_times),
        problems=problems,
        facts={
            "measured_s": measured_s,
            "solve_s": [t for t, _ in solves],
            "spreads": spreads,
            "in_sample_bias": biases,
            "ris_z": z,
            "theta": int(last.theta),
            "num_rrrsets": int(last.num_rrrsets),
        },
    )


# ---------------------------------------------------------------- serve-rw
COMMITS = 16
READS_PER_COMMIT = 20
EDGE_SHARE = 0.002
SERVE_TAIL_PCT = 96.5  # 320 reads a round: the highest with >= 10 beyond
GATEWAY_READS = 400
GATEWAY_TAIL_PCT = 97.5  # 400 reads a round: exactly 10 beyond
SPREAD_SIMS = 256


def update_stream(graph, rng: np.random.Generator):
    """``COMMITS`` batches of 0.2% of the edges, 94/3/3 insert/delete/
    reweight with weak probabilities (0.01-0.1), drawn against the
    benchmark's own edge model; returns (batches, final edge dict)."""
    src, dst, prob = graph.edge_array()
    edges = {(int(u), int(v)): float(p) for u, v, p in zip(src, dst, prob)}
    n = graph.num_vertices
    batches = []
    for _ in range(COMMITS):
        keys = list(edges)
        size = int(round(EDGE_SHARE * len(keys)))
        n_ins = int(round(0.94 * size))
        n_del = int(round(0.03 * size))
        ops = []
        while len(ops) < n_ins:
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if u == v or (u, v) in edges:
                continue
            w = float(rng.uniform(0.01, 0.1))
            edges[(u, v)] = w
            ops.append(("insert", u, v, w))
        picks = rng.choice(len(keys), size=size - n_ins, replace=False)
        for j in picks[:n_del]:
            u, v = keys[j]
            del edges[(u, v)]
            ops.append(("delete", u, v, None))
        for j in picks[n_del:]:
            u, v = keys[j]
            w = float(rng.uniform(0.01, 0.1))
            edges[(u, v)] = w
            ops.append(("reweight", u, v, w))
        batches.append(ops)
    return batches, edges


def _answer(resp) -> str:
    return json.dumps(
        [resp.seeds, resp.spread_estimate, resp.coverage_fraction, resp.num_rrrsets, resp.degraded]
    )


def serve_rw(run: Run) -> Outcome:
    base = load_dataset("skitter", model="IC")
    n = base.num_vertices
    # Writes are fixed: every round commits the same stream onto a freshly
    # built service, so the audit below sees the same input in every run.
    batches, expected = update_stream(base, np.random.default_rng(AUDIT_STREAM_SEED))
    published: list[Any] = []

    def build():
        graph = load_dataset("skitter", model="IC")
        svc = DynamicService("skitter", graph, num_sets=2000, seed=SKETCH_SEED)
        cluster = ShardCluster(ShardPlan(num_shards=2))
        svc.add_publish_hook(cluster.publish)
        return svc, cluster

    def close(pair):
        pair[0].close()
        pair[1].close()

    def record(*, store, meta, **_):
        published.append((int(meta["epoch"]), store))

    # Only one service is alive at a time, so peak_rss_mb counts one.
    setup_times, ready = _timed_setups(run, build, close)
    rng = np.random.default_rng(run.seed)
    writes, reads, read_ks, routed, round_times = [], [], [], [], []
    audits: list[tuple[float, float]] = []
    problems: list[str] = []
    rounds = attempted = failed = 0
    cache_hits = cache_misses = 0
    measured_s = 0.0
    sim = sigma_p = None
    probe = _probe(n, 10)
    last_sketch = None

    while rounds == 0 or measured_s < run.seconds:
        if ready is not None:
            (svc, cluster), ready = ready, None
        else:
            _phase(run, "setup")
            t0 = time.perf_counter()
            svc, cluster = build()
            setup_times.append(time.perf_counter() - t0)
            _phase(run, None)
        published.clear()
        svc.add_publish_hook(record, replay=False)
        stats0 = svc.engine.cache.stats
        hits0, misses0 = stats0.hits, stats0.misses
        answers = []
        _phase(run, "measure")
        t_round = time.perf_counter()
        for c, ops in enumerate(batches):
            for op, u, v, w in ops:
                svc.stage(EdgeUpdate(op, u, v, w))
            t0 = time.perf_counter()
            svc.commit()
            writes.append(time.perf_counter() - t0)
            epoch = int(svc.delta.epoch)
            ks = rng.choice(READ_KS, p=READ_P, size=READS_PER_COMMIT)
            for j, k in enumerate(ks.tolist()):
                rid = f"w{rounds}-{c}-{j}"
                if run.tracer is not None:
                    run.tracer.request(rid)
                t0 = time.perf_counter()
                resp = svc.query(k=k, id=rid)
                reads.append(time.perf_counter() - t0)
                read_ks.append(k)
                answers.append((epoch, k, resp))
            if run.tracer is not None:
                run.tracer.request(None)
            # One read per commit is repeated through the router (untimed).
            _phase(run, None)
            _, k0, resp0 = answers[-READS_PER_COMMIT]
            routed_resp = cluster.execute(
                [IMQuery(dataset="skitter", k=k0, theta_cap=2000, seed=SKETCH_SEED)]
            )[0]
            routed.append((resp0, routed_resp))
            _phase(run, "measure")
        measured_s += time.perf_counter() - t_round
        _phase(run, None)
        round_times.append(sum(writes[-COMMITS:]) + sum(reads[-COMMITS * READS_PER_COMMIT:]))
        if rounds == 0:
            rss = peak_rss_mb()
        stats = svc.engine.cache.stats
        cache_hits += stats.hits - hits0
        cache_misses += stats.misses - misses0
        attempted += COMMITS + COMMITS * READS_PER_COMMIT

        # Reads against the independent greedy over each published sketch.
        greedy = {}
        for epoch, store in published:
            seeds, covered = greedy_max_cover(n, store.offsets, store.vertices, K_MAX)
            greedy[epoch] = (seeds, covered, len(store))
        for epoch, k, resp in answers:
            if not resp.ok or resp.degraded or resp.epoch != epoch:
                problems.append(
                    f"read at epoch {epoch}: status={resp.status} degraded={resp.degraded} epoch={resp.epoch}"
                )
                continue
            seeds, covered, num = greedy[epoch]
            if resp.seeds != seeds[:k].tolist() or resp.coverage_fraction != float(covered[k - 1]) / num:
                problems.append(f"read at epoch {epoch}, k={k}: differs from the independent greedy")
        for direct, via_router in routed[-COMMITS:]:
            if _answer(direct) != _answer(via_router):
                problems.append(f"routed read differs: {_answer(direct)} vs {_answer(via_router)}")

        compact = svc.delta.compact()
        src, dst, prob = compact.edge_array()
        keys = sorted(expected)
        want = np.array(keys, dtype=np.int64).reshape(-1, 2)
        order = np.lexsort((dst, src))
        got = np.stack([src[order], dst[order]], axis=1).astype(np.int64)
        if got.shape != want.shape or not np.array_equal(got, want) or not np.array_equal(
            prob[order], np.array([expected[e] for e in keys], dtype=prob.dtype)
        ):
            problems.append("delta.compact() differs from the update log's edge set")

        # Audit: the RIS identity on the last published sketch, against
        # forward simulation on the compacted graph (the same every round,
        # so it is simulated once).
        epoch, store = published[-1]
        if sim is None:
            sim = _simulator(compact, "IC")
            sigma_p = sim.spread(probe, 1000, seed=97)
            top = svc.query(k=K_MAX)
            spread, _ = sim.spread(top.seeds, SPREAD_SIMS, seed=99)
        frac, num = ris_hit_fraction(store.offsets, store.vertices, probe)
        z = ris_z(n, frac, num, *sigma_p)
        audits.append((n * frac, z))
        attempted += 1
        if abs(z) > Z_LIMIT:
            failed += 1
        last_sketch = store
        rounds += 1
        if rounds == 1:
            # The audit must pass on a full rebuild of the same epoch.
            fresh = IncrementalMaintainer(svc.delta, num_sets=2000, seed=SKETCH_SEED + 1)
            ffrac, fnum = ris_hit_fraction(fresh.store.offsets, fresh.store.vertices, probe)
            rebuild_z = ris_z(n, ffrac, fnum, *sigma_p)
            if abs(rebuild_z) > Z_LIMIT:
                problems.append(f"audit fails on a full rebuild too (z={rebuild_z:.2f})")
        close((svc, cluster))

    # Commits show in round_s (about half of it) and in the saved write
    # figures; the per-operation metrics are over reads, as on gateway-read.
    return Outcome(
        metrics={
            "setup_s": median(setup_times),
            "round_s": median(round_times),
            "op_p50_ms": median(t for t, k in zip(reads, read_ks) if k == P50_K) * 1e3,
            "op_tail_ms": percentile(reads, SERVE_TAIL_PCT) * 1e3,
            "spread": spread,
            "peak_rss_mb": rss,
        },
        attempted=attempted,
        failed=failed,
        rounds=rounds,
        setups=len(setup_times),
        problems=problems,
        facts={
            "measured_s": measured_s,
            "round_s": round_times,
            "write_p50_ms": median(writes) * 1e3,
            "write_tail_ms": max(writes) * 1e3,
            "audit": {"probe": probe.tolist(), "sigma": sigma_p[0], "sigma_se": sigma_p[1],
                      "n_F": [a for a, _ in audits], "z": [z for _, z in audits],
                      "rebuild_z": rebuild_z},
            "cache_hits": cache_hits,
            "cache_misses": cache_misses,
            "sketch_bytes": int(last_sketch.nbytes()),
            "sketch_entries": int(last_sketch.total_entries),
        },
    )


# ------------------------------------------------------------ gateway-read
def gateway_read(run: Run) -> Outcome:
    spec = SketchSpec(dataset="amazon", model="IC", epsilon=0.5, seed=SKETCH_SEED, num_sets=2000)
    loop = asyncio.new_event_loop()

    def build():
        stack = contextlib.ExitStack()
        cluster = stack.enter_context(ShardCluster(ShardPlan(num_shards=2)))
        cluster.build(spec)
        server = stack.enter_context(serve_in_thread(cluster))
        clients = [AsyncGatewayClient(server.host, server.port) for _ in range(2)]
        for c in clients:
            loop.run_until_complete(c.connect())
            stack.callback(lambda c=c: loop.run_until_complete(c.close()))
        return stack, cluster, server, clients

    try:
        setup_times, (stack, cluster, server, clients) = _timed_setups(
            run, build, lambda built: built[0].close()
        )
        with stack:
            return _gateway_measure(run, loop, setup_times, cluster, server, clients, spec)
    finally:
        loop.close()


def _gateway_measure(run, loop, setup_times, cluster, server, clients, spec):
    rng = np.random.default_rng(run.seed)
    lat, sent_done, answers, round_times = [], [], [], []
    rounds = 0
    measured_s = 0.0
    g0 = server.stats.to_dict()
    scatter0 = cluster.router.stats.scatter_calls
    hits0 = sum(w.engine.cache.stats.hits for w in cluster.workers)
    misses0 = sum(w.engine.cache.stats.misses for w in cluster.workers)

    async def one_round(r: int, ks: list[int]) -> None:
        queue = list(enumerate(ks))

        async def client_loop(client):
            while queue:
                i, k = queue.pop(0)
                rid = f"g{r}-{i}"
                q = IMQuery(dataset=spec.dataset, k=k, theta_cap=spec.num_sets, seed=spec.seed, id=rid)
                t0 = time.perf_counter()
                resp = await client.query(q)
                t1 = time.perf_counter()
                lat.append(t1 - t0)
                sent_done.append((rid, t0, t1))
                answers.append((k, resp))

        await asyncio.gather(*(client_loop(c) for c in clients))

    _phase(run, "measure")
    while rounds == 0 or measured_s < run.seconds:
        ks = rng.choice(READ_KS, p=READ_P, size=GATEWAY_READS).tolist()
        t0 = time.perf_counter()
        loop.run_until_complete(one_round(rounds, ks))
        dt = time.perf_counter() - t0
        measured_s += dt
        round_times.append(dt)
        if rounds == 0:
            rss = peak_rss_mb()
        rounds += 1
    _phase(run, None)
    g1 = server.stats.to_dict()
    hits = sum(w.engine.cache.stats.hits for w in cluster.workers) - hits0
    misses = sum(w.engine.cache.stats.misses for w in cluster.workers) - misses0
    problems: list[str] = []

    # Independent greedy over the union of the shard slices.
    slices = []
    for w in cluster.workers:
        _, sub_fp = w.fingerprints(spec)
        entry = w.engine.cache.get(sub_fp)
        slices.append(entry.store)
    offsets = [np.zeros(1, dtype=np.int64)]
    verts = []
    total = 0
    for st in slices:
        offsets.append(np.asarray(st.offsets[1:], dtype=np.int64) + total)
        total += int(st.total_entries)
        verts.append(np.asarray(st.vertices))
    offsets = np.concatenate(offsets)
    verts = np.concatenate(verts)
    graph = load_dataset(spec.dataset, model=spec.model, seed=spec.seed)
    n = graph.num_vertices
    seeds, covered = greedy_max_cover(n, offsets, verts, K_MAX)
    num = offsets.size - 1
    for k, resp in answers:
        if not resp.ok:
            problems.append(f"read k={k}: status {resp.status} ({resp.error})")
        elif resp.degraded or resp.seeds != seeds[:k].tolist() or resp.coverage_fraction != float(
            covered[k - 1]
        ) / num:
            problems.append(f"read k={k}: differs from the independent greedy over the shard slices")
    failed = sum(1 for _, resp in answers if not resp.ok)

    probe = _probe(n, 10)
    sim = _simulator(graph, spec.model)
    sigma = sim.spread(probe, 1000, seed=96)
    frac, _ = ris_hit_fraction(offsets, verts, probe)
    z = ris_z(n, frac, num, *sigma)
    if abs(z) > Z_LIMIT:
        problems.append(f"RIS identity on the served sketch: z={z:.2f}")
    top = next(resp for k, resp in answers if k == K_MAX)
    spread, _ = sim.spread(top.seeds, SPREAD_SIMS, seed=99)

    return Outcome(
        metrics={
            "setup_s": median(setup_times),
            "round_s": median(round_times),
            "op_p50_ms": median(t for t, (k, _) in zip(lat, answers) if k == P50_K) * 1e3,
            "op_tail_ms": percentile(lat, GATEWAY_TAIL_PCT) * 1e3,
            "spread": spread,
            "peak_rss_mb": rss,
        },
        attempted=len(answers),
        failed=failed,
        rounds=rounds,
        setups=len(setup_times),
        problems=problems,
        facts={
            "measured_s": measured_s,
            "round_s": round_times,
            "reads_per_s": GATEWAY_READS / median(round_times),
            "ris_z": z,
            "reads": sent_done,
            "gateway_batches": g1["batches"] - g0["batches"],
            "gateway_accepted": g1["accepted"] - g0["accepted"],
            "scatter_calls": cluster.router.stats.scatter_calls - scatter0,
            "cache_hits": hits,
            "cache_misses": misses,
            "sketch_bytes": int(sum(st.nbytes() for st in slices)),
            "sketch_entries": int(total),
        },
    )


WORKLOADS = {
    "imm-ic": imm,
    "imm-lt": imm,
    "serve-rw": serve_rw,
    "gateway-read": gateway_read,
}

