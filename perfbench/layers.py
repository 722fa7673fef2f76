"""Which public callables the traced run wraps, and the per-layer metrics
computed from the spans they record.

Layers carry the names of the program's modules.  Counts and busy times are
per round of the workload (one solve for ``imm-*``, 16 commits with their
reads for ``serve-rw``, 400 reads for ``gateway-read``), taken over the
measured phase; a layer that does no work there (sampling on
``gateway-read``) is taken over set-up instead, per set-up.  ``*_s``
metrics of one operation are medians per call.
"""

from __future__ import annotations

from statistics import median
from typing import Any

from spans import Tracer

PER_LAYER: list[tuple[str, str]] = [
    ("graph.load_s", "s"),
    ("sampling.busy_s", "s"),
    ("sampling.sets", "count"),
    ("sampling.entries", "count"),
    ("sampling.sets_per_s", "1/s"),
    ("sampling.entries_per_s", "1/s"),
    ("imm.levels", "count"),
    ("imm.theta", "count"),
    ("imm.sets_per_theta", "ratio"),
    ("imm.capped", "count"),
    ("selection.busy_s", "s"),
    ("selection.calls", "count"),
    ("selection.rounds", "count"),
    ("selection.entries_per_call", "count"),
    ("sketch.bytes", "bytes"),
    ("sketch.entries", "count"),
    ("sketch.index_s", "s"),
    ("dynamic.delta_commit_s", "s"),
    ("dynamic.compact_s", "s"),
    ("dynamic.repair_s", "s"),
    ("dynamic.publish_s", "s"),
    ("dynamic.sets_resampled", "count"),
    ("dynamic.sets_extended", "count"),
    ("dynamic.invalidated_frac", "ratio"),
    ("service.execute_s", "s"),
    ("service.selection_frac", "ratio"),
    ("service.warm_s", "s"),
    ("service.cache_hits", "count"),
    ("service.cache_misses", "count"),
    ("shard.route_s", "s"),
    ("shard.worker_s", "s"),
    ("shard.scatter_calls", "count"),
    ("shard.router_overhead_frac", "ratio"),
    ("shard.partition_s", "s"),
    ("shard.publish_s", "s"),
    ("gateway.batches", "count"),
    ("gateway.queries_per_batch", "count"),
    ("gateway.queue_wait_ms", "ms"),
    ("gateway.overhead_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
]


def _store_counts(store) -> dict[str, int]:
    return {"sets": len(store), "entries": int(store.total_entries)}


def _sampler_before(args, kwargs):
    return _store_counts(args[0].store)


def _sampler_after(args, kwargs, result, pre):
    now = _store_counts(args[0].store)
    return {
        "sets": now["sets"] - pre["sets"],
        "entries": now["entries"] - pre["entries"],
        "store_entries": now["entries"],
        "store_bytes": int(args[0].store.nbytes()),
    }


def _generate_after(args, kwargs, result, pre):
    return _store_counts(result)


def _one_set_after(args, kwargs, result, pre):
    return {"sets": 1, "entries": int(result[0].size)}


def _kernel_after(args, kwargs, result, pre):
    flat, sizes = result[0], result[1]
    return {"sets": int(sizes.size), "entries": int(flat.size)}


def _select_after(args, kwargs, result, pre):
    return {"rounds": len(result.rounds), "entries": int(args[0].total_entries)}


def _imm_after(args, kwargs, result, pre):
    return {
        "theta": int(result.theta),
        "num_rrrsets": int(result.num_rrrsets),
        "capped": int(bool(getattr(result, "theta_capped", False))),
    }


def _query_ids_after(args, kwargs, result, pre):
    return {"rids": [q.id for q in args[1]]}


def _repair_after(args, kwargs, result, pre):
    return {
        "resampled": int(result.invalidated),
        "extended": int(result.extended),
        "invalidated_frac": float(result.invalidated_fraction),
        "mode": result.mode,
    }


#: (layer, target, before, after, local)
TARGETS: list[tuple[str, str, Any, Any, bool]] = [
    ("graph", "repro.graph.datasets:load_dataset", None, None, False),
    ("sampling", "repro.core.sampling:RRRSampler.extend", _sampler_before, _sampler_after, False),
    ("sampling", "repro.core.parallel_sampling:parallel_generate", None, _generate_after, False),
    ("sampling", "repro.dynamic.maintain:reverse_sample_with_cost", None, _one_set_after, True),
    ("sampling", "repro.kernels.dispatch:KernelSampler.sample_for_roots", None, _kernel_after, False),
    ("imm", "repro.core.efficientimm:EfficientIMM.run", None, _imm_after, False),
    ("selection", "repro.core.selection:efficient_select", None, _select_after, False),
    ("sketch", "repro.sketch.store:FlatRRRStore.sets_containing", None, None, False),
    ("dynamic", "repro.dynamic.delta:DeltaGraph.commit", None, None, False),
    ("dynamic", "repro.dynamic.delta:DeltaGraph.compact", None, None, False),
    ("dynamic", "repro.dynamic.maintain:IncrementalMaintainer.apply", None, _repair_after, False),
    ("dynamic", "repro.dynamic.serving:DynamicService.commit", None, None, False),
    ("service", "repro.service.engine:QueryEngine.execute", None, _query_ids_after, False),
    ("service", "repro.service.engine:QueryEngine.warm", None, None, False),
    ("shard", "repro.shard.plan:ShardPlan.partition_store", None, None, False),
    ("shard", "repro.shard.cluster:ShardCluster.publish", None, None, False),
    ("shard", "repro.shard.cluster:ShardCluster.execute", None, _query_ids_after, False),
    ("shard", "repro.shard.router:Router.execute", None, None, False),
    ("shard", "repro.shard.worker:ShardWorker.session_open", None, None, False),
    ("shard", "repro.shard.worker:ShardWorker.session_cover", None, None, False),
    ("shard", "repro.shard.worker:ShardWorker.session_counts", None, None, False),
    ("shard", "repro.shard.worker:ShardWorker.session_close", None, None, False),
]

WORKER_CALLS = (
    "ShardWorker.session_open", "ShardWorker.session_cover",
    "ShardWorker.session_counts", "ShardWorker.session_close",
)


def install(tracer: Tracer) -> None:
    for layer, target, before, after, local in TARGETS:
        tracer.wrap(layer, target, before=before, after=after, local=local)


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _med(values, default: float = 0.0) -> float:
    values = list(values)
    return float(median(values)) if values else default


def compute(tracer: Tracer, facts: dict[str, Any]) -> dict[str, float]:
    """Per-layer metric values from the spans plus the workload's own facts.

    ``facts`` carries ``rounds`` and ``setups`` (the divisors), the
    sketch size served, ``reads`` (client-side read spans, gateway only),
    program stats deltas, and the measured wall time of the traced phase.
    """
    rounds = max(int(facts["rounds"]), 1)
    setups = max(int(facts["setups"]), 1)
    measured = [s for s in tracer.spans if s["phase"] == "measure"]
    out: dict[str, float] = {}

    def spans(name, phase=None):
        pool = measured if phase == "measure" else tracer.spans
        return [s for s in pool if s["name"] == name]

    out["graph.load_s"] = _med(_dur(s) for s in spans("load_dataset"))

    # Sampling: the outermost sampling spans, so a kernel call under
    # RRRSampler.extend is not counted twice.
    samp, div = tracer.outermost("sampling", "measure"), rounds
    if not samp:
        samp, div = tracer.outermost("sampling", "setup"), setups
    busy = sum(_dur(s) for s in samp)
    sets = sum(s["attrs"].get("sets", 0) for s in samp)
    entries = sum(s["attrs"].get("entries", 0) for s in samp)
    out["sampling.busy_s"] = busy / div
    out["sampling.sets"] = sets / div
    out["sampling.entries"] = entries / div
    out["sampling.sets_per_s"] = sets / busy if busy else 0.0
    out["sampling.entries_per_s"] = entries / busy if busy else 0.0

    solves = spans("EfficientIMM.run", phase="measure")
    levels = []
    for run in solves:
        calls = [
            s for s in measured
            if s["name"] == "efficient_select" and any(a is run for a in tracer.ancestors(s))
        ]
        levels.append(max(len(calls) - 1, 0))
    out["imm.levels"] = _med(levels)
    out["imm.theta"] = _med(s["attrs"]["theta"] for s in solves)
    out["imm.sets_per_theta"] = _med(
        s["attrs"]["num_rrrsets"] / s["attrs"]["theta"] for s in solves if s["attrs"].get("theta")
    )
    out["imm.capped"] = _med(s["attrs"]["capped"] for s in solves)

    sel = tracer.outermost("selection", "measure")
    out["selection.busy_s"] = sum(_dur(s) for s in sel) / rounds
    out["selection.calls"] = len(sel) / rounds
    out["selection.rounds"] = sum(s["attrs"].get("rounds", 0) for s in sel) / rounds
    out["selection.entries_per_call"] = _med(s["attrs"].get("entries", 0) for s in sel)

    # The served sketch, or else the store of the last sampler extend (IMM).
    grown = [s for s in samp if "store_bytes" in s["attrs"]]
    last = max(grown, key=lambda s: s["end"])["attrs"] if grown else {}
    out["sketch.bytes"] = float(facts.get("sketch_bytes", last.get("store_bytes", 0)))
    out["sketch.entries"] = float(facts.get("sketch_entries", last.get("store_entries", 0)))
    out["sketch.index_s"] = sum(_dur(s) for s in tracer.outermost("sketch", "measure")) / rounds

    commits = spans("DynamicService.commit", phase="measure")
    repairs = spans("IncrementalMaintainer.apply", phase="measure")
    out["dynamic.delta_commit_s"] = _med(_dur(s) for s in spans("DeltaGraph.commit", phase="measure"))
    out["dynamic.compact_s"] = (
        sum(_dur(s) for s in spans("DeltaGraph.compact", phase="measure")) / len(commits)
        if commits else 0.0
    )
    out["dynamic.repair_s"] = _med(_dur(s) for s in repairs)
    publish = []
    for c in commits:
        inner = sum(
            _dur(s) for s in measured
            if s["parent"] == c["id"] and s["name"] in ("DeltaGraph.commit", "IncrementalMaintainer.apply")
        )
        publish.append(_dur(c) - inner)
    out["dynamic.publish_s"] = _med(publish)
    out["dynamic.sets_resampled"] = _med(s["attrs"]["resampled"] for s in repairs)
    out["dynamic.sets_extended"] = _med(s["attrs"]["extended"] for s in repairs)
    out["dynamic.invalidated_frac"] = _med(s["attrs"]["invalidated_frac"] for s in repairs)

    execs = spans("QueryEngine.execute", phase="measure")
    out["service.execute_s"] = _med(_dur(s) for s in execs)
    exec_busy = sum(_dur(s) for s in execs)
    sel_in_exec = tracer.busy("selection", under="QueryEngine.execute", phase="measure")
    out["service.selection_frac"] = sel_in_exec / exec_busy if exec_busy else 0.0
    out["service.warm_s"] = _med(_dur(s) for s in spans("QueryEngine.warm", phase="measure"))
    out["service.cache_hits"] = facts.get("cache_hits", 0) / rounds
    out["service.cache_misses"] = facts.get("cache_misses", 0) / rounds

    routes = spans("Router.execute", phase="measure")
    route_busy = sum(_dur(s) for s in routes)
    worker_busy = sum(
        _dur(s) for s in measured
        if s["name"] in WORKER_CALLS and any(a["name"] == "Router.execute" for a in tracer.ancestors(s))
    )
    out["shard.route_s"] = _med(_dur(s) for s in routes)
    out["shard.worker_s"] = worker_busy / len(routes) if routes else 0.0
    out["shard.scatter_calls"] = facts.get("scatter_calls", 0) / rounds
    out["shard.router_overhead_frac"] = 1.0 - worker_busy / route_busy if route_busy else 0.0
    out["shard.partition_s"] = _med(_dur(s) for s in spans("ShardPlan.partition_store"))
    out["shard.publish_s"] = _med(_dur(s) for s in spans("ShardCluster.publish"))

    out["gateway.batches"] = facts.get("gateway_batches", 0) / rounds
    out["gateway.queries_per_batch"] = (
        facts["gateway_accepted"] / facts["gateway_batches"] if facts.get("gateway_batches") else 0.0
    )
    waits, overheads = _gateway_split(spans("ShardCluster.execute", phase="measure"), facts.get("reads", []))
    out["gateway.queue_wait_ms"] = _med(waits) * 1e3
    out["gateway.overhead_ms"] = _med(overheads) * 1e3

    # The tracer's time inside the measured phase, clocked per span, over
    # the time the same work takes without it.
    own = sum(s["own"] for s in measured) + len(measured) * facts.get("unclocked_s", 0.0)
    wall = facts.get("measured_s", 0.0)
    out["trace.overhead_frac"] = own / (wall - own) if wall > own else 0.0
    return out


def _gateway_split(engine_spans: list[dict], reads: list[tuple[str, float, float]]):
    """Per read: wait from send to engine start, and latency minus engine time."""
    by_rid: dict[str, dict] = {}
    for s in engine_spans:
        for rid in s["attrs"].get("rids", []):
            by_rid[rid] = s
    waits, overheads = [], []
    for rid, sent, done in reads:
        s = by_rid.get(rid)
        if s is None:
            continue
        waits.append(s["start"] - sent)
        overheads.append((done - sent) - _dur(s))
    return waits, overheads
