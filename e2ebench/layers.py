"""Which library names the traced run wraps, and the per-layer metrics.

Every wrapped name is the one its caller resolves at call time: module
globals such as ``repro.core.cegis.verify_program`` (imported by name into
the CEGIS module) and ``repro.certificates.barrier.linprog``, methods on the
classes whose instances the library creates, and the registered backend
instances themselves.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

import repro.analysis as analysis_package
import repro.compile as compile_package
from repro.certificates import backend as backend_module
from repro.certificates import barrier, farkas
from repro.certificates.smt import BranchAndBoundVerifier
from repro.compile import cache as kernel_cache
from repro.core import cegis, distance, synthesis
from repro.core.replay import CounterexampleCache
from repro.rl import training
from repro.runtime import adaptation
from repro.runtime.batched import BatchedCampaign
from repro.runtime.monitored import MonitoredBatchedCampaign
from repro.shard import fleet
from repro.store import service as service_module
from repro.store.store import ShieldStore
from repro.store.verdicts import VerdictCache

BACKENDS = ("lyapunov", "sos", "barrier", "farkas")


def _counter(name, value):
    def on_result(tracer, result, args, kwargs):
        tracer.count(name, value(result, args, kwargs))

    return on_result


def _cegis_result(tracer, result, args, kwargs):
    tracer.count("cegis.branches", len(result.branches))
    tracer.count("cegis.reported_s", result.synthesis_seconds)


def _pool_result(tracer, result, args, kwargs):
    if kwargs.get("workers", 1) > 1:
        stats = result.stats
        tracer.count("shard.wall_s", result.elapsed)
        tracer.count("shard.busy_s", sum(stats["shard_seconds"]))
        tracer.count("shard.retries", sum(stats["shard_executions"]) - stats["shards"])


def _count_kernel_lookups(tracer):
    """Kernel-cache hits/misses from now on, across cache clears (a clear
    resets the cache's own counters, so they are banked first)."""
    cache = kernel_cache.KERNEL_CACHE
    base = dict(kernel_cache.kernel_cache_stats())
    clear = kernel_cache.clear_kernel_cache

    def bank() -> None:
        for name in ("hits", "misses"):
            tracer.count(f"compile.kernel_{name}", getattr(cache, name) - base[name])
            base[name] = getattr(cache, name)

    def clear_and_bank() -> None:
        bank()
        clear()
        base.update(hits=0, misses=0)

    tracer.patch(kernel_cache, "clear_kernel_cache", clear_and_bank)
    return bank


def install(tracer):
    """Wrap every layer boundary of the library; returns a callable that
    settles the kernel-cache counters before :func:`layer_metrics`."""
    settle = _count_kernel_lookups(tracer)
    w = tracer.wrap
    w(training, "train_oracle", "rl.train")
    w(cegis.CEGISLoop, "run", "cegis", _cegis_result)
    w(synthesis.ProgramSynthesizer, "synthesize", "synthesis")
    w(synthesis, "program_oracle_distance", "synthesis.distance")
    w(
        distance,
        "trajectory_distance",
        "synthesis.score",
        _counter("synthesis.rollout_steps", lambda r, a, k: len(a[1].actions)),
    )
    w(cegis, "statically_refuted", "cegis.refute",
      _counter("cegis.pruned", lambda r, a, k: r is not None))
    w(CounterexampleCache, "replay", "cegis.replay",
      _counter("cegis.replay_hits", lambda r, a, k: r is not None))
    w(CounterexampleCache, "probe", "cegis.probe")
    w(BranchAndBoundVerifier, "find_uncovered_point", "cegis.cover")
    verified = _counter("verify.verified", lambda r, a, k: bool(r.verified))
    w(cegis, "verify_program", "verify", verified)
    w(adaptation, "verify_program", "verify", verified)
    for backend in backend_module.available_backends():
        w(backend, "verify", f"verify.{backend.name}")
    w(barrier, "linprog", "lp")
    w(farkas, "linprog", "lp")
    boxes = _counter("bnb.boxes", lambda r, a, k: r.boxes_explored)
    w(BranchAndBoundVerifier, "prove_nonpositive", "bnb", boxes)
    w(BranchAndBoundVerifier, "prove_positive", "bnb", boxes)
    w(ShieldStore, "put", "store.put")
    w(VerdictCache, "put", "verdicts.put")
    w(analysis_package, "analyze_artifact", "analysis.lint")
    w(service_module, "warm_kernel_cache", "compile.warm")
    w(kernel_cache, "warm_kernel_cache", "compile.warm")
    w(compile_package, "compile_stepper", "compile.stepper")
    w(BatchedCampaign, "run_arrays", "runtime.campaign",
      _counter("runtime.interventions", lambda r, a, k: int(np.sum(r[2]))))
    w(MonitoredBatchedCampaign, "run_arrays", "runtime.monitored",
      _counter("runtime.interventions", lambda r, a, k: int(np.sum(r[0]))))
    w(fleet, "run_sharded_campaign", "shard.campaign", _pool_result)
    w(fleet, "monitor_fleet_sharded", "shard.monitor")
    return settle


#: Every per-layer metric with its unit, in report order.
METRICS: Tuple[Tuple[str, str], ...] = (
    ("rl.train_s", "s"),
    ("synthesis.s", "s"),
    ("synthesis.distance_s", "s"),
    ("synthesis.distance_calls", "count"),
    ("synthesis.rollout_steps", "count"),
    ("cegis.s", "s"),
    ("cegis.reported_s", "s"),
    ("cegis.attributed_frac", "ratio"),
    ("cegis.cover_s", "s"),
    ("cegis.cover_calls", "count"),
    ("cegis.replay_s", "s"),
    ("cegis.replay_hits", "count"),
    ("cegis.probe_s", "s"),
    ("cegis.refute_s", "s"),
    ("cegis.pruned", "count"),
    ("cegis.candidates", "count"),
    ("cegis.branches", "count"),
    ("cegis.accept_ratio", "ratio"),
    ("verify.s", "s"),
    ("verify.calls", "count"),
    ("verify.verified", "count"),
    *((f"verify.{name}_s", "s") for name in BACKENDS),
    ("lp.s", "s"),
    ("lp.calls", "count"),
    ("bnb.s", "s"),
    ("bnb.calls", "count"),
    ("bnb.boxes", "count"),
    ("store.put_s", "s"),
    ("verdicts.put_s", "s"),
    ("verdicts.puts", "count"),
    ("analysis.lint_s", "s"),
    ("compile.build_s", "s"),
    ("compile.kernel_hits", "count"),
    ("compile.kernel_misses", "count"),
    ("runtime.campaign_s", "s"),
    ("runtime.monitored_s", "s"),
    ("runtime.interventions", "count"),
    ("shard.wall_s", "s"),
    ("shard.busy_s", "s"),
    ("shard.retries", "count"),
    ("fleet.decisions_per_s", "1/s"),
    ("pool.decisions_per_s", "1/s"),
    ("monitor.decisions_per_s", "1/s"),
    ("trace.overhead_s", "s"),
    ("failed_frac", "ratio"),
)


def layer_metrics(tracer) -> Dict[str, float]:
    """Per-layer values of the traced unit (without the trace/result rows)."""
    total, count = tracer.total, tracer.counters
    cegis_s = total("cegis")
    candidates = count["synthesis.calls"]
    values = {
        "rl.train_s": total("rl.train"),
        "synthesis.s": total("synthesis"),
        "synthesis.distance_s": total("synthesis.distance"),
        "synthesis.distance_calls": count["synthesis.distance.calls"],
        "synthesis.rollout_steps": count["synthesis.rollout_steps"],
        "cegis.s": cegis_s,
        "cegis.reported_s": count["cegis.reported_s"],
        "cegis.attributed_frac": tracer.attributed("cegis") / cegis_s if cegis_s else 0.0,
        "cegis.cover_s": total("cegis.cover"),
        "cegis.cover_calls": count["cegis.cover.calls"],
        "cegis.replay_s": total("cegis.replay"),
        "cegis.replay_hits": count["cegis.replay_hits"],
        "cegis.probe_s": total("cegis.probe"),
        "cegis.refute_s": total("cegis.refute"),
        "cegis.pruned": count["cegis.pruned"],
        "cegis.candidates": candidates,
        "cegis.branches": count["cegis.branches"],
        "cegis.accept_ratio": count["cegis.branches"] / candidates if candidates else 0.0,
        "verify.s": total("verify"),
        "verify.calls": count["verify.calls"],
        "verify.verified": count["verify.verified"],
        "lp.s": total("lp"),
        "lp.calls": count["lp.calls"],
        "bnb.s": total("bnb"),
        "bnb.calls": count["bnb.calls"],
        "bnb.boxes": count["bnb.boxes"],
        "store.put_s": total("store.put"),
        "verdicts.put_s": total("verdicts.put"),
        "verdicts.puts": count["verdicts.put.calls"],
        "analysis.lint_s": total("analysis.lint"),
        "compile.build_s": total("compile.warm") + total("compile.stepper"),
        "compile.kernel_hits": count["compile.kernel_hits"],
        "compile.kernel_misses": count["compile.kernel_misses"],
        "runtime.campaign_s": total("runtime.campaign"),
        "runtime.monitored_s": total("runtime.monitored"),
        "runtime.interventions": count["runtime.interventions"],
        "shard.wall_s": count["shard.wall_s"],
        "shard.busy_s": count["shard.busy_s"],
        "shard.retries": count["shard.retries"],
    }
    for name in BACKENDS:
        values[f"verify.{name}_s"] = total(f"verify.{name}")
    return values
