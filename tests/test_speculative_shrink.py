"""Differential tests: Algorithm 2's shrink loop verifies its candidates
speculatively on forked workers and still gives the one-at-a-time loop's
results, bit for bit.

``CEGISLoop._synthesize_branch`` synthesizes shrink candidates ahead in the
parent, forks each proof onto a :class:`~repro.faults.ForkQueue` slot (one per
usable CPU), and replays every candidate's side effects in shrink order.
Pinned here with ``usable_cpus`` patched to 1 (the in-process loop), 2 and 3:

* pendulum at the smoke scale ``repro synthesize`` and the end-to-end
  benchmark use, and three satellite / magnetic-pointer runs that reach
  failed proofs and probes, replay hits, and static prunes, give equal
  programs, invariants, counters, verdict-cache counters, verdict-store
  files and global counterexample streams;
* re-synthesis against a warm verdict store forks nothing and counts the
  same hits, misses and puts as an in-process run;
* ``workers=2`` parallel rounds are unchanged and never fork inside a
  forked round slot;
* a slow later slot is killed, not awaited, once an earlier candidate is
  accepted.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import repro.core.replay as replay_module
import repro.faults.executor as executor_module
from repro.baselines import make_lqr_policy
from repro.core import (
    CEGISConfig,
    CEGISLoop,
    DistanceConfig,
    SynthesisConfig,
    VerificationConfig,
)
from repro.envs import get_benchmark, make_environment
from repro.experiments import ExperimentScale
from repro.lang import AffineProgram, program_fingerprint
from repro.lang.serialize import invariant_union_to_dict
from repro.rl import training
from repro.store import VerdictCache

CPU_COUNTS = (1, 2, 3)

FAST = CEGISConfig(
    synthesis=SynthesisConfig(
        iterations=3,
        distance=DistanceConfig(num_trajectories=1, trajectory_length=30),
        seed=0,
    ),
    verification=VerificationConfig(backend="lyapunov"),
    max_counterexamples=4,
    seed=0,
)


@contextmanager
def cpus(count: int):
    with mock.patch.object(executor_module, "usable_cpus", lambda: count):
        yield


@contextmanager
def recorded_stream():
    """Collect the process-wide counterexample stream (still forwarding it to
    any recorder already installed)."""
    stream = []
    previous = replay_module._GLOBAL_RECORDER

    def record(record):
        stream.append((record.kind, record.source, record.state.tolist()))
        if previous is not None:
            previous(record)

    replay_module.install_global_recorder(record)
    try:
        yield stream
    finally:
        replay_module.install_global_recorder(previous)


@contextmanager
def counted_forks():
    """Count the speculative slots this process forks."""
    forks = []
    fork = executor_module.ForkQueue._fork

    def counting(self, slot, entry):
        forks.append(slot)
        return fork(self, slot, entry)

    with mock.patch.object(executor_module.ForkQueue, "_fork", counting):
        yield forks


def _store_files(root: Path):
    return sorted(str(path.relative_to(root)) for path in root.rglob("*.json"))


def digest(env, oracle, config, count: int, verdict_root: Path = None) -> dict:
    """Everything a run says, comparable with ``==``, plus how many
    speculative slots it forked (under ``"forks"``, see :func:`same`)."""
    cache = VerdictCache(verdict_root) if verdict_root is not None else None
    with cpus(count), recorded_stream() as stream, counted_forks() as forks:
        result = CEGISLoop(env, oracle, config=config, verdict_cache=cache).run()
    return {
        "forks": len(forks),
        "covered": result.covered,
        "program": program_fingerprint(result.program) if result.branches else None,
        "invariant": repr(invariant_union_to_dict(result.invariant)) if result.branches else None,
        "shrink_iterations": [branch.shrink_iterations for branch in result.branches],
        "failure_reason": result.failure_reason,
        "counters": (
            result.rounds,
            result.counterexamples_used,
            result.cache_hits,
            result.cache_misses,
            result.cache_records,
            result.statically_pruned,
        ),
        "fault_log": result.fault_log,
        "verdicts": cache.stats() if cache is not None else None,
        "store_files": _store_files(verdict_root) if verdict_root is not None else None,
        "stream": stream,
    }


def same(run, reference) -> bool:
    """Equal in everything but the number of forked slots."""
    return {**run, "forks": 0} == {**reference, "forks": 0}


def _unstable_satellite():
    env = make_environment("satellite")
    return env, AffineProgram(gain=5.0 * np.abs(make_lqr_policy(env).gain))


def _linear_cases():
    """``(env, oracle, config)`` runs that reach every side effect the
    speculative loop replays."""
    magnetic = make_environment("magnetic_pointer")
    satellite, unstable = _unstable_satellite()
    replayed = replace(
        FAST,
        max_counterexamples=1,
        max_shrink_iterations=4,
        synthesis=replace(
            FAST.synthesis, iterations=1, learning_rate=0.0, warm_start_with_regression=True
        ),
    )
    pruned = CEGISConfig(
        seed=8,
        synthesis=SynthesisConfig(iterations=5, warm_start_samples=200),
        replay_prewarm_samples=0,
        max_counterexamples=1,
        max_shrink_iterations=4,
        initial_radius_fraction=0.5,
    )
    return {
        # Four failed proofs (counterexample records, probes), then a proof.
        "failed-proofs": (magnetic, make_lqr_policy(magnetic), FAST),
        # Every candidate is refuted by replaying a prewarmed witness.
        "replay-hits": (satellite, unstable, replayed),
        # A failed proof, two replay hits, then a static refutation.
        "static-prunes": (satellite, unstable, pruned),
    }


# ------------------------------------------------------------ bit-identity
@pytest.fixture(scope="module")
def pendulum():
    """The smoke-scale pendulum setting of ``repro synthesize pendulum``."""
    spec = get_benchmark("pendulum")
    scale = ExperimentScale.smoke()
    config = scale.cegis_config(
        backend=spec.certificate_backend, invariant_degree=spec.invariant_degree
    )
    env = spec.make()
    oracle = training.train_oracle(
        env, method=scale.oracle_method, hidden_sizes=scale.oracle_hidden, seed=scale.seed
    ).policy
    return env, oracle, config


@pytest.fixture(scope="module")
def pendulum_runs(pendulum, tmp_path_factory):
    env, oracle, config = pendulum
    return {
        count: digest(env, oracle, config, count, tmp_path_factory.mktemp(f"verdicts{count}"))
        for count in CPU_COUNTS
    }


class TestBitIdentity:
    def test_pendulum_identical_for_every_cpu_count(self, pendulum_runs):
        reference = pendulum_runs[1]
        assert reference["covered"] and len(reference["shrink_iterations"]) > 1
        assert max(reference["shrink_iterations"]) > 1, "no chain ever rejected a candidate"
        assert reference["verdicts"]["puts"] == len(reference["store_files"]) > 0
        # Condition counterexamples of failed proofs are re-emitted by the parent.
        assert any(source == "verification" for _, source, _ in reference["stream"])
        assert reference["forks"] == 0
        for count in CPU_COUNTS[1:]:
            assert pendulum_runs[count]["forks"] > 0
            assert same(pendulum_runs[count], reference)

    @pytest.mark.parametrize("case", ("failed-proofs", "replay-hits", "static-prunes"))
    def test_linear_runs_identical_for_every_cpu_count(self, case, tmp_path):
        env, oracle, config = _linear_cases()[case]
        runs = [
            digest(env, oracle, config, count, tmp_path / f"verdicts{count}")
            for count in CPU_COUNTS
        ]
        hits, pruned = runs[0]["counters"][2], runs[0]["counters"][5]
        if case == "failed-proofs":
            assert max(runs[0]["shrink_iterations"]) > 1 and runs[0]["stream"]
        elif case == "replay-hits":
            assert hits > 0
        else:
            assert pruned > 0 and hits > 0
        assert runs[0]["forks"] == 0 and runs[1]["forks"] > 0 and runs[2]["forks"] > 0
        assert same(runs[1], runs[0]) and same(runs[2], runs[0])


# ------------------------------------------------------------- warm store
def _no_process(*args, **kwargs):
    raise AssertionError("a worker process was created")


def test_warm_verdict_store_forks_nothing(tmp_path, monkeypatch):
    env, oracle, config = _linear_cases()["failed-proofs"]
    root = tmp_path / "verdicts"
    cold = digest(env, oracle, config, 2, root)
    assert cold["verdicts"]["puts"] == len(cold["store_files"]) > 1
    inline = digest(env, oracle, config, 1, root)
    monkeypatch.setattr(multiprocessing.context.ForkProcess, "_Popen", _no_process)
    warm = digest(env, oracle, config, 2, root)
    assert warm == inline and warm["forks"] == 0
    assert warm["verdicts"]["misses"] == 0 and warm["verdicts"]["hits"] > 1
    assert warm["store_files"] == cold["store_files"]
    for key in ("program", "invariant", "counters", "stream"):
        assert warm[key] == cold[key]


# ------------------------------------------------------ parallel rounds
def test_parallel_rounds_unchanged_and_never_nest_forks(tmp_path, monkeypatch):
    env, oracle, config = _linear_cases()["failed-proofs"]
    config = replace(config, workers=2)
    reference = digest(env, oracle, config, 1)
    parent = os.getpid()
    marker = tmp_path / "nested-fork"
    fork = executor_module.ForkQueue._fork

    def watched(self, slot, entry):
        if os.getpid() != parent:
            marker.write_text(str(os.getpid()))
        return fork(self, slot, entry)

    monkeypatch.setattr(executor_module.ForkQueue, "_fork", watched)
    assert same(digest(env, oracle, config, 2), reference)
    assert not marker.exists(), "a forked round slot forked again"


# ----------------------------------------------------------- cancellation
def test_slow_later_slot_is_killed_once_a_candidate_is_accepted(monkeypatch):
    env = make_environment("satellite")
    oracle = make_lqr_policy(env)
    reference = digest(env, oracle, FAST, 1)
    assert reference["shrink_iterations"] == [1], "the first candidate must be accepted"
    parent = os.getpid()
    prove = CEGISLoop._prove

    def slow_lookahead(self, candidate):
        if os.getpid() != parent and candidate.shrink_iteration > 1:
            time.sleep(30.0)
        return prove(self, candidate)

    monkeypatch.setattr(CEGISLoop, "_prove", slow_lookahead)
    started = time.perf_counter()
    speculative = digest(env, oracle, FAST, 2)
    assert time.perf_counter() - started < 15.0
    assert speculative["forks"] > 1
    assert same(speculative, reference)
    assert multiprocessing.active_children() == []
