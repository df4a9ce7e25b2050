"""Differential tests: a certificate recheck gives the same verdicts and the
same verdict-cache counters for every worker count.

``recheck_certificate`` proves the branch queries the verdict cache cannot
answer on forked workers and files their verdicts in the parent, in branch
order.  Pinned here on the six-branch pendulum shield the end-to-end
benchmark re-verifies (read in place, at the nominal bound):

* ``workers=1``, ``workers=None`` (one per CPU) and ``workers=2`` give equal
  verdicts, backends, margins, counterexamples and invariants per branch;
* a warm in-memory cache answers a second recheck without forking, and its
  hits/misses/puts equal an in-process run's;
* a single-branch shield and a single cache miss run in-process;
* outcomes come back in branch order even when a later branch finishes first.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

import pytest

import repro.faults.executor as executor_module
import repro.runtime.adaptation as adaptation
from repro.envs import get_benchmark, make_environment
from repro.experiments import ExperimentScale
from repro.faults.scenarios import _recheck_query, verdict_signature
from repro.lang.serialize import artifact_from_dict_checked
from repro.runtime import recheck_certificate
from repro.store import ShieldStore, VerdictCache, branch_regions

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "e2ebench" / "fixture" / "pendulum_shield.json"
CORPUS_STORE = ROOT / "tests" / "data" / "counterexamples" / "store"


def _signatures(outcomes):
    return [verdict_signature(outcome) for outcome in outcomes]


def _no_fork(*args, **kwargs):
    raise AssertionError("the recheck forked a worker pool")


@pytest.fixture(scope="module")
def pendulum():
    """The pinned pendulum shield, its regions, and the smoke-scale verification
    config ``repro synthesize pendulum`` would use."""
    artifact = artifact_from_dict_checked(json.loads(FIXTURE.read_text()), origin=str(FIXTURE))
    spec = get_benchmark("pendulum")
    config = ExperimentScale.smoke().cegis_config(
        backend=spec.certificate_backend, invariant_degree=spec.invariant_degree
    )
    return spec.make(), artifact.program, branch_regions(artifact), config.verification


@pytest.fixture(scope="module")
def rechecks(pendulum):
    """One recheck per worker count; the 1- and 2-worker runs fill their own
    in-memory verdict caches."""
    env, program, regions, verification = pendulum
    runs = {}
    for workers in (1, None, 2):
        cache = VerdictCache() if workers is not None else None
        ok, outcomes = recheck_certificate(
            env, program, verification=verification, verdict_cache=cache,
            regions=regions, workers=workers,
        )
        runs[workers] = (ok, outcomes, cache)
    return runs


class TestWorkerCountInvariance:
    def test_verdicts_identical_for_every_worker_count(self, pendulum, rechecks):
        _env, program, _regions, _verification = pendulum
        reference = _signatures(rechecks[1][1])
        assert len(reference) == len(program.branches) > 1
        assert rechecks[1][0] and all(signature[0] for signature in reference)
        for workers in (None, 2):
            assert rechecks[workers][0] == rechecks[1][0]
            assert _signatures(rechecks[workers][1]) == reference

    def test_fresh_verdicts_are_filed_by_the_parent(self, rechecks):
        inline_cache, forked_cache = rechecks[1][2], rechecks[2][2]
        assert forked_cache.stats() == inline_cache.stats()
        assert forked_cache.stats()["puts"] == len(rechecks[2][1])
        assert len(forked_cache) == len(inline_cache)
        assert [o.cache_key for o in rechecks[2][1]] == [o.cache_key for o in rechecks[1][1]]
        assert all(o.cache_key and not o.from_cache for o in rechecks[2][1])

    def test_warm_cache_recheck_forks_nothing(self, pendulum, rechecks, monkeypatch):
        env, program, regions, verification = pendulum
        inline_cache, forked_cache = rechecks[1][2], rechecks[2][2]
        _, inline = recheck_certificate(
            env, program, verification=verification, verdict_cache=inline_cache,
            regions=regions, workers=1,
        )
        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", _no_fork)
        before = forked_cache.stats()
        ok, warm = recheck_certificate(
            env, program, verification=verification, verdict_cache=forked_cache,
            regions=regions, workers=2,
        )
        assert forked_cache.hits - before["hits"] == len(program.branches)
        assert forked_cache.stats() == inline_cache.stats()
        assert ok and all(outcome.from_cache for outcome in warm)
        assert _signatures(warm) == _signatures(inline) == _signatures(rechecks[1][1])


class TestInlineFallbacks:
    def test_single_branch_shield_runs_inline(self, monkeypatch):
        store = ShieldStore(CORPUS_STORE)
        artifact = store.get(store.list()[0].key)
        env = make_environment(artifact.environment, **artifact.environment_overrides)
        assert len(artifact.program.branches) == 1
        _, reference = recheck_certificate(env, artifact.program, workers=1)
        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", _no_fork)
        ok, outcomes = recheck_certificate(env, artifact.program, workers=2)
        assert ok and _signatures(outcomes) == _signatures(reference)

    def test_a_single_cache_miss_runs_inline(self, monkeypatch):
        env, program, verification = _recheck_query()
        cache = VerdictCache()
        head = replace(program, branches=program.branches[:-1])
        recheck_certificate(env, head, verification=verification, verdict_cache=cache)
        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", _no_fork)
        _, outcomes = recheck_certificate(
            env, program, verification=verification, verdict_cache=cache, workers=2
        )
        assert [outcome.from_cache for outcome in outcomes].count(False) == 1

    def test_repeated_branch_is_served_by_the_first_ones_verdict(self):
        env, program, verification = _recheck_query()
        doubled = replace(program, branches=list(program.branches) * 2)
        counters = []
        for workers in (1, 2):
            cache = VerdictCache()
            _, outcomes = recheck_certificate(
                env, doubled, verification=verification, verdict_cache=cache, workers=workers
            )
            counters.append((cache.stats(), _signatures(outcomes)))
        assert counters[0] == counters[1]
        assert counters[0][0]["hits"] == len(program.branches)


def test_outcomes_come_back_in_branch_order(monkeypatch):
    """Branch 0 is slowed down so branch 1 finishes first; each outcome is
    stamped with its finish time to prove it."""
    env, program, verification = _recheck_query()
    _, reference = recheck_certificate(env, program, verification=verification, workers=1)
    slow = program.branches[0][1]
    prove = adaptation.verify_program

    def stamped(env, branch_program, **kwargs):
        if branch_program is slow:
            time.sleep(0.5)
        return replace(prove(env, branch_program, **kwargs), wall_clock_seconds=time.time())

    monkeypatch.setattr(adaptation, "verify_program", stamped)
    _, outcomes = recheck_certificate(env, program, verification=verification, workers=2)
    assert outcomes[1].wall_clock_seconds < outcomes[0].wall_clock_seconds
    assert _signatures(outcomes) == _signatures(reference)
