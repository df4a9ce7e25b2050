"""The benchmark's workloads: the paper's loop from oracle to deployed shield.

Each workload has a repeatable ``setup`` (not timed as the result), a
``run`` that performs one unit of the user-facing operation (timed by the
benchmark's own clock), ``check`` with its correctness gates, and a
``signature`` that must be identical for traced and untraced units.

The library is called through module attributes (``training.train_oracle``,
``adaptation.recheck_certificate``, ...) so that the traced run's wrappers
see the same calls an application would make.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List

import numpy as np

from repro.certificates import audit
from repro.compile import cache as kernel_cache
from repro.envs import get_benchmark, make_disturbance
from repro.experiments import ExperimentScale
from repro.lang.serialize import invariant_union_to_dict, program_fingerprint
from repro.rl import training
from repro.rl.networks import MLP
from repro.rl.policies import NeuralPolicy
from repro.runtime import adaptation
from repro.shard import fleet
from repro.store import ShieldStore, branch_regions
from repro.store import service as service_module

import fixture

ENV_NAME = "pendulum"


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def pendulum_setting():
    """Registry spec, smoke scale and the CEGIS config the CLI would build."""
    spec = get_benchmark(ENV_NAME)
    scale = ExperimentScale.smoke()
    config = scale.cegis_config(
        backend=spec.certificate_backend, invariant_degree=spec.invariant_degree
    )
    return spec, scale, config


def synthesize_pendulum(store_root: str):
    """Train a cloned oracle and synthesize a persisted pendulum shield.

    Everything runs at the smoke scale's own seed.  The synthesis input is
    fixed on purpose: CEGIS work depends strongly on the oracle (5 to 7
    branches and 19 to 25 s across five oracle seeds on a 2-core x86 host),
    which would swamp any change to the code under test.
    """
    spec, scale, config = pendulum_setting()
    env = spec.make()
    oracle = training.train_oracle(
        env, method=scale.oracle_method, hidden_sizes=scale.oracle_hidden, seed=scale.seed
    ).policy
    service = service_module.SynthesisService(store=store_root)
    return service.synthesize(
        env, oracle, config=config, environment=ENV_NAME,
        extra_metadata={"oracle": scale.oracle_method},
    )


@dataclass
class Gate:
    """Outcome of one unit's correctness checks."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def record(self, ok: bool, problem: str) -> None:
        self.add(1, 0 if ok else 1, problem)

    def add(self, attempted: int, failed: int, problem: str) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)
        if failed:
            self.problems.append(problem)


def audit_ok(env, program, invariant) -> bool:
    """Conditions (8) and (10) by the independent audit; (9) is a union
    property of the whole shield and is checked separately."""
    report = audit.audit_invariant(env, program, invariant)
    return report.unsafe_positive and report.inductive


class Workload:
    name = ""

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = int(seed)
        self.scratch = scratch

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> Any:
        raise NotImplementedError

    def check(self, outcome) -> Gate:
        raise NotImplementedError

    def signature(self, outcome) -> Any:
        raise NotImplementedError

    def results(self, outcome) -> Dict[str, float]:
        """Untraced end-to-end readings of one unit beyond its wall time."""
        return {}


# ----------------------------------------------------------------- synthesis
@dataclass
class SynthUnit:
    result: Any  # repro.store.ServiceResult
    store: str


class SynthPendulum(Workload):
    """Oracle training → CEGIS (Algorithm 1 + verification) → persisted shield.

    The seed drives the initial states that check the shield covers S0.
    """

    name = "synth_pendulum"
    #: Initial states drawn to check that the invariant union covers S0.
    cover_samples = 4096

    def setup(self) -> None:
        self.env = get_benchmark(ENV_NAME).make()

    def run(self) -> "SynthUnit":
        store = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        return SynthUnit(synthesize_pendulum(store), store)

    def check(self, unit: "SynthUnit") -> Gate:
        gate = Gate()
        outcome = unit.result
        cegis = outcome.cegis
        gate.record(
            cegis.covered and bool(outcome.key), "shield does not cover S0 or was not stored"
        )
        for index, (invariant, program) in enumerate(outcome.program.branches):
            gate.record(
                audit_ok(self.env, program, invariant),
                f"branch {index} fails audit condition (8) or (10)",
            )
        rng = np.random.default_rng([self.seed, 9])
        states = self.env.init_region.sample(rng, self.cover_samples)
        gate.record(
            bool(np.all(outcome.invariant.holds_batch(states))),
            "invariant union misses sampled initial states",
        )
        stored = ShieldStore(unit.store).get(outcome.key)
        gate.record(
            program_fingerprint(stored.program) == program_fingerprint(outcome.program),
            "stored shield differs from the synthesized one",
        )
        return gate

    def signature(self, unit: "SynthUnit"):
        outcome = unit.result
        cegis = outcome.cegis
        return (
            program_fingerprint(outcome.program),
            repr(invariant_union_to_dict(outcome.invariant)),
            len(cegis.branches),
            cegis.rounds,
            cegis.counterexamples_used,
            cegis.cache_hits,
            cegis.cache_misses,
            cegis.statically_pruned,
        )


# ------------------------------------------------------------------- recheck
class RecheckPendulum(Workload):
    """Re-verify every branch of the pinned shield at the nominal bound and
    at widened disturbance bounds (the ``repro adapt`` recheck path)."""

    name = "recheck_pendulum"
    #: Per-dimension disturbance bounds; ``None`` is the nominal environment.
    bounds = (None, 0.002, 0.01)
    #: Disturbed simulation check of widened True verdicts.
    sim_states = 512
    sim_steps = 60

    def setup(self) -> None:
        self.spec, _scale, self.config = pendulum_setting()
        self.artifact = fixture.load_fixture()
        self.regions = branch_regions(self.artifact)
        self.env = self.spec.make()
        self.envs = [
            self.env
            if bound is None
            else adaptation.widened_environment(self.env, np.full(self.env.state_dim, bound))
            for bound in self.bounds
        ]

    def run(self):
        return [
            adaptation.recheck_certificate(
                env,
                self.artifact.program,
                verification=self.config.verification,
                verdict_cache=None,
                regions=self.regions,
            )[1]
            for env in self.envs
        ]

    def check(self, outcome) -> Gate:
        gate = Gate()
        branches = self.artifact.program.branches
        for bound, env, verdicts in zip(self.bounds, self.envs, outcome):
            for index, ((_, program), verdict) in enumerate(zip(branches, verdicts)):
                if bound is None:
                    # The audit shows every nominal query is safe: all must verify.
                    ok = verdict.verified and audit_ok(env, program, verdict.invariant)
                    problem = "nominal query not verified or fails the audit"
                else:
                    ok = not verdict.verified or self._stays_invariant(
                        env, program, verdict.invariant, index
                    )
                    problem = "disturbed simulation leaves the verified invariant"
                gate.record(ok, f"branch {index} at bound {bound}: {problem}")
        return gate

    def _stays_invariant(self, env, program, invariant, index: int) -> bool:
        """Seeded disturbed rollouts of the verified closed loop, started in
        ``{E <= 0}``, never leave it (condition (10) under the widened bound)."""
        rng = np.random.default_rng([self.seed, 10, index])
        candidates = env.safe_box.sample(rng, 16 * self.sim_states)
        states = candidates[invariant.holds_batch(candidates)][: self.sim_states]
        closed_loop = env.closed_loop_polynomials(program)
        bound = env.disturbance_bound
        tolerance = self.config.verification.verifier_tolerance
        for _ in range(self.sim_steps):
            successor = np.stack([p.evaluate_batch(states) for p in closed_loop], axis=1)
            disturbance = rng.uniform(-bound, bound, size=states.shape)
            states = successor + env.dt * disturbance
            if np.any(invariant.value_batch(states) > tolerance):
                return False
        return len(states) > 0

    def signature(self, outcome):
        return tuple(
            (v.verified, v.backend, v.margin, None if v.counterexample is None else
             tuple(np.asarray(v.counterexample).tolist()))
            for verdicts in outcome
            for v in verdicts
        )


# -------------------------------------------------------------- deployment
@dataclass
class FleetUnit:
    """Per leg (``fleet``, ``pool``, ``monitor``): report, wall time, decisions."""

    reports: Dict[str, Any] = field(default_factory=dict)
    seconds: Dict[str, float] = field(default_factory=dict)
    decisions: Dict[str, int] = field(default_factory=dict)


class DeployFleet(Workload):
    """The pinned shield guarding an untrained MLP: a shielded fleet
    in-process, the same fleet over ``nproc`` fork workers, and a monitored
    fleet under uniform disturbance.  The seed drives the fleets' initial
    states and disturbances."""

    name = "deploy_fleet"
    episodes = 2000
    steps = 250
    disturbance = 0.05
    #: The network is fixed: how often the shield intervenes, and so how much
    #: fallback-program work a decision costs, varies from 2% to 39% of
    #: decisions across network seeds.  This one is overruled on about a third.
    network_seed = 0

    def setup(self) -> None:
        self.artifact = fixture.load_fixture()
        self.env = get_benchmark(ENV_NAME).make()
        network = MLP(
            self.env.state_dim,
            (64, 48),
            self.env.action_dim,
            output_scale=self.env.action_high,
            seed=self.network_seed,
        )
        self.shield = self.artifact.build_shield(self.env, NeuralPolicy(network))
        self.workers = cpu_count()
        kernel_cache.clear_kernel_cache()
        kernel_cache.warm_kernel_cache(
            program=self.artifact.program, invariant=self.artifact.invariant, env=self.env
        )

    def run(self) -> FleetUnit:
        campaign = dict(
            shield=self.shield, episodes=self.episodes, steps=self.steps, seed=self.seed
        )
        model = make_disturbance("uniform", self.env.state_dim, magnitude=self.disturbance)
        legs = {
            "fleet": lambda: fleet.run_sharded_campaign(self.env, workers=1, **campaign),
            "pool": lambda: fleet.run_sharded_campaign(
                self.env, workers=self.workers, **campaign
            ),
            "monitor": lambda: fleet.monitor_fleet_sharded(
                disturbance=model, workers=1, **campaign
            ),
        }
        unit = FleetUnit()
        stats = self.shield.statistics
        for leg, call in legs.items():
            before = stats.decisions
            start = time.perf_counter()
            unit.reports[leg] = call()
            unit.seconds[leg] = time.perf_counter() - start
            unit.decisions[leg] = stats.decisions - before
        # Monitored fleets keep their own counters instead of the shield's.
        unit.decisions["monitor"] = unit.reports["monitor"].decisions
        return unit

    def check(self, outcome: FleetUnit) -> Gate:
        gate = Gate()
        fleet_run, pool_run = outcome.reports["fleet"], outcome.reports["pool"]
        for run in (fleet_run, pool_run):
            bad = (run.unsafe_counts != 0) | (fleet_run.interventions != pool_run.interventions)
            bad |= fleet_run.unsafe_counts != pool_run.unsafe_counts
            gate.add(
                run.episodes,
                np.count_nonzero(bad),
                f"{np.count_nonzero(bad)} episode(s) with unsafe steps or "
                "counters that differ between workers=1 and workers=N",
            )
        gate.record(
            outcome.decisions["fleet"] == outcome.decisions["pool"] > 0,
            "shield decision counters differ between workers=1 and workers=N",
        )
        return gate

    def signature(self, outcome: FleetUnit):
        reports = outcome.reports
        monitor = reports["monitor"].summary()
        return (
            reports["fleet"].interventions.tobytes(),
            reports["fleet"].unsafe_counts.tobytes(),
            reports["pool"].interventions.tobytes(),
            tuple(sorted(outcome.decisions.items())),
            repr({k: v for k, v in monitor.items() if "second" not in k and k != "shard_stats"}),
        )

    def results(self, outcome: FleetUnit) -> Dict[str, float]:
        return {
            f"{leg}.decisions_per_s": outcome.decisions[leg] / outcome.seconds[leg]
            for leg in ("fleet", "pool", "monitor")
        }


WORKLOADS = {w.name: w for w in (SynthPendulum, RecheckPendulum, DeployFleet)}
