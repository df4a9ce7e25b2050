"""The batched Algorithm 1 objective against the one-state reference loop.

:func:`repro.core.distance.candidate_distances` scores K candidates ×
``num_trajectories`` rollouts as one array; :mod:`repro.reference` keeps the
per-state loop it replaced.  Both read the same generator, so with the same
seed they must see the same initial states and disturbances: scores agree to
1e-9 relative and the generator ends in the same state.
"""

import numpy as np
import pytest

from repro import reference
from repro.baselines import make_lqr_policy
from repro.certificates.regions import Box, UnionRegion
from repro.core import (
    CEGISConfig,
    CEGISLoop,
    DistanceConfig,
    ProgramSynthesizer,
    SynthesisConfig,
    VerificationConfig,
    program_oracle_distance,
    trajectory_distance,
)
from repro.core.distance import candidate_distances
from repro.core.synthesis import ALGORITHM1_ENGINE, regression_warm_start
from repro.envs import make_environment
from repro.lang import AffineProgram, AffineSketch, PolynomialSketch
from repro.lang.sketch import ProgramSketch
from repro.rl.networks import MLP
from repro.rl.policies import NeuralPolicy
from repro.runtime.adaptation import widened_environment
from repro.store import ShieldStore, SynthesisService
from repro.store import service as service_module

REL = 1e-9


def _oracle(env):
    network = MLP(env.state_dim, (16, 16), env.action_dim, output_scale=np.ones(env.action_dim))
    return NeuralPolicy(network=network)


def _sketch(kind, env):
    if kind == "affine":
        return AffineSketch(env.state_dim, env.action_dim)
    if kind == "affine_bias":
        return AffineSketch(
            env.state_dim,
            env.action_dim,
            include_bias=True,
            action_low=env.action_low,
            action_high=env.action_high,
        )
    return PolynomialSketch(env.state_dim, env.action_dim, degree=2)


def _reference_scores(env, sketch, thetas, oracle, rng, config, init_region=None):
    return np.array(
        [
            reference.program_oracle_distance(
                env, sketch.instantiate(theta), oracle, rng, config, init_region=init_region
            )
            for theta in thetas
        ]
    )


def _assert_matches_reference(env, sketch, thetas, oracle, config, seed=7, init_region=None):
    batched_rng = np.random.default_rng(seed)
    reference_rng = np.random.default_rng(seed)
    batched = candidate_distances(
        env, sketch, thetas, oracle, batched_rng, config, init_region=init_region
    )
    expected = _reference_scores(
        env, sketch, thetas, oracle, reference_rng, config, init_region=init_region
    )
    np.testing.assert_allclose(batched, expected, rtol=REL, atol=0.0)
    assert batched_rng.bit_generator.state == reference_rng.bit_generator.state
    return batched


class TestBatchedObjective:
    @pytest.mark.parametrize("env_name", ["pendulum", "datacenter"])
    @pytest.mark.parametrize("kind", ["affine", "affine_bias", "polynomial"])
    @pytest.mark.parametrize("norm", ["l1", "l2"])
    @pytest.mark.parametrize("disturbed", [False, True])
    def test_matches_reference(self, env_name, kind, norm, disturbed):
        env = make_environment(env_name)
        if disturbed:
            env = widened_environment(env, 0.5 * np.ones(env.state_dim))
        sketch = _sketch(kind, env)
        rng = np.random.default_rng(3)
        # A spread of candidates: some track the oracle, some diverge and
        # collect the unsafe penalty.
        thetas = rng.normal(scale=2.0, size=(5, sketch.num_parameters))
        config = DistanceConfig(num_trajectories=3, trajectory_length=40, norm=norm)
        _assert_matches_reference(env, sketch, thetas, _oracle(env), config)

    def test_unsafe_rows_take_the_penalty(self):
        env = make_environment("pendulum")
        sketch = _sketch("affine", env)
        # Positive feedback on the unstable pendulum leaves the safe box fast.
        thetas = np.array([[0.0, 0.0], [40.0, 40.0]])
        config = DistanceConfig(num_trajectories=2, trajectory_length=60, unsafe_penalty=777.0)
        scores = _assert_matches_reference(env, sketch, thetas, _oracle(env), config)
        assert scores[1] < -777.0 * 10
        assert scores[0] > scores[1]

    def test_oracle_without_act_batch(self):
        env = widened_environment(make_environment("datacenter"), 0.2 * np.ones(3))
        network = _oracle(env).network

        def oracle(state):
            return network(np.asarray(state, dtype=float))

        assert not hasattr(oracle, "act_batch")
        sketch = _sketch("affine_bias", env)
        thetas = np.random.default_rng(1).normal(size=(4, sketch.num_parameters))
        config = DistanceConfig(num_trajectories=2, trajectory_length=30, norm="l1")
        _assert_matches_reference(env, sketch, thetas, oracle, config)

    def test_generic_sketch_groups_rows_by_candidate(self):
        env = make_environment("pendulum")

        class PlainAffine(ProgramSketch):
            """An affine sketch that only provides ``instantiate``."""

            state_dim, action_dim = env.state_dim, env.action_dim
            num_parameters = env.state_dim

            def instantiate(self, theta):
                return AffineProgram(gain=np.reshape(theta, (1, -1)))

        thetas = np.random.default_rng(2).normal(scale=3.0, size=(4, env.state_dim))
        config = DistanceConfig(num_trajectories=3, trajectory_length=25)
        generic = _assert_matches_reference(env, PlainAffine(), thetas, _oracle(env), config)
        vectorised = candidate_distances(
            env, _sketch("affine", env), thetas, _oracle(env), np.random.default_rng(7), config
        )
        np.testing.assert_allclose(generic, vectorised, rtol=REL, atol=0.0)

    def test_shrunk_init_region(self):
        env = make_environment("pendulum")
        region = env.init_region.shrink_around(env.init_region.high, 0.1)
        sketch = _sketch("polynomial", env)
        thetas = np.random.default_rng(4).normal(size=(3, sketch.num_parameters))
        config = DistanceConfig(num_trajectories=2, trajectory_length=30)
        _assert_matches_reference(env, sketch, thetas, _oracle(env), config, init_region=region)

    def test_other_samplers_draw_row_by_row(self):
        """A non-box initial region and an overridden disturbance sampler are
        drawn through their own methods, still in the reference's order."""
        env = widened_environment(make_environment("pendulum"), np.array([0.2, 0.2]))

        def gaussian_disturbance(self, rng):
            return rng.normal(0.0, self.disturbance_bound)

        env.__class__ = type(
            "GaussianPendulum", (type(env),), {"sample_disturbance": gaussian_disturbance}
        )
        low, high = np.asarray(env.init_region.low), np.asarray(env.init_region.high)
        region = UnionRegion([Box(tuple(low), tuple(0.5 * (low + high))), env.init_region])
        sketch = _sketch("affine_bias", env)
        thetas = np.random.default_rng(6).normal(size=(3, sketch.num_parameters))
        config = DistanceConfig(num_trajectories=2, trajectory_length=25)
        _assert_matches_reference(env, sketch, thetas, _oracle(env), config, init_region=region)

    def test_program_oracle_distance_is_one_candidate(self):
        env = widened_environment(make_environment("pendulum"), np.array([0.1, 0.1]))
        oracle = _oracle(env)
        program = AffineProgram(gain=np.array([[-3.0, -1.0]]))
        config = DistanceConfig(num_trajectories=3, trajectory_length=50)
        rngs = [np.random.default_rng(9) for _ in range(2)]
        value = program_oracle_distance(env, program, oracle, rngs[0], config)
        expected = reference.program_oracle_distance(env, program, oracle, rngs[1], config)
        assert value == pytest.approx(expected, rel=REL, abs=0.0)
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    def test_trajectory_distance_matches_reference(self):
        env = make_environment("pendulum")
        oracle = _oracle(env)
        program = AffineProgram(gain=np.array([[-2.0, -0.5]]))
        trajectory = env.simulate(program, steps=20, rng=np.random.default_rng(0))
        trajectory.states[7] = np.asarray(env.safe_box.high) * 2.0
        config = DistanceConfig(unsafe_penalty=55.0, norm="l1")
        value = trajectory_distance(env, trajectory, program, oracle, config)
        expected = reference.trajectory_distance(env, trajectory, program, oracle, config)
        assert value == pytest.approx(expected, rel=REL, abs=0.0)
        assert value <= -55.0


def _reference_synthesize(env, oracle, sketch, config):
    """Algorithm 1 as it was written before batching: one objective call per
    candidate, plus before minus, scored by the one-state reference loop."""
    rng = np.random.default_rng(config.seed)
    theta = regression_warm_start(env, oracle, sketch, rng, config.warm_start_samples)
    for _ in range(config.iterations):
        deltas = rng.normal(size=(config.directions, theta.size))
        plus, minus = np.zeros(config.directions), np.zeros(config.directions)
        for index in range(config.directions):
            for scores, sign in ((plus, 1.0), (minus, -1.0)):
                scores[index] = reference.program_oracle_distance(
                    env,
                    sketch.instantiate(theta + sign * config.noise_scale * deltas[index]),
                    oracle,
                    rng,
                    config.distance,
                )
        sigma = max(float(np.std(np.concatenate([plus, minus]))), 1e-8)
        update = np.einsum("i,ij->j", plus - minus, deltas)
        theta = theta + config.learning_rate / (config.directions * sigma) * update
        reference.program_oracle_distance(
            env, sketch.instantiate(theta), oracle, rng, config.distance
        )
    return theta, rng


class TestBatchedSynthesizer:
    CONFIG = SynthesisConfig(
        iterations=4,
        directions=3,
        convergence_window=100,
        distance=DistanceConfig(num_trajectories=2, trajectory_length=30),
        seed=5,
    )

    def test_same_seed_gives_bit_identical_parameters(self):
        env = make_environment("pendulum")
        oracle = _oracle(env)
        sketch = _sketch("affine", env)
        first = ProgramSynthesizer(env, oracle, sketch, self.CONFIG).synthesize()
        second = ProgramSynthesizer(env, oracle, sketch, self.CONFIG).synthesize()
        assert np.array_equal(first.parameters, second.parameters)
        assert first.objective_history == second.objective_history

    @pytest.mark.parametrize("disturbed", [False, True])
    def test_tracks_the_one_state_algorithm(self, disturbed):
        env = make_environment("pendulum")
        if disturbed:
            env = widened_environment(env, np.array([0.3, 0.3]))
        oracle = _oracle(env)
        sketch = _sketch("affine_bias", env)
        synthesizer = ProgramSynthesizer(env, oracle, sketch, self.CONFIG)
        result = synthesizer.synthesize()
        expected, reference_rng = _reference_synthesize(env, oracle, sketch, self.CONFIG)
        # Same draws in the same order (plus/minus pairs, then the history
        # point); only float reassociation separates the two parameter paths.
        assert synthesizer._rng.bit_generator.state == reference_rng.bit_generator.state
        np.testing.assert_allclose(result.parameters, expected, rtol=1e-7, atol=1e-9)


class TestReportedSynthesisTime:
    def test_synthesis_seconds_is_the_measured_total(self):
        env = make_environment("satellite")
        # Three times the LQR gain: the first candidate fails verification on
        # the full initial region, the shrunk region's candidate is accepted.
        oracle = AffineProgram(gain=3.0 * make_lqr_policy(env).gain)
        config = CEGISConfig(
            synthesis=SynthesisConfig(
                iterations=2,
                learning_rate=0.0,
                distance=DistanceConfig(num_trajectories=1, trajectory_length=20),
            ),
            verification=VerificationConfig(backend="lyapunov"),
            max_counterexamples=3,
            max_shrink_iterations=4,
        )
        result = CEGISLoop(env, oracle, config=config).run()
        assert result.branches
        assert max(branch.shrink_iterations for branch in result.branches) >= 2
        assert result.synthesis_seconds == result.total_seconds
        assert result.synthesis_seconds >= result.accepted_branch_seconds > 0.0


class TestEngineReuseKey:
    CONFIG = CEGISConfig(
        synthesis=SynthesisConfig(
            iterations=2, distance=DistanceConfig(num_trajectories=1, trajectory_length=20)
        ),
        verification=VerificationConfig(backend="lyapunov"),
        max_counterexamples=2,
    )

    def test_store_serves_only_the_same_engine(self, tmp_path, monkeypatch):
        env = make_environment("satellite")
        oracle = make_lqr_policy(env)
        service = SynthesisService(store=ShieldStore(tmp_path / "store"))
        first = service.synthesize(env, oracle, config=self.CONFIG)
        assert first.artifact.metadata["algorithm1_engine"] == ALGORITHM1_ENGINE
        assert service.synthesize(env, oracle, config=self.CONFIG).from_store
        # A shield stored by another Algorithm 1 engine is not this engine's output.
        monkeypatch.setattr(service_module, "ALGORITHM1_ENGINE", "another-engine")
        assert not service.synthesize(env, oracle, config=self.CONFIG).from_store
