"""The imitation-with-safety-penalty objective ``d(π_w, P_θ, C)`` (§2.2 and §4.1).

The synthesis procedure scores a candidate program by how closely its actions
track the neural oracle along trajectories that the *program itself* induces in
the environment, with a large constant penalty replacing the per-step proximity
whenever the program drives the system into an unsafe state:

    d(π, P, h) = Σ_t  −‖P(s_t) − π(s_t)‖      if s_t ∉ Su
                      −MAX                      if s_t ∈ Su

Algorithm 1 scores many candidates per iteration, so the objective is batched:
:func:`candidate_distances` rolls out ``K`` parameter vectors ×
``num_trajectories`` rollouts as one ``(K·T, state_dim)`` array, with one
program evaluation, one oracle ``act_batch`` call and one vectorised Euler
step per time step.  The random draws (per rollout: its initial state, then
its per-step disturbances) are taken in the same generator order as rolling
the candidates out one at a time, so the batched objective and the one-state
reference loop in :mod:`repro.reference` see the same trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from ..certificates.regions import Box
from ..envs.base import EnvironmentContext, Trajectory, as_batch_policy

__all__ = [
    "DistanceConfig",
    "candidate_distances",
    "trajectory_distance",
    "program_oracle_distance",
]


@dataclass
class DistanceConfig:
    """Parameters of the proximity objective."""

    unsafe_penalty: float = 1000.0
    norm: str = "l2"  # "l2" or "l1"
    num_trajectories: int = 4
    trajectory_length: int = 100


def _state_scores(
    env: EnvironmentContext,
    states: np.ndarray,
    program_actions: np.ndarray,
    oracle_actions: np.ndarray,
    config: DistanceConfig,
) -> np.ndarray:
    """Per-row summand of ``d``: ``−‖P(s) − π(s)‖``, or ``−MAX`` on unsafe rows."""
    gap = program_actions - oracle_actions
    if config.norm == "l1":
        size = np.sum(np.abs(gap), axis=1)
    else:
        size = np.sqrt(np.sum(gap * gap, axis=1))
    return np.where(env.is_unsafe_batch(states), -config.unsafe_penalty, -size)


def trajectory_distance(
    env: EnvironmentContext,
    trajectory: Trajectory,
    program: Callable[[np.ndarray], np.ndarray],
    oracle: Callable[[np.ndarray], np.ndarray],
    config: DistanceConfig | None = None,
) -> float:
    """``d(π_w, P_θ, h)`` for one recorded rollout ``h`` of ``C[P_θ]``."""
    config = config or DistanceConfig()
    states = np.atleast_2d(np.asarray(trajectory.states, dtype=float))
    program_actions = as_batch_policy(program, env.action_dim)(states)
    oracle_actions = as_batch_policy(oracle, env.action_dim)(states)
    return float(np.sum(_state_scores(env, states, program_actions, oracle_actions, config)))


def _rollout_draws(
    env: EnvironmentContext, region, rng: np.random.Generator, rows: int, steps: int
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Initial states ``(rows, n)`` and disturbances ``(rows, steps, n)`` (``None``
    when undisturbed), drawn per rollout in stream order: its initial state,
    then its ``steps`` disturbances — the order of one-at-a-time rollouts.

    Uniform box draws are ``low + (high − low)·u`` over one stream double
    each, so for a plain box region and the base uniform disturbance one block
    of ``rng.random`` doubles reproduces them exactly; any other region or
    disturbance sampler is drawn row by row through its own method.
    """
    n = env.state_dim
    bound = env.disturbance_bound
    uniform_disturbance = (
        type(env).sample_disturbance is EnvironmentContext.sample_disturbance
    )
    if type(region) is Box and uniform_disturbance:
        draws = rng.random((rows, 1 + (steps if bound is not None else 0), n))
        low, high = np.asarray(region.low), np.asarray(region.high)
        initial = low + (high - low) * draws[:, 0]
        if bound is None:
            return initial, None
        return initial, -bound + (bound - -bound) * draws[:, 1:]
    initial = np.empty((rows, n))
    disturbances = np.empty((rows, steps, n)) if bound is not None else None
    for row in range(rows):
        initial[row] = region.sample(rng, 1)[0]
        if disturbances is not None:
            for step in range(steps):
                disturbances[row, step] = env.sample_disturbance(rng)
    return initial, disturbances


def _rollout_distances(
    env: EnvironmentContext,
    program_rows: Callable[[np.ndarray], np.ndarray],
    candidates: int,
    oracle: Callable[[np.ndarray], np.ndarray],
    rng: np.random.Generator,
    config: DistanceConfig,
    init_region=None,
) -> np.ndarray:
    """``d`` for ``candidates`` programs whose actions ``program_rows`` computes
    over a ``(candidates·T, state_dim)`` block, candidate-major."""
    trajectories = config.num_trajectories
    steps = config.trajectory_length
    region = init_region if init_region is not None else env.init_region
    states, disturbances = _rollout_draws(env, region, rng, candidates * trajectories, steps)
    oracle_rows = as_batch_policy(oracle, env.action_dim)
    totals = np.zeros(states.shape[0])
    # Diverged rollouts reach inf/nan states; they are unsafe, so their gap is
    # masked by the penalty, exactly as in the one-state loop.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps + 1):
            actions = np.asarray(program_rows(states), dtype=float)
            totals += _state_scores(env, states, actions, oracle_rows(states), config)
            if step < steps:
                states = env.step_batch(
                    states,
                    actions,
                    disturbances=None if disturbances is None else disturbances[:, step],
                )
    # Trajectory totals are added in rollout order, as the one-state loop does.
    per_trajectory = totals.reshape(candidates, trajectories)
    scores = per_trajectory[:, 0].copy()
    for column in range(1, trajectories):
        scores += per_trajectory[:, column]
    return scores / trajectories


def candidate_distances(
    env: EnvironmentContext,
    sketch,
    thetas: np.ndarray,
    oracle: Callable[[np.ndarray], np.ndarray],
    rng: np.random.Generator,
    config: DistanceConfig | None = None,
    init_region=None,
) -> np.ndarray:
    """``d(π_w, P_θk, C)`` for every row ``θk`` of ``thetas``, shape ``(K,)``.

    Candidate ``k`` consumes ``rng`` after candidate ``k − 1``, so the scores
    (and the generator's final state) match scoring the candidates one by one.
    """
    config = config or DistanceConfig()
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    program_rows = sketch.batch_policy(thetas, config.num_trajectories)
    return _rollout_distances(
        env, program_rows, thetas.shape[0], oracle, rng, config, init_region
    )


def program_oracle_distance(
    env: EnvironmentContext,
    program: Callable[[np.ndarray], np.ndarray],
    oracle: Callable[[np.ndarray], np.ndarray],
    rng: np.random.Generator,
    config: DistanceConfig | None = None,
    init_region=None,
) -> float:
    """Monte-Carlo estimate of ``d(π_w, P_θ, C)`` over rollouts of ``C[P_θ]``.

    ``init_region`` overrides the environment's initial region; Algorithm 2
    passes the shrunk region of the current CEGIS iteration here.
    """
    config = config or DistanceConfig()
    program_rows = as_batch_policy(program, env.action_dim)
    return float(
        _rollout_distances(env, program_rows, 1, oracle, rng, config, init_region)[0]
    )
