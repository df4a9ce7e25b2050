"""One-state reference implementations kept as differential oracles.

Nothing in the library calls into this module.  Tests and the fuzzer import
it to check the production (batched) code against the straightforward
per-state loop it replaced:

* :func:`program_oracle_distance` / :func:`trajectory_distance` — Algorithm 1's
  objective ``d(π_w, P_θ, C)`` rolled out one state at a time through
  ``env.simulate``, evaluating the program and the oracle once per state.
  :func:`repro.core.distance.candidate_distances` must agree with it (same
  generator, same draws, same final generator state).
* :func:`eval_points_sequential` — a lowered polynomial evaluated by the plain
  per-monomial left fold, every product recomputed.
  :func:`repro.certificates.interval_batch.eval_points` shares products across
  monomial prefixes and must return the same floats.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .certificates.interval_batch import IntervalTable
from .core.distance import DistanceConfig
from .envs.base import EnvironmentContext, Trajectory

__all__ = ["trajectory_distance", "program_oracle_distance", "eval_points_sequential"]


def _action_gap(program_action: np.ndarray, oracle_action: np.ndarray, norm: str) -> float:
    gap = np.asarray(program_action, dtype=float) - np.asarray(oracle_action, dtype=float)
    if norm == "l1":
        return float(np.sum(np.abs(gap)))
    return float(np.linalg.norm(gap))


def trajectory_distance(
    env: EnvironmentContext,
    trajectory: Trajectory,
    program: Callable[[np.ndarray], np.ndarray],
    oracle: Callable[[np.ndarray], np.ndarray],
    config: DistanceConfig | None = None,
) -> float:
    """``d(π_w, P_θ, h)`` for one sampled rollout ``h`` of ``C[P_θ]``, state by state."""
    config = config or DistanceConfig()
    total = 0.0
    for state in trajectory.states:
        if env.is_unsafe(state):
            total -= config.unsafe_penalty
            continue
        total -= _action_gap(program(state), oracle(state), config.norm)
    return total


def program_oracle_distance(
    env: EnvironmentContext,
    program: Callable[[np.ndarray], np.ndarray],
    oracle: Callable[[np.ndarray], np.ndarray],
    rng: np.random.Generator,
    config: DistanceConfig | None = None,
    init_region=None,
) -> float:
    """Monte-Carlo estimate of ``d(π_w, P_θ, C)``, one rollout and one state at a time."""
    config = config or DistanceConfig()
    total = 0.0
    region = init_region if init_region is not None else env.init_region
    for _ in range(config.num_trajectories):
        initial_state = region.sample(rng, 1)[0]
        trajectory = env.simulate(
            program,
            steps=config.trajectory_length,
            rng=rng,
            initial_state=initial_state,
        )
        total += trajectory_distance(env, trajectory, program, oracle, config)
    return total / config.num_trajectories


def eval_points_sequential(table: IntervalTable, points: np.ndarray) -> np.ndarray:
    """``table``'s polynomial at ``(n, num_vars)`` points by the plain fold.

    Monomials in term order, each product ``x_v0**e0 * x_v1**e1 * ...``
    multiplied out left to right (powers shared), summed as
    ``acc + coeff * value``.
    """
    points = np.asarray(points, dtype=float)
    acc = np.zeros(points.shape[0])
    power_cache: dict = {}
    for plan, coeff in zip(table.plans, table.coefficients):
        value = None
        for var, exp in plan:
            key = (var, exp)
            power = power_cache.get(key)
            if power is None:
                column = points[:, var]
                power = column if exp == 1 else np.power(column, float(exp))
                power_cache[key] = power
            value = power if value is None else value * power
        acc = acc + coeff if value is None else acc + coeff * value
    return acc
