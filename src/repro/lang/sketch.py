"""Program sketches ``P[θ]`` and invariant sketches ``E[c]`` (eqs. (4) and (7)).

A *sketch* fixes the syntactic shape of a synthesis target and leaves numeric
holes to be filled in: Algorithm 1 searches the program-sketch parameters θ,
and the verification step searches the invariant-sketch coefficients c.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

import numpy as np

from ..polynomials import Monomial, Polynomial, basis_design_matrix, monomial_basis
from .invariant import Invariant
from .program import AffineProgram, ExprProgram, PolicyProgram
from .expr import expr_from_polynomial

__all__ = ["ProgramSketch", "AffineSketch", "PolynomialSketch", "InvariantSketch"]


class ProgramSketch:
    """Base class for program sketches: a parameter space plus an instantiation map."""

    state_dim: int
    action_dim: int

    @property
    def num_parameters(self) -> int:
        raise NotImplementedError

    def initial_parameters(self) -> np.ndarray:
        """θ = 0, the paper's starting point for random search (Algorithm 1, line 1)."""
        return np.zeros(self.num_parameters)

    def instantiate(self, theta: Sequence[float]) -> PolicyProgram:
        raise NotImplementedError

    def batch_policy(
        self, thetas: np.ndarray, repeats: int
    ) -> Callable[[np.ndarray], np.ndarray]:
        """The actions of ``K`` candidates over a ``(K·repeats, state_dim)`` block.

        Rows ``k·repeats … (k+1)·repeats − 1`` are evaluated under ``thetas[k]``
        (Algorithm 1 scores all of an iteration's perturbations as one array).
        The default groups rows by candidate and calls each instantiated
        program's ``act_batch``; sketches whose output is linear in θ override
        it with one vectorised evaluation.
        """
        programs = [self.instantiate(theta) for theta in np.atleast_2d(thetas)]

        def act(states: np.ndarray) -> np.ndarray:
            blocks = np.split(states, len(programs))
            return np.concatenate(
                [
                    np.asarray(program.act_batch(block), dtype=float).reshape(
                        len(block), self.action_dim
                    )
                    for program, block in zip(programs, blocks)
                ],
                axis=0,
            )

        return act


@dataclass
class AffineSketch(ProgramSketch):
    """The linear/affine sketch of equation (4):

    ``P[θ](x) ::= return θ_1 x_1 + ... + θ_n x_n (+ θ_{n+1})``

    generalised to ``action_dim`` outputs.  With ``include_bias=False`` this is
    the strictly linear sketch used in the paper's running examples.
    """

    state_dim: int
    action_dim: int = 1
    include_bias: bool = False
    action_low: np.ndarray | None = None
    action_high: np.ndarray | None = None
    names: Tuple[str, ...] | None = None

    @property
    def num_parameters(self) -> int:
        per_output = self.state_dim + (1 if self.include_bias else 0)
        return self.action_dim * per_output

    def instantiate(self, theta: Sequence[float]) -> AffineProgram:
        theta = np.asarray(theta, dtype=float)
        if theta.size != self.num_parameters:
            raise ValueError(
                f"sketch expects {self.num_parameters} parameters, got {theta.size}"
            )
        per_output = self.state_dim + (1 if self.include_bias else 0)
        table = theta.reshape(self.action_dim, per_output)
        gain = table[:, : self.state_dim]
        bias = table[:, self.state_dim] if self.include_bias else np.zeros(self.action_dim)
        return AffineProgram(
            gain=gain,
            bias=bias,
            action_low=self.action_low,
            action_high=self.action_high,
            names=self.names,
        )

    def batch_policy(
        self, thetas: np.ndarray, repeats: int
    ) -> Callable[[np.ndarray], np.ndarray]:
        """Per-row ``K s + b`` as an elementwise multiply-add (see the base class)."""
        per_output = self.state_dim + (1 if self.include_bias else 0)
        table = np.asarray(thetas, dtype=float).reshape(-1, 1, self.action_dim, per_output)
        gain = table[..., : self.state_dim]
        bias = table[..., self.state_dim] if self.include_bias else None
        shape = (table.shape[0], repeats, 1, self.state_dim)

        def act(states: np.ndarray) -> np.ndarray:
            actions = np.sum(gain * states.reshape(shape), axis=-1)
            if bias is not None:
                actions = actions + bias
            if self.action_low is not None:
                actions = np.maximum(actions, self.action_low)
            if self.action_high is not None:
                actions = np.minimum(actions, self.action_high)
            return actions.reshape(-1, self.action_dim)

        return act

    def parameters_of(self, program: AffineProgram) -> np.ndarray:
        """Inverse of :meth:`instantiate` for programs drawn from this sketch."""
        if self.include_bias:
            table = np.concatenate([program.gain, program.bias[:, None]], axis=1)
        else:
            table = program.gain
        return table.ravel()


@dataclass
class PolynomialSketch(ProgramSketch):
    """A polynomial program sketch: each action output is a combination of a
    fixed monomial basis of bounded degree.

    This realises the general grammar of Fig. 5 beyond the affine case and is
    used by ablation experiments; the paper's evaluation uses the affine sketch.
    """

    state_dim: int
    action_dim: int = 1
    degree: int = 2
    names: Tuple[str, ...] | None = None
    basis: List[Monomial] = field(init=False)

    def __post_init__(self) -> None:
        self.basis = monomial_basis(self.state_dim, self.degree)

    @property
    def num_parameters(self) -> int:
        return self.action_dim * len(self.basis)

    def instantiate(self, theta: Sequence[float]) -> ExprProgram:
        theta = np.asarray(theta, dtype=float)
        if theta.size != self.num_parameters:
            raise ValueError(
                f"sketch expects {self.num_parameters} parameters, got {theta.size}"
            )
        table = theta.reshape(self.action_dim, len(self.basis))
        exprs = []
        for row in table:
            poly = Polynomial.from_coefficients(row, self.basis, self.state_dim)
            exprs.append(expr_from_polynomial(poly, self.names))
        return ExprProgram(exprs=tuple(exprs), state_dim=self.state_dim, names=self.names)

    def batch_policy(
        self, thetas: np.ndarray, repeats: int
    ) -> Callable[[np.ndarray], np.ndarray]:
        """Per-row coefficient rows against the basis design matrix (see the base class)."""
        coefficients = np.asarray(thetas, dtype=float).reshape(
            -1, 1, self.action_dim, len(self.basis)
        )
        shape = (coefficients.shape[0], repeats, 1, len(self.basis))

        def act(states: np.ndarray) -> np.ndarray:
            features = basis_design_matrix(self.basis, states).reshape(shape)
            return np.sum(coefficients * features, axis=-1).reshape(-1, self.action_dim)

        return act


@dataclass
class InvariantSketch:
    """The invariant sketch of equation (7): ``E[c](x) = Σ_i c_i b_i(x) ≤ 0``.

    The basis contains every monomial of total degree at most ``degree``
    (the paper's heuristic: the user only picks the degree bound).
    """

    state_dim: int
    degree: int = 4
    names: Tuple[str, ...] | None = None
    basis: List[Monomial] = field(init=False)

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("invariant sketch degree must be at least 1")
        self.basis = monomial_basis(self.state_dim, self.degree)

    @property
    def num_coefficients(self) -> int:
        return len(self.basis)

    def instantiate(self, coefficients: Sequence[float], margin: float = 0.0) -> Invariant:
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.size != self.num_coefficients:
            raise ValueError(
                f"sketch expects {self.num_coefficients} coefficients, got {coefficients.size}"
            )
        barrier = Polynomial.from_coefficients(coefficients, self.basis, self.state_dim)
        return Invariant(barrier=barrier, margin=margin, names=self.names)
