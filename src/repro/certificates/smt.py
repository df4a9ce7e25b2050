"""A branch-and-bound decision procedure for polynomial inequalities over boxes.

The paper's artifact discharges two kinds of queries to Z3:

1. the verification conditions (8)-(10) on candidate barrier certificates, and
2. the CEGIS cover check ``S0 ⊆ φ_1 ∨ φ_2 ∨ …`` (Algorithm 2, line 3), including
   the search for an *uncovered* initial state used as the next counterexample.

Both are universally quantified polynomial inequalities over box domains.  This
module answers them with interval branch-and-bound: a natural interval
extension gives a sound outer bound of a polynomial on a box, so

* if the bound already certifies the inequality on a sub-box, that sub-box is
  discharged;
* if a concrete point violating the inequality is found, it is returned as a
  counterexample;
* otherwise the box is bisected along its widest axis and the children are
  explored, until a resolution limit is reached.

Verification answers are sound ("verified" means the inequality truly holds on
every explored box up to the numeric tolerance); completeness is bounded by the
resolution limit, mirroring the inherent incompleteness the paper notes for its
own CEGIS loop.

Frontier engine and determinism contract
----------------------------------------
Two engines answer every query:

* the **frontier engine** (default) advances the whole frontier of open boxes
  per round as ``(n_boxes, dim)`` endpoint arrays — constraint pruning, target
  bounding, centre/corner falsification, resolution-limit handling, and
  splitting are all batched array operations over lowered monomial tables
  (:mod:`repro.certificates.interval_batch`);
* the **scalar engine** walks the same queue one box at a time.  It is the
  differential reference, selected with ``BranchAndBoundVerifier(frontier=
  False)`` or the ``REPRO_NO_BATCH_BNB=1`` environment flag (checked at query
  time, like ``REPRO_NO_COMPILE``).

Both engines explore the canonical frontier order — breadth-first: the initial
boxes in the order given, then each surviving box's lower/upper children in
parent order — and both select the **first witness in that order** (within a
box: the centre, then the corners in binary-counting order, then the
resolution-limit samples in draw order).  Because they also share the same
batch-size-independent numeric kernels, verdicts, counterexamples,
``boxes_explored``, and ``max_depth_reached`` are bit-identical between them.

Resolution-limit sampling draws from a generator derived from ``seed``, a
canonical hash of the query (sense, lowered polynomials, boxes), and the
ordinal of the limit box in canonical order — never from shared verifier
state — so verdicts are reproducible regardless of how many queries the
verifier answered before, and identical across the two engines.

The frontier engine evaluates each point once.  Skipping a point is only
allowed where its answer is already known, so none of the following changes
a float or a verdict:

* **Feasibility first.**  A point's target value matters only if it
  satisfies every constraint, so the target, and each constraint after the
  first, is evaluated only on the rows still feasible.  The cover check does
  the same: each barrier is evaluated only on the centres no earlier barrier
  covers.
* **Inherited corners.**  A box is split only when its whole round found no
  witness, so its children skip the ``2**(d-1)`` corners they share with it
  and check the centre plus the mid-plane corners, still in corner order.
* **Batched sampling.**  The limit boxes of a round are sampled a chunk of
  ``KERNEL_ROWS`` sample rows at a time, stopping at the first chunk with a
  hit.  One elementwise uint32 pass of numpy's ``SeedSequence`` hash gives
  every box's PCG64 seed words; numpy's own ``PCG64`` then draws
  ``random((k, d))`` per box, and ``low + (high - low) * u`` is
  ``Generator.uniform``'s own affine map, so each box gets exactly the
  samples ``_box_rng`` would give it.  Ordinals from ``2**32`` on fall back
  to ``_box_rng`` per box.

The scalar engine keeps the per-box form of all three: it evaluates every
corner of every box, and draws each limit box's samples from its own
``_box_rng(seed, digest, ordinal).uniform`` call.  It shares the point masks
and the numeric kernels with the frontier engine.
"""

from __future__ import annotations

import hashlib
import os
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from ..polynomials import Polynomial
from .interval_batch import (
    KERNEL_ROWS,
    IntervalTable,
    eval_points,
    lower_interval,
    range_boxes,
)
from .regions import Box

__all__ = [
    "CheckResult",
    "BranchAndBoundVerifier",
    "prove_nonpositive",
    "prove_positive",
    "find_uncovered_point",
    "frontier_enabled",
]

_TRUTHY = ("1", "true", "yes", "on")


def frontier_enabled() -> bool:
    """Whether the batched frontier engine is the process default.

    ``REPRO_NO_BATCH_BNB=1`` falls back to the scalar reference engine; an
    explicit ``BranchAndBoundVerifier(frontier=...)`` overrides the flag.
    """
    return os.environ.get("REPRO_NO_BATCH_BNB", "").strip().lower() not in _TRUTHY


@dataclass
class CheckResult:
    """Outcome of a branch-and-bound query."""

    verified: bool
    counterexample: Optional[np.ndarray] = None
    boxes_explored: int = 0
    max_depth_reached: bool = False

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.verified


# --------------------------------------------------------------- query hashing
def _query_digest(
    sense: str, tables: Sequence[IntervalTable], low: np.ndarray, high: np.ndarray
) -> int:
    """Canonical 128-bit hash of a query (sense, polynomials, boxes).

    Feeds the resolution-limit sampling generators, making their draws a pure
    function of the query rather than of verifier call history.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(sense.encode("ascii"))
    for table in tables:
        h.update(b"|poly")
        h.update(np.int64(table.num_vars).tobytes())
        for plan in table.plans:
            h.update(np.asarray(plan, dtype=np.int64).tobytes())
            h.update(b";")
        h.update(table.coefficients.tobytes())
    h.update(b"|boxes")
    h.update(low.tobytes())
    h.update(high.tobytes())
    return int.from_bytes(h.digest(), "big")


def _box_rng(seed: int, digest: int, ordinal: int) -> np.random.Generator:
    """Deterministic generator for the ``ordinal``-th resolution-limit box."""
    entropy = (int(seed) & 0xFFFFFFFFFFFFFFFF, digest)
    return np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(ordinal,)))


# ------------------------------------------------ batched resolution-limit draws
_MASK32 = 0xFFFFFFFF
# numpy's SeedSequence hash constants (``numpy/random/bit_generator.pyx``).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4


def _uint32_words(value: int) -> List[int]:
    """Little-endian 32-bit words of a non-negative int, as SeedSequence splits it."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _limit_seed_states(seed: int, digest: int, ordinals: np.ndarray) -> np.ndarray:
    """PCG64 seed words of :func:`_box_rng` for many ordinals at once.

    Row ``j`` equals ``SeedSequence((seed, digest), spawn_key=(ordinals[j],))
    .generate_state(4, np.uint64)``: the SeedSequence hash run elementwise over
    uint32 columns, one per entropy word.  Only the spawn-key column varies
    across rows.  Requires ``ordinals < 2**32`` (a one-word spawn key).
    """
    run = _uint32_words(int(seed) & 0xFFFFFFFFFFFFFFFF) + _uint32_words(int(digest))
    run += [0] * (_POOL_SIZE - len(run))  # a spawn key pads the run entropy
    # Run-entropy columns are one-element arrays that broadcast against the
    # spawn-key column, so the hash of the shared words runs once.
    entropy = [np.array([word], dtype=np.uint32) for word in run]
    entropy.append(ordinals.astype(np.uint32))
    shift = np.uint32(16)
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> shift)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> shift)

    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))
    hash_const = _INIT_B
    words = []
    for index in range(8):  # 4 uint64 = 8 uint32 words, cycling the pool
        value = pool[index % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        words.append((value ^ (value >> shift)).astype(np.uint64))
    return np.stack(
        [words[2 * i] | (words[2 * i + 1] << np.uint64(32)) for i in range(4)], axis=1
    )


class _SeedWords(ISeedSequence):
    """Hands ``PCG64`` seed words already hashed by :func:`_limit_seed_states`."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _limit_chunk_boxes(samples: int) -> int:
    """Resolution-limit boxes sampled per pass: ``KERNEL_ROWS`` sample rows."""
    return max(1, KERNEL_ROWS // max(1, samples))


def _limit_samples(
    seed: int,
    digest: int,
    ordinals: np.ndarray,
    low: np.ndarray,
    high: np.ndarray,
    samples: int,
) -> np.ndarray:
    """``(n, samples, d)`` resolution-limit draws of ``n`` boxes.

    Row ``j`` is bit-identical to ``_box_rng(seed, digest, ordinals[j])
    .uniform(low[j], high[j], (samples, d))``: the same PCG64 stream through
    ``random``, then uniform's own affine map ``low + (high - low) * u``.
    """
    count, dim = low.shape
    if int(ordinals[-1]) >> 32:  # two-word spawn keys: draw per box from _box_rng
        return np.stack(
            [
                _box_rng(seed, digest, int(o)).uniform(low[j], high[j], (samples, dim))
                for j, o in enumerate(ordinals)
            ]
        )
    states = _limit_seed_states(seed, digest, ordinals)
    unit = np.empty((count, samples, dim))
    for j in range(count):
        unit[j] = np.random.Generator(np.random.PCG64(_SeedWords(states[j]))).random(
            (samples, dim)
        )
    return low[:, None, :] + (high - low)[:, None, :] * unit


# ------------------------------------------------------------ candidate points
_CORNER_SELECTORS: Dict[int, np.ndarray] = {}


def _corner_selectors(dim: int) -> np.ndarray:
    """``(2**dim, dim)`` bool selector matrix in ``Box.corners()`` order.

    Row ``r`` picks ``high`` where bit ``r`` is set, with variable 0 as the
    most significant bit — the ``np.meshgrid(..., indexing="ij")`` enumeration
    the scalar engine historically used.
    """
    sel = _CORNER_SELECTORS.get(dim)
    if sel is None:
        r = np.arange(1 << dim)
        sel = (r[:, None] >> (dim - 1 - np.arange(dim))[None, :]) & 1 > 0
        _CORNER_SELECTORS[dim] = sel
    return sel


def _candidate_count(dim: int) -> int:
    """Centre plus corners; corner enumeration is capped at 6 dimensions."""
    return 1 + (1 << dim) if dim <= 6 else 1


def _candidate_points(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Falsification candidates of ``(n, d)`` boxes as ``(n, m, d)`` points.

    Candidate order per box: centre first, then (for ``d <= 6``) the corners in
    binary-counting order.
    """
    count, dim = low.shape
    m = _candidate_count(dim)
    cand = np.empty((count, m, dim))
    cand[:, 0, :] = 0.5 * (low + high)
    if m > 1:
        sel = _corner_selectors(dim)
        cand[:, 1:, :] = np.where(sel[None, :, :], high[:, None, :], low[:, None, :])
    return cand


_NEW_CORNER_ROWS: Dict[int, np.ndarray] = {}


def _new_corner_rows(dim: int) -> np.ndarray:
    """``(dim, 2, 2**(dim-1))`` corner indices a child box does not inherit.

    Entry ``[axis, side]`` lists, in ``Box.corners()`` order, the corners of a
    child split along ``axis`` that lie on the mid-plane: bit ``axis`` set for
    the lower child (``side`` 0, whose high end is the midpoint), clear for the
    upper child (``side`` 1).  The child's other corners are its parent's.
    """
    rows = _NEW_CORNER_ROWS.get(dim)
    if rows is None:
        sel = _corner_selectors(dim)
        rows = np.stack(
            [
                [np.flatnonzero(sel[:, axis]), np.flatnonzero(~sel[:, axis])]
                for axis in range(dim)
            ]
        )
        _NEW_CORNER_ROWS[dim] = rows
    return rows


def _child_candidate_points(
    low: np.ndarray, high: np.ndarray, axes: np.ndarray, sides: np.ndarray
) -> np.ndarray:
    """Falsification candidates of split children, skipping inherited corners.

    Like :func:`_candidate_points`, but box ``i`` (split along ``axes[i]``,
    lower child when ``sides[i]`` is 0) gets only its centre and its
    ``2**(d-1)`` mid-plane corners, still in ``Box.corners()`` order.
    """
    count, dim = low.shape
    if _candidate_count(dim) == 1:
        return _candidate_points(low, high)
    sel = _corner_selectors(dim)[_new_corner_rows(dim)[axes, sides]]
    cand = np.empty((count, 1 + sel.shape[1], dim))
    cand[:, 0, :] = 0.5 * (low + high)
    cand[:, 1:, :] = np.where(sel, high[:, None, :], low[:, None, :])
    return cand


def _split_batch(
    low: np.ndarray, high: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Bisect ``(n, d)`` boxes along their widest axes.

    Children are interleaved ``[lower_0, upper_0, lower_1, upper_1, ...]`` —
    the canonical frontier order.
    """
    count, dim = low.shape
    widths = high - low
    axes = np.argmax(widths, axis=1)
    rows = np.arange(count)
    mids = 0.5 * (low[rows, axes] + high[rows, axes])
    left_high = high.copy()
    left_high[rows, axes] = mids
    right_low = low.copy()
    right_low[rows, axes] = mids
    new_low = np.empty((2 * count, dim))
    new_high = np.empty((2 * count, dim))
    new_low[0::2] = low
    new_low[1::2] = right_low
    new_high[0::2] = left_high
    new_high[1::2] = high
    return new_low, new_high


@dataclass
class BranchAndBoundVerifier:
    """Configurable branch-and-bound engine.

    Parameters
    ----------
    tolerance:
        Numeric slack: "p <= 0" is checked as "p <= tolerance".
    max_boxes:
        Budget on the number of boxes explored before giving up (returning
        ``verified=False`` with ``max_depth_reached=True``).
    min_width:
        Boxes whose widest side is below this width are resolved by sampling
        their centre point; this bounds the recursion depth.
    frontier:
        ``True``/``False`` force the batched frontier engine or the scalar
        reference; ``None`` (default) follows :func:`frontier_enabled`.
    """

    tolerance: float = 1e-6
    max_boxes: int = 200_000
    min_width: float = 1e-4
    resolution_limit_policy: str = "sample"  # "sample" | "reject"
    resolution_samples: int = 32
    seed: int = 0
    frontier: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.resolution_limit_policy not in ("sample", "reject"):
            raise ValueError("resolution_limit_policy must be 'sample' or 'reject'")

    def _use_frontier(self) -> bool:
        if self.frontier is not None:
            return bool(self.frontier)
        return frontier_enabled()

    # ------------------------------------------------------------------ core
    def prove_nonpositive(
        self,
        polynomial: Polynomial,
        boxes: Sequence[Box],
        constraints: Sequence[Polynomial] = (),
    ) -> CheckResult:
        """Prove ``polynomial(x) <= 0`` for all x in the boxes with every
        ``constraint(x) <= 0``.

        ``constraints`` restrict the domain to a polynomial sub-level set — this
        is how the induction condition (10) is checked only on the candidate
        invariant ``{E <= 0}``.
        """
        return self._prove(polynomial, boxes, constraints, sense="<=")

    def prove_positive(
        self,
        polynomial: Polynomial,
        boxes: Sequence[Box],
        constraints: Sequence[Polynomial] = (),
    ) -> CheckResult:
        """Prove ``polynomial(x) > 0`` on the constrained boxes (condition (8))."""
        return self._prove(polynomial, boxes, constraints, sense=">")

    def _prove(
        self,
        polynomial: Polynomial,
        boxes: Sequence[Box],
        constraints: Sequence[Polynomial],
        sense: str,
    ) -> CheckResult:
        target = lower_interval(polynomial)
        ctables = [lower_interval(c) for c in constraints]
        boxes = list(boxes)
        if not boxes:
            return CheckResult(True, boxes_explored=0)
        low = np.array([b.low for b in boxes], dtype=float)
        high = np.array([b.high for b in boxes], dtype=float)
        digest = _query_digest(sense, [target, *ctables], low, high)
        if self._use_frontier():
            return self._prove_frontier(target, ctables, low, high, sense, digest)
        return self._prove_scalar(target, ctables, low, high, sense, digest)

    # -------------------------------------------------------- scalar engine
    def _prove_scalar(
        self,
        target: IntervalTable,
        ctables: Sequence[IntervalTable],
        low: np.ndarray,
        high: np.ndarray,
        sense: str,
        digest: int,
    ) -> CheckResult:
        queue: Deque[Tuple[np.ndarray, np.ndarray]] = deque(
            (low[i], high[i]) for i in range(low.shape[0])
        )
        explored = 0
        limit_ordinal = 0
        while queue:
            if explored >= self.max_boxes:
                head_low, head_high = queue[0]
                return CheckResult(
                    False,
                    counterexample=0.5 * (head_low + head_high),
                    boxes_explored=explored,
                    max_depth_reached=True,
                )
            box_low, box_high = queue.popleft()
            explored += 1
            row_low = box_low[None, :]
            row_high = box_high[None, :]

            # Prune boxes that provably lie outside the constrained domain.
            outside = False
            for table in ctables:
                bound_low, _ = range_boxes(table, row_low, row_high)
                if bound_low[0] > self.tolerance:
                    outside = True
                    break
            if outside:
                continue

            bound_low, bound_high = range_boxes(target, row_low, row_high)
            if sense == "<=" and bound_high[0] <= self.tolerance:
                continue
            if sense == ">" and bound_low[0] > -self.tolerance:
                continue

            # Try to exhibit a concrete counterexample at the centre/corners.
            candidates = _candidate_points(row_low, row_high)[0]
            witness = self._first_violation(target, ctables, candidates, sense)
            if witness is not None:
                return CheckResult(False, counterexample=witness, boxes_explored=explored)

            widths = box_high - box_low
            if float(np.max(widths)) <= self.min_width:
                # Resolution limit: the interval bound is inconclusive and no
                # violating point was found among the centre/corners.  Under the
                # default "sample" policy we densely sample the box and accept it
                # when no violation appears (documented δ-completeness trade-off:
                # the property is proven everywhere except possibly inside
                # resolution-limit boxes that passed dense sampling).  Under
                # "reject" the box is reported as a potential counterexample.
                if self.resolution_limit_policy == "sample":
                    rng = _box_rng(self.seed, digest, limit_ordinal)
                    limit_ordinal += 1
                    samples = rng.uniform(
                        box_low, box_high, (self.resolution_samples, box_low.shape[0])
                    )
                    witness = self._first_violation(target, ctables, samples, sense)
                    if witness is not None:
                        return CheckResult(
                            False, counterexample=witness, boxes_explored=explored
                        )
                    continue
                center = 0.5 * (box_low + box_high)
                if self._feasible_mask(ctables, center[None, :])[0]:
                    return CheckResult(
                        False,
                        counterexample=center,
                        boxes_explored=explored,
                        max_depth_reached=True,
                    )
                continue

            child_low, child_high = _split_batch(row_low, row_high)
            queue.append((child_low[0], child_high[0]))
            queue.append((child_low[1], child_high[1]))

        return CheckResult(True, boxes_explored=explored)

    # ------------------------------------------------------ frontier engine
    def _prove_frontier(
        self,
        target: IntervalTable,
        ctables: Sequence[IntervalTable],
        low: np.ndarray,
        high: np.ndarray,
        sense: str,
        digest: int,
    ) -> CheckResult:
        explored = 0
        limit_ordinal = 0
        tol = self.tolerance
        # Split axis of each frontier box (``None`` for the initial boxes,
        # which have no parent whose corners they inherit).
        axes: Optional[np.ndarray] = None
        while low.shape[0]:
            remaining = self.max_boxes - explored
            if remaining <= 0:
                return CheckResult(
                    False,
                    counterexample=0.5 * (low[0] + high[0]),
                    boxes_explored=explored,
                    max_depth_reached=True,
                )
            overflow: Optional[Tuple[np.ndarray, np.ndarray]] = None
            if low.shape[0] > remaining:
                overflow = (low[remaining], high[remaining])
                low, high = low[:remaining], high[:remaining]
            count = low.shape[0]

            # Constraint pruning + target bounding, batched over the frontier.
            open_mask = np.ones(count, dtype=bool)
            for table in ctables:
                bound_low, _ = range_boxes(table, low, high)
                open_mask &= ~(bound_low > tol)
            bound_low, bound_high = range_boxes(target, low, high)
            if sense == "<=":
                open_mask &= ~(bound_high <= tol)
            else:
                open_mask &= ~(bound_low > -tol)
            open_idx = np.flatnonzero(open_mask)

            # Per-box terminal events, in canonical (frontier) order.  The
            # earliest event wins — exactly where the scalar walk would stop.
            event_box = count  # sentinel: no event
            event: Optional[CheckResult] = None

            witness_mask = np.zeros(count, dtype=bool)
            if open_idx.size:
                if axes is None:
                    cand = _candidate_points(low[open_idx], high[open_idx])
                else:
                    # Children skip the corners they share with their parent:
                    # the parent evaluated them and found no witness, or the
                    # query would have ended before the split.
                    cand = _child_candidate_points(
                        low[open_idx], high[open_idx], axes[open_idx], open_idx & 1
                    )
                n_open, m, dim = cand.shape
                viol = self._violation_mask(
                    target, ctables, cand.reshape(-1, dim), sense
                ).reshape(n_open, m)
                has_witness = viol.any(axis=1)
                witness_mask[open_idx] = has_witness
                if has_witness.any():
                    local = int(np.argmax(has_witness))
                    event_box = int(open_idx[local])
                    first_cand = int(np.argmax(viol[local]))
                    event = CheckResult(
                        False,
                        counterexample=cand[local, first_cand].copy(),
                        boxes_explored=0,  # filled below
                    )

            # Resolution-limit boxes: open, no centre/corner witness, width
            # below min_width.  (Witness boxes terminate before their own
            # resolution-limit check, so they never consume a sample ordinal.)
            limit_mask = open_mask & ~witness_mask & (
                (high - low).max(axis=1) <= self.min_width
            )
            limit_idx = np.flatnonzero(limit_mask)
            if limit_idx.size and limit_idx[0] < event_box:
                if self.resolution_limit_policy == "sample":
                    hit = self._sample_limit_boxes(
                        target,
                        ctables,
                        low,
                        high,
                        limit_idx[limit_idx < event_box],
                        limit_ordinal,
                        sense,
                        digest,
                    )
                    if hit is not None:
                        box, witness = hit
                        event_box = box
                        event = CheckResult(False, counterexample=witness, boxes_explored=0)
                else:
                    centers = 0.5 * (low[limit_idx] + high[limit_idx])
                    feasible = self._feasible_mask(ctables, centers)
                    hits = np.flatnonzero(feasible)
                    if hits.size and limit_idx[hits[0]] < event_box:
                        j = int(hits[0])
                        event_box = int(limit_idx[j])
                        event = CheckResult(
                            False,
                            counterexample=centers[j].copy(),
                            boxes_explored=0,
                            max_depth_reached=True,
                        )

            if event is not None:
                event.boxes_explored = explored + event_box + 1
                return event

            explored += count
            if self.resolution_limit_policy == "sample":
                limit_ordinal += int(limit_idx.size)
            if overflow is not None:
                return CheckResult(
                    False,
                    counterexample=0.5 * (overflow[0] + overflow[1]),
                    boxes_explored=explored,
                    max_depth_reached=True,
                )

            split_idx = np.flatnonzero(open_mask & ~limit_mask)
            if not split_idx.size:
                break
            low, high = low[split_idx], high[split_idx]
            axes = np.repeat(np.argmax(high - low, axis=1), 2)
            low, high = _split_batch(low, high)

        return CheckResult(True, boxes_explored=explored)

    def _sample_limit_boxes(
        self,
        target: IntervalTable,
        ctables: Sequence[IntervalTable],
        low: np.ndarray,
        high: np.ndarray,
        limit_idx: np.ndarray,
        first_ordinal: int,
        sense: str,
        digest: int,
    ) -> Optional[Tuple[int, np.ndarray]]:
        """Sample the resolution-limit boxes ``limit_idx`` in canonical order.

        Box ``limit_idx[j]`` draws from ordinal ``first_ordinal + j``.  Boxes
        are drawn and checked a chunk at a time, stopping at the first chunk
        with a violation; returns ``(box, witness)`` for the first violating
        sample of the first violating box, else ``None``.
        """
        k = self.resolution_samples
        dim = low.shape[1]
        chunk = _limit_chunk_boxes(k)
        for start in range(0, limit_idx.size, chunk):
            idx = limit_idx[start : start + chunk]
            ordinals = np.arange(first_ordinal + start, first_ordinal + start + idx.size)
            samples = _limit_samples(self.seed, digest, ordinals, low[idx], high[idx], k)
            viol = self._violation_mask(
                target, ctables, samples.reshape(-1, dim), sense
            ).reshape(idx.size, k)
            has_sample = viol.any(axis=1)
            if has_sample.any():
                j = int(np.argmax(has_sample))
                return int(idx[j]), samples[j, int(np.argmax(viol[j]))].copy()
        return None

    # -------------------------------------------------------------- helpers
    def _feasible_rows(
        self, ctables: Sequence[IntervalTable], points: np.ndarray
    ) -> np.ndarray:
        """Indices of the points satisfying every constraint.

        Each constraint after the first is evaluated only on the rows every
        earlier constraint kept; rows are independent, so the answer is the
        one full evaluation would give.
        """
        rows = np.arange(points.shape[0])
        for index, table in enumerate(ctables):
            if not rows.size:
                break
            values = eval_points(table, points if index == 0 else points[rows])
            rows = rows[values <= self.tolerance]
        return rows

    def _feasible_mask(
        self, ctables: Sequence[IntervalTable], points: np.ndarray
    ) -> np.ndarray:
        feasible = np.zeros(points.shape[0], dtype=bool)
        feasible[self._feasible_rows(ctables, points)] = True
        return feasible

    def _violation_mask(
        self,
        target: IntervalTable,
        ctables: Sequence[IntervalTable],
        points: np.ndarray,
        sense: str,
    ) -> np.ndarray:
        """Feasible points violating the target; the target is evaluated only
        on feasible rows."""
        rows = self._feasible_rows(ctables, points)
        violating = np.zeros(points.shape[0], dtype=bool)
        if rows.size:
            values = eval_points(
                target, points if rows.size == points.shape[0] else points[rows]
            )
            if sense == "<=":
                violating[rows] = values > self.tolerance
            else:
                violating[rows] = values <= -self.tolerance
        return violating

    def _first_violation(
        self,
        target: IntervalTable,
        ctables: Sequence[IntervalTable],
        points: np.ndarray,
        sense: str,
    ) -> Optional[np.ndarray]:
        violating = np.flatnonzero(self._violation_mask(target, ctables, points, sense))
        if violating.size:
            return points[violating[0]].copy()
        return None

    # ------------------------------------------------------------ coverage
    def find_uncovered_point(
        self,
        box: Box,
        barriers: Sequence[Polynomial],
        margins: Sequence[float] | None = None,
    ) -> Optional[np.ndarray]:
        """Search ``box`` for a point not covered by any ``{E_i <= margin_i}``.

        Returns ``None`` when the whole box is certified covered (every sub-box
        is contained in one of the sub-level sets down to the resolution limit,
        with centre-point checks at the limit), otherwise a witness point.

        This is the CEGIS driver query of Algorithm 2 (line 3-4).
        """
        if margins is None:
            margins = [0.0] * len(barriers)
        if not barriers:
            return box.center.copy()
        tables = [lower_interval(b) for b in barriers]
        margins = [float(m) for m in margins]
        low = np.asarray(box.low, dtype=float)[None, :]
        high = np.asarray(box.high, dtype=float)[None, :]
        if self._use_frontier():
            return self._uncovered_frontier(tables, margins, low, high)
        return self._uncovered_scalar(tables, margins, low, high)

    def _uncovered_scalar(
        self,
        tables: Sequence[IntervalTable],
        margins: Sequence[float],
        low: np.ndarray,
        high: np.ndarray,
    ) -> Optional[np.ndarray]:
        queue: Deque[Tuple[np.ndarray, np.ndarray]] = deque([(low[0], high[0])])
        explored = 0
        while queue:
            if explored >= self.max_boxes:
                # Budget exhausted: fall back to the centre of an unresolved box.
                head_low, head_high = queue[0]
                candidate = 0.5 * (head_low + head_high)
                if not self._covered_mask(tables, margins, candidate[None, :])[0]:
                    return candidate
                return None
            box_low, box_high = queue.popleft()
            explored += 1
            row_low = box_low[None, :]
            row_high = box_high[None, :]

            covered = False
            for table, margin in zip(tables, margins):
                _, bound_high = range_boxes(table, row_low, row_high)
                if bound_high[0] <= margin + self.tolerance:
                    covered = True
                    break
            if covered:
                continue

            center = 0.5 * (box_low + box_high)
            if not self._covered_mask(tables, margins, center[None, :])[0]:
                return center

            if float(np.max(box_high - box_low)) <= self.min_width:
                # Centre covered and resolution limit hit: accept as covered.
                continue

            child_low, child_high = _split_batch(row_low, row_high)
            queue.append((child_low[0], child_high[0]))
            queue.append((child_low[1], child_high[1]))
        return None

    def _uncovered_frontier(
        self,
        tables: Sequence[IntervalTable],
        margins: Sequence[float],
        low: np.ndarray,
        high: np.ndarray,
    ) -> Optional[np.ndarray]:
        explored = 0
        while low.shape[0]:
            remaining = self.max_boxes - explored
            if remaining <= 0:
                candidate = 0.5 * (low[0] + high[0])
                if not self._covered_mask(tables, margins, candidate[None, :])[0]:
                    return candidate
                return None
            overflow: Optional[Tuple[np.ndarray, np.ndarray]] = None
            if low.shape[0] > remaining:
                overflow = (low[remaining], high[remaining])
                low, high = low[:remaining], high[:remaining]
            count = low.shape[0]

            open_mask = np.ones(count, dtype=bool)
            for table, margin in zip(tables, margins):
                _, bound_high = range_boxes(table, low, high)
                open_mask &= ~(bound_high <= margin + self.tolerance)
            open_idx = np.flatnonzero(open_mask)

            if open_idx.size:
                centers = 0.5 * (low[open_idx] + high[open_idx])
                uncovered = ~self._covered_mask(tables, margins, centers)
                hits = np.flatnonzero(uncovered)
                if hits.size:
                    return centers[int(hits[0])].copy()

            explored += count
            if overflow is not None:
                candidate = 0.5 * (overflow[0] + overflow[1])
                if not self._covered_mask(tables, margins, candidate[None, :])[0]:
                    return candidate
                return None

            limit_mask = (high - low).max(axis=1) <= self.min_width
            split_idx = np.flatnonzero(open_mask & ~limit_mask)
            if not split_idx.size:
                break
            low, high = _split_batch(low[split_idx], high[split_idx])
        return None

    def _covered_mask(
        self,
        tables: Sequence[IntervalTable],
        margins: Sequence[float],
        points: np.ndarray,
    ) -> np.ndarray:
        """Points inside some ``{E_i <= margin_i}``; each barrier is evaluated
        only on the points no earlier barrier covers."""
        covered = np.zeros(points.shape[0], dtype=bool)
        rows = np.arange(points.shape[0])
        for index, (table, margin) in enumerate(zip(tables, margins)):
            if not rows.size:
                break
            values = eval_points(table, points if index == 0 else points[rows])
            inside = values <= margin + self.tolerance
            covered[rows[inside]] = True
            rows = rows[~inside]
        return covered


# ------------------------------------------------------------------ shortcuts
_DEFAULT = BranchAndBoundVerifier()


def prove_nonpositive(
    polynomial: Polynomial, boxes: Sequence[Box], constraints: Sequence[Polynomial] = ()
) -> CheckResult:
    """Module-level convenience wrapper using default verifier settings."""
    return _DEFAULT.prove_nonpositive(polynomial, boxes, constraints)


def prove_positive(
    polynomial: Polynomial, boxes: Sequence[Box], constraints: Sequence[Polynomial] = ()
) -> CheckResult:
    """Module-level convenience wrapper using default verifier settings."""
    return _DEFAULT.prove_positive(polynomial, boxes, constraints)


def find_uncovered_point(
    box: Box, barriers: Sequence[Polynomial], margins: Sequence[float] | None = None
) -> Optional[np.ndarray]:
    """Module-level convenience wrapper using default verifier settings."""
    return _DEFAULT.find_uncovered_point(box, barriers, margins)
