"""Point kernels of the frontier branch-and-bound engine.

The frontier engine evaluates each falsification point once: products are
shared across monomial prefixes, the target and later constraints run only on
rows still feasible, split children skip the corners they inherit, and the
resolution-limit samples of a whole chunk of boxes are drawn from seed states
hashed in one pass.  Every one of these must give the floats the plain
per-point computation gives, so each is pinned here against its reference:

* the vectorised SeedSequence hash against ``np.random.SeedSequence``;
* the batched samples against ``_box_rng(...).uniform`` (the scalar engine's
  per-box draws);
* prefix-shared ``eval_points`` against ``repro.reference.eval_points_sequential``;
* the feasibility-first and cover masks against full evaluation;
* chunked sampling and inherited corners against the scalar engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.certificates import Box, BranchAndBoundVerifier, interval_batch, smt
from repro.certificates.interval_batch import IntervalTable, eval_points, lower_interval
from repro.polynomials import Polynomial
from repro.polynomials.monomial import Monomial
from repro.reference import eval_points_sequential

MASK64 = 0xFFFFFFFFFFFFFFFF


def _bits(values: np.ndarray) -> np.ndarray:
    """Float bit patterns, so ``-0.0``/``0.0`` and nan payloads count."""
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


def _rand_poly(dim, n_terms, max_degree, rng):
    terms = {}
    for _ in range(n_terms):
        exponents = tuple(int(rng.integers(0, max_degree + 1)) for _ in range(dim))
        terms[Monomial(exponents)] = float(rng.normal())
    return Polynomial(dim, terms)


# ------------------------------------------------------------ seed states
@pytest.mark.parametrize("seed", [0, 7, 2**63, 2**63 + 12345, MASK64, 2**64 + 5, -1])
@pytest.mark.parametrize(
    "digest",
    [0, 2**32 - 1, 2**32, 2**64 + 1, 2**96 + 77, 2**128 - 1],
    ids=["1w-zero", "1w", "2w", "3w", "4w-low", "4w-max"],
)
def test_seed_states_match_seed_sequence(seed, digest):
    ordinals = np.array([0, 1, 5, 123_456, 2**32 - 1])
    states = smt._limit_seed_states(seed, digest, ordinals)
    assert states.dtype == np.uint64 and states.shape == (ordinals.size, 4)
    for row, ordinal in zip(states, ordinals):
        expected = np.random.SeedSequence(
            (seed & MASK64, digest), spawn_key=(int(ordinal),)
        ).generate_state(4, np.uint64)
        assert np.array_equal(row, expected), (seed, digest, int(ordinal))


# --------------------------------------------------------- batched samples
@pytest.mark.parametrize("dim, samples", [(1, 32), (2, 7), (4, 32), (5, 3)])
@pytest.mark.parametrize("first", [0, 2**32 - 3, 2**32], ids=["low", "wrap", "two-word"])
def test_limit_samples_match_box_rng(dim, samples, first):
    """Row ``j`` is exactly the scalar engine's ``_box_rng(...).uniform`` draw.

    Ordinals from ``2**32`` on need a two-word spawn key and fall back to
    ``_box_rng`` itself; the ``wrap`` case straddles that boundary.
    """
    rng = np.random.default_rng(dim * 100 + samples)
    seed, digest = 2**63 + 9, int.from_bytes(rng.bytes(16), "big")
    count = 5
    low = rng.uniform(-3.0, 1.0, (count, dim))
    high = low + rng.uniform(1e-6, 2.0, (count, dim))
    ordinals = np.arange(first, first + count)
    chunks = [slice(0, count)] if first != 2**32 - 3 else [slice(0, 3), slice(3, count)]
    for part in chunks:
        got = smt._limit_samples(
            seed, digest, ordinals[part], low[part], high[part], samples
        )
        for j, index in enumerate(range(count)[part]):
            expected = smt._box_rng(seed, digest, int(ordinals[index])).uniform(
                low[index], high[index], (samples, dim)
            )
            assert np.array_equal(_bits(got[j]), _bits(expected))


# ----------------------------------------------------- prefix-shared eval
def _hand_table(rng, dim):
    """A table with repeated plans, shared prefixes and constant monomials —
    shapes a lowered ``Polynomial`` never has but the schedule must handle."""
    plans = []
    for _ in range(int(rng.integers(1, 14))):
        length = int(rng.integers(0, dim + 1))
        variables = sorted(rng.choice(dim, size=length, replace=False).tolist())
        plans.append(tuple((v, int(rng.integers(1, 5))) for v in variables))
    plans += plans[: len(plans) // 2]  # duplicates reuse slots
    return IntervalTable(dim, rng.normal(size=len(plans)), tuple(plans))


def _adversarial_points(rng, count, dim):
    points = rng.uniform(-2.5, 2.5, (count, dim))
    special = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 1e200, -1e-200])
    mask = rng.random((count, dim)) < 0.08
    points[mask] = rng.choice(special, size=int(mask.sum()))
    return points


@pytest.mark.parametrize("rows", [1, 37, interval_batch.KERNEL_ROWS + 901])
def test_prefix_eval_matches_sequential_fold(rows):
    rng = np.random.default_rng(rows)
    for trial in range(30):
        dim = int(rng.integers(1, 6))
        if trial % 2:
            table = _hand_table(rng, dim)
        else:
            table = lower_interval(_rand_poly(dim, int(rng.integers(1, 25)), 5, rng))
        points = _adversarial_points(rng, rows, dim)
        with np.errstate(all="ignore"):
            got = eval_points(table, points)
            expected = eval_points_sequential(table, points)
        assert np.array_equal(_bits(got), _bits(expected)), (trial, table)


def test_prefix_schedule_memoized_and_shared():
    x, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    poly = x**2 * y + x**2 * y**2 + x**2 + 3.0
    table = lower_interval(poly)
    points = np.array([[0.5, -1.5], [2.0, 3.0]])
    eval_points(table, points)
    schedule = table.schedule
    assert schedule is not None
    eval_points(table, points)
    assert table.schedule is schedule
    # x^2 is one slot shared by three monomials: three slots in all
    created = [step for created, _slot, _released in schedule for step in created]
    assert created == [(-1, (0, 2)), (0, (1, 1)), (0, (1, 2))]
    # every slot is released exactly once
    released = sorted(slot for _c, _s, free in schedule for slot in free)
    assert released == list(range(len(created)))


# ------------------------------------------------------- masks vs full eval
def _full_violation(verifier, target, ctables, points, sense):
    feasible = np.ones(points.shape[0], dtype=bool)
    for table in ctables:
        feasible &= eval_points_sequential(table, points) <= verifier.tolerance
    values = eval_points_sequential(target, points)
    if sense == "<=":
        return feasible & (values > verifier.tolerance)
    return feasible & (values <= -verifier.tolerance)


def test_feasibility_first_masks_match_full_evaluation():
    rng = np.random.default_rng(5)
    verifier = BranchAndBoundVerifier()
    for _ in range(40):
        dim = int(rng.integers(1, 5))
        target = lower_interval(_rand_poly(dim, int(rng.integers(1, 8)), 3, rng))
        ctables = [
            lower_interval(_rand_poly(dim, int(rng.integers(1, 4)), 2, rng))
            for _ in range(int(rng.integers(0, 4)))
        ]
        points = _adversarial_points(rng, 200, dim)
        with np.errstate(all="ignore"):
            for sense in ("<=", ">"):
                got = verifier._violation_mask(target, ctables, points, sense)
                expected = _full_violation(verifier, target, ctables, points, sense)
                assert np.array_equal(got, expected)
            feasible = np.ones(points.shape[0], dtype=bool)
            for table in ctables:
                feasible &= eval_points_sequential(table, points) <= verifier.tolerance
            assert np.array_equal(verifier._feasible_mask(ctables, points), feasible)


def test_cover_mask_matches_full_evaluation():
    rng = np.random.default_rng(8)
    verifier = BranchAndBoundVerifier()
    for _ in range(40):
        dim = int(rng.integers(1, 5))
        tables = [
            lower_interval(_rand_poly(dim, int(rng.integers(1, 5)), 2, rng))
            for _ in range(int(rng.integers(1, 5)))
        ]
        margins = [float(rng.uniform(-0.5, 2.0)) for _ in tables]
        points = _adversarial_points(rng, 300, dim)
        expected = np.zeros(points.shape[0], dtype=bool)
        with np.errstate(all="ignore"):
            for table, margin in zip(tables, margins):
                expected |= eval_points_sequential(table, points) <= margin + verifier.tolerance
            got = verifier._covered_mask(tables, margins, points)
        assert np.array_equal(got, expected)


def test_short_circuits_skip_decided_rows(monkeypatch):
    """Later constraints and the target see only feasible rows; later
    barriers see only uncovered centres."""
    x = Polynomial.variable(0, 1)
    points = np.linspace(-2.0, 2.0, 41)[:, None]
    seen = []
    real = smt.eval_points

    def recording(table, rows):
        seen.append(rows.shape[0])
        return real(table, rows)

    monkeypatch.setattr(smt, "eval_points", recording)
    verifier = BranchAndBoundVerifier()
    first, second, target = (lower_interval(p) for p in (x - 1.0, -x - 1.0, x * x))
    verifier._violation_mask(target, [first, second], points, "<=")
    assert seen == [41, 31, 21]  # x <= 1, then x >= -1 among those
    seen.clear()
    verifier._covered_mask([first, second], [0.0, 0.0], points)
    assert seen == [41, 10]  # the second barrier only sees x > 1


# ------------------------------------------------------- inherited corners
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 6])
def test_child_candidates_are_the_non_inherited_corners(dim):
    """A child's candidates are its centre plus, in corner order, exactly the
    corners its parent did not have."""
    rng = np.random.default_rng(dim)
    low = rng.uniform(-2.0, 0.0, (9, dim))
    high = low + rng.uniform(0.1, 3.0, (9, dim))
    axes = np.repeat(np.argmax(high - low, axis=1), 2)
    child_low, child_high = smt._split_batch(low, high)
    sides = np.arange(child_low.shape[0]) & 1
    got = smt._child_candidate_points(child_low, child_high, axes, sides)
    full = smt._candidate_points(child_low, child_high)
    parent = smt._candidate_points(low, high)
    for i in range(child_low.shape[0]):
        inherited = {tuple(c) for c in parent[i // 2, 1:]}
        expected = [full[i, 0]] + [c for c in full[i, 1:] if tuple(c) not in inherited]
        assert np.array_equal(got[i], np.array(expected))


def test_mid_plane_corner_refutation_identical():
    """The first witness is a mid-plane corner three splits down: only a
    child's non-inherited corners can expose it."""
    x, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    bump = 0.01 - ((x + 0.5) ** 2 + (y + 1.0) ** 2)  # > 0 only near (-0.5, -1)
    box = Box((-1.0, -1.0), (1.0, 1.0))
    results = [
        BranchAndBoundVerifier(frontier=flag, max_boxes=10_000, min_width=1e-3)
        .prove_nonpositive(bump, [box])
        for flag in (False, True)
    ]
    for result in results:
        assert not result.verified and not result.max_depth_reached
        assert np.array_equal(result.counterexample, [-0.5, -1.0])
        assert result.boxes_explored > 7  # found below depth 2
    assert results[0].boxes_explored == results[1].boxes_explored


# ----------------------------------------------------------- sample chunks
def _band_poly():
    """Positive only on the band ``0.177 < x < 0.755`` (see test_bnb_frontier)."""
    x = Polynomial.variable(0, 1)
    return -16.0 * x**4 + 8.0 * x**2 - 0.5 + 1.5 * x


def _assert_same(a, b):
    assert a.verified == b.verified
    assert a.boxes_explored == b.boxes_explored
    assert a.max_depth_reached == b.max_depth_reached
    assert (a.counterexample is None) == (b.counterexample is None)
    if a.counterexample is not None:
        assert np.array_equal(_bits(a.counterexample), _bits(b.counterexample))


def test_sampled_witness_in_later_chunk_identical(monkeypatch):
    """One box per chunk: the witness box is the fourth chunk, and the result
    equals both the default chunking and the scalar engine.

    All four boxes are resolution-limit boxes of the first round; the band
    polynomial is negative on the first three, and the fourth's centre and
    corners miss the band that its samples find.
    """
    query = dict(max_boxes=50_000, min_width=2.6, seed=4)
    box = [
        Box((-1.0,), (-0.7,)),
        Box((-0.9,), (-0.6,)),
        Box((-0.8,), (-0.5,)),
        Box((-1.2,), (1.3,)),
    ]
    scalar = BranchAndBoundVerifier(frontier=False, **query).prove_nonpositive(
        _band_poly(), box
    )
    default = BranchAndBoundVerifier(frontier=True, **query).prove_nonpositive(
        _band_poly(), box
    )
    drawn = []
    real = smt._limit_samples

    def recording(seed, digest, ordinals, low, high, samples):
        drawn.append(ordinals.copy())
        return real(seed, digest, ordinals, low, high, samples)

    monkeypatch.setattr(smt, "_limit_chunk_boxes", lambda samples: 1)
    monkeypatch.setattr(smt, "_limit_samples", recording)
    chunked = BranchAndBoundVerifier(frontier=True, **query).prove_nonpositive(
        _band_poly(), box
    )
    assert not scalar.verified and scalar.counterexample is not None
    assert 0.17 < scalar.counterexample[0] < 0.76  # inside the positive band
    assert [ordinals.tolist() for ordinals in drawn] == [[0], [1], [2], [3]]
    assert scalar.boxes_explored == 4
    _assert_same(scalar, default)
    _assert_same(scalar, chunked)


def test_sampled_acceptance_with_single_box_chunks(monkeypatch):
    """A query every limit box passes: chunking changes no ordinal."""
    query = dict(max_boxes=50_000, min_width=0.05, seed=11)
    box = [Box((-1.0,), (-0.6,))]
    expected = BranchAndBoundVerifier(frontier=False, **query).prove_nonpositive(
        _band_poly(), box
    )
    monkeypatch.setattr(smt, "_limit_chunk_boxes", lambda samples: 1)
    got = BranchAndBoundVerifier(frontier=True, **query).prove_nonpositive(
        _band_poly(), box
    )
    assert expected.verified
    _assert_same(expected, got)
