"""The tabled best-response kernel against the scalar loop it replaced.

reference_payment and reference_select are verbatim copies of the scalar
expected_payment and select_effort as they stood before BestResponse
existed.  The kernel must compute exactly the same payments and pick exactly
the same rate for every user on every prize vector, one vector at a time
(efforts) and a block of vectors at once (_efforts, each row indexing its own
prizes), so the comparisons below are equalities, not tolerances.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posecontest.config import build_scenario
from posecontest.contest import (
    SCORE_TIE_REL_TOL,
    SELECTION_MODES,
    AwardSetting,
    BestResponse,
    ContestantState,
    cost,
    population_from,
    win_cdf,
)
from posecontest.oracle import _lattice_parts
from posecontest.skeleton import DEFAULT_PROFILES, generate_synthetic, get_profile
from test_acceptance import SMALL
from test_oracle import ragged_fields


def reference_payment(loss_value, awards, n_contestants, population):
    if n_contestants < 1:
        raise ValueError("n_contestants must be at least 1")
    if awards.count > n_contestants:
        raise ValueError(
            f"{awards.count} prizes for {n_contestants} contestants; need count <= n"
        )
    p = win_cdf(loss_value, population)
    total = 0.0
    for i in range(1, awards.count + 1):
        total += (
            awards.prizes[i - 1]
            * math.comb(n_contestants - 1, i - 1)
            * p ** (n_contestants - i)
            * (1.0 - p) ** (i - 1)
        )
    return total


def reference_select(contestant, awards, population, n_contestants, mode="net"):
    if mode not in SELECTION_MODES:
        raise ValueError(f"unknown selection mode {mode!r}; expected one of {SELECTION_MODES}")
    best_rate = None
    best_score = 0.0
    for f in contestant.effort_set:
        score = reference_payment(contestant.loss_table[f], awards, n_contestants, population)
        if mode == "net":
            score -= cost(contestant.capability, f)
        if best_rate is None or score > best_score + SCORE_TIE_REL_TOL * max(1.0, abs(best_score)):
            best_rate = f
            best_score = score
    return best_rate


def bits(x):
    """The bit pattern of x as a float64, so that -0.0 and 0.0 differ."""
    return np.float64(x).view(np.int64)


def mismatches(contestants, prize_vectors, mode):
    """Prize vectors on which the kernel and the scalar loop disagree, on a
    chosen rate or, to the last bit (the sign of a zero too), on any expected
    payment.

    Vectors of one length go through _efforts in a single call, each row
    indexing its own prizes in the block's values, and each row is checked as
    well as the one-vector efforts call."""
    pop = population_from(contestants)
    n = len(contestants)
    kernel = BestResponse(contestants, mode)
    rows = {}
    for count in {len(prizes) for prizes in prize_vectors}:
        block = [prizes for prizes in prize_vectors if len(prizes) == count]
        values = np.array(block, dtype=np.float64).ravel()
        chosen = kernel._efforts(values, np.arange(values.size).reshape(len(block), count))
        assert chosen.shape == (len(block), n)
        rows.update(zip(block, map(tuple, chosen.tolist())))
    bad = []
    for prizes in prize_vectors:
        awards = AwardSetting(prizes)
        expected = tuple(reference_select(c, awards, pop, n, mode) for c in contestants)
        paid = kernel._payments(np.asarray(prizes), np.arange(len(prizes))[None])[:, :, 0].T  # user, rate
        if kernel.efforts(prizes) != expected or rows[prizes] != expected or any(
            bits(paid[u, r]) != bits(reference_payment(c.loss_table[f], awards, n, pop))
            for u, c in enumerate(contestants)
            for r, f in enumerate(c.effort_set)
        ):
            bad.append(prizes)
    return bad


@pytest.fixture(scope="module")
def ragged_field():
    """Three users whose native rates, and so effort sets, all differ."""
    return [
        ContestantState.from_sequence(
            i + 1, generate_synthetic(get_profile(kind), 2 * rate, rate, seed=i)
        )
        for i, (kind, rate) in enumerate((("run", 12), ("dance", 30), ("wave", 60)))
    ]


@pytest.mark.parametrize("mode", SELECTION_MODES)
def test_default_step1_lattice(default_scenario, mode):
    lattice = [*map(tuple, (_lattice_parts(100.0, 4, 1.0) * 1.0).tolist())]
    assert len(lattice) == 8037
    assert mismatches(default_scenario.contestants, lattice, mode) == []


@pytest.mark.parametrize("mode", SELECTION_MODES)
def test_small_lattice(mode):
    scenario = build_scenario(SMALL)
    parts = _lattice_parts(SMALL.pool, SMALL.users, SMALL.search_step)
    lattice = [*map(tuple, (parts * SMALL.search_step).tolist())]
    assert mismatches(scenario.contestants, lattice, mode) == []


@pytest.mark.parametrize("mode", SELECTION_MODES)
def test_ragged_field(ragged_field, mode):
    assert [c.native_rate for c in ragged_field] == [12, 30, 60]
    assert mismatches(ragged_field, [*map(tuple, (_lattice_parts(30.0, 3, 1.0) * 1.0).tolist())], mode) == []


@pytest.mark.parametrize("mode", SELECTION_MODES)
def test_prize_vector_shorter_than_field(default_scenario, mode):
    vectors = [(100.0,), (60.0, 40.0), (50.0, 30.0, 20.0), (34.0, 33.0, 33.0)]
    assert mismatches(default_scenario.contestants, vectors, mode) == []
    kernel = BestResponse(default_scenario.contestants, mode)
    with pytest.raises(ValueError, match="count <= n"):
        kernel.efforts((20.0,) * 5)
    with pytest.raises(ValueError, match="count <= n"):
        kernel.rounds(np.array([20.0]), np.zeros((3, 5), dtype=np.int64), budget=20)


@pytest.mark.parametrize("mode", SELECTION_MODES)
def test_equal_split_ties_go_to_rate_one(default_scenario, mode):
    contestants = default_scenario.contestants
    pop = population_from(contestants)
    awards = AwardSetting((25.0,) * 4)
    # Every rate pays the same up to rounding, so the tie rule decides.
    for c in contestants:
        payments = [reference_payment(c.loss_table[f], awards, 4, pop) for f in c.effort_set]
        assert max(payments) - min(payments) <= SCORE_TIE_REL_TOL * 25.0
    assert mismatches(contestants, [awards.prizes], mode) == []
    assert BestResponse(contestants, mode).efforts(awards.prizes) == (1, 1, 1, 1)


def test_near_tie_below_one_goes_to_rate_one():
    # Payments this small differ by less than SCORE_TIE_REL_TOL, so the
    # tolerance's absolute floor, not its relative part, makes them ties.
    scenario = build_scenario(SMALL)
    kernel = BestResponse(scenario.contestants, "payment")
    assert kernel.efforts((1e-9, 0.0, 0.0)) == (1, 1, 1)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    st.lists(
        st.tuples(st.sampled_from(sorted(DEFAULT_PROFILES)), st.sampled_from([1, 2, 6, 12, 30, 60])),
        min_size=1,
        max_size=6,
    ),
    st.one_of(st.sampled_from([100.0, 10.0, 1.0]), st.floats(1e-3, 1e4)),
    st.sampled_from(SELECTION_MODES),
)
def test_equal_split_of_any_field_is_rate_one(users, pool, mode):
    # Every rate pays pool / n at an equal split, so the tie rule picks rate 1, and
    # any budget at or above the user count makes the equal-split start feasible.
    field = [
        ContestantState.from_sequence(i + 1, generate_synthetic(get_profile(kind), 2 * rate, rate, seed=i))
        for i, (kind, rate) in enumerate(users)
    ]
    n = len(field)
    assert BestResponse(field, mode).efforts((pool / n,) * n) == (1,) * n


@st.composite
def prize_rows(draw, count):
    """A non-increasing prize vector of count entries: drawn freely, -0.0 among
    them (AwardSetting accepts it, and a sum started from the first term instead
    of 0.0 would pay -0.0 for it), or an equal split whose entries step apart by
    a few ulps up to a few tie tolerances, so that rates' payments land on both
    sides of SCORE_TIE_REL_TOL."""
    pool = draw(st.one_of(st.sampled_from([100.0, 1.0]), st.floats(1e-3, 1e4)))
    if draw(st.booleans()):
        spread = draw(st.sampled_from([0.0, 1e-15, 1e-12, SCORE_TIE_REL_TOL, 3 * SCORE_TIE_REL_TOL, 1e-6]))
        prizes = [pool / count * (1.0 + spread * k) for k in range(count)]
    else:
        prizes = draw(st.lists(st.one_of(st.just(-0.0), st.floats(0.0, pool)), min_size=count, max_size=count))
    return tuple(sorted(prizes, reverse=True))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(ragged_fields(max_users=10), st.sampled_from(SELECTION_MODES), st.data())
def test_efforts_many_rows_match_the_scalar_loop(field, mode, data):
    # Ragged fields of 1-10 users with tied and near-tied losses; a block of
    # prize vectors of one length, up to the field's, in one _efforts call.
    count = data.draw(st.integers(1, len(field)))
    rows = data.draw(st.lists(prize_rows(count), min_size=1, max_size=6, unique=True))
    assert mismatches(field, rows, mode) == []

