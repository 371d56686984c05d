"""The tabled best-response kernel against the scalar loop it replaced.

reference_payment and reference_select are verbatim copies of the scalar
expected_payment and select_effort as they stood before BestResponse
existed.  The kernel must compute exactly the same payments and pick exactly
the same rate for every user on every prize vector, so the comparisons below
are equalities, not tolerances.
"""

import math

import pytest

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
from posecontest.oracle import award_grid
from posecontest.skeleton import generate_synthetic, get_profile
from test_acceptance import SMALL


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


def mismatches(contestants, prize_vectors, mode):
    """Prize vectors on which the kernel and the scalar loop disagree, on a
    chosen rate or, to the last bit, on any expected payment."""
    pop = population_from(contestants)
    n = len(contestants)
    kernel = BestResponse(contestants, mode)
    bad = []
    for prizes in prize_vectors:
        awards = AwardSetting(prizes)
        expected = tuple(reference_select(c, awards, pop, n, mode) for c in contestants)
        paid = kernel.payments(prizes)
        if kernel.efforts(prizes) != expected or any(
            paid[u, r] != reference_payment(c.loss_table[f], awards, n, pop)
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
    lattice = award_grid(100.0, 4, 1.0)
    assert len(lattice) == 8037
    assert mismatches(default_scenario.contestants, lattice, mode) == []


@pytest.mark.parametrize("mode", SELECTION_MODES)
def test_small_lattice(mode):
    scenario = build_scenario(SMALL)
    lattice = award_grid(SMALL.pool, SMALL.users, SMALL.search_step)
    assert mismatches(scenario.contestants, lattice, mode) == []


@pytest.mark.parametrize("mode", SELECTION_MODES)
def test_ragged_field(ragged_field, mode):
    assert [c.native_rate for c in ragged_field] == [12, 30, 60]
    assert mismatches(ragged_field, award_grid(30.0, 3, 1.0), mode) == []


@pytest.mark.parametrize("mode", SELECTION_MODES)
def test_prize_vector_shorter_than_field(default_scenario, mode):
    vectors = [(100.0,), (60.0, 40.0), (50.0, 30.0, 20.0), (34.0, 33.0, 33.0)]
    assert mismatches(default_scenario.contestants, vectors, mode) == []
    kernel = BestResponse(default_scenario.contestants, mode)
    with pytest.raises(ValueError, match="count <= n"):
        kernel.efforts((20.0,) * 5)


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
