"""Contest mechanics: costs, win odds, payments, effort choice, simulation."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posecontest.config import RENDER_METHODS
from posecontest.contest import (
    CAPABILITY_FLOOR,
    SELECTION_MODES,
    AwardSetting,
    BestResponse,
    ContestantState,
    PopulationModel,
    Round,
    ScenarioConfig,
    cost,
    divisors,
    expected_payment,
    population_from,
    simulate_contest,
    win_cdf,
)
from posecontest.skeleton import DEFAULT_PROFILES, SkeletonSequence, generate_synthetic, get_profile


def make_contestant(user_id, kind="run", rate=6, frames=12, seed=0):
    seq = generate_synthetic(get_profile(kind), frames, rate, seed=seed)
    return ContestantState.from_sequence(user_id, seq)


class TestDivisors:
    def test_values(self):
        assert divisors(1) == (1,)
        assert divisors(12) == (1, 2, 3, 4, 6, 12)
        assert divisors(60) == (1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            divisors(0)
        with pytest.raises(ValueError):
            divisors(-3)
        with pytest.raises(ValueError):
            divisors(2.0)


class TestCostAndCapability:
    def test_cost_values(self):
        assert cost(2.0, 6) == 3.0
        assert cost(0.5, 1) == 2.0

    def test_cost_validation(self):
        with pytest.raises(ValueError):
            cost(0.0, 1)
        with pytest.raises(ValueError):
            cost(-1.0, 1)
        with pytest.raises(ValueError):
            cost(math.nan, 1)
        with pytest.raises(ValueError):
            cost(1.0, 0)

    def test_cost_directions(self):
        # more upload, more cost; more capability, less cost
        assert cost(1.0, 4) > cost(1.0, 2)
        assert cost(2.0, 4) < cost(1.0, 4)


class TestAwardSetting:
    def test_pool_and_count(self):
        awards = AwardSetting((50.0, 30.0, 20.0))
        assert awards.pool == 100.0
        assert awards.count == 3

    def test_must_be_non_increasing(self):
        AwardSetting((10.0, 10.0, 0.0))
        with pytest.raises(ValueError, match="non-increasing"):
            AwardSetting((10.0, 20.0))

    def test_rejects_bad_prizes(self):
        with pytest.raises(ValueError):
            AwardSetting(())
        with pytest.raises(ValueError):
            AwardSetting((10.0, -1.0))
        with pytest.raises(ValueError):
            AwardSetting((math.inf,))


class TestWinOdds:
    def test_population_validation(self):
        with pytest.raises(ValueError):
            PopulationModel(0.0)
        with pytest.raises(ValueError):
            PopulationModel(math.nan)

    def test_cdf_endpoints_and_clamp(self):
        pop = PopulationModel(4.0)
        assert win_cdf(0.0, pop) == 1.0
        assert win_cdf(2.0, pop) == 0.5
        assert win_cdf(4.0, pop) == 0.0
        assert win_cdf(9.0, pop) == 0.0

    def test_cdf_rejects_bad_loss(self):
        pop = PopulationModel(4.0)
        with pytest.raises(ValueError):
            win_cdf(-0.1, pop)
        with pytest.raises(ValueError):
            win_cdf(math.inf, pop)


class TestExpectedPayment:
    def test_hand_value(self):
        # four contestants, two equal prizes, even odds:
        # 50*C(3,0)*0.5^3 + 50*C(3,1)*0.5^3 = 6.25 + 18.75
        awards = AwardSetting((50.0, 50.0))
        pop = PopulationModel(4.0)
        assert expected_payment(2.0, awards, 4, pop) == pytest.approx(25.0, abs=1e-12)

    def test_sure_winner_and_sure_loser(self):
        awards = AwardSetting((70.0, 30.0))
        pop = PopulationModel(4.0)
        assert expected_payment(0.0, awards, 3, pop) == pytest.approx(70.0)
        # certain last place among 3, only 2 prizes
        assert expected_payment(4.0, awards, 3, pop) == pytest.approx(0.0)

    def test_full_equal_split_pays_pool_over_n(self):
        pop = PopulationModel(3.0)
        awards = AwardSetting((12.0,) * 4)
        rng = np.random.default_rng(17)
        for loss in rng.uniform(0.0, 4.0, size=50):
            assert expected_payment(float(loss), awards, 4, pop) == pytest.approx(12.0, abs=1e-9)

    def test_validation(self):
        awards = AwardSetting((10.0, 5.0))
        pop = PopulationModel(1.0)
        with pytest.raises(ValueError, match="count <= n"):
            expected_payment(0.5, awards, 1, pop)
        with pytest.raises(ValueError):
            expected_payment(0.5, awards, 0, pop)


class TestContestantState:
    def test_from_sequence(self):
        c = make_contestant(1, "dance", rate=6)
        assert c.effort_set == (1, 2, 3, 6)
        assert set(c.loss_table) == {1, 2, 3, 6}
        assert c.capability == max(c.loss_table[1], CAPABILITY_FLOOR)
        assert c.loss_table[6] == 0.0

    def test_capability_floor_for_static_clip(self):
        seq = SkeletonSequence(np.zeros((8, 2, 3)), 4)
        c = ContestantState.from_sequence(1, seq)
        assert c.loss_table[1] == 0.0
        assert c.capability == CAPABILITY_FLOOR

    def test_cross_validation(self):
        c = make_contestant(1)
        with pytest.raises(ValueError, match="cover exactly"):
            replace(c, loss_table={1: 0.0, 2: 0.0, 6: 0.0})
        with pytest.raises(ValueError, match="user_id"):
            replace(c, user_id=-1)

    @pytest.mark.parametrize("table", [{}, {2: 0.0}, {1: 0.0, 2: 0.0, 3: 0.0}])
    def test_table_must_be_divisors_of_its_largest_rate(self, table):
        with pytest.raises(ValueError, match="cover exactly"):
            ContestantState(1, table)

    @pytest.mark.parametrize("name", ["native_rate", "effort_set", "capability"])
    def test_derived_attributes_are_not_init_fields(self, name):
        c = make_contestant(1)
        with pytest.raises(TypeError):
            ContestantState(1, dict(c.loss_table), **{name: getattr(c, name)})
        with pytest.raises(ValueError, match="init=False"):
            replace(c, **{name: getattr(c, name)})

    def test_replace_rederives(self):
        c = replace(make_contestant(1), loss_table={1: 0.5, 2: 0.25, 4: 0.0})
        assert (c.native_rate, c.effort_set, c.capability) == (4, (1, 2, 4), 0.5)

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(
        st.sampled_from(sorted(DEFAULT_PROFILES)),
        st.integers(1, 60),
        st.sampled_from(RENDER_METHODS),
        st.integers(0, 2**32 - 1),
    )
    def test_derived_from_the_loss_table(self, kind, rate, method, seed):
        seq = generate_synthetic(get_profile(kind), 2 * rate, rate, seed=seed)
        c = ContestantState.from_sequence(1, seq, method)
        assert c.native_rate == seq.native_rate
        assert c.effort_set == divisors(rate)
        assert c.capability == max(c.loss_table[1], CAPABILITY_FLOOR)
        assert ContestantState(c.user_id, dict(c.loss_table)) == c

    def test_population_from(self):
        field = [make_contestant(1, "run"), make_contestant(2, "stand")]
        pop = population_from(field)
        assert pop.max_capability == max(c.capability for c in field)
        with pytest.raises(ValueError):
            population_from([])


def best_response(scenario, mode="net"):
    return BestResponse(scenario.contestants, mode)


class TestSelectEffort:
    def test_equal_prizes_pick_cheapest_rate(self, tiny_scenario):
        for mode in SELECTION_MODES:
            assert best_response(tiny_scenario, mode).efforts((4.0, 4.0, 4.0)) == (1, 1, 1)

    def test_payment_mode_ignores_cost(self, tiny_scenario):
        # a single big prize makes zero loss worth chasing when effort is free
        efforts = best_response(tiny_scenario, "payment").efforts((12.0, 0.0, 0.0))
        assert efforts == tuple(c.native_rate for c in tiny_scenario.contestants)

    def test_net_mode_charges_for_effort(self, tiny_scenario):
        by_id = {c.user_id: c for c in tiny_scenario.contestants}
        # the near-static user's cost of going fast dwarfs the prize
        stand = by_id[3]
        assert stand.capability < 0.1
        efforts = best_response(tiny_scenario, "net").efforts((12.0, 0.0, 0.0))
        assert efforts[tiny_scenario.contestants.index(stand)] == 1

    def test_result_is_admissible(self, tiny_scenario):
        kernel = best_response(tiny_scenario)
        rng = np.random.default_rng(5)
        for _ in range(20):
            cuts = np.sort(rng.integers(0, 13, size=2))
            parts = (12 - int(cuts[1]), int(cuts[1]) - int(cuts[0]), int(cuts[0]))
            prizes = tuple(sorted((float(p) for p in parts), reverse=True))
            for c, f in zip(tiny_scenario.contestants, kernel.efforts(prizes)):
                assert f in c.effort_set

    def test_unknown_mode(self, tiny_scenario):
        with pytest.raises(ValueError, match="unknown selection mode"):
            best_response(tiny_scenario, "greedy")


class TestScenarioConfig:
    def test_validation(self, tiny_scenario):
        with pytest.raises(ValueError, match="unique"):
            ScenarioConfig(
                contestants=[tiny_scenario.contestants[0]] * 2,
                budget=4,
                awards=AwardSetting((1.0, 1.0)),
            )
        with pytest.raises(ValueError, match="budget"):
            replace(tiny_scenario, budget=0)
        with pytest.raises(ValueError, match="more prizes"):
            tiny_scenario.with_awards((1.0,) * 4)
        with pytest.raises(ValueError, match="at least one"):
            replace(tiny_scenario, contestants=[])

    def test_budget_below_user_count(self, tiny_scenario):
        # Every user uploads at least 1 frame/s, so no round fits a budget under the
        # user count; the least budget fits the all-rate-1 round.
        with pytest.raises(ValueError, match=r"^budget 2 is below the user count 3$"):
            replace(tiny_scenario, budget=2)
        assert replace(tiny_scenario, budget=3).round_loss((1, 1, 1))[2]

    def test_with_awards(self, tiny_scenario):
        updated = tiny_scenario.with_awards((6.0, 6.0, 0.0))
        assert updated.awards.prizes == (6.0, 6.0, 0.0)
        assert updated.contestants is tiny_scenario.contestants
        assert tiny_scenario.awards.prizes == (4.0, 4.0, 4.0)


class TestRound:
    def test_fields_in_order(self):
        # The ledger, the env memo and PolicyEvaluation read these by name, and the
        # search ledger unpacks them by position.
        r = Round((6.0, 3.0), (2, 1), 1.5, True)
        assert Round._fields == ("prizes", "efforts", "total_loss", "feasible")
        assert tuple(r) == ((6.0, 3.0), (2, 1), 1.5, True)
        assert (r.prizes, r.efforts, r.total_loss, r.feasible) == tuple(r)


class TestSimulateContest:
    def test_outcome_is_consistent(self, tiny_scenario):
        outcome = simulate_contest(tiny_scenario)
        assert outcome.efforts == best_response(tiny_scenario).efforts(tiny_scenario.awards.prizes)
        for c, f, loss in zip(tiny_scenario.contestants, outcome.efforts, outcome.per_user_loss):
            assert loss == c.loss_table[f]
        assert outcome.total_loss == pytest.approx(sum(outcome.per_user_loss))
        assert outcome.feasible == (sum(outcome.efforts) <= tiny_scenario.budget)

    def test_ranking_and_prizes(self, tiny_scenario):
        scenario = tiny_scenario.with_awards((9.0, 3.0, 0.0))
        outcome = simulate_contest(scenario)
        by_id = {c.user_id: c for c in scenario.contestants}
        effort_of = dict(zip((c.user_id for c in scenario.contestants), outcome.efforts))
        ranked = list(outcome.ranking)
        assert sorted(ranked) == [1, 2, 3]
        for earlier, later in zip(ranked, ranked[1:]):
            key_a = (-effort_of[earlier], -by_id[earlier].capability, earlier)
            key_b = (-effort_of[later], -by_id[later].capability, later)
            assert key_a < key_b
        prize_of = dict(zip((c.user_id for c in scenario.contestants), outcome.prize_by_user))
        assert prize_of[ranked[0]] == 9.0
        assert prize_of[ranked[1]] == 3.0
        assert prize_of[ranked[2]] == 0.0

    def test_identical_users_rank_by_id(self):
        seq = generate_synthetic(get_profile("run"), 12, 6, seed=0)
        field = [ContestantState.from_sequence(i, seq) for i in (2, 1, 3)]
        scenario = ScenarioConfig(field, budget=18, awards=AwardSetting((6.0, 0.0, 0.0)))
        outcome = simulate_contest(scenario)
        assert outcome.efforts[0] == outcome.efforts[1] == outcome.efforts[2]
        assert outcome.ranking == (1, 2, 3)

    def test_infeasible_round_is_flagged(self, tiny_scenario):
        # push everyone to the native rate, then keep the budget one under it
        scenario = replace(
            tiny_scenario.with_awards((12.0, 0.0, 0.0)),
            selection_mode="payment",
            budget=17,
        )
        outcome = simulate_contest(scenario)
        assert outcome.efforts == (6, 6, 6)
        assert not outcome.feasible
