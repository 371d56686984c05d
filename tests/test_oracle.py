"""The prize-lattice search, the effort floor and the average-allocation baseline."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posecontest import contest
from posecontest.contest import (
    SELECTION_MODES,
    AwardSetting,
    BestResponse,
    ContestantState,
    ScenarioConfig,
    divisors,
    simulate_contest,
)
from posecontest.dqn import ContestEnv
from posecontest.oracle import (
    _lattice_parts,
    average_baseline,
    exhaustive_award_search,
    exhaustive_effort_search,
    format_search_ledger,
)
from posecontest.skeleton import DEFAULT_PROFILES, generate_synthetic, get_profile


def random_field(seed):
    """A seeded field of 2-4 users with native rates drawn from 6, 12 and 30,
    at budget n (every user at rate 1), a budget in between, and the summed
    native rates (no one held back)."""
    rng = np.random.default_rng(seed)
    contestants = []
    for i, rate in enumerate(rng.choice([6, 12, 30], size=rng.integers(2, 5)).tolist()):
        profile = get_profile(rng.choice(sorted(DEFAULT_PROFILES)))
        clip = generate_synthetic(profile, 2 * rate, rate, seed=seed)
        contestants.append(ContestantState.from_sequence(i + 1, clip, rng.choice(["hold", "linear"])))
    n, native = len(contestants), sum(c.native_rate for c in contestants)
    budgets = (n, int(rng.integers(n, native + 1)), native)
    return [ScenarioConfig(contestants, b, AwardSetting((1.0,) * n)) for b in budgets]


@st.composite
def ragged_fields(draw, max_users=6):
    """1 to max_users users with unlike native rates and loss tables drawn
    directly, often from a few dyadic values so that users and rates tie exactly."""
    losses = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 10.0))
    rates = draw(st.lists(st.sampled_from([1, 2, 4, 6, 12, 30]), min_size=1, max_size=max_users))
    return [ContestantState(i + 1, {f: draw(losses) for f in divisors(r)}) for i, r in enumerate(rates)]


def reference_search_ledger(result):
    """format_search_ledger's reference: the ledger formatted row by row from the Round
    records that iterating the result's entries makes."""
    rows = [
        f"{' '.join(map(repr, prizes))},{' '.join(map(str, efforts))},{total_loss!r},"
        f"{'true' if feasible else 'false'}"
        for prizes, efforts, total_loss, feasible in result.entries
    ]
    return "\n".join(["awards,efforts,total_loss,feasible", *rows]) + "\n"


class TestAwardGrid:
    def test_small_case_enumerated_by_hand(self):
        grid = [*map(tuple, (_lattice_parts(30.0, 3, 5.0) * 5.0).tolist())]
        expected = {
            (30.0, 0.0, 0.0),
            (25.0, 5.0, 0.0),
            (20.0, 10.0, 0.0),
            (20.0, 5.0, 5.0),
            (15.0, 15.0, 0.0),
            (15.0, 10.0, 5.0),
            (10.0, 10.0, 10.0),
        }
        assert set(grid) == expected
        assert grid == sorted(grid)

    def test_matches_filtered_product(self):
        # independent enumeration: all compositions, kept when sorted
        cases = ((12.0, 2, 3.0), (20.0, 4, 5.0), (6.0, 3, 1.0), (10.0, 5, 1.0), (7.0, 1, 1.0))
        for pool, n, step in cases:
            units = int(pool / step)
            brute = {
                tuple(u * step for u in combo)
                for combo in itertools.product(range(units + 1), repeat=n)
                if sum(combo) == units and all(a >= b for a, b in zip(combo, combo[1:]))
            }
            grid = [*map(tuple, (_lattice_parts(pool, n, step) * step).tolist())]
            assert len(grid) == len(brute) and set(grid) == brute
            assert grid == sorted(grid)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.integers(1, 5), st.integers(0, 9), st.sampled_from([1.0, 5.0, 2.5, 0.7, 0.1, 1 / 3]))
    def test_matches_filtered_product_for_any_lattice(self, n, units, step):
        parts = _lattice_parts(units * step, n, step)
        assert parts.dtype == np.int64 and parts.shape[1] == n
        grid = parts * step
        brute = sorted(
            tuple(u * step for u in combo)
            for combo in itertools.product(range(units + 1), repeat=n)
            if sum(combo) == units and all(a >= b for a, b in zip(combo, combo[1:]))
        )
        # Equal to the sorted distinct vectors: the same set, ascending, no duplicates.
        assert [*map(tuple, grid.tolist())] == brute

    def test_entries_are_valid_prize_vectors(self):
        for entry in _lattice_parts(100.0, 4, 5.0) * 5.0:
            assert len(entry) == 4
            assert sum(entry) == pytest.approx(100.0)
            assert all(a >= b for a, b in zip(entry, entry[1:]))
            assert entry[-1] >= 0.0

    def test_single_slot(self):
        parts = _lattice_parts(10.0, 1, 5.0)
        assert parts.dtype == np.int64 and parts.tolist() == [[2]]

    def test_validation(self):
        with pytest.raises(ValueError, match="does not divide"):
            _lattice_parts(10.0, 2, 3.0)
        with pytest.raises(ValueError):
            _lattice_parts(10.0, 0, 5.0)
        with pytest.raises(ValueError):
            _lattice_parts(10.0, 2, 0.0)
        with pytest.raises(ValueError):
            _lattice_parts(10.0, 2, math.inf)
        # More units than int64 holds, including a pool / step that overflows to inf.
        for pool, step in ((10.0, 1e-20), (1e300, 5.0), (1e300, 1e-20), (2.0**63, 1.0)):
            with pytest.raises(ValueError, match="more units than int64 holds"):
                _lattice_parts(pool, 2, step)


class TestAwardSearch:
    def test_finds_the_grid_minimum(self, tiny_scenario):
        result = exhaustive_award_search(tiny_scenario, 3.0)
        grid = [*map(tuple, (_lattice_parts(12.0, 3, 3.0) * 3.0).tolist())]
        assert result.evaluated == len(grid) == len(result.entries)

        feasible = []
        for prizes in grid:
            outcome = simulate_contest(tiny_scenario.with_awards(prizes))
            if outcome.feasible:
                feasible.append((outcome.total_loss, prizes, outcome.efforts))
        assert result.found_feasible == bool(feasible)
        best = min(feasible)
        assert result.best_total_loss == best[0]
        assert result.best_prizes == best[1]
        assert result.best_efforts == best[2]

    def test_entries_align_with_grid(self, tiny_scenario):
        result = exhaustive_award_search(tiny_scenario, 6.0)
        grid = _lattice_parts(12.0, 3, 6.0) * 6.0
        assert [e.prizes for e in result.entries] == [*map(tuple, grid.tolist())]
        for e in result.entries:
            outcome = simulate_contest(tiny_scenario.with_awards(e.prizes))
            assert e.efforts == outcome.efforts
            assert e.total_loss == outcome.total_loss
            assert e.feasible == outcome.feasible

    def test_nothing_feasible(self, tiny_scenario):
        # The least budget, 3, fits only rate 1 for all three users, and no vector
        # on the step-6 lattice induces it: the equal split (4, 4, 4) is off it.
        squeezed = replace(tiny_scenario, budget=3)
        result = exhaustive_award_search(squeezed, 6.0)
        assert not result.found_feasible
        assert result.best_prizes is None
        assert result.best_efforts is None
        assert result.best_total_loss == math.inf
        assert result.evaluated > 0

    def test_tie_breaks_to_smallest_prizes(self, tiny_scenario):
        result = exhaustive_award_search(tiny_scenario, 3.0)
        ties = [
            e.prizes
            for e in result.entries
            if e.feasible and e.total_loss == result.best_total_loss
        ]
        assert result.best_prizes == min(ties)

    def test_wide_field_across_blocks(self, monkeypatch):
        # Ten users, so a pairwise ndarray.sum would add the losses in another
        # order than round_loss; five vectors a block split the 42-vector grid.
        rng = np.random.default_rng(9)
        field = [
            ContestantState.from_sequence(
                i + 1,
                generate_synthetic(get_profile(kind), 2 * rate, rate, seed=i),
                ("hold", "linear")[i % 2],
            )
            for i, (kind, rate) in enumerate(
                zip(rng.choice(sorted(DEFAULT_PROFILES), 10), rng.choice([6, 12], 10).tolist())
            )
        ]
        scenario = ScenarioConfig(field, 25, AwardSetting((2.7,) * 10))
        monkeypatch.setattr(contest, "_ROUND_BLOCK", 5)
        result = exhaustive_award_search(scenario, 2.7)
        assert result.evaluated == len(_lattice_parts(scenario.awards.pool, 10, 2.7)) == 42
        kernel = BestResponse(field)
        for e in result.entries:
            assert e.efforts == kernel.efforts(e.prizes)
            assert all(type(f) is int for f in e.efforts)
            assert e.total_loss == scenario.round_loss(e.efforts)[1]
            assert type(e.total_loss) is float
            assert type(e.feasible) is bool
            assert e.feasible == scenario.round_loss(e.efforts)[2]
        feasible = [e for e in result.entries if e.feasible]
        assert feasible and len(feasible) < len(result.entries)
        best = min(feasible, key=lambda e: e.total_loss)  # the first of equal losses
        assert (result.best_prizes, result.best_total_loss) == (best.prizes, best.total_loss)
        assert "np." not in format_search_ledger(result)

    @settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @given(st.integers(0, 2**16), st.sampled_from([1.0, 2.5, 0.7]), st.integers(1, 8),
           st.sampled_from(SELECTION_MODES))
    def test_env_rounds_equal_search_entries(self, seed, step, units, mode):
        # The env and the award search both produce contest.Round; they must
        # agree field for field, Python types included, on every lattice vector.
        scenario = replace(random_field(seed)[1], selection_mode=mode)
        n = scenario.n_contestants
        scenario = scenario.with_awards((units * step / n,) * n)
        result = exhaustive_award_search(scenario, step)
        env = ContestEnv(scenario)
        for e in result.entries:
            got = env._state(e.prizes)
            assert got == e
            assert [type(v) for v in (*got.efforts, got.total_loss, got.feasible)] == [
                type(v) for v in (*e.efforts, e.total_loss, e.feasible)
            ]


    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(ragged_fields(), st.sampled_from(SELECTION_MODES), st.sampled_from([1.0, 2.5, 0.7]),
           st.integers(1, 12), st.floats(0.0, 1.0))
    def test_any_block_size_matches_kernel_and_round_loss(self, field, mode, step, units, spare):
        n = len(field)
        budget = n + round(spare * sum(c.native_rate - 1 for c in field))
        scenario = ScenarioConfig(field, budget, AwardSetting((units * step / n,) * n), mode)
        grid = [*map(tuple, (_lattice_parts(scenario.awards.pool, n, step) * step).tolist())]
        kernel = BestResponse(field, mode)
        for block in (1, 2, 7):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(contest, "_ROUND_BLOCK", block)
                result = exhaustive_award_search(scenario, step)
            assert [e.prizes for e in result.entries] == grid
            assert result.evaluated == len(grid)
            best = None
            for e in result.entries:
                assert e.efforts == kernel.efforts(e.prizes)
                assert (e.total_loss, e.feasible) == scenario.round_loss(e.efforts)[1:]
                assert [type(v) for v in (*e.prizes, *e.efforts, e.total_loss, e.feasible)] == (
                    [float] * n + [int] * n + [float, bool]
                )
                if e.feasible and (best is None or e.total_loss < best.total_loss):
                    best = e  # the first of equal losses
            found = (None, math.inf, None) if best is None else (best.prizes, best.total_loss, best.efforts)
            assert (result.best_prizes, result.best_total_loss, result.best_efforts) == found
            assert format_search_ledger(result) == reference_search_ledger(result)

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(ragged_fields(), st.sampled_from(SELECTION_MODES), st.sampled_from([2.7, 0.1, 1 / 3, 1.0]),
           st.integers(1, 12), st.floats(0.0, 1.0))
    def test_factored_lattice_matches_materialised_rows(self, field, mode, step, units, spare):
        # The search passes the lattice as its prize values and each vector's integer parts;
        # its rounds must be those of the materialised rows parts * step, prizes to the bit.
        n = len(field)
        budget = n + round(spare * sum(c.native_rate - 1 for c in field))
        scenario = ScenarioConfig(field, budget, AwardSetting((units * step / n,) * n), mode)
        parts = _lattice_parts(scenario.awards.pool, n, step)
        grid = parts * step
        values = np.arange(parts.max() + 1) * step
        assert values[parts].tobytes() == grid.tobytes()
        result = exhaustive_award_search(scenario, step)
        assert result.entries.prizes.tobytes() == grid.tobytes() and result.entries.prizes.shape == grid.shape
        kernel = BestResponse(field, mode)
        efforts = np.array([kernel.efforts(row) for row in grid.tolist()])
        assert np.array_equal(result.entries.efforts, efforts)
        for e, row in zip(result.entries, efforts.tolist()):
            assert (e.total_loss, e.feasible) == scenario.round_loss(tuple(row))[1:]


class TestEffortSearch:
    def test_matches_brute_force(self, tiny_scenario):
        # Seed 5 gives a ragged field with native rates 6, 12 and 30.
        scenarios = [tiny_scenario] + [s for seed in range(12) for s in random_field(seed)]
        for i, scenario in enumerate(scenarios):
            efforts, loss = exhaustive_effort_search(scenario)
            sets = [c.effort_set for c in scenario.contestants]
            best = min(
                (sum(c.loss_table[f] for c, f in zip(scenario.contestants, combo)), combo)
                for combo in itertools.product(*sets)
                if sum(combo) <= scenario.budget
            )
            assert (loss, efforts) == best, i

    def test_exact_ties_go_to_smallest_rates(self):
        # Dyadic losses sum exactly: (1, 4, 2), (2, 1, 4) and (2, 4, 1) all lose 1.75.
        tables = ((0.5, 0.25, 0.25), (1.0, 1.0, 0.5), (1.0, 0.75, 0.5))
        field = [ContestantState(i + 1, dict(zip((1, 2, 4), t))) for i, t in enumerate(tables)]
        scenario = ScenarioConfig(field, 7, AwardSetting((1.0,) * 3))
        assert exhaustive_effort_search(scenario) == ((1, 4, 2), 1.75)

    def test_beats_or_matches_any_award_setting(self, tiny_scenario):
        _, floor_loss = exhaustive_effort_search(tiny_scenario)
        result = exhaustive_award_search(tiny_scenario, 3.0)
        assert floor_loss <= result.best_total_loss

    def test_budget_below_minimum(self, tiny_scenario):
        # A budget under the minimum total effort (1 frame/s per user) is refused
        # when the scenario is built; the least budget fits only the all-rate-1 round.
        with pytest.raises(ValueError, match="below the user count"):
            replace(tiny_scenario, budget=2)
        least = replace(tiny_scenario, budget=3)
        assert exhaustive_effort_search(least) == (
            (1, 1, 1),
            sum(c.loss_table[1] for c in tiny_scenario.contestants),
        )

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(ragged_fields(max_users=5), st.floats(0.0, 1.0), st.integers(0, 2))
    def test_matches_brute_force_on_any_field(self, field, spare, extra):
        # Budgets from the user count, where only rate 1 for everyone fits, to
        # beyond the summed native rates, where every profile does.
        n = len(field)
        budget = n + round(spare * sum(c.native_rate - 1 for c in field)) + extra
        scenario = ScenarioConfig(field, budget, AwardSetting((1.0,) * n))
        best = min(
            (sum(c.loss_table[f] for c, f in zip(field, combo)), combo)
            for combo in itertools.product(*(c.effort_set for c in field))
            if sum(combo) <= budget
        )
        assert exhaustive_effort_search(scenario) == best[::-1]


class TestAverageBaseline:
    def test_share_rounds_down_to_divisor(self, tiny_scenario):
        efforts, loss = average_baseline(tiny_scenario)
        # budget 9 over 3 users gives a share of 3, itself a divisor of 6
        assert efforts == (3, 3, 3)
        assert loss == pytest.approx(
            sum(c.loss_table[3] for c in tiny_scenario.contestants)
        )

    def test_non_divisor_share(self, tiny_scenario):
        # share 4 is not a divisor of 6, so everyone drops to 3
        bumped = replace(tiny_scenario, budget=12)
        efforts, _ = average_baseline(bumped)
        assert efforts == (3, 3, 3)

    def test_share_below_one(self, tiny_scenario):
        # A share below 1 frame/s cannot be built; at the least budget the share is
        # exactly 1 and every user takes rate 1.
        with pytest.raises(ValueError, match="below the user count"):
            replace(tiny_scenario, budget=2)
        efforts, loss = average_baseline(replace(tiny_scenario, budget=3))
        assert efforts == (1, 1, 1)
        assert loss == pytest.approx(sum(c.loss_table[1] for c in tiny_scenario.contestants))

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(ragged_fields(max_users=5), st.floats(0.0, 1.0), st.integers(0, 2))
    def test_defined_on_any_field(self, field, spare, extra):
        n = len(field)
        budget = n + round(spare * sum(c.native_rate - 1 for c in field)) + extra
        scenario = ScenarioConfig(field, budget, AwardSetting((1.0,) * n))
        efforts, loss = average_baseline(scenario)
        # Each user's largest rate within an even share of the budget; rate 1 always is.
        assert efforts == tuple(max(f for f in c.effort_set if f * n <= budget) for c in field)
        assert scenario.round_loss(efforts)[1:] == (loss, True)


class TestLedgerFormat:
    def test_csv_layout(self, tiny_scenario):
        result = exhaustive_award_search(tiny_scenario, 6.0)
        text = format_search_ledger(result)
        lines = text.strip().split("\n")
        assert lines[0] == "awards,efforts,total_loss,feasible"
        assert len(lines) == 1 + result.evaluated
        first = lines[1].split(",")
        assert len(first) == 4
        assert len(first[0].split(" ")) == 3
        assert len(first[1].split(" ")) == 3
        float(first[2])
        assert first[3] in ("true", "false")
