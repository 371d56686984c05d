"""Exhaustive baselines the learned prize policy is measured against."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .contest import BestResponse, ScenarioConfig


def award_grid(pool: float, n_contestants: int, step: float) -> tuple[tuple[float, ...], ...]:
    """All non-increasing prize vectors of length n summing to pool on a step lattice.

    step must evenly divide pool.  Vectors are returned in increasing
    lexicographic order.
    """
    if n_contestants < 1:
        raise ValueError("n_contestants must be at least 1")
    if not math.isfinite(step) or step <= 0:
        raise ValueError(f"step must be positive, got {step!r}")
    units = pool / step
    if abs(units - round(units)) > 1e-9:
        raise ValueError(f"step {step} does not divide pool {pool}")
    units = round(units)

    vectors: list[tuple[float, ...]] = []

    def descend(prefix: list[int], remaining: int, cap: int, slots: int) -> None:
        if slots == 0:
            if remaining == 0:
                vectors.append(tuple(u * step for u in prefix))
            return
        # Parts are non-increasing, so each slot is bounded by its predecessor.
        for u in range(min(cap, remaining), -1, -1):
            if u * slots < remaining:
                break
            descend(prefix + [u], remaining - u, u, slots - 1)

    descend([], units, units, n_contestants)
    return tuple(sorted(vectors))


@dataclass(frozen=True)
class SearchEntry:
    """One evaluated prize vector and the contest round it induced."""

    prizes: tuple[float, ...]
    efforts: tuple[int, ...]
    total_loss: float
    feasible: bool


@dataclass(frozen=True)
class AwardSearchResult:
    """Outcome of a full sweep over the prize lattice.

    best_prizes is None when no vector induced a feasible round; the flag
    distinguishes that from an error.
    """

    best_prizes: tuple[float, ...] | None
    best_total_loss: float
    best_efforts: tuple[int, ...] | None
    evaluated: int
    entries: tuple[SearchEntry, ...]

    @property
    def found_feasible(self) -> bool:
        return self.best_prizes is not None


def exhaustive_award_search(scenario: ScenarioConfig, step: float) -> AwardSearchResult:
    """Evaluate every lattice prize vector and keep the best feasible one.

    Best means lowest induced total loss; ties go to the lexicographically
    smallest prize vector.  The population model is calibrated once from the
    enrolled field so every vector is judged against the same opponents.
    """
    responses = BestResponse(scenario.contestants, scenario.selection_mode)
    entries = []
    best: SearchEntry | None = None
    for prizes in award_grid(scenario.awards.pool, scenario.n_contestants, step):
        efforts = responses.efforts(prizes)
        entry = SearchEntry(prizes, efforts, *scenario.round_loss(efforts)[1:])
        entries.append(entry)
        # The grid is in increasing order, so the first of equal losses is the smallest vector.
        if entry.feasible and (best is None or entry.total_loss < best.total_loss):
            best = entry
    if best is None:
        return AwardSearchResult(None, math.inf, None, len(entries), tuple(entries))
    return AwardSearchResult(
        best.prizes, best.total_loss, best.efforts, len(entries), tuple(entries)
    )


def exhaustive_effort_search(scenario: ScenarioConfig) -> tuple[tuple[int, ...], float]:
    """Lowest total loss over every admissible effort combination in budget.

    This ignores incentives entirely; it is the physical floor any prize
    vector is bounded by.  A multiple-choice knapsack over the budget adds
    users in field order and keeps, for each total rate spent, the least
    (loss, rates) pair.  Losses are summed in field order from 0 as in the
    round's own total, and rounded addition is monotone, so the minimum is
    the same float an enumeration finds.  Comparing whole pairs gives ties to
    the lexicographically smallest rates, unless only rounding made the tie:
    after 0.4 + 0.2 and 0.3 + 0.3, the smaller partial sum is kept.
    """
    best = {0: (0, ())}  # spent -> (prefix loss, prefix rates)
    for c in scenario.contestants:
        grown: dict[int, tuple] = {}
        for spent, (loss, rates) in best.items():
            for f in c.effort_set:
                if spent + f > scenario.budget:
                    break  # effort sets ascend, so every later rate is over too
                candidate = (loss + c.loss_table[f], rates + (f,))
                if spent + f not in grown or candidate < grown[spent + f]:
                    grown[spent + f] = candidate
        best = grown
    if not best:
        raise ValueError(
            f"budget {scenario.budget} is below the minimum total effort "
            f"{scenario.n_contestants}"
        )
    loss, efforts = min(best.values())
    return efforts, float(loss)


def average_baseline(scenario: ScenarioConfig) -> tuple[tuple[int, ...], float]:
    """Split the upload budget evenly: everyone gets budget/n, rounded down
    to their nearest admissible rate."""
    share = scenario.budget / scenario.n_contestants
    if share < 1:
        raise ValueError(
            f"budget {scenario.budget} gives no admissible rate for "
            f"{scenario.n_contestants} users"
        )
    efforts = tuple(
        max(f for f in c.effort_set if f <= share) for c in scenario.contestants
    )
    return efforts, scenario.round_loss(efforts)[1]


def format_search_ledger(result: AwardSearchResult) -> str:
    """Render a search result as CSV with one row per evaluated prize vector."""
    lines = ["awards,efforts,total_loss,feasible"]
    for e in result.entries:
        awards = " ".join(repr(p) for p in e.prizes)
        efforts = " ".join(str(f) for f in e.efforts)
        feasible = "true" if e.feasible else "false"
        lines.append(f"{awards},{efforts},{repr(e.total_loss)},{feasible}")
    return "\n".join(lines) + "\n"
