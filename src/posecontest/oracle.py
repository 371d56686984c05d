"""Exhaustive baselines the learned prize policy is measured against."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .contest import BestResponse, ScenarioConfig, population_from

EFFORT_SEARCH_CAP = 10_000_000


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
    pop = population_from(scenario.contestants)
    responses = BestResponse(scenario.contestants, pop, scenario.n_contestants, scenario.selection_mode)
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


def exhaustive_effort_search(
    scenario: ScenarioConfig, cap: int = EFFORT_SEARCH_CAP
) -> tuple[tuple[int, ...], float]:
    """Lowest total loss over every admissible effort combination in budget.

    This ignores incentives entirely; it is the physical floor any prize
    vector is bounded by.  Refuses to enumerate more than cap combinations.
    """
    sizes = [len(c.effort_set) for c in scenario.contestants]
    combos = math.prod(sizes)
    if combos > cap:
        raise ValueError(f"search space {combos} exceeds cap {cap}")
    best_efforts = None
    best_loss = math.inf
    for efforts in itertools.product(*(c.effort_set for c in scenario.contestants)):
        if sum(efforts) > scenario.budget:
            continue
        loss = sum(c.loss_table[f] for c, f in zip(scenario.contestants, efforts))
        if loss < best_loss:
            best_efforts = efforts
            best_loss = loss
    if best_efforts is None:
        raise ValueError(
            f"budget {scenario.budget} is below the minimum total effort "
            f"{scenario.n_contestants}"
        )
    return best_efforts, float(best_loss)


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
