"""Exhaustive baselines the learned prize policy is measured against."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contest import BestResponse, Rounds, ScenarioConfig


def _lattice_parts(pool: float, n_contestants: int, step: float) -> np.ndarray:
    """All non-increasing prize vectors of length n summing to pool, in units of step, which must
    divide pool: one per row of a (vectors, n) int64 array, rows in ascending lexicographic order."""
    if n_contestants < 1:
        raise ValueError("n_contestants must be at least 1")
    if not math.isfinite(step) or step <= 0:
        raise ValueError(f"step must be positive, got {step!r}")
    units = pool / step
    if units >= 2**63:
        raise ValueError(f"step {step} cuts pool {pool} into more units than int64 holds")
    if abs(units - round(units)) > 1e-9:
        raise ValueError(f"step {step} does not divide pool {pool}")
    # Slot by slot, each prefix row extends by every part from the least that still fits the
    # remaining slots up to the part before it, ascending, so the rows stay sorted.
    parts = np.zeros((1, 0), dtype=np.int64)
    left = cap = np.array([round(units)])
    for slots in range(n_contestants, 0, -1):
        least = -(-left // slots)
        counts = np.minimum(cap, left) - least + 1
        rows = np.repeat(np.arange(len(parts)), counts)
        part = least[rows] + np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
        parts = np.column_stack([parts[rows], part])
        left, cap = left[rows] - part, part
    return parts


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
    entries: Rounds

    @property
    def found_feasible(self) -> bool:
        return self.best_prizes is not None


def exhaustive_award_search(scenario: ScenarioConfig, step: float) -> AwardSearchResult:
    """Evaluate every lattice prize vector and keep the best feasible one.

    Best means lowest induced total loss; ties go to the lexicographically
    smallest prize vector.  The population model is calibrated once from the
    enrolled field so every vector is judged against the same opponents.
    """
    # The lattice goes in factored: values[parts] is parts * step, bit for bit.
    parts = _lattice_parts(scenario.awards.pool, scenario.n_contestants, step)
    values = np.arange(parts.max() + 1) * step
    entries = BestResponse(scenario.contestants, scenario.selection_mode).rounds(values, parts, scenario.budget)
    rows = np.flatnonzero(entries.feasible)
    # argmin keeps the first of equal losses, and the grid ascends, so the smallest vector wins a tie.
    best = entries[rows[np.argmin(entries.total_loss[rows])]] if rows.size else None
    found = (None, math.inf, None) if best is None else (best.prizes, best.total_loss, best.efforts)
    return AwardSearchResult(*found, len(entries), entries)


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
    loss, efforts = min(best.values())
    return efforts, float(loss)


def average_baseline(scenario: ScenarioConfig) -> tuple[tuple[int, ...], float]:
    """Split the upload budget evenly: everyone gets budget/n, rounded down
    to their nearest admissible rate."""
    share = scenario.budget / scenario.n_contestants
    efforts = tuple(
        max(f for f in c.effort_set if f <= share) for c in scenario.contestants
    )
    return efforts, scenario.round_loss(efforts)[1]


def format_search_ledger(result: AwardSearchResult) -> str:
    """Render a search result as CSV with one row per evaluated prize vector."""
    e = result.entries
    # Format each distinct prize once (a lattice holds no -0.0, which would key as 0.0), and each
    # distinct efforts row's tail once: a row's loss and feasibility follow from its efforts.
    prize = {p: repr(p) for p in np.unique(e.prizes).tolist()}
    efforts, first, tail_of = np.unique(e.efforts, axis=0, return_index=True, return_inverse=True)
    columns = efforts.tolist(), e.total_loss[first].tolist(), e.feasible[first].tolist()
    tails = [f"{' '.join(map(str, r))},{loss!r},{'true' if ok else 'false'}" for r, loss, ok in zip(*columns)]
    rows = [f"{' '.join(map(prize.__getitem__, p))},{tails[k]}" for p, k in zip(e.prizes.tolist(), tail_of.tolist())]
    return "\n".join(["awards,efforts,total_loss,feasible", *rows]) + "\n"
