"""Upload-rate contest: costs, win odds, expected payments, effort choice.

Each user owns a keypoint clip and must pick an upload rate from the divisors
of their native capture rate.  A prize vector rewards the users who upload
fastest; uploading costs effort in proportion to the rate and in inverse
proportion to how lossy the user's motion is to begin with.  Rational users
pick the rate that maximizes their expected payoff, and the operator's job
(handled elsewhere) is to shape the prize vector so the induced upload rates
keep total rendering loss low inside an upload budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .skeleton import SkeletonSequence, downsampling_loss

# Loss at the reference rate can be exactly 0 (a perfectly still user); the
# floor keeps effort costs finite.
CAPABILITY_FLOOR = 1e-9

# Equal prize vectors make the expected payment provably constant across
# rates, but only up to float rounding; scores this close count as ties and
# the tie-break picks the cheapest rate.
SCORE_TIE_REL_TOL = 1e-9

SELECTION_MODES = ("net", "payment")

# Prize vectors per tie scan in BestResponse.rounds: enough to spread the per-scan overhead, few enough
# that malloc reuses a block's arrays (the default step-1 search is fastest at 512 of 256 to 2048).
_ROUND_BLOCK = 512

REFERENCE_RATE = 1


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n in increasing order."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"need a positive integer, got {n!r}")
    return tuple(d for d in range(1, n + 1) if n % d == 0)


def cost(capability_value: float, upload_rate: int) -> float:
    """Effort cost of sustaining an upload rate, increasing in the rate and
    decreasing in capability."""
    if not math.isfinite(capability_value) or capability_value <= 0:
        raise ValueError(f"capability must be positive, got {capability_value!r}")
    if upload_rate < 1:
        raise ValueError(f"upload_rate must be at least 1, got {upload_rate!r}")
    return upload_rate / capability_value


@dataclass(frozen=True)
class AwardSetting:
    """A non-increasing prize vector; position i is paid to contest rank i+1."""

    prizes: tuple[float, ...]

    def __post_init__(self):
        if len(self.prizes) == 0:
            raise ValueError("prize vector must be non-empty")
        prizes = tuple(float(p) for p in self.prizes)
        for p in prizes:
            if not math.isfinite(p) or p < 0:
                raise ValueError(f"prizes must be finite and non-negative, got {p!r}")
        for hi, lo in zip(prizes, prizes[1:]):
            if hi < lo:
                raise ValueError(f"prizes must be non-increasing, got {prizes}")
        object.__setattr__(self, "prizes", prizes)

    @property
    def pool(self) -> float:
        return float(sum(self.prizes))

    @property
    def count(self) -> int:
        return len(self.prizes)


@dataclass(frozen=True)
class PopulationModel:
    """Opponent capabilities are modelled as uniform on [0, max_capability]."""

    max_capability: float

    def __post_init__(self):
        if not math.isfinite(self.max_capability) or self.max_capability <= 0:
            raise ValueError(f"max_capability must be positive, got {self.max_capability!r}")


def win_cdf(loss_value: float, population: PopulationModel) -> float:
    """Probability that a single uniform opponent renders with a larger loss.

    Linear in the loss: 1 at loss 0, falling to 0 at the population maximum,
    clamped to [0, 1] beyond it.
    """
    if not math.isfinite(loss_value) or loss_value < 0:
        raise ValueError(f"loss must be finite and non-negative, got {loss_value!r}")
    p = (population.max_capability - loss_value) / population.max_capability
    return min(1.0, max(0.0, p))


def rank_factors(win: float, n_contestants: int) -> list[tuple[int, float, float]]:
    """Per-rank factors of the expected payment at single-opponent win odds win.

    Entry i, for rank i+1, is (C(n-1, i), win^(n-1-i), (1-win)^i): the ways to
    pick the i opponents who finish ahead, the chance of beating all the
    others, and the chance of losing to those i.
    """
    return [
        (math.comb(n_contestants - 1, i), win ** (n_contestants - 1 - i), (1.0 - win) ** i)
        for i in range(n_contestants)
    ]


def expected_payment(
    loss_value: float,
    awards: AwardSetting,
    n_contestants: int,
    population: PopulationModel,
) -> float:
    """Expected prize for a user whose rendered loss is loss_value.

    Against n_contestants - 1 independent uniform opponents, the chance of
    landing at rank i is binomial in the single-opponent win probability p:

        sum_i prizes[i-1] * C(n-1, i-1) * p^(n-i) * (1-p)^(i-1)

    With a full equal split the sum telescopes to pool / n for every loss.
    """
    if n_contestants < 1:
        raise ValueError("n_contestants must be at least 1")
    if awards.count > n_contestants:
        raise ValueError(
            f"{awards.count} prizes for {n_contestants} contestants; need count <= n"
        )
    factors = rank_factors(win_cdf(loss_value, population), n_contestants)
    total = 0.0
    for prize, (ways, win, lose) in zip(awards.prizes, factors):
        total += prize * ways * win * lose
    return total


@dataclass
class ContestantState:
    """One enrolled user: their id and their clip's rendering loss at every
    admissible upload rate.  The rest is derived once from loss_table: the
    native rate (its largest rate), the effort set (its rates, the divisors of
    the native rate) and the capability (the reference-rate loss, floored).
    """

    user_id: int
    loss_table: dict[int, float]
    native_rate: int = field(init=False)
    effort_set: tuple[int, ...] = field(init=False)
    capability: float = field(init=False)

    def __post_init__(self):
        if self.user_id < 0:
            raise ValueError("user_id must be non-negative")
        rates = tuple(sorted(self.loss_table))
        if not rates or rates != divisors(rates[-1]):
            raise ValueError("loss_table must cover exactly the divisors of its largest rate")
        self.native_rate, self.effort_set = rates[-1], rates
        self.capability = max(self.loss_table[REFERENCE_RATE], CAPABILITY_FLOOR)

    @classmethod
    def from_sequence(
        cls, user_id: int, sequence: SkeletonSequence, method: str = "hold"
    ) -> "ContestantState":
        return cls(user_id, {f: downsampling_loss(sequence, f, method) for f in divisors(sequence.native_rate)})


def population_from(contestants: list[ContestantState]) -> PopulationModel:
    """Calibrate the opponent model to the enrolled field."""
    if not contestants:
        raise ValueError("need at least one contestant")
    return PopulationModel(max(c.capability for c in contestants))


class BestResponse:
    """Every user's best-response upload rate on one field, for any prize vectors.

    The opponent model is calibrated to the field once (population_from), so
    the per-rank factors of expected_payment at every user's every rate, and
    the effort costs, are tabled once, rate-major.  A rank's payment term is
    worked out once per prize value; a vector's payments add its ranks' terms in
    expected_payment's order, bit for bit, and one tie scan serves many vectors.
    Mode "net" maximizes expected payment minus effort cost; mode "payment"
    maximizes expected payment alone.  Ties go to the lowest rate.
    """

    def __init__(self, contestants: list[ContestantState], mode: str = "net"):
        if mode not in SELECTION_MODES:
            raise ValueError(f"unknown selection mode {mode!r}; expected one of {SELECTION_MODES}")
        population = population_from(contestants)
        n_contestants = len(contestants)
        # Ragged effort sets are padded at the high end: rate 0, score NaN, which no comparison takes.
        shape = (max(len(c.effort_set) for c in contestants), n_contestants, 1)
        self._win, self._lose = np.zeros((2, n_contestants, *shape))  # rank, rate, user, 1
        self._rates = np.zeros(shape, dtype=np.int64)
        self._charge = np.full(shape, math.nan)
        self._loss = np.zeros((n_contestants, max(c.native_rate for c in contestants) + 1))
        for u, c in enumerate(contestants):
            self._loss[u, list(c.loss_table)] = list(c.loss_table.values())  # user, rate
            for r, f in enumerate(c.effort_set):
                factors = rank_factors(win_cdf(c.loss_table[f], population), n_contestants)
                _, self._win[:, r, u, 0], self._lose[:, r, u, 0] = zip(*factors)
                self._rates[r, u] = f
                self._charge[r, u] = cost(c.capability, f) if mode == "net" else 0.0
        self._win, self._lose = (f.reshape(n_contestants, 1, -1) for f in (self._win, self._lose))
        self._rates = list(self._rates)  # rate rows, so that a scan makes no views
        ways = [math.comb(n_contestants - 1, i) for i in range(n_contestants)]
        self._ways = np.array(ways, dtype=np.float64)[:, None, None]  # as float * int rounds the int

    def _payments(self, values: np.ndarray, index: np.ndarray) -> np.ndarray:
        """Expected payments, (rates, users, vectors), of the prize vectors values[index]."""
        ranks = index.shape[1]
        if ranks > len(self._ways):
            raise ValueError(f"{ranks} prizes for {len(self._ways)} users; need count <= n")
        # Each rank's term, ((prize * ways) * win) * lose in expected_payment's order, is tabled once
        # per prize value; a vector's payments add its ranks' terms from 0.0, rank by rank, as there.
        table = values[:, None] * self._ways[:ranks] * self._win[:ranks]
        table *= self._lose[:ranks]
        total = np.zeros((len(index), self._charge.size))
        for term, column in zip(table, index.T):
            total += term.take(column, axis=0)
        return np.ascontiguousarray(total.T).reshape(*self._charge.shape[:2], -1)

    def _efforts(self, values: np.ndarray, index: np.ndarray) -> np.ndarray:
        """The rate each user picks (columns, field order) for each prize vector values[index] (rows)."""
        scores = self._payments(values, index)
        scores -= self._charge
        # A later rate must clear the best score so far by the tie tolerance.
        clear = np.maximum(np.abs(scores), 1.0)
        clear *= SCORE_TIE_REL_TOL
        clear += scores
        chosen = np.empty(scores.shape[1:], dtype=np.int64)
        bar = np.full(scores.shape[1:], -math.inf)
        take = np.empty(bar.shape, dtype=bool)
        for score, threshold, rates in zip(scores, clear, self._rates):
            np.greater(score, bar, out=take)
            np.copyto(bar, threshold, where=take)
            np.copyto(chosen, rates, where=take)
        return chosen.T

    def efforts(self, prizes: tuple[float, ...]) -> tuple[int, ...]:
        """The rate each user picks, in field order, given the prize vector."""
        values = np.asarray(prizes, dtype=np.float64)  # one vector: its own values, in order
        return tuple(self._efforts(values, np.arange(len(values))[None])[0].tolist())

    def rounds(self, values: np.ndarray, index: np.ndarray, budget: int) -> Rounds:
        """The rounds of the prize vectors values[index] (index rows), as columns.  Each loss adds
        the users in field order from 0, as ScenarioConfig.round_loss does, so the two agree bit for bit."""
        blocks = (index[start:start + _ROUND_BLOCK] for start in range(0, len(index), _ROUND_BLOCK))
        efforts = np.concatenate([self._efforts(values, block) for block in blocks])
        losses = sum(table[column] for table, column in zip(self._loss, efforts.T))
        return Rounds(values[index], efforts, losses, efforts.sum(axis=1) <= budget)


@dataclass
class ScenarioConfig:
    """A full contest instance: the field, a budget of 1 frame/s per user or more, and the prize vector."""

    contestants: list[ContestantState]
    budget: int
    awards: AwardSetting
    selection_mode: str = "net"

    def __post_init__(self):
        if not self.contestants:
            raise ValueError("scenario needs at least one contestant")
        ids = [c.user_id for c in self.contestants]
        if len(set(ids)) != len(ids):
            raise ValueError("contestant user_ids must be unique")
        if self.budget < len(self.contestants):
            raise ValueError(f"budget {self.budget} is below the user count {len(self.contestants)}")
        if self.awards.count > len(self.contestants):
            raise ValueError("more prizes than contestants")
        if self.selection_mode not in SELECTION_MODES:
            raise ValueError(
                f"unknown selection mode {self.selection_mode!r}; expected one of {SELECTION_MODES}"
            )

    @property
    def n_contestants(self) -> int:
        return len(self.contestants)

    def with_awards(self, prizes: tuple[float, ...]) -> "ScenarioConfig":
        return replace(self, awards=AwardSetting(prizes))

    def round_loss(self, efforts: tuple[int, ...]) -> tuple[tuple[float, ...], float, bool]:
        """Per-user loss, total loss and feasibility at these rates; BestResponse.rounds' scalar reference."""
        per_user = tuple(c.loss_table[f] for c, f in zip(self.contestants, efforts))
        return per_user, float(sum(per_user)), sum(efforts) <= self.budget


class Round(NamedTuple):
    """One prize vector, the upload rates it induces, and that round's total
    loss and budget feasibility (a row of the Rounds that BestResponse.rounds makes)."""

    prizes: tuple[float, ...]
    efforts: tuple[int, ...]
    total_loss: float
    feasible: bool


@dataclass(frozen=True, eq=False)
class Rounds:
    """Rounds as columns, row i for prize vector i: prizes (v, n) float64, efforts (v, n) int64,
    total_loss (v,) float64, feasible (v,) bool.  Indexing, and so iteration, makes Round records."""

    prizes: np.ndarray
    efforts: np.ndarray
    total_loss: np.ndarray
    feasible: np.ndarray

    def __len__(self) -> int:
        return len(self.total_loss)

    def __getitem__(self, i: int) -> Round:
        return Round(tuple(self.prizes[i].tolist()), tuple(self.efforts[i].tolist()),
                     self.total_loss[i].item(), self.feasible[i].item())


@dataclass(frozen=True)
class ContestOutcome:
    """Result of one simulated contest round, all tuples in enrollment order."""

    efforts: tuple[int, ...]
    ranking: tuple[int, ...]  # user_ids from rank 1 down
    prize_by_user: tuple[float, ...]
    per_user_loss: tuple[float, ...]
    total_loss: float
    feasible: bool


def simulate_contest(scenario: ScenarioConfig) -> ContestOutcome:
    """Play one round: users pick rates, ranks and prizes are assigned.

    Ranking is by upload rate (descending), ties by capability (descending),
    then by user_id (ascending).  The round is feasible when the summed upload
    rates fit the budget; prizes are assigned either way, the flag just
    records the violation.
    """
    efforts = BestResponse(scenario.contestants, scenario.selection_mode).efforts(scenario.awards.prizes)
    order = sorted(
        range(scenario.n_contestants),
        key=lambda i: (-efforts[i], -scenario.contestants[i].capability, scenario.contestants[i].user_id),
    )
    ranking = tuple(scenario.contestants[i].user_id for i in order)
    prize_by_user = [0.0] * scenario.n_contestants
    for rank_index, i in enumerate(order):
        if rank_index < scenario.awards.count:
            prize_by_user[i] = scenario.awards.prizes[rank_index]
    return ContestOutcome(efforts, ranking, tuple(prize_by_user), *scenario.round_loss(efforts))
