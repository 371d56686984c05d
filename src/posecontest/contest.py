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
from dataclasses import dataclass, replace

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
    """One enrolled user: their clip plus everything derived from it.

    loss_table caches the rendering loss at every admissible upload rate, so
    effort selection never re-renders the clip.
    """

    user_id: int
    sequence: SkeletonSequence
    native_rate: int
    effort_set: tuple[int, ...]
    capability: float
    loss_table: dict[int, float]

    def __post_init__(self):
        if self.user_id < 0:
            raise ValueError("user_id must be non-negative")
        if self.native_rate != self.sequence.native_rate:
            raise ValueError("native_rate must match the sequence")
        if tuple(self.effort_set) != divisors(self.native_rate):
            raise ValueError("effort_set must be the divisors of the native rate")
        if set(self.loss_table) != set(self.effort_set):
            raise ValueError("loss_table must cover exactly the effort set")
        if self.capability <= 0:
            raise ValueError("capability must be positive")

    @classmethod
    def from_sequence(
        cls, user_id: int, sequence: SkeletonSequence, method: str = "hold"
    ) -> "ContestantState":
        effort_set = divisors(sequence.native_rate)
        table = {f: downsampling_loss(sequence, f, method) for f in effort_set}
        return cls(
            user_id=user_id,
            sequence=sequence,
            native_rate=sequence.native_rate,
            effort_set=effort_set,
            capability=max(table[REFERENCE_RATE], CAPABILITY_FLOOR),
            loss_table=table,
        )


def population_from(contestants: list[ContestantState]) -> PopulationModel:
    """Calibrate the opponent model to the enrolled field."""
    if not contestants:
        raise ValueError("need at least one contestant")
    return PopulationModel(max(c.capability for c in contestants))


class BestResponse:
    """Every user's best-response upload rate on one field, for any prize vector.

    The opponent model is calibrated to the field once (population_from), so
    the per-rank factors of expected_payment at every user's every rate, and
    the effort costs, are tabled once.  Payments then accumulate rank by rank
    in expected_payment's own operation order, so the rates match the scalar
    path bit for bit.
    Mode "net" maximizes expected payment minus effort cost; mode "payment"
    maximizes expected payment alone.  Ties go to the lowest rate.
    """

    def __init__(self, contestants: list[ContestantState], mode: str = "net"):
        if mode not in SELECTION_MODES:
            raise ValueError(f"unknown selection mode {mode!r}; expected one of {SELECTION_MODES}")
        population = population_from(contestants)
        n_contestants = len(contestants)
        self.rates = [c.effort_set for c in contestants]
        # Ragged effort sets are padded on the right with scores of -inf.
        shape = (len(contestants), max(len(rates) for rates in self.rates))
        table = np.zeros((n_contestants, 2, *shape))  # rank, (win, lose), user, rate
        self._charge = np.full(shape, math.inf)
        for u, c in enumerate(contestants):
            for r, f in enumerate(c.effort_set):
                factors = rank_factors(win_cdf(c.loss_table[f], population), n_contestants)
                table[:, :, u, r] = [(win, lose) for _, win, lose in factors]
                self._charge[u, r] = cost(c.capability, f) if mode == "net" else 0.0
        self._ranks = [(math.comb(n_contestants - 1, i), *table[i]) for i in range(n_contestants)]

    def payments(self, prizes: tuple[float, ...]) -> np.ndarray:
        """Expected payment of each user (row) at each of their rates (column)."""
        if len(prizes) > len(self._ranks):
            raise ValueError(f"{len(prizes)} prizes for {len(self._ranks)} users; need count <= n")
        total = np.zeros(self._charge.shape)
        for prize, (ways, win, lose) in zip(prizes, self._ranks):
            total += float(prize) * ways * win * lose
        return total

    def efforts(self, prizes: tuple[float, ...]) -> tuple[int, ...]:
        """The rate each user picks, in field order, given the prize vector."""
        chosen = []
        for rates, scores in zip(self.rates, (self.payments(prizes) - self._charge).tolist()):
            bar = -math.inf  # later rates must clear the best score by the tie tolerance
            for f, score in zip(rates, scores):
                if score > bar:
                    best, bar = f, score + SCORE_TIE_REL_TOL * max(1.0, abs(score))
            chosen.append(best)
        return tuple(chosen)


@dataclass
class ScenarioConfig:
    """A full contest instance: the field, the budget, and the prize vector."""

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
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
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
        """Per-user loss, total loss and budget feasibility of a round at these rates."""
        per_user = tuple(c.loss_table[f] for c, f in zip(self.contestants, efforts))
        return per_user, float(sum(per_user)), sum(efforts) <= self.budget


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
