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


def capability(sequence: SkeletonSequence, method: str = "hold") -> float:
    """How lossy a user's motion is when uploaded at the reference rate of 1 fps.

    Fast, large motion gives a high value; a statue gives the floor value.
    Higher capability also means a lower marginal cost of uploading.
    """
    return max(downsampling_loss(sequence, REFERENCE_RATE, method), CAPABILITY_FLOOR)


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


def utility(
    awards: AwardSetting, rank: int, capability_value: float, upload_rate: int
) -> float:
    """Realized payoff at a known final rank: prize (if any) minus effort cost."""
    if rank < 1:
        raise ValueError(f"rank is 1-based, got {rank!r}")
    c = cost(capability_value, upload_rate)
    if rank <= awards.count:
        return awards.prizes[rank - 1] - c
    return -c


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


def select_effort(
    contestant: ContestantState,
    awards: AwardSetting,
    population: PopulationModel,
    n_contestants: int,
    mode: str = "net",
) -> int:
    """The upload rate a rational user picks given the prize vector.

    Mode "net" maximizes expected payment minus effort cost; mode "payment"
    maximizes expected payment alone.  Ties go to the lowest rate.
    """
    if mode not in SELECTION_MODES:
        raise ValueError(f"unknown selection mode {mode!r}; expected one of {SELECTION_MODES}")
    best_rate = None
    best_score = 0.0
    for f in contestant.effort_set:
        score = expected_payment(contestant.loss_table[f], awards, n_contestants, population)
        if mode == "net":
            score -= cost(contestant.capability, f)
        if best_rate is None or score > best_score + SCORE_TIE_REL_TOL * max(1.0, abs(best_score)):
            best_rate = f
            best_score = score
    return best_rate


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


@dataclass(frozen=True)
class ContestOutcome:
    """Result of one simulated contest round, all tuples in enrollment order."""

    efforts: tuple[int, ...]
    ranking: tuple[int, ...]  # user_ids from rank 1 down
    prize_by_user: tuple[float, ...]
    per_user_loss: tuple[float, ...]
    total_loss: float
    feasible: bool


def simulate_contest(
    scenario: ScenarioConfig, population: PopulationModel | None = None
) -> ContestOutcome:
    """Play one round: users pick rates, ranks and prizes are assigned.

    Ranking is by upload rate (descending), ties by capability (descending),
    then by user_id (ascending).  The round is feasible when the summed upload
    rates fit the budget; prizes are assigned either way, the flag just
    records the violation.
    """
    pop = population if population is not None else population_from(scenario.contestants)
    efforts = tuple(
        select_effort(c, scenario.awards, pop, scenario.n_contestants, scenario.selection_mode)
        for c in scenario.contestants
    )
    order = sorted(
        range(scenario.n_contestants),
        key=lambda i: (-efforts[i], -scenario.contestants[i].capability, scenario.contestants[i].user_id),
    )
    ranking = tuple(scenario.contestants[i].user_id for i in order)
    prize_by_user = [0.0] * scenario.n_contestants
    for rank_index, i in enumerate(order):
        if rank_index < scenario.awards.count:
            prize_by_user[i] = scenario.awards.prizes[rank_index]
    per_user_loss = tuple(
        c.loss_table[f] for c, f in zip(scenario.contestants, efforts)
    )
    return ContestOutcome(
        efforts=efforts,
        ranking=ranking,
        prize_by_user=tuple(prize_by_user),
        per_user_loss=per_user_loss,
        total_loss=float(sum(per_user_loss)),
        feasible=sum(efforts) <= scenario.budget,
    )


def total_loss(outcome: ContestOutcome) -> float:
    """Summed rendering loss of one outcome."""
    return outcome.total_loss
