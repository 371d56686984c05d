"""Deep Q-learning over prize re-allocation, built from scratch on numpy.

The agent nudges the contest prize vector one unit at a time: an action moves
single units of prize money between ranks without changing the pool.  After
every move the users re-pick their upload rates, and the reward is high when
the induced rates render well inside the upload budget.  The value network is
a small fully connected ReLU net trained by plain stochastic gradient descent
against a periodically synced target copy.
"""

from __future__ import annotations

import itertools
import math
import struct
import zlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .contest import BestResponse, ScenarioConfig

REWARD_MODES = ("strict", "full_budget")

# A perfect zero-loss round would make the inverse reward blow up.
REWARD_LOSS_FLOOR = 1e-9

_POOL_TOL = 1e-9

POLICY_MAGIC = b"QNET"
POLICY_VERSION = 1


def _substream(seed: int, name: str) -> np.random.Generator:
    # Named substreams keep exploration, init, and sampling decoupled while
    # still flowing from the single run seed.
    return np.random.default_rng((seed, zlib.crc32(name.encode("ascii"))))


def enumerate_actions(n_contestants: int) -> tuple[tuple[int, ...], ...]:
    """All zero-sum moves in {-1, 0, +1}^n, in lexicographic order.

    Zero-sum keeps the prize pool constant; for four contestants there are
    exactly 19 such moves.
    """
    if n_contestants < 1:
        raise ValueError("n_contestants must be at least 1")
    return tuple(
        move
        for move in itertools.product((-1, 0, 1), repeat=n_contestants)
        if sum(move) == 0
    )


def apply_action(prizes: tuple[float, ...], action: tuple[int, ...]) -> tuple[float, ...]:
    """Shift prize units as the action dictates, keeping the vector sorted.

    If any entry would go negative the whole move is a no-op and the input is
    returned unchanged.  Otherwise the shifted vector is re-sorted
    non-increasing, since prizes are paid by rank.
    """
    if len(prizes) != len(action):
        raise ValueError(f"prize/action length mismatch: {len(prizes)} vs {len(action)}")
    moved = tuple(p + d for p, d in zip(prizes, action))
    if any(p < 0 for p in moved):
        return tuple(prizes)
    return tuple(sorted(moved, reverse=True))


def reward(
    efforts: tuple[int, ...],
    prizes: tuple[float, ...],
    total_loss: float,
    budget: int,
    pool: float,
    mode: str = "strict",
    scale: float = 1.0,
) -> float:
    """Scalar feedback for one contest round: scale / total loss, or 0.

    Mode "strict" zeroes the reward when the summed upload rates exceed the
    budget or the prize vector does not sum to the pool.  Mode "full_budget"
    instead zeroes it when the budget is left unsaturated or the pool is
    exceeded, i.e. it insists every upload slot gets used.
    """
    if mode not in REWARD_MODES:
        raise ValueError(f"unknown reward mode {mode!r}; expected one of {REWARD_MODES}")
    total_effort = sum(efforts)
    paid = sum(prizes)
    tol = _POOL_TOL * max(1.0, abs(pool))
    if mode == "strict":
        violated = total_effort > budget or abs(paid - pool) > tol
    else:
        violated = total_effort < budget or paid > pool + tol
    if violated:
        return 0.0
    return scale / max(total_loss, REWARD_LOSS_FLOOR)


@dataclass(frozen=True)
class EnvState:
    """Prize vector, the upload rates it induces, and that round's total loss
    and budget feasibility."""

    prizes: tuple[float, ...]
    efforts: tuple[int, ...]
    total_loss: float
    feasible: bool


class ContestEnv:
    """The contest scenario viewed as a deterministic decision process."""

    def __init__(
        self,
        scenario: ScenarioConfig,
        reward_mode: str = "strict",
        reward_scale: float = 1.0,
    ):
        if reward_mode not in REWARD_MODES:
            raise ValueError(f"unknown reward mode {reward_mode!r}; expected one of {REWARD_MODES}")
        if not math.isfinite(reward_scale) or reward_scale <= 0:
            raise ValueError(f"reward_scale must be positive, got {reward_scale!r}")
        if scenario.awards.pool <= 0:
            raise ValueError("prize pool must be positive")
        self.scenario = scenario
        self.reward_mode = reward_mode
        self.reward_scale = reward_scale
        self.actions = enumerate_actions(scenario.n_contestants)
        self.pool = scenario.awards.pool
        self._rates = np.array([c.native_rate for c in scenario.contestants], dtype=np.float64)
        self.responses = BestResponse(scenario.contestants, scenario.selection_mode)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    @property
    def state_size(self) -> int:
        return 2 * self.scenario.n_contestants

    def initial_state(self) -> EnvState:
        """Equal split: the neutral, pool-preserving starting point."""
        n = self.scenario.n_contestants
        return self._state((self.pool / n,) * n)

    def step(self, state: EnvState, action: tuple[int, ...]) -> tuple[EnvState, float]:
        """Apply one prize move, let users re-pick rates, score the round."""
        nxt = self._state(apply_action(state.prizes, action))
        r = reward(
            nxt.efforts, nxt.prizes, nxt.total_loss, self.scenario.budget, self.pool,
            self.reward_mode, self.reward_scale,
        )
        return nxt, r

    def _state(self, prizes: tuple[float, ...]) -> EnvState:
        # The one place a state's round is scored.
        efforts = self.responses.efforts(prizes)
        return EnvState(prizes, efforts, *self.scenario.round_loss(efforts)[1:])

    def state_vector(self, state: EnvState) -> np.ndarray:
        """Network input: prizes normalized by pool, rates by native rate."""
        prizes = np.asarray(state.prizes, dtype=np.float64) / self.pool
        efforts = np.asarray(state.efforts, dtype=np.float64) / self._rates
        return np.concatenate([prizes, efforts])


class Mlp:
    """Fully connected ReLU network with a linear output layer, float64.

    Weights use He initialization when an RNG is given, zeros otherwise
    (deserialization fills them in).
    """

    def __init__(self, layer_sizes: tuple[int, ...], rng: np.random.Generator | None = None):
        sizes = tuple(int(s) for s in layer_sizes)
        if len(sizes) < 2:
            raise ValueError("need at least an input and an output layer")
        if any(s < 1 for s in sizes):
            raise ValueError(f"layer sizes must be positive, got {sizes}")
        self.layer_sizes = sizes
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            if rng is None:
                w = np.zeros((fan_in, fan_out))
            else:
                w = rng.normal(0.0, math.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
            self.weights.append(w)
            self.biases.append(np.zeros(fan_out))

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Batch forward pass; accepts (features,) or (batch, features)."""
        a = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if a.shape[1] != self.layer_sizes[0]:
            raise ValueError(f"expected {self.layer_sizes[0]} input features, got {a.shape[1]}")
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            a = np.maximum(a @ w + b, 0.0)
        return a @ self.weights[-1] + self.biases[-1]

    def gradients(
        self, states: np.ndarray, actions: np.ndarray, targets: np.ndarray
    ) -> tuple[list[np.ndarray], list[np.ndarray], float]:
        """Gradients of the mean squared TD error on the chosen outputs.

        Loss is mean_b (q[b, actions[b]] - targets[b])^2; only the selected
        output of each row carries error.  Returns (weight grads, bias grads,
        loss before the step).
        """
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        actions = np.asarray(actions, dtype=np.intp)
        targets = np.asarray(targets, dtype=np.float64)
        batch = states.shape[0]

        activations = [states]
        a = states
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            a = np.maximum(a @ w + b, 0.0)
            activations.append(a)
        out = a @ self.weights[-1] + self.biases[-1]

        rows = np.arange(batch)
        err = out[rows, actions] - targets
        loss = float(np.mean(err**2))

        delta = np.zeros_like(out)
        delta[rows, actions] = 2.0 * err / batch
        grads_w: list[np.ndarray] = [None] * len(self.weights)
        grads_b: list[np.ndarray] = [None] * len(self.biases)
        for layer in range(len(self.weights) - 1, -1, -1):
            grads_w[layer] = activations[layer].T @ delta
            grads_b[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ self.weights[layer].T) * (activations[layer] > 0.0)
        return grads_w, grads_b, loss

    def sgd_step(self, grads_w: list[np.ndarray], grads_b: list[np.ndarray], lr: float) -> None:
        for w, gw in zip(self.weights, grads_w):
            w -= lr * gw
        for b, gb in zip(self.biases, grads_b):
            b -= lr * gb

    def copy(self) -> "Mlp":
        dup = Mlp(self.layer_sizes)
        dup.weights = [w.copy() for w in self.weights]
        dup.biases = [b.copy() for b in self.biases]
        return dup


def greedy_action(net: Mlp, state_vector: np.ndarray) -> int:
    """Index of the highest-valued action; ties go to the lowest index."""
    return int(np.argmax(net.forward(state_vector)[0]))


class Transition(NamedTuple):
    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray


class ReplayBuffer:
    """Fixed-capacity experience store with uniform sampling."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.items: list[Transition] = []
        self.position = 0

    def push(self, transition: Transition) -> None:
        # Overwrites the oldest entry once full.
        if len(self.items) < self.capacity:
            self.items.append(transition)
        else:
            self.items[self.position] = transition
        self.position = (self.position + 1) % self.capacity

    def sample(self, batch_size: int, rng: np.random.Generator) -> list[Transition]:
        if batch_size > len(self.items):
            raise ValueError(f"cannot sample {batch_size} from {len(self.items)} stored")
        indices = rng.choice(len(self.items), size=batch_size, replace=False)
        return [self.items[i] for i in indices]

    def __len__(self) -> int:
        return len(self.items)


def mlp_update(
    net: Mlp,
    target_net: Mlp,
    batch: list[Transition],
    discount: float,
    learning_rate: float,
) -> float:
    """One SGD step on the TD targets drawn from the target network.

    Returns the pre-step loss.  Raises RuntimeError if any gradient is
    non-finite; the step is aborted in that case.
    """
    states = np.stack([t.state for t in batch])
    actions = np.array([t.action for t in batch], dtype=np.intp)
    rewards = np.array([t.reward for t in batch], dtype=np.float64)
    next_states = np.stack([t.next_state for t in batch])

    next_best = target_net.forward(next_states).max(axis=1)
    targets = rewards + discount * next_best
    grads_w, grads_b, loss = net.gradients(states, actions, targets)
    for g in itertools.chain(grads_w, grads_b):
        if not np.isfinite(g).all():
            raise RuntimeError("non-finite gradient; value network update aborted")
    net.sgd_step(grads_w, grads_b, learning_rate)
    return loss


@dataclass(frozen=True)
class DqnConfig:
    """Training hyper-parameters, all deterministic given the seed."""

    episodes: int = 500
    steps_per_episode: int = 100
    batch_size: int = 64
    buffer_capacity: int = 10_000
    hidden_sizes: tuple[int, ...] = (64, 64)
    discount: float = 0.9
    learning_rate: float = 1e-3
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay: float = 0.995
    target_sync: int = 100
    reward_mode: str = "strict"
    # Rewards are inverse losses; keeping them O(1) is what lets plain SGD at
    # this learning rate converge instead of overflowing.
    reward_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.episodes < 1 or self.steps_per_episode < 1:
            raise ValueError("episodes and steps_per_episode must be positive")
        if self.batch_size < 1 or self.buffer_capacity < self.batch_size:
            raise ValueError("need buffer_capacity >= batch_size >= 1")
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden_sizes must be positive and non-empty")
        if not 0.0 <= self.discount < 1.0:
            raise ValueError("discount must lie in [0, 1)")
        if not math.isfinite(self.learning_rate) or self.learning_rate <= 0:
            raise ValueError("learning_rate must be finite and positive")
        if not 0.0 <= self.epsilon_end <= self.epsilon_start <= 1.0:
            raise ValueError("need 0 <= epsilon_end <= epsilon_start <= 1")
        if not 0.0 < self.epsilon_decay <= 1.0:
            raise ValueError("epsilon_decay must lie in (0, 1]")
        if self.target_sync < 1:
            raise ValueError("target_sync must be positive")
        if self.reward_mode not in REWARD_MODES:
            raise ValueError(f"unknown reward mode {self.reward_mode!r}")
        if not math.isfinite(self.reward_scale) or self.reward_scale <= 0:
            raise ValueError("reward_scale must be finite and positive")


@dataclass(frozen=True)
class EpisodeRecord:
    """One history row: mean reward over the episode, loss at its final state."""

    episode: int
    mean_reward: float
    total_loss: float
    epsilon: float


def train(scenario: ScenarioConfig, config: DqnConfig = DqnConfig()) -> tuple[Mlp, list[EpisodeRecord]]:
    """Train a prize policy on one scenario.

    Epsilon-greedy rollouts restart from the equal split every episode;
    epsilon decays per episode down to its floor.  The target network is
    refreshed every target_sync environment steps.  Fully deterministic for a
    fixed (scenario, config).
    """
    env = ContestEnv(
        scenario, reward_mode=config.reward_mode, reward_scale=config.reward_scale
    )
    init_rng = _substream(config.seed, "init")
    explore_rng = _substream(config.seed, "explore")
    replay_rng = _substream(config.seed, "replay")

    net = Mlp((env.state_size, *config.hidden_sizes, env.n_actions), init_rng)
    target_net = net.copy()
    buffer = ReplayBuffer(config.buffer_capacity)

    epsilon = config.epsilon_start
    history: list[EpisodeRecord] = []
    step_count = 0
    for episode in range(1, config.episodes + 1):
        state = env.initial_state()
        reward_sum = 0.0
        for _ in range(config.steps_per_episode):
            vec = env.state_vector(state)
            if explore_rng.random() < epsilon:
                action_index = int(explore_rng.integers(env.n_actions))
            else:
                action_index = greedy_action(net, vec)
            next_state, r = env.step(state, env.actions[action_index])
            buffer.push(Transition(vec, action_index, r, env.state_vector(next_state)))
            reward_sum += r
            state = next_state
            step_count += 1
            if len(buffer) >= config.batch_size:
                batch = buffer.sample(config.batch_size, replay_rng)
                mlp_update(net, target_net, batch, config.discount, config.learning_rate)
            if step_count % config.target_sync == 0:
                target_net = net.copy()
        history.append(
            EpisodeRecord(
                episode=episode,
                mean_reward=reward_sum / config.steps_per_episode,
                total_loss=state.total_loss,
                epsilon=epsilon,
            )
        )
        epsilon = max(config.epsilon_end, epsilon * config.epsilon_decay)
    return net, history


@dataclass(frozen=True)
class PolicyEvaluation:
    """What a greedy rollout from the equal split actually achieves.

    best_state is the lowest-loss feasible state seen anywhere along the
    rollout (the prize setting the policy would hand to the operator), or
    None when every visited state blew the budget.
    """

    final_state: EnvState
    final_total_loss: float
    final_feasible: bool
    best_state: EnvState | None
    best_total_loss: float
    steps: int


def evaluate_policy(net: Mlp, env: ContestEnv, steps: int = 100) -> PolicyEvaluation:
    """Roll the greedy policy forward and report final and best-visited states."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    state = env.initial_state()
    best_state = state if state.feasible else None
    for _ in range(steps):
        action_index = greedy_action(net, env.state_vector(state))
        state, _ = env.step(state, env.actions[action_index])
        # Strictly lower, so the earliest-visited state wins a tie.
        if state.feasible and (best_state is None or state.total_loss < best_state.total_loss):
            best_state = state
    return PolicyEvaluation(
        final_state=state,
        final_total_loss=state.total_loss,
        final_feasible=state.feasible,
        best_state=best_state,
        best_total_loss=math.inf if best_state is None else best_state.total_loss,
        steps=steps,
    )


# --- persistence ----------------------------------------------------------


def save_policy(net: Mlp) -> bytes:
    """Serialize a network: magic, version, layer sizes, then little-endian
    float64 parameters (per layer: weights row-major, then biases)."""
    parts = [POLICY_MAGIC, struct.pack("<B", POLICY_VERSION)]
    parts.append(struct.pack("<I", len(net.layer_sizes)))
    for size in net.layer_sizes:
        parts.append(struct.pack("<I", size))
    for w, b in zip(net.weights, net.biases):
        parts.append(w.astype("<f8").tobytes())
        parts.append(b.astype("<f8").tobytes())
    return b"".join(parts)


def load_policy(data: bytes) -> Mlp:
    """Parse bytes produced by save_policy.

    Raises ValueError on a bad magic, unknown version, truncated or oversized
    payloads, or non-finite parameters.
    """
    if len(data) < 9:
        raise ValueError("policy payload too short")
    if data[:4] != POLICY_MAGIC:
        raise ValueError(f"bad policy magic {data[:4]!r}")
    version = data[4]
    if version != POLICY_VERSION:
        raise ValueError(f"unsupported policy version {version}")
    (n_layers,) = struct.unpack_from("<I", data, 5)
    if n_layers < 2:
        raise ValueError("policy must declare at least two layers")
    offset = 9
    if len(data) < offset + 4 * n_layers:
        raise ValueError("policy payload truncated in layer table")
    sizes = struct.unpack_from(f"<{n_layers}I", data, offset)
    offset += 4 * n_layers
    if any(s < 1 for s in sizes):
        raise ValueError(f"layer sizes must be positive, got {sizes}")

    net = Mlp(sizes)
    for layer, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        w_bytes = 8 * fan_in * fan_out
        b_bytes = 8 * fan_out
        if len(data) < offset + w_bytes + b_bytes:
            raise ValueError(f"policy payload truncated in layer {layer} parameters")
        w = np.frombuffer(data, dtype="<f8", count=fan_in * fan_out, offset=offset)
        offset += w_bytes
        b = np.frombuffer(data, dtype="<f8", count=fan_out, offset=offset)
        offset += b_bytes
        net.weights[layer] = w.reshape(fan_in, fan_out).copy()
        net.biases[layer] = b.copy()
    if offset != len(data):
        raise ValueError(f"policy payload has {len(data) - offset} trailing bytes")
    for arr in itertools.chain(net.weights, net.biases):
        if not np.isfinite(arr).all():
            raise ValueError("policy parameters contain non-finite values")
    return net


def format_history(history: list[EpisodeRecord]) -> str:
    """Render training history as CSV, one row per episode."""
    lines = ["episode,mean_reward,total_loss,epsilon"]
    for rec in history:
        lines.append(
            f"{rec.episode},{repr(rec.mean_reward)},{repr(rec.total_loss)},{repr(rec.epsilon)}"
        )
    return "\n".join(lines) + "\n"
