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

import numpy as np

from .contest import CAPABILITY_FLOOR, BestResponse, Round, ScenarioConfig

# The one reward rule, ContestEnv.step's: reward_scale / total loss (floored) for
# a round inside the upload budget, 0.0 for one over it.
REWARD_MODES = ("strict",)

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
        self.reward_scale = reward_scale
        self.actions = enumerate_actions(scenario.n_contestants)
        self.pool = scenario.awards.pool
        rates = [c.native_rate for c in scenario.contestants]
        self._scale = np.array([self.pool] * len(rates) + rates)  # what a state's prizes and rates divide by
        self.responses = BestResponse(scenario.contestants, scenario.selection_mode)
        self._row = np.arange(scenario.n_contestants)[None]  # one prize vector's index into its prizes
        # A loss at or under CAPABILITY_FLOOR is rounding (an aliased clip loses ~1e-15), not
        # motion.  Only a round of such losses totals under the least loss above it; with none, 1.
        losses = [x for c in scenario.contestants for x in c.loss_table.values() if x > CAPABILITY_FLOOR]
        self._loss_floor = min(losses, default=1.0)
        self._states: dict[tuple[float, ...], Round] = {}  # by prize vector
        self._index: dict[Round, int] = {}  # each state's row of inputs, in the order first seen
        self._table = np.empty((64, self.state_size))  # doubles when full
        self.inputs = self._table[:0]  # the network input of each state seen, read-only

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    @property
    def state_size(self) -> int:
        return 2 * self.scenario.n_contestants

    def initial_state(self) -> Round:
        """Equal split: the neutral, pool-preserving starting point."""
        n = self.scenario.n_contestants
        return self._state((self.pool / n,) * n)

    def step(self, state: Round, action: tuple[int, ...]) -> tuple[Round, float]:
        """Apply one prize move, let users re-pick rates, score the round."""
        nxt = self._state(apply_action(state.prizes, action))
        return nxt, self.reward_scale / max(nxt.total_loss, self._loss_floor) if nxt.feasible else 0.0

    def _state(self, prizes: tuple[float, ...]) -> Round:
        # Each prize vector's round is scored once.  Moves keep prizes near the
        # pool's unit lattice, so the memo stays small.
        if prizes not in self._states:
            values = np.array(prizes, dtype=np.float64)
            self._states[prizes] = self.responses.rounds(values, self._row, self.scenario.budget)[0]
        return self._states[prizes]

    def state_index(self, state: Round) -> int:
        """The state's row of inputs; a state not seen before gets the next row."""
        row = self._index.get(state)
        if row is None:
            row = self._index[state] = len(self._index)
            if row == len(self._table):
                self._table = np.concatenate([self._table, np.empty_like(self._table)])
            np.divide(state.prizes + state.efforts, self._scale, out=self._table[row])
            self.inputs = self._table[:row + 1]
            self.inputs.flags.writeable = False
        return row

    def state_vector(self, state: Round) -> np.ndarray:
        """The state's network input, its row of inputs: prizes normalized by pool, rates by native rate."""
        row = self.state_index(state)
        return self.inputs[row]


class Mlp:
    """Fully connected ReLU network with a linear output layer, float64, and its target copy.

    The online and target parameters are the two rows of one (2, P) array; each
    row is laid out per layer as the weights row-major, then the biases, which
    is save_policy's payload order.  ``params`` is the online row, and
    ``weights`` and ``biases`` are views into it; ``target`` is the target row,
    synced by one row copy.  Write through these views, never rebind them.
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
        pair = np.zeros((2, sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes, sizes[1:]))))
        self.params, self.target = pair
        self.weights, self.biases = self._layers(self.params)
        # Per layer, both nets' weights (2, fan_in, fan_out) and biases (2, 1, fan_out).
        weights, biases = self._layers(pair)
        self._pair_layers = tuple(zip(weights, (b[:, None] for b in biases)))
        self._grads = np.empty_like(self.params)  # _backprop writes here, laid out as params
        self._grad_layers = self._layers(self._grads)
        self._rows = np.arange(0)  # the row index of the last batch size backprop saw
        if rng is not None:
            for w in self.weights:
                w[...] = rng.normal(0.0, math.sqrt(2.0 / w.shape[0]), size=w.shape)

    def _layers(self, flat: np.ndarray) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        # (weights, biases) views of an array laid out as params, or of a stack of such rows.
        weights, biases, offset, lead = [], [], 0, flat.shape[:-1]
        for fan_in, fan_out in zip(self.layer_sizes, self.layer_sizes[1:]):
            weights.append(flat[..., offset:offset + fan_in * fan_out].reshape(*lead, fan_in, fan_out))
            offset += fan_in * fan_out
            biases.append(flat[..., offset:offset + fan_out])
            offset += fan_out
        return tuple(weights), tuple(biases)

    def _activations(self, x: np.ndarray) -> list[np.ndarray]:
        # The one forward pass: the input, each ReLU layer, the output.  A (batch, features)
        # input goes through the online net; a (2, batch, features) pair goes through the
        # online net (row 0) and the target net (row 1) at once, as batched matmuls.
        # Each layer adds its bias and clips in place on its own fresh product.
        acts = [np.atleast_2d(np.asarray(x, dtype=np.float64))]
        if acts[0].shape[-1] != self.layer_sizes[0]:
            raise ValueError(f"expected {self.layer_sizes[0]} input features, got {acts[0].shape[-1]}")
        layers = self._pair_layers if acts[0].ndim == 3 else zip(self.weights, self.biases)
        for w, b in layers:
            if len(acts) > 1:  # the layer below is hidden, and not the caller's input
                np.maximum(acts[-1], 0.0, out=acts[-1])
            acts.append(acts[-1] @ w)
            acts[-1] += b
        return acts

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Batch forward pass; accepts (features,) or (batch, features)."""
        return self._activations(x)[-1]

    def gradients(
        self, states: np.ndarray, actions: np.ndarray, targets: np.ndarray
    ) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...], float]:
        """Gradients of the mean squared TD error on the chosen outputs.

        Loss is mean_b (q[b, actions[b]] - targets[b])^2; only the selected
        output of each row carries error.  Returns (weight grads, bias grads,
        loss before the step), in fresh arrays the caller owns.
        """
        loss = self._backprop(self._activations(states), actions, targets)
        return (*self._layers(self._grads.copy()), loss)

    def _backprop(self, acts: list[np.ndarray], actions: np.ndarray, targets: np.ndarray) -> float:
        # Writes the gradients of the online net's activations acts into self._grads; returns the loss.
        *activations, out = acts
        actions = np.asarray(actions, dtype=np.intp)
        targets = np.asarray(targets, dtype=np.float64)
        batch = out.shape[0]

        if len(self._rows) != batch:
            self._rows = np.arange(batch)
        err = out[self._rows, actions] - targets
        loss = float(np.add.reduce(err * err) / batch)  # np.mean's own sum and division

        delta = np.zeros(out.shape)
        delta[self._rows, actions] = 2.0 * err / batch
        grads_w, grads_b = self._grad_layers
        for layer in range(len(self.weights) - 1, -1, -1):
            np.matmul(activations[layer].T, delta, out=grads_w[layer])
            delta.sum(axis=0, out=grads_b[layer])
            if layer > 0:
                delta = delta @ self.weights[layer].T
                delta *= activations[layer] > 0.0
        return loss


def greedy_action(net: Mlp, state_vector: np.ndarray) -> int:
    """Index of the highest-valued action; ties go to the lowest index."""
    return int(np.argmax(net.forward(state_vector)[0]))


class ReplayBuffer:
    """Fixed-capacity experience store with uniform sampling; once full, a push
    overwrites the oldest row.

    A transition is a row of four columns: its state's index (a row of the env's
    ``inputs``), the action, the reward and the next state's index.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.states, self.actions, self.next_states = (np.empty(capacity, np.intp) for _ in range(3))
        self.rewards = np.empty(capacity)
        self.pushes = 0

    def push(self, state: int, action: int, reward: float, next_state: int) -> None:
        row = self.pushes % self.capacity
        self.states[row], self.actions[row] = state, action
        self.rewards[row], self.next_states[row] = reward, next_state
        self.pushes += 1

    def sample(self, batch_size: int, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
        """(states, actions, rewards, next states) at batch_size distinct rows."""
        if batch_size > len(self):
            raise ValueError(f"cannot sample {batch_size} from {len(self)} stored")
        indices = rng.choice(len(self), size=batch_size, replace=False)
        return self.states[indices], self.actions[indices], self.rewards[indices], self.next_states[indices]

    def __len__(self) -> int:
        return min(self.pushes, self.capacity)


def mlp_update(net: Mlp, batch: tuple[np.ndarray, ...], inputs: np.ndarray, values: np.ndarray,
               discount: float, learning_rate: float) -> float:
    """One SGD step on the online net, on TD targets rewards + discount * values[next states].

    batch is ReplayBuffer.sample's (states, actions, rewards, next states), states being rows of
    inputs.  values[i] is the target net's max-Q of inputs[i], NaN until valued after a sync.  A next
    state without one costs one pass of both nets, whose target rows value it and, in place of valued
    next states, the lowest-indexed unvalued states out of the batch.  Returns the pre-step loss.
    Raises RuntimeError if any gradient is non-finite; the step is aborted in that case."""
    states, actions, rewards, next_states = batch
    stale = np.isnan(values[next_states])
    if stale.any():
        rows, held = next_states.copy(), (~stale).nonzero()[0]
        if len(held):
            spare = np.isnan(values[:len(inputs)])
            spare[next_states] = False
            spare = spare.nonzero()[0][:len(held)]
            held = held[:len(spare)]
            rows[held], stale[held] = spare, True  # stale: the rows whose state gets a value
        acts = net._activations(inputs.take(np.array((states, rows)), axis=0))
        values[rows[stale]] = acts[-1][1].max(axis=1)[stale]
        acts = [a[0] for a in acts]
    else:
        acts = net._activations(inputs.take(states, axis=0))
    loss = net._backprop(acts, actions, rewards + discount * values[next_states])
    if not np.isfinite(net._grads).all():
        raise RuntimeError("non-finite gradient; value network update aborted")
    net.params -= learning_rate * net._grads
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
            raise ValueError(f"unknown reward mode {self.reward_mode!r}; expected one of {REWARD_MODES}")
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
    net.target[:] = net.params
    buffer = ReplayBuffer(config.buffer_capacity)
    values = np.full(64, np.nan)  # mlp_update's target max-Q per env state; doubles when full

    epsilon = config.epsilon_start
    history: list[EpisodeRecord] = []
    step_count = 0
    for episode in range(1, config.episodes + 1):
        state = env.initial_state()
        index = env.state_index(state)
        reward_sum = 0.0
        for step in range(1, config.steps_per_episode + 1):
            if explore_rng.random() < epsilon:
                action_index = int(explore_rng.integers(env.n_actions))
            else:
                action_index = greedy_action(net, env.state_vector(state))
            state, r = env.step(state, env.actions[action_index])
            prev, index = index, env.state_index(state)
            if index == len(values):
                values = np.concatenate([values, np.full_like(values, np.nan)])
            buffer.push(prev, action_index, r, index)
            reward_sum += r
            step_count += 1
            if len(buffer) >= config.batch_size:
                batch = buffer.sample(config.batch_size, replay_rng)
                try:
                    mlp_update(net, batch, env.inputs, values, config.discount, config.learning_rate)
                except RuntimeError as exc:
                    raise RuntimeError(f"{exc} at episode {episode}, step {step}; the batch's rewards "
                                       f"run from {batch[2].min():.6g} to {batch[2].max():.6g}") from exc
            if step_count % config.target_sync == 0:
                net.target[:] = net.params
                values[:] = np.nan
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
    rollout (the prize setting the policy would hand to the operator); the
    equal-split start is feasible, so there always is one.
    """

    final_state: Round
    best_state: Round

    @property
    def final_total_loss(self) -> float:
        return self.final_state.total_loss

    @property
    def best_total_loss(self) -> float:
        return self.best_state.total_loss


def evaluate_policy(net: Mlp, env: ContestEnv, steps: int = 100) -> PolicyEvaluation:
    """Roll the greedy policy forward and report final and best-visited states.  The rollout is
    deterministic, so it stops at its first repeated state: from there it goes round a cycle."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    state = env.initial_state()
    best_state = state
    visited = {state: 0}  # each state's first step, in step order
    for step in range(1, steps + 1):
        action_index = greedy_action(net, env.state_vector(state))
        state, _ = env.step(state, env.actions[action_index])
        first = visited.setdefault(state, step)
        if first < step:
            return PolicyEvaluation(list(visited)[first + (steps - first) % (step - first)], best_state)
        # Strictly lower, so the earliest-visited state wins a tie.
        if state.feasible and state.total_loss < best_state.total_loss:
            best_state = state
    return PolicyEvaluation(state, best_state)


# --- persistence ----------------------------------------------------------


def save_policy(net: Mlp) -> bytes:
    """Serialize a network: magic, version, layer sizes, then little-endian
    float64 parameters (per layer: weights row-major, then biases)."""
    sizes = net.layer_sizes
    header = POLICY_MAGIC + struct.pack(f"<BI{len(sizes)}I", POLICY_VERSION, len(sizes), *sizes)
    return header + net.params.astype("<f8").tobytes()


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

    # Size every layer against the payload before building the net: sizes it lacks allocate nothing.
    end = offset
    for layer, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        end += 8 * (fan_in + 1) * fan_out
        if len(data) < end:
            raise ValueError(f"policy payload truncated in layer {layer} parameters")
    if end != len(data):
        raise ValueError(f"policy payload has {len(data) - end} trailing bytes")
    params = np.frombuffer(data, dtype="<f8", offset=offset)
    if not np.isfinite(params).all():
        raise ValueError("policy parameters contain non-finite values")
    net = Mlp(sizes)
    net.params[:] = params
    return net


def format_history(history: list[EpisodeRecord]) -> str:
    """Render training history as CSV, one row per episode."""
    lines = ["episode,mean_reward,total_loss,epsilon"]
    for rec in history:
        lines.append(
            f"{rec.episode},{repr(rec.mean_reward)},{repr(rec.total_loss)},{repr(rec.epsilon)}"
        )
    return "\n".join(lines) + "\n"
