"""Action space, environment, value network, replay training, persistence."""

import math
import struct
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posecontest.config import RENDER_METHODS
from posecontest.contest import (
    CAPABILITY_FLOOR,
    SELECTION_MODES,
    AwardSetting,
    ContestantState,
    Round,
    ScenarioConfig,
)
from posecontest.dqn import (
    ContestEnv,
    DqnConfig,
    Mlp,
    PolicyEvaluation,
    ReplayBuffer,
    _substream,
    apply_action,
    enumerate_actions,
    evaluate_policy,
    format_history,
    greedy_action,
    load_policy,
    mlp_update,
    save_policy,
    train,
)
from posecontest.skeleton import DEFAULT_PROFILES, SkeletonSequence, generate_synthetic, get_profile


class TestActions:
    def test_two_contestants(self):
        assert enumerate_actions(2) == ((-1, 1), (0, 0), (1, -1))

    def test_single_contestant(self):
        assert enumerate_actions(1) == ((0,),)

    def test_four_contestants(self):
        actions = enumerate_actions(4)
        assert len(actions) == 19
        assert all(sum(a) == 0 for a in actions)
        assert all(set(a) <= {-1, 0, 1} for a in actions)
        assert list(actions) == sorted(actions)
        assert len(set(actions)) == 19

    def test_validation(self):
        with pytest.raises(ValueError):
            enumerate_actions(0)

    def test_apply_action_shifts_and_sorts(self):
        assert apply_action((10.0, 5.0, 5.0), (-1, 1, 0)) == (9.0, 6.0, 5.0)
        assert apply_action((5.0, 5.0, 2.0), (0, 1, -1)) == (6.0, 5.0, 1.0)
        # the shift can reorder; result comes back rank-sorted
        assert apply_action((5.0, 5.0, 2.0), (-1, 1, 0)) == (6.0, 4.0, 2.0)

    def test_apply_action_negative_is_noop(self):
        prizes = (10.0, 2.0, 0.0)
        assert apply_action(prizes, (1, 0, -1)) == prizes
        assert apply_action(prizes, (0, 0, 0)) == prizes

    def test_apply_action_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            apply_action((1.0, 2.0), (0, 0, 0))


def still_field(n):
    """n users whose clips never move, so every rate renders with loss 0."""
    return [
        ContestantState.from_sequence(i + 1, SkeletonSequence(np.zeros((12, 2, 3)), 6))
        for i in range(n)
    ]


class TestReward:
    def test_strict_mode(self, tiny_scenario):
        # A feasible round earns scale / loss; the same round over budget earns 0.
        env = ContestEnv(tiny_scenario, reward_scale=3.0)
        state = env.initial_state()
        nxt, r = env.step(state, (0, 0, 0))
        assert nxt == state and nxt.feasible and nxt.total_loss > 1e-9
        assert r == 3.0 / nxt.total_loss
        # The start fits any budget, so the over-budget round is one move away: its
        # rates (6, 1, 1) fit budget 9 but not the least budget, 3.
        nxt, r = env.step(state, (1, 0, -1))
        assert nxt.efforts == (6, 1, 1) and nxt.feasible and r == 3.0 / nxt.total_loss
        squeezed = ContestEnv(replace(tiny_scenario, budget=3), reward_scale=3.0)
        over, r = squeezed.step(squeezed.initial_state(), (1, 0, -1))
        assert over[:3] == nxt[:3] and not over.feasible
        assert r == 0.0

    def test_full_budget_mode(self, tiny_scenario):
        # Retired: it rewarded over-budget rounds that compare then discards.
        message = r"unknown reward mode 'full_budget'; expected one of \('strict',\)"
        with pytest.raises(ValueError, match=message):
            ContestEnv(tiny_scenario, reward_mode="full_budget")
        with pytest.raises(ValueError, match=message):
            DqnConfig(reward_mode="full_budget")

    def test_scale_and_floor(self, tiny_scenario):
        env = ContestEnv(tiny_scenario, reward_scale=0.5)
        floor = min(x for c in tiny_scenario.contestants for x in c.loss_table.values() if x > CAPABILITY_FLOOR)
        rng = np.random.default_rng(4)
        state = env.initial_state()
        for index in rng.integers(env.n_actions, size=100).tolist():
            state, r = env.step(state, env.actions[index])
            assert state.feasible == (sum(state.efforts) <= tiny_scenario.budget)
            assert r == (0.5 / max(state.total_loss, floor) if state.feasible else 0.0)
        # A still field loses nothing at any rate, so it has nothing to tune: every
        # feasible round earns the scale.
        still = ContestEnv(ScenarioConfig(still_field(2), 2, AwardSetting((1.0, 1.0))), reward_scale=2.0)
        nxt, r = still.step(still.initial_state(), (0, 0))
        assert nxt.total_loss == 0.0 and nxt.feasible
        assert r == 2.0

    def test_aliased_clip_loses_nothing(self):
        # The run profile moves at 14 Hz, so at 2 fps every frame has one phase and
        # its rate-1 loss is the rounding of its sines, about 1e-15.  A round that
        # loses only that earns the field's ceiling: the scale over the wave user's loss.
        field = [
            ContestantState.from_sequence(i + 1, generate_synthetic(get_profile(kind), 2, 2, seed=i))
            for i, kind in enumerate(("run", "wave"))
        ]
        run, wave = field
        assert 0 < run.loss_table[1] <= CAPABILITY_FLOOR < wave.loss_table[1]
        env = ContestEnv(ScenarioConfig(field, 3, AwardSetting((1.0, 1.0)), "payment"), reward_scale=2.0)
        nxt, r = env.step(env.initial_state(), (1, -1))
        assert nxt.efforts == (1, 2) and nxt.feasible and nxt.total_loss == run.loss_table[1]
        assert r == 2.0 / wave.loss_table[1]

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(
        st.lists(st.tuples(st.sampled_from(sorted(DEFAULT_PROFILES)), st.sampled_from([1, 2, 6, 12])),
                 min_size=1, max_size=4),
        st.integers(1, 24),
        st.sampled_from(RENDER_METHODS),
        st.sampled_from(SELECTION_MODES),
        st.floats(0.0, 1.0),
        st.one_of(st.sampled_from([10.0, 1.0]), st.floats(0.1, 100.0)),
        st.sampled_from([1.0, 0.5, 250.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_walks_start_feasible_and_earn_bounded_rewards(
        self, users, frames, method, mode, spare, pool, scale, seed
    ):
        # Fields as the CLI builds them, from clips: rate 1 or a single frame loses
        # nothing at any rate.  Budgets run from the user count to two past every
        # user at the native rate.
        field = [
            ContestantState.from_sequence(i + 1, generate_synthetic(get_profile(kind), frames, rate, seed=i), method)
            for i, (kind, rate) in enumerate(users)
        ]
        n = len(field)
        budget = n + round(spare * (sum(c.native_rate - 1 for c in field) + 2))
        env = ContestEnv(ScenarioConfig(field, budget, AwardSetting((pool / n,) * n), mode), reward_scale=scale)
        losses = [loss for c in field for loss in c.loss_table.values() if loss > CAPABILITY_FLOOR]
        ceiling = scale / min(losses, default=1.0)
        state = env.initial_state()
        assert state.efforts == (1,) * n and state.feasible
        for index in np.random.default_rng(seed).integers(env.n_actions, size=100).tolist():
            state, r = env.step(state, env.actions[index])
            assert math.isfinite(r) and 0.0 <= r <= ceiling
            # The floor moves only rounds in which no user loses more than rounding.
            if state.feasible and max(env.scenario.round_loss(state.efforts)[0]) > CAPABILITY_FLOOR:
                assert r == scale / state.total_loss

    def test_unknown_mode(self, tiny_scenario):
        with pytest.raises(ValueError, match="unknown reward mode"):
            ContestEnv(tiny_scenario, reward_mode="soft")
        with pytest.raises(ValueError, match="unknown reward mode"):
            DqnConfig(reward_mode="soft")

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(
        st.integers(1, 7),
        st.one_of(st.sampled_from([100.0, 10.0, 1.0, 0.3]), st.floats(0.1, 1e4)),
        st.integers(0, 2**32 - 1),
    )
    def test_walks_keep_the_pool(self, n, pool, seed):
        # Zero-sum unit moves from the equal split keep the prize sum at the pool,
        # non-dyadic splits such as 100 over 3 included, so no reward needs a pool check.
        env = ContestEnv(ScenarioConfig(still_field(n), n, AwardSetting((pool / n,) * n)))
        state = env.initial_state()
        moves = np.random.default_rng(seed).integers(env.n_actions, size=300).tolist()
        for index in moves:
            state, _ = env.step(state, env.actions[index])
            assert abs(sum(state.prizes) - env.pool) <= 1e-9 * max(1.0, env.pool)


class TestEnv:
    def test_sizes(self, tiny_scenario):
        env = ContestEnv(tiny_scenario)
        assert env.state_size == 6
        assert env.n_actions == 7
        assert env.pool == 12.0

    def test_initial_state_is_equal_split(self, tiny_scenario):
        env = ContestEnv(tiny_scenario)
        state = env.initial_state()
        assert state.prizes == (4.0, 4.0, 4.0)
        assert len(state.efforts) == 3
        assert all(f in c.effort_set for f, c in zip(state.efforts, tiny_scenario.contestants))

    def test_step_applies_action_and_scores(self, tiny_scenario):
        env = ContestEnv(tiny_scenario)
        state = env.initial_state()
        nxt, r = env.step(state, (1, 0, -1))
        assert nxt.prizes == (5.0, 4.0, 3.0)
        _, loss, feasible = tiny_scenario.round_loss(nxt.efforts)
        assert (nxt.total_loss, nxt.feasible) == (loss, feasible)
        if feasible:
            assert r == pytest.approx(1.0 / max(loss, 1e-9))
        else:
            assert r == 0.0

    def test_state_vector_normalization(self, tiny_scenario):
        env = ContestEnv(tiny_scenario)
        state = env.initial_state()
        vec = env.state_vector(state)
        assert vec.shape == (6,)
        assert np.allclose(vec[:3], 1.0 / 3.0)
        assert np.array_equal(vec[3:], np.asarray(state.efforts) / 6.0)
        # Computed once per state, as its row of the shared input table, so no caller may write to it.
        same = env.step(state, (0, 0, 0))[0]
        assert env.state_index(same) == env.state_index(state) == 0
        assert env.state_vector(same).tobytes() == vec.tobytes() == env.inputs[0].tobytes()
        assert np.shares_memory(vec, env.inputs)
        assert not vec.flags.writeable and not env.inputs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            vec[0] = 0.0

    def test_input_table_keeps_first_seen_order(self, default_scenario):
        # A walk long enough to grow the table past its first 64 rows: each new state takes the
        # next index, its row is its prizes over the pool and its rates over the native rates,
        # bit for bit, and a row handed out before the table grew keeps its values.
        env = ContestEnv(default_scenario)
        state = env.initial_state()
        first = env.state_vector(state)
        order = [state]
        for index in np.random.default_rng(5).integers(env.n_actions, size=400).tolist():
            state, _ = env.step(state, env.actions[index])
            if state not in order:
                order.append(state)
            assert env.state_index(state) == order.index(state)
        assert len(env.inputs) == len(order) > 64
        for row, state in zip(env.inputs, order):
            prizes = np.asarray(state.prizes, dtype=np.float64) / env.pool
            rates = np.array([c.native_rate for c in default_scenario.contestants], dtype=np.float64)
            assert row.tobytes() == np.concatenate([prizes, np.asarray(state.efforts) / rates]).tobytes()
        assert first.tobytes() == env.inputs[0].tobytes() and not first.flags.writeable

    def test_total_loss_and_feasibility(self, tiny_scenario):
        env = ContestEnv(tiny_scenario)
        state = env.initial_state()
        expected = sum(
            c.loss_table[f] for c, f in zip(tiny_scenario.contestants, state.efforts)
        )
        per_user, total, feasible = tiny_scenario.round_loss(state.efforts)
        assert sum(per_user) == total == state.total_loss == pytest.approx(expected)
        assert feasible == state.feasible == (sum(state.efforts) <= tiny_scenario.budget)

    def test_memo_matches_fresh_envs(self, tiny_scenario):
        env = ContestEnv(tiny_scenario)
        rng = np.random.default_rng(3)
        state = fresh = env.initial_state()
        assert fresh == ContestEnv(tiny_scenario).initial_state()
        visited = {state.prizes}
        for index in rng.integers(env.n_actions, size=200).tolist():
            state, r = env.step(state, env.actions[index])
            fresh, fresh_r = ContestEnv(tiny_scenario).step(fresh, env.actions[index])
            assert (state, r) == (fresh, fresh_r)
            visited.add(state.prizes)
        assert 1 < len(visited) < 200
        assert set(env._states) == visited
        assert all(s.prizes == p for p, s in env._states.items())

    def test_validation(self, tiny_scenario):
        with pytest.raises(ValueError, match="reward mode"):
            ContestEnv(tiny_scenario, reward_mode="loose")
        with pytest.raises(ValueError, match="reward_scale"):
            ContestEnv(tiny_scenario, reward_scale=0.0)


class TestMlp:
    def test_shapes(self):
        rng = np.random.default_rng(0)
        net = Mlp((4, 8, 3), rng)
        assert [w.shape for w in net.weights] == [(4, 8), (8, 3)]
        assert [b.shape for b in net.biases] == [(8,), (3,)]
        out = net.forward(np.zeros(4))
        assert out.shape == (1, 3)
        out = net.forward(np.zeros((5, 4)))
        assert out.shape == (5, 3)

    def test_zero_init_without_rng(self):
        net = Mlp((2, 3))
        assert all(np.all(w == 0.0) for w in net.weights)

    def test_validation(self):
        with pytest.raises(ValueError):
            Mlp((4,))
        with pytest.raises(ValueError):
            Mlp((4, 0, 2))
        net = Mlp((4, 3), np.random.default_rng(0))
        with pytest.raises(ValueError, match="input features"):
            net.forward(np.zeros(5))

    def test_gradients_reject_wrong_feature_count(self):
        net = Mlp((4, 3), np.random.default_rng(0))
        with pytest.raises(ValueError, match="expected 4 input features, got 5"):
            net.gradients(np.zeros((2, 5)), np.array([0, 1]), np.zeros(2))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        net = Mlp((3, 8, 4), rng)
        states = rng.normal(size=(6, 3))
        actions = rng.integers(0, 4, size=6)
        targets = rng.normal(size=6)

        grads_w, grads_b, _ = net.gradients(states, actions, targets)
        h = 1e-6
        for params, grads in ((net.weights, grads_w), (net.biases, grads_b)):
            for arr, grad in zip(params, grads):
                flat = arr.reshape(-1)
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    up = net.gradients(states, actions, targets)[2]
                    flat[idx] = orig - h
                    down = net.gradients(states, actions, targets)[2]
                    flat[idx] = orig
                    numeric = (up - down) / (2 * h)
                    assert grad.reshape(-1)[idx] == pytest.approx(numeric, rel=1e-5, abs=1e-8)

    def test_loss_is_mean_squared_error_on_selected_outputs(self):
        rng = np.random.default_rng(4)
        net = Mlp((2, 5, 3), rng)
        states = rng.normal(size=(4, 2))
        actions = np.array([0, 2, 1, 2])
        targets = rng.normal(size=4)
        out = net.forward(states)
        expected = float(np.mean((out[np.arange(4), actions] - targets) ** 2))
        assert net.gradients(states, actions, targets)[2] == pytest.approx(expected)

    def test_parameters_live_in_one_buffer(self):
        rng = np.random.default_rng(1)
        net = Mlp((3, 4, 2), rng)
        assert net.params.shape == ((3 + 1) * 4 + (4 + 1) * 2,)
        layers = [a for w, b in zip(net.weights, net.biases) for a in (w.ravel(), b)]
        assert np.array_equal(np.concatenate(layers), net.params)
        assert all(np.shares_memory(a, net.params) for a in layers)
        net.weights[1][0, 0] = 7.0  # the second layer's weights start after 3 * 4 + 4 values
        assert net.params[16] == 7.0
        x = -np.abs(rng.normal(size=(5, 3)))
        before = x.copy()
        net.forward(x)
        assert np.array_equal(x, before)  # the forward pass writes only its own arrays

    def test_copy_is_independent(self):
        # The target net is a row copy of the online parameters, in memory of its own.
        net = Mlp((2, 3), np.random.default_rng(2))
        net.target[:] = net.params
        assert np.array_equal(net.target, net.params)
        assert not np.shares_memory(net.target, net.params)
        net.weights[0][0, 0] += 1.0
        assert net.target[0] != net.params[0]

    def test_greedy_action_breaks_ties_low(self):
        net = Mlp((2, 3))  # all zeros: every action scores the same
        assert greedy_action(net, np.ones(2)) == 0


# The list-of-tuples replay store the column buffer replaced, kept verbatim as
# the reference its samples must equal: Transition, the buffer (renamed), and
# the stacking that opened mlp_update.  Its states are now indices.
class Transition(NamedTuple):
    state: int
    action: int
    reward: float
    next_state: int


class ListReplayBuffer:
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


def stack_batch(batch: list[Transition]) -> tuple[np.ndarray, ...]:
    states = np.array([t.state for t in batch], dtype=np.intp)
    actions = np.array([t.action for t in batch], dtype=np.intp)
    rewards = np.array([t.reward for t in batch], dtype=np.float64)
    next_states = np.array([t.next_state for t in batch], dtype=np.intp)
    return states, actions, rewards, next_states


def tagged_row(tag):
    """A row whose every field reads tag, so a sample shows which rows it took."""
    return tag, tag, float(tag), 100 + tag


class TestReplayBuffer:
    def test_push_and_len(self):
        buf = ReplayBuffer(4)
        assert len(buf) == 0
        buf.push(*tagged_row(0))
        assert len(buf) == 1

    def test_columns_allocated_up_front(self):
        buf = ReplayBuffer(5)
        first = buf.states, buf.actions, buf.rewards, buf.next_states
        assert [c.shape for c in first] == [(5,)] * 4
        assert [c.dtype for c in first] == [np.intp, np.intp, np.float64, np.intp]
        buf.push(0, 1, 0.5, 1)
        buf.push(1, 2, 1.5, 0)
        assert all(a is b for a, b in zip(first, (buf.states, buf.actions, buf.rewards, buf.next_states)))

    def test_overwrites_oldest_when_full(self):
        buf = ReplayBuffer(3)
        for tag in range(5):
            buf.push(*tagged_row(tag))
        assert len(buf) == 3
        # Rows 0 and 1 held tags 0 and 1, which tags 3 and 4 overwrote.
        assert buf.actions.tolist() == [3, 4, 2]
        assert np.array_equal(buf.states, buf.actions) and np.array_equal(buf.rewards, buf.actions)
        assert np.array_equal(buf.next_states, buf.actions + 100)

    def test_sample_without_replacement(self):
        buf = ReplayBuffer(8)
        for tag in range(8):
            buf.push(*tagged_row(tag))
        states, actions, rewards, next_states = buf.sample(8, np.random.default_rng(0))
        assert sorted(actions.tolist()) == list(range(8))
        # Each sampled row keeps its four fields together.
        assert np.array_equal(states, actions) and np.array_equal(rewards, actions)
        assert np.array_equal(next_states, actions + 100)

    def test_sample_too_large(self):
        buf = ReplayBuffer(4)
        buf.push(*tagged_row(0))
        with pytest.raises(ValueError, match="cannot sample 2 from 1 stored"):
            buf.sample(2, np.random.default_rng(0))

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ReplayBuffer(0)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.integers(1, 20), st.integers(0, 60), st.data())
    def test_sample_matches_list_buffer(self, capacity, pushes, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        states = data.draw(st.integers(1, 40))
        rng = np.random.default_rng(seed)
        rewards = rng.normal(size=pushes).tolist()
        ids = rng.integers(states, size=(pushes, 2)).tolist()
        actions = np.random.default_rng(seed + 1).integers(0, 19, size=pushes).tolist()
        columns, reference = ReplayBuffer(capacity), ListReplayBuffer(capacity)
        for (state, next_state), action, reward in zip(ids, actions, rewards):
            columns.push(state, action, reward, next_state)
            reference.push(Transition(state, action, reward, next_state))
        assert len(columns) == len(reference) == min(pushes, capacity)
        batch = data.draw(st.integers(0, len(reference)))
        rng_columns, rng_reference = np.random.default_rng(seed), np.random.default_rng(seed)
        got = columns.sample(batch, rng_columns)
        expected = reference.sample(batch, rng_reference)
        assert rng_columns.bit_generator.state == rng_reference.bit_generator.state
        for a, b in zip(got, stack_batch(expected), strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape == (batch,)
            assert np.array_equal(a, b)
        with pytest.raises(ValueError, match="cannot sample"):
            columns.sample(len(reference) + 1, rng_columns)


def table_batch(states, actions, rewards, next_states):
    """A (states, actions, rewards, next states) batch of feature rows as mlp_update takes it:
    the batch over row indices, an input table of every row, and a value table of NaNs."""
    inputs = np.concatenate([states, next_states])
    ids = np.arange(len(inputs))
    return (ids[:len(states)], actions, rewards, ids[len(states):]), inputs, np.full(len(inputs), np.nan)


def batch_pass_update(net, batch, inputs, discount, learning_rate):
    """The update without a value table, as the reference the table must equal: one stacked
    pass over the batch's own states and next states, targets from its target rows."""
    states, actions, rewards, next_states = batch
    acts = net._activations(inputs.take(np.array((states, next_states)), axis=0))
    targets = rewards + discount * acts[-1][1].max(axis=1)
    loss = net._backprop([a[0] for a in acts], actions, targets)
    if not np.isfinite(net._grads).all():
        raise RuntimeError("non-finite gradient; value network update aborted")
    net.params -= learning_rate * net._grads
    return loss


class StackedPasses:
    """Counts Mlp._activations calls on a (2, batch, features) pair and keeps their inputs."""

    def __init__(self, monkeypatch):
        self.inputs = []
        activations = Mlp._activations

        def spy(net, x):
            if np.ndim(x) == 3:
                self.inputs.append(np.array(x))
            return activations(net, x)

        monkeypatch.setattr(Mlp, "_activations", spy)

    def __len__(self):
        return len(self.inputs)


class TestUpdate:
    def make_batch(self, rng, size=4, state=3, actions=2):
        return (
            rng.normal(size=(size, state)),
            rng.integers(actions, size=size),
            rng.normal(size=size),
            rng.normal(size=(size, state)),
        )

    def test_targets_use_target_network_max(self):
        rng = np.random.default_rng(7)
        net = Mlp((3, 6, 2), rng)
        target = Mlp((3, 6, 2), np.random.default_rng(8))
        net.target[:] = target.params
        states, actions, rewards, next_states = batch = self.make_batch(rng)
        expected_targets = rewards + 0.9 * target.forward(next_states).max(axis=1)
        expected_loss = net.gradients(states, actions, expected_targets)[2]

        loss = mlp_update(net, *table_batch(*batch), discount=0.9, learning_rate=1e-3)
        assert loss == pytest.approx(expected_loss)

    def test_update_moves_parameters(self):
        rng = np.random.default_rng(9)
        net = Mlp((3, 6, 2), rng)
        net.target[:] = net.params
        before = [w.copy() for w in net.weights]
        mlp_update(net, *table_batch(*self.make_batch(rng)), 0.9, 0.1)
        assert any(not np.array_equal(b, w) for b, w in zip(before, net.weights))

    def test_online_steps_leave_the_target_row(self):
        rng = np.random.default_rng(11)
        net = Mlp((3, 6, 2), rng)
        net.target[:] = net.params
        synced = net.target.copy()
        for _ in range(3):
            mlp_update(net, *table_batch(*self.make_batch(rng)), 0.9, 0.1)
        assert net.target.tobytes() == synced.tobytes()
        assert not np.array_equal(net.params, synced)

    def test_non_finite_gradient_aborts(self):
        rng = np.random.default_rng(10)
        net = Mlp((3, 6, 2), rng)
        net.target[:] = net.params
        batch = self.make_batch(rng)
        batch[2][0] = math.inf
        before = [w.copy() for w in net.weights]
        with np.errstate(invalid="ignore"), pytest.raises(RuntimeError, match="non-finite gradient"):
            mlp_update(net, *table_batch(*batch), 0.9, 0.1)
        assert all(np.array_equal(b, w) for b, w in zip(before, net.weights))

    @pytest.mark.parametrize("width", [1, 3])
    def test_stacked_input_is_one_c_contiguous_pair(self, width, monkeypatch):
        # The learner's stacked input: a C-contiguous (2, batch, features) array gathered from the
        # input table.  A strided view of the same values changes the gradient bits of some nets
        # with a width-1 layer.
        passes = StackedPasses(monkeypatch)
        inputs = np.arange(10.0 * width).reshape(10, width)
        net = Mlp((width, 4, 2), np.random.default_rng(1))
        states, next_states = np.array([0, 2, 4, 6]), np.array([1, 3, 5, 7])
        mlp_update(net, (states, np.zeros(4, np.intp), np.zeros(4), next_states), inputs, np.full(10, np.nan), 0.9, 0.1)
        (pair,) = passes.inputs
        assert pair.shape == (2, 4, width) and pair.flags.c_contiguous
        assert np.array_equal(pair[0], inputs[states]) and np.array_equal(pair[1], inputs[next_states])

    def test_values_hold_until_a_sync(self, monkeypatch):
        # A next state without a value costs one stacked pass; one valued since the last sync
        # costs none and keeps its bits; a sync makes every state cost a pass again.
        passes = StackedPasses(monkeypatch)
        rng = np.random.default_rng(12)
        net = Mlp((3, 8, 4), rng)
        net.target[:] = net.params
        inputs, values = rng.normal(size=(4, 3)), np.full(6, np.nan)
        batch = (np.array([0, 1, 2, 3]), np.array([0, 1, 2, 3]), np.ones(4), np.array([0, 1, 2, 3]))
        mlp_update(net, batch, inputs, values, 0.9, 0.1)
        assert len(passes) == 1 and not np.isnan(values[:4]).any() and np.isnan(values[4:]).all()
        valued = values.copy()
        for _ in range(3):
            mlp_update(net, batch, inputs, values, 0.9, 0.1)
        assert len(passes) == 1 and values.tobytes() == valued.tobytes()
        net.target[:] = net.params
        values[:] = np.nan
        mlp_update(net, batch, inputs, values, 0.9, 0.1)
        assert len(passes) == 2 and not np.isnan(values[:4]).any()
        assert not np.array_equal(values[:4], valued[:4])
        expected = Mlp(net.layer_sizes)
        expected.params[:] = net.target
        assert np.allclose(values[:4], expected.forward(inputs).max(axis=1), rtol=1e-12, atol=0.0)

    def test_a_state_seen_after_a_pass_gets_its_own_value(self):
        # States 0 and 1 are valued; then states 2 and 3 are first seen, still in the same sync.
        # Next state 3 has no value, so a pass runs, and in the row of valued next state 0 it
        # values state 2, the lowest unvalued state out of the batch: each from its own row.
        rng = np.random.default_rng(13)
        net = Mlp((3, 8, 4), rng)
        net.target[:] = net.params
        table, values = rng.normal(size=(6, 3)), np.full(8, np.nan)
        first = (np.array([0, 1]), np.array([0, 1]), np.ones(2), np.array([0, 1]))
        mlp_update(net, first, table[:2], values, 0.9, 0.0)
        valued = values[:2].copy()
        second = (np.array([2, 1]), np.array([0, 1]), np.ones(2), np.array([0, 3]))
        mlp_update(net, second, table[:4], values, 0.9, 0.0)
        assert values[:2].tobytes() == valued.tobytes()
        expected = Mlp(net.layer_sizes)
        expected.params[:] = net.target
        assert np.allclose(values[:4], expected.forward(table[:4]).max(axis=1), rtol=1e-12, atol=0.0)
        assert np.isnan(values[4:]).all()  # never seen, so never valued

    def test_table_targets_match_the_batch_pass_at_batch_64(self):
        # The SMALL instance's net at its batch size: transitions over 150 states, a 200-row
        # buffer that wraps, a sync every 50 pushes.  Every update's loss and parameter bytes
        # must equal the update whose targets come from the batch's own stacked pass.
        rng = np.random.default_rng(14)
        inputs = rng.random((150, 6))
        net = Mlp((6, 64, 64, 7), rng)
        net.target[:] = net.params
        reference = Mlp(net.layer_sizes)
        reference.params[:] = reference.target[:] = net.params
        buffer, values = ReplayBuffer(200), np.full(150, np.nan)
        replay_net, replay_reference = np.random.default_rng(15), np.random.default_rng(15)
        for push in range(1, 601):
            buffer.push(int(rng.integers(150)), int(rng.integers(7)), float(rng.random()), int(rng.integers(150)))
            if len(buffer) >= 64:
                batch = buffer.sample(64, replay_net)
                assert mlp_update(net, batch, inputs, values, 0.9, 1e-3) == batch_pass_update(
                    reference, buffer.sample(64, replay_reference), inputs, 0.9, 1e-3)
                assert net.params.tobytes() == reference.params.tobytes()
            if push % 50 == 0:
                net.target[:] = net.params
                reference.target[:] = reference.params
                values[:] = np.nan
        assert buffer.pushes > 2 * buffer.capacity

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(
        st.lists(st.integers(1, 16), min_size=1, max_size=3),
        st.integers(1, 5),
        st.integers(1, 6),
        st.integers(1, 32),
        st.sampled_from([1e-3, 0.05, 0.5]),
        st.integers(0, 2**32 - 1),
    )
    def test_updates_match_list_reference_bit_for_bit(self, hidden, n_in, n_out, batch, lr, seed):
        # Four consecutive updates with a target sync after the second, then one
        # batch with a non-finite reward: every parameter byte, every value, the loss
        # and the abort must match the reference update over separate weight and bias
        # lists, which keeps its values in a dict.  The batches draw their states from
        # an input table that grows between updates, so next states repeat, are valued
        # by earlier updates, and are swapped for states out of the batch.
        rng = np.random.default_rng(seed)
        net = Mlp((n_in, *hidden, n_out), rng)
        net.target[:] = net.params
        params = [[w.copy() for w in net.weights], [b.copy() for b in net.biases]]
        target_params = [[a.copy() for a in arrays] for arrays in params]
        table = rng.normal(size=(int(rng.integers(1, 3 * batch + 1)), n_in))
        table[rng.random(len(table)) < 0.25] = 0.0  # rows whose pre-activations are exactly the bias
        values, reference_values = np.full(len(table), np.nan), {}
        for update in range(5):
            inputs = table[:max(1, len(table) * (update + 1) // 5)]
            states, next_states = rng.integers(len(inputs), size=(2, batch))
            actions, rewards = rng.integers(n_out, size=batch), rng.normal(size=batch)
            if update == 4:
                rewards[rng.integers(batch)] = rng.choice([math.inf, -math.inf, math.nan])
            sample = (states, actions, rewards, next_states)
            expected = reference_update(params, target_params, reference_values, sample, inputs, 0.9, lr)
            with np.errstate(all="ignore"):
                if expected is None:
                    with pytest.raises(RuntimeError, match="non-finite gradient"):
                        mlp_update(net, sample, inputs, values, 0.9, lr)
                else:
                    loss = mlp_update(net, sample, inputs, values, 0.9, lr)
                    params, expected_loss = expected
                    assert loss == expected_loss
            assert [w.tobytes() for w in net.weights] == [w.tobytes() for w in params[0]]
            assert [b.tobytes() for b in net.biases] == [b.tobytes() for b in params[1]]
            header = 9 + 4 * len(net.layer_sizes)
            layers = [w.tobytes() + b.tobytes() for w, b in zip(*params)]
            assert save_policy(net)[header:] == b"".join(layers)
            target_layers = [w.tobytes() + b.tobytes() for w, b in zip(*target_params)]
            assert net.target.tobytes() == b"".join(target_layers)
            assert sorted(reference_values) == np.flatnonzero(~np.isnan(values)).tolist()
            assert all(values[i].tobytes() == v.tobytes() for i, v in reference_values.items())
            if update == 1:
                net.target[:] = net.params
                values[:] = np.nan
                target_params = [[a.copy() for a in arrays] for arrays in params]
                reference_values = {}
        assert expected is None  # the last batch's non-finite reward reached the gradients


def reference_update(params, target_params, values, batch, inputs, discount, lr):
    """One SGD step on a value net held as [weights, biases] lists, written out
    op by op: the new lists and the pre-step loss, or None if a gradient is not
    finite (the step then changes nothing).  values maps a state to its target
    max-Q since the last sync; when a next state has none, the target net runs on
    the next states with each valued one swapped, in batch order, for the
    lowest-indexed unvalued state out of the batch while any is left, and every
    state it ran without a value gets one."""

    def forward(weights, biases, x):
        acts = [x]
        for w, b in zip(weights[:-1], biases[:-1]):
            acts.append(np.maximum(acts[-1] @ w + b, 0.0))
        return acts, acts[-1] @ weights[-1] + biases[-1]

    states, actions, rewards, next_states = batch
    with np.errstate(all="ignore"):
        if any(s not in values for s in next_states.tolist()):
            spare = [s for s in range(len(inputs)) if s not in values and s not in next_states.tolist()]
            rows = [s if s not in values or not spare else spare.pop(0) for s in next_states.tolist()]
            maxima = forward(*target_params, inputs[rows])[1].max(axis=1)
            unvalued = [s not in values for s in rows]
            for s, q, new in zip(rows, maxima, unvalued):
                if new:
                    values[s] = q
        targets = rewards + discount * np.array([values[s] for s in next_states.tolist()])
        acts, out = forward(*params, inputs[states])
        rows = np.arange(len(states))
        err = out[rows, actions] - targets
        loss = float(np.mean(err**2))
        delta = np.zeros_like(out)
        delta[rows, actions] = 2.0 * err / len(states)
        weights, biases = params
        grads_w, grads_b = [None] * len(weights), [None] * len(biases)
        for layer in reversed(range(len(weights))):
            grads_w[layer] = acts[layer].T @ delta
            grads_b[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ weights[layer].T) * (acts[layer] > 0.0)
    if not all(np.isfinite(g).all() for g in grads_w + grads_b):
        return None
    return [[w - lr * g for w, g in zip(weights, grads_w)], [b - lr * g for b, g in zip(biases, grads_b)]], loss


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = DqnConfig()
        assert cfg.episodes == 500
        assert cfg.hidden_sizes == (64, 64)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(episodes=0),
            dict(steps_per_episode=0),
            dict(batch_size=0),
            dict(buffer_capacity=8, batch_size=16),
            dict(hidden_sizes=()),
            dict(hidden_sizes=(0,)),
            dict(discount=1.0),
            dict(discount=-0.1),
            dict(learning_rate=0.0),
            dict(learning_rate=float("nan")),
            dict(learning_rate=float("inf")),
            dict(epsilon_start=1.5),
            dict(epsilon_end=0.5, epsilon_start=0.1),
            dict(epsilon_decay=0.0),
            dict(target_sync=0),
            dict(reward_mode="soft"),
            dict(reward_scale=0.0),
            dict(reward_scale=float("nan")),
            dict(reward_scale=float("inf")),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            DqnConfig(**kwargs)


class TestTraining:
    def test_history_shape_and_epsilon_decay(self, tiny_scenario, tiny_cfg):
        net, history = train(tiny_scenario, tiny_cfg.dqn)
        assert len(history) == tiny_cfg.dqn.episodes
        assert [rec.episode for rec in history] == [1, 2]
        assert history[0].epsilon == 1.0
        assert net.layer_sizes == (6, 8, 7)

    def test_deterministic(self, tiny_scenario, tiny_cfg):
        net_a, hist_a = train(tiny_scenario, tiny_cfg.dqn)
        net_b, hist_b = train(tiny_scenario, tiny_cfg.dqn)
        assert hist_a == hist_b
        assert all(np.array_equal(a, b) for a, b in zip(net_a.weights, net_b.weights))
        assert all(np.array_equal(a, b) for a, b in zip(net_a.biases, net_b.biases))

    def test_sync_makes_the_rows_equal(self, tiny_scenario, tiny_cfg):
        # A sync after every step leaves the target row a copy of the trained online row.
        net, _ = train(tiny_scenario, replace(tiny_cfg.dqn, target_sync=1))
        assert net.target.tobytes() == net.params.tobytes()
        pair = net.forward(np.ones((2, net.layer_sizes[0])))
        both = net._activations(np.ones((2, 2, net.layer_sizes[0])))[-1]
        assert both[0].tobytes() == both[1].tobytes() == pair.tobytes()

    def test_target_holds_until_a_sync(self, tiny_scenario, tiny_cfg):
        # 12 steps, none of them a sync: the target row stays the initial net.
        net, _ = train(tiny_scenario, replace(tiny_cfg.dqn, target_sync=13))
        initial = Mlp(net.layer_sizes, _substream(tiny_cfg.dqn.seed, "init"))
        assert net.target.tobytes() == initial.params.tobytes()
        assert not np.array_equal(net.params, initial.params)

    @pytest.mark.parametrize(
        "changes", [dict(target_sync=1), dict(batch_size=1), dict(batch_size=3), dict(batch_size=6)]
    )
    def test_deterministic_at_any_sync_and_batch(self, tiny_scenario, tiny_cfg, changes):
        cfg = replace(tiny_cfg.dqn, **changes)
        (net_a, hist_a), (net_b, hist_b) = train(tiny_scenario, cfg), train(tiny_scenario, cfg)
        assert hist_a == hist_b
        assert net_a.params.tobytes() == net_b.params.tobytes() and net_a.target.tobytes() == net_b.target.tobytes()

    def test_states_are_valued_once_per_sync(self, tiny_scenario, tiny_cfg, monkeypatch):
        # 12 steps at batch 4 make 9 updates.  A sync after every step leaves every next state
        # without a value, so each update runs one stacked pass.  With no sync, a pass runs only
        # for a next state no earlier pass valued.
        passes = StackedPasses(monkeypatch)
        train(tiny_scenario, replace(tiny_cfg.dqn, target_sync=1))
        assert len(passes) == 9
        passes.inputs.clear()
        train(tiny_scenario, replace(tiny_cfg.dqn, target_sync=13))
        valued = set()
        for pair in passes.inputs:
            rows = {row.tobytes() for row in pair[1]}
            assert rows - valued
            valued |= rows
        assert 0 < len(passes) < 9

    def test_seed_changes_the_run(self, tiny_scenario, tiny_cfg):
        _, hist_a = train(tiny_scenario, tiny_cfg.dqn)
        _, hist_b = train(tiny_scenario, replace(tiny_cfg.dqn, seed=99))
        assert hist_a != hist_b

    def test_evaluate_policy(self, tiny_scenario, tiny_cfg):
        net, _ = train(tiny_scenario, tiny_cfg.dqn)
        env = ContestEnv(tiny_scenario)
        ev = evaluate_policy(net, env, steps=10)
        assert ev.final_total_loss == tiny_scenario.round_loss(ev.final_state.efforts)[1]
        # the equal-split start is feasible here, so a best state must exist
        assert ev.best_state is not None
        assert tiny_scenario.round_loss(ev.best_state.efforts)[1:] == (ev.best_total_loss, True)
        assert ev.best_total_loss <= tiny_scenario.round_loss(env.initial_state().efforts)[1]

    def test_evaluate_policy_zero_steps(self, tiny_scenario):
        env = ContestEnv(tiny_scenario)
        net = Mlp((env.state_size, 4, env.n_actions), np.random.default_rng(0))
        ev = evaluate_policy(net, env, steps=0)
        assert ev.final_state == env.initial_state()
        assert ev.best_state == ev.final_state
        with pytest.raises(ValueError):
            evaluate_policy(net, env, steps=-1)

    def test_best_state_stays_inside_the_budget(self, tiny_scenario):
        # At the least budget, 3, the move (1, 0, -1) leads to rates (6, 1, 1): less
        # loss than the start, but over the budget, so the start stays the best state.
        env = ContestEnv(replace(tiny_scenario, budget=3))
        net = Mlp((env.state_size, 1, env.n_actions))
        net.biases[-1][env.actions.index((1, 0, -1))] = 1.0
        ev = evaluate_policy(net, env, steps=1)
        assert ev.final_state.efforts == (6, 1, 1) and not ev.final_state.feasible
        assert ev.final_total_loss < ev.best_total_loss
        assert ev.best_state == env.initial_state()

    def test_early_stop_matches_the_full_rollout(self, tiny_scenario, tiny_cfg, monkeypatch):
        # The rollout stops at its first repeated state; (final, best) must be the full loop's,
        # for trained and random nets, whose rollouts enter cycles of several lengths at several
        # steps.
        env = ContestEnv(tiny_scenario)
        nets = [train(tiny_scenario, replace(tiny_cfg.dqn, seed=seed))[0] for seed in range(3)]
        nets += [Mlp((env.state_size, 4, env.n_actions), np.random.default_rng(seed)) for seed in range(30)]
        cycles = set()
        for net in nets:
            for steps in (0, 1, 2, 7, 100, 1001):
                assert evaluate_policy(net, env, steps) == full_rollout(net, env, steps)
            visited = [env.initial_state()]
            while visited[-1] not in visited[:-1]:
                index = greedy_action(net, env.state_vector(visited[-1]))
                visited.append(env.step(visited[-1], env.actions[index])[0])
            first = visited.index(visited[-1])
            cycles.add((first, len(visited) - 1 - first))
        firsts, periods = {first for first, _ in cycles}, {period for _, period in cycles}
        assert 0 in firsts and max(firsts) > 1 and 1 in periods and max(periods) > 1, cycles
        calls = []
        step = ContestEnv.step
        monkeypatch.setattr(ContestEnv, "step", lambda *args: calls.append(1) or step(*args))
        evaluate_policy(nets[0], env, 1001)
        assert len(calls) < 1001

    def test_evaluation_losses_come_from_its_rounds(self):
        final = Round((4.0, 4.0, 4.0), (1, 1, 1), 2.0, True)
        best = Round((6.0, 3.0, 3.0), (2, 1, 1), 1.0, True)
        ev = PolicyEvaluation(final, best)
        assert (ev.final_total_loss, ev.best_total_loss) == (2.0, 1.0)


def full_rollout(net, env, steps):
    """evaluate_policy before it stopped at a repeated state: every step of the rollout."""
    state = env.initial_state()
    best_state = state
    for _ in range(steps):
        action_index = greedy_action(net, env.state_vector(state))
        state, _ = env.step(state, env.actions[action_index])
        if state.feasible and state.total_loss < best_state.total_loss:
            best_state = state
    return PolicyEvaluation(state, best_state)


class TestPersistence:
    def test_round_trip(self):
        net = Mlp((3, 5, 2), np.random.default_rng(21))
        back = load_policy(save_policy(net))
        assert back.layer_sizes == net.layer_sizes
        assert all(np.array_equal(a, b) for a, b in zip(back.weights, net.weights))
        assert all(np.array_equal(a, b) for a, b in zip(back.biases, net.biases))

    def test_corrupt_payloads(self):
        net = Mlp((3, 5, 2), np.random.default_rng(22))
        blob = save_policy(net)
        with pytest.raises(ValueError, match="too short"):
            load_policy(blob[:4])
        with pytest.raises(ValueError, match="magic"):
            load_policy(b"XXXX" + blob[4:])
        with pytest.raises(ValueError, match="version"):
            load_policy(blob[:4] + b"\x09" + blob[5:])
        with pytest.raises(ValueError, match="truncated"):
            load_policy(blob[:-8])
        with pytest.raises(ValueError, match="trailing"):
            load_policy(blob + b"\x00" * 8)

    @pytest.mark.parametrize("size", [200_000, 2**32 - 1])
    def test_declared_sizes_beyond_payload(self, size):
        # A 17-byte header may declare any layer sizes; nothing is allocated
        # for them before the payload shows it holds their parameters.
        header = b"QNET" + struct.pack("<BI2I", 1, 2, size, size)
        assert len(header) == 17
        with pytest.raises(ValueError, match="policy payload truncated in layer 0 parameters"):
            load_policy(header)

    def test_non_finite_parameters_rejected(self):
        net = Mlp((2, 2), np.random.default_rng(23))
        net.weights[0][0, 0] = math.nan
        with pytest.raises(ValueError, match="non-finite"):
            load_policy(save_policy(net))

    def test_format_history(self):
        from posecontest.dqn import EpisodeRecord

        history = [EpisodeRecord(1, 0.5, 2.25, 1.0)]
        assert format_history(history) == (
            "episode,mean_reward,total_loss,epsilon\n1,0.5,2.25,1.0\n"
        )
