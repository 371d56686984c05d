"""Action space, environment, value network, replay training, persistence."""

import math
from dataclasses import replace

import numpy as np
import pytest

from posecontest.dqn import (
    ContestEnv,
    DqnConfig,
    Mlp,
    ReplayBuffer,
    Transition,
    apply_action,
    enumerate_actions,
    evaluate_policy,
    format_history,
    greedy_action,
    load_policy,
    mlp_update,
    reward,
    save_policy,
    train,
)


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


class TestReward:
    def test_strict_mode(self):
        total_loss = 2.0
        assert reward((2, 2), (5.0, 5.0), total_loss, budget=4, pool=10.0) == 0.5
        assert reward((3, 2), (5.0, 5.0), total_loss, budget=4, pool=10.0) == 0.0
        assert reward((2, 2), (5.0, 4.0), total_loss, budget=4, pool=10.0) == 0.0

    def test_full_budget_mode(self):
        total_loss = 2.0
        kw = dict(budget=4, pool=10.0, mode="full_budget")
        assert reward((2, 2), (5.0, 5.0), total_loss, **kw) == 0.5
        assert reward((2, 1), (5.0, 5.0), total_loss, **kw) == 0.0
        assert reward((3, 2), (5.0, 5.0), total_loss, **kw) == 0.5
        assert reward((2, 2), (6.0, 5.0), total_loss, **kw) == 0.0

    def test_scale_and_floor(self):
        assert reward((1,), (1.0,), 0.25, 2, 1.0, scale=3.0) == 12.0
        capped = reward((1,), (1.0,), 0.0, 2, 1.0)
        assert capped == pytest.approx(1e9)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown reward mode"):
            reward((1,), (1.0,), 1.0, 1, 1.0, mode="soft")


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

    def test_total_loss_and_feasibility(self, tiny_scenario):
        env = ContestEnv(tiny_scenario)
        state = env.initial_state()
        expected = sum(
            c.loss_table[f] for c, f in zip(tiny_scenario.contestants, state.efforts)
        )
        per_user, total, feasible = tiny_scenario.round_loss(state.efforts)
        assert sum(per_user) == total == state.total_loss == pytest.approx(expected)
        assert feasible == state.feasible == (sum(state.efforts) <= tiny_scenario.budget)

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

    def test_sgd_step(self):
        net = Mlp((2, 2), np.random.default_rng(1))
        before = [w.copy() for w in net.weights]
        grads_w = [np.ones_like(w) for w in net.weights]
        grads_b = [np.ones_like(b) for b in net.biases]
        net.sgd_step(grads_w, grads_b, lr=0.1)
        for b, w in zip(before, net.weights):
            assert np.allclose(b - 0.1, w)

    def test_copy_is_independent(self):
        net = Mlp((2, 3), np.random.default_rng(2))
        dup = net.copy()
        assert np.array_equal(dup.weights[0], net.weights[0])
        dup.weights[0][0, 0] += 1.0
        assert dup.weights[0][0, 0] != net.weights[0][0, 0]

    def test_greedy_action_breaks_ties_low(self):
        net = Mlp((2, 3))  # all zeros: every action scores the same
        assert greedy_action(net, np.ones(2)) == 0


class TestReplayBuffer:
    def make_transition(self, tag):
        return Transition(np.array([float(tag)]), tag, float(tag), np.array([float(tag)]))

    def test_push_and_len(self):
        buf = ReplayBuffer(4)
        assert len(buf) == 0
        buf.push(self.make_transition(0))
        assert len(buf) == 1

    def test_overwrites_oldest_when_full(self):
        buf = ReplayBuffer(3)
        for tag in range(5):
            buf.push(self.make_transition(tag))
        assert len(buf) == 3
        assert sorted(t.action for t in buf.items) == [2, 3, 4]

    def test_sample_without_replacement(self):
        buf = ReplayBuffer(8)
        for tag in range(8):
            buf.push(self.make_transition(tag))
        batch = buf.sample(8, np.random.default_rng(0))
        assert sorted(t.action for t in batch) == list(range(8))

    def test_sample_too_large(self):
        buf = ReplayBuffer(4)
        buf.push(self.make_transition(0))
        with pytest.raises(ValueError):
            buf.sample(2, np.random.default_rng(0))

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ReplayBuffer(0)


class TestUpdate:
    def make_batch(self, rng, size=4, state=3, actions=2):
        return [
            Transition(
                rng.normal(size=state),
                int(rng.integers(actions)),
                float(rng.normal()),
                rng.normal(size=state),
            )
            for _ in range(size)
        ]

    def test_targets_use_target_network_max(self):
        rng = np.random.default_rng(7)
        net = Mlp((3, 6, 2), rng)
        target = Mlp((3, 6, 2), np.random.default_rng(8))
        batch = self.make_batch(rng)

        states = np.stack([t.state for t in batch])
        actions = np.array([t.action for t in batch])
        rewards = np.array([t.reward for t in batch])
        next_states = np.stack([t.next_state for t in batch])
        expected_targets = rewards + 0.9 * target.forward(next_states).max(axis=1)
        expected_loss = net.gradients(states, actions, expected_targets)[2]

        loss = mlp_update(net, target, batch, discount=0.9, learning_rate=1e-3)
        assert loss == pytest.approx(expected_loss)

    def test_update_moves_parameters(self):
        rng = np.random.default_rng(9)
        net = Mlp((3, 6, 2), rng)
        target = net.copy()
        before = [w.copy() for w in net.weights]
        mlp_update(net, target, self.make_batch(rng), 0.9, 0.1)
        assert any(not np.array_equal(b, w) for b, w in zip(before, net.weights))

    def test_non_finite_gradient_aborts(self):
        rng = np.random.default_rng(10)
        net = Mlp((3, 6, 2), rng)
        target = net.copy()
        batch = self.make_batch(rng)
        batch[0] = batch[0]._replace(reward=math.inf)
        before = [w.copy() for w in net.weights]
        with np.errstate(invalid="ignore"), pytest.raises(RuntimeError, match="non-finite gradient"):
            mlp_update(net, target, batch, 0.9, 0.1)
        assert all(np.array_equal(b, w) for b, w in zip(before, net.weights))


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

    def test_seed_changes_the_run(self, tiny_scenario, tiny_cfg):
        _, hist_a = train(tiny_scenario, tiny_cfg.dqn)
        _, hist_b = train(tiny_scenario, replace(tiny_cfg.dqn, seed=99))
        assert hist_a != hist_b

    def test_evaluate_policy(self, tiny_scenario, tiny_cfg):
        net, _ = train(tiny_scenario, tiny_cfg.dqn)
        env = ContestEnv(tiny_scenario)
        ev = evaluate_policy(net, env, steps=10)
        assert ev.steps == 10
        _, final_loss, final_feasible = tiny_scenario.round_loss(ev.final_state.efforts)
        assert (ev.final_total_loss, ev.final_feasible) == (final_loss, final_feasible)
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
