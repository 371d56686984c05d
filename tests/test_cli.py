"""Config parsing and the command-line harness."""

import contextlib
import csv
import dataclasses
import io
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posecontest import config
from posecontest.cli import main
from posecontest.config import (
    RENDER_METHODS,
    ConfigError,
    RunConfig,
    build_scenario,
    data_seed,
    parse_config,
)
from posecontest.contest import CAPABILITY_FLOOR, SELECTION_MODES
from posecontest.dqn import DqnConfig, load_policy
from posecontest.skeleton import DEFAULT_PROFILES, QuantBounds, load_sequence
from test_acceptance import SMALL_INI

TINY_INI = """\
[run]
seed = 0

[scenario]
users = 2
native_rate = 6
frame_count = 12
budget = 8
pool = 10
profiles = run, stand

[dqn]
episodes = 2
steps_per_episode = 5
batch_size = 4
buffer_capacity = 16
hidden_sizes = 8
target_sync = 5

[search]
step = 5
"""


# Every accepted key, each set away from its default except reward_mode,
# whose one accepted value is its default.  Some float keys are written as
# integers, so the test also pins that they still parse as floats.
FULL_INI = """\
[run]
seed = 11
out_dir = runs/full

[scenario]
users = 3
native_rate = 12
joint_count = 16
frame_count = 48
budget = 20
pool = 30
profiles = run, wave, stand
selection_mode = payment
render_method = linear

[dqn]
episodes = 7
steps_per_episode = 9
batch_size = 8
buffer_capacity = 64
hidden_sizes = 16, 12
discount = 0.8
learning_rate = 0.002
epsilon_start = 0.9
epsilon_end = 0.1
epsilon_decay = 0.99
target_sync = 25
reward_mode = strict
reward_scale = 2.5

[codec]
lo = -3
hi = 1.5
image_width = 640
image_height = 480
image_bits = 24

[search]
step = 3
"""


def _docstring_keys() -> dict[str, list[str]]:
    """The section -> key names table in the config module's docstring."""
    block = config.__doc__.split("one section per concern:")[1].split("Every key")[0]
    parts = re.split(r"\[(\w+)\]", block)[1:]
    return {
        section: sorted(key.strip() for key in keys.split(","))
        for section, keys in zip(parts[::2], parts[1::2])
    }


@pytest.fixture
def tiny_ini(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_INI)
    return str(path)


def run(*args):
    return main(list(args))


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg == RunConfig()
        assert cfg.users == 4
        assert cfg.native_rate == 60
        assert cfg.budget == 120
        assert cfg.pool == 100.0

    def test_full_round(self):
        cfg = parse_config(TINY_INI)
        assert cfg.users == 2
        assert cfg.profiles == ("run", "stand")
        assert cfg.dqn.episodes == 2
        assert cfg.dqn.hidden_sizes == (8,)
        assert cfg.search_step == 5.0

    def test_every_key_parses_to_its_field(self):
        expected = RunConfig(
            seed=11,
            out_dir="runs/full",
            users=3,
            native_rate=12,
            joint_count=16,
            frame_count=48,
            budget=20,
            pool=30.0,
            profiles=("run", "wave", "stand"),
            selection_mode="payment",
            render_method="linear",
            dqn=DqnConfig(
                episodes=7,
                steps_per_episode=9,
                batch_size=8,
                buffer_capacity=64,
                hidden_sizes=(16, 12),
                discount=0.8,
                learning_rate=0.002,
                epsilon_start=0.9,
                epsilon_end=0.1,
                epsilon_decay=0.99,
                target_sync=25,
                reward_mode="strict",
                reward_scale=2.5,
            ),
            bounds=QuantBounds(lo=-3.0, hi=1.5),
            image_width=640,
            image_height=480,
            image_bits=24,
            search_step=3.0,
        )
        cfg = parse_config(FULL_INI)
        pairs = [(cfg, expected, RunConfig()), (cfg.dqn, expected.dqn, DqnConfig()),
                 (cfg.bounds, expected.bounds, QuantBounds())]
        compared = 0
        for got, want, default in pairs:
            for f in dataclasses.fields(want):
                value, wanted = getattr(got, f.name), getattr(want, f.name)
                if f.name in ("dqn", "bounds") or (want is expected.dqn and f.name == "seed"):
                    continue
                assert value == wanted, f.name
                assert type(value) is type(wanted), f.name
                if isinstance(wanted, tuple):
                    assert [type(v) for v in value] == [type(v) for v in wanted], f.name
                if f.name != "reward_mode":
                    assert wanted != getattr(default, f.name), f.name
                compared += 1
        assert compared == 30
        assert cfg == expected

    def test_known_keys_match_docstring(self):
        documented = _docstring_keys()
        with pytest.raises(ConfigError) as exc:
            parse_config("[misc]\nx = 1\n")
        assert str(exc.value).split("known sections: ")[1].split(", ") == sorted(documented)
        for section, keys in documented.items():
            with pytest.raises(ConfigError) as exc:
                parse_config(f"[{section}]\nnot_a_key = 1\n")
            assert str(exc.value).split("known keys: ")[1].split(", ") == keys, section

    def test_codec_section_feeds_bounds(self):
        cfg = parse_config("[codec]\nlo = -1\nhi = 3\nimage_bits = 24\n")
        assert cfg.bounds.lo == -1.0
        assert cfg.bounds.hi == 3.0
        assert cfg.image_bits == 24

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            parse_config("[misc]\nx = 1\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("[scenario]\nplayers = 4\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("[scenario]\nusers = four\n")

    def test_syntax_error(self):
        with pytest.raises(ConfigError, match="syntax"):
            parse_config("users = 4\n")

    def test_cross_field_validation(self):
        with pytest.raises(ConfigError, match="profiles lists"):
            parse_config("[scenario]\nusers = 2\nprofiles = run\n")
        with pytest.raises(ConfigError, match="unknown profile"):
            parse_config("[scenario]\nusers = 1\nprofiles = flip\n")

    def test_dqn_validation_is_wrapped(self):
        with pytest.raises(ConfigError):
            parse_config("[dqn]\ndiscount = 1.5\n")
        with pytest.raises(ConfigError):
            parse_config("[codec]\nlo = 2\nhi = 2\n")


class TestRunConfig:
    def test_dqn_config_threads_seed(self):
        cfg = RunConfig(seed=42)
        assert cfg.dqn_config().seed == 42
        assert cfg.dqn.seed == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(users=0),
            dict(native_rate=0),
            dict(frame_count=0),
            dict(budget=0),
            dict(pool=0.0),
            dict(profiles=("run",)),
            dict(selection_mode="greedy"),
            dict(render_method="spline"),
            dict(image_width=0),
            dict(search_step=0.0),
            dict(pool=float("nan")),
            dict(pool=float("inf")),
            dict(search_step=float("nan")),
            dict(search_step=float("inf")),
            dict(joint_count=3, users=1, profiles=("wave",)),
            dict(out_dir=""),
            dict(budget=3),
            dict(seed=-1),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)


class TestBuildScenario:
    def test_data_seed_is_stable_and_distinct(self):
        assert data_seed(0, 0) == data_seed(0, 0)
        assert data_seed(0, 0) != data_seed(0, 1)
        assert data_seed(0, 0) != data_seed(1, 0)

    def test_contestants_follow_profiles(self, tiny_cfg):
        field = build_scenario(tiny_cfg).contestants
        assert [c.user_id for c in field] == [1, 2, 3]
        assert [config.user_clip(tiny_cfg, i).user_label for i in range(3)] == ["run", "wave", "stand"]
        assert all(c.native_rate == 6 for c in field)

    def test_scenario_starts_from_equal_split(self, tiny_cfg):
        scenario = build_scenario(tiny_cfg)
        assert scenario.awards.prizes == (4.0, 4.0, 4.0)
        assert scenario.budget == 9
        assert scenario.selection_mode == "net"


class TestGen:
    def test_writes_csv_files(self, tiny_ini, tmp_path):
        out = tmp_path / "out"
        assert run("gen", "--config", tiny_ini, "--out", str(out)) == 0
        seq = load_sequence((out / "user1.csv").read_bytes(), "csv", native_rate=6)
        assert seq.coords.shape == (12, 17, 3)
        assert (out / "user2.csv").exists()

    def test_json_format_carries_metadata(self, tiny_ini, tmp_path):
        out = tmp_path / "out"
        assert run("gen", "--config", tiny_ini, "--out", str(out), "--format", "json") == 0
        seq = load_sequence((out / "user2.json").read_bytes(), "json")
        assert seq.user_label == "stand"
        assert seq.native_rate == 6

    def test_seed_override_changes_data(self, tiny_ini, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("gen", "--config", tiny_ini, "--out", str(a))
        run("gen", "--config", tiny_ini, "--out", str(b), "--seed", "9")
        assert (a / "user1.csv").read_bytes() != (b / "user1.csv").read_bytes()


class TestContest:
    def test_writes_report(self, tiny_ini, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("contest", "--config", tiny_ini, "--out", str(out)) == 0
        lines = (out / "contest.csv").read_text().splitlines()
        assert lines[0] == "user,profile,capability,upload_rate,loss,prize,rank"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "run"
        assert "total loss:" in capsys.readouterr().out

    def test_custom_awards(self, tiny_ini, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("contest", "--config", tiny_ini, "--out", str(out), "--awards", "0,10") == 0
        assert "awards: 10.0, 0.0" in capsys.readouterr().out

    @pytest.mark.parametrize("raw", ["1,2,3", "5,x", "11,-1", "9,2", "nan,10"])
    def test_bad_awards_exit_2(self, tiny_ini, tmp_path, raw, capsys):
        out = tmp_path / "out"
        assert run("contest", "--config", tiny_ini, "--out", str(out), "--awards", raw) == 2
        assert "config error:" in capsys.readouterr().err


class TestTrainCompare:
    def test_train_then_compare(self, tiny_ini, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("train", "--config", tiny_ini, "--out", str(out)) == 0
        net = load_policy((out / "policy.bin").read_bytes())
        assert net.layer_sizes == (4, 8, 3)
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "episode,mean_reward,total_loss,epsilon"
        assert len(history) == 3

        assert run("compare", "--config", tiny_ini, "--out", str(out)) == 0
        rows = (out / "compare.csv").read_text().splitlines()
        assert rows[0] == "method,total_loss,upload_rates,reduction_vs_baseline_pct"
        methods = [r.split(",")[0] for r in rows[1:]]
        assert methods == ["average_baseline", "dqn_policy", "effort_floor"]
        out_text = capsys.readouterr().out
        assert "loss reduction vs baseline" in out_text

    def test_seven_users(self, tmp_path):
        # 12^7 rate profiles at the default native rate 60: too many to enumerate.
        ini = tmp_path / "seven.ini"
        ini.write_text(
            "[scenario]\nusers = 7\nframe_count = 60\nbudget = 210\npool = 140\n"
            "profiles = run, dance, wave, stand, run, dance, wave\n"
            "[dqn]\nepisodes = 2\nsteps_per_episode = 5\nbatch_size = 4\n"
            "buffer_capacity = 16\nhidden_sizes = 8\n"
        )
        out = tmp_path / "out"
        assert run("train", "--config", str(ini), "--out", str(out)) == 0
        assert run("compare", "--config", str(ini), "--out", str(out)) == 0
        method, _, rates, _ = (out / "compare.csv").read_text().splitlines()[-1].split(",")
        assert method == "effort_floor"
        assert len(rates.split(" ")) == 7

    def test_compare_without_policy_exits_1(self, tiny_ini, tmp_path, capsys):
        out = tmp_path / "a" / "b"
        assert run("compare", "--config", tiny_ini, "--out", str(out)) == 1
        assert "run the train command first" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    def test_zero_baseline_loss(self, tmp_path, capsys):
        # A budget of 2 users x native rate 6 lets the equal split upload
        # every frame, so the baseline loses nothing and no reduction exists.
        ini = tmp_path / "full.ini"
        ini.write_text(TINY_INI.replace("budget = 8", "budget = 12"))
        out = tmp_path / "out"
        assert run("train", "--config", str(ini), "--out", str(out)) == 0
        assert run("compare", "--config", str(ini), "--out", str(out)) == 0
        rows = [r.split(",") for r in (out / "compare.csv").read_text().splitlines()[1:]]
        assert rows[0][:3] == ["average_baseline", "0.0", "6 6"]
        assert [r[3] for r in rows] == ["nan"] * 3
        assert "loss reduction vs baseline: nan%" in capsys.readouterr().out

    def test_compare_rejects_mismatched_policy(self, tiny_ini, tmp_path, capsys):
        out = tmp_path / "out"
        run("train", "--config", tiny_ini, "--out", str(out))
        other = tmp_path / "other"
        # a policy trained for a different contestant count cannot be applied
        assert (
            run(
                "compare",
                "--config",
                tiny_ini,
                "--out",
                str(tmp_path / "o2"),
                "--policy",
                str(out / "policy.bin"),
            )
            == 0
        )
        bad_ini = tmp_path / "three.ini"
        bad_ini.write_text(TINY_INI.replace("users = 2", "users = 3").replace(
            "profiles = run, stand", "profiles = run, wave, stand"
        ).replace("budget = 8", "budget = 12").replace("pool = 10", "pool = 12"))
        assert (
            run(
                "compare",
                "--config",
                str(bad_ini),
                "--out",
                str(tmp_path / "o3"),
                "--policy",
                str(out / "policy.bin"),
            )
            == 1
        )
        assert "does not fit this scenario" in capsys.readouterr().err

    def test_compare_rejects_policy_larger_than_its_file(self, tiny_ini, tmp_path, capsys):
        # 17 bytes that declare a 200,000 x 200,000 layer: refused before any allocation.
        policy = tmp_path / "huge.bin"
        policy.write_bytes(b"QNET" + struct.pack("<BI2I", 1, 2, 200_000, 200_000))
        out = tmp_path / "out"
        assert run("compare", "--config", tiny_ini, "--out", str(out), "--policy", str(policy)) == 1
        assert "error: policy payload truncated in layer 0 parameters" in capsys.readouterr().err
        assert not out.exists()


class TestZeroLossRounds:
    """Fields where a round inside the budget can lose nothing.  Each reward is
    reward_scale over the round's loss, floored at the field's least per-user
    loss above CAPABILITY_FLOOR, so no reward exceeds reward_scale over that floor."""

    def train(self, tmp_path, scenario, episodes):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[scenario]\n{scenario}\n[dqn]\nepisodes = {episodes}\n")
        assert run("train", "--config", str(ini), "--seed", "0", "--out", str(tmp_path / "out")) == 0
        with open(tmp_path / "out" / "history.csv", newline="") as fh:
            rewards = [float(row["mean_reward"]) for row in csv.DictReader(fh)]
        assert len(rewards) == episodes
        return build_scenario(parse_config(ini.read_text())), rewards

    def test_rate_one_field(self, tmp_path):
        # Every user's only rate is 1, so every round loses nothing and fits the
        # budget: a field with nothing to tune earns reward_scale on every step.
        scenario, rewards = self.train(tmp_path, "native_rate = 1\nbudget = 4", episodes=10)
        assert all(loss == 0.0 for c in scenario.contestants for loss in c.loss_table.values())
        assert rewards == [1.0] * 10

    @pytest.mark.parametrize(
        "scenario",
        [
            # 8,028 of the 8,037 step-1 lattice vectors lose nothing here.
            "selection_mode = payment\nbudget = 240",
            "users = 4\nnative_rate = 6\nbudget = 26\npool = 10\n"
            "profiles = run, run, wave, stand\nselection_mode = payment",
        ],
        ids=["default-payment-budget-240", "four-users-rate-6-payment"],
    )
    def test_rewards_stay_under_the_field_ceiling(self, tmp_path, scenario):
        scenario, rewards = self.train(tmp_path, scenario, episodes=5)
        floor = min(x for c in scenario.contestants for x in c.loss_table.values() if x > CAPABILITY_FLOOR)
        # A mean of 100 rewards, each at most the ceiling, up to the rounding of their sum.
        assert max(rewards) <= (1.0 / floor) * (1 + 1e-12)
        assert min(rewards) > 0.0


class TestTrainingOverflow:
    def test_error_names_the_episode_step_and_rewards(self, tmp_path, capsys):
        # A valid but huge reward scale overflows the learner; the error says
        # where training was and what rewards the failing batch held.
        ini = tmp_path / "small.ini"
        ini.write_text(SMALL_INI + "reward_scale = 1e300\n")
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            assert run("train", "--config", str(ini), "--seed", "0", "--out", str(out)) == 1
        err = capsys.readouterr().err
        found = re.fullmatch(
            r"error: non-finite gradient; value network update aborted at episode (\d+), step (\d+); "
            r"the batch's rewards run from (\S+) to (\S+)\n", err)
        assert found, err
        episode, step, low, high = int(found[1]), int(found[2]), float(found[3]), float(found[4])
        assert 1 <= episode <= 40 and 1 <= step <= 30
        assert 1e298 < low <= high < 1e302
        assert not out.exists()


class TestCodec:
    def test_generated_clip(self, tiny_ini, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("codec", "--config", tiny_ini, "--out", str(out)) == 0
        payload = (out / "payload.bin").read_bytes()
        assert len(payload) == 12 * 51
        assert "51 bytes/frame" in capsys.readouterr().out

    def test_input_file(self, tiny_ini, tmp_path):
        out = tmp_path / "out"
        run("gen", "--config", tiny_ini, "--out", str(out), "--format", "json")
        assert (
            run(
                "codec",
                "--config",
                tiny_ini,
                "--out",
                str(out),
                "--input",
                str(out / "user1.json"),
            )
            == 0
        )

    def test_missing_input_exits_1(self, tiny_ini, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("codec", "--config", tiny_ini, "--out", str(out), "--input", "nope.csv") == 1
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,1,0,0,0\r1,2,0,0,0", "line 1: new-line character seen in unquoted field"),
            (f"frame,joint,x,y,z\n1,1,0,0,{'0' * (csv.field_size_limit() + 1)}\n",
             "line 2: field larger than field limit"),
        ],
        ids=["lone-cr", "over-field-limit"],
    )
    def test_unreadable_csv_exits_1(self, tiny_ini, tmp_path, capsys, text, message):
        clip = tmp_path / "clip.csv"
        clip.write_bytes(text.encode())
        out = tmp_path / "out"
        assert run("codec", "--config", tiny_ini, "--out", str(out), "--input", str(clip)) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")


class TestSearch:
    def test_writes_ledger_and_best(self, tiny_ini, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("search", "--config", tiny_ini, "--out", str(out)) == 0
        rows = (out / "search.csv").read_text().splitlines()
        assert rows[0] == "awards,efforts,total_loss,feasible"
        assert len(rows) == 2 + 1  # the step-5 grid over a pool of 10 is (10,0) and (5,5)
        assert "best prizes:" in capsys.readouterr().out

    def test_step_not_dividing_the_pool_exits_2(self, tmp_path, capsys):
        # The lattice needs whole steps to the pool; train accepts the same file.
        ini = tmp_path / "bad.ini"
        ini.write_text(TINY_INI.replace("pool = 10", "pool = 3"))
        out = tmp_path / "out"
        assert run("search", "--config", str(ini), "--out", str(out)) == 2
        assert capsys.readouterr().err == "config error: step 5.0 does not divide pool 3.0\n"
        assert not out.exists()
        assert run("train", "--config", str(ini), "--out", str(out)) == 0


@st.composite
def accepted_configs(draw):
    """Small config files RunConfig accepts: 1-4 users, native rates with many
    divisors and rate 1, one frame and up, budgets from the user count to two
    past every user at the native rate, non-integer pools, both selection modes
    and render methods, and tiny learners."""
    users = draw(st.integers(1, 4))
    rate = draw(st.sampled_from([1, 2, 6, 12]))
    step = draw(st.sampled_from([0.5, 1.0, 2.5, 5.0]))
    pool = draw(st.one_of(st.integers(1, 12).map(lambda units: units * step), st.floats(0.1, 40.0)))
    profiles = draw(st.lists(st.sampled_from(sorted(DEFAULT_PROFILES)), min_size=users, max_size=users))
    batch = draw(st.integers(1, 4))
    hidden = draw(st.lists(st.integers(1, 8), min_size=1, max_size=2))
    return f"""\
[run]
seed = {draw(st.integers(0, 2**16))}

[scenario]
users = {users}
native_rate = {rate}
frame_count = {draw(st.integers(1, 24))}
budget = {draw(st.integers(users, users * rate + 2))}
pool = {pool!r}
profiles = {", ".join(profiles)}
selection_mode = {draw(st.sampled_from(SELECTION_MODES))}
render_method = {draw(st.sampled_from(RENDER_METHODS))}

[dqn]
episodes = {draw(st.integers(1, 3))}
steps_per_episode = {draw(st.integers(1, 8))}
batch_size = {batch}
buffer_capacity = {draw(st.integers(batch, 16))}
hidden_sizes = {", ".join(map(str, hidden))}
target_sync = {draw(st.integers(1, 5))}

[search]
step = {step!r}
"""


class TestEveryAcceptedConfig:
    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(accepted_configs())
    def test_each_command_works_or_exits_2(self, tmp_path_factory, text):
        # Each command either writes its outputs, or exits 2 with a config error
        # before it writes anything.
        base = tmp_path_factory.mktemp("accepted")
        ini = base / "run.ini"
        ini.write_text(text)
        users = parse_config(text).users
        outputs = {
            "gen": [f"user{i}.csv" for i in range(1, users + 1)],
            "contest": ["contest.csv"],
            "codec": ["payload.bin"],
            "search": ["search.csv"],
            "train": ["policy.bin", "history.csv"],
            "compare": ["compare.csv"],
        }
        for command, names in outputs.items():
            out = base / command
            argv = [command, "--config", str(ini), "--out", str(out)]
            if command == "compare":
                argv += ["--policy", str(base / "train" / "policy.bin")]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            if code == 2:
                assert err.getvalue().startswith("config error: "), command
                assert not out.exists(), command
            else:
                assert code == 0, (command, err.getvalue())
                assert sorted(p.name for p in out.iterdir()) == sorted(names), command


class TestErrors:
    def test_missing_config_file(self, capsys):
        assert run("gen", "--config", "/does/not/exist.ini") == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_bad_config_content(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[nope]\nx = 1\n")
        assert run("gen", "--config", str(bad)) == 2
        assert "unknown config section" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, old, new",
        [
            ("contest", "pool = 10", "pool = nan"),
            ("search", "pool = 10", "pool = inf"),
            ("train", "pool = 10", "pool = nan"),
            ("search", "step = 5", "step = nan"),
            ("train", "[dqn]", "[dqn]\nlearning_rate = nan"),
            ("train", "[dqn]", "[dqn]\nlearning_rate = inf"),
            ("train", "[dqn]", "[dqn]\nreward_scale = nan"),
        ],
        ids=["contest-pool-nan", "search-pool-inf", "train-pool-nan", "search-step-nan",
             "train-learning_rate-nan", "train-learning_rate-inf", "train-reward_scale-nan"],
    )
    def test_non_finite_value_exits_2(self, tmp_path, capsys, command, old, new):
        ini = tmp_path / "bad.ini"
        ini.write_text(TINY_INI.replace(old, new))
        assert run(command, "--config", str(ini), "--out", str(tmp_path / "out")) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new", [("step = 5", "step = 1e-20"), ("pool = 10", "pool = 1e300")],
                             ids=["step", "pool"])
    def test_lattice_of_more_units_than_int64_exits_2(self, tmp_path, capsys, old, new):
        # pool / step lattice units past int64's range are a config error, not a crash in the search.
        ini = tmp_path / "bad.ini"
        ini.write_text(TINY_INI.replace(old, new))
        assert run("search", "--config", str(ini), "--out", str(tmp_path / "out")) == 2
        assert "config error: step" in capsys.readouterr().err

    def test_profile_without_joints_in_range_exits_2(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text(TINY_INI.replace("profiles = run, stand", "profiles = run, wave")
                       .replace("[scenario]", "[scenario]\njoint_count = 3"))
        out = tmp_path / "out"
        assert run("gen", "--config", str(ini), "--out", str(out)) == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["flag", "ini"])
    def test_empty_out_dir_exits_2(self, tmp_path, monkeypatch, capsys, where):
        # Rejected before training, not at the first write after it.
        ini = tmp_path / "tiny.ini"
        if where == "flag":
            ini.write_text(TINY_INI)
            args = ("--out", "")
        else:
            ini.write_text(TINY_INI.replace("seed = 0", "seed = 0\nout_dir ="))
            args = ()
        monkeypatch.chdir(tmp_path)
        assert run("train", "--config", str(ini), *args) == 2
        assert "config error: out_dir must not be empty" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["tiny.ini"]

    @pytest.mark.parametrize("lo, hi", [("-5e306", "5e306"), ("-1e308", "1e308")], ids=["product", "span"])
    def test_codec_bounds_whose_quantizer_overflows_exit_2(self, tmp_path, capsys, lo, hi):
        # 255 * (hi - lo) overflows; the span itself does too in the second case.
        ini = tmp_path / "bad.ini"
        ini.write_text(f"{TINY_INI}\n[codec]\nlo = {lo}\nhi = {hi}\n")
        out = tmp_path / "out"
        assert run("codec", "--config", str(ini), "--out", str(out)) == 2
        assert "config error: need 255 * (hi - lo) finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_budget_below_user_count_exits_2(self, tmp_path, capsys, command):
        # Every user uploads at least one frame per second, so no allocation fits.
        ini = tmp_path / "bad.ini"
        ini.write_text(TINY_INI.replace("budget = 8", "budget = 1"))
        out = tmp_path / "out"
        assert run(command, "--config", str(ini), "--out", str(out)) == 2
        assert "config error: budget 1 is below the user count 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen", "train", "contest", "codec", "search"])
    def test_negative_seed_flag_exits_2(self, tiny_ini, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert run(command, "--config", tiny_ini, "--seed", "-1", "--out", str(out)) == 2
        assert "config error: seed must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_key_exits_2(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text(TINY_INI.replace("seed = 0", "seed = -3"))
        out = tmp_path / "out"
        assert run("train", "--config", str(ini), "--out", str(out)) == 2
        assert "config error: seed must be non-negative, got -3" in capsys.readouterr().err
        assert not out.exists()

    def test_unallocatable_size_exits_1(self, tmp_path, capsys):
        # 10**16 replay rows of a 32-byte state is 284 PiB, past a 57-bit address space,
        # so it fails under any overcommit setting.
        ini = tmp_path / "huge.ini"
        ini.write_text(TINY_INI.replace("buffer_capacity = 16", "buffer_capacity = 10000000000000000"))
        out = tmp_path / "out"
        assert run("train", "--config", str(ini), "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("error: Unable to allocate")
        assert not out.exists()

    def test_retired_reward_mode_exits_2(self, tmp_path, capsys):
        # full_budget rewarded rounds over the budget, which compare discards.
        ini = tmp_path / "bad.ini"
        ini.write_text(TINY_INI.replace("[dqn]", "[dqn]\nreward_mode = full_budget"))
        out = tmp_path / "out"
        assert run("train", "--config", str(ini), "--out", str(out)) == 2
        assert "config error: unknown reward mode 'full_budget'" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run("explode")
        assert exc.value.code == 2
