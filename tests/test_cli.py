"""Config parsing and the command-line harness."""

import dataclasses
import re

import pytest

from posecontest import config
from posecontest.cli import main
from posecontest.config import (
    ConfigError,
    RunConfig,
    build_contestants,
    build_scenario,
    data_seed,
    parse_config,
)
from posecontest.dqn import DqnConfig, load_policy
from posecontest.skeleton import QuantBounds, load_sequence

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


# Every accepted key, each set away from its default.  Some float keys are
# written as integers, so the test also pins that they still parse as floats.
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
reward_mode = full_budget
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
                reward_mode="full_budget",
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
        field = build_contestants(tiny_cfg)
        assert [c.user_id for c in field] == [1, 2, 3]
        assert [c.sequence.user_label for c in field] == ["run", "wave", "stand"]
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


class TestSearch:
    def test_writes_ledger_and_best(self, tiny_ini, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("search", "--config", tiny_ini, "--out", str(out)) == 0
        rows = (out / "search.csv").read_text().splitlines()
        assert rows[0] == "awards,efforts,total_loss,feasible"
        assert len(rows) == 2 + 1  # the step-5 grid over a pool of 10 is (10,0) and (5,5)
        assert "best prizes:" in capsys.readouterr().out


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

    def test_profile_without_joints_in_range_exits_2(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text(TINY_INI.replace("profiles = run, stand", "profiles = run, wave")
                       .replace("[scenario]", "[scenario]\njoint_count = 3"))
        out = tmp_path / "out"
        assert run("gen", "--config", str(ini), "--out", str(out)) == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run("explode")
        assert exc.value.code == 2
