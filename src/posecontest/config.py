"""Run configuration: defaults, plain-text config files, scenario assembly.

Config files are INI-style with one section per concern:

    [run]       seed, out_dir
    [scenario]  users, native_rate, joint_count, frame_count, budget, pool,
                profiles, selection_mode, render_method
    [dqn]       episodes, steps_per_episode, batch_size, buffer_capacity,
                hidden_sizes, discount, learning_rate, epsilon_start,
                epsilon_end, epsilon_decay, target_sync, reward_mode,
                reward_scale
    [codec]     lo, hi, image_width, image_height, image_bits
    [search]    step

Every key is optional and falls back to its field's default below; a value
must parse as that default's type, a list item by item.  Unknown sections or
keys are rejected rather than ignored.
"""

from __future__ import annotations

import configparser
import math
import zlib
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .contest import SELECTION_MODES, ContestantState, AwardSetting, ScenarioConfig
from .dqn import DqnConfig
from .skeleton import DEFAULT_PROFILES, QuantBounds, SkeletonSequence, generate_synthetic, get_profile

RENDER_METHODS = ("hold", "linear")


class ConfigError(ValueError):
    """A run configuration is malformed or inconsistent."""


@dataclass
class RunConfig:
    """Everything one CLI invocation needs, resolvable to a scenario."""

    seed: int = 0
    out_dir: str = "out"
    users: int = 4
    native_rate: int = 60
    joint_count: int = 17
    frame_count: int = 300
    budget: int = 120
    pool: float = 100.0
    profiles: tuple[str, ...] = ("run", "dance", "wave", "stand")
    selection_mode: str = "net"
    render_method: str = "hold"
    dqn: DqnConfig = field(default_factory=DqnConfig)
    bounds: QuantBounds = field(default_factory=QuantBounds)
    image_width: int = 1080
    image_height: int = 1908
    image_bits: int = 32
    search_step: float = 5.0

    def __post_init__(self):
        if self.users < 1:
            raise ConfigError("users must be at least 1")
        if self.native_rate < 1:
            raise ConfigError("native_rate must be at least 1")
        if self.joint_count < 1:
            raise ConfigError("joint_count must be at least 1")
        if self.frame_count < 1:
            raise ConfigError("frame_count must be at least 1")
        if self.budget < 1:
            raise ConfigError("budget must be at least 1")
        if not math.isfinite(self.pool) or self.pool <= 0:
            raise ConfigError("pool must be finite and positive")
        if len(self.profiles) != self.users:
            raise ConfigError(
                f"profiles lists {len(self.profiles)} entries for {self.users} users"
            )
        for kind in self.profiles:
            if kind not in DEFAULT_PROFILES:
                available = ", ".join(sorted(DEFAULT_PROFILES))
                raise ConfigError(f"unknown profile {kind!r}; available: {available}")
            if min(DEFAULT_PROFILES[kind].active_joints) >= self.joint_count:
                raise ConfigError(
                    f"profile {kind!r} has no active joint below joint_count={self.joint_count}"
                )
        if self.selection_mode not in SELECTION_MODES:
            raise ConfigError(
                f"unknown selection_mode {self.selection_mode!r}; expected one of {SELECTION_MODES}"
            )
        if self.render_method not in RENDER_METHODS:
            raise ConfigError(
                f"unknown render_method {self.render_method!r}; expected one of {RENDER_METHODS}"
            )
        if self.image_width < 1 or self.image_height < 1 or self.image_bits < 1:
            raise ConfigError("image dimensions must be positive")
        if not math.isfinite(self.search_step) or self.search_step <= 0:
            raise ConfigError("search step must be finite and positive")

    def dqn_config(self) -> DqnConfig:
        """The DQN settings with the run seed threaded through."""
        return replace(self.dqn, seed=self.seed)


def data_seed(seed: int, index: int) -> int:
    """Per-user generator seed, derived from the run seed's data substream."""
    ss = np.random.SeedSequence((seed, zlib.crc32(b"data"), index))
    return int(ss.generate_state(1)[0])


def user_clip(cfg: RunConfig, index: int) -> SkeletonSequence:
    """The synthetic clip of the user at 0-based index, from the run seed."""
    return generate_synthetic(
        get_profile(cfg.profiles[index]),
        cfg.frame_count,
        cfg.native_rate,
        cfg.joint_count,
        seed=data_seed(cfg.seed, index),
    )


def build_contestants(cfg: RunConfig) -> list[ContestantState]:
    """Generate each user's clip and derive their contest state."""
    return [
        ContestantState.from_sequence(i + 1, user_clip(cfg, i), cfg.render_method)
        for i in range(cfg.users)
    ]


def build_scenario(cfg: RunConfig) -> ScenarioConfig:
    """Assemble the contest instance this config describes, starting from an
    equal prize split."""
    share = cfg.pool / cfg.users
    return ScenarioConfig(
        contestants=build_contestants(cfg),
        budget=cfg.budget,
        awards=AwardSetting((share,) * cfg.users),
        selection_mode=cfg.selection_mode,
    )


# section -> the keys it accepts.  Each value parses as the type of its
# field's default, tuples item by item; [search] step sets search_step.
_SECTIONS = {
    "run": ("seed", "out_dir"),
    "scenario": ("users", "native_rate", "joint_count", "frame_count", "budget", "pool",
                 "profiles", "selection_mode", "render_method"),
    "dqn": tuple(f.name for f in fields(DqnConfig) if f.name != "seed"),
    "codec": ("lo", "hi", "image_width", "image_height", "image_bits"),
    "search": ("step",),
}


def parse_config(text: str) -> RunConfig:
    """Parse config file text into a validated RunConfig.

    Raises:
        ConfigError: on syntax errors, unknown sections or keys, bad value
            types, or inconsistent values.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from None

    values: dict[type, dict[str, object]] = {RunConfig: {}, DqnConfig: {}, QuantBounds: {}}
    for section in parser.sections():
        if section not in _SECTIONS:
            known = ", ".join(sorted(_SECTIONS))
            raise ConfigError(f"unknown config section [{section}]; known sections: {known}")
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                known = ", ".join(sorted(_SECTIONS[section]))
                raise ConfigError(
                    f"unknown key {key!r} in section [{section}]; known keys: {known}"
                )
            owner = DqnConfig if section == "dqn" else QuantBounds if key in ("lo", "hi") else RunConfig
            name = "search_step" if section == "search" else key
            default = getattr(owner, name)
            try:
                if isinstance(default, tuple):
                    parts = (part.strip() for part in raw.split(","))
                    value = tuple(type(default[0])(part) for part in parts if part)
                else:
                    value = type(default)(raw.strip())
            except ValueError:
                raise ConfigError(
                    f"bad value for {key!r} in section [{section}]: {raw!r}"
                ) from None
            values[owner][name] = value

    try:
        dqn = DqnConfig(**values[DqnConfig])
        bounds = QuantBounds(**values[QuantBounds])
        return RunConfig(dqn=dqn, bounds=bounds, **values[RunConfig])
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def read_config_file(path: str) -> RunConfig:
    """Load and parse a config file from disk."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    return parse_config(text)
