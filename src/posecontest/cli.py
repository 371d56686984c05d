"""Command-line harness: generate data, run contests, train and compare policies.

Exit codes: 0 on success, 2 on configuration problems (bad config file,
unknown keys, invalid awards), 1 on runtime failures (missing inputs, broken
payloads).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from dataclasses import replace

from .config import ConfigError, RunConfig, build_scenario, read_config_file, user_clip
from .contest import AwardSetting, simulate_contest
from .dqn import (
    ContestEnv,
    evaluate_policy,
    format_history,
    load_policy,
    save_policy,
    train,
)
from .oracle import (
    average_baseline,
    exhaustive_award_search,
    exhaustive_effort_search,
    format_search_ledger,
)
from .skeleton import (
    SequenceFormatError,
    compression_ratio,
    decode_frame,
    encode_sequence,
    load_sequence,
    save_sequence,
)


def _write(cfg: RunConfig, name: str, data: bytes) -> str:
    """Write one output file into the output directory; return its path."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, name)
    # Write-then-rename so readers never observe a half-written file.
    fd, tmp = tempfile.mkstemp(dir=cfg.out_dir, prefix=".tmp-", suffix=name)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def _parse_awards(raw: str, cfg: RunConfig) -> AwardSetting:
    try:
        prizes = tuple(float(part) for part in raw.split(","))
    except ValueError:
        raise ConfigError(f"awards must be a comma-separated list of numbers, got {raw!r}") from None
    if len(prizes) != cfg.users:
        raise ConfigError(f"awards lists {len(prizes)} prizes for {cfg.users} users")
    if any(not math.isfinite(p) or p < 0 for p in prizes):
        raise ConfigError("awards must be finite and non-negative")
    if abs(sum(prizes) - cfg.pool) > 1e-9 * max(1.0, cfg.pool):
        raise ConfigError(f"awards sum to {sum(prizes)}, expected the pool {cfg.pool}")
    return AwardSetting(tuple(sorted(prizes, reverse=True)))


def cmd_gen(cfg: RunConfig, args: argparse.Namespace) -> int:
    for i, kind in enumerate(cfg.profiles):
        seq = user_clip(cfg, i)
        path = _write(cfg, f"user{i + 1}.{args.format}", save_sequence(seq, args.format))
        print(
            f"wrote {path}: {kind}, {seq.frame_count} frames, "
            f"{seq.joint_count} joints, {seq.native_rate} fps"
        )
    return 0


def cmd_contest(cfg: RunConfig, args: argparse.Namespace) -> int:
    scenario = build_scenario(cfg)
    if args.awards is not None:
        scenario = replace(scenario, awards=_parse_awards(args.awards, cfg))
    outcome = simulate_contest(scenario)

    rank_of = {user_id: rank + 1 for rank, user_id in enumerate(outcome.ranking)}
    lines = ["user,profile,capability,upload_rate,loss,prize,rank"]
    for i, c in enumerate(scenario.contestants):
        lines.append(
            f"{c.user_id},{cfg.profiles[i]},{repr(c.capability)},{outcome.efforts[i]},"
            f"{repr(outcome.per_user_loss[i])},{repr(outcome.prize_by_user[i])},{rank_of[c.user_id]}"
        )
    path = _write(cfg, "contest.csv", ("\n".join(lines) + "\n").encode("utf-8"))

    print(f"wrote {path}")
    print(f"awards: {', '.join(repr(p) for p in scenario.awards.prizes)}")
    print(f"upload rates: {', '.join(str(f) for f in outcome.efforts)}")
    print(f"total loss: {outcome.total_loss!r}")
    print(f"within budget {cfg.budget}: {'yes' if outcome.feasible else 'no'}")
    return 0


def cmd_train(cfg: RunConfig, args: argparse.Namespace) -> int:
    scenario = build_scenario(cfg)
    net, history = train(scenario, cfg.dqn_config())

    policy_path = _write(cfg, "policy.bin", save_policy(net))
    history_path = _write(cfg, "history.csv", format_history(history).encode("utf-8"))

    last = history[-1]
    print(f"wrote {policy_path} and {history_path}")
    print(
        f"episode {last.episode}: mean reward {last.mean_reward!r}, "
        f"final loss {last.total_loss!r}, epsilon {last.epsilon!r}"
    )
    return 0


def cmd_compare(cfg: RunConfig, args: argparse.Namespace) -> int:
    policy_path = args.policy if args.policy is not None else os.path.join(cfg.out_dir, "policy.bin")
    try:
        with open(policy_path, "rb") as fh:
            net = load_policy(fh.read())
    except FileNotFoundError:
        raise RuntimeError(
            f"policy file {policy_path!r} not found; run the train command first"
        ) from None

    scenario = build_scenario(cfg)
    env = ContestEnv(
        scenario,
        reward_mode=cfg.dqn.reward_mode,
        reward_scale=cfg.dqn.reward_scale,
    )
    if net.layer_sizes[0] != env.state_size or net.layer_sizes[-1] != env.n_actions:
        raise RuntimeError(
            f"policy shape {net.layer_sizes} does not fit this scenario "
            f"(needs {env.state_size} inputs, {env.n_actions} outputs)"
        )

    base_efforts, base_loss = average_baseline(scenario)
    evaluation = evaluate_policy(net, env, steps=cfg.dqn.steps_per_episode)
    if evaluation.best_state is not None:
        dqn_loss = evaluation.best_total_loss
        dqn_efforts = evaluation.best_state.efforts
    else:
        dqn_loss = evaluation.final_total_loss
        dqn_efforts = evaluation.final_state.efforts
    floor_efforts, floor_loss = exhaustive_effort_search(scenario)

    def reduction(loss: float) -> float:
        # A baseline at every native rate loses nothing, so there is nothing to reduce.
        return 100.0 * (base_loss - loss) / base_loss if base_loss else math.nan

    lines = ["method,total_loss,upload_rates,reduction_vs_baseline_pct"]
    for method, loss, efforts in (
        ("average_baseline", base_loss, base_efforts),
        ("dqn_policy", dqn_loss, dqn_efforts),
        ("effort_floor", floor_loss, floor_efforts),
    ):
        rates = " ".join(str(f) for f in efforts)
        lines.append(f"{method},{repr(loss)},{rates},{repr(reduction(loss))}")
    path = _write(cfg, "compare.csv", ("\n".join(lines) + "\n").encode("utf-8"))

    print(f"wrote {path}")
    print(f"average baseline loss: {base_loss!r}")
    print(f"dqn policy loss:       {dqn_loss!r}")
    print(f"effort floor loss:     {floor_loss!r}")
    print(f"loss reduction vs baseline: {reduction(dqn_loss):.3f}%")
    return 0


def cmd_codec(cfg: RunConfig, args: argparse.Namespace) -> int:
    if args.input is not None:
        fmt = "json" if args.input.endswith(".json") else "csv"
        try:
            with open(args.input, "rb") as fh:
                seq = load_sequence(fh.read(), fmt, native_rate=cfg.native_rate)
        except FileNotFoundError:
            raise RuntimeError(f"input file {args.input!r} not found") from None
    else:
        seq = user_clip(cfg, 0)

    payload = encode_sequence(seq, cfg.bounds)
    path = _write(cfg, "payload.bin", payload)

    bytes_per_frame = 3 * seq.joint_count
    ratio = compression_ratio(cfg.image_width, cfg.image_height, cfg.image_bits, seq.joint_count)
    clipped = seq.coords.clip(cfg.bounds.lo, cfg.bounds.hi)
    error = 0.0
    for i in range(seq.frame_count):
        chunk = payload[i * bytes_per_frame:(i + 1) * bytes_per_frame]
        decoded = decode_frame(chunk, seq.joint_count, cfg.bounds)
        error = max(error, float(abs(clipped[i] - decoded.coords).max()))
    half_step = cfg.bounds.span / 510.0

    print(f"wrote {path}: {seq.frame_count} frames, {bytes_per_frame} bytes/frame")
    print(
        f"compression ratio vs {cfg.image_width}x{cfg.image_height}x"
        f"{cfg.image_bits}bpp frame: {ratio:.4f}"
    )
    print(f"max quantization error {error!r} (half-step bound {half_step!r})")
    return 0


def cmd_search(cfg: RunConfig, args: argparse.Namespace) -> int:
    scenario = build_scenario(cfg)
    result = exhaustive_award_search(scenario, cfg.search_step)
    path = _write(cfg, "search.csv", format_search_ledger(result).encode("utf-8"))

    print(f"wrote {path}: {result.evaluated} prize vectors evaluated")
    if result.found_feasible:
        prizes = ", ".join(repr(p) for p in result.best_prizes)
        rates = ", ".join(str(f) for f in result.best_efforts)
        print(f"best prizes: {prizes}")
        print(f"induced upload rates: {rates}")
        print(f"total loss: {result.best_total_loss!r}")
    else:
        print("no prize vector on the lattice induced a feasible round")
    return 0


_COMMANDS = {
    "gen": cmd_gen,
    "contest": cmd_contest,
    "train": cmd_train,
    "compare": cmd_compare,
    "codec": cmd_codec,
    "search": cmd_search,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="config file (INI-style)")
    common.add_argument("--seed", type=int, metavar="N", help="override the run seed")
    common.add_argument("--out", metavar="DIR", help="override the output directory")

    parser = argparse.ArgumentParser(
        prog="posecontest",
        description="Contest-driven upload-rate allocation for skeleton streaming.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", parents=[common], help="generate synthetic user clips")
    gen.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")

    contest = sub.add_parser("contest", parents=[common], help="simulate one contest round")
    contest.add_argument(
        "--awards",
        metavar="P1,P2,...",
        help="prize vector (must sum to the pool); defaults to an equal split",
    )

    sub.add_parser("train", parents=[common], help="train the prize-setting policy")

    compare = sub.add_parser(
        "compare", parents=[common], help="compare the trained policy against baselines"
    )
    compare.add_argument("--policy", metavar="PATH", help="policy file (default: OUT/policy.bin)")

    codec = sub.add_parser("codec", parents=[common], help="pack a clip into frame payloads")
    codec.add_argument("--input", metavar="PATH", help="clip to encode (default: generated)")

    sub.add_parser("search", parents=[common], help="exhaustive prize-lattice search")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            cfg = read_config_file(args.config)
        else:
            cfg = RunConfig()
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.out is not None:
            cfg = replace(cfg, out_dir=args.out)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SequenceFormatError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
