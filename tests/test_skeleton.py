"""Sequence synthesis, rendering loss, codec, and serialization."""

import math

import numpy as np
import pytest

from posecontest.skeleton import (
    ARM_JOINTS,
    DEFAULT_PROFILES,
    JOINT_COUNT,
    JOINT_NAMES,
    MotionProfile,
    QuantBounds,
    SequenceFormatError,
    SkeletonFrame,
    SkeletonSequence,
    base_pose,
    compression_ratio,
    decode_frame,
    downsample_render,
    downsampling_loss,
    encode_frame,
    encode_sequence,
    generate_synthetic,
    get_profile,
    load_sequence,
    save_sequence,
)


def make_sequence(coords, rate=6, label=""):
    return SkeletonSequence(np.asarray(coords, dtype=np.float64), rate, label)


class TestTypes:
    def test_joint_convention(self):
        assert JOINT_COUNT == 17
        assert len(JOINT_NAMES) == 17
        assert JOINT_NAMES[0] == "nose"
        assert all(JOINT_NAMES[j].endswith(("shoulder", "elbow", "wrist")) for j in ARM_JOINTS)

    def test_frame_validation(self):
        frame = SkeletonFrame(np.zeros((4, 3)))
        assert frame.joint_count == 4
        with pytest.raises(ValueError):
            SkeletonFrame(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            SkeletonFrame(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            SkeletonFrame(np.full((2, 3), np.nan))

    def test_sequence_validation(self):
        seq = make_sequence(np.zeros((2, 3, 3)))
        assert seq.frame_count == 2
        assert seq.joint_count == 3
        with pytest.raises(ValueError):
            make_sequence(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            make_sequence(np.zeros((0, 3, 3)))
        with pytest.raises(ValueError):
            SkeletonSequence(np.zeros((2, 3, 3)), 0)
        with pytest.raises(ValueError):
            SkeletonSequence(np.zeros((2, 3, 3)), 1.5)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            MotionProfile("", 1.0, 1.0, (0,))
        with pytest.raises(ValueError):
            MotionProfile("x", -1.0, 1.0, (0,))
        with pytest.raises(ValueError):
            MotionProfile("x", 1.0, 0.0, (0,))
        with pytest.raises(ValueError):
            MotionProfile("x", 1.0, 1.0, ())
        with pytest.raises(ValueError):
            MotionProfile("x", 1.0, 1.0, (0, 0))
        with pytest.raises(ValueError):
            MotionProfile("x", 1.0, 1.0, (-1,))

    def test_get_profile(self):
        assert get_profile("run") is DEFAULT_PROFILES["run"]
        with pytest.raises(ValueError, match="unknown motion profile"):
            get_profile("moonwalk")


class TestBasePose:
    def test_canonical_17(self):
        pose = base_pose(17)
        assert pose.shape == (17, 3)
        # Pelvis midpoint at the origin, feet below it.
        assert pose[11, 2] == 0.0 and pose[12, 2] == 0.0
        assert pose[15, 2] < 0 < pose[0, 2]

    def test_canonical_is_a_copy(self):
        pose = base_pose(17)
        pose[0, 0] = 99.0
        assert base_pose(17)[0, 0] != 99.0

    def test_other_sizes_line_up(self):
        pose = base_pose(5)
        assert pose.shape == (5, 3)
        assert np.all(np.diff(pose[:, 2]) > 0)
        with pytest.raises(ValueError):
            base_pose(0)


class TestGenerate:
    def test_shape_and_label(self):
        seq = generate_synthetic(get_profile("run"), 30, 10, seed=3)
        assert seq.coords.shape == (30, 17, 3)
        assert seq.native_rate == 10
        assert seq.user_label == "run"

    def test_deterministic(self):
        a = generate_synthetic(get_profile("dance"), 20, 10, seed=7)
        b = generate_synthetic(get_profile("dance"), 20, 10, seed=7)
        assert np.array_equal(a.coords, b.coords)
        c = generate_synthetic(get_profile("dance"), 20, 10, seed=8)
        assert not np.array_equal(a.coords, c.coords)

    def test_inactive_joints_hold_base_pose(self):
        seq = generate_synthetic(get_profile("wave"), 25, 10, seed=1)
        pose = base_pose(17)
        inactive = [j for j in range(17) if j not in ARM_JOINTS]
        assert np.array_equal(seq.coords[:, inactive], np.broadcast_to(pose[inactive], (25, len(inactive), 3)))
        moved = np.abs(seq.coords[:, list(ARM_JOINTS)] - pose[list(ARM_JOINTS)]).max()
        assert moved > 0.01

    def test_displacement_bounded_by_amplitude(self):
        for kind, profile in DEFAULT_PROFILES.items():
            seq = generate_synthetic(profile, 40, 12, seed=5)
            radius = np.linalg.norm(seq.coords - base_pose(17), axis=2)
            assert radius.max() <= profile.amplitude + 1e-12, kind

    def test_joint_count_mismatch(self):
        # wave only moves arm joints, all of which sit at index >= 5
        with pytest.raises(ValueError, match="no active joint"):
            generate_synthetic(get_profile("wave"), 10, 10, joint_count=3)
        seq = generate_synthetic(get_profile("run"), 10, 10, joint_count=3)
        assert seq.joint_count == 3

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            generate_synthetic(get_profile("run"), 0, 10)
        with pytest.raises(ValueError):
            generate_synthetic(get_profile("run"), 10, 0)
        with pytest.raises(ValueError):
            generate_synthetic(get_profile("run"), 10, 10, joint_count=0)


class TestRender:
    def test_full_rate_is_identity(self):
        seq = generate_synthetic(get_profile("run"), 18, 6, seed=2)
        rendered = downsample_render(seq, 6)
        assert np.array_equal(rendered.coords, seq.coords)

    def test_hold_repeats_anchor_frames(self):
        coords = np.arange(4, dtype=float).reshape(4, 1, 1) * np.ones((4, 1, 3))
        seq = make_sequence(coords, rate=2)
        rendered = downsample_render(seq, 1)  # period 2: anchors 0, 0, 2, 2
        expected = coords[[0, 0, 2, 2]]
        assert np.array_equal(rendered.coords, expected)

    def test_linear_interpolates_between_anchors(self):
        coords = np.zeros((5, 1, 3))
        coords[:, 0, 0] = [0.0, 9.0, 4.0, 9.0, 8.0]
        seq = make_sequence(coords, rate=2)
        rendered = downsample_render(seq, 1, method="linear")
        # anchors 0 and 2 and 4; odd frames blend halfway; frame 4 is exact
        assert rendered.coords[0, 0, 0] == 0.0
        assert rendered.coords[1, 0, 0] == 2.0
        assert rendered.coords[2, 0, 0] == 4.0
        assert rendered.coords[3, 0, 0] == 6.0
        assert rendered.coords[4, 0, 0] == 8.0

    def test_linear_holds_after_last_anchor(self):
        coords = np.zeros((4, 1, 3))
        coords[:, 0, 0] = [0.0, 1.0, 6.0, 7.0]
        seq = make_sequence(coords, rate=4)
        rendered = downsample_render(seq, 1, method="linear")
        # single anchor at frame 0, nothing to blend toward
        assert np.array_equal(rendered.coords, np.broadcast_to(coords[0], (4, 1, 3)))

    def test_rate_must_divide(self):
        seq = make_sequence(np.zeros((6, 1, 3)), rate=6)
        with pytest.raises(ValueError, match="must divide"):
            downsample_render(seq, 4)
        with pytest.raises(ValueError):
            downsample_render(seq, 0)

    def test_unknown_method(self):
        seq = make_sequence(np.zeros((6, 1, 3)), rate=6)
        with pytest.raises(ValueError, match="unknown render method"):
            downsample_render(seq, 2, method="cubic")


class TestLoss:
    def test_zero_at_native_rate(self):
        seq = generate_synthetic(get_profile("dance"), 24, 12, seed=9)
        assert downsampling_loss(seq, 12) == 0.0

    def test_hand_value(self):
        # two frames, one joint; held render keeps frame 0, the only error
        # is frame 1's unit offset: sqrt(1 / 2)
        coords = np.zeros((2, 1, 3))
        coords[1, 0, 0] = 1.0
        seq = make_sequence(coords, rate=2)
        assert downsampling_loss(seq, 1) == pytest.approx(math.sqrt(0.5), rel=1e-15)

    def test_matches_direct_computation(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            frames = int(rng.integers(2, 20))
            joints = int(rng.integers(1, 5))
            rate = int(rng.choice([4, 6, 12]))
            seq = make_sequence(rng.normal(size=(frames, joints, 3)), rate=rate)
            for f in (d for d in range(1, rate + 1) if rate % d == 0):
                period = rate // f
                total = 0.0
                for i in range(frames):
                    held = seq.coords[(i // period) * period]
                    total += float(((seq.coords[i] - held) ** 2).sum())
                expected = math.sqrt(total / frames)
                assert downsampling_loss(seq, f) == pytest.approx(expected, abs=1e-12)

    def test_default_profiles_lose_below_native_rate(self):
        # Aliasing makes the loss non-monotone in the rate on purpose, so the
        # only structure to rely on is zero at the native rate and positive
        # everywhere below it.
        for kind in DEFAULT_PROFILES:
            seq = generate_synthetic(get_profile(kind), 60, 12, seed=11)
            assert downsampling_loss(seq, 12) == 0.0
            for f in (1, 2, 3, 4, 6):
                assert downsampling_loss(seq, f) > 0.0, (kind, f)


class TestProfileCalibration:
    def test_profile_ordering(self):
        # Mean per-transition movement: joint step lengths summed per frame.
        means = {}
        for kind in DEFAULT_PROFILES:
            seq = generate_synthetic(get_profile(kind), 120, 60, seed=0)
            steps = np.linalg.norm(np.diff(seq.coords, axis=0), axis=2)
            means[kind] = float(steps.sum(axis=1).mean())
        assert means["run"] > means["dance"] > means["wave"] > means["stand"]


class TestCodec:
    def test_bounds_validation(self):
        assert QuantBounds().span == 4.0
        with pytest.raises(ValueError):
            QuantBounds(1.0, 1.0)
        with pytest.raises(ValueError):
            QuantBounds(0.0, math.inf)

    def test_payload_length(self):
        for joints in (1, 5, 17):
            frame = SkeletonFrame(np.zeros((joints, 3)))
            assert len(encode_frame(frame)) == 3 * joints

    def test_byte_layout_is_joint_major(self):
        bounds = QuantBounds(0.0, 255.0)
        coords = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
        payload = encode_frame(SkeletonFrame(coords), bounds)
        assert list(payload) == [0, 1, 2, 3, 4, 5]

    def test_extremes_and_clamping(self):
        bounds = QuantBounds(-1.0, 1.0)
        coords = np.array([[-1.0, 1.0, 0.0], [-5.0, 5.0, 0.25]])
        payload = encode_frame(SkeletonFrame(coords), bounds)
        levels = list(payload)
        assert levels[0] == 0 and levels[1] == 255
        assert levels[3] == 0 and levels[4] == 255

    def test_round_trip_error_within_half_step(self):
        rng = np.random.default_rng(0)
        bounds = QuantBounds()
        for _ in range(50):
            coords = rng.uniform(bounds.lo, bounds.hi, size=(17, 3))
            frame = SkeletonFrame(coords)
            decoded = decode_frame(encode_frame(frame, bounds), 17, bounds)
            assert np.abs(decoded.coords - coords).max() <= bounds.span / 510.0 + 1e-12

    def test_decode_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="exactly 51 bytes"):
            decode_frame(b"\x00" * 50, 17)
        with pytest.raises(ValueError):
            decode_frame(b"", 1)
        with pytest.raises(ValueError):
            decode_frame(b"\x00" * 3, 0)

    def test_encode_sequence_concatenates(self):
        seq = generate_synthetic(get_profile("wave"), 4, 2, seed=1)
        payload = encode_sequence(seq)
        assert len(payload) == 4 * 51
        for i in range(4):
            assert payload[51 * i:51 * (i + 1)] == encode_frame(SkeletonFrame(seq.coords[i]))

    def test_compression_ratio(self):
        assert compression_ratio(100, 10, 8, 1) == pytest.approx(1000.0 / 3.0)
        with pytest.raises(ValueError):
            compression_ratio(0, 10, 8, 1)
        with pytest.raises(ValueError):
            compression_ratio(100, 10, 8, 0)


class TestSerialization:
    def test_csv_round_trip_exact(self):
        seq = generate_synthetic(get_profile("run"), 7, 6, joint_count=4, seed=13)
        data = save_sequence(seq, "csv")
        back = load_sequence(data, "csv", native_rate=6, user_label="run")
        assert np.array_equal(back.coords, seq.coords)
        assert back.native_rate == 6
        assert back.user_label == "run"

    def test_csv_header_and_indices(self):
        seq = make_sequence(np.zeros((1, 2, 3)))
        lines = save_sequence(seq, "csv").decode().splitlines()
        assert lines[0] == "frame,joint,x,y,z"
        assert lines[1].startswith("1,1,")
        assert lines[2].startswith("1,2,")

    def test_json_round_trip_carries_metadata(self):
        seq = generate_synthetic(get_profile("stand"), 5, 4, joint_count=3, seed=2)
        back = load_sequence(save_sequence(seq, "json"), "json")
        assert np.array_equal(back.coords, seq.coords)
        assert back.native_rate == 4
        assert back.user_label == "stand"

    def test_unknown_format(self):
        seq = make_sequence(np.zeros((1, 1, 3)))
        with pytest.raises(ValueError, match="unknown sequence format"):
            save_sequence(seq, "yaml")
        with pytest.raises(ValueError, match="unknown sequence format"):
            load_sequence(b"", "yaml")

    @pytest.mark.parametrize(
        "payload,message",
        [
            (b"", "header"),
            (b"x,y\n1,2\n", "header"),
            (b"frame,joint,x,y,z\n", "no data rows"),
            (b"frame,joint,x,y,z\n1,1,0,0\n", "expected 5 fields"),
            (b"frame,joint,x,y,z\n1,1,a,0,0\n", "malformed row"),
            (b"frame,joint,x,y,z\n0,1,0,0,0\n", "1-based"),
            (b"frame,joint,x,y,z\n1,0,0,0,0\n", "1-based"),
            (b"frame,joint,x,y,z\n1,1,inf,0,0\n", "non-finite"),
            (b"frame,joint,x,y,z\n1,1,0,0,0\n1,1,1,1,1\n", "duplicate"),
        ],
    )
    def test_csv_malformed(self, payload, message):
        with pytest.raises(SequenceFormatError, match=message):
            load_sequence(payload, "csv")

    def test_csv_inconsistent_joint_count(self):
        rows = b"frame,joint,x,y,z\n1,1,0,0,0\n1,2,0,0,0\n2,1,0,0,0\n"
        with pytest.raises(SequenceFormatError, match="inconsistent joint count at frame 2"):
            load_sequence(rows, "csv")

    def test_csv_skipped_joint_index(self):
        rows = b"frame,joint,x,y,z\n1,1,0,0,0\n1,3,0,0,0\n2,1,0,0,0\n2,2,0,0,0\n"
        with pytest.raises(SequenceFormatError, match="inconsistent joint count"):
            load_sequence(rows, "csv")

    def test_csv_skipped_frame_index(self):
        rows = b"frame,joint,x,y,z\n1,1,0,0,0\n3,1,0,0,0\n"
        with pytest.raises(SequenceFormatError, match="inconsistent joint count at frame 2"):
            load_sequence(rows, "csv")

    def test_csv_blank_lines_tolerated(self):
        rows = b"frame,joint,x,y,z\n1,1,0.5,0,0\n\n"
        seq = load_sequence(rows, "csv", native_rate=3)
        assert seq.coords.shape == (1, 1, 3)
        assert seq.coords[0, 0, 0] == 0.5

    @pytest.mark.parametrize(
        "payload,message",
        [
            (b"not json", "invalid JSON"),
            (b"[1, 2]", "must be an object"),
            (b'{"native_rate": 4}', "missing keys"),
            (b'{"native_rate": "4", "user_label": "", "frames": [[[0,0,0]]]}', "integer"),
            (b'{"native_rate": true, "user_label": "", "frames": [[[0,0,0]]]}', "integer"),
            (b'{"native_rate": 4, "user_label": 3, "frames": [[[0,0,0]]]}', "string"),
            (b'{"native_rate": 4, "user_label": "", "frames": [[[0,0],[0,0,0]]]}', "rectangular"),
            (b'{"native_rate": 4, "user_label": "", "frames": [[0,0,0]]}', "shape"),
            (b'{"native_rate": 4, "user_label": "", "frames": [[[0,0,NaN]]]}', "non-finite"),
            (b'{"native_rate": 0, "user_label": "", "frames": [[[0,0,0]]]}', "positive integer"),
        ],
    )
    def test_json_malformed(self, payload, message):
        with pytest.raises(SequenceFormatError, match=message):
            load_sequence(payload, "json")
