"""Sequence synthesis, rendering loss, codec, and serialization.

reference_save_csv and reference_load_csv are verbatim copies of the CSV
writer and reader as they stood before both worked on whole arrays, except
that the reader turns csv.Error into a SequenceFormatError naming the line,
as the package's reader does.  The array versions must write the same bytes,
and read every input to the same array or fail with the same exception and
message.

reference_generate, reference_render and reference_loss are verbatim copies of
the clip generator, the renderer and the loss as they stood before the
generator built its clip in (frames, joints * 3) passes and the loss stopped
rendering a validated clip.  The package must give the same bits.

reference_save_json and reference_decode are verbatim copies of the JSON
writer and of the frame decoder's arithmetic as they stood before the writers
filled one clip-wide template and the decoder read a 256-entry level table.
The package must give the same bytes and bits.
"""

import csv
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from posecontest import skeleton
from posecontest.skeleton import (
    ARM_JOINTS,
    AXES,
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
    _period,
    _render,
    decode_frame,
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


def render(sequence, upload_rate):
    """The frames a receiver sees at upload_rate, as downsampling_loss's linear method renders them."""
    return _render(sequence.coords, _period(sequence, upload_rate), "linear")


class TestTypes:
    def test_joint_convention(self):
        assert JOINT_COUNT == 17
        assert len(JOINT_NAMES) == 17
        assert JOINT_NAMES[0] == "nose"
        assert all(JOINT_NAMES[j].endswith(("shoulder", "elbow", "wrist")) for j in ARM_JOINTS)

    def test_frame_validation(self):
        frame = SkeletonFrame(np.zeros((4, 3)))
        assert frame.coords.shape == (4, 3)
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

    def test_bool_native_rate_rejected(self):
        # isinstance(True, int) holds, but a bool is no rate; the JSON loader refuses one too.
        with pytest.raises(ValueError, match="native_rate must be a positive integer, got True"):
            SkeletonSequence(np.zeros((2, 3, 3)), True)

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
        rendered = render(seq, 6)
        assert np.array_equal(rendered, seq.coords)

    def test_linear_interpolates_between_anchors(self):
        coords = np.zeros((5, 1, 3))
        coords[:, 0, 0] = [0.0, 9.0, 4.0, 9.0, 8.0]
        seq = make_sequence(coords, rate=2)
        rendered = render(seq, 1)
        # anchors 0 and 2 and 4; odd frames blend halfway; frame 4 is exact
        assert rendered[:, 0, 0].tolist() == [0.0, 2.0, 4.0, 6.0, 8.0]

    def test_linear_holds_after_last_anchor(self):
        coords = np.zeros((4, 1, 3))
        coords[:, 0, 0] = [0.0, 1.0, 6.0, 7.0]
        seq = make_sequence(coords, rate=4)
        rendered = render(seq, 1)
        # single anchor at frame 0, nothing to blend toward
        assert np.array_equal(rendered, np.broadcast_to(coords[0], (4, 1, 3)))

    def test_rate_must_divide(self):
        seq = make_sequence(np.zeros((6, 1, 3)), rate=6)
        with pytest.raises(ValueError, match="must divide"):
            _period(seq, 4)
        with pytest.raises(ValueError):
            _period(seq, 0)

    @pytest.mark.parametrize("call", [_period, downsampling_loss])
    def test_bool_upload_rate_rejected(self, call):
        seq = make_sequence(np.zeros((6, 1, 3)), rate=6)
        with pytest.raises(ValueError, match="upload_rate must be a positive integer, got True"):
            call(seq, True)

    def test_unknown_method(self):
        seq = make_sequence(np.zeros((6, 1, 3)), rate=6)
        with pytest.raises(ValueError, match="unknown render method"):
            downsampling_loss(seq, 2, method="cubic")
        with pytest.raises(ValueError, match="unknown render method 'hold'"):
            _render(seq.coords, 3, "hold")  # the hold loss is worked out without a render


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


# The widest span QuantBounds accepts: 255 times it is the largest product the quantizer forms.
SPAN_LIMIT = 7.04977699946006e305


@st.composite
def quant_bounds(draw):
    """Everyday spans around lo within ±1e6, or any normal lo < hi up to the widest accepted span."""
    if draw(st.booleans()):
        lo = draw(st.floats(-1e6, 1e6))
        return QuantBounds(lo, lo + draw(st.sampled_from([4.0, 1.0, 255.0]) | st.floats(1e-3, 1e4)))
    lo = draw(st.floats(-SPAN_LIMIT / 2, SPAN_LIMIT / 2, exclude_max=True, allow_subnormal=False))
    return QuantBounds(lo, draw(st.floats(lo, SPAN_LIMIT / 2, exclude_min=True, allow_subnormal=False)))


def reference_decode(data, joint_count, bounds):
    levels = np.frombuffer(data, dtype=np.uint8).astype(np.float64).reshape(joint_count, AXES)
    return bounds.lo + levels * bounds.span / 255.0


class TestCodec:
    def test_bounds_validation(self):
        assert QuantBounds().span == 4.0
        with pytest.raises(ValueError):
            QuantBounds(1.0, 1.0)
        with pytest.raises(ValueError):
            QuantBounds(0.0, math.inf)

    @pytest.mark.parametrize("lo, hi", [(-5e306, 5e306), (-1e308, 1e308), (0.0, np.nextafter(SPAN_LIMIT, math.inf))])
    def test_bounds_whose_quantizer_overflows_rejected(self, lo, hi):
        with pytest.raises(ValueError, match=r"need 255 \* \(hi - lo\) finite"):
            QuantBounds(lo, hi)

    def test_widest_bounds_decode_finite_levels(self):
        bounds = QuantBounds(-SPAN_LIMIT / 2, SPAN_LIMIT / 2)
        assert bounds.levels[0] == bounds.lo and bounds.levels[-1] == bounds.hi
        assert np.isfinite(bounds.levels).all() and not bounds.levels.flags.writeable
        clip = SkeletonSequence(np.array([[[bounds.lo, 0.0, bounds.hi]]]), 1)
        assert list(encode_sequence(clip, bounds)) == [0, 128, 255]

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

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(quant_bounds(), st.integers(1, 6), st.integers(1, 5), st.data())
    def test_sequence_round_trip_within_half_step(self, bounds, frames, joints, data):
        # Any bounds, clips with values inside, on and outside them: every
        # decoded coordinate lies within half a quantization step of the clamped
        # original, up to a few ulps of the bounds' magnitude.
        inside = st.floats(bounds.lo, bounds.hi)
        around = st.floats(bounds.lo - bounds.span, bounds.hi + bounds.span)
        coords = data.draw(hnp.arrays(np.float64, (frames, joints, AXES), elements=st.one_of(inside, around)))
        payload = encode_sequence(SkeletonSequence(coords, 1), bounds)
        assert len(payload) == frames * joints * AXES
        width = joints * AXES
        decoded = np.stack([decode_frame(payload[i:i + width], joints, bounds).coords
                            for i in range(0, len(payload), width)])
        slack = 8 * np.finfo(np.float64).eps * max(abs(bounds.lo), abs(bounds.hi), bounds.span)
        error = np.abs(decoded - np.clip(coords, bounds.lo, bounds.hi))
        assert error.max() <= bounds.span / 510.0 + slack

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(quant_bounds())
    def test_decode_matches_reference_at_every_level(self, bounds):
        data = bytes(range(256)) * AXES  # 256 joints: each axis takes every level once
        assert decode_frame(data, 256, bounds).coords.tobytes() == reference_decode(data, 256, bounds).tobytes()

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
            (b'{"native_rate": 4, "user_label": "", "frames": []}', "shape"),
            (b'{"native_rate": 4, "user_label": "", "frames": [[]]}', "shape"),
            (b'{"native_rate": 4, "user_label": "", "frames": [[[]]]}', "shape"),
            (b'{"native_rate": 4, "user_label": "", "frames": [[[0,0,NaN]]]}', "non-finite"),
            (b'{"native_rate": 0, "user_label": "", "frames": [[[0,0,0]]]}', "positive integer"),
        ],
    )
    def test_json_malformed(self, payload, message):
        with pytest.raises(SequenceFormatError, match=message):
            load_sequence(payload, "json")

    @pytest.mark.parametrize(
        "frames",
        ['[[["1", true, "1e3"]]]', "[[[0,0,0]], [[0,false,0]]]", "[[[0,0,1" + "0" * 400 + "]]]"],
        ids=["strings", "boolean", "int-past-float-range"],
    )
    def test_json_coordinates_must_be_numbers(self, frames):
        # As the CSV reader does, and as the JSON loader does for native_rate.
        payload = f'{{"native_rate": 4, "user_label": "", "frames": {frames}}}'.encode()
        with pytest.raises(SequenceFormatError, match="number triples"):
            load_sequence(payload, "json")


_CSV_HEADER = ["frame", "joint", "x", "y", "z"]
HEADER = ",".join(_CSV_HEADER)


def reference_save_csv(sequence):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for i in range(sequence.frame_count):
        for j in range(sequence.joint_count):
            x, y, z = sequence.coords[i, j]
            writer.writerow([i + 1, j + 1, repr(float(x)), repr(float(y)), repr(float(z))])
    return buf.getvalue().encode("utf-8")


def reference_save_json(sequence):
    payload = {
        "native_rate": sequence.native_rate,
        "user_label": sequence.user_label,
        "frames": sequence.coords.tolist(),
    }
    return json.dumps(payload).encode("utf-8")


def reference_load_csv(data: bytes, native_rate: int, user_label: str) -> SkeletonSequence:
    text = data.decode("utf-8")
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise SequenceFormatError(f"line {reader.line_num}: {exc}") from None
    if not rows or rows[0] != _CSV_HEADER:
        raise SequenceFormatError(f"expected header {','.join(_CSV_HEADER)}")
    seen: dict[tuple[int, int], tuple[float, float, float]] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 5:
            raise SequenceFormatError(f"line {lineno}: expected 5 fields, got {len(row)}")
        try:
            frame, joint = int(row[0]), int(row[1])
            x, y, z = float(row[2]), float(row[3]), float(row[4])
        except ValueError as exc:
            raise SequenceFormatError(f"line {lineno}: malformed row: {exc}") from None
        if frame < 1 or joint < 1:
            raise SequenceFormatError(f"line {lineno}: frame and joint indices are 1-based")
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise SequenceFormatError(f"line {lineno}: non-finite coordinate")
        if (frame, joint) in seen:
            raise SequenceFormatError(f"line {lineno}: duplicate entry for frame {frame}, joint {joint}")
        seen[(frame, joint)] = (x, y, z)
    if not seen:
        raise SequenceFormatError("no data rows")
    frame_count = max(f for f, _ in seen)
    joint_count = max(j for _, j in seen)
    per_frame: dict[int, int] = {}
    for f, _ in seen:
        per_frame[f] = per_frame.get(f, 0) + 1
    for f in range(1, frame_count + 1):
        got = per_frame.get(f, 0)
        if got != joint_count:
            raise SequenceFormatError(
                f"inconsistent joint count at frame {f}: expected {joint_count}, got {got}"
            )
    # Distinct 1-based joints, joint_count per frame: each frame holds 1..joint_count.
    coords = np.empty((frame_count, joint_count, AXES))
    for (f, j), xyz in seen.items():
        coords[f - 1, j - 1] = xyz
    return SkeletonSequence(coords, native_rate, user_label)


def reading(load, data):
    """The coordinates a reader returns, or the type and message of what it raises."""
    try:
        coords = load(data).coords
    except Exception as exc:
        return type(exc), str(exc)
    # Bytes, not values, so that -0.0 and 0.0 differ.
    return coords.shape, coords.tobytes()


def assert_reads_like_reference(data):
    expected = reading(lambda d: reference_load_csv(d, 60, ""), data)
    assert reading(lambda d: load_sequence(d, "csv"), data) == expected


def csv_of(*lines, end="\n"):
    return end.join((HEADER,) + lines).encode()


def clip_rows(frames=3, joints=4, seed=5):
    seq = generate_synthetic(get_profile("run"), frames, 6, joint_count=joints, seed=seed)
    return save_sequence(seq, "csv").decode().splitlines()[1:]


ROWS = clip_rows()


class TestCsvReaderAgainstReference:
    @pytest.mark.parametrize(
        "data",
        [
            csv_of(*ROWS) + b"\n",
            csv_of(*[ROWS[i] for i in np.random.default_rng(0).permutation(len(ROWS))]),
            csv_of(*ROWS, end="\r\n") + b"\r\n",
            csv_of(*ROWS),
            csv_of(*ROWS[:4], "", "", *ROWS[4:]),
            csv_of('"1",1,0.5,0,0', "1,\"2\",0,0,0"),
            csv_of("1_0,1,0,0,0", "1,1,1_0.5,0,0"),
            csv_of(" 1 , 1 , 0.5 , 0 , 0 "),
            csv_of("1,1,nan,0,0"),
            csv_of("1,1,0,inf,0"),
            csv_of("1,1,0,0,1e400"),
            csv_of("-0,1,0,0,0"),
            csv_of("1,-0,0,0,0"),
            csv_of("1.0,1,0,0,0"),
            csv_of("1,1.0,0,0,0"),
            csv_of("# comment", "1,1,0,0,0"),
            csv_of("1,1,0.25,-0.0,5e-324"),
            csv_of() + b"\n",
            csv_of("", ""),
            csv_of(*ROWS, ROWS[5]),
            csv_of(*[r for r in ROWS if not r.startswith("2,")]),
            csv_of(*[r for r in ROWS if not r.startswith(("1,2,", "2,2,", "3,2,"))]),
            csv_of(*[r for r in ROWS if not r.startswith("3,4,")]),
            csv_of("\u0661,1,0,0,0", "1,\u0662,0,0,0"),
            csv_of("\x1c1,1,0,0,0"),
            csv_of("1,1,0.5\x1f,0,0"),
            csv_of("1,1,0,0,0\r1,2,0,0,0"),
            csv_of("1,1,0,0,0\r\r", "1,2,0,0,0"),
            csv_of("   "),
            csv_of("1,1," + " " * (csv.field_size_limit() + 1) + "0,0,0"),
            csv_of("99999999999999999999,1,0,0,0"),
            csv_of("1,1,0,0,0", "9223372036854775808,1,0,0,0"),
            csv_of("1,99999999999999999999,0,0,0"),
            csv_of("1,1,0,0,0,"),
            csv_of("1,1,0,0,0", "2,0,0,0,0", "2,1,0,0,0", "2,2,0,0,0"),
            csv_of("1,1,0,0,0", "1,2,0,0,0", "1,1,1,1,1", "2,2,0,0,0"),
            "\ufeff".encode() + csv_of("1,1,0,0,0"),
            b"frame,joint,x,y,z",
            b"",
            b"\xff",
        ],
        ids=[
            "canonical", "shuffled", "crlf", "no-final-newline", "blank-lines", "quoted",
            "underscores", "spaces", "nan", "inf", "1e400", "frame-minus-0", "joint-minus-0",
            "frame-1.0", "joint-1.0", "comment", "signed-zero-subnormal", "header-only",
            "header-blank-lines", "duplicate-last", "skipped-frame", "skipped-joint", "short-last-frame",
            "unicode-digits", "x1c-prefix", "x1f-suffix", "lone-cr", "double-cr", "whitespace-line",
            "over-field-limit", "frame-past-int64", "frame-past-int64-uint", "joint-past-int64",
            "six-fields", "joint-0-in-full-count", "duplicate-in-full-count", "bom", "header-no-newline", "empty", "not-utf8",
        ],
    )
    def test_reads_like_reference(self, data):
        assert_reads_like_reference(data)

    def test_header_only_emits_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for data in (csv_of() + b"\n", csv_of("", "")):
                with pytest.raises(SequenceFormatError, match="no data rows"):
                    load_sequence(data, "csv")

    def test_written_clip_skips_row_scan(self, monkeypatch):
        # Canonical CSV must take the loadtxt path; the row scan is only the fallback.
        def no_scan(text):
            raise AssertionError("row scan ran on a canonical clip")

        monkeypatch.setattr(skeleton, "_scan_csv", no_scan)
        seq = generate_synthetic(get_profile("dance"), 9, 6, joint_count=5, seed=2)
        assert np.array_equal(load_sequence(save_sequence(seq, "csv"), "csv").coords, seq.coords)


# Property tests: derandomized and with no example database, so that every
# run tries the same examples and none is replayed from an earlier run.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)

FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
)
CLIPS = hnp.arrays(
    np.float64, st.tuples(st.integers(1, 6), st.integers(1, 5), st.just(3)), elements=FLOATS
).map(lambda coords: make_sequence(coords))
TOKENS = (
    st.sampled_from([
        "", " ", "1", "-0", "+1", "1.0", "1e0", "1_0", "01", '"1"', "nan", "-inf", "1e400", "0x1",
        "\u0661", "\x1c1", "1\x1f", "\xa01", "9223372036854775808", "99999999999999999999",
        "1\r", "\r\n", "1,1", "#", "\x00",
    ])
    | st.integers(-2, 8).map(str)
    | FLOATS.map(repr)
    | st.text(max_size=4)
)


@st.composite
def edited_rows(draw):
    """A small clip's CSV rows, shuffled, thinned, duplicated or with one token replaced."""
    rows = [row.split(",") for row in clip_rows(draw(st.integers(1, 3)), draw(st.integers(1, 3)))]
    edit = draw(st.sampled_from(["shuffle", "drop", "duplicate", "token"]))
    if edit == "shuffle":
        rows = draw(st.permutations(rows))
    elif edit == "drop":
        rows = [row for row in rows if draw(st.booleans())]
    elif edit == "duplicate":
        rows = rows + draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3))
    else:
        i, k = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 4))
        rows[i][k] = draw(TOKENS)
    return draw(st.permutations(rows)) if edit == "duplicate" else rows


class TestCsvProperties:
    @PROPERTY
    @given(CLIPS)
    def test_writer_matches_csv_writer(self, seq):
        assert save_sequence(seq, "csv") == reference_save_csv(seq)

    @PROPERTY
    @given(CLIPS)
    def test_round_trip_is_exact(self, seq):
        back = load_sequence(save_sequence(seq, "csv"), "csv", native_rate=seq.native_rate)
        assert back.coords.tobytes() == seq.coords.tobytes()

    @PROPERTY
    @given(edited_rows(), st.sampled_from(["\n", "\r\n"]))
    def test_reader_matches_reference(self, rows, end):
        assert_reads_like_reference(csv_of(*(",".join(row) for row in rows), end=end) + end.encode())


# Labels with characters json.dumps escapes; coordinates at signed zeros, subnormals and where repr switches notation.
LABELS = st.text(st.sampled_from('"\\/ az\x00\x1f\x7f\n\té€😀\u2028\ud800') | st.characters(), max_size=8)
JSON_CLIPS = st.builds(
    make_sequence,
    hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 5), st.just(3)),
               elements=FLOATS | st.sampled_from([1e-5, -1e-5, 1e-4, 1e16, -1e16, 9999999999999998.0, 1e-310])),
    st.integers(1, 2**70),
    LABELS,
)


class TestJsonProperties:
    @PROPERTY
    @given(JSON_CLIPS)
    def test_writer_matches_json_dumps(self, seq):
        assert save_sequence(seq, "json") == reference_save_json(seq)

    @PROPERTY
    @given(JSON_CLIPS)
    def test_round_trip_is_exact(self, seq):
        back = load_sequence(save_sequence(seq, "json"), "json")
        assert back.coords.tobytes() == seq.coords.tobytes()
        assert (back.native_rate, back.user_label) == (seq.native_rate, seq.user_label)


def reference_generate(profile, frame_count, native_rate, joint_count=JOINT_COUNT, seed=0):
    if native_rate < 1:
        raise ValueError("native_rate must be at least 1")
    active = [j for j in profile.active_joints if j < joint_count]
    if not active:
        raise ValueError(
            f"profile {profile.kind!r} has no active joint below joint_count={joint_count}"
        )

    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, joint_count)
    directions = rng.normal(size=(joint_count, AXES))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms < 1e-12] = 1.0
    directions /= norms

    t = np.arange(frame_count, dtype=np.float64)
    angle = 2.0 * np.pi * profile.temporal_frequency * t[:, None] / native_rate + phases[None, :]
    sweep = profile.amplitude * np.sin(angle)
    mask = np.zeros(joint_count)
    mask[active] = 1.0
    coords = base_pose(joint_count)[None, :, :] + (sweep * mask)[:, :, None] * directions[None, :, :]
    return SkeletonSequence(coords, native_rate, user_label=profile.kind)


def reference_render(sequence, upload_rate, method="hold"):
    if not isinstance(upload_rate, (int, np.integer)) or upload_rate < 1:
        raise ValueError(f"upload_rate must be a positive integer, got {upload_rate!r}")
    if sequence.native_rate % upload_rate != 0:
        raise ValueError(
            f"upload_rate {upload_rate} must divide the native rate {sequence.native_rate}"
        )
    period = sequence.native_rate // upload_rate
    frames = sequence.frame_count
    anchor = (np.arange(frames) // period) * period
    if method == "hold":
        rendered = sequence.coords[anchor]
    elif method == "linear":
        nxt = np.minimum(anchor + period, frames - 1)
        # Frames past the final upload have no next anchor to blend toward.
        usable = anchor + period <= frames - 1
        weight = np.where(usable, (np.arange(frames) - anchor) / period, 0.0)
        rendered = (1.0 - weight[:, None, None]) * sequence.coords[anchor] + weight[
            :, None, None
        ] * sequence.coords[nxt]
    else:
        raise ValueError(f"unknown render method {method!r}; expected 'hold' or 'linear'")
    return SkeletonSequence(rendered, sequence.native_rate, sequence.user_label)


def reference_loss(sequence, upload_rate, method="hold"):
    rendered = reference_render(sequence, upload_rate, method)
    total = float(np.sum((sequence.coords - rendered.coords) ** 2))
    return math.sqrt(total / sequence.frame_count)


@st.composite
def random_clips(draw):
    """Clips of 1 to a few hundred frames at rates with many divisors, joints of mixed scales,
    given in C order, Fortran order or as a reversed view."""
    rate = draw(st.sampled_from([1, 2, 4, 6, 7, 12, 24, 30, 60]))
    frames = draw(st.integers(1, 30) | st.integers(31, 400))
    joints = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-6.0, 6.0, size=(1, joints, 1))
    coords = rng.normal(size=(frames, joints, AXES)) * scale
    # A clip given in another memory layout must lose the same bits as its C-ordered copy.
    layout = draw(st.sampled_from([np.ascontiguousarray, np.asfortranarray, lambda c: c[:, ::-1, ::-1]]))
    return make_sequence(layout(coords), rate=rate)


@st.composite
def synthetic_profiles(draw):
    """A profile and a joint count from 1 to 20 with at least one of its active joints in range."""
    joints = draw(st.integers(1, 20))
    rest = draw(st.lists(st.integers(0, joints + 3), max_size=joints + 3))
    active = {draw(st.integers(0, joints - 1)), *rest}
    amplitude = draw(st.floats(0.0, 3.0))
    frequency = draw(st.floats(0.01, 40.0))
    return MotionProfile("p", amplitude, frequency, tuple(draw(st.permutations(sorted(active))))), joints


class TestArrayPassesAgainstReference:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(random_clips())
    def test_loss_matches_reference(self, seq):
        rate = seq.native_rate
        for f in (d for d in range(1, rate + 1) if rate % d == 0):
            for method in ("hold", "linear"):
                got, want = downsampling_loss(seq, f, method), reference_loss(seq, f, method)
                assert got.hex() == want.hex(), (f, method)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(synthetic_profiles(), st.integers(1, 300), st.integers(1, 120), st.integers(0, 2**32 - 1))
    def test_generator_matches_reference(self, drawn, frames, rate, seed):
        profile, joints = drawn
        got = generate_synthetic(profile, frames, rate, joints, seed)
        want = reference_generate(profile, frames, rate, joints, seed)
        assert got.coords.tobytes() == want.coords.tobytes()
        assert (got.native_rate, got.user_label) == (want.native_rate, want.user_label)
