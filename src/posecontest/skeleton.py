"""Skeleton keypoint sequences: synthesis, serialization, down-sampling, codec.

A tracked body is a fixed set of 3-D keypoints sampled at a native capture
rate.  A sender that uploads only every n-th frame forces the receiver to
render the avatar from stale keypoints; the quality gap is measured here as a
root-mean-square loss over the whole clip.  Frames can also be packed into a
compact one-byte-per-axis payload for transmission.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

# COCO-style 17 keypoint convention, index order is load-bearing for the
# default profiles below.
JOINT_NAMES = [
    "nose",
    "left_eye",
    "right_eye",
    "left_ear",
    "right_ear",
    "left_shoulder",
    "right_shoulder",
    "left_elbow",
    "right_elbow",
    "left_wrist",
    "right_wrist",
    "left_hip",
    "right_hip",
    "left_knee",
    "right_knee",
    "left_ankle",
    "right_ankle",
]
JOINT_COUNT = len(JOINT_NAMES)
ARM_JOINTS = (5, 6, 7, 8, 9, 10)

AXES = 3

# Canonical standing pose in metres, pelvis midpoint at the origin, z up.
_BASE_POSE_17 = np.array(
    [
        [0.000, 0.080, 0.750],
        [0.035, 0.100, 0.780],
        [-0.035, 0.100, 0.780],
        [0.080, 0.030, 0.770],
        [-0.080, 0.030, 0.770],
        [0.200, 0.000, 0.550],
        [-0.200, 0.000, 0.550],
        [0.250, 0.000, 0.300],
        [-0.250, 0.000, 0.300],
        [0.270, 0.020, 0.050],
        [-0.270, 0.020, 0.050],
        [0.110, 0.000, 0.000],
        [-0.110, 0.000, 0.000],
        [0.120, 0.010, -0.450],
        [-0.120, 0.010, -0.450],
        [0.130, -0.020, -0.900],
        [-0.130, -0.020, -0.900],
    ]
)


class SequenceFormatError(ValueError):
    """Serialized sequence data violates the expected layout."""


def _coord_array(coords, layout: tuple[str, ...]) -> np.ndarray:
    """The one keypoint-array rule: C-ordered float64 of shape (*layout, 3), no axis empty, all finite."""
    arr = np.asarray(coords, dtype=np.float64, order="C")
    if arr.ndim != len(layout) + 1 or arr.shape[-1] != AXES or 0 in arr.shape:
        raise ValueError(f"coords must have shape ({', '.join(layout)}, 3) with no empty axis, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("coords hold a non-finite value")
    return arr


def _positive_int(value, name: str) -> int:
    """The one rate rule: an int or numpy integer of at least 1, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


@dataclass(eq=False)
class SkeletonFrame:
    """All keypoints of one captured frame, shape (joint_count, 3)."""

    coords: np.ndarray

    def __post_init__(self):
        self.coords = _coord_array(self.coords, ("joints",))


@dataclass(eq=False)
class SkeletonSequence:
    """A clip of skeleton frames captured at a fixed native rate.

    Attributes:
        coords: float64 array of shape (frame_count, joint_count, 3).
        native_rate: capture rate in frames per second, at least 1.
        user_label: free-form origin tag, e.g. the motion profile name.
    """

    coords: np.ndarray
    native_rate: int
    user_label: str = ""

    def __post_init__(self):
        self.coords = _coord_array(self.coords, ("frames", "joints"))
        self.native_rate = _positive_int(self.native_rate, "native_rate")

    @property
    def frame_count(self) -> int:
        return self.coords.shape[0]

    @property
    def joint_count(self) -> int:
        return self.coords.shape[1]


@dataclass(frozen=True)
class MotionProfile:
    """Parameters of a synthetic oscillating motion.

    Attributes:
        kind: profile name, e.g. "run".
        amplitude: peak joint displacement from the base pose in metres.
        temporal_frequency: dominant oscillation rate in Hz.
        active_joints: indices of joints that move; the rest hold the base pose.
    """

    kind: str
    amplitude: float
    temporal_frequency: float
    active_joints: tuple[int, ...]

    def __post_init__(self):
        if not self.kind:
            raise ValueError("profile kind must be non-empty")
        if not math.isfinite(self.amplitude) or self.amplitude < 0:
            raise ValueError("amplitude must be finite and non-negative")
        if not math.isfinite(self.temporal_frequency) or self.temporal_frequency <= 0:
            raise ValueError("temporal_frequency must be finite and positive")
        if len(self.active_joints) == 0:
            raise ValueError("active_joints must be non-empty")
        if len(set(self.active_joints)) != len(self.active_joints):
            raise ValueError("active_joints must be unique")
        if any(j < 0 for j in self.active_joints):
            raise ValueError("active_joints must be non-negative indices")


# Amplitudes and frequencies are calibrated so that mean per-frame motion and
# full-hold loss both order run > dance > wave > stand, and so that losses stay
# material at half the native rate (fast motions alias under frame holding).
DEFAULT_PROFILES = {
    "run": MotionProfile("run", 1.0, 14.0, tuple(range(JOINT_COUNT))),
    "dance": MotionProfile("dance", 0.7, 11.0, tuple(range(JOINT_COUNT))),
    "wave": MotionProfile("wave", 0.15, 1.0, ARM_JOINTS),
    "stand": MotionProfile("stand", 0.005, 0.5, tuple(range(JOINT_COUNT))),
}


def get_profile(kind: str) -> MotionProfile:
    """Look up a built-in motion profile by name."""
    if kind not in DEFAULT_PROFILES:
        available = ", ".join(sorted(DEFAULT_PROFILES))
        raise ValueError(f"unknown motion profile {kind!r}; available: {available}")
    return DEFAULT_PROFILES[kind]


def base_pose(joint_count: int) -> np.ndarray:
    """Return the canonical rest pose for a body with joint_count keypoints."""
    if joint_count < 1:
        raise ValueError("joint_count must be at least 1")
    if joint_count == JOINT_COUNT:
        return _BASE_POSE_17.copy()
    # No anatomical convention for other sizes: space joints on a vertical line.
    pose = np.zeros((joint_count, AXES))
    pose[:, 2] = np.linspace(-0.9, 0.9, joint_count)
    return pose


def generate_synthetic(
    profile: MotionProfile,
    frame_count: int,
    native_rate: int,
    joint_count: int = JOINT_COUNT,
    seed: int = 0,
) -> SkeletonSequence:
    """Synthesize a deterministic keypoint clip for one motion profile.

    Each active joint j oscillates around the base pose along a fixed random
    unit direction u_j with a random phase:

        position(i, j) = base_pose[j] + amplitude * sin(2*pi*freq*i/rate + phase_j) * u_j

    with i counted from zero.  Inactive joints stay at the base pose.  The same
    (profile, frame_count, native_rate, joint_count, seed) always produces the
    identical array.

    Args:
        profile: motion parameters.
        frame_count: number of frames, at least 1.
        native_rate: capture rate in frames per second, at least 1.
        joint_count: number of keypoints per frame.
        seed: RNG seed for phases and directions.

    Returns:
        The generated sequence, labelled with the profile kind.

    Raises:
        ValueError: on non-positive sizes or when no active joint index is
            within range for joint_count.
    """
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
    coords = np.repeat(sweep * mask, AXES, axis=1)  # (frames, joints * 3): one wide pass per operation
    coords *= directions.ravel()
    coords += base_pose(joint_count).ravel()  # base + s * d, as IEEE addition commutes
    return SkeletonSequence(coords.reshape(frame_count, joint_count, AXES), native_rate, user_label=profile.kind)


def _period(sequence: SkeletonSequence, upload_rate: int) -> int:
    """Native frames per upload: downsampling_loss's rate check."""
    if sequence.native_rate % _positive_int(upload_rate, "upload_rate") != 0:
        raise ValueError(f"upload_rate {upload_rate} must divide the native rate {sequence.native_rate}")
    return sequence.native_rate // upload_rate


def _render(coords: np.ndarray, period: int, method: str) -> np.ndarray:
    """The "linear" frames a receiver sees when frame 0 and every period-th frame after it are uploaded:
    each blends toward the next upload (and holds after the last).  The hold loss renders nothing."""
    if method != "linear":
        raise ValueError(f"unknown render method {method!r}; downsampling_loss takes 'hold' or 'linear'")
    frames = len(coords)
    anchor = (np.arange(frames) // period) * period
    nxt = np.minimum(anchor + period, frames - 1)
    # Frames past the final upload have no next anchor to blend toward.
    usable = anchor + period <= frames - 1
    weight = np.where(usable, (np.arange(frames) - anchor) / period, 0.0)[:, None, None]
    # (1 - w) * a + w * b in two gathered buffers, blended in place: the same operand pairs.
    rendered, ahead = np.take(coords, anchor, axis=0), np.take(coords, nxt, axis=0)
    rendered *= 1.0 - weight
    ahead *= weight
    return np.add(rendered, ahead, out=rendered)


def downsampling_loss(sequence: SkeletonSequence, upload_rate: int, method: str = "hold") -> float:
    """Root-mean-square rendering loss caused by a reduced upload rate.

    Per frame, the squared per-axis differences between the original and the
    rendered keypoints are summed over all joints; the loss is the square root
    of the mean of those per-frame sums:

        loss = sqrt( sum_{i,j} |original[i,j] - rendered[i,j]|^2 / frame_count )

    Uploading at the full native rate gives exactly 0.
    """
    period, coords = _period(sequence, upload_rate), sequence.coords
    if method == "hold":  # each frame minus its anchor, whole periods as one block, then the tail
        diff, whole = np.empty(coords.shape), len(coords) // period * period
        blocks = coords[:whole].reshape(whole // period, period, *coords.shape[1:])
        np.subtract(blocks, coords[:whole:period, None], out=diff[:whole].reshape(blocks.shape))
        np.subtract(coords[whole:], coords[whole:whole + 1], out=diff[whole:])
    else:
        diff = _render(coords, period, method)
        np.subtract(coords, diff, out=diff)
    np.square(diff, out=diff)  # C-ordered, as coords are, so np.sum adds in (c - r) ** 2's order
    return math.sqrt(float(np.sum(diff)) / sequence.frame_count)


# --- frame codec ---------------------------------------------------------


@dataclass(frozen=True)
class QuantBounds:
    """Clamping range for one-byte quantization of keypoint coordinates."""

    lo: float = -2.0
    hi: float = 2.0

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("quantization bounds must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got lo={self.lo}, hi={self.hi}")
        if not math.isfinite(255 * (float(self.hi) - float(self.lo))):  # the quantizer's largest product
            raise ValueError(f"need 255 * (hi - lo) finite, got lo={self.lo}, hi={self.hi}")

    @property
    def span(self) -> float:
        return self.hi - self.lo

    @cached_property
    def levels(self) -> np.ndarray:
        """The 256 decoded values, read-only: level k is lo + k * span / 255."""
        levels = self.lo + np.arange(256.0) * self.span / 255.0
        levels.flags.writeable = False
        return levels


def _quantize(coords: np.ndarray, bounds: QuantBounds) -> bytes:
    # Elementwise, so a whole clip packs to the same bytes as its frames one by one.
    clamped = np.clip(coords, bounds.lo, bounds.hi)
    return np.rint(255.0 * (clamped - bounds.lo) / bounds.span).astype(np.uint8).tobytes()


def encode_frame(frame: SkeletonFrame, bounds: QuantBounds = QuantBounds()) -> bytes:
    """Pack one frame into 3 * joint_count bytes, one byte per axis.

    Coordinates are clamped to [lo, hi] and quantized to 0..255.  Byte order
    is joint-major: x, y, z of joint 0, then joint 1, and so on.
    """
    return _quantize(frame.coords, bounds)


def decode_frame(data: bytes, joint_count: int, bounds: QuantBounds = QuantBounds()) -> SkeletonFrame:
    """Unpack a frame payload produced by encode_frame."""
    if joint_count < 1:
        raise ValueError("joint_count must be at least 1")
    expected = AXES * joint_count
    if len(data) != expected:
        raise ValueError(f"payload must be exactly {expected} bytes, got {len(data)}")
    return SkeletonFrame(bounds.levels[np.frombuffer(data, dtype=np.uint8)].reshape(joint_count, AXES))


def encode_sequence(sequence: SkeletonSequence, bounds: QuantBounds = QuantBounds()) -> bytes:
    """Concatenation of encode_frame over all frames, in order."""
    return _quantize(sequence.coords, bounds)


def compression_ratio(width: int, height: int, bits_per_pixel: int, joint_count: int) -> float:
    """Size of one raw video frame divided by the size of one keypoint payload."""
    if width < 1 or height < 1 or bits_per_pixel < 1 or joint_count < 1:
        raise ValueError("all codec dimensions must be positive")
    image_bytes = width * height * bits_per_pixel / 8
    return image_bytes / (AXES * joint_count)


# --- serialization -------------------------------------------------------

_CSV_HEADER = "frame,joint,x,y,z"
_CSV_ROW = np.dtype([("frame", np.int64), ("joint", np.int64), ("xyz", np.float64, (AXES,))])


def save_sequence(sequence: SkeletonSequence, fmt: str = "csv") -> bytes:
    """Serialize a sequence to CSV or JSON bytes.

    CSV carries one row per (frame, joint) with 1-based indices, sorted by
    frame then joint; it does not carry the native rate or label.  JSON keeps
    the full sequence including metadata.
    """
    # One % call fills a clip-wide template; the values are Python floats, as repr(np.float64) differs.
    frames, joints = sequence.coords.shape[:2]
    if fmt == "csv":
        # A float's repr holds no comma, quote or newline, so csv.writer would not quote it.
        cells = np.empty((frames, joints, 1 + AXES), dtype=object)
        cells[..., 0] = np.arange(1, frames + 1)[:, None]
        cells[..., 1:] = sequence.coords
        frame = "".join(f"%d,{j},%r,%r,%r\n" for j in range(1, joints + 1))
        return (f"{_CSV_HEADER}\n" + (frame * frames) % tuple(cells.ravel().tolist())).encode("utf-8")
    if fmt == "json":  # json.dumps's layout, which writes a finite float as its repr
        meta = json.dumps(sequence.native_rate), json.dumps(sequence.user_label)
        frame = "[" + ", ".join(["[%r, %r, %r]"] * joints) + "]"
        body = ", ".join([frame] * frames) % tuple(sequence.coords.ravel().tolist())
        return ('{"native_rate": %s, "user_label": %s, "frames": [' % meta + body + "]}").encode("utf-8")
    raise ValueError(f"unknown sequence format {fmt!r}; expected 'csv' or 'json'")


def load_sequence(
    data: bytes,
    fmt: str = "csv",
    native_rate: int = 60,
    user_label: str = "",
) -> SkeletonSequence:
    """Parse bytes produced by save_sequence.

    For CSV the native rate and label are not part of the payload and must be
    supplied by the caller; for JSON they come from the payload and the
    arguments are ignored.

    Raises:
        SequenceFormatError: on malformed rows, duplicate or missing
            (frame, joint) pairs, inconsistent joint counts, or non-finite
            coordinates.
    """
    if fmt == "csv":
        return _load_csv(data, native_rate, user_label)
    if fmt == "json":
        return _load_json(data)
    raise ValueError(f"unknown sequence format {fmt!r}; expected 'csv' or 'json'")


def _load_csv(data: bytes, native_rate: int, user_label: str) -> SkeletonSequence:
    text = data.decode("utf-8")
    frames, joints, xyz = _parse_csv_grid(data, text) or _scan_csv(text)
    joint_count = joints.max()
    present, counts = np.unique(frames, return_counts=True)
    bad = np.flatnonzero((present != np.arange(1, len(present) + 1)) | (counts != joint_count))
    if bad.size:  # frames 1..f - 1 are full, so frame f is missing or short
        f = bad[0] + 1
        got = counts[f - 1] if present[f - 1] == f else 0
        raise SequenceFormatError(f"inconsistent joint count at frame {f}: expected {joint_count}, got {got}")
    # Distinct 1-based joints, joint_count per frame: each frame holds 1..joint_count.
    coords = np.empty((len(present), joint_count, AXES))
    coords[frames.astype(int) - 1, joints.astype(int) - 1] = xyz
    return SkeletonSequence(coords, native_rate, user_label)


def _parse_csv_grid(data: bytes, text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Frame, joint and xyz columns from one loadtxt pass, or None unless they fill the grid with
    valid distinct cells and csv.reader, int() and float() read them alike.  loadtxt strips
    U+001C..U+001F as whitespace where int() and float() do not, and it has no field size limit."""
    header, _, body = text.partition("\n")
    newlines = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))
    if (header != _CSV_HEADER or not body.strip() or any(c in body for c in "\x1c\x1d\x1e\x1f")
            or np.diff(newlines, append=len(data)).max() > csv.field_size_limit()):
        return None
    try:
        rows = np.loadtxt(io.StringIO(body), _CSV_ROW, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    frames, joints = rows["frame"], rows["joint"]
    size = int(frames.max()) * int(joints.max())
    if min(frames.min(), joints.min()) < 1 or len(rows) != size or not np.isfinite(rows["xyz"]).all():
        return None
    cells = np.sort((frames - 1) * joints.max() + joints - 1)
    return (frames, joints, rows["xyz"]) if (cells == np.arange(size)).all() else None


def _scan_csv(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns by a csv.reader scan: it reads what loadtxt rejects and raises at the first bad line."""
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:  # a lone CR inside a line, or a field over the size limit
        raise SequenceFormatError(f"line {reader.line_num}: {exc}") from None
    if not rows or rows[0] != _CSV_HEADER.split(","):
        raise SequenceFormatError(f"expected header {_CSV_HEADER}")
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
    # Object arrays keep indices past int64 exact; a grid that large fails the count check.
    return (*np.array(list(seen), dtype=object).T, np.array(list(seen.values())))


def _load_json(data: bytes) -> SkeletonSequence:
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SequenceFormatError(f"invalid JSON payload: {exc}") from None
    if not isinstance(payload, dict):
        raise SequenceFormatError("JSON payload must be an object")
    missing = {"native_rate", "user_label", "frames"} - payload.keys()
    if missing:
        raise SequenceFormatError(f"JSON payload missing keys: {sorted(missing)}")
    rate = payload["native_rate"]
    label = payload["user_label"]
    if not isinstance(rate, int) or isinstance(rate, bool):
        raise SequenceFormatError("native_rate must be an integer")
    if not isinstance(label, str):
        raise SequenceFormatError("user_label must be a string")
    try:
        coords = np.asarray(payload["frames"], dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise SequenceFormatError("frames must be a rectangular array of [x, y, z] number triples") from None
    try:
        sequence = SkeletonSequence(coords, rate, label)
    except ValueError as exc:
        raise SequenceFormatError(str(exc)) from None
    # float64 conversion also reads numeric strings and booleans, which the CSV reader rejects.
    if not {*map(type, chain.from_iterable(chain.from_iterable(payload["frames"])))} <= {int, float}:
        raise SequenceFormatError("frames must be a rectangular array of [x, y, z] number triples")
    return sequence
