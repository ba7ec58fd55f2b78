import logging
import math

import numpy as np
import pytest

from conftest import column_bits, gait_angles, synthetic_gait_frames, write_marker_csv
from kernelkoop import (
    CsvFormatError,
    DegenerateInputError,
    InvalidArgumentError,
    JointAngleSample,
    KernelSpec,
    MarkerFrame,
    PlanarFrame,
    extract_angles,
    fit_kinematics,
    joint_angles,
    predict,
    project_sagittal,
    read_marker_csv,
)
from kernelkoop.mocap import build_dataset

KERNEL = KernelSpec("matern_sobolev32", beta=2.0)


def _planar(hip, knee, ankle, t=0):
    return PlanarFrame(
        t=t, hip=np.asarray(hip, float), knee=np.asarray(knee, float), ankle=np.asarray(ankle, float)
    )


def test_project_selects_configured_axes():
    frame = MarkerFrame(t=0, hip=[1.0, 2.0, 3.0], knee=[4.0, 5.0, 6.0], ankle=[7.0, 8.0, 9.0])
    planar = project_sagittal(frame, plane_axes=("x", "z"))
    assert planar.hip.tolist() == [1.0, 3.0]
    assert planar.knee.tolist() == [4.0, 6.0]
    assert planar.ankle.tolist() == [7.0, 9.0]
    with pytest.raises(InvalidArgumentError):
        project_sagittal(frame, plane_axes=("x", "x"))


@pytest.mark.parametrize("axes", [(0, 2), ("x", 2), ("x", "w"), ("", "z")])
def test_project_accepts_only_axis_names(axes):
    frame = MarkerFrame(t=0, hip=[1.0, 2.0, 3.0], knee=[4.0, 5.0, 6.0], ankle=[7.0, 8.0, 9.0])
    with pytest.raises(InvalidArgumentError, match="use x, y or z"):
        project_sagittal(frame, plane_axes=axes)
    assert project_sagittal(frame, plane_axes=(" Y", "Z")).hip.tolist() == [2.0, 3.0]


@pytest.mark.parametrize("axes", [None, 1.0, True, "xyz", ("x",), ("x", "y", "z"), []])
def test_plane_axes_must_be_a_pair(axes):
    frame = MarkerFrame(t=0, hip=[1.0, 2.0, 3.0], knee=[4.0, 5.0, 6.0], ankle=[7.0, 8.0, 9.0])
    for call in (project_sagittal, lambda f, plane_axes: extract_angles([f], plane_axes)):
        with pytest.raises(InvalidArgumentError, match="plane axes must be a pair, got"):
            call(frame, plane_axes=axes)


def test_project_idempotent_on_planar_data():
    frame = MarkerFrame(t=0, hip=[0.1, 0.0, 0.9], knee=[0.2, 0.0, 0.5], ankle=[0.3, 0.0, 0.1])
    once = project_sagittal(frame)
    lifted = MarkerFrame(
        t=0,
        hip=[once.hip[0], 0.0, once.hip[1]],
        knee=[once.knee[0], 0.0, once.knee[1]],
        ankle=[once.ankle[0], 0.0, once.ankle[1]],
    )
    twice = project_sagittal(lifted)
    assert np.array_equal(once.hip, twice.hip)
    assert np.array_equal(once.knee, twice.knee)
    assert np.array_equal(once.ankle, twice.ankle)


def test_project_preserves_in_plane_distances():
    rng = np.random.default_rng(6)
    for _ in range(10):
        base = rng.normal(size=(3, 3))
        base[:, 1] = 0.7  # common mediolateral offset
        frame = MarkerFrame(t=0, hip=base[0], knee=base[1], ankle=base[2])
        planar = project_sagittal(frame)
        assert np.linalg.norm(planar.knee - planar.hip) == pytest.approx(
            np.linalg.norm(base[1] - base[0]), rel=1e-12
        )


def test_straight_leg_zero_flexion():
    sample = joint_angles(_planar([0.0, 0.0], [0.0, -0.4], [0.0, -0.8]))
    assert sample.theta1 == pytest.approx(0.0, abs=1e-12)
    assert sample.theta2 == pytest.approx(0.0, abs=1e-12)
    assert sample.y1 == pytest.approx(-0.8, abs=1e-12)
    assert sample.y2 == pytest.approx(0.0, abs=1e-12)


def test_right_angle_knee():
    sample = joint_angles(_planar([0.0, 0.0], [0.0, -0.4], [0.4, -0.4]))
    assert sample.theta2 == pytest.approx(math.pi / 2, abs=1e-12)


def test_forward_hip_flexion_is_positive():
    sample = joint_angles(_planar([0.0, 0.0], [0.4, -0.4], [0.4, -0.8]))
    assert sample.theta1 == pytest.approx(math.pi / 4, abs=1e-12)


def test_theta2_scale_invariant():
    rng = np.random.default_rng(14)
    for _ in range(10):
        pts = rng.normal(size=(3, 2))
        a = joint_angles(_planar(*pts))
        b = joint_angles(_planar(*(3.7 * pts)))
        assert a.theta2 == pytest.approx(b.theta2, abs=1e-12)


def test_angles_translation_invariant():
    rng = np.random.default_rng(15)
    for _ in range(10):
        pts = rng.normal(size=(3, 2))
        shift = rng.normal(size=2)
        a = joint_angles(_planar(*pts))
        b = joint_angles(_planar(*(pts + shift)))
        assert a.theta1 == pytest.approx(b.theta1, abs=1e-12)
        assert a.theta2 == pytest.approx(b.theta2, abs=1e-12)


def test_theta1_rotation_covariant():
    rng = np.random.default_rng(16)
    pts = rng.normal(size=(3, 2))
    base = joint_angles(_planar(*pts))
    for phi in (0.3, -1.2, 2.5):
        rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        rotated = joint_angles(_planar(*(pts @ rot.T)))
        expected = (base.theta1 + phi + math.pi) % (2 * math.pi) - math.pi
        assert rotated.theta1 == pytest.approx(expected, abs=1e-12)


def test_theta2_range_and_collinearity():
    rng = np.random.default_rng(18)
    for _ in range(50):
        pts = rng.normal(size=(3, 2))
        s = joint_angles(_planar(*pts))
        assert 0.0 <= s.theta2 <= math.pi
    collinear = joint_angles(_planar([0.0, 0.0], [0.1, -0.1], [0.3, -0.3]))
    assert collinear.theta2 == pytest.approx(0.0, abs=1e-7)


def test_zero_length_segment_raises_and_extract_skips(caplog):
    bad = _planar([0.0, 0.0], [0.0, 0.0], [0.1, -0.1])
    with pytest.raises(DegenerateInputError):
        joint_angles(bad)
    frames = synthetic_gait_frames(n_frames=30, n_cycles=1)
    frames.insert(10, MarkerFrame(t=99, hip=[0.0, 0.1, 0.0], knee=[0.0, 0.1, 0.0], ankle=[0.1, 0.1, 0.1]))
    with caplog.at_level(logging.WARNING, logger="kernelkoop.mocap"):
        samples = extract_angles(frames)
    assert len(samples) == 30
    assert any("skipping frame" in msg for msg in caplog.messages)


def test_extracted_angles_match_generator():
    theta1, theta2 = gait_angles(n_frames=40, n_cycles=1)
    samples = extract_angles(synthetic_gait_frames(n_frames=40, n_cycles=1))
    got1 = np.array([s.theta1 for s in samples])
    got2 = np.array([s.theta2 for s in samples])
    np.testing.assert_allclose(got1, theta1, atol=1e-12)
    np.testing.assert_allclose(got2, theta2, atol=1e-12)


def test_build_dataset_consecutive_structure():
    samples = extract_angles(synthetic_gait_frames(n_frames=20, n_cycles=1))
    ds = build_dataset(samples)
    assert len(ds) == 19
    assert np.array_equal(ds.x_next[:-1], ds.x[1:])
    assert ds.y_next[3, 0] == samples[4].y1
    assert ds.y_next[3, 1] == samples[4].y2


def test_fit_kinematics_interpolates_gait_loop():
    samples = extract_angles(synthetic_gait_frames())
    g1, g2 = fit_kinematics(samples, eta=0.25, kernel=KERNEL)
    assert len(g1.centers) >= 5
    targets = np.array([(s.y1, s.y2) for s in samples])
    rows = g1.centers.indices + 1  # advanced sample for record k is sample k+1
    p1 = predict(g1, g1.advanced_centers.points)[:, 0]
    p2 = predict(g2, g2.advanced_centers.points)[:, 0]
    assert np.max(np.abs(p1 - targets[rows, 0])) < 1e-8
    assert np.max(np.abs(p2 - targets[rows, 1])) < 1e-8


def test_fit_kinematics_constant_pose_errors():
    frames = [
        MarkerFrame(t=i, hip=[0.0, 0.1, 0.0], knee=[0.05, 0.1, -0.4], ankle=[0.0, 0.1, -0.8])
        for i in range(50)
    ]
    samples = extract_angles(frames)
    with pytest.raises(DegenerateInputError):
        fit_kinematics(samples, eta=0.5, kernel=KERNEL)


def test_read_marker_csv_round_trip(tmp_path):
    frames = synthetic_gait_frames(n_frames=12, n_cycles=1)
    path = tmp_path / "markers.csv"
    write_marker_csv(path, frames)
    back = read_marker_csv(path)
    assert len(back) == 12
    assert np.array_equal(back.ankle[3], frames[3].ankle)
    assert back.t.tolist() == [f.t for f in frames]
    for name in ("hip", "knee", "ankle"):
        assert np.array_equal(getattr(back, name), [getattr(f, name) for f in frames])


def test_read_marker_csv_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,hip_x,hip_y,hip_z,knee_x,knee_y,knee_z,ankle_x,ankle_y\n")
    with pytest.raises(CsvFormatError, match="ankle_z"):
        read_marker_csv(path)


def test_read_marker_csv_skips_nan_rows(tmp_path, caplog):
    frames = synthetic_gait_frames(n_frames=5, n_cycles=1)
    path = tmp_path / "markers.csv"
    write_marker_csv(path, frames)
    with open(path, "a") as fh:
        fh.write("5,nan,0.1,0.0,0.1,0.1,-0.4,0.1,0.1,-0.8\n")
    with open(path, "a") as fh:
        fh.write("nan,0.0,0.1,0.0,0.1,0.1,-0.4,0.1,0.1,-0.8\n")
    with caplog.at_level(logging.WARNING, logger="kernelkoop.mocap"):
        back = read_marker_csv(path)
    assert len(back) == 5
    assert any("non-finite" in msg for msg in caplog.messages)
    assert any("skipped 2 frame(s) with non-finite markers" in msg for msg in caplog.messages)


def test_read_marker_csv_finds_columns_by_name(tmp_path):
    frames = synthetic_gait_frames(n_frames=12, n_cycles=1)
    plain = tmp_path / "plain.csv"
    write_marker_csv(plain, frames)
    order = [9, 0, 4, 1, 7, 2, 8, 3, 6, 5]
    header, *rows = [line.split(",") for line in plain.read_text().splitlines()]
    lines = ["# exported\n", ",".join(["note"] + [header[i] for i in order] + ["speed"]) + "\n"]
    for row in rows:
        lines.append(",".join(["left heel"] + [row[i] for i in order] + ["1.5"]) + "\n")
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("".join(lines))
    a, b = read_marker_csv(plain), read_marker_csv(shuffled)
    for name in ("t", "hip", "knee", "ankle"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert (
        column_bits(extract_angles(a))
        == column_bits(extract_angles(b))
        == column_bits(extract_angles(frames))
    )


def test_marker_frame_stacks_frames_along_a_leading_axis():
    frames = synthetic_gait_frames(n_frames=6, n_cycles=1)
    batch = MarkerFrame(
        np.arange(6), *(np.array([getattr(f, m) for f in frames]) for m in ("hip", "knee", "ankle"))
    )
    assert len(batch) == 6
    assert column_bits(extract_angles(batch)) == column_bits(extract_angles(frames))
    assert len(extract_angles([])) == 0
    with pytest.raises(InvalidArgumentError):
        MarkerFrame(np.arange(5), batch.hip, batch.knee, batch.ankle)


@pytest.mark.parametrize(
    "hip, message",
    [([np.nan, 0.0], "finite"), ([0.0, np.inf], "finite"), ([0.0, 0.0, 0.0], "2-vector per frame")],
    ids=["nan", "inf", "3-wide"],
)
def test_planar_frame_rejects_non_finite_and_wrong_width_markers(hip, message):
    with pytest.raises(InvalidArgumentError, match=f"hip marker must be .*{message}"):
        _planar(hip, [0.0, -0.4], [0.0, -0.8])


@pytest.mark.parametrize(
    "knee", [["a", "b"], [1 + 2j, 0.0], np.array([1 + 2j, 0.0]), [[0.0], [0.0, 1.0]]]
)
def test_marker_frames_take_real_numbers_only(knee):
    with pytest.raises(InvalidArgumentError) as err:
        PlanarFrame(0, [0.0, 0.0], knee, [0.0, -0.8])
    assert str(err.value) == "knee marker must be a rectangular array of real numbers"


_LEG3 = ([0.0, 0.1, 0.0], [0.0, 0.1, -0.4], [0.0, 0.1, -0.8])


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: MarkerFrame(0.5, *_LEG3), "t must be integers in the int64 range, got 0.5"),
        (lambda: _planar([0.0, 0.0], [0.0, -0.4], [0.0, -0.8], t=np.nan),
         "t must be integers in the int64 range, got nan"),
        (lambda: MarkerFrame([0, 2.0**63], *([p, p] for p in _LEG3)),
         "t must be integers in the int64 range, got 9.223372036854776e+18"),
        (lambda: MarkerFrame([[0]], *([[p]] for p in _LEG3)), "t must be a scalar or 1-D, got shape (1, 1)"),
    ],
    ids=["fractional", "nan", "past-int64", "2d"],
)
def test_marker_frames_require_integer_frame_indices(make, message):
    with pytest.raises(InvalidArgumentError) as err:
        make()
    assert str(err.value) == message


def test_marker_frame_stores_its_frame_indices_as_integers():
    one = MarkerFrame(3.0, *_LEG3)
    assert type(one.t) is int and one.t == 3
    many = MarkerFrame(np.array([4.0, -5.0]), *([p, p] for p in _LEG3))
    assert many.t.dtype == np.int64 and many.t.tolist() == [4, -5]


@pytest.mark.parametrize("t", ["0.5", "1e300", "9223372036854775808"])
def test_read_marker_csv_rejects_a_non_integer_frame_index_naming_the_file(tmp_path, t):
    path = tmp_path / "markers.csv"
    write_marker_csv(path, synthetic_gait_frames(n_frames=3, n_cycles=1))
    header, first, *rest = path.read_text().splitlines(True)
    path.write_text("".join([header, t + first[1:], *rest]))
    with pytest.raises(CsvFormatError) as err:
        read_marker_csv(path)
    expected = f"t must be integers in the int64 range, got {float(t)!r}"
    assert str(err.value) == f"{path}: bad integer frame index ({expected})"


def test_extracted_record_has_one_column_entry_per_kept_frame():
    frames = synthetic_gait_frames(n_frames=30, n_cycles=1)
    frames.insert(10, MarkerFrame(t=99, hip=[0.0, 0.1, 0.0], knee=[0.0, 0.1, 0.0], ankle=[0.1, 0.1, 0.1]))
    samples = extract_angles(frames)
    assert len(samples) == 30
    for name in ("t", "theta1", "theta2", "y1", "y2"):
        column = getattr(samples, name)
        assert isinstance(column, np.ndarray) and column.shape == (30,), name
    assert 99 not in samples.t
    # samples[i] is the i-th sample with scalar fields, the type joint_angles returns
    sample = samples[-1]
    assert (sample.t, sample.theta1, sample.y2) == (29, samples.theta1[-1], samples.y2[-1])
    assert type(sample.t) is int and type(sample.theta2) is float
    assert [s.t for s in samples] == samples.t.tolist()
    single = joint_angles(project_sagittal(frames[0]))
    assert single == samples[0]


def _line_samples(n):
    """n angle samples evenly spaced along theta1 in [0, 1], with theta1 as both outputs."""
    theta1 = np.linspace(0.0, 1.0, n)
    return JointAngleSample(np.arange(n), theta1, np.zeros(n), theta1, theta1)


def test_build_dataset_needs_two_samples():
    with pytest.raises(DegenerateInputError) as err:
        build_dataset(_line_samples(1))
    assert str(err.value) == "need at least 2 angle samples to form a trajectory"


def test_fit_kinematics_logs_the_jitter_it_used(caplog):
    # at beta = 1e8 every kernel entry rounds to 1.0, so only K + jitter*I factors
    with caplog.at_level(logging.WARNING, logger="kernelkoop.mocap"):
        g1, _ = fit_kinematics(_line_samples(6), eta=0.05, kernel=KernelSpec("matern", beta=1e8))
    assert g1.diagnostics.jitter_used == 1e-12
    assert caplog.messages == ["kernel system required jitter 1.000e-12"]
