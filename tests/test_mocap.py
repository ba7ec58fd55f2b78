import logging
import math

import numpy as np
import pytest

from conftest import gait_angles, synthetic_gait_frames, write_marker_csv
from kernelkoop import (
    CsvFormatError,
    DegenerateInputError,
    InvalidArgumentError,
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
    assert extract_angles(a) == extract_angles(b) == extract_angles(frames)


def test_marker_frame_stacks_frames_along_a_leading_axis():
    frames = synthetic_gait_frames(n_frames=6, n_cycles=1)
    batch = MarkerFrame(
        np.arange(6), *(np.array([getattr(f, m) for f in frames]) for m in ("hip", "knee", "ankle"))
    )
    assert len(batch) == 6
    assert extract_angles(batch) == extract_angles(frames)
    assert extract_angles([]) == []
    with pytest.raises(InvalidArgumentError):
        MarkerFrame(np.arange(5), batch.hip, batch.knee, batch.ankle)
