import numpy as np
import pytest

from graspsynth import transforms as tf

from oracles import rot_about


def test_quat_matrix_roundtrip():
    rng = np.random.default_rng(4)
    for _ in range(50):
        q = tf.quat_normalize(rng.normal(size=4))
        R = tf.quat_to_matrix(q)
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
        q2 = tf.matrix_to_quat(R)
        assert np.allclose(q, q2, atol=1e-9) or np.allclose(q, -q2, atol=1e-9)


def test_axis_angle_matches_reference():
    rng = np.random.default_rng(5)
    for _ in range(20):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(-np.pi, np.pi)
        assert np.allclose(tf.axis_angle_to_matrix(axis, angle),
                           rot_about(axis, angle), atol=1e-12)


def test_quat_mul_consistent_with_matrix_product():
    rng = np.random.default_rng(6)
    for _ in range(20):
        qa = tf.quat_normalize(rng.normal(size=4))
        qb = tf.quat_normalize(rng.normal(size=4))
        left = tf.quat_to_matrix(tf.quat_mul(qa, qb))
        right = tf.quat_to_matrix(qa) @ tf.quat_to_matrix(qb)
        assert np.allclose(left, right, atol=1e-12)


def test_rotvec_small_angle():
    r = np.array([1e-9, -2e-9, 3e-10])
    R = tf.rotvec_to_matrix(r)
    assert np.allclose(R, np.eye(3) + tf.skew(r), atol=1e-15)


def test_rotation_between():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.normal(size=3)
        a /= np.linalg.norm(a)
        b = rng.normal(size=3)
        b /= np.linalg.norm(b)
        R = tf.rotation_between(a, b)
        assert np.allclose(R @ a, b, atol=1e-10)
    assert np.allclose(tf.rotation_between([0, 0, 1], [0, 0, -1]) @ [0, 0, 1],
                       [0, 0, -1], atol=1e-10)


def test_rotation_distance_basics():
    q = tf.quat_normalize([1, 0, 0, 0])
    p = tf.rotvec_to_quat([0, 0, np.pi / 2])
    assert tf.quat_rotation_distance(q, q) == 0.0
    assert tf.quat_rotation_distance(q, -np.asarray(q)) == 0.0
    assert tf.quat_rotation_distance(q, p) == pytest.approx(np.pi / 2, abs=1e-12)


def test_cross_is_np_cross_bit_for_bit():
    # same products and differences as np.cross, so the same bits, signed
    # zeros included, under broadcasting
    rng = np.random.default_rng(9)
    a = rng.normal(size=(4, 5, 3))
    b = rng.normal(size=(5, 3))
    a[0] = 0.0
    a[1] = -0.0
    b[::2, 1] = -0.0
    cases = [(a, b), (b, a), (a[2], b), (np.eye(3), b[3]), (-np.eye(3), b[3]),
             (b[3], a[1, 0]), (a, a)]
    for x, y in cases:
        want = np.cross(x, y)
        got = tf.cross(x, y)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert np.signbit(tf.cross(a, b)[1]).any()
