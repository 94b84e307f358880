"""Rotation and rigid-transform helpers.

Quaternions are unit 4-vectors in (w, x, y, z) order. Rigid poses are
(R, t) pairs with R a 3x3 rotation matrix and t a 3-vector in cm.
"""

import numpy as np

IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0])


def quat_normalize(q):
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q)
    if n == 0.0:
        raise ValueError("zero quaternion")
    return q / n


def quat_to_matrix(q):
    """Rotation matrix for a unit quaternion (w, x, y, z)."""
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def matrix_to_quat(R):
    """Unit quaternion (w, x, y, z) for a rotation matrix; w >= 0."""
    R = np.asarray(R, dtype=float)
    t = np.trace(R)
    if t > 0:
        s = np.sqrt(t + 1.0) * 2
        q = np.array([0.25 * s,
                      (R[2, 1] - R[1, 2]) / s,
                      (R[0, 2] - R[2, 0]) / s,
                      (R[1, 0] - R[0, 1]) / s])
    else:
        i = int(np.argmax(np.diag(R)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(max(R[i, i] - R[j, j] - R[k, k] + 1.0, 0.0)) * 2
        q = np.empty(4)
        q[0] = (R[k, j] - R[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (R[j, i] + R[i, j]) / s
        q[1 + k] = (R[k, i] + R[i, k]) / s
    if q[0] < 0:
        q = -q
    return quat_normalize(q)


def quat_mul(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def axis_angle_to_matrix(axis, angle):
    """Rodrigues rotation about a unit axis."""
    axis = np.asarray(axis, dtype=float)
    c, s = np.cos(angle), np.sin(angle)
    K = skew(axis)
    return np.eye(3) * c + s * K + (1 - c) * np.outer(axis, axis)


def rotvec_to_matrix(r):
    """Matrix exponential of a rotation vector (axis * angle)."""
    r = np.asarray(r, dtype=float)
    angle = np.linalg.norm(r)
    if angle < 1e-12:
        K = skew(r)
        return np.eye(3) + K + 0.5 * (K @ K)
    return axis_angle_to_matrix(r / angle, angle)


def rotvec_to_quat(r):
    r = np.asarray(r, dtype=float)
    angle = np.linalg.norm(r)
    if angle < 1e-12:
        return quat_normalize(np.array([1.0, 0.5 * r[0], 0.5 * r[1], 0.5 * r[2]]))
    axis = r / angle
    return np.concatenate(([np.cos(angle / 2)], np.sin(angle / 2) * axis))


def skew(v):
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def compose(Ra, ta, Rb, tb):
    """Compose rigid poses: (Ra, ta) then apply to (Rb, tb)."""
    return Ra @ Rb, Ra @ tb + ta


def rotation_between(a, b):
    """Smallest rotation carrying unit vector a onto unit vector b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = float(np.dot(a, b))
    if c > 1.0 - 1e-12:
        return np.eye(3)
    if c < -1.0 + 1e-12:
        # pick any axis orthogonal to a
        helper = np.array([1.0, 0.0, 0.0]) if abs(a[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        axis = np.cross(a, helper)
        axis /= np.linalg.norm(axis)
        return axis_angle_to_matrix(axis, np.pi)
    axis = np.cross(a, b)
    s = np.linalg.norm(axis)
    return axis_angle_to_matrix(axis / s, np.arctan2(s, c))


def quat_rotation_distance(p, q):
    """Angular distance 2*arccos(|<p, q>|) between unit quaternions, in [0, pi]."""
    d = abs(float(np.dot(p, q)))
    if d >= 1.0 - 1e-12:  # identical up to double cover: exactly zero
        return 0.0
    return 2.0 * np.arccos(d)
