"""Independent brute-force oracles used to check the production paths.

These deliberately use different algorithms from the package: plain
loops, projection-and-clamp closest points, solid-angle sign tests,
full pairwise matrices, homogeneous matrix chains, and support-function
minimization. Keep them simple, not fast.
"""

import numpy as np
from scipy.optimize import minimize


def point_triangle_distance(p, a, b, c):
    """Plane projection if the foot is interior, else min edge distance.

    Different formulation from the production region-case code: project
    onto the plane, barycentric-test the foot, clamp to the three edges.
    Vectorized over triangles for one query point.
    """
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    c = np.atleast_2d(c)
    p = np.asarray(p, dtype=float)
    n = np.cross(b - a, c - a)
    nn = np.linalg.norm(n, axis=1, keepdims=True)
    n = n / np.maximum(nn, 1e-300)
    foot = p - np.einsum("ij,ij->i", p - a, n)[:, None] * n
    v0, v1, v2 = b - a, c - a, foot - a
    d00 = np.einsum("ij,ij->i", v0, v0)
    d01 = np.einsum("ij,ij->i", v0, v1)
    d11 = np.einsum("ij,ij->i", v1, v1)
    d20 = np.einsum("ij,ij->i", v2, v0)
    d21 = np.einsum("ij,ij->i", v2, v1)
    den = d00 * d11 - d01 * d01
    safe = np.maximum(den, 1e-300)
    v = (d11 * d20 - d01 * d21) / safe
    w = (d00 * d21 - d01 * d20) / safe
    interior = (v >= 0) & (w >= 0) & (v + w <= 1) & (den > 1e-20)

    def seg(x, y):
        xy = y - x
        t = np.clip(np.einsum("ij,ij->i", p - x, xy)
                    / np.maximum(np.einsum("ij,ij->i", xy, xy), 1e-300), 0, 1)
        return np.linalg.norm(p - (x + t[:, None] * xy), axis=1)

    edge = np.minimum(np.minimum(seg(a, b), seg(b, c)), seg(c, a))
    plane = np.linalg.norm(p - foot, axis=1)
    return np.where(interior, plane, edge)


def mesh_unsigned_distance(mesh, p):
    tri = mesh.triangles
    return float(point_triangle_distance(p, tri[:, 0], tri[:, 1], tri[:, 2]).min())


def ray_parity_inside(mesh, p, direction=(1.0, 0.0, 0.0)):
    """Crossing parity along a fixed ray, all triangles at once."""
    d = np.asarray(direction, dtype=float)
    tri = mesh.triangles
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    e1, e2 = b - a, c - a
    pvec = np.cross(d, e2)
    det = np.einsum("ij,ij->i", pvec, e1)
    ok = np.abs(det) >= 1e-14
    det = np.where(ok, det, 1.0)
    tvec = p - a
    u = np.einsum("ij,ij->i", tvec, pvec) / det
    qvec = np.cross(tvec, e1)
    v = (qvec @ d) / det
    t = np.einsum("ij,ij->i", e2, qvec) / det
    hit = ok & (u >= 0) & (u <= 1) & (v >= 0) & (u + v <= 1) & (t > 0)
    return int(hit.sum()) % 2 == 1


def mesh_signed_distance(mesh, p, direction=(1.0, 0.0, 0.0)):
    d = mesh_unsigned_distance(mesh, p)
    return -d if ray_parity_inside(mesh, p, direction) else d


def nearest_neighbor_matrix(p, q):
    """Index of the nearest q point for each p point, via the full matrix."""
    d = np.linalg.norm(p[:, None, :] - q[None, :, :], axis=2)
    return d.argmin(axis=1), d.min(axis=1)


def chamfer_bruteforce(p, q):
    _, d_pq = nearest_neighbor_matrix(np.asarray(p, float), np.asarray(q, float))
    _, d_qp = nearest_neighbor_matrix(np.asarray(q, float), np.asarray(p, float))
    return float(np.mean(d_pq ** 2) + np.mean(d_qp ** 2))


def homogeneous(R, t):
    T = np.eye(4)
    T[:3, :3] = R
    T[:3, 3] = t
    return T


def rot_about(axis, angle):
    axis = np.asarray(axis, float)
    axis = axis / np.linalg.norm(axis)
    x, y, z = axis
    c, s = np.cos(angle), np.sin(angle)
    C = 1 - c
    return np.array([
        [c + x * x * C, x * y * C - z * s, x * z * C + y * s],
        [y * x * C + z * s, c + y * y * C, y * z * C - x * s],
        [z * x * C - y * s, z * y * C + x * s, c + z * z * C],
    ])


def fk_matrix_chain(spec, q, wrist_R, wrist_t):
    """Link poses by straightforward 4x4 chained products."""
    poses = []
    root = homogeneous(wrist_R, wrist_t)
    for i, link in enumerate(spec.links):
        parent = root if link.parent < 0 else poses[link.parent]
        T = parent @ homogeneous(link.origin_rotation, link.origin_translation)
        if link.joint_type == "revolute":
            T = T @ homogeneous(rot_about(link.axis, q[link.dof_index]),
                                np.zeros(3))
        poses.append(T)
    return poses


def support_function_radius(wrenches, restarts=200, seed=0):
    """Largest origin-centered ball inside conv(wrenches).

    Radius = min over unit u of max_j <w_j, u>; solved by repeated local
    minimization of the support function on the sphere. Returns 0 when
    the origin is not strictly inside.
    """
    w = np.asarray(wrenches, dtype=float)
    dim = w.shape[1]
    rng = np.random.default_rng(seed)

    def support(u):
        u = u / np.linalg.norm(u)
        return float(np.max(w @ u))

    best = np.inf
    for _ in range(restarts):
        u0 = rng.normal(size=dim)
        u0 /= np.linalg.norm(u0)
        res = minimize(support, u0, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000})
        if res.fun < best:
            best = res.fun
    return max(best, 0.0)


def finite_difference_jacobian(fn, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(fn(x))
    J = np.zeros((f0.size, x.size))
    for i in range(x.size):
        dx = np.zeros_like(x)
        dx[i] = h
        J[:, i] = (np.asarray(fn(x + dx)) - np.asarray(fn(x - dx))).ravel() / (2 * h)
    return J


def self_penetration_bruteforce(posed):
    """(sum, max) depth of hand samples inside other links, by plain loops.

    Every ordered pair (i, j) of links counts unless i == j or one is the
    other's nearest ancestor with geometry; the depth of link i's samples
    in link j is the min of ``primitive_sdf`` over j's primitives.
    """
    from graspsynth.geometry import primitive_sdf

    links = posed.spec.links

    def geometric_parent(i):
        j = links[i].parent
        while j >= 0 and not links[j].primitives:
            j = links[j].parent
        return j

    total = deepest = 0.0
    for i in posed.samples:
        for j, link in enumerate(links):
            if (not link.primitives or i == j or geometric_parent(i) == j
                    or geometric_parent(j) == i):
                continue
            R, t = posed.rotations[j], posed.translations[j]
            local = (posed.samples[i].points - t) @ R
            d = np.min([primitive_sdf(p, local, with_gradient=False)
                        for p in link.primitives], axis=0)
            depth = np.maximum(-d, 0.0)
            total += float(depth.sum())
            deepest = max(deepest, float(depth.max()))
    return total, deepest


def march_closure_per_link(spec, grasp, object_sdf, delta, stop_sdf,
                           substeps, stop_self):
    """Closure march by the per-link rule, by plain loops over links.

    A flexion joint freezes when a link it carries directly (the joint is
    the link's nearest revolute ancestor) has a sample within ``stop_sdf``
    of the object, or when any link it moves has a sample deeper than
    ``2 * stop_sdf`` or, with ``stop_self``, a sample within ``stop_sdf``
    of a hand link other than itself and its geometric parent and
    children. Each link is queried on its own; returns the final q.
    """
    from graspsynth.hands.model import Grasp, forward_kinematics

    links = spec.links
    sampled = [i for i, l in enumerate(links)
               if l.primitives and l.sample_count > 0]

    def joints_above(i):
        out = []
        while i >= 0:
            if links[i].joint_type == "revolute":
                out.append(links[i].dof_index)
            i = links[i].parent
        return out

    def geometric_parent(i):
        j = links[i].parent
        while j >= 0 and not links[j].primitives:
            j = links[j].parent
        return j

    def link_state(q):
        posed = forward_kinematics(
            spec, Grasp(q.copy(), grasp.rotation, grasp.translation))
        nearest, touching = {}, {}
        for i in sampled:
            pts = posed.samples[i].points
            nearest[i] = float(object_sdf(pts).min())
            touching[i] = False
            for j, link in enumerate(links):
                if (not stop_self or not link.primitives or i == j
                        or geometric_parent(i) == j
                        or geometric_parent(j) == i):
                    continue
                if posed.link_sdf(j, pts)[0].min() <= stop_sdf:
                    touching[i] = True
        return nearest, touching

    def frozen(dof, nearest, touching):
        for i in sampled:
            joints = joints_above(i)
            if joints and joints[0] == dof and nearest[i] <= stop_sdf:
                return True
            if dof in joints and (nearest[i] < -2 * stop_sdf or touching[i]):
                return True
        return False

    q = np.array(grasp.q, dtype=float)
    sign = np.zeros(spec.dof)
    for link in links:
        if link.joint_type == "revolute":
            sign[link.dof_index] = link.flexion_sign
    target = np.clip(q + sign * delta, spec.lower, spec.upper)
    active = [sign[k] != 0 and abs(target[k] - q[k]) > 1e-12
              for k in range(spec.dof)]
    step = (target - q) / substeps
    for sub in range(substeps + 1):
        if sub > 0:
            if not any(active):
                break
            for k in range(spec.dof):
                if active[k]:
                    q[k] += step[k]
        nearest, touching = link_state(q)
        for k in range(spec.dof):
            if active[k] and frozen(k, nearest, touching):
                active[k] = False
    return np.clip(q, spec.lower, spec.upper)
