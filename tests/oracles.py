"""Independent brute-force oracles used to check the production paths.

These deliberately use different algorithms from the package: plain
loops, projection-and-clamp closest points, solid-angle sign tests,
full pairwise matrices, homogeneous matrix chains, and support-function
minimization. Keep them simple, not fast.
"""

import functools

import numpy as np
from scipy.optimize import minimize
from scipy.spatial import cKDTree


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


def bvh_min_distance_recursive(bvh, points):
    """Unsigned distance and closest triangle per query by the recursive
    BVH descent that ``TriangleBVH.min_distance`` used before its array
    traversal: the centroid-nearest triangle as the seed, the nearer
    child first by summed box distance, boxes at or within the best
    distance so far searched, and the lowest index winning a tie. The
    production traversal must match it bit for bit, distances and
    triangle ids."""
    from graspsynth.geometry.sdf import closest_point_on_triangles

    points = np.atleast_2d(points)
    _, seed_tri = bvh._centroid_tree.query(points)
    seed = bvh.tri[seed_tri]
    cp, _ = closest_point_on_triangles(points, seed[:, 0], seed[:, 1], seed[:, 2])
    best = np.linalg.norm(points - cp, axis=1)
    best_tri = np.asarray(seed_tri, dtype=np.int64)

    def aabb_dist(idx, node):
        d = np.maximum(bvh.node_min[node] - points[idx], 0.0)
        d = np.maximum(d, points[idx] - bvh.node_max[node])
        return np.linalg.norm(d, axis=1)

    def descend(node, idx):
        if len(idx) == 0:
            return
        left, right = bvh.node_left[node], bvh.node_right[node]
        if left < 0:
            s, c = bvh.node_start[node], bvh.node_count[node]
            tris = bvh.leaf_tris[s:s + c]
            nq, nt = len(idx), len(tris)
            pts = np.repeat(points[idx], nt, axis=0)
            tri = np.tile(bvh.tri[tris], (nq, 1, 1))
            cp, _ = closest_point_on_triangles(pts, tri[:, 0], tri[:, 1], tri[:, 2])
            d = np.linalg.norm(pts - cp, axis=1).reshape(nq, nt)
            col = d.argmin(axis=1)
            dmin = d[np.arange(nq), col]
            won = tris[col]
            improved = (dmin < best[idx]) | ((dmin == best[idx])
                                             & (won < best_tri[idx]))
            upd = idx[improved]
            best[upd] = dmin[improved]
            best_tri[upd] = won[improved]
            return
        dl = aabb_dist(idx, left)
        dr = aabb_dist(idx, right)
        if dl.sum() <= dr.sum():
            descend(left, idx[dl <= best[idx]])
            descend(right, idx[dr <= best[idx]])
        else:
            descend(right, idx[dr <= best[idx]])
            descend(left, idx[dl <= best[idx]])

    descend(0, np.arange(len(points)))
    return best, best_tri


def ray_parity_query(sdf, points):
    """``MeshSDF.query`` as it was before closest-feature signs: the
    recursive BVH distance, signed by ``MeshSDF.inside`` (ray parity)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    dist, _ = bvh_min_distance_recursive(sdf.bvh, points)
    if not sdf.watertight:
        return dist
    return np.where(sdf.inside(points), -dist, dist)


def nearest_neighbor_matrix(p, q):
    """Index of the nearest q point for each p point, via the full matrix."""
    d = np.linalg.norm(p[:, None, :] - q[None, :, :], axis=2)
    return d.argmin(axis=1), d.min(axis=1)


def nearest_pairs_kdtree(warped, instance):
    """Both nearest-neighbour pairings of a warped template and an
    instance cloud from fresh full cKDTree queries:
    ``(d_ti, idx_ti, d_it, idx_it)``."""
    d_ti, idx_ti = cKDTree(instance).query(warped)
    d_it, idx_it = cKDTree(warped).query(instance)
    return d_ti, idx_ti, d_it, idx_it


def diffuse_sources_loop(map_a, map_b):
    """The A sample ``diffuse_contacts`` transports to each B sample, one
    B sample at a time: its template sample's A match with the lowest
    (residual, row), else the A sample whose matched template point is
    nearest to that template sample."""
    inverted = {}
    for i, t in enumerate(map_a.indices):
        inverted.setdefault(int(t), []).append(i)
    for lst in inverted.values():
        lst.sort(key=lambda i: (map_a.residuals[i], i))
    tree_a = cKDTree(map_a.template_points[map_a.indices])
    source = np.empty(len(map_b), dtype=np.int64)
    for j in range(len(map_b)):
        t = int(map_b.indices[j])
        hit = inverted.get(t)
        if hit:
            source[j] = hit[0]
        else:
            _, source[j] = tree_a.query(map_b.template_points[t])
    return source


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


@functools.lru_cache(maxsize=None)
def _link_local_samples(spec):
    """Each link's own surface draw in its frame, drawn once per spec (the
    arrays are read-only); the oracles below pose it every call."""
    from graspsynth.geometry import sample_surface

    meshes = spec.link_meshes()
    return {i: sample_surface(meshes[i], n=link.sample_count,
                              seed=i).points
            for i, link in enumerate(spec.links) if link.primitives}


def link_sample_points(posed):
    """World hand samples link by link, {link: (n, 3)}: each link with
    primitives draws its own ``sample_surface`` points in its frame, and
    its posed rotation and translation move them there."""
    return {i: local @ posed.rotations[i].T + posed.translations[i]
            for i, local in _link_local_samples(posed.spec).items()}


@functools.lru_cache(maxsize=None)
def link_stack(spec, link):
    """A ``PrimitiveStack`` over one link's primitives alone, built once
    per (spec, link): what a query on the hand's stack with ``owners``
    must match."""
    from graspsynth.geometry.primitives import PrimitiveStack

    return PrimitiveStack({link: spec.links[link].primitives})


def link_sdf(posed, link, points):
    """(distance, world gradient) of one link's primitive union, from its
    own one-link stack."""
    d, g, _ = link_stack(posed.spec, link).query(
        posed.rotations, posed.translations, points, with_gradient=True)
    return d, g


def link_targets(scene):
    """{robot link: its attraction target points} of a ``GraspScene``,
    in target order."""
    return {j: scene.object_points[rows] for j, rows, _ in scene.target_trees}


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
    for i, points in link_sample_points(posed).items():
        for j, link in enumerate(links):
            if (not link.primitives or i == j or geometric_parent(i) == j
                    or geometric_parent(j) == i):
                continue
            R, t = posed.rotations[j], posed.translations[j]
            local = (points - t) @ R
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
        per_link = link_sample_points(posed)
        for i in sampled:
            pts = per_link[i]
            nearest[i] = float(object_sdf(pts).min())
            touching[i] = False
            for j, link in enumerate(links):
                if (not stop_self or not link.primitives or i == j
                        or geometric_parent(i) == j
                        or geometric_parent(j) == i):
                    continue
                if link_sdf(posed, j, pts)[0].min() <= stop_sdf:
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


def close_until_contact_fresh(spec, grasp, object_sdf):
    """``close_until_contact`` with a fresh march each time: every march
    queries all hand samples at its first substep, as before the object
    distances were carried from march to march."""
    from graspsynth.closure import march_closure
    from graspsynth.hands.model import Grasp

    step = np.deg2rad(4.0)
    q = np.array(grasp.q, dtype=float)
    swept = 0.0
    while swept < np.deg2rad(160):
        q_new = march_closure(spec, Grasp(q, grasp.rotation,
                                          grasp.translation),
                              object_sdf, delta=step, substeps=8,
                              stop_self=True)
        if np.abs(q_new - q).max() < 1e-9:
            break
        q = q_new
        swept += step
    return q


def penetration_volume_full_grid(posed, mesh, spacing=0.25):
    """Hand-object overlap volume over every cell of the object's voxel
    grid: cells whose center ``voxelize`` marks occupied and the hand SDF
    puts inside, times the cell volume."""
    from graspsynth.geometry import voxelize

    grid = voxelize(mesh, spacing=spacing)
    in_hand = (posed.sdf(grid.cell_centers()) < 0).reshape(grid.dims)
    return float(np.count_nonzero(grid.occupancy & in_hand)) * spacing ** 3


def ray_parity_voxels(mesh, spacing):
    """``voxelize`` occupancy as it was built before near-set signs:
    ``MeshSDF.inside`` (ray parity) at every cell center."""
    from graspsynth.geometry import MeshSDF
    from graspsynth.geometry.grid import cell_centers, padded_layout

    origin, dims = padded_layout(*mesh.bounds(), spacing)
    return MeshSDF(mesh).inside(cell_centers(origin, spacing,
                                             dims)).reshape(dims)


def sdf_grid_nodes(mesh, spacing):
    """Origin, dims and C-order nodes of ``sdf_grid_from_mesh``'s grid."""
    from graspsynth.geometry.grid import SDF_PAD_CELLS, _lattice

    lo, hi = mesh.bounds()
    origin = lo - SDF_PAD_CELLS * spacing
    dims = tuple(
        int(np.ceil((h - l + 2 * SDF_PAD_CELLS * spacing) / spacing)) + 1
        for l, h in zip(lo, hi))
    return origin, dims, origin + _lattice(dims) * spacing


def ray_parity_sdf_grid(mesh, spacing):
    """``sdf_grid_from_mesh`` values as they were built before near-set
    signs: ``MeshSDF.inside`` (ray parity) at every node, exact distances
    in the band around the sign change, the EDT fill beyond it."""
    from scipy import ndimage

    from graspsynth.geometry import MeshSDF
    from graspsynth.geometry.grid import SDF_BAND_CELLS

    _, dims, nodes = sdf_grid_nodes(mesh, spacing)
    sdf = MeshSDF(mesh)
    inside = sdf.inside(nodes).reshape(dims)
    boundary = np.zeros(dims, dtype=bool)
    for axis in range(3):
        sl_a = [slice(None)] * 3
        sl_b = [slice(None)] * 3
        sl_a[axis] = slice(0, -1)
        sl_b[axis] = slice(1, None)
        diff = inside[tuple(sl_a)] != inside[tuple(sl_b)]
        boundary[tuple(sl_a)] |= diff
        boundary[tuple(sl_b)] |= diff
    band = ndimage.binary_dilation(boundary, iterations=SDF_BAND_CELLS)
    values = np.full(dims, np.nan)
    values[band] = sdf.bvh.min_distance(nodes[band.ravel()])[0]
    far = ~band
    if np.any(far):
        edt, indices = ndimage.distance_transform_edt(
            far, sampling=spacing, return_indices=True)
        src = (indices[0][far], indices[1][far], indices[2][far])
        values[far] = edt[far] + values[src]
    values[inside] *= -1.0
    return values


def _evaluate_per_link_queries(scene, grasp, g_init, weights, accumulate,
                               gesture_reference=None):
    """The optimizer loss as one whole pass, gradient included on request.

    The attraction/repulsion block queries each target tree once per hand
    segment (17 x 6 = 102 queries for the human hand), and per-link
    moments use ``np.cross``. Kept as the reference the split forward /
    gradient passes of ``grasp_opt`` must match bit for bit.
    """
    from graspsynth import transforms as tf
    from graspsynth.contact import digitize
    from graspsynth.grasp_opt import (SMOOTH_EPS, LossWeights,
                                      _digitize_slope,
                                      _oriented_cloud_distance, _smooth_abs,
                                      _smooth_abs_grad)
    from graspsynth.hands.model import _ancestor_dofs, forward_kinematics

    w = weights or LossWeights()
    spec = scene.spec
    posed = forward_kinematics(spec, grasp)
    ref = gesture_reference if gesture_reference is not None else g_init
    moments = {}

    def add(link, points, vectors):
        points = np.atleast_2d(points)
        vectors = np.atleast_2d(vectors)
        s0 = vectors.sum(axis=0)
        s1 = np.cross(points, vectors).sum(axis=0)
        if link in moments:
            moments[link][0] += s0
            moments[link][1] += s1
        else:
            moments[link] = [s0, s1]

    obj_pts = scene.object_points
    sdf_o, grad_o, link_o = posed.sdf(obj_pts, with_gradient=True)
    map_div = float(len(obj_pts)) if w.map_norm == "mean" else 1.0
    diff_o = digitize(sdf_o) - scene.omega_o_target
    contact_map_term = float(_smooth_abs(diff_o).sum()) / map_div
    loss_ip = w.lam6 * float(np.maximum(-sdf_o, 0.0).sum())
    if accumulate:
        w_d = (_smooth_abs_grad(diff_o) * _digitize_slope(sdf_o) / map_div
               + np.where(sdf_o < 0.0, -w.lam6, 0.0))
        live = w_d != 0.0
        for link in np.unique(link_o[live]):
            rows = live & (link_o == link)
            add(int(link), obj_pts[rows], (-w_d[rows, None]) * grad_o[rows])

    hand_map_term = 0.0
    per_link = link_sample_points(posed)
    H = np.vstack(list(per_link.values()))
    ends = np.cumsum([len(p) for p in per_link.values()])
    seg_slices = {i: slice(end - len(p), end)
                  for (i, p), end in zip(per_link.items(), ends)}
    d_m, n_m, _ = _oriented_cloud_distance(scene, H)
    omega_m_live = digitize(d_m)
    if scene.per_sample_hand_map:
        n_matched = sum(spec.links[k].sample_count
                        for k in scene.matched_segments)
        hand_div = float(n_matched) if w.map_norm == "mean" else 1.0
        diffs = []
        for i in scene.matched_segments:
            sl = seg_slices[i]
            dif = omega_m_live[sl] - scene.omega_m_target[spec.links[i].name]
            diffs.append(_smooth_abs(dif))
            if accumulate and len(dif):
                w_m = _smooth_abs_grad(dif) * _digitize_slope(d_m[sl]) / hand_div
                add(i, H[sl], w_m[:, None] * n_m[sl])
        if diffs:
            hand_map_term = float(np.concatenate(diffs).sum()) / hand_div
    else:
        per_seg = []
        n_segs = max(len(scene.matched_segments), 1)
        for i in scene.matched_segments:
            sl = seg_slices[i]
            n_seg = sl.stop - sl.start
            scale = float(n_seg) if w.map_norm == "sum" else 1.0 / n_segs
            target_mean = float(np.mean(scene.omega_m_target[spec.links[i].name]))
            dif = float(np.mean(omega_m_live[sl])) - target_mean
            per_seg.append(_smooth_abs(np.array([dif]))[0] * scale)
            if accumulate:
                w_m = (_smooth_abs_grad(np.array([dif]))[0]
                       * _digitize_slope(d_m[sl]) * (scale / n_seg))
                add(i, H[sl], w_m[:, None] * n_m[sl])
        hand_map_term = float(np.sum(per_seg)) if per_seg else 0.0

    attract = 0.0
    repel = 0.0
    targets = link_targets(scene)
    trees = {j: cKDTree(pts) for j, pts in targets.items()}
    for i in seg_slices:
        pts_i = H[seg_slices[i]]
        for j, tree in trees.items():
            d, nearest = tree.query(pts_i)
            ia = int(d.argmin())
            dist = float(d[ia])
            ib = int(nearest[ia])
            target = targets[j]
            if i == j:
                attract += dist
                if accumulate and dist > 1e-12:
                    unit = (pts_i[ia] - target[ib]) / dist
                    add(i, pts_i[ia], w.lam1 * unit)
            else:
                repel += min(dist, w.d1)
                if accumulate and 1e-12 < dist < w.d1:
                    unit = (pts_i[ia] - target[ib]) / dist
                    add(i, pts_i[ia], -w.lam2 * unit)
    loss_c = contact_map_term + hand_map_term + w.lam1 * attract - w.lam2 * repel

    loss_a = 0.0
    for k, target in scene.anchor_targets.items():
        a_pt = posed.anchor_points[k]
        d = np.linalg.norm(target - a_pt, axis=1)
        ib = int(d.argmin())
        dist = float(d[ib])
        if dist > w.d2:
            loss_a += w.anchor_weight * dist
            if accumulate and dist > 1e-12 and w.anchor_weight > 0:
                unit = (a_pt - target[ib]) / dist
                add(spec.anchors[k].link, a_pt, w.anchor_weight * unit)

    dq = grasp.q - ref.q
    dt = grasp.translation - ref.translation
    loss_g = (w.lam3 * float(np.abs(dq).sum())
              + w.lam4 * float(np.abs(dt).sum())
              + w.lam5 * tf.quat_rotation_distance(grasp.rotation,
                                                   ref.rotation))

    d_self = posed.self_distances()
    loss_sp = w.lam7 * float(np.maximum(-d_self, 0.0).sum())
    if accumulate and loss_sp > 0.0:
        segs = list(per_link)
        sources = np.repeat(segs, [len(p) for p in per_link.values()])
        rows, cols = np.nonzero(d_self < 0.0)
        for r in np.unique(rows):
            j, n = segs[r], cols[rows == r]
            _, g = link_sdf(posed, j, H[n])
            add(j, H[n], w.lam7 * g)
            for i in np.unique(sources[n]):
                own = sources[n] == i
                add(int(i), H[n][own], -w.lam7 * g[own])

    terms = {"contact": loss_c, "anchor": loss_a, "gesture": loss_g,
             "interpenetration": loss_ip, "self_penetration": loss_sp}
    total = float(sum(terms.values()))
    if not accumulate:
        return total, terms, None

    grad_q = np.zeros(spec.dof)
    grad_t = np.zeros(3)
    grad_r = np.zeros(3)
    axes, origins = posed.joint_axes
    for link, (s0, s1) in moments.items():
        for dof in _ancestor_dofs(spec, link):
            grad_q[dof] += axes[dof] @ (s1 - np.cross(origins[dof], s0))
        grad_t += s0
        grad_r += s1 - np.cross(grasp.translation, s0)
    grad_q += w.lam3 * dq / np.sqrt(dq ** 2 + SMOOTH_EPS ** 2)
    grad_t += w.lam4 * dt / np.sqrt(dt ** 2 + SMOOTH_EPS ** 2)
    dot = float(np.dot(ref.rotation, grasp.rotation))
    if abs(dot) < 1.0 - 1e-9:
        dabs = -2.0 / np.sqrt(1.0 - dot ** 2) * np.sign(dot)
        for k in range(3):
            u = np.zeros(4)
            u[1 + k] = 0.5
            grad_r[k] += w.lam5 * dabs * float(
                np.dot(ref.rotation, tf.quat_mul(u, grasp.rotation)))
    grad_a = spec.coupling.T @ grad_q
    return total, terms, np.concatenate([grad_a, grad_t, grad_r])


def descend_reevaluate(scene, g_start, g_init, steps, weights,
                       gesture_reference=None, step_init=0.01,
                       stop_penetration=None):
    """Monotone projected descent that evaluates each accepted candidate
    a second time, with the gradient (``_evaluate_per_link_queries``).

    Returns (grasp, rows, grads): the final grasp, the per-step term rows
    and the gradient taken at the start and after every accepted step.
    ``stop_penetration(grasp)`` ends the descent after an accepted step.
    """
    from graspsynth import transforms as tf
    from graspsynth.grasp_opt import _state_to_grasp
    from graspsynth.hands.model import actuated_from_q

    spec = scene.spec
    lo_a = spec.actuated_limits[:, 0]
    hi_a = spec.actuated_limits[:, 1]
    a = np.clip(actuated_from_q(spec, g_start.q), lo_a, hi_a)
    t = g_start.translation.copy()
    base_quat = g_start.rotation.copy()

    def evaluate(grasp, accumulate):
        return _evaluate_per_link_queries(scene, grasp, g_init, weights,
                                          accumulate, gesture_reference)

    grasp = _state_to_grasp(scene, a, t, base_quat)
    value, terms, grad = evaluate(grasp, True)
    rows = [{"step": 0, "total": value, **terms}]
    grads = [grad]
    step = step_init
    for it in range(1, steps + 1):
        x0 = np.concatenate([a, t, np.zeros(3)])
        accepted = False
        for _ in range(20):
            xc = x0 - step * grad
            a_c = np.clip(xc[:spec.doa], lo_a, hi_a)
            t_c = xc[spec.doa:spec.doa + 3]
            quat_c = tf.quat_normalize(tf.quat_mul(
                tf.rotvec_to_quat(xc[spec.doa + 3:]), base_quat))
            cand = _state_to_grasp(scene, a_c, t_c, quat_c)
            cand_value, _, _ = evaluate(cand, False)
            if cand_value < value - 1e-12:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        a, t, base_quat = a_c, t_c, quat_c
        grasp = cand
        value, terms, grad = evaluate(grasp, True)
        rows.append({"step": it, "total": value, **terms})
        grads.append(grad)
        step = min(step * 1.8, 0.5)
        if stop_penetration is not None and stop_penetration(grasp):
            break
    return grasp, rows, grads


def trilinear_point(grid, p):
    """Value and gradient of an ``SdfGrid`` at one point, corner by corner.

    The point is clamped into the box, with the upper face held 1e-9 cell
    inside so that it belongs to the last cell (the grid's convention).
    The value is the trilinear interpolant of that cell plus the distance
    from p to the box; the gradient is the interpolant's analytic
    gradient plus the unit vector from the box to p.
    """
    import math

    dims = grid.values.shape
    value = 0.0
    grad = [0.0, 0.0, 0.0]
    rel = [(float(p[a]) - float(grid.origin[a])) / grid.spacing
           for a in range(3)]
    c = [min(max(rel[a], 0.0), dims[a] - 1 - 1e-9) for a in range(3)]
    i = [int(math.floor(c[a])) for a in range(3)]
    f = [c[a] - i[a] for a in range(3)]
    for corner in range(8):
        d = [(corner >> 2) & 1, (corner >> 1) & 1, corner & 1]
        w = [f[a] if d[a] else 1.0 - f[a] for a in range(3)]
        dw = [1.0 if d[a] else -1.0 for a in range(3)]
        v = float(grid.values[i[0] + d[0], i[1] + d[1], i[2] + d[2]])
        value += w[0] * w[1] * w[2] * v
        grad[0] += dw[0] * w[1] * w[2] * v / grid.spacing
        grad[1] += w[0] * dw[1] * w[2] * v / grid.spacing
        grad[2] += w[0] * w[1] * dw[2] * v / grid.spacing
    over = [(rel[a] - min(max(rel[a], 0.0), dims[a] - 1)) * grid.spacing
            for a in range(3)]
    dist = math.sqrt(sum(o * o for o in over))
    if dist > 0:
        value += dist
        grad = [grad[a] + over[a] / dist for a in range(3)]
    return value, np.array(grad)


def icp_world_frame(observed, canon, diag=1.0, stride=1, coarse_iters=0,
                    max_iters=50, tol=1e-8):
    """``fit.icp_init`` matched in the world frame, as first written.

    Each iteration builds a KD tree over the template points moved by the
    current similarity and matches every observed point to its nearest
    one. The first ``coarse_iters`` iterations match every ``stride``-th
    observed point, from offset ``i % stride`` at iteration ``i``, and
    run to the end; the rest match the whole cloud, with a residual
    series of their own. With the defaults this is the
    single-phase ICP of at most 50 iterations. Returns ((s, quaternion,
    t, residual), [matched indices of every iteration]).
    """
    import warnings

    from scipy.spatial import cKDTree

    from graspsynth import transforms as tf
    from graspsynth.fit import _umeyama

    mu_c = canon.mean(axis=0)
    mu_o = observed.mean(axis=0)
    rms_c = np.sqrt(((canon - mu_c) ** 2).sum(axis=1).mean())
    rms_o = np.sqrt(((observed - mu_o) ** 2).sum(axis=1).mean())
    sigma = rms_o / max(rms_c, 1e-12)
    R = np.eye(3)
    t = mu_o - sigma * (R @ mu_c)

    matches = []
    for i in range(max_iters):
        coarse = i < coarse_iters
        points = observed[i % stride::stride] if coarse else observed
        if i == coarse_iters:
            best = (np.inf, sigma, R, t)
            grew = 0
            prev = np.inf
        transformed = (canon @ R.T) * sigma + t
        _, idx = cKDTree(transformed).query(points)
        matches.append(idx)
        sigma, R, t = _umeyama(canon[idx], points)
        if coarse:
            continue
        transformed = (canon[idx] @ R.T) * sigma + t
        residual = float(np.sqrt(((points - transformed) ** 2)
                                 .sum(axis=1).mean()))
        if residual < best[0]:
            best = (residual, sigma, R, t)
        if residual > prev + 1e-12:
            grew += 1
            if grew >= 5:
                warnings.warn("ICP diverging; returning best state so far")
                break
        else:
            grew = 0
        if abs(prev - residual) < tol:
            break
        prev = residual
    residual, sigma, R, t = best
    return (sigma / diag, tf.matrix_to_quat(R), t, residual), matches


def forward_kinematics_per_link(spec, grasp):
    """``hands.forward_kinematics`` as first written: one
    ``axis_angle_to_matrix`` per joint, link by link (``compose`` of the
    parent pose and the joint origin written out), and anchors and
    fingertips one at a time."""
    from graspsynth import transforms as tf
    from graspsynth.hands.model import PosedHand

    Rw, tw = grasp.wrist_matrix()
    n = len(spec.links)
    rotations = np.empty((n, 3, 3))
    translations = np.empty((n, 3))
    for i, link in enumerate(spec.links):
        if link.parent < 0:
            Rp, tp = Rw, tw
        else:
            Rp, tp = rotations[link.parent], translations[link.parent]
        R, t = Rp @ link.origin_rotation, Rp @ link.origin_translation + tp
        if link.joint_type == "revolute":
            Rj = tf.axis_angle_to_matrix(link.axis, grasp.q[link.dof_index])
            R = R @ Rj
        rotations[i] = R
        translations[i] = t

    local, _, slices = spec._layout()
    points = np.empty(local.shape)
    for i, rows in slices.items():
        points[rows] = local[rows] @ rotations[i].T + translations[i]
    points.setflags(write=False)
    anchor_points = np.array([rotations[a.link] @ a.local + translations[a.link]
                              for a in spec.anchors]).reshape(-1, 3)
    fingertip_points = np.array([rotations[f.link] @ f.local + translations[f.link]
                                 for f in spec.fingertip_frames]).reshape(-1, 3)
    return PosedHand(spec, grasp, rotations, translations, points,
                     anchor_points, fingertip_points)


def point_jacobian_per_joint(spec, posed, link, world_point):
    """``hands.point_jacobian_world`` as first written: walk up the chain
    from ``link`` and take one ``np.cross`` per joint and per wrist
    rotation axis."""
    J = np.zeros((3, spec.dof + 6))
    i = link
    while i >= 0:
        l = spec.links[i]
        if l.joint_type == "revolute":
            if l.parent < 0:
                Rp, tp = posed.grasp.wrist_matrix()
            else:
                Rp, tp = posed.rotations[l.parent], posed.translations[l.parent]
            axis_world = Rp @ (l.origin_rotation @ l.axis)
            origin_world = Rp @ l.origin_translation + tp
            J[:, l.dof_index] = np.cross(axis_world, world_point - origin_world)
        i = l.parent
    J[:, spec.dof:spec.dof + 3] = np.eye(3)
    r = world_point - posed.grasp.translation
    for k in range(3):
        e = np.zeros(3)
        e[k] = 1.0
        J[:, spec.dof + 3 + k] = np.cross(e, r)
    return J


def retarget_reference(problem):
    """``retarget.retarget`` as first written, on the per-link kinematics
    above: one fingertip Jacobian at a time. Returns (q, trace,
    iterations)."""
    from graspsynth.hands.model import Grasp, apply_coupling
    from graspsynth.retarget import (MAX_ITERS, PATIENCE, SMOOTH_EPS, TOL,
                                     _direct_init, _mapped_targets)

    spec = problem.robot
    target_q, mask = _mapped_targets(problem)
    tip_names = [f.name for f in spec.fingertip_frames]
    tip_targets = np.array([problem.task_points[n] for n in tip_names])

    a = _direct_init(problem, target_q, mask)
    lo_a = spec.actuated_limits[:, 0]
    hi_a = spec.actuated_limits[:, 1]

    def evaluate(a_vec, with_grad=False):
        q = apply_coupling(spec, a_vec)[0]
        posed = forward_kinematics_per_link(
            spec, Grasp(q, np.array([1.0, 0, 0, 0]), np.zeros(3)))
        tips = posed.fingertip_points
        residuals = tip_targets - tips
        norms = np.linalg.norm(residuals, axis=1)
        joint_err = np.abs(target_q - q)[mask]
        value = (problem.alpha_task * norms.sum()
                 + problem.alpha_joint * joint_err.sum())
        if not with_grad:
            return value
        grad_q = np.zeros(spec.dof)
        for k, frame in enumerate(spec.fingertip_frames):
            J = point_jacobian_per_joint(spec, posed, frame.link,
                                         tips[k])[:, :spec.dof]
            unit = residuals[k] / np.sqrt(norms[k] ** 2 + SMOOTH_EPS ** 2)
            grad_q += problem.alpha_task * (-J.T @ unit)
        diff = q - target_q
        smooth_sign = diff / np.sqrt(diff ** 2 + SMOOTH_EPS ** 2)
        grad_q[mask] += problem.alpha_joint * smooth_sign[mask]
        return value, spec.coupling.T @ grad_q

    value, grad = evaluate(a, with_grad=True)
    trace = [value]
    step = 0.05
    stale = 0
    iters = 0
    for iters in range(1, MAX_ITERS + 1):
        accepted = False
        for _ in range(30):
            cand = np.clip(a - step * grad, lo_a, hi_a)
            cand_value = evaluate(cand)
            if cand_value < value - 1e-15:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            trace.append(value)
            break
        improvement = value - cand_value
        a = cand
        value = cand_value
        _, grad = evaluate(a, with_grad=True)
        trace.append(value)
        step = min(step * 1.5, 1.0)
        stale = stale + 1 if improvement < TOL else 0
        if stale >= PATIENCE:
            break
    return apply_coupling(spec, a)[0], trace, iters


def primitive_query_all_rows(stack, rotations, translations, points):
    """``PrimitiveStack.query`` as first written: every point in one
    ``points @ M`` product, every row's formula with its unit gradient,
    and the nearest row's gradient kept. A lone point is computed as two
    copies of itself, since a one-row product can differ in the last bit.

    Returns (distances (N, P), world gradients (N, 3), nearest row (N,)).
    """
    R = rotations[stack.owner] @ stack.rotation
    b = (translations[stack.owner][:, None] @ R)[:, 0] + stack.offset
    M = R.transpose(1, 0, 2).reshape(3, -1)
    points = np.asarray(points, dtype=float)
    batch = np.repeat(points, 2, axis=0) if len(points) == 1 else points
    local = (batch @ M - b.ravel()).reshape(len(batch), -1, 3)[:len(points)]
    d = np.empty(local.shape[:2])
    g = np.empty(local.shape)
    for formula, cols, params in stack.blocks:
        d[:, cols], g[:, cols] = formula(local[:, cols], params, True)
    k = d.argmin(axis=1)
    n = np.arange(len(k))
    return d, np.einsum("nij,nj->ni", R[k], g[n, k]), k


def forward_pass_pairs_per_segment(scene, grasp, ref, w):
    """A ``grasp_opt._ForwardPass`` whose attraction/repulsion pairs come
    from the loop first written for it: every target tree searched
    exactly over all hand samples, then per segment and tree one
    ``argmin`` over the segment's distances."""
    from graspsynth.grasp_opt import _ForwardPass

    class PairsPerSegment(_ForwardPass):
        def _pairs(self, seg_slices):
            targets = link_targets(self.scene)
            trees = {j: cKDTree(pts) for j, pts in targets.items()}
            queried = [tree.query(self.H) for tree in trees.values()]
            dists = np.reshape([d for d, _ in queried],
                               (len(trees), len(self.H)))
            attract = 0.0
            repel = 0.0
            pulls = []
            for i, sl in seg_slices.items():
                first = dists[:, sl].argmin(axis=1) + sl.start
                for j, (d, nearest), ia in zip(trees, queried, first):
                    dist = float(d[ia])
                    target = targets[j]
                    if i == j:
                        attract += dist
                        if dist > 1e-12:
                            pulls.append((i, self.H[ia], target[nearest[ia]],
                                          dist, self.w.lam1))
                    else:
                        repel += min(dist, self.w.d1)
                        if 1e-12 < dist < self.w.d1:
                            pulls.append((i, self.H[ia], target[nearest[ia]],
                                          dist, -self.w.lam2))
            return attract, repel, pulls

    return PairsPerSegment(scene, grasp, ref, w, np.inf)


def descend_full_passes(scene, g_start, g_init, steps, weights,
                        gesture_reference=None, stop_depth=None):
    """``grasp_opt._descend`` with every forward pass computed in full:
    each candidate's loss is the total of a pass with an infinite ceiling,
    compared with the accepted loss less 1e-12. Returns (grasp, rows,
    counts) with the forward passes, gradient passes and backtracks."""
    from graspsynth import transforms as tf
    from graspsynth.grasp_opt import (LossWeights, _ForwardPass,
                                      _state_to_grasp)
    from graspsynth.hands.model import actuated_from_q

    spec = scene.spec
    w = weights or LossWeights()
    ref = gesture_reference if gesture_reference is not None else g_init
    lo_a = spec.actuated_limits[:, 0]
    hi_a = spec.actuated_limits[:, 1]
    a = np.clip(actuated_from_q(spec, g_start.q), lo_a, hi_a)
    t = g_start.translation.copy()
    base_quat = g_start.rotation.copy()

    def full(a, t, quat):
        return _ForwardPass(scene, _state_to_grasp(scene, a, t, quat), ref, w,
                            np.inf)

    fwd = full(a, t, base_quat)
    rows = [{"step": 0, "total": fwd.total, **fwd.terms}]
    counts = {"forward_passes": 1, "gradient_passes": 0, "backtracks": 0}
    step = 0.01
    for it in range(1, steps + 1):
        grad = fwd.gradient()
        counts["gradient_passes"] += 1
        x0 = np.concatenate([a, t, np.zeros(3)])
        for _ in range(20):
            xc = x0 - step * grad
            a_c = np.clip(xc[:spec.doa], lo_a, hi_a)
            t_c = xc[spec.doa:spec.doa + 3]
            quat_c = tf.quat_normalize(tf.quat_mul(
                tf.rotvec_to_quat(xc[spec.doa + 3:]), base_quat))
            cand = full(a_c, t_c, quat_c)
            counts["forward_passes"] += 1
            if cand.total < fwd.total - 1e-12:
                break
            counts["backtracks"] += 1
            step *= 0.5
        else:
            break
        a, t, base_quat = a_c, t_c, quat_c
        fwd = cand
        rows.append({"step": it, "total": fwd.total, **fwd.terms})
        step = min(step * 1.8, 0.5)
        if stop_depth is not None and fwd.cloud_depth() < stop_depth:
            break
    return fwd.grasp, rows, counts


# ---------------------------------------------------------------------------
# entry points only tests call: one call per query, one term per loss


def mesh_sdf(mesh, queries, detail=False):
    """Signed distances from query points to the mesh surface (cm).

    Negative inside, positive outside. For non-watertight meshes a
    warning is raised and unsigned positive distances are returned; the
    ``detail`` form also exposes the watertight flag.
    """
    from graspsynth.geometry import MeshSDF
    evaluator = MeshSDF(mesh)
    values = evaluator.query(queries)
    if detail:
        return values, {"watertight": evaluator.watertight}
    return values


def _term(posed, bundle, weights, name):
    """One term of the loss of a posed hand against a bundle."""
    from graspsynth.grasp_opt import GraspScene, evaluate
    scene = GraspScene(posed.spec, bundle)
    return evaluate(scene, posed.grasp, posed.grasp, weights=weights)[1][name]


def loss_contact(posed, bundle, weights=None):
    """Contact-consistency loss for one posed hand against a bundle."""
    return _term(posed, bundle, weights, "contact")


def loss_anchor(posed, bundle):
    return _term(posed, bundle, None, "anchor")


def loss_interpenetration(posed, object_samples):
    from graspsynth.grasp_opt import LossWeights
    pts = getattr(object_samples, "points", np.asarray(object_samples))
    sdf = posed.sdf(pts)
    return LossWeights().lam6 * float(np.maximum(-sdf, 0.0).sum())


def loss_self_penetration(posed):
    from graspsynth.grasp_opt import LossWeights
    return LossWeights().lam7 * float(
        np.maximum(-posed.self_distances(), 0.0).sum())
