"""Functional grasp optimization.

Minimizes the five-term objective

    L = L_C + L_A + L_G + L_IP + L_SP

over the hand's actuated joints and wrist pose by projected gradient
descent with backtracking line search. Gradients chain through the
kinematics analytically: every term reduces to per-link point/vector
pairs, so one pass of cross-product moments per link yields the full
joint-space gradient. Point-set distances freeze their argmin pair per
step; live contact maps are recomputed every evaluation.

The anchor-alignment term L_A is a hinge: each anchor adds
``anchor_weight * dist``, its distance to the nearest assigned object
point, only while that distance exceeds ``d2``; within ``d2`` it adds no
loss and no gradient.

The signed distance from hand samples to the object uses the oriented
object point cloud (projection onto the nearest sample's normal), which
keeps the optimizer free of mesh SDF queries in the hot loop; reported
metrics use exact mesh SDFs elsewhere.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.spatial import cKDTree

from . import transforms as tf
from .contact import digitize
from .errors import InvalidInputError
from .hands.model import Grasp, actuated_from_q, forward_kinematics

SMOOTH_EPS = 1e-6


@dataclass(frozen=True)
class LossWeights:
    """Term weights and distance thresholds (cm).

    ``anchor_weight`` scales the whole anchor-alignment term; it exists
    for ablations (set 0 to disable) and is 1 in the normal objective.
    An anchor contributes ``anchor_weight * dist`` only when ``dist``, its
    distance to the nearest assigned object point, exceeds ``d2``; within
    ``d2`` it contributes no loss and no gradient.
    """

    lam1: float = 5.0   # knuckle attraction
    lam2: float = 2.0   # non-pair repulsion
    lam3: float = 5.0   # joint gesture
    lam4: float = 5.0   # wrist translation gesture
    lam5: float = 2.0   # wrist rotation gesture
    lam6: float = 1.0   # hand-object interpenetration
    lam7: float = 1.0   # self penetration
    d1: float = 2.5     # repulsion truncation
    d2: float = 1.0     # anchor activation threshold
    anchor_weight: float = 1.0
    map_norm: str = "sum"  # contact-map terms: "sum" (one-vector dot) or "mean"

    def __post_init__(self):
        for name in ("lam1", "lam2", "lam3", "lam4", "lam5", "lam6", "lam7",
                     "d1", "d2", "anchor_weight"):
            if getattr(self, name) < 0:
                raise InvalidInputError(f"{name} must be >= 0")
        if self.map_norm not in ("sum", "mean"):
            raise InvalidInputError("map_norm must be 'sum' or 'mean'")


RESTART_SIGMA_Q = 0.05   # rad
RESTART_SIGMA_T = 0.5    # cm
RESTART_SIGMA_R = 0.05   # rad


def _digitize_slope(d):
    """d(omega)/d(distance) for d > 0 (0 on the truncated side)."""
    s = 1.0 / (1.0 + np.exp(-2.0 * np.maximum(d, 0.0)))
    return np.where(d > 0.0, -4.0 * s * (1.0 - s), 0.0)


MAP_SMOOTH = 0.01  # smoothing of |d(omega)| so matched samples don't stall


def _smooth_abs(x):
    """sqrt(x^2 + eps^2) - eps: zero at zero, |x|-like elsewhere."""
    return np.sqrt(x ** 2 + MAP_SMOOTH ** 2) - MAP_SMOOTH


def _smooth_abs_grad(x):
    return x / np.sqrt(x ** 2 + MAP_SMOOTH ** 2)


class GraspScene:
    """Immutable per-(hand, bundle) precompute for the optimizer."""

    def __init__(self, spec, bundle, weights=None):
        self.spec = spec
        self.bundle = bundle
        self.weights = weights or LossWeights()
        self.object_points = np.asarray(bundle.object_points, float)
        self.object_normals = np.asarray(bundle.object_normals, float)
        self.object_tree = cKDTree(self.object_points)

        name_to_link = {spec.links[i].name: i for i in spec.segment_links()}
        self.segment_links = [i for i in spec.segment_links()
                              if spec.links[i].sample_count > 0]
        # attraction/repulsion targets, keyed by robot link index
        self.link_targets = {}
        self.link_target_trees = {}
        for name, idx in bundle.knuckle_partition.items():
            if name in name_to_link and len(idx):
                pts = self.object_points[idx]
                self.link_targets[name_to_link[name]] = pts
                self.link_target_trees[name_to_link[name]] = cKDTree(pts)
        # anchor targets by name
        self.anchor_targets = {}
        for k, anchor in enumerate(spec.anchors):
            entry = bundle.anchor_assignment.get(anchor.name)
            if entry is not None and len(entry[0]):
                self.anchor_targets[k] = self.object_points[entry[0]]

        self.omega_o_target = np.asarray(bundle.omega_object, float)
        # hand-map targets: per-sample when the robot layout matches the
        # demonstration layout, otherwise per-segment means by name
        self.omega_m_target = {k: np.asarray(v, float)
                               for k, v in bundle.omega_hand.items()}
        self.per_sample_hand_map = all(
            spec.links[i].name in self.omega_m_target
            and len(self.omega_m_target[spec.links[i].name])
            == spec.links[i].sample_count
            for i in self.segment_links)
        self.matched_segments = [i for i in self.segment_links
                                 if spec.links[i].name in self.omega_m_target]


class _GradientAccumulator:
    """Collects d(loss)/d(world point) pairs per link and contracts them
    against the kinematic Jacobians in closed form."""

    def __init__(self, spec, posed):
        self.spec = spec
        self.posed = posed
        self.moments = {}   # link -> [sum V, sum P x V]

    def add(self, link, points, vectors):
        points = np.atleast_2d(points)
        vectors = np.atleast_2d(vectors)
        s0 = vectors.sum(axis=0)
        s1 = np.cross(points, vectors).sum(axis=0)
        if link in self.moments:
            self.moments[link][0] += s0
            self.moments[link][1] += s1
        else:
            self.moments[link] = [s0, s1]

    def gradient(self):
        spec, posed = self.spec, self.posed
        grad_q = np.zeros(spec.dof)
        grad_t = np.zeros(3)
        grad_r = np.zeros(3)
        wrist_t = posed.grasp.translation
        for link, (s0, s1) in self.moments.items():
            i = link
            while i >= 0:
                l = spec.links[i]
                if l.joint_type == "revolute":
                    if l.parent < 0:
                        Rp, tp = posed.grasp.wrist_matrix()
                    else:
                        Rp = posed.rotations[l.parent]
                        tp = posed.translations[l.parent]
                    axis = Rp @ (l.origin_rotation @ l.axis)
                    origin = Rp @ l.origin_translation + tp
                    grad_q[l.dof_index] += axis @ (s1 - np.cross(origin, s0))
                i = spec.links[i].parent
            grad_t += s0
            grad_r += s1 - np.cross(wrist_t, s0)
        return grad_q, grad_t, grad_r


def _oriented_cloud_distance(scene, points):
    """Signed distance to the object via the oriented sample cloud."""
    dist, idx = scene.object_tree.query(points)
    normals = scene.object_normals[idx]
    signed = np.einsum("ij,ij->i", points - scene.object_points[idx], normals)
    return signed, normals, idx


def evaluate(scene, grasp, g_init, weights=None, accumulate=False,
             gesture_reference=None):
    """Total loss, per-term breakdown, and optionally the gradient.

    ``gesture_reference`` overrides the grasp the gesture term compares
    against (used by physical refinement); default is ``g_init``.
    """
    w = weights or scene.weights
    spec = scene.spec
    posed = forward_kinematics(spec, grasp)
    acc = _GradientAccumulator(spec, posed) if accumulate else None
    ref = gesture_reference if gesture_reference is not None else g_init

    # --- object-side SDF against the hand (contact map + interpenetration)
    obj_pts = scene.object_points
    sdf_o, grad_o, link_o = posed.sdf(obj_pts, with_gradient=True)
    omega_o_live = digitize(sdf_o)
    map_div = float(len(obj_pts)) if w.map_norm == "mean" else 1.0
    diff_o = omega_o_live - scene.omega_o_target
    contact_map_term = float(_smooth_abs(diff_o).sum()) / map_div
    interpen = float(np.maximum(-sdf_o, 0.0).sum())
    loss_ip = w.lam6 * interpen
    if accumulate:
        w_map = _smooth_abs_grad(diff_o) * _digitize_slope(sdf_o) / map_div
        w_ip = np.where(sdf_o < 0.0, -w.lam6, 0.0)
        w_d = w_map + w_ip
        live = w_d != 0.0
        for link in np.unique(link_o[live]):
            rows = live & (link_o == link)
            acc.add(int(link), obj_pts[rows], (-w_d[rows, None]) * grad_o[rows])

    # --- hand-side contact map against the object cloud
    hand_map_term = 0.0
    seg_slices = {}
    all_pts = []
    offset = 0
    for i in scene.segment_links:
        pts = posed.segment_points(i)
        seg_slices[i] = slice(offset, offset + len(pts))
        all_pts.append(pts)
        offset += len(pts)
    H = np.vstack(all_pts) if all_pts else np.zeros((0, 3))
    d_m, n_m, _ = _oriented_cloud_distance(scene, H)
    omega_m_live = digitize(d_m)
    if scene.per_sample_hand_map:
        n_matched = sum(spec.links[k].sample_count
                        for k in scene.matched_segments)
        hand_div = float(n_matched) if w.map_norm == "mean" else 1.0
        diffs = []
        for i in scene.matched_segments:
            sl = seg_slices[i]
            target = scene.omega_m_target[spec.links[i].name]
            dif = omega_m_live[sl] - target
            diffs.append(_smooth_abs(dif))
            if accumulate and len(dif):
                w_m = _smooth_abs_grad(dif) * _digitize_slope(d_m[sl]) / hand_div
                acc.add(i, H[sl], w_m[:, None] * n_m[sl])
        if diffs:
            hand_map_term = float(np.concatenate(diffs).sum()) / hand_div
    else:
        # segment-mean comparison for mismatched layouts, scaled to the
        # same magnitude the per-sample sum would have
        per_seg = []
        n_segs = max(len(scene.matched_segments), 1)
        for i in scene.matched_segments:
            sl = seg_slices[i]
            n_seg = sl.stop - sl.start
            scale = float(n_seg) if w.map_norm == "sum" else 1.0 / n_segs
            target_mean = float(np.mean(scene.omega_m_target[spec.links[i].name]))
            live_mean = float(np.mean(omega_m_live[sl]))
            dif = live_mean - target_mean
            per_seg.append(_smooth_abs(np.array([dif]))[0] * scale)
            if accumulate:
                w_m = (_smooth_abs_grad(np.array([dif]))[0]
                       * _digitize_slope(d_m[sl]) * (scale / n_seg))
                acc.add(i, H[sl], w_m[:, None] * n_m[sl])
        hand_map_term = float(np.sum(per_seg)) if per_seg else 0.0

    # --- knuckle attraction / non-pair repulsion
    attract = 0.0
    repel = 0.0
    for i in scene.segment_links:
        pts_i = H[seg_slices[i]]
        for j, tree in scene.link_target_trees.items():
            d, nearest = tree.query(pts_i)
            ia = int(d.argmin())
            dist = float(d[ia])
            ib = int(nearest[ia])
            target = scene.link_targets[j]
            if i == j:
                attract += dist
                if accumulate and dist > 1e-12:
                    unit = (pts_i[ia] - target[ib]) / dist
                    acc.add(i, pts_i[ia], w.lam1 * unit)
            else:
                repel += min(dist, w.d1)
                if accumulate and 1e-12 < dist < w.d1:
                    unit = (pts_i[ia] - target[ib]) / dist
                    acc.add(i, pts_i[ia], -w.lam2 * unit)
    loss_c = contact_map_term + hand_map_term + w.lam1 * attract - w.lam2 * repel

    # --- anchor alignment
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
                acc.add(spec.anchors[k].link, a_pt, w.anchor_weight * unit)

    # --- gesture regularization
    dq = grasp.q - ref.q
    dt = grasp.translation - ref.translation
    rot_dist = tf.quat_rotation_distance(grasp.rotation, ref.rotation)
    loss_g = (w.lam3 * float(np.abs(dq).sum())
              + w.lam4 * float(np.abs(dt).sum())
              + w.lam5 * rot_dist)

    # --- self penetration: every hand sample inside a non-adjacent link
    d_self = posed.self_distances()
    loss_sp = w.lam7 * float(np.maximum(-d_self, 0.0).sum())
    if accumulate and loss_sp > 0.0:
        segs = spec.segment_links()
        sources = spec.sample_links()
        rows, cols = np.nonzero(d_self < 0.0)
        for r in np.unique(rows):
            j, n = segs[r], cols[rows == r]
            _, g = posed.link_sdf(j, H[n])
            acc.add(j, H[n], w.lam7 * g)
            for i in np.unique(sources[n]):
                own = sources[n] == i
                acc.add(int(i), H[n][own], -w.lam7 * g[own])

    terms = {
        "contact": loss_c,
        "anchor": loss_a,
        "gesture": loss_g,
        "interpenetration": loss_ip,
        "self_penetration": loss_sp,
    }
    total = float(sum(terms.values()))
    if not accumulate:
        return total, terms, None

    grad_q, grad_t, grad_r = acc.gradient()
    # gesture gradient (smoothed L1; rotation via the quaternion chain)
    grad_q += w.lam3 * dq / np.sqrt(dq ** 2 + SMOOTH_EPS ** 2)
    grad_t += w.lam4 * dt / np.sqrt(dt ** 2 + SMOOTH_EPS ** 2)
    dot = float(np.dot(ref.rotation, grasp.rotation))
    if abs(dot) < 1.0 - 1e-9:
        dabs = -2.0 / np.sqrt(1.0 - dot ** 2) * np.sign(dot)
        for k in range(3):
            u = np.zeros(4)
            u[1 + k] = 0.5
            dq_dr = tf.quat_mul(u, grasp.rotation)
            grad_r[k] += w.lam5 * dabs * float(np.dot(ref.rotation, dq_dr))
    grad_a = scene.spec.coupling.T @ grad_q
    return total, terms, np.concatenate([grad_a, grad_t, grad_r])


# ---------------------------------------------------------------------------
# spec-level loss entry points (used directly by tests and reports)


def _adhoc_scene(posed_or_spec, bundle, weights=None):
    spec = getattr(posed_or_spec, "spec", posed_or_spec)
    return GraspScene(spec, bundle, weights)


def loss_contact(posed, bundle, object_samples=None, weights=None):
    """Contact-consistency loss for one posed hand against a bundle."""
    scene = _adhoc_scene(posed, bundle, weights)
    if object_samples is not None:
        pts = getattr(object_samples, "points", object_samples)
        if len(pts) != len(scene.object_points):
            raise InvalidInputError("object samples do not match the bundle")
    total, terms, _ = evaluate(scene, posed.grasp, posed.grasp,
                               weights=weights)
    return terms["contact"]


def loss_anchor(posed, bundle, weights=None):
    scene = _adhoc_scene(posed, bundle, weights)
    total, terms, _ = evaluate(scene, posed.grasp, posed.grasp,
                               weights=weights)
    return terms["anchor"]


def loss_gesture(grasp, g_init, weights=None):
    w = weights or LossWeights()
    dq = grasp.q - g_init.q
    dt = grasp.translation - g_init.translation
    return (w.lam3 * float(np.abs(dq).sum())
            + w.lam4 * float(np.abs(dt).sum())
            + w.lam5 * tf.quat_rotation_distance(grasp.rotation,
                                                 g_init.rotation))


def loss_interpenetration(posed, object_samples, weights=None):
    w = weights or LossWeights()
    pts = getattr(object_samples, "points", np.asarray(object_samples))
    sdf = posed.sdf(pts)
    return w.lam6 * float(np.maximum(-sdf, 0.0).sum())


def loss_self_penetration(posed, weights=None):
    w = weights or LossWeights()
    return w.lam7 * float(np.maximum(-posed.self_distances(), 0.0).sum())


# ---------------------------------------------------------------------------
# the optimizer


@dataclass
class OptimizationReport:
    grasp: Grasp
    steps: list                      # chosen restart: per-step term table
    restarts: list                   # per-restart summaries
    restart_chosen: int
    initial_loss: float
    final_loss: float
    wall_clock: float = 0.0          # informational; not serialized
    flags: list = field(default_factory=list)


def _state_to_grasp(scene, a, t, base_quat):
    q = scene.spec.coupling @ a
    q = np.clip(q, scene.spec.lower, scene.spec.upper)
    return Grasp(q, base_quat.copy(), t.copy())


def _descend(scene, g_start, g_init, steps, weights, gesture_reference=None,
             step_init=0.01, stop_penetration=None):
    """Monotone projected descent from one start; returns (grasp, rows)."""
    spec = scene.spec
    lo_a = spec.actuated_limits[:, 0]
    hi_a = spec.actuated_limits[:, 1]
    a = np.clip(actuated_from_q(spec, g_start.q), lo_a, hi_a)
    t = g_start.translation.copy()
    base_quat = g_start.rotation.copy()

    def unpack(x, quat):
        na = spec.doa
        return (np.clip(x[:na], lo_a, hi_a), x[na:na + 3],
                tf.quat_normalize(tf.quat_mul(tf.rotvec_to_quat(x[na + 3:]),
                                              quat)))

    grasp = _state_to_grasp(scene, a, t, base_quat)
    value, terms, grad = evaluate(scene, grasp, g_init, weights=weights,
                                  accumulate=True,
                                  gesture_reference=gesture_reference)
    rows = [{"step": 0, "total": value, **terms}]
    if not np.isfinite(value):
        raise InvalidInputError("non-finite loss at optimization start")
    step = step_init
    for it in range(1, steps + 1):
        x0 = np.concatenate([a, t, np.zeros(3)])
        accepted = False
        for _ in range(20):
            xc = x0 - step * grad
            a_c, t_c, quat_c = unpack(xc, base_quat)
            cand = _state_to_grasp(scene, a_c, t_c, quat_c)
            cand_value, cand_terms, _ = evaluate(
                scene, cand, g_init, weights=weights,
                gesture_reference=gesture_reference)
            if cand_value < value - 1e-12:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        a, t, base_quat = a_c, t_c, quat_c
        grasp = cand
        value, terms, grad = evaluate(scene, grasp, g_init, weights=weights,
                                      accumulate=True,
                                      gesture_reference=gesture_reference)
        rows.append({"step": it, "total": value, **terms})
        step = min(step * 1.8, 0.5)
        if stop_penetration is not None and stop_penetration(grasp):
            break
    return grasp, rows


def optimize(spec, g_init, bundle, weights=None, restarts=5, steps=200,
             seed=0, scene=None):
    """Run the five-loss optimization with random restarts.

    Restart 0 starts from ``g_init`` exactly; restart r > 0 perturbs it
    with seeded noise (sigma_q 0.05 rad on actuated values, 0.5 cm on
    translation, 0.05 rad on rotation). The restart with the lowest
    final loss wins; ties go to the lowest index. Deterministic for a
    fixed seed.
    """
    weights = weights or LossWeights()
    scene = scene or GraspScene(spec, bundle, weights)
    t0 = time.perf_counter()
    best = None
    summaries = []
    for r in range(restarts):
        start = g_init.copy()
        if r > 0:
            rng = np.random.default_rng([seed, r])
            a = actuated_from_q(spec, start.q)
            a = a + rng.normal(0.0, RESTART_SIGMA_Q, size=spec.doa)
            a = np.clip(a, spec.actuated_limits[:, 0],
                        spec.actuated_limits[:, 1])
            q = np.clip(spec.coupling @ a, spec.lower, spec.upper)
            trans = start.translation + rng.normal(0.0, RESTART_SIGMA_T, 3)
            rot = tf.quat_normalize(tf.quat_mul(
                tf.rotvec_to_quat(rng.normal(0.0, RESTART_SIGMA_R, 3)),
                start.rotation))
            start = Grasp(q, rot, trans)
        grasp, rows = _descend(scene, start, g_init, steps, weights)
        final = rows[-1]["total"]
        summaries.append({"restart": r, "final_loss": final,
                          "steps_run": len(rows) - 1})
        if best is None or final < best[0]:
            best = (final, r, grasp, rows)
    final_loss, chosen, grasp, rows = best
    return OptimizationReport(grasp, rows, summaries, chosen,
                              initial_loss=rows[0]["total"],
                              final_loss=final_loss,
                              wall_clock=time.perf_counter() - t0)


REFINE_PENETRATION_GOAL = 0.1   # cm
REFINE_PENETRATION_FAIL = 0.5   # cm


def penetration_depth_cloud(scene, grasp):
    """Max hand-into-object depth against the oriented object cloud."""
    posed = forward_kinematics(scene.spec, grasp)
    pts, _ = posed.all_sample_points()
    signed, _, _ = _oriented_cloud_distance(scene, pts)
    return float(np.maximum(-signed, 0.0).max(initial=0.0))


def refine_physical(spec, grasp, bundle, object_mesh=None, weights=None,
                    max_steps=100, scene=None):
    """Push a grasp out of penetration while staying close to it.

    Optimizes gesture-to-input + contact + anchor + penetration terms
    with the penetration weights scaled 10x, until the maximum
    penetration depth drops below 0.1 cm or the step budget runs out.
    Grasps that stay above 0.5 cm depth are returned flagged infeasible.
    """
    base = weights or LossWeights()
    weights = replace(base, lam6=base.lam6 * 10.0, lam7=base.lam7 * 10.0)
    scene = scene or GraspScene(spec, bundle, weights)

    def depth_of(g):
        if object_mesh is not None:
            from .geometry import MeshSDF
            posed = forward_kinematics(spec, g)
            pts, _ = posed.all_sample_points()
            sdf = MeshSDF(object_mesh).query(pts)
            return float(np.maximum(-sdf, 0.0).max(initial=0.0))
        return penetration_depth_cloud(scene, g)

    if penetration_depth_cloud(scene, grasp) < REFINE_PENETRATION_GOAL:
        out = grasp.copy()
        return out

    stop = (lambda g: penetration_depth_cloud(scene, g)
            < REFINE_PENETRATION_GOAL)
    refined, rows = _descend(scene, grasp, grasp, max_steps, weights,
                             gesture_reference=grasp, stop_penetration=stop)
    final_depth = depth_of(refined)
    out = refined.copy()
    if final_depth >= REFINE_PENETRATION_FAIL:
        out.flags = sorted(set(out.flags) | {"infeasible"})
    return out
