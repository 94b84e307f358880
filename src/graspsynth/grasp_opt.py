"""Functional grasp optimization.

Minimizes the five-term objective

    L = L_C + L_A + L_G + L_IP + L_SP

over the hand's actuated joints and wrist pose by projected gradient
descent with backtracking line search. Gradients chain through the
kinematics analytically: every term reduces to per-link point/vector
pairs, so one pass of cross-product moments per link yields the full
joint-space gradient. Point-set distances freeze their argmin pair per
step; live contact maps are recomputed every evaluation.

An evaluation is split in two. The forward pass (``_ForwardPass``) poses
the hand and computes only what the loss needs: every distance and
argmin pair, and for the hand SDF each object point's winning primitive
and local point. The gradient pass (``_ForwardPass.gradient``)
evaluates the gradient formulas at those kept winners and contracts the
kept state without posing or searching again. A backtracking line
search needs only loss values at its trial points, so the descent gives
each candidate one forward pass and runs the gradient pass only over an
accepted candidate's state, when the next step needs it.

A candidate is only compared with a ceiling (the accepted loss less
1e-12), so its forward pass runs in stages, cheapest first: gesture and
anchors, the object-side hand SDF, the attraction/repulsion pairs, the
oriented-cloud hand map and the self distances. After each stage the
known terms, a floor for the others (0, or ``-lam2 * d1`` per repulsion
pair) and a small slack bound the total from below; a bound at or above
the ceiling refutes the candidate without the later stages, the way
bound-based pruning skips distances in Elkan's k-means. A pass that
goes on to the end sums its terms exactly as a full pass does, so every
accepted state is the same bits.

The anchor-alignment term L_A is a hinge: each anchor adds
``anchor_weight * dist``, its distance to the nearest assigned object
point, only while that distance exceeds ``d2``; within ``d2`` it adds no
loss and no gradient.

The signed distance from hand samples to the object uses the oriented
object point cloud (projection onto the nearest sample's normal), which
keeps the optimizer free of mesh SDF queries in the hot loop; reported
metrics use exact mesh SDFs elsewhere.
"""

import functools
import operator
import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.spatial import cKDTree

from . import transforms as tf
from .contact import digitize
from .errors import InvalidInputError
from .hands.model import (Grasp, _ancestor_dofs, actuated_from_q,
                          apply_coupling, forward_kinematics)

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
            # written so that a NaN fails it too
            if not 0 <= getattr(self, name) < np.inf:
                raise InvalidInputError(f"{name} must be finite and >= 0")
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
    """Immutable per-(hand, bundle) precompute: only what the forward and
    gradient passes read (loss weights come with each evaluation)."""

    def __init__(self, spec, bundle):
        self.spec = spec
        self.object_points = np.asarray(bundle.object_points, float)
        self.object_normals = np.asarray(bundle.object_normals, float)
        self.object_tree = cKDTree(self.object_points)

        name_to_link = {spec.links[i].name: i for i in spec.segment_links()}
        # attraction/repulsion targets: per target its robot link, its rows
        # of the object cloud and a tree over them
        self.target_trees = []
        for name, idx in bundle.knuckle_partition.items():
            if name in name_to_link and len(idx):
                rows = np.asarray(idx, dtype=np.intp)
                self.target_trees.append((name_to_link[name], rows,
                                          cKDTree(self.object_points[rows])))
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
            == sl.stop - sl.start
            for i, sl in spec.sample_slices().items())
        self.matched_segments = [i for i in spec.segment_links()
                                 if spec.links[i].name in self.omega_m_target]
        if self.per_sample_hand_map:
            # every segment is matched: the targets of all stacked samples
            self.omega_m_rows = np.concatenate(
                [self.omega_m_target[spec.links[i].name]
                 for i in spec.sample_slices()])
        # where each segment's hand samples start, and each sample's segment
        counts = [sl.stop - sl.start for sl in spec.sample_slices().values()]
        self.segment_starts = np.cumsum([0] + counts[:-1])
        self.sample_segment = np.repeat(np.arange(len(counts)), counts)
        # each segment's link, and the (segment, target) pairs where the
        # target is the segment's own
        self.segment_links = np.array(spec.segment_links(), dtype=np.intp)
        self.target_own = np.equal.outer(
            self.segment_links,
            np.array([j for j, _, _ in self.target_trees], dtype=np.intp))


class _GradientAccumulator:
    """Collects d(loss)/d(world point) pairs per link and contracts them
    against the kinematic Jacobians in closed form.

    Rows come in groups, each for one link. A group's rows are summed in
    row order, and the group sums are added to their link's moments
    (sum V, sum P x V) in the order the groups came: the sums of one
    ``add`` per group. ``gradient`` takes one cross product over all
    rows, the group and link sums by ``np.bincount`` (which adds in that
    order from 0.0, as ``.sum(axis=0)`` does), one cross product over
    all (link, DoF) pairs, and each pair's ``axis @ v`` on its own.
    """

    def __init__(self, posed):
        self.posed = posed
        self.links = []     # per batch: the link of each of its groups
        self.groups = []    # per batch: the group of each row, numbered
        self.points = []    # across batches
        self.vectors = []
        self.n_groups = 0

    def add(self, link, points, vectors):
        """One group of rows for ``link``."""
        self.add_groups([link], np.zeros(len(points), dtype=np.intp),
                        points, vectors)

    def add_groups(self, links, groups, points, vectors):
        """Rows whose group ``groups[r]`` (0, 1, ... in row order) goes
        to link ``links[groups[r]]``."""
        self.groups.append(groups + self.n_groups)
        self.links.append(np.asarray(links, dtype=np.intp))
        self.n_groups += len(links)
        self.points.append(points)
        self.vectors.append(vectors)

    def gradient(self):
        posed = self.posed
        spec = posed.spec
        grad_q = np.zeros(spec.dof)
        if not self.n_groups:
            return grad_q, np.zeros(3), np.zeros(3)
        links = np.concatenate(self.links)
        groups = np.concatenate(self.groups)
        vectors = np.concatenate(self.vectors)
        moments = tf.cross(np.concatenate(self.points), vectors)
        s0 = _row_sums(groups, vectors, len(links))
        s1 = _row_sums(groups, moments, len(links))
        # links in the order their first group came
        slots = {}
        slot = np.array([slots.setdefault(link, len(slots))
                         for link in links.tolist()], dtype=np.intp)
        s0 = _row_sums(slot, s0, len(slots))
        s1 = _row_sums(slot, s1, len(slots))
        dofs = [_ancestor_dofs(spec, link) for link in slots]
        pair = np.repeat(np.arange(len(dofs)), [len(d) for d in dofs])
        pair_dof = np.array([d for ds in dofs for d in ds], dtype=np.intp)
        axes, origins = posed.joint_axes
        v = s1[pair] - tf.cross(origins[pair_dof], s0[pair])
        np.add.at(grad_q, pair_dof, [a @ x for a, x in zip(axes[pair_dof], v)])
        grad_t = s0.sum(axis=0)
        grad_r = (s1 - tf.cross(posed.grasp.translation, s0)).sum(axis=0)
        return grad_q, grad_t, grad_r


def _row_sums(groups, rows, n):
    """(n, 3): the sum of each group's rows of ``rows`` (N, 3), added in
    row order from 0.0."""
    cells = (3 * groups)[:, None] + np.arange(3)
    return np.bincount(cells.ravel(), rows.ravel(),
                       minlength=3 * n).reshape(n, 3)


def _sequential_sum(values):
    """Sum of an array's values, added left to right from 0.0 (the order
    of a ``+=`` loop, on any Python version)."""
    return functools.reduce(operator.add, values.tolist(), 0.0)


def _oriented_cloud_distance(scene, points):
    """Signed distance to the object via the oriented sample cloud."""
    dist, idx = scene.object_tree.query(points)
    normals = scene.object_normals[idx]
    signed = np.einsum("ij,ij->i", points - scene.object_points[idx], normals)
    return signed, normals, idx


def _max_depth(signed):
    """Deepest penetration (cm) among signed distances, 0 if none."""
    return float(np.maximum(-signed, 0.0).max(initial=0.0))


class _ForwardPass:
    """The loss of one grasp, and the state its gradient pass reads.

    Construction poses the hand and takes every distance the loss needs
    and nothing more, in five stages, cheapest first:

    1. forward kinematics, the gesture term and the anchor pairs;
    2. the hand SDF's distance pass at the object points (contact map
       and L_IP), keeping each point's winning primitive and local point;
    3. the attraction/repulsion argmin pairs (``_pairs``);
    4. the oriented-cloud distance of the hand samples ``H`` (hand map);
    5. the self distances (L_SP).

    After each of the first four stages, the terms known so far plus a
    floor for the rest bound the total from below: 0 for the contact
    map, hand map, attraction, L_IP and L_SP, and
    ``-lam2 * d1 * count(~target_own)`` for the repulsion (each
    non-own pair adds at most ``d1``). The bound is lowered by a slack of
    ``1e-9 * (1 + sum |known| + |floor|)``, far above the rounding of the
    final sum (which is monotone in each term) and of ``_smooth_abs``'s
    one ulp below 0. When the bound is at or above ``ceiling``, the pass
    stops: it is ``refuted``, its ``total`` is inf and it has no
    ``terms``; its full total would be at or above ``ceiling`` too. A
    pass that is not refuted computes every term by the same expressions
    and sums ``loss_c`` and ``total`` in the same order whatever the
    stage order, so its terms and total are the same bits as a pass with
    ``ceiling`` inf, which is never refuted.

    ``gradient()`` evaluates the hand SDF's gradient formulas at the kept
    winners and contracts that state into the (actuated, translation,
    rotation) gradient without posing the hand or searching again; it
    reads an unrefuted pass only.
    """

    def __init__(self, scene, grasp, ref, w, ceiling):
        spec = scene.spec
        self.scene, self.grasp, self.ref, self.w = scene, grasp, ref, w
        self.posed = posed = forward_kinematics(spec, grasp)
        self.H = posed.sample_points
        seg_slices = spec.sample_slices()
        self.refuted = False

        # --- 1: gesture regularization and anchor alignment
        self.dq = grasp.q - ref.q
        self.dt = grasp.translation - ref.translation
        loss_g = loss_gesture(grasp, ref, w)
        loss_a = 0.0
        anchor_pulls = []
        for k, target in scene.anchor_targets.items():
            a_pt = posed.anchor_points[k]
            d = np.linalg.norm(target - a_pt, axis=1)
            ib = int(d.argmin())
            dist = float(d[ib])
            if dist > w.d2:
                loss_a += w.anchor_weight * dist
                if dist > 1e-12 and w.anchor_weight > 0:
                    anchor_pulls.append((spec.anchors[k].link, a_pt,
                                         target[ib], dist, w.anchor_weight))
        repel_floor = -w.lam2 * w.d1 * np.count_nonzero(~scene.target_own)
        known = [loss_g, loss_a]
        if self._refutes(ceiling, known, repel_floor):
            return

        # --- 2: object-side SDF against the hand (contact map, L_IP)
        obj_pts = scene.object_points
        self.sdf_o, self.won_o, self.won_at_o = spec.primitive_stack().nearest(
            posed.rotations, posed.translations, obj_pts)
        self.map_div = float(len(obj_pts)) if w.map_norm == "mean" else 1.0
        self.diff_o = digitize(self.sdf_o) - scene.omega_o_target
        contact_map_term = float(_smooth_abs(self.diff_o).sum()) / self.map_div
        loss_ip = w.lam6 * float(np.maximum(-self.sdf_o, 0.0).sum())
        known += [contact_map_term, loss_ip]
        if self._refutes(ceiling, known, repel_floor):
            return

        # --- 3: knuckle attraction / non-pair repulsion; the anchor pulls
        # follow the pairs' pulls
        attract, repel, pulls = self._pairs(seg_slices)
        self.pulls = pulls + anchor_pulls
        known += [w.lam1 * attract, -w.lam2 * repel]
        if self._refutes(ceiling, known, 0.0):
            return

        # --- 4: hand-side contact map against the object cloud
        self.d_m, self.n_m, _ = _oriented_cloud_distance(scene, self.H)
        omega_m_live = digitize(self.d_m)
        if scene.per_sample_hand_map:
            self.hand_dif = omega_m_live - scene.omega_m_rows
            self.hand_div = float(len(self.H)) if w.map_norm == "mean" else 1.0
            hand_map_term = float(_smooth_abs(self.hand_dif).sum()) / self.hand_div
        else:
            # segment-mean comparison for mismatched layouts, scaled to the
            # same magnitude the per-sample sum would have; per matched
            # segment: (link, live - target mean, scale)
            self.hand_difs = []
            per_seg = []
            n_segs = max(len(scene.matched_segments), 1)
            for i in scene.matched_segments:
                sl = seg_slices[i]
                n_seg = sl.stop - sl.start
                scale = float(n_seg) if w.map_norm == "sum" else 1.0 / n_segs
                target_mean = float(np.mean(
                    scene.omega_m_target[spec.links[i].name]))
                dif = float(np.mean(omega_m_live[sl])) - target_mean
                per_seg.append(_smooth_abs(np.array([dif]))[0] * scale)
                self.hand_difs.append((i, dif, scale))
            hand_map_term = float(np.sum(per_seg)) if per_seg else 0.0
        known.append(hand_map_term)
        if self._refutes(ceiling, known, 0.0):
            return

        # --- 5: self penetration: every hand sample inside a non-adjacent link
        self.d_self = posed.self_distances()
        loss_sp = w.lam7 * float(np.maximum(-self.d_self, 0.0).sum())

        loss_c = (contact_map_term + hand_map_term + w.lam1 * attract
                  - w.lam2 * repel)
        self.terms = {
            "contact": loss_c,
            "anchor": loss_a,
            "gesture": loss_g,
            "interpenetration": loss_ip,
            "self_penetration": loss_sp,
        }
        self.total = float(sum(self.terms.values()))

    def _refutes(self, ceiling, known, floor):
        """Whether the ``known`` terms plus ``floor`` for the rest, less
        the slack, reach ``ceiling``; if so the pass is refuted."""
        slack = 1e-9 * (1.0 + sum(map(abs, known)) + abs(floor))
        if sum(known) + floor - slack >= ceiling:
            self.refuted, self.total, self.terms = True, np.inf, None
        return self.refuted

    def _pairs(self, seg_slices):
        """(attract, repel, pulls): for every hand segment and target
        tree, the segment's sample nearest the tree and its distance,
        summed as attraction on the segment's own tree and as truncated
        repulsion on the others; pulls hold (link, point, target point,
        distance, weight) of the pairs with a gradient.

        A repulsion pair adds ``d1`` and no pull from a distance at or
        beyond ``d1``, so per tree one exact search covers its own
        segment's samples and the samples within ``d1`` of the tree's
        bounding box along every axis; the rest read inf. One reduceat
        pass then gives every segment's minimum and first argmin per
        tree, and the sums run in (segment, tree) order.
        """
        scene, w, H = self.scene, self.w, self.H
        targets = scene.target_trees
        dists = np.full((len(targets), len(H)), np.inf)
        nearest = np.empty(dists.shape, dtype=np.intp)  # object rows, < inf
        # the factor covers the rounding of a gap and of a distance
        reach = w.d1 * (1.0 + 1e-9)
        for t, (j, rows, tree) in enumerate(targets):
            gap = np.maximum(tree.mins - H, H - tree.maxes) <= reach
            near = gap[:, 0] & gap[:, 1] & gap[:, 2]
            near[seg_slices[j]] = True
            near = np.flatnonzero(near)
            dists[t, near], found = tree.query(H[near])
            nearest[t, near] = rows[found]
        mins = np.minimum.reduceat(dists, scene.segment_starts, axis=1)
        firsts = np.minimum.reduceat(
            np.where(dists == mins[:, scene.sample_segment],
                     np.arange(len(H)), len(H)),
            scene.segment_starts, axis=1)
        # (segment, tree) arrays, read in that order
        mins, firsts, own = mins.T, firsts.T, scene.target_own
        attract = _sequential_sum(mins[own])
        repel = _sequential_sum(np.minimum(mins[~own], w.d1))
        s, t = np.nonzero((mins > 1e-12) & (own | (mins < w.d1)))
        ia = firsts[s, t]
        pulls = list(zip(scene.segment_links[s].tolist(), H[ia],
                         scene.object_points[nearest[t, ia]],
                         mins[s, t].tolist(),
                         np.where(own[s, t], w.lam1, -w.lam2).tolist()))
        return attract, repel, pulls

    def cloud_depth(self):
        """Deepest hand sample under the oriented object cloud (cm)."""
        return _max_depth(self.d_m)

    def gradient(self):
        """d(total)/d(actuated, wrist translation, wrist rotation vector)."""
        scene, w, posed, H = self.scene, self.w, self.posed, self.H
        spec = scene.spec
        acc = _GradientAccumulator(posed)

        # object side: one group per hand link, links ascending
        w_map = (_smooth_abs_grad(self.diff_o) * _digitize_slope(self.sdf_o)
                 / self.map_div)
        w_ip = np.where(self.sdf_o < 0.0, -w.lam6, 0.0)
        w_d = w_map + w_ip
        stack = spec.primitive_stack()
        live = np.flatnonzero(w_d != 0.0)
        rows = live[np.argsort(stack.owner[self.won_o[live]], kind="stable")]
        won = self.won_o[rows]
        links, groups = np.unique(stack.owner[won], return_inverse=True)
        grad_o = stack.gradient(posed.rotations, won, self.won_at_o[rows])
        acc.add_groups(links, groups, scene.object_points[rows],
                       (-w_d[rows, None]) * grad_o)

        seg_slices = spec.sample_slices()
        if scene.per_sample_hand_map:
            # one group per segment
            w_m = (_smooth_abs_grad(self.hand_dif) * _digitize_slope(self.d_m)
                   / self.hand_div)
            acc.add_groups(scene.segment_links, scene.sample_segment, H,
                           w_m[:, None] * self.n_m)
        else:
            for i, dif, scale in self.hand_difs:
                sl = seg_slices[i]
                n_seg = sl.stop - sl.start
                w_m = (_smooth_abs_grad(np.array([dif]))[0]
                       * _digitize_slope(self.d_m[sl]) * (scale / n_seg))
                acc.add(i, H[sl], w_m[:, None] * self.n_m[sl])

        if self.pulls:
            # one group per pull
            links, points, targets, dists, weights = zip(*self.pulls)
            points = np.array(points)
            acc.add_groups(links, np.arange(len(links)), points,
                           np.array(weights)[:, None]
                           * ((points - np.array(targets))
                              / np.array(dists)[:, None]))

        if self.terms["self_penetration"] > 0.0:
            # one kernel pass over all pairs, each on its link's rows only
            sources = spec.sample_links()
            rows, cols = np.nonzero(self.d_self < 0.0)
            _, won, won_at = stack.nearest(
                posed.rotations, posed.translations, H[cols],
                owners=scene.segment_links[rows])
            g_all = stack.gradient(posed.rotations, won, won_at)
            for r in np.unique(rows):
                n, g = cols[rows == r], g_all[rows == r]
                acc.add(int(scene.segment_links[r]), H[n], w.lam7 * g)
                for i in np.unique(sources[n]):
                    own = sources[n] == i
                    acc.add(int(i), H[n][own], -w.lam7 * g[own])

        grad_q, grad_t, grad_r = acc.gradient()
        # gesture gradient (smoothed L1; rotation via the quaternion chain)
        dq, dt, grasp, ref = self.dq, self.dt, self.grasp, self.ref
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
        grad_a = spec.coupling.T @ grad_q
        return np.concatenate([grad_a, grad_t, grad_r])


def evaluate(scene, grasp, g_init, weights=None, accumulate=False,
             gesture_reference=None):
    """Total loss, per-term breakdown, and optionally the gradient.

    One forward pass (``_ForwardPass``) gives the loss and its terms;
    with ``accumulate`` its gradient pass runs over the same state.
    ``gesture_reference`` overrides the grasp the gesture term compares
    against (used by physical refinement); default is ``g_init``.
    """
    ref = gesture_reference if gesture_reference is not None else g_init
    fwd = _ForwardPass(scene, grasp, ref, weights or LossWeights(), np.inf)
    return fwd.total, fwd.terms, fwd.gradient() if accumulate else None


# ---------------------------------------------------------------------------
# the gesture term on its own (the forward pass calls it)


def loss_gesture(grasp, g_init, weights=None):
    w = weights or LossWeights()
    dq = grasp.q - g_init.q
    dt = grasp.translation - g_init.translation
    return (w.lam3 * float(np.abs(dq).sum())
            + w.lam4 * float(np.abs(dt).sum())
            + w.lam5 * tf.quat_rotation_distance(grasp.rotation,
                                                 g_init.rotation))


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
    return Grasp(apply_coupling(scene.spec, a)[0], base_quat.copy(), t.copy())


def _descend(scene, g_start, g_init, steps, weights, gesture_reference=None,
             stop_depth=None):
    """Monotone projected descent from one start; returns (grasp, rows,
    counts).

    Each line-search candidate gets one forward pass, which computes the
    loss only, with the accepted loss less 1e-12 as its ceiling: a
    candidate whose first stages already prove a loss at or above it is
    refuted there (``_ForwardPass``), and one that is not is computed in
    full and compared as before, so the accepted states, rows and counts
    are those of full passes. The gradient pass runs only over an
    accepted step's forward state, when the next step needs it. With
    ``stop_depth`` the descent ends at the first accepted step whose
    oriented-cloud penetration depth is below it. ``counts`` holds the
    forward passes, gradient passes, backtracks (rejected candidates)
    and refuted candidates (backtracks that stopped early) it ran.
    """
    spec = scene.spec
    w = weights or LossWeights()
    ref = gesture_reference if gesture_reference is not None else g_init
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

    fwd = _ForwardPass(scene, _state_to_grasp(scene, a, t, base_quat), ref, w,
                       np.inf)
    rows = [{"step": 0, "total": fwd.total, **fwd.terms}]
    if not np.isfinite(fwd.total):
        raise InvalidInputError("non-finite loss at optimization start")
    counts = {"forward_passes": 1, "gradient_passes": 0, "backtracks": 0,
              "refuted": 0}
    step = 0.01
    for it in range(1, steps + 1):
        grad = fwd.gradient()
        counts["gradient_passes"] += 1
        x0 = np.concatenate([a, t, np.zeros(3)])
        ceiling = fwd.total - 1e-12
        for _ in range(20):
            xc = x0 - step * grad
            a_c, t_c, quat_c = unpack(xc, base_quat)
            cand = _ForwardPass(scene, _state_to_grasp(scene, a_c, t_c, quat_c),
                                ref, w, ceiling)
            counts["forward_passes"] += 1
            if cand.total < ceiling:
                break
            counts["backtracks"] += 1
            counts["refuted"] += cand.refuted
            step *= 0.5
        else:       # no candidate lowered the loss
            break
        a, t, base_quat = a_c, t_c, quat_c
        fwd = cand
        rows.append({"step": it, "total": fwd.total, **fwd.terms})
        step = min(step * 1.8, 0.5)
        if stop_depth is not None and fwd.cloud_depth() < stop_depth:
            break
    return fwd.grasp, rows, counts


def optimize(spec, g_init, bundle, weights=None, restarts=5, steps=200,
             seed=0):
    """Run the five-loss optimization with random restarts.

    Restart 0 starts from ``g_init`` exactly; restart r > 0 perturbs it
    with seeded noise (sigma_q 0.05 rad on actuated values, 0.5 cm on
    translation, 0.05 rad on rotation). The restart with the lowest
    final loss wins; ties go to the lowest index. Deterministic for a
    fixed seed. Each restart's summary also counts its forward passes,
    gradient passes, line-search backtracks and the backtracks refuted
    before their last stage; ``opt_report_to_dict`` leaves those
    counters out of the hashed report.
    """
    weights = weights or LossWeights()
    scene = GraspScene(spec, bundle)
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
            q = apply_coupling(spec, a)[0]
            trans = start.translation + rng.normal(0.0, RESTART_SIGMA_T, 3)
            rot = tf.quat_normalize(tf.quat_mul(
                tf.rotvec_to_quat(rng.normal(0.0, RESTART_SIGMA_R, 3)),
                start.rotation))
            start = Grasp(q, rot, trans)
        grasp, rows, counts = _descend(scene, start, g_init, steps, weights)
        final = rows[-1]["total"]
        summaries.append({"restart": r, "final_loss": final,
                          "steps_run": len(rows) - 1, **counts})
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
    pts = forward_kinematics(scene.spec, grasp).sample_points
    signed, _, _ = _oriented_cloud_distance(scene, pts)
    return _max_depth(signed)


def refine_physical(spec, grasp, bundle, object_sdf, weights=None,
                    max_steps=100):
    """Push a grasp out of penetration while staying close to it.

    Optimizes gesture-to-input + contact + anchor + penetration terms
    with the penetration weights scaled 10x, until the maximum
    penetration depth against the oriented object cloud drops below
    0.1 cm or the step budget runs out. Grasps that stay above 0.5 cm
    depth under ``object_sdf`` (the object's ``MeshSDF``) are returned
    flagged infeasible.
    """
    base = weights or LossWeights()
    weights = replace(base, lam6=base.lam6 * 10.0, lam7=base.lam7 * 10.0)
    scene = GraspScene(spec, bundle)

    if penetration_depth_cloud(scene, grasp) < REFINE_PENETRATION_GOAL:
        return grasp.copy()

    refined, _, _ = _descend(scene, grasp, grasp, max_steps, weights,
                          gesture_reference=grasp,
                          stop_depth=REFINE_PENETRATION_GOAL)
    pts = forward_kinematics(spec, refined).sample_points
    final_depth = _max_depth(object_sdf.query(pts))
    out = refined.copy()
    if final_depth >= REFINE_PENETRATION_FAIL:
        out.flags = sorted(set(out.flags) | {"infeasible"})
    return out
