"""Category-level dense shape correspondence via lattice deformation.

A K^3 control lattice over the template bounding box carries per-node
displacements, interpolated trilinearly. Fitting minimizes the chamfer
distance between the warped template samples and the instance samples,
regularized by a discrete Laplacian (smoothness) and displacement
magnitude. Contact labels then ride the induced dense correspondence
from a demonstrated object to any instance of the same category
("contact diffusion").
"""

import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

from .contact import ContactBundle
from .documents import document, keys_of, list_of, typed, vector
from .errors import InvalidInputError
from .geometry import bbox_diagonal, row_norms

DSC_SCHEMA = "dsc/1"
LATTICE_K = 8
# a lattice level stops once an accepted step gains less than this share
# of the loss it reaches
FIT_REL_TOL = 1e-6
BETA_SMOOTH = 10.0
BETA_MAG = 0.1
MIN_INSTANCE_SAMPLES = 32
PAIR_MARGIN = 1e-9  # cm; distance rounding is ~1e-14 cm at these sizes
# a share of unproven rows above this makes the next pairing a reference
PAIR_REFRESH = 0.2


@dataclass
class DeformationField:
    """Trilinear displacement field on a K^3 lattice (cm)."""

    origin: np.ndarray                 # lattice corner
    spacing: np.ndarray                # per-axis node spacing (3,)
    dims: tuple                        # (K, K, K)
    displacements: np.ndarray          # (K, K, K, 3)
    template_id: str = ""

    def weights(self, points):
        """Sparse (N, K^3) trilinear weight matrix at the given points."""
        points = np.atleast_2d(points)
        rel = (points - self.origin) / self.spacing
        hi = np.array(self.dims) - 1
        rel = np.clip(rel, 0.0, hi - 1e-9)
        i0 = np.floor(rel).astype(int)
        f = rel - i0
        n = len(points)
        rows, cols, vals = [], [], []
        K = self.dims
        for dx in (0, 1):
            for dy in (0, 1):
                for dz in (0, 1):
                    w = (np.where(dx, f[:, 0], 1 - f[:, 0])
                         * np.where(dy, f[:, 1], 1 - f[:, 1])
                         * np.where(dz, f[:, 2], 1 - f[:, 2]))
                    node = ((i0[:, 0] + dx) * K[1] + (i0[:, 1] + dy)) * K[2] \
                        + (i0[:, 2] + dz)
                    rows.append(np.arange(n))
                    cols.append(node)
                    vals.append(w)
        return sparse.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, int(np.prod(K))))

    def warp(self, points):
        disp = self.displacements.reshape(-1, 3)
        return np.atleast_2d(points) + self.weights(points) @ disp

    def node_positions(self):
        ii, jj, kk = np.meshgrid(*[np.arange(d) for d in self.dims], indexing="ij")
        return self.origin + np.stack([ii, jj, kk], axis=-1) * self.spacing


def lattice_for_bounds(lo, hi, k=LATTICE_K):
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    size = hi - lo
    pad = np.maximum(size * 0.05, 1e-6)
    origin = lo - pad
    spacing = (size + 2 * pad) / (k - 1)
    return DeformationField(origin, spacing, (k, k, k), np.zeros((k, k, k, 3)))


def _laplacian(dims):
    """Sparse lattice Laplacian: node value minus the mean of its axis
    neighbours (boundary nodes have fewer)."""
    index = np.arange(int(np.prod(dims))).reshape(dims)
    rows, cols = [], []
    for axis in range(3):
        lo = np.delete(index, -1, axis=axis).ravel()
        hi = np.delete(index, 0, axis=axis).ravel()
        rows += [lo, hi]
        cols += [hi, lo]
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    A = sparse.csr_matrix((np.ones(len(rows)), (rows, cols)),
                          shape=(index.size, index.size))
    mean = sparse.diags(1.0 / np.asarray(A.sum(axis=1)).ravel()) @ A
    return (sparse.identity(index.size) - mean).tocsr()


@dataclass(frozen=True)
class FitLevel:
    """One lattice resolution of a fit: its K, its accepted steps, and why
    it stopped: "tolerance", "no_descent" or "max_iters"."""

    k: int
    steps: int
    stop: str


@dataclass
class FitReport:
    final_loss: float
    final_chamfer: float
    trace: list                  # the final level's losses
    iterations: int              # the final level's accepted steps
    levels: list                 # a FitLevel per resolution, coarse first


class _NearestPairs:
    """Nearest-neighbour pairs of a moving cloud and the fixed instance
    cloud, both ways: calling it with the warped template gives
    ``(d_ti, idx_ti, d_it, idx_it)``, equal to ``inst_tree.query(warped)``
    and ``cKDTree(warped).query(i_pts)``.

    A reference keeps the moving cloud ``w_ref`` of an earlier call and
    both pairings there, queried with ``k=2``. A distance is 1-Lipschitz
    in either end, so with ``delta_k = |w_k - w_ref,k|``:

    - template row ``k`` keeps its reference neighbour ``p`` when
      ``|w_k - i_p| + eps < d2_ref,k - delta_k - eps``;
    - instance row ``j`` keeps its reference neighbour ``q`` when
      ``|i_j - w_q| + eps < e2_ref,j - max(delta) - eps``;

    for then every other point is farther by more than the rounding
    margin ``eps`` (``PAIR_MARGIN``), and the tree, which returns the
    nearest, returns the same index and distance. A reference row whose
    two distances tie is never kept. Other rows are queried as before.
    When more than ``PAIR_REFRESH`` of the rows are unproven, the next
    call takes a new reference.
    """

    def __init__(self, i_pts, inst_tree):
        self.i_pts = i_pts
        self.inst_tree = inst_tree
        self.ref = None

    def __call__(self, warped):
        tree = None
        if self.ref is None:
            d_ti, idx_ti = self.inst_tree.query(warped, k=2)
            tree = cKDTree(warped)
            d_it, idx_it = tree.query(self.i_pts, k=2)
            self.ref = (warped, idx_ti[:, 0], d_ti[:, 1], idx_it[:, 0],
                        d_it[:, 1])
        w_ref, p_ti, bound_ti, q_it, bound_it = self.ref
        moved = row_norms(warped - w_ref)

        idx_ti = p_ti.copy()
        d_ti = row_norms(warped - self.i_pts[p_ti])
        open_ti = ~(d_ti + PAIR_MARGIN < bound_ti - moved - PAIR_MARGIN)
        if open_ti.any():
            d_ti[open_ti], idx_ti[open_ti] = self.inst_tree.query(
                warped[open_ti])

        idx_it = q_it.copy()
        d_it = row_norms(self.i_pts - warped[q_it])
        open_it = ~(d_it + PAIR_MARGIN < bound_it - moved.max() - PAIR_MARGIN)
        if open_it.any():
            if tree is None:
                tree = cKDTree(warped)
            d_it[open_it], idx_it[open_it] = tree.query(self.i_pts[open_it])

        n_open = np.count_nonzero(open_ti) + np.count_nonzero(open_it)
        if n_open > PAIR_REFRESH * (len(open_ti) + len(open_it)):
            self.ref = None         # the next call takes a new reference
        return d_ti, idx_ti, d_it, idx_it


def _descend_level(field, t_pts, i_pts, inst_tree, beta_smooth, beta_mag,
                   max_iters):
    """Monotone preconditioned descent on one lattice resolution; returns
    its final loss and chamfer, its trace and why it stopped."""
    W = field.weights(t_pts)
    WT = W.T.tocsr()
    n_t, n_i = len(t_pts), len(i_pts)
    n_nodes = float(np.prod(field.dims))
    L = _laplacian(field.dims)
    LT = L.T.tocsr()
    pairs = _NearestPairs(i_pts, inst_tree)

    def chamfer_terms(warped):
        d_ti, idx_ti, d_it, idx_it = pairs(warped)
        value = float(np.mean(d_ti ** 2) + np.mean(d_it ** 2))
        return value, idx_ti, idx_it

    def total_loss(disp):
        nodes = disp.reshape(-1, 3)
        warped = t_pts + W @ nodes
        cham, idx_ti, idx_it = chamfer_terms(warped)
        lap = L @ nodes
        # regularizers are per-node means so they balance the chamfer means
        reg = beta_smooth * float((lap ** 2).sum()) / n_nodes \
            + beta_mag * float((nodes ** 2).sum()) / n_nodes
        return cham + reg, cham, (warped, idx_ti, idx_it, lap, nodes)

    # diagonal preconditioner: data curvature per node + regularizer floor
    data_diag = np.asarray((W.multiply(W)).sum(axis=0)).ravel() * (2.0 / n_t)
    precond = np.repeat(data_diag + (2.0 * (1.5 * beta_smooth + beta_mag)
                                     / n_nodes), 3)

    def candidate_loss(cand):
        # a candidate equal to disp has disp's loss, which cannot pass the
        # acceptance test, so it is not evaluated again
        if np.array_equal(cand, disp):
            return value, cham, aux
        return total_loss(cand)

    disp = field.displacements.ravel().copy()
    value, cham, aux = total_loss(disp)
    trace = [value]
    step = 1.0
    momentum = np.zeros_like(disp)
    mu = 0.9
    stop = "max_iters"
    for _ in range(max_iters):
        warped, idx_ti, idx_it, lap, nodes = aux
        # chamfer gradient with the nearest-neighbor pairs frozen
        res_ti = (warped - i_pts[idx_ti]) * (2.0 / n_t)
        pull = (warped[idx_it] - i_pts) * (2.0 / n_i)
        res_it = np.stack([np.bincount(idx_it, weights=pull[:, c],
                                       minlength=n_t) for c in range(3)],
                          axis=1)
        grad_nodes = WT @ (res_ti + res_it)
        grad = grad_nodes + (2.0 * beta_smooth / n_nodes) * (LT @ lap) \
            + (2.0 * beta_mag / n_nodes) * nodes
        direction = grad.ravel() / precond

        accepted = False
        momentum = mu * momentum + direction
        cand = disp - step * momentum
        cand_value, cand_cham, cand_aux = candidate_loss(cand)
        if cand_value < value - 1e-15:
            accepted = True
        else:
            momentum = np.zeros_like(disp)  # reset and backtrack plain steps
            for _ in range(25):
                cand = disp - step * direction
                cand_value, cand_cham, cand_aux = candidate_loss(cand)
                if cand_value < value - 1e-15:
                    accepted = True
                    momentum = direction.copy()
                    break
                step *= 0.5
        if not accepted:
            stop = "no_descent"
            break
        improvement = value - cand_value
        disp, value, cham, aux = cand, cand_value, cand_cham, cand_aux
        trace.append(value)
        step = min(step * 1.1, 1.0)
        if improvement < FIT_REL_TOL * value:
            stop = "tolerance"
            break
    field.displacements = disp.reshape(*field.dims, 3)
    return value, cham, trace, stop


def fit_deformation(template, instance, k=LATTICE_K, beta_smooth=BETA_SMOOTH,
                    beta_mag=BETA_MAG, max_iters=300, template_id=""):
    """Fit the lattice so the warped template matches the instance cloud.

    Both clouds must be pre-aligned to the canonical category pose/scale.
    Optimization is coarse-to-fine (K = 2, 4, ..., k): coarse levels pin
    down the global warp so finer levels cannot slide tangentially along
    the surface. Returns (field, report); the reported trace (final
    level) is non-increasing.

    Each level is a monotone descent: a step is accepted only if it
    lowers the loss. A level stops when an accepted step gains less than
    ``FIT_REL_TOL`` (1e-6) times the loss it reaches ("tolerance"), when
    no step lowers the loss ("no_descent"), or after ``max_iters``
    accepted steps ("max_iters"); ``report.levels`` records each level's
    K, steps and stop.

    Each loss evaluation pairs every point with its nearest neighbour
    on the other side, as ``cKDTree.query`` does, but a point keeps the
    neighbour it had at a reference evaluation while a distance bound
    proves that no other point can have come nearer (``_NearestPairs``):
    a distance moves no more than its ends, so the kept pairs, and
    their distances, are the ones a fresh query would return. A
    candidate equal to the current iterate is not evaluated, as it
    cannot lower the loss. Every result is that of a full query at
    every evaluation, bit for bit.
    """
    try:
        k = operator.index(k)
    except TypeError:
        raise InvalidInputError(
            f"k must be an integer number of lattice nodes, got {k!r}") from None
    if k < 2:
        raise InvalidInputError(f"k must be >= 2 lattice nodes, got {k!r}")
    for name, beta in (("beta_smooth", beta_smooth), ("beta_mag", beta_mag)):
        if not 0.0 <= beta < math.inf:
            raise InvalidInputError(
                f"{name} must be >= 0 and finite, got {beta!r}")
    t_pts = np.asarray(template.points if hasattr(template, "points")
                       else template, float)
    i_pts = np.asarray(instance.points if hasattr(instance, "points")
                       else instance, float)
    if len(i_pts) < MIN_INSTANCE_SAMPLES:
        raise InvalidInputError(
            f"instance has {len(i_pts)} samples; need >= {MIN_INSTANCE_SAMPLES}")
    for name, pts in (("template", t_pts), ("instance", i_pts)):
        if not np.all(np.isfinite(pts)):
            raise InvalidInputError(f"{name} samples must be finite")

    lo, hi = t_pts.min(axis=0), t_pts.max(axis=0)
    inst_tree = cKDTree(i_pts)
    levels = sorted({min(2 ** (i + 1), k) for i in range(max(k.bit_length(), 1))})
    levels = [lv for lv in levels if lv <= k] or [k]
    field = None
    records = []
    for lv in levels:
        nxt = lattice_for_bounds(lo, hi, k=lv)
        nxt.template_id = template_id
        if field is not None:
            nodes = nxt.node_positions().reshape(-1, 3)
            nxt.displacements = (field.warp(nodes) - nodes).reshape(*nxt.dims, 3)
        field = nxt
        value, cham, trace, stop = _descend_level(
            field, t_pts, i_pts, inst_tree, beta_smooth, beta_mag, max_iters)
        records.append(FitLevel(lv, len(trace) - 1, stop))
    return field, FitReport(value, cham, trace, len(trace) - 1, records)


# ---------------------------------------------------------------------------
# correspondence and diffusion


@dataclass
class CorrespondenceMap:
    """instance sample -> matched template sample (by index) + residual."""

    template_id: str
    indices: np.ndarray          # (N_instance,)
    residuals: np.ndarray        # (N_instance,)
    instance_points: np.ndarray
    template_points: np.ndarray

    def __len__(self):
        return len(self.indices)


def correspond(template, instance, field):
    """Match each instance sample to its nearest warped template sample."""
    t_pts = np.asarray(template.points if hasattr(template, "points")
                       else template, float)
    i_pts = np.asarray(instance.points if hasattr(instance, "points")
                       else instance, float)
    warped = field.warp(t_pts)
    d, idx = cKDTree(warped).query(i_pts)
    return CorrespondenceMap(field.template_id, idx.astype(np.int64), d,
                             i_pts, t_pts)


def _label_arrays(bundle):
    """Per-sample segment and anchor labels (-1 where absent)."""
    n = len(bundle.object_points)
    seg = np.full(n, -1, dtype=np.int64)
    seg_names = list(bundle.knuckle_partition)
    for k, name in enumerate(seg_names):
        seg[bundle.knuckle_partition[name]] = k
    anc = np.full(n, -1, dtype=np.int64)
    delta = np.zeros(n)
    anc_names = list(bundle.anchor_assignment)
    for k, name in enumerate(anc_names):
        idx, d = bundle.anchor_assignment[name]
        anc[idx] = k
        delta[idx] = d
    return seg, seg_names, anc, anc_names, delta


def diffuse_contacts(bundle_a, map_a, map_b):
    """Transport contact structure from object A to object B via the
    shared template: B sample -> template -> closest-matching A sample."""
    if map_a.template_id != map_b.template_id:
        raise InvalidInputError(
            f"category mismatch: {map_a.template_id!r} vs {map_b.template_id!r}")
    if len(map_a) != len(bundle_a.object_points):
        raise InvalidInputError("map_a does not cover bundle A's samples")

    # invert A's matches: per template sample, the A sample with the lowest
    # residual, then the lowest row
    rows = np.arange(len(map_a))
    order = np.lexsort((rows, map_a.residuals, map_a.indices))
    t_sorted = map_a.indices[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = t_sorted[1:] != t_sorted[:-1]
    best = np.full(max(len(map_a.template_points),
                       len(map_b.template_points)), -1, dtype=np.int64)
    best[t_sorted[first]] = order[first]

    # a template sample no A sample matched takes the A sample whose
    # matched template point is nearest to it
    source = best[map_b.indices]
    unmatched = np.nonzero(source < 0)[0]
    if len(unmatched):
        tree_a = cKDTree(map_a.template_points[map_a.indices])
        _, source[unmatched] = tree_a.query(
            map_b.template_points[map_b.indices[unmatched]])

    seg, seg_names, anc, anc_names, delta = _label_arrays(bundle_a)
    in_contact = np.zeros(len(bundle_a.object_points), dtype=bool)
    in_contact[bundle_a.contact_object] = True

    omega_b = bundle_a.omega_object[source]
    contact_b = np.nonzero(in_contact[source])[0].astype(np.int64)
    seg_b = seg[source]
    anc_b = anc[source]
    partition_b = {}
    for k, name in enumerate(seg_names):
        partition_b[name] = np.nonzero((seg_b == k) & in_contact[source])[0]
    assignment_b = {}
    for k, name in enumerate(anc_names):
        idx = np.nonzero((anc_b == k) & in_contact[source])[0]
        assignment_b[name] = (idx.astype(np.int64), delta[source[idx]])

    # instance B needs normals; approximate by the template-matched ones
    normals_b = _transport_normals(bundle_a, source, map_b)
    out = ContactBundle(map_b.instance_points.copy(), normals_b, omega_b,
                        contact_b, list(bundle_a.segment_names),
                        {k: np.asarray(v).copy()
                         for k, v in bundle_a.omega_hand.items()},
                        {k: np.asarray(v).copy()
                         for k, v in bundle_a.contact_hand.items()},
                        partition_b, assignment_b, tau_c=bundle_a.tau_c,
                        template_id=map_a.template_id)
    return out.validate()


def _transport_normals(bundle_a, source, map_b):
    if bundle_a.object_normals is not None and len(bundle_a.object_normals):
        return bundle_a.object_normals[source]
    return np.zeros_like(map_b.instance_points)


def transfer_keypoints(keypoints, field):
    """Predict instance keypoints by warping template keypoints."""
    names = list(keypoints)
    pts = np.array([keypoints[n] for n in names])
    warped = field.warp(pts)
    return {n: warped[k] for k, n in enumerate(names)}


def pck(predicted, truth, mesh):
    """Fraction of keypoints within threshold * bbox diagonal of truth."""
    if set(predicted) != set(truth):
        raise InvalidInputError("keypoint name sets differ")
    diag = bbox_diagonal(mesh)
    names = sorted(predicted)
    err = np.array([np.linalg.norm(np.asarray(predicted[n], float)
                                   - np.asarray(truth[n], float))
                    for n in names])
    return {t: float(np.mean(err <= t * diag)) for t in (0.01, 0.02)}


# ---------------------------------------------------------------------------
# keypoints/1 (plain text) and dsc/1 (JSON)


def save_keypoints(path, keypoints):
    with open(path, "w") as fh:
        for name, p in keypoints.items():
            fh.write(f"{name} {p[0]:.9g} {p[1]:.9g} {p[2]:.9g}\n")


def load_keypoints(path):
    """keypoints/1: one ``name x y z`` line per keypoint, with finite
    coordinates; else a SchemaError naming the line."""
    out = {}
    with open(path) as fh:
        for k, line in enumerate(fh, 1):
            parts = line.split()
            try:
                xyz = [float(v) for v in parts[1:]]
            except ValueError:
                xyz = parts[1:]  # words, which vector refuses
            out[parts[0]] = vector(xyz, 3, str(path), f"line {k}",
                                   "a name and 3 numbers")
    return out


def dsc_to_dict(field, cmap=None, report=None):
    doc = {
        "schema": DSC_SCHEMA,
        "template_id": field.template_id,
        "lattice": {
            "origin": field.origin.tolist(),
            "spacing": np.asarray(field.spacing).tolist(),
            "dims": list(field.dims),
            "displacements": field.displacements.ravel().tolist(),
        },
    }
    if report is not None:
        doc["final_loss"] = report.final_loss
        doc["final_chamfer"] = report.final_chamfer
    if cmap is not None:
        doc["correspondence"] = {
            "indices": cmap.indices.tolist(),
            "residuals": cmap.residuals.tolist(),
        }
    return doc


def dsc_from_dict(doc):
    """A ``DeformationField`` from a dsc/1 document; a spacing that is not
    positive or a dimension below 2 is an InvalidInputError."""
    where = document(doc, DSC_SCHEMA)
    template_id = typed(doc.get("template_id", ""), str, where, "template_id",
                        "a string")
    with keys_of(where):
        lat = typed(doc["lattice"], dict, where, "lattice", "an object")
        origin = vector(lat["origin"], 3, where, "lattice.origin")
        spacing = vector(lat["spacing"], 3, where, "lattice.spacing")
        dims = list_of(lat["dims"], int, 3, where, "lattice.dims",
                       "3 integers of at least 2")
        if min(dims) < 2:
            raise InvalidInputError(f"{where}: 'lattice.dims' must be at "
                                    f"least 2, got {dims}")
        displacements = vector(lat["displacements"], 3 * math.prod(dims),
                               where, "lattice.displacements")
    if not np.all(spacing > 0):
        raise InvalidInputError(f"{where}: 'lattice.spacing' must be "
                                f"positive, got {spacing.tolist()}")
    return DeformationField(origin, spacing, tuple(dims),
                            displacements.reshape(*dims, 3),
                            template_id=template_id)
