"""Category-level dense shape correspondence via lattice deformation.

A K^3 control lattice over the template bounding box carries per-node
displacements, interpolated trilinearly. Fitting minimizes the chamfer
distance between the warped template samples and the instance samples,
regularized by a discrete Laplacian (smoothness) and displacement
magnitude. Contact labels then ride the induced dense correspondence
from a demonstrated object to any instance of the same category
("contact diffusion").
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

from .contact import ContactBundle
from .errors import InvalidInputError, SchemaError
from .geometry import bbox_diagonal

DSC_SCHEMA = "dsc/1"
LATTICE_K = 8
BETA_SMOOTH = 10.0
BETA_MAG = 0.1
MIN_INSTANCE_SAMPLES = 32


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

    def warp(self, points, weight_matrix=None):
        W = self.weights(points) if weight_matrix is None else weight_matrix
        disp = self.displacements.reshape(-1, 3)
        return np.atleast_2d(points) + W @ disp

    def node_positions(self):
        ii, jj, kk = np.meshgrid(*[np.arange(d) for d in self.dims], indexing="ij")
        return self.origin + np.stack([ii, jj, kk], axis=-1) * self.spacing


def lattice_for_bounds(lo, hi, k=LATTICE_K, pad_frac=0.05):
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    size = hi - lo
    pad = np.maximum(size * pad_frac, 1e-6)
    origin = lo - pad
    spacing = (size + 2 * pad) / (k - 1)
    return DeformationField(origin, spacing, (k, k, k), np.zeros((k, k, k, 3)))


def _laplacian(disp):
    """Node value minus neighbor mean, per coordinate (boundary-aware)."""
    out = np.zeros_like(disp)
    count = np.zeros(disp.shape[:3])
    acc = np.zeros_like(disp)
    for axis in range(3):
        sl_a = [slice(None)] * 3
        sl_b = [slice(None)] * 3
        sl_a[axis] = slice(0, -1)
        sl_b[axis] = slice(1, None)
        acc[tuple(sl_a)] += disp[tuple(sl_b)]
        acc[tuple(sl_b)] += disp[tuple(sl_a)]
        count[tuple(sl_a)] += 1
        count[tuple(sl_b)] += 1
    out = disp - acc / count[..., None]
    return out


def _laplacian_adjoint(res, dims):
    """Adjoint of _laplacian (L is symmetric up to the degree weights)."""
    count = np.zeros(dims)
    for axis in range(3):
        sl_a = [slice(None)] * 3
        sl_b = [slice(None)] * 3
        sl_a[axis] = slice(0, -1)
        sl_b[axis] = slice(1, None)
        count[tuple(sl_a)] += 1
        count[tuple(sl_b)] += 1
    out = res.copy()
    weighted = res / count[..., None]
    for axis in range(3):
        sl_a = [slice(None)] * 3
        sl_b = [slice(None)] * 3
        sl_a[axis] = slice(0, -1)
        sl_b[axis] = slice(1, None)
        out[tuple(sl_a)] -= weighted[tuple(sl_b)]
        out[tuple(sl_b)] -= weighted[tuple(sl_a)]
    return out


@dataclass
class FitReport:
    final_loss: float
    final_chamfer: float
    trace: list
    iterations: int


def _descend_level(field, t_pts, i_pts, inst_tree, beta_smooth, beta_mag,
                   max_iters):
    """Monotone preconditioned descent on one lattice resolution."""
    W = field.weights(t_pts)
    WT = W.T.tocsr()
    n_t, n_i = len(t_pts), len(i_pts)
    n_nodes = float(np.prod(field.dims))

    def chamfer_terms(warped):
        d_ti, idx_ti = inst_tree.query(warped)
        d_it, idx_it = cKDTree(warped).query(i_pts)
        value = float(np.mean(d_ti ** 2) + np.mean(d_it ** 2))
        return value, idx_ti, idx_it

    def total_loss(disp):
        warped = t_pts + W @ disp.reshape(-1, 3)
        cham, idx_ti, idx_it = chamfer_terms(warped)
        d3 = disp.reshape(*field.dims, 3)
        lap = _laplacian(d3)
        # regularizers are per-node means so they balance the chamfer means
        reg = beta_smooth * float((lap ** 2).sum()) / n_nodes \
            + beta_mag * float((d3 ** 2).sum()) / n_nodes
        return cham + reg, cham, (warped, idx_ti, idx_it, lap, d3)

    # diagonal preconditioner: data curvature per node + regularizer floor
    data_diag = np.asarray((W.multiply(W)).sum(axis=0)).ravel() * (2.0 / n_t)
    precond = np.repeat(data_diag + (2.0 * (1.5 * beta_smooth + beta_mag)
                                     / n_nodes), 3)

    disp = field.displacements.ravel().copy()
    value, cham, aux = total_loss(disp)
    trace = [value]
    step = 1.0
    momentum = np.zeros_like(disp)
    mu = 0.9
    for _ in range(max_iters):
        warped, idx_ti, idx_it, lap, d3 = aux
        # chamfer gradient with the nearest-neighbor pairs frozen
        res_ti = (warped - i_pts[idx_ti]) * (2.0 / n_t)
        res_it = np.zeros_like(warped)
        np.add.at(res_it, idx_it, (warped[idx_it] - i_pts) * (2.0 / n_i))
        grad_nodes = WT @ (res_ti + res_it)
        grad = grad_nodes \
            + (2.0 * beta_smooth / n_nodes) \
            * _laplacian_adjoint(lap, field.dims).reshape(-1, 3) \
            + (2.0 * beta_mag / n_nodes) * d3.reshape(-1, 3)
        direction = grad.ravel() / precond

        accepted = False
        momentum = mu * momentum + direction
        cand = disp - step * momentum
        cand_value, cand_cham, cand_aux = total_loss(cand)
        if cand_value < value - 1e-15:
            accepted = True
        else:
            momentum = np.zeros_like(disp)  # reset and backtrack plain steps
            for _ in range(25):
                cand = disp - step * direction
                cand_value, cand_cham, cand_aux = total_loss(cand)
                if cand_value < value - 1e-15:
                    accepted = True
                    momentum = direction.copy()
                    break
                step *= 0.5
        if not accepted:
            break
        improvement = value - cand_value
        disp, value, cham, aux = cand, cand_value, cand_cham, cand_aux
        trace.append(value)
        step = min(step * 1.1, 1.0)
        if improvement < 1e-12 * max(value, 1.0):
            break
    field.displacements = disp.reshape(*field.dims, 3)
    return value, cham, trace


def fit_deformation(template, instance, k=LATTICE_K, beta_smooth=BETA_SMOOTH,
                    beta_mag=BETA_MAG, max_iters=300, template_id=""):
    """Fit the lattice so the warped template matches the instance cloud.

    Both clouds must be pre-aligned to the canonical category pose/scale.
    Optimization is coarse-to-fine (K = 2, 4, ..., k): coarse levels pin
    down the global warp so finer levels cannot slide tangentially along
    the surface. Returns (field, report); the reported trace (final
    level) is non-increasing.
    """
    t_pts = np.asarray(template.points if hasattr(template, "points")
                       else template, float)
    i_pts = np.asarray(instance.points if hasattr(instance, "points")
                       else instance, float)
    if len(i_pts) < MIN_INSTANCE_SAMPLES:
        raise InvalidInputError(
            f"instance has {len(i_pts)} samples; need >= {MIN_INSTANCE_SAMPLES}")

    lo, hi = t_pts.min(axis=0), t_pts.max(axis=0)
    inst_tree = cKDTree(i_pts)
    levels = sorted({min(2 ** (i + 1), k) for i in range(max(k.bit_length(), 1))})
    levels = [lv for lv in levels if lv <= k] or [k]
    field = None
    for lv in levels:
        nxt = lattice_for_bounds(lo, hi, k=lv)
        nxt.template_id = template_id
        if field is not None:
            nodes = nxt.node_positions().reshape(-1, 3)
            nxt.displacements = (field.warp(nodes) - nodes).reshape(*nxt.dims, 3)
        field = nxt
        value, cham, trace = _descend_level(field, t_pts, i_pts, inst_tree,
                                            beta_smooth, beta_mag, max_iters)
    return field, FitReport(value, cham, trace, len(trace) - 1)


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

    # invert A's matches: template sample -> A samples, best residual first
    inverted = {}
    for i, t in enumerate(map_a.indices):
        inverted.setdefault(int(t), []).append(i)
    for t, lst in inverted.items():
        lst.sort(key=lambda i: (map_a.residuals[i], i))

    tp_a = map_a.template_points[map_a.indices]
    tree_a = cKDTree(tp_a)
    n_b = len(map_b)
    source = np.empty(n_b, dtype=np.int64)
    for j in range(n_b):
        t = int(map_b.indices[j])
        hit = inverted.get(t)
        if hit:
            source[j] = hit[0]
        else:
            _, i = tree_a.query(map_b.template_points[t])
            source[j] = i

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


def pck(predicted, truth, mesh, thresholds=(0.01, 0.02)):
    """Fraction of keypoints within threshold * bbox diagonal of truth."""
    if set(predicted) != set(truth):
        raise InvalidInputError("keypoint name sets differ")
    diag = bbox_diagonal(mesh)
    names = sorted(predicted)
    err = np.array([np.linalg.norm(np.asarray(predicted[n], float)
                                   - np.asarray(truth[n], float))
                    for n in names])
    return {t: float(np.mean(err <= t * diag)) for t in thresholds}


# ---------------------------------------------------------------------------
# keypoints/1 (plain text) and dsc/1 (JSON)


def save_keypoints(path, keypoints):
    with open(path, "w") as fh:
        for name, p in keypoints.items():
            fh.write(f"{name} {p[0]:.9g} {p[1]:.9g} {p[2]:.9g}\n")


def load_keypoints(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if len(parts) != 4:
                raise SchemaError(f"bad keypoints line: {line!r}")
            out[parts[0]] = np.array([float(v) for v in parts[1:]])
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
    if doc.get("schema") != DSC_SCHEMA:
        raise SchemaError(f"expected {DSC_SCHEMA}, got {doc.get('schema')!r}")
    lat = doc["lattice"]
    dims = tuple(lat["dims"])
    field = DeformationField(
        np.asarray(lat["origin"], float), np.asarray(lat["spacing"], float),
        dims, np.asarray(lat["displacements"], float).reshape(*dims, 3),
        template_id=doc.get("template_id", ""))
    return field
