"""Object state estimation from partial point clouds.

A library of canonical templates (centered, unit bounding-box diagonal)
stands in for a learned shape space: estimating an object's state means
choosing the template and the similarity transform [s, R, T] that map
it onto the observation. The objective combines a template-SDF residual,
a normal-agreement term, and a two-sided chamfer term:

    L = 5 * L_sdf + 1 * L_normal + 10 * L_pc

optimized for 300 iterations of backtracking gradient descent over
(log s, R, T), with rotation updates composed as axis-angle increments.
ICP with Umeyama scale estimation provides the initial state.
"""

import json
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from . import transforms as tf
from .errors import InvalidInputError, SchemaError, UnrecognizedObjectError
from .geometry import TriMesh, sample_surface, sdf_grid_from_mesh

OSE_WEIGHTS = (5.0, 1.0, 10.0)   # sdf, normal, chamfer
GRID_SPACING_CM = 0.25           # physical detail resolved by template grids
NORMAL_EPS = 1e-8
GRAZE_COS = 0.15   # drop near-silhouette points from the chamfer term
DEFAULT_LOSS_CEILING = 5.0
# fitted scale stays within this factor of the template's own size; a
# cloud that needs more is not that object, and the loss overflows
SCALE_LIMIT = 1e3
OBJSTATE_SCHEMA = "objstate/1"


def canonicalize(mesh):
    """Center a mesh and scale its bbox diagonal to 1; returns
    (canonical mesh, diagonal_cm, center)."""
    lo, hi = mesh.bounds()
    center = (lo + hi) / 2.0
    diag = float(np.linalg.norm(hi - lo))
    if diag <= 0:
        raise InvalidInputError("degenerate mesh")
    return TriMesh((mesh.vertices - center) / diag, mesh.faces), diag, center


@dataclass
class Template:
    template_id: str
    mesh: TriMesh              # canonical: centered, unit diagonal
    samples: object            # SurfaceSamples on the canonical mesh
    diagonal_cm: float         # source bbox diagonal
    _grid: object = field(default=None, repr=False)
    _dense: object = field(default=None, repr=False)

    @property
    def sdf_grid(self):
        if self._grid is None:
            spacing = GRID_SPACING_CM / self.diagonal_cm
            self._grid = sdf_grid_from_mesh(self.mesh, spacing)
        return self._grid

    @property
    def dense_points(self):
        """Denser cloud for ICP matching (reduces correspondence bias)."""
        if self._dense is None:
            self._dense = sample_surface(self.mesh, 8192, seed=101).points
        return self._dense


class TemplateLibrary:
    """Canonical templates per category."""

    def __init__(self, templates):
        self.templates = dict(templates)

    @classmethod
    def from_meshes(cls, meshes, n_samples=2048, seed=0):
        """meshes: {template_id: TriMesh at source scale (cm)}."""
        templates = {}
        for tid, mesh in meshes.items():
            canon, diag, _ = canonicalize(mesh)
            templates[tid] = Template(tid, canon,
                                      sample_surface(canon, n_samples, seed),
                                      diag)
        return cls(templates)

    def get(self, template_id):
        return self.templates[template_id]

    def __iter__(self):
        return iter(self.templates.values())

    def __len__(self):
        return len(self.templates)


@dataclass
class ObjectState:
    """Similarity transform from canonical template to world.

    world = (s * diagonal_cm) * R @ x_canonical + T. ``s`` is the scale
    relative to the template's source size (1.0 = as modeled).
    """

    template_id: str
    s: float
    rotation: np.ndarray        # unit quaternion (w, x, y, z)
    translation: np.ndarray     # cm
    losses: dict = field(default_factory=dict)
    icp_residual: float = np.nan

    def __post_init__(self):
        if self.s <= 0:
            raise InvalidInputError("scale must be positive")
        self.rotation = np.asarray(self.rotation, float)
        self.translation = np.asarray(self.translation, float)

    def matrices(self, template):
        R = tf.quat_to_matrix(self.rotation)
        sigma = self.s * template.diagonal_cm
        return sigma, R


# ---------------------------------------------------------------------------
# ICP initialization


def _umeyama(source, target):
    """Similarity (s, R, t) minimizing ||target - (s R source + t)||^2."""
    mu_s = source.mean(axis=0)
    mu_t = target.mean(axis=0)
    xs = source - mu_s
    xt = target - mu_t
    cov = xt.T @ xs / len(source)
    U, S, Vt = np.linalg.svd(cov)
    d = np.sign(np.linalg.det(U @ Vt))
    fix = np.diag([1.0, 1.0, d])
    R = U @ fix @ Vt
    var = (xs ** 2).sum() / len(source)
    s = float(np.trace(np.diag(S) @ fix) / max(var, 1e-300))
    t = mu_t - s * (R @ mu_s)
    return s, R, t


def icp_init(observed, template, max_iters=50, tol=1e-8):
    """Point-to-point ICP with scale onto a template.

    ``template`` is a Template (canonical samples + source diagonal) or a
    bare SurfaceSamples/array (diagonal treated as 1). Divergence over 5
    consecutive iterations returns the best state so far with a warning.
    """
    observed = np.asarray(getattr(observed, "points", observed), float)
    if len(observed) < 64:
        raise InvalidInputError("ICP needs >= 64 observed points")
    if isinstance(template, Template):
        canon = template.dense_points
        diag = template.diagonal_cm
        tid = template.template_id
    else:
        canon = np.asarray(getattr(template, "points", template), float)
        diag = 1.0
        tid = ""

    # initial similarity from centroids and RMS radii
    mu_c = canon.mean(axis=0)
    mu_o = observed.mean(axis=0)
    rms_c = np.sqrt(((canon - mu_c) ** 2).sum(axis=1).mean())
    rms_o = np.sqrt(((observed - mu_o) ** 2).sum(axis=1).mean())
    sigma = rms_o / max(rms_c, 1e-12)
    R = np.eye(3)
    t = mu_o - sigma * (R @ mu_c)

    best = (np.inf, sigma, R, t)
    grew = 0
    prev = np.inf
    for _ in range(max_iters):
        transformed = (canon @ R.T) * sigma + t
        _, idx = cKDTree(transformed).query(observed)
        sigma, R, t = _umeyama(canon[idx], observed)
        transformed = (canon[idx] @ R.T) * sigma + t
        residual = float(np.sqrt(((observed - transformed) ** 2)
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
    return ObjectState(tid, sigma / diag, tf.matrix_to_quat(R), t,
                       icp_residual=residual)


# ---------------------------------------------------------------------------
# gradient-based state refinement


def _view_direction(normals):
    """Mean observed normal: the partial-view facing direction.

    Near-zero mean means the cloud covers the whole surface, in which
    case no visibility culling applies (returns None).
    """
    if normals is None:
        return None
    mean = np.asarray(normals, float).mean(axis=0)
    norm = np.linalg.norm(mean)
    if norm < 0.2:
        return None
    return mean / norm


def _ose_losses(template, state_vec, base_R, observed, normals,
                weights=OSE_WEIGHTS, view_dir=None):
    """Loss terms and frozen quantities at one state.

    state_vec = [log sigma, T (3), r (3)] with sigma in cm and r composed
    onto base_R. For partial views (``view_dir`` set) the chamfer term
    compares against the predicted-visible template samples only
    (back-face culling), mirroring what a renderer would produce.
    """
    sigma = float(np.exp(state_vec[0]))
    T = state_vec[1:4]
    R = tf.rotvec_to_matrix(state_vec[4:7]) @ base_R

    grid = template.sdf_grid
    u = ((observed - T) @ R) / sigma
    sdf_vals = grid.query(u)
    l_sdf = float(np.abs(sdf_vals).mean())

    grads = grid.gradient(u)
    grad_norm = np.linalg.norm(grads, axis=1)
    n_hat = (R @ (grads / np.maximum(grad_norm, NORMAL_EPS)[:, None]).T).T
    if normals is not None:
        n_norm = np.linalg.norm(normals, axis=1) * np.linalg.norm(n_hat, axis=1)
        cos = np.einsum("ij,ij->i", normals, n_hat) / np.maximum(n_norm,
                                                                 NORMAL_EPS)
        l_normal = float((1.0 - cos).mean())
    else:
        l_normal = 0.0

    recon_all = (template.samples.points @ R.T) * sigma + T
    obs_pc = observed
    if view_dir is not None:
        # grazing points near the silhouette ring are dropped from both
        # sides: the culling boundary cannot match exactly across poses
        facing = (template.samples.normals @ R.T) @ view_dir > GRAZE_COS
        if facing.sum() < 16:
            facing = np.ones(len(recon_all), dtype=bool)
        if normals is not None:
            solid = normals @ view_dir > GRAZE_COS
            if solid.sum() >= 16:
                obs_pc = observed[solid]
    else:
        facing = np.ones(len(recon_all), dtype=bool)
    recon = recon_all[facing]
    d_or, idx_or = cKDTree(recon).query(obs_pc)
    d_ro, idx_ro = cKDTree(obs_pc).query(recon)
    l_pc = float(np.mean(d_or ** 2) + np.mean(d_ro ** 2))

    w_sdf, w_n, w_pc = weights
    total = w_sdf * l_sdf + w_n * l_normal + w_pc * l_pc
    aux = {"sigma": sigma, "T": T, "R": R, "u": u, "sdf": sdf_vals,
           "grads": grads, "n_hat": n_hat, "recon": recon, "obs_pc": obs_pc,
           "idx_or": idx_or, "idx_ro": idx_ro}
    return total, {"sdf": l_sdf, "normal": l_normal, "pc": l_pc}, aux


def _ose_gradient(template, aux, observed, normals, weights=OSE_WEIGHTS):
    """Analytic gradient of the OSE loss at the evaluated state.

    The normal term freezes the grid gradient direction per step and
    differentiates only through the rotation.
    """
    w_sdf, w_n, w_pc = weights
    sigma, T, R = aux["sigma"], aux["T"], aux["R"]
    u, sdf_vals, grads = aux["u"], aux["sdf"], aux["grads"]
    n = len(observed)
    g = np.zeros(7)

    # L_sdf: d|grid(u)| through u = R^T (p - T) / sigma
    sgn = np.sign(sdf_vals)
    gu = grads * sgn[:, None] * (w_sdf / n)          # dL/du per point
    x = observed - T
    g[0] += float(-(gu * u).sum())                    # d u / d log sigma = -u
    g[1:4] += -(R @ gu.T).sum(axis=1) / sigma
    cross = np.cross(x, (R @ gu.T).T)                 # from -R^T (e_k x x)
    g[4:7] += -cross.sum(axis=0) / sigma

    # L_normal (frozen n_hat magnitude): rotation only
    if normals is not None and w_n > 0:
        n_hat = aux["n_hat"]
        g[4:7] += -(w_n / n) * np.cross(n_hat, normals).sum(axis=0)

    # L_pc with frozen pairs, both directions, on the culled clouds
    recon = aux["recon"]
    obs_pc = aux["obs_pc"]
    n_o = len(obs_pc)
    n_r = len(recon)
    res_or = (recon[aux["idx_or"]] - obs_pc) * (2.0 * w_pc / n_o)
    acc = np.zeros((n_r, 3))
    np.add.at(acc, aux["idx_or"], res_or)
    acc += (recon - obs_pc[aux["idx_ro"]]) * (2.0 * w_pc / n_r)
    y = recon - T
    g[0] += float((acc * y).sum())                    # d y / d log sigma = y
    g[1:4] += acc.sum(axis=0)
    g[4:7] += np.cross(y, acc).sum(axis=0)
    return g


def fit_state(observed, library, init, normals=None, max_iters=300,
              weights=OSE_WEIGHTS, loss_ceiling=DEFAULT_LOSS_CEILING,
              refit_all_templates=True):
    """Refine [s, R, T] (and pick the template) for an observed cloud.

    ``init`` seeds the optimization; every library template is refit and
    the lowest final loss wins unless ``refit_all_templates`` is False.
    Raises UnrecognizedObjectError when no template beats ``loss_ceiling``.
    """
    if normals is None and hasattr(observed, "normals"):
        normals = observed.normals
    observed = np.asarray(getattr(observed, "points", observed), float)
    normals = None if normals is None else np.asarray(normals, float)

    candidates = list(library) if refit_all_templates else [
        library.get(init.template_id)]
    best = None
    for template in candidates:
        state = init
        if init.template_id != template.template_id:
            state = icp_init(observed, template)
        result = _fit_one(observed, normals, template, state, max_iters,
                          weights)
        if best is None or result.losses["total"] < best.losses["total"]:
            best = result
    if best.losses["total"] > loss_ceiling:
        raise UnrecognizedObjectError(
            f"best template {best.template_id!r} loss "
            f"{best.losses['total']:.3f} exceeds ceiling {loss_ceiling}")
    return best


def _fit_one(observed, normals, template, init, max_iters, weights):
    base_R = tf.quat_to_matrix(init.rotation)
    log_diag = np.log(template.diagonal_cm)
    x = np.concatenate([[np.log(init.s * template.diagonal_cm)],
                        init.translation, np.zeros(3)])
    view_dir = _view_direction(normals)

    value, terms, aux = _ose_losses(template, x, base_R, observed, normals,
                                    weights, view_dir)
    step = 0.01
    for _ in range(max_iters):
        grad = _ose_gradient(template, aux, observed, normals, weights)
        accepted = False
        for _ in range(25):
            xc = x - step * grad
            # a candidate scale outside SCALE_LIMIT is rejected before any
            # loss divides by it
            if abs(xc[0] - log_diag) <= np.log(SCALE_LIMIT):
                # re-compose the rotation increment into the base each step
                cand_value, cand_terms, cand_aux = _ose_losses(
                    template, xc, base_R, observed, normals, weights,
                    view_dir)
                if cand_value < value - 1e-15:
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            break
        # fold the accepted rotation increment into the base (identical
        # state, fresh zero increment) and keep the candidate evaluation
        base_R = tf.rotvec_to_matrix(xc[4:7]) @ base_R
        x = np.concatenate([xc[:4], np.zeros(3)])
        value, terms = cand_value, cand_terms
        aux = _ose_losses(template, x, base_R, observed, normals, weights,
                          view_dir)[2]
        step = min(step * 1.7, 0.2)

    sigma = float(np.exp(x[0]))
    quat = tf.matrix_to_quat(base_R)
    losses = {"total": value, **terms}
    return ObjectState(template.template_id, sigma / template.diagonal_cm,
                       quat, x[1:4], losses=losses,
                       icp_residual=init.icp_residual)


# ---------------------------------------------------------------------------
# serialization


def state_to_dict(state):
    return {
        "schema": OBJSTATE_SCHEMA,
        "template_id": state.template_id,
        "s": float(state.s),
        "rotation": [float(v) for v in state.rotation],
        "translation": [float(v) for v in state.translation],
        "losses": {k: float(v) for k, v in state.losses.items()},
        "icp_residual": (None if np.isnan(state.icp_residual)
                         else float(state.icp_residual)),
    }


def state_from_dict(doc):
    if doc.get("schema") != OBJSTATE_SCHEMA:
        raise SchemaError(f"expected {OBJSTATE_SCHEMA}, got {doc.get('schema')!r}")
    res = doc.get("icp_residual")
    return ObjectState(doc["template_id"], float(doc["s"]),
                       np.asarray(doc["rotation"], float),
                       np.asarray(doc["translation"], float),
                       losses=dict(doc.get("losses", {})),
                       icp_residual=np.nan if res is None else float(res))


def save_state(path, state):
    with open(path, "w") as fh:
        json.dump(state_to_dict(state), fh, indent=1)


def load_state(path):
    with open(path) as fh:
        return state_from_dict(json.load(fh))
