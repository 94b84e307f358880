"""Object state estimation from partial point clouds.

A library of canonical templates (centered, unit bounding-box diagonal)
stands in for a learned shape space: estimating an object's state means
choosing the template and the similarity transform [s, R, T] that map
it onto the observation. The objective combines a template-SDF residual,
a normal-agreement term, and a two-sided chamfer term:

    L = 5 * L_sdf + 1 * L_normal + 10 * L_pc

optimized by backtracking gradient descent over (log s, R, T), with
rotation updates composed as axis-angle increments; the step halves on
each rejected candidate and an accepted step keeps it. The descent stops
once an accepted step gains less than ``STATE_REL_TOL`` (1e-6) of the
loss it reaches, when no step lowers the loss, or after ``max_iters``
(300) accepted steps. ICP with Umeyama scale estimation provides the
initial state.
"""

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from . import transforms as tf
from .documents import (document, keys_of, number, quaternion, read_json,
                        typed, vector)
from .errors import InvalidInputError, UnrecognizedObjectError
from .geometry import TriMesh, sample_surface, sdf_grid_from_mesh

OSE_WEIGHTS = (5.0, 1.0, 10.0)   # sdf, normal, chamfer
GRID_SPACING_CM = 0.25           # physical detail resolved by template grids
NORMAL_EPS = 1e-8
GRAZE_COS = 0.15   # drop near-silhouette points from the chamfer term
DEFAULT_LOSS_CEILING = 5.0
# fitted scale stays within this factor of the template's own size; a
# cloud that needs more is not that object, and the loss overflows
SCALE_LIMIT = 1e3
# the descent stops once an accepted step gains less than this share of
# the loss it reaches
STATE_REL_TOL = 1e-6
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
    _tree: object = field(default=None, repr=False)

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

    @property
    def dense_tree(self):
        """KD tree over ``dense_points``, built on first use."""
        if self._tree is None:
            self._tree = cKDTree(self.dense_points)
        return self._tree


class TemplateLibrary:
    """Canonical templates per category."""

    def __init__(self, templates):
        self.templates = dict(templates)

    @classmethod
    def from_meshes(cls, meshes):
        """meshes: {template_id: TriMesh at source scale (cm)}."""
        templates = {}
        for tid, mesh in meshes.items():
            canon, diag, _ = canonicalize(mesh)
            templates[tid] = Template(tid, canon,
                                      sample_surface(canon, 2048, 0), diag)
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

    A state from ``fit_state`` also records its descent: the accepted
    ``steps`` and why it stopped, ``stop``: "tolerance", "no_descent" or
    "max_iters" (None for a state no descent made). ``state_to_dict``
    writes neither, so they stay out of every hash.
    """

    template_id: str
    s: float
    rotation: np.ndarray        # unit quaternion (w, x, y, z)
    translation: np.ndarray     # cm
    losses: dict = field(default_factory=dict)
    icp_residual: float = np.nan
    steps: int = 0
    stop: object = None

    def __post_init__(self):
        if self.s <= 0:
            raise InvalidInputError("scale must be positive")
        self.rotation = np.asarray(self.rotation, float)
        self.translation = np.asarray(self.translation, float)


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


def _cloud(values, name):
    """``values`` as a finite float (N, 3) array."""
    values = np.asarray(values, float)
    if values.ndim != 2 or values.shape[1] != 3:
        raise InvalidInputError(
            f"{name} must be an (N, 3) array, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise InvalidInputError(f"{name} must be finite")
    return values


def icp_init(observed, template):
    """Point-to-point ICP with scale onto a Template's dense canonical
    samples, for at most 50 iterations. Neither an iteration's matching
    nor its similarity raises the residual, so the last state is kept.
    """
    observed = _cloud(observed, "observed points")
    if len(observed) < 64:
        raise InvalidInputError("ICP needs >= 64 observed points")
    canon = template.dense_points

    # initial similarity from centroids and RMS radii
    mu_c = canon.mean(axis=0)
    mu_o = observed.mean(axis=0)
    rms_c = np.sqrt(((canon - mu_c) ** 2).sum(axis=1).mean())
    rms_o = np.sqrt(((observed - mu_o) ** 2).sum(axis=1).mean())
    if rms_o == 0.0:
        raise InvalidInputError("ICP needs observed points that do not all "
                                "coincide")
    sigma = rms_o / max(rms_c, 1e-12)
    R = np.eye(3)
    t = mu_o - sigma * (R @ mu_c)

    # a similarity scales every distance by sigma, so the template point
    # nearest to p is the canonical point nearest to R^T (p - t) / sigma:
    # the template's one tree over its canonical points serves every
    # iteration and every call
    tree = template.dense_tree
    prev = np.inf
    for _ in range(50):
        _, idx = tree.query(((observed - t) @ R) / sigma)
        sigma, R, t = _umeyama(canon[idx], observed)
        transformed = (canon[idx] @ R.T) * sigma + t
        residual = float(np.sqrt(((observed - transformed) ** 2)
                                 .sum(axis=1).mean()))
        if abs(prev - residual) < 1e-8:
            break
        prev = residual
    return ObjectState(template.template_id, sigma / template.diagonal_cm,
                       tf.matrix_to_quat(R), t, icp_residual=residual)


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


@dataclass(frozen=True)
class _Observation:
    """What every loss evaluation of one fit shares: the observed cloud,
    its normals (or None), the partial-view direction (or None), and the
    chamfer's observed side ``pc`` with its KD tree."""

    points: np.ndarray
    normals: object
    view_dir: object
    pc: np.ndarray
    pc_tree: cKDTree


def _observation(points, normals):
    view_dir = _view_direction(normals)
    pc = points
    if view_dir is not None:
        # grazing points near the silhouette ring are dropped from the
        # chamfer: the culling boundary cannot match exactly across poses
        solid = normals @ view_dir > GRAZE_COS
        if solid.sum() >= 16:
            pc = points[solid]
    return _Observation(points, normals, view_dir, pc, cKDTree(pc))


def _ose_losses(template, state_vec, base_R, obs):
    """Loss terms and frozen quantities at one state.

    state_vec = [log sigma, T (3), r (3)] with sigma in cm and r composed
    onto base_R. For partial views (``obs.view_dir`` set) the chamfer term
    compares against the predicted-visible template samples only
    (back-face culling), mirroring what a renderer would produce.
    """
    observed, normals, view_dir = obs.points, obs.normals, obs.view_dir
    sigma = float(np.exp(state_vec[0]))
    T = state_vec[1:4]
    R = tf.rotvec_to_matrix(state_vec[4:7]) @ base_R

    u = ((observed - T) @ R) / sigma
    sdf_vals, grads = template.sdf_grid.query_with_gradient(u)
    l_sdf = float(np.abs(sdf_vals).mean())

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
    if view_dir is not None:
        # grazing template samples are dropped too (see _observation)
        facing = (template.samples.normals @ R.T) @ view_dir > GRAZE_COS
        if facing.sum() < 16:
            facing = np.ones(len(recon_all), dtype=bool)
    else:
        facing = np.ones(len(recon_all), dtype=bool)
    recon = recon_all[facing]
    # recon moves with the state; the observed side's tree does not
    d_or, idx_or = cKDTree(recon).query(obs.pc)
    d_ro, idx_ro = obs.pc_tree.query(recon)
    l_pc = float(np.mean(d_or ** 2) + np.mean(d_ro ** 2))

    w_sdf, w_n, w_pc = OSE_WEIGHTS
    total = w_sdf * l_sdf + w_n * l_normal + w_pc * l_pc
    aux = {"sigma": sigma, "T": T, "R": R, "u": u, "sdf": sdf_vals,
           "grads": grads, "n_hat": n_hat, "recon": recon,
           "idx_or": idx_or, "idx_ro": idx_ro}
    return total, {"sdf": l_sdf, "normal": l_normal, "pc": l_pc}, aux


def _ose_gradient(aux, obs):
    """Analytic gradient of the OSE loss at the evaluated state.

    The normal term freezes the grid gradient direction per step and
    differentiates only through the rotation.
    """
    w_sdf, w_n, w_pc = OSE_WEIGHTS
    sigma, T, R = aux["sigma"], aux["T"], aux["R"]
    u, sdf_vals, grads = aux["u"], aux["sdf"], aux["grads"]
    observed, normals = obs.points, obs.normals
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
    obs_pc = obs.pc
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
              loss_ceiling=DEFAULT_LOSS_CEILING):
    """Refine [s, R, T] (and pick the template) for an observed cloud.

    ``init`` seeds its template's optimization and ICP seeds every other
    library template's; the lowest final loss wins. Raises
    UnrecognizedObjectError when no template beats ``loss_ceiling``.

    Each template's descent accepts a step only if it lowers the loss.
    It stops when an accepted step gains less than ``STATE_REL_TOL``
    (1e-6) times the loss it reaches ("tolerance"), when 25 halvings of
    the step find no lower loss ("no_descent"), or after ``max_iters``
    accepted steps ("max_iters"); the returned state's ``steps`` and
    ``stop`` record the winning template's descent.
    """
    if len(library) == 0:
        raise InvalidInputError("the template library is empty")
    observed = _cloud(observed, "observed points")
    if len(observed) == 0:
        raise InvalidInputError("observed points must not be empty")
    if normals is not None:
        normals = _cloud(normals, "observed normals")
        if len(normals) != len(observed):
            raise InvalidInputError(
                f"observed normals must be one per point: {len(normals)} "
                f"for {len(observed)} points")

    obs = _observation(observed, normals)

    best = None
    for template in library:
        state = init
        if init.template_id != template.template_id:
            state = icp_init(observed, template)
        result = _fit_one(obs, template, state, max_iters)
        if best is None or result.losses["total"] < best.losses["total"]:
            best = result
    if best.losses["total"] > loss_ceiling:
        raise UnrecognizedObjectError(
            f"best template {best.template_id!r} loss "
            f"{best.losses['total']:.3f} exceeds ceiling {loss_ceiling}")
    return best


def _fit_one(obs, template, init, max_iters):
    base_R = tf.quat_to_matrix(init.rotation)
    log_diag = np.log(template.diagonal_cm)
    x = np.concatenate([[np.log(init.s * template.diagonal_cm)],
                        init.translation, np.zeros(3)])

    value, terms, aux = _ose_losses(template, x, base_R, obs)
    step = 0.01
    steps, stop = 0, "max_iters"
    for _ in range(max_iters):
        grad = _ose_gradient(aux, obs)
        accepted = False
        for _ in range(25):
            xc = x - step * grad
            # a candidate scale outside SCALE_LIMIT is rejected before any
            # loss divides by it
            if abs(xc[0] - log_diag) <= np.log(SCALE_LIMIT):
                # re-compose the rotation increment into the base each step
                cand_value, cand_terms, cand_aux = _ose_losses(
                    template, xc, base_R, obs)
                if cand_value < value - 1e-15:
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            stop = "no_descent"
            break
        gain = value - cand_value
        # fold the accepted rotation increment into the base: the same
        # state with a fresh zero increment, so the candidate's evaluation
        # (its R is this base_R) stands
        base_R = cand_aux["R"]
        x = np.concatenate([xc[:4], np.zeros(3)])
        value, terms, aux = cand_value, cand_terms, cand_aux
        steps += 1
        if gain < STATE_REL_TOL * value:
            stop = "tolerance"
            break

    sigma = float(np.exp(x[0]))
    quat = tf.matrix_to_quat(base_R)
    losses = {"total": value, **terms}
    return ObjectState(template.template_id, sigma / template.diagonal_cm,
                       quat, x[1:4], losses=losses,
                       icp_residual=init.icp_residual, steps=steps, stop=stop)


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
    """An ``ObjectState`` from an objstate/1 document; a scale that is not
    positive or a rotation that is not a unit quaternion is an
    InvalidInputError."""
    where = document(doc, OBJSTATE_SCHEMA)
    with keys_of(where):
        template_id = typed(doc["template_id"], str, where, "template_id",
                            "a string")
        s = number(doc["s"], where, "s", "a finite number")
        rotation = quaternion(doc["rotation"], where, "rotation",
                              "a quaternion [w, x, y, z]")
        translation = vector(doc["translation"], 3, where, "translation")
    if s <= 0:
        raise InvalidInputError(f"{where}: 's' must be positive, got {s!r}")
    losses = typed(doc.get("losses", {}), dict, where, "losses",
                   "an object of finite numbers")
    vector(list(losses.values()), None, where, "losses",
           "an object of finite numbers")
    res = doc.get("icp_residual")
    if res is not None:
        number(res, where, "icp_residual", "a finite number or null")
    return ObjectState(template_id, float(s), rotation, translation,
                       losses={k: float(v) for k, v in losses.items()},
                       icp_residual=np.nan if res is None else float(res))


def save_state(path, state):
    with open(path, "w") as fh:
        json.dump(state_to_dict(state), fh, indent=1)


def load_state(path):
    return state_from_dict(read_json(path))
