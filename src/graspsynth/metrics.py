"""Grasp and reconstruction evaluation metrics.

Force-closure quality is the radius of the largest origin-centered ball
inside the convex hull of the contact wrenches (point contact with
friction, cone discretized into m edges, torques scaled by
``torque_scale``). Penetration metrics follow the voxel convention at
0.25 cm. The dynamics shake test is replaced by a quasi-static closure
check (joints flexed +10 degrees toward the palm, per-joint stop at
first contact); its results are labeled ``closure_success`` so they are
never conflated with simulator success rates.
"""

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from . import transforms as tf
from .closure import march_closure
from .contact import digitize
from .documents import document, list_of, number, typed
from .errors import InvalidInputError
from .geometry import bbox_diagonal, sample_surface
from .geometry.grid import cell_centers, padded_layout
from .hands.model import Grasp, forward_kinematics

METRICS_SCHEMA = "metrics/1"
VOXEL_SPACING = 0.25  # cm
CONE_EDGES = 8
FRICTION_MU = 0.5


@dataclass
class ContactSet:
    """Contact points with inward unit normals and a friction model."""

    points: np.ndarray
    normals: np.ndarray
    mu: float = FRICTION_MU
    cone_edges: int = CONE_EDGES

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, float))
        self.normals = np.atleast_2d(np.asarray(self.normals, float))
        if self.mu < 0:
            raise InvalidInputError("friction coefficient must be >= 0")
        if self.cone_edges < 3:
            raise InvalidInputError("cone discretization needs >= 3 edges")
        norms = np.linalg.norm(self.normals, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-6):
            self.normals = self.normals / np.maximum(norms[:, None], 1e-12)

    def __len__(self):
        return len(self.points)


def _tangent_basis(n):
    helper = np.where(np.abs(n[:, [0]]) < 0.9,
                      np.array([[1.0, 0.0, 0.0]]),
                      np.array([[0.0, 1.0, 0.0]]))
    t1 = np.cross(n, helper)
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    t2 = np.cross(n, t1)
    return t1, t2


def wrench_set(contacts, torque_scale, origin=(0.0, 0.0, 0.0)):
    """Discretized friction-cone wrenches, shape (len * cone_edges, 6).

    Forces are cone edges with unit normal component; torques are
    (r x f) / torque_scale about ``origin``.
    """
    origin = np.asarray(origin, float)
    n = contacts.normals
    t1, t2 = _tangent_basis(n)
    ang = np.linspace(0.0, 2.0 * np.pi, contacts.cone_edges, endpoint=False)
    forces = (n[:, None, :]
              + contacts.mu * (np.cos(ang)[None, :, None] * t1[:, None, :]
                               + np.sin(ang)[None, :, None] * t2[:, None, :]))
    r = contacts.points - origin
    torques = np.cross(r[:, None, :], forces) / torque_scale
    return np.concatenate([forces, torques], axis=2).reshape(-1, 6)


def epsilon_quality(contacts, torque_scale, origin=(0.0, 0.0, 0.0)):
    """Largest ball around the wrench-space origin inside the hull.

    Zero when the origin is not strictly interior (no force closure) or
    the wrench set is rank-deficient.
    """
    if len(contacts) < 1:
        raise InvalidInputError("epsilon quality needs at least one contact")
    wrenches = wrench_set(contacts, torque_scale, origin)
    hull = None
    for options in ("", "QJ"):  # joggle breaks near-degenerate merges
        try:
            hull = ConvexHull(wrenches, qhull_options=options or None)
            break
        except QhullError:
            continue
    if hull is None:
        return 0.0
    offsets = hull.equations[:, -1]
    # require the origin strictly inside beyond joggle-scale noise
    if np.any(offsets >= -1e-9):
        return 0.0
    return float(-offsets.max())


def penetration(posed, object_sdf):
    """(max depth cm, overlap volume cm^3) of a posed hand into an object.

    Depth is the deepest hand sample under the object's ``MeshSDF``.
    Volume counts the cells of the object's padded voxel grid
    (``voxelize`` layout) whose centers are inside both the hand and the
    object; only the cells inside the hand ask ``object_sdf.inside``.
    """
    if not object_sdf.watertight:
        raise InvalidInputError("penetration requires a watertight mesh")
    pts = posed.sample_points
    depth = float(np.maximum(-object_sdf.query(pts), 0.0).max(initial=0.0))

    origin, dims = padded_layout(*object_sdf.mesh.bounds(), VOXEL_SPACING)
    centers = cell_centers(origin, VOXEL_SPACING, dims)
    in_hand = centers[posed.sdf(centers) < 0]
    volume = (float(np.count_nonzero(object_sdf.inside(in_hand)))
              * VOXEL_SPACING ** 3)
    return depth, volume


def self_penetration(posed):
    """(max depth cm, overlap volume cm^3) between non-adjacent links."""
    depth = float(np.maximum(-posed.self_distances(), 0.0).max(initial=0.0))
    if depth == 0.0:
        return 0.0, 0.0

    all_pts = posed.sample_points
    origin, dims = padded_layout(all_pts.min(axis=0), all_pts.max(axis=0),
                                 VOXEL_SPACING)
    centers = cell_centers(origin, VOXEL_SPACING, dims)
    inside = posed.link_distances(centers) < 0
    pairs = posed.spec.self_contact_links()
    overlap = np.zeros(len(centers), dtype=bool)
    for a in range(len(inside)):
        overlap |= inside[a] & inside[pairs[a]].any(axis=0)
    return depth, float(np.count_nonzero(overlap)) * VOXEL_SPACING ** 3


def functionality_pr(generated, truth):
    """Precision/recall of two object contact maps (omega arrays on a
    shared sample set) binarized at 0.5.

    Returns (precision, recall, flags). Empty prediction gives precision
    0; empty truth gives recall 1 (flagged).
    """
    om_g = np.asarray(generated, float)
    om_t = np.asarray(truth, float)
    if om_g.shape != om_t.shape:
        raise InvalidInputError(
            f"contact map sample sets differ: {om_g.shape} vs {om_t.shape}")
    pred = om_g >= 0.5
    true = om_t >= 0.5
    inter = int(np.count_nonzero(pred & true))
    flags = []
    if pred.any():
        precision = inter / int(pred.sum())
    else:
        precision = 0.0
        flags.append("empty_prediction")
    if true.any():
        recall = inter / int(true.sum())
    else:
        recall = 1.0
        flags.append("empty_truth")
    return precision, recall, flags


def hrd(p, q):
    """Hand rotation distance 2*arccos(|<p, q>|) in [0, pi]."""
    p = np.asarray(p, float)
    q = np.asarray(q, float)
    if abs(np.linalg.norm(p) - 1.0) > 1e-8 or abs(np.linalg.norm(q) - 1.0) > 1e-8:
        warnings.warn("non-unit quaternion in hrd; normalizing")
        p = p / np.linalg.norm(p)
        q = q / np.linalg.norm(q)
    return tf.quat_rotation_distance(p, q)


def ncd(reconstructed, truth_mesh, n=2048, seed=0):
    """Chamfer distance normalized by the truth bounding-box diagonal."""
    from .geometry import chamfer
    rec = np.asarray(getattr(reconstructed, "points", reconstructed), float)
    truth = sample_surface(truth_mesh, n=n, seed=seed).points
    return chamfer(rec, truth) / bbox_diagonal(truth_mesh)


@dataclass
class ClosureOutcome:
    success: bool
    epsilon: float
    links_in_contact: int
    contact_count: int
    closed_q: np.ndarray


CONTACT_BAND = 0.25  # cm; compliance stand-in for contact patch extraction


def closure_contacts(spec, grasp, object_sdf):
    """Flex joints +10 degrees toward the palm and collect the contacts.

    Joints stop marching at ``STOP_SDF``; samples within ``CONTACT_BAND``
    of the surface then count as contacts (a rigid-body proxy for the
    finite contact patches a compliant closure would produce).
    """
    q = march_closure(spec, grasp, object_sdf.query, delta=np.deg2rad(10.0))
    closed = Grasp(q, grasp.rotation.copy(), grasp.translation.copy())
    pts = forward_kinematics(spec, closed).sample_points
    touching = object_sdf.query(pts) <= CONTACT_BAND
    links = set(spec.sample_links()[touching].tolist())
    contacts = None
    if np.any(touching):
        # normals only where there is contact (a point's value does not
        # depend on the rest of the batch); forces push into the object
        _, grads = object_sdf.query_with_gradient(pts[touching])
        contacts = ContactSet(pts[touching], -grads)
    return contacts, links, q


def closure_success(spec, grasp, object_sdf):
    """Quasi-static success proxy: force closure after +10 degree flexion.

    Success iff the post-closure contact set has positive wrench-space
    quality and spans at least two distinct links. Returns the
    ``ClosureOutcome``.
    """
    contacts, links, q = closure_contacts(spec, grasp, object_sdf)
    mesh = object_sdf.mesh
    lo, hi = mesh.bounds()
    center = (lo + hi) / 2.0
    torque_scale = bbox_diagonal(mesh) / 2.0
    if contacts is None or len(links) < 2:
        return ClosureOutcome(False, 0.0, len(links),
                              0 if contacts is None else len(contacts), q)
    eps = epsilon_quality(contacts, torque_scale, origin=center)
    return ClosureOutcome(eps > 0.0 and len(links) >= 2, eps, len(links),
                          len(contacts), q)


# ---------------------------------------------------------------------------
# aggregated per-grasp report


@dataclass
class MetricsReport:
    epsilon: float = 0.0
    penetration_depth: float = 0.0
    penetration_volume: float = 0.0
    self_penetration_depth: float = 0.0
    self_penetration_volume: float = 0.0
    functionality_precision: float = np.nan
    functionality_recall: float = np.nan
    hrd: float = np.nan
    iou: float = np.nan
    ncd: float = np.nan
    closure_success: bool = False
    flags: list = field(default_factory=list)

    def validate(self):
        if not self.epsilon >= 0:
            raise InvalidInputError(f"epsilon must be >= 0, got {self.epsilon}")
        for name in ("functionality_precision", "functionality_recall",
                     "iou"):
            v = getattr(self, name)
            if not (np.isnan(v) or 0.0 <= v <= 1.0):
                raise InvalidInputError(f"{name} must be in [0, 1], got {v}")
        if not (np.isnan(self.hrd) or 0.0 <= self.hrd <= np.pi + 1e-9):
            raise InvalidInputError(f"hrd must be in [0, pi], got {self.hrd}")
        return self


CSV_COLUMNS = [
    "object", "grasp", "epsilon", "penetration_depth", "penetration_volume",
    "self_penetration_depth", "self_penetration_volume",
    "functionality_precision", "functionality_recall", "hrd", "iou", "ncd",
    "closure_success", "flags",
]


def evaluate_grasp(spec, grasp, object_sdf, truth_bundle=None,
                   hrd_reference=None):
    """Full metric suite for one grasp on one object (its ``MeshSDF``)."""
    if not object_sdf.watertight:
        raise InvalidInputError("evaluate_grasp requires a watertight mesh")
    posed = forward_kinematics(spec, grasp)
    report = MetricsReport()
    report.flags = list(grasp.flags)

    depth, volume = penetration(posed, object_sdf)
    report.penetration_depth = depth
    report.penetration_volume = volume
    sp_depth, sp_volume = self_penetration(posed)
    report.self_penetration_depth = sp_depth
    report.self_penetration_volume = sp_volume

    outcome = closure_success(spec, grasp, object_sdf)
    report.closure_success = outcome.success
    report.epsilon = outcome.epsilon

    if truth_bundle is not None:
        generated = digitize(posed.sdf(truth_bundle.object_points))
        p, r, fl = functionality_pr(generated, truth_bundle.omega_object)
        report.functionality_precision = p
        report.functionality_recall = r
        report.flags += fl
    if hrd_reference is not None:
        report.hrd = hrd(grasp.rotation, np.asarray(hrd_reference, float))
    return report.validate()


def report_to_dict(report, object_name="", grasp_name=""):
    doc = {"schema": METRICS_SCHEMA, "object": object_name,
           "grasp": grasp_name}
    for key in CSV_COLUMNS[2:-1]:
        value = getattr(report, key)
        if isinstance(value, (bool, np.bool_)):
            doc[key] = bool(value)
        else:
            doc[key] = None if (isinstance(value, float) and np.isnan(value)) \
                else float(value)
    doc["flags"] = list(report.flags)
    return doc


def report_from_dict(doc):
    """A ``MetricsReport`` from a metrics/1 document: each metric a finite
    number or null, ``closure_success`` a bool, ``flags`` strings."""
    where = document(doc, METRICS_SCHEMA)
    report = MetricsReport()
    for key in CSV_COLUMNS[2:-2]:
        value = doc.get(key)
        setattr(report, key, np.nan if value is None else float(number(
            value, where, key, "a finite number or null")))
    report.closure_success = typed(doc.get("closure_success", False), bool,
                                   where, "closure_success", "a bool")
    report.flags = list(list_of(doc.get("flags", []), str, None, where,
                                "flags", "a list of strings"))
    return report


def write_csv(path, rows):
    """rows: iterable of (object_name, grasp_name, MetricsReport)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for object_name, grasp_name, report in rows:
            doc = report_to_dict(report, object_name, grasp_name)
            writer.writerow([
                doc["object"], doc["grasp"],
                *["" if doc[k] is None else doc[k] for k in CSV_COLUMNS[2:-1]],
                ";".join(doc["flags"]),
            ])
