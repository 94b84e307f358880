"""Hand-object contact extraction from demonstrations.

The contact map digitizes truncated signed distances through a sigmoid:
d = max(0, sdf), omega = 1 - 2*(sigmoid(2 d) - 0.5), with d in cm, so
omega is 1 at touch and decays to ~0.24 at 1 cm. Points closer than
``TAU_CONTACT`` join the contact set; those are partitioned by nearest
hand segment and pinned to their nearest anchor point.
"""

import json
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import transforms as tf
from .errors import InvalidInputError, SchemaError
from .geometry import MeshSDF, TriMesh, sample_surface
from .hands.model import PosedHand, forward_kinematics

TAU_CONTACT = 0.5  # cm; membership threshold for the contact sets
CONTACTS_SCHEMA = "contacts/1"
DEMO_SCHEMA = "demo/1"


def digitize(distances):
    """Map non-negative surface distances (cm) to contact values in [0, 1]."""
    d = np.maximum(np.asarray(distances, dtype=float), 0.0)
    return 2.0 - 2.0 / (1.0 + np.exp(-2.0 * d))


@dataclass
class Demonstration:
    """A posed, segmented demonstrator hand around an object.

    Segment naming matches the demonstrator HandSpec so downstream
    consumers can align robot links by name. ``task_points`` are the
    fingertip task vectors in the wrist frame.
    """

    object_mesh: TriMesh
    segments: dict                 # name -> SurfaceSamples (world)
    q: dict                        # joint name -> radians
    wrist_rotation: np.ndarray     # unit quaternion (w, x, y, z)
    wrist_translation: np.ndarray
    anchors: dict                  # anchor name -> world position
    task_points: dict              # fingertip name -> wrist-frame position
    hand_sdf: object               # world points -> signed distance to hand

    @property
    def segment_names(self):
        return list(self.segments)


def demonstration_from_hand(spec, grasp, object_mesh):
    """Realize a demonstration from a posed hand spec.

    Stands in for deformable demonstrator hand models: the posed link
    primitives provide the segmented surface and exact SDFs.
    """
    posed = forward_kinematics(spec, grasp)
    segments = {}
    for i in spec.segment_links():
        name = spec.links[i].name
        segments[name] = posed.samples[i]
    anchors = {a.name: p for a, p in zip(spec.anchors, posed.anchor_points)}
    Rw, tw = grasp.wrist_matrix()
    task_points = {f.name: Rw.T @ (p - tw)
                   for f, p in zip(spec.fingertip_frames, posed.fingertip_points)}
    q = {l.name: float(grasp.q[l.dof_index]) for l in spec.links
         if l.joint_type == "revolute"}
    return Demonstration(object_mesh, segments, q, grasp.rotation.copy(),
                         grasp.translation.copy(), anchors, task_points,
                         posed.sdf)


# ---------------------------------------------------------------------------
# contact structure


@dataclass
class ContactBundle:
    """Universal contact maps plus knuckle-level and anchor-level structure."""

    object_points: np.ndarray
    object_normals: np.ndarray
    omega_object: np.ndarray
    contact_object: np.ndarray            # indices into object_points (O^c)
    segment_names: list
    omega_hand: dict                      # segment -> per-sample omega
    contact_hand: dict                    # segment -> sample indices (M^c)
    knuckle_partition: dict               # segment -> indices into object_points
    anchor_assignment: dict               # anchor -> (indices, squared dists)
    tau_c: float = TAU_CONTACT
    template_id: str = ""

    def validate(self):
        n = len(self.object_points)
        if np.any((self.omega_object < 0) | (self.omega_object > 1)):
            raise InvalidInputError("omega_object out of [0, 1]")
        seen = set()
        for name, idx in self.knuckle_partition.items():
            s = set(int(i) for i in idx)
            if seen & s:
                raise InvalidInputError("knuckle partition sets overlap")
            seen |= s
        if seen != set(int(i) for i in self.contact_object):
            raise InvalidInputError("knuckle partition must cover O^c exactly")
        for name, (idx, delta) in self.anchor_assignment.items():
            if not set(int(i) for i in idx) <= set(int(i) for i in self.contact_object):
                raise InvalidInputError(f"anchor {name} assigned outside O^c")
            if np.any(delta < 0):
                raise InvalidInputError("negative anchor distance")
        if np.any(self.contact_object >= n):
            raise InvalidInputError("contact index out of range")
        return self


def _resolve_hand_sdf(hand_surface):
    if isinstance(hand_surface, Demonstration):
        return hand_surface.hand_sdf
    if isinstance(hand_surface, PosedHand):
        return hand_surface.sdf
    if isinstance(hand_surface, TriMesh):
        return MeshSDF(hand_surface).query
    raise InvalidInputError(f"unsupported hand surface {type(hand_surface)}")


def object_contact_map(object_samples, hand_surface, tau_c=TAU_CONTACT):
    """Per-object-sample contact values and the contact set O^c."""
    sdf = _resolve_hand_sdf(hand_surface)
    d = np.maximum(sdf(object_samples.points), 0.0)
    omega = digitize(d)
    contact = np.nonzero(d <= tau_c)[0]
    return omega, contact


def hand_contact_map(hand, object_mesh, tau_c=TAU_CONTACT, object_sdf=None):
    """Per-segment contact values on the hand, concatenated in segment order.

    ``hand`` may be a Demonstration or a PosedHand. Returns
    (omega_by_segment, contact_by_segment).
    """
    if object_sdf is None:
        object_sdf = MeshSDF(object_mesh).query
    if isinstance(hand, Demonstration):
        segments = hand.segments
    elif isinstance(hand, PosedHand):
        segments = {hand.spec.links[i].name: hand.samples[i]
                    for i in hand.spec.segment_links()}
    else:
        raise InvalidInputError(f"unsupported hand {type(hand)}")
    omega = {}
    contact = {}
    for name, samples in segments.items():
        d = np.maximum(object_sdf(samples.points), 0.0)
        omega[name] = digitize(d)
        contact[name] = np.nonzero(d <= tau_c)[0]
    return omega, contact


def knuckle_partition(contact_points, segment_samples):
    """Assign each contact point to its closest hand segment.

    ``segment_samples`` maps segment name to sample points; ties break
    toward the earlier segment in dict order.
    """
    names = list(segment_samples)
    out = {name: [] for name in names}
    pts = np.atleast_2d(contact_points)
    if len(pts) == 0 or pts.size == 0:
        return {name: np.array([], dtype=np.int64) for name in names}
    dists = np.column_stack([
        cKDTree(np.atleast_2d(_points_of(segment_samples[name]))).query(pts)[0]
        for name in names])
    # strict argmin on the first axis keeps the lowest-index tie winner
    owner = dists.argmin(axis=1)
    for k, name in enumerate(names):
        out[name] = np.nonzero(owner == k)[0].astype(np.int64)
    return out


def _points_of(samples):
    return samples.points if hasattr(samples, "points") else np.asarray(samples)


def anchor_assignment(contact_points, anchors):
    """Pin each contact point to its nearest anchor.

    ``anchors`` maps anchor name to world position. Returns
    anchor -> (point indices, squared projection distances).
    """
    names = list(anchors)
    if not names:
        raise InvalidInputError("anchor set must be non-empty")
    pts = np.atleast_2d(contact_points)
    out = {name: (np.array([], dtype=np.int64), np.array([])) for name in names}
    if len(pts) == 0 or pts.size == 0:
        return out
    positions = np.array([anchors[n] for n in names])
    d = np.linalg.norm(pts[:, None, :] - positions[None, :, :], axis=2)
    owner = d.argmin(axis=1)
    delta = d[np.arange(len(pts)), owner] ** 2
    for k, name in enumerate(names):
        idx = np.nonzero(owner == k)[0].astype(np.int64)
        out[name] = (idx, delta[idx])
    return out


def extract_bundle(demo, n_samples=2048, seed=0, tau_c=TAU_CONTACT):
    """Full contact extraction for one demonstration: universal maps,
    contact sets, knuckle-level partition, and anchor assignment."""
    samples = sample_surface(demo.object_mesh, n=n_samples, seed=seed)
    omega_o, contact_o = object_contact_map(samples, demo, tau_c)
    omega_h, contact_h = hand_contact_map(demo, demo.object_mesh, tau_c)
    contact_pts = samples.points[contact_o]
    partition_local = knuckle_partition(contact_pts, demo.segments)
    partition = {name: contact_o[idx] for name, idx in partition_local.items()}
    if demo.anchors:
        assign_local = anchor_assignment(contact_pts, demo.anchors)
        assignment = {name: (contact_o[idx], delta)
                      for name, (idx, delta) in assign_local.items()}
    else:
        assignment = {}
    bundle = ContactBundle(samples.points, samples.normals, omega_o, contact_o,
                           demo.segment_names, omega_h, contact_h, partition,
                           assignment, tau_c=tau_c)
    return bundle.validate()


# ---------------------------------------------------------------------------
# serialization


def bundle_to_dict(bundle):
    return {
        "schema": CONTACTS_SCHEMA,
        "tau_c": bundle.tau_c,
        "template_id": bundle.template_id,
        "object_points": bundle.object_points.tolist(),
        "object_normals": bundle.object_normals.tolist(),
        "omega_object": bundle.omega_object.tolist(),
        "contact_object": bundle.contact_object.tolist(),
        "segment_names": list(bundle.segment_names),
        "omega_hand": {k: np.asarray(v).tolist()
                       for k, v in bundle.omega_hand.items()},
        "contact_hand": {k: np.asarray(v).tolist()
                         for k, v in bundle.contact_hand.items()},
        "knuckle_partition": {k: np.asarray(v).tolist()
                              for k, v in bundle.knuckle_partition.items()},
        "anchor_assignment": {k: {"indices": np.asarray(i).tolist(),
                                  "delta": np.asarray(d).tolist()}
                              for k, (i, d) in bundle.anchor_assignment.items()},
    }


def bundle_from_dict(doc):
    if doc.get("schema") != CONTACTS_SCHEMA:
        raise SchemaError(f"expected {CONTACTS_SCHEMA}, got {doc.get('schema')!r}")
    return ContactBundle(
        np.asarray(doc["object_points"], float),
        np.asarray(doc["object_normals"], float),
        np.asarray(doc["omega_object"], float),
        np.asarray(doc["contact_object"], np.int64),
        list(doc["segment_names"]),
        {k: np.asarray(v, float) for k, v in doc["omega_hand"].items()},
        {k: np.asarray(v, np.int64) for k, v in doc["contact_hand"].items()},
        {k: np.asarray(v, np.int64) for k, v in doc["knuckle_partition"].items()},
        {k: (np.asarray(v["indices"], np.int64), np.asarray(v["delta"], float))
         for k, v in doc["anchor_assignment"].items()},
        tau_c=float(doc.get("tau_c", TAU_CONTACT)),
        template_id=doc.get("template_id", ""),
    ).validate()


def save_bundle(path, bundle):
    with open(path, "w") as fh:
        json.dump(bundle_to_dict(bundle), fh)


def load_bundle(path):
    with open(path) as fh:
        return bundle_from_dict(json.load(fh))


# demo/1: object + hand spec reference + grasp parameters


def save_demo(path, object_path, handspec_path, grasp, note=""):
    doc = {
        "schema": DEMO_SCHEMA,
        "object": str(object_path),
        "handspec": str(handspec_path),
        "q": [float(v) for v in grasp.q],
        "wrist": {"rotation": [float(v) for v in grasp.rotation],
                  "translation": [float(v) for v in grasp.translation]},
        "note": note,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def load_demo(path, base_dir=None):
    """Load a demo/1 file into a Demonstration (realizes the hand via FK)."""
    import pathlib

    from .geometry import load_mesh
    from .hands.model import Grasp
    from .hands.schema import load_handspec
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != DEMO_SCHEMA:
        raise SchemaError(f"expected {DEMO_SCHEMA}, got {doc.get('schema')!r}")
    base = pathlib.Path(base_dir) if base_dir else pathlib.Path(path).parent

    def resolve(p):
        p = pathlib.Path(p)
        return p if p.is_absolute() else base / p

    spec = load_handspec(resolve(doc["handspec"]))
    mesh = load_mesh(resolve(doc["object"]))
    grasp = Grasp(np.asarray(doc["q"], float),
                  np.asarray(doc["wrist"]["rotation"], float),
                  np.asarray(doc["wrist"]["translation"], float))
    return demonstration_from_hand(spec, grasp, mesh), spec, grasp


def rigid_transform_demo(demo, R, t):
    """Apply one rigid transform to the whole demonstration scene."""
    Rq = tf.matrix_to_quat(R)
    segments = {k: s.transformed(R, t) for k, s in demo.segments.items()}
    return Demonstration(
        demo.object_mesh.transformed(R, t), segments, dict(demo.q),
        tf.quat_mul(Rq, demo.wrist_rotation), R @ demo.wrist_translation + t,
        {k: R @ v + t for k, v in demo.anchors.items()},
        dict(demo.task_points), _transformed_sdf(demo.hand_sdf, R, t))


def _transformed_sdf(fn, R, t):
    def wrapped(points):
        return fn((np.atleast_2d(points) - t) @ R)
    return wrapped
