"""Articulated hand model: kinematic chain, coupling, anchors, Jacobians.

Links are stored in topological order (parent before child). Each link
carries one joint (revolute about a unit axis in the parent frame, or
fixed) plus zero or more solid primitives. ``q`` indexes the revolute
links in link order; ``H`` is the wrist pose applied ahead of every
root link.
"""

from dataclasses import dataclass, field

import numpy as np

from .. import transforms as tf
from ..errors import InvalidInputError
from ..geometry import sample_surface, tessellate
from ..geometry.mesh import merge_meshes
from ..geometry.primitives import PrimitiveStack


@dataclass
class Link:
    name: str
    parent: int
    origin_rotation: np.ndarray
    origin_translation: np.ndarray
    joint_type: str = "revolute"          # or "fixed"
    axis: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.0, 0.0]))
    limits: tuple = (0.0, 0.0)
    flexion_sign: float = 1.0             # +q direction that closes toward the palm
    primitives: list = field(default_factory=list)
    sample_count: int = 0
    dof_index: int = -1                   # filled by HandSpec


@dataclass
class Anchor:
    name: str
    link: int
    local: np.ndarray


@dataclass
class FingertipFrame:
    name: str
    link: int
    local: np.ndarray


class HandSpec:
    """Immutable hand description.

    coupling maps actuated values (DoA) to the full joint vector (DoF):
    q = coupling @ actuated. actuated_limits bound the actuated values;
    the mapped q must stay inside the joint limits for any in-range
    actuated vector (validated here).
    """

    def __init__(self, name, links, anchors=(), fingertip_frames=(),
                 coupling=None, actuated_names=None, actuated_limits=None,
                 human_joint_map=None, sample_seed=0):
        self.name = name
        self.links = list(links)
        self.anchors = list(anchors)
        self.fingertip_frames = list(fingertip_frames)
        self.human_joint_map = dict(human_joint_map or {})

        dof = 0
        for i, link in enumerate(self.links):
            if link.parent >= i:
                raise InvalidInputError(
                    f"link {link.name}: parent must precede it (topological order)")
            link.origin_rotation = np.asarray(link.origin_rotation, dtype=float)
            link.origin_translation = np.asarray(link.origin_translation, dtype=float)
            if link.joint_type == "revolute":
                link.axis = np.asarray(link.axis, dtype=float)
                n = np.linalg.norm(link.axis)
                if abs(n - 1.0) > 1e-8:
                    raise InvalidInputError(f"link {link.name}: axis must be unit")
                if link.limits[0] > link.limits[1]:
                    raise InvalidInputError(f"link {link.name}: limits lo > hi")
                link.dof_index = dof
                dof += 1
            elif link.joint_type != "fixed":
                raise InvalidInputError(f"link {link.name}: bad joint type")
        self.dof = dof
        self.lower = np.array([l.limits[0] for l in self.links
                               if l.joint_type == "revolute"])
        self.upper = np.array([l.limits[1] for l in self.links
                               if l.joint_type == "revolute"])

        if coupling is None:
            self.coupling = np.eye(dof)
            self.actuated_names = [l.name for l in self.links
                                   if l.joint_type == "revolute"]
            self.actuated_limits = np.column_stack([self.lower, self.upper])
        else:
            self.coupling = np.asarray(coupling, dtype=float)
            if self.coupling.shape[0] != dof:
                raise InvalidInputError("coupling rows must equal DoF")
            self.actuated_names = list(actuated_names)
            self.actuated_limits = np.asarray(actuated_limits, dtype=float)
            if self.coupling.shape[1] != len(self.actuated_names):
                raise InvalidInputError("coupling cols must equal DoA")
            self._validate_coupling_range()
        self.doa = self.coupling.shape[1]

        self._name_to_index = {l.name: i for i, l in enumerate(self.links)}
        for a in list(self.anchors) + list(self.fingertip_frames):
            a.local = np.asarray(a.local, dtype=float)
            if not (0 <= a.link < len(self.links)):
                raise InvalidInputError(f"{a.name}: link index out of range")

        self._local_samples = None
        self._sample_seed = sample_seed
        self._link_meshes = None
        self._primitive_stacks = {}
        self._self_contact_mask = None

    def _validate_coupling_range(self):
        lo_a, hi_a = self.actuated_limits[:, 0], self.actuated_limits[:, 1]
        lo_ext = np.minimum(self.coupling * lo_a, self.coupling * hi_a).sum(axis=1)
        hi_ext = np.maximum(self.coupling * lo_a, self.coupling * hi_a).sum(axis=1)
        if np.any(lo_ext < self.lower - 1e-9) or np.any(hi_ext > self.upper + 1e-9):
            raise InvalidInputError(
                f"{self.name}: coupling range exceeds joint limits")

    # -- derived geometry ---------------------------------------------------

    def link_index(self, name):
        return self._name_to_index[name]

    def segment_links(self):
        """Indices of links with geometry (the hand segments M^i)."""
        return [i for i, l in enumerate(self.links) if l.primitives]

    def link_meshes(self):
        """Tessellated union mesh per link, in the link frame (lazy)."""
        if self._link_meshes is None:
            self._link_meshes = {}
            for i, link in enumerate(self.links):
                if link.primitives:
                    self._link_meshes[i] = merge_meshes(
                        [tessellate(p) for p in link.primitives])
        return self._link_meshes

    def local_samples(self):
        """Per-link surface samples in the link frame (lazy, deterministic)."""
        if self._local_samples is None:
            self._local_samples = {}
            meshes = self.link_meshes()
            for i, link in enumerate(self.links):
                if link.primitives and link.sample_count > 0:
                    self._local_samples[i] = sample_surface(
                        meshes[i], n=link.sample_count,
                        seed=self._sample_seed + i)
        return self._local_samples

    @property
    def adjacent_pairs(self):
        """Parent-child link pairs, excluded from self-penetration."""
        pairs = set()
        for i, link in enumerate(self.links):
            j = link.parent
            # walk through virtual links so geometric neighbors stay adjacent
            while j >= 0 and not self.links[j].primitives:
                j = self.links[j].parent
            if j >= 0:
                pairs.add((j, i))
                pairs.add((i, j))
        return pairs

    def primitive_stack(self, link=None):
        """SDF kernel over every segment link's primitives, or over those
        of one link (lazy)."""
        if link not in self._primitive_stacks:
            links = self.segment_links() if link is None else [link]
            self._primitive_stacks[link] = PrimitiveStack(
                {i: self.links[i].primitives for i in links})
        return self._primitive_stacks[link]

    def sample_links(self):
        """Owning link of each row of the stacked hand samples."""
        samples = self.local_samples()
        return np.concatenate([np.full(len(samples[i].points), i)
                               for i in sorted(samples)]).astype(np.intp)

    def self_contact_links(self):
        """(L, L) bool over segment_links(): the link pairs that count in
        self-contact, i.e. distinct and not adjacent."""
        segs, adjacent = self.segment_links(), self.adjacent_pairs
        return np.array([[a != b and (a, b) not in adjacent for b in segs]
                         for a in segs], dtype=bool)

    def self_contact_mask(self):
        """(L, N) bool (lazy): self_contact_links() rows against the link
        of each stacked hand sample, so entry (l, n) says whether sample n
        counts against segment link l."""
        if self._self_contact_mask is None:
            columns = np.searchsorted(self.segment_links(), self.sample_links())
            self._self_contact_mask = self.self_contact_links()[:, columns]
        return self._self_contact_mask


@dataclass
class Grasp:
    """Joint vector (radians, full DoF) plus wrist pose.

    Rotation is a unit quaternion (w, x, y, z); translation is cm.
    """

    q: np.ndarray
    rotation: np.ndarray
    translation: np.ndarray
    flags: list = field(default_factory=list)

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.rotation = np.asarray(self.rotation, dtype=float)
        self.translation = np.asarray(self.translation, dtype=float)
        if abs(np.linalg.norm(self.rotation) - 1.0) > 1e-8:
            raise InvalidInputError("grasp rotation must be a unit quaternion")

    def wrist_matrix(self):
        return tf.quat_to_matrix(self.rotation), self.translation

    def copy(self):
        return Grasp(self.q.copy(), self.rotation.copy(),
                     self.translation.copy(), list(self.flags))


@dataclass
class PosedHand:
    """Forward-kinematics result: world link poses and derived points."""

    spec: HandSpec
    grasp: Grasp
    rotations: np.ndarray        # (L, 3, 3)
    translations: np.ndarray     # (L, 3)
    samples: dict                # link index -> world SurfaceSamples
    anchor_points: np.ndarray    # (A, 3)
    fingertip_points: np.ndarray  # (F, 3)

    def segment_points(self, i):
        return self.samples[i].points

    def all_sample_points(self):
        idx = sorted(self.samples)
        return np.vstack([self.samples[i].points for i in idx]), idx

    def sdf(self, points, with_gradient=False):
        """Signed distance to the whole hand (min across link primitives).

        With ``with_gradient``: (distance, world gradient, nearest link).
        """
        return self.spec.primitive_stack().query(
            self.rotations, self.translations, points, with_gradient)

    def link_sdf(self, i, points):
        """SDF of one link's primitive union and its world gradient."""
        d, g, _ = self.spec.primitive_stack(i).query(
            self.rotations, self.translations, points, with_gradient=True)
        return d, g

    def link_distances(self, points):
        """(L, N) SDF of every segment link (rows in segment_links() order)."""
        return self.spec.primitive_stack().owner_distances(
            self.rotations, self.translations, points)

    def self_distances(self):
        """(L, N) distance of every hand sample to every segment link.

        Columns are the stacked hand samples (all_sample_points); pairs
        that do not count in self-contact (a sample's own link and the
        links adjacent to it) read +inf.
        """
        pts, _ = self.all_sample_points()
        return np.where(self.spec.self_contact_mask(),
                        self.link_distances(pts), np.inf)


def forward_kinematics(spec, grasp):
    """Pose every link: parent pose, then joint origin, then the joint turn."""
    if len(grasp.q) != spec.dof:
        raise InvalidInputError(
            f"q has length {len(grasp.q)}, spec has {spec.dof} DoF")
    Rw, tw = grasp.wrist_matrix()
    n = len(spec.links)
    rotations = np.empty((n, 3, 3))
    translations = np.empty((n, 3))
    for i, link in enumerate(spec.links):
        if link.parent < 0:
            Rp, tp = Rw, tw
        else:
            Rp, tp = rotations[link.parent], translations[link.parent]
        R, t = tf.compose(Rp, tp, link.origin_rotation, link.origin_translation)
        if link.joint_type == "revolute":
            Rj = tf.axis_angle_to_matrix(link.axis, grasp.q[link.dof_index])
            R = R @ Rj
        rotations[i] = R
        translations[i] = t

    samples = {}
    for i, local in spec.local_samples().items():
        samples[i] = local.transformed(rotations[i], translations[i])
    anchor_points = np.array([rotations[a.link] @ a.local + translations[a.link]
                              for a in spec.anchors]).reshape(-1, 3)
    fingertip_points = np.array([rotations[f.link] @ f.local + translations[f.link]
                                 for f in spec.fingertip_frames]).reshape(-1, 3)
    return PosedHand(spec, grasp, rotations, translations, samples,
                     anchor_points, fingertip_points)


def _ancestor_dofs(spec, link):
    """DoF indices whose joints move the given link, innermost first."""
    out = []
    i = link
    while i >= 0:
        l = spec.links[i]
        if l.joint_type == "revolute":
            out.append((i, l.dof_index))
        i = l.parent
    return out


def point_jacobian(spec, grasp, link, local_point, posed=None):
    """3 x (DoF + 6) Jacobian of a link-fixed point's world position.

    Columns: each joint, then wrist translation (world), then wrist
    rotation as a world rotation increment about the wrist origin.
    """
    if posed is None:
        posed = forward_kinematics(spec, grasp)
    p = posed.rotations[link] @ np.asarray(local_point, float) + posed.translations[link]
    return point_jacobian_world(spec, posed, link, p)


def point_jacobian_world(spec, posed, link, world_point):
    """Same Jacobian for a point already expressed in world coordinates."""
    J = np.zeros((3, spec.dof + 6))
    for jlink, dof in _ancestor_dofs(spec, link):
        # joint rotates about the world axis through the joint origin; the
        # axis lives after the origin transform, before the joint turn
        l = spec.links[jlink]
        if l.parent < 0:
            Rp, tp = posed.grasp.wrist_matrix()
        else:
            Rp, tp = posed.rotations[l.parent], posed.translations[l.parent]
        axis_world = Rp @ (l.origin_rotation @ l.axis)
        origin_world = Rp @ l.origin_translation + tp
        J[:, dof] = np.cross(axis_world, world_point - origin_world)
    J[:, spec.dof:spec.dof + 3] = np.eye(3)
    r = world_point - posed.grasp.translation
    for k in range(3):
        e = np.zeros(3)
        e[k] = 1.0
        J[:, spec.dof + 3 + k] = np.cross(e, r)
    return J


def apply_coupling(spec, actuated):
    """Full joint vector from actuated values, clamped to joint limits.

    Returns (q, clamped_indices); clamps are reported, not errors.
    """
    actuated = np.asarray(actuated, dtype=float)
    if len(actuated) != spec.doa:
        raise InvalidInputError(
            f"actuated has length {len(actuated)}, spec has {spec.doa} DoA")
    q = spec.coupling @ actuated
    clamped = np.nonzero((q < spec.lower - 1e-12) | (q > spec.upper + 1e-12))[0]
    q = np.clip(q, spec.lower, spec.upper)
    return q, clamped


def actuated_from_q(spec, q):
    """Least-squares actuated vector reproducing q, clamped to DoA limits.

    Identity couplings pass q through untouched so exact joint vectors
    survive the round trip bit for bit.
    """
    q = np.asarray(q, float)
    if spec.coupling.shape == (spec.dof, spec.dof) \
            and np.array_equal(spec.coupling, np.eye(spec.dof)):
        a = q.copy()
    else:
        a, *_ = np.linalg.lstsq(spec.coupling, q, rcond=None)
    return np.clip(a, spec.actuated_limits[:, 0], spec.actuated_limits[:, 1])


def make_grasp(spec, q=None, rotation=None, translation=None):
    q = np.zeros(spec.dof) if q is None else np.asarray(q, float)
    rotation = tf.IDENTITY_QUAT.copy() if rotation is None else rotation
    translation = np.zeros(3) if translation is None else translation
    return Grasp(q, rotation, translation)
