"""Articulated hand model: kinematic chain, coupling, anchors, Jacobians.

Links are stored in topological order (parent before child). Each link
carries one joint (revolute about a unit axis in the parent frame, or
fixed) plus zero or more solid primitives. ``q`` indexes the revolute
links in link order; ``H`` is the wrist pose applied ahead of every
root link.

Kinematics run on arrays a ``HandSpec`` builds once (``_kinematics``):
forward kinematics takes every joint's Rodrigues matrix in one vector
pass, poses the links one tree depth at a time, poses the samples of
all links with equal sample counts in one stacked product, and poses
anchors and fingertips in one batched product; ``joint_axes_world``
gives every joint's world axis and origin in one more, and the
Jacobians read their columns from it. Each array step does the same
float operations, in the same order, as the link-by-link formulas
(numpy's stacked matmul runs the same product on every item as a
single one), so the results are the same bits.
"""

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .. import transforms as tf
from ..errors import InvalidInputError
from ..geometry import sample_surface, tessellate
from ..geometry.mesh import merge_meshes
from ..geometry.primitives import PrimitiveStack


def _readonly(values, dtype):
    """A read-only ``dtype`` copy of ``values``, so that no caller can
    write an array a spec holds."""
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Link:
    """One link and the joint that turns it (frozen: its arrays are
    read-only float copies and its primitives a tuple)."""

    name: str
    parent: int
    origin_rotation: np.ndarray
    origin_translation: np.ndarray
    joint_type: str = "revolute"          # or "fixed"
    axis: np.ndarray = (0.0, 1.0, 0.0)
    limits: tuple = (0.0, 0.0)
    flexion_sign: float = 1.0             # +q direction that closes toward the palm
    primitives: tuple = ()
    sample_count: int = 0
    dof_index: int = -1                   # set on the HandSpec's copy

    def __post_init__(self):
        for name in ("origin_rotation", "origin_translation", "axis"):
            object.__setattr__(self, name,
                               _readonly(getattr(self, name), float))
        object.__setattr__(self, "limits", tuple(self.limits))
        object.__setattr__(self, "primitives", tuple(self.primitives))


def _own_local(frame):
    object.__setattr__(frame, "local", _readonly(frame.local, float))


@dataclass(frozen=True)
class Anchor:
    """A named point fixed in one link's frame (frozen, ``local``
    read-only)."""

    name: str
    link: int
    local: np.ndarray

    __post_init__ = _own_local


@dataclass(frozen=True)
class FingertipFrame:
    """A fingertip point fixed in one link's frame (frozen, ``local``
    read-only)."""

    name: str
    link: int
    local: np.ndarray

    __post_init__ = _own_local


@dataclass(frozen=True)
class _Kinematics:
    """What forward kinematics and the Jacobians read of a ``HandSpec``,
    as arrays (joints by DoF)."""

    levels: tuple           # per tree depth, root links first: (links,
                            #   parents (-1: the wrist), (k, 3, 3) origin
                            #   R, (k, 3, 1) origin t, the revolute
                            #   positions among the k, their DoFs)
    sample_groups: tuple    # per sample count m: (links, (k, m, 3) their
                            #   link-frame samples, their k * m rows)
    skew: np.ndarray        # (D, 3, 3) skew(axis) of each joint, by DoF
    outer: np.ndarray       # (D, 3, 3) outer(axis, axis)
    parents: np.ndarray     # (D,) parent link of each joint, -1 for the wrist
    axes: np.ndarray        # (D, 3, 1) origin_rotation @ axis
    origins: np.ndarray     # (D, 3, 1) origin_translation
    anchor_links: np.ndarray    # (A,) link of each anchor
    anchor_local: np.ndarray    # (A, 3, 1) its point in the link frame
    tip_links: np.ndarray       # (F,) link of each fingertip frame
    tip_local: np.ndarray       # (F, 3, 1)


class HandSpec:
    """Immutable hand description.

    A spec builds on its own copies of the links, anchors and fingertip
    frames it is given (each frozen, ``dof_index`` set on the link's
    copy) and keeps them in tuples; every array it holds is read-only and
    ``human_joint_map`` is a read-only mapping. So one spec can serve
    every caller in a process, as ``builtin_hand`` does, and a variant is
    a new spec: ``handspec_from_dict`` of an edited ``handspec_to_dict``.
    The sample layout, link meshes, the hand's one primitive stack (every
    segment link's primitives; there is no per-link stack), the kinematics
    arrays and the self-contact mask are built on first use and never
    rebuilt.

    coupling maps actuated values (DoA) to the full joint vector (DoF):
    q = coupling @ actuated. actuated_limits bound the actuated values;
    the mapped q must stay inside the joint limits for any in-range
    actuated vector (validated here).
    """

    def __init__(self, name, links, anchors=(), fingertip_frames=(),
                 coupling=None, actuated_names=None, actuated_limits=None,
                 human_joint_map=None):
        self.name = name
        own = []
        dof = 0
        for i, link in enumerate(links):
            if link.parent >= i:
                raise InvalidInputError(
                    f"link {link.name}: parent must precede it (topological order)")
            dof_index = -1
            if link.joint_type == "revolute":
                n = np.linalg.norm(link.axis)
                if not abs(n - 1.0) <= 1e-8:    # a NaN axis fails too
                    raise InvalidInputError(f"link {link.name}: axis must be unit")
                if link.limits[0] > link.limits[1]:
                    raise InvalidInputError(f"link {link.name}: limits lo > hi")
                dof_index = dof
                dof += 1
            elif link.joint_type != "fixed":
                raise InvalidInputError(f"link {link.name}: bad joint type")
            # closure and penetration see a link only through its samples
            if link.primitives and link.sample_count <= 0:
                raise InvalidInputError(f"link {link.name}: has primitives, "
                                        f"so needs sample_count > 0")
            own.append(replace(link, dof_index=dof_index))
        self.links = tuple(own)
        self.anchors = tuple(replace(a) for a in anchors)
        self.fingertip_frames = tuple(replace(f) for f in fingertip_frames)
        self.human_joint_map = MappingProxyType(dict(human_joint_map or {}))
        self.dof = dof
        joints = [l for l in self.links if l.joint_type == "revolute"]
        self.lower = _readonly([l.limits[0] for l in joints], float)
        self.upper = _readonly([l.limits[1] for l in joints], float)

        if coupling is None:
            self.coupling = _readonly(np.eye(dof), float)
            self.actuated_names = tuple(l.name for l in joints)
            self.actuated_limits = _readonly(
                np.column_stack([self.lower, self.upper]), float)
        else:
            self.coupling = _readonly(coupling, float)
            if self.coupling.ndim != 2 or self.coupling.shape[0] != dof:
                raise InvalidInputError("coupling rows must equal DoF")
            if actuated_names is None:
                raise InvalidInputError("a coupling needs actuated_names")
            if actuated_limits is None:
                raise InvalidInputError("a coupling needs actuated_limits")
            self.actuated_names = tuple(actuated_names)
            self.actuated_limits = _readonly(actuated_limits, float)
            if self.coupling.shape[1] != len(self.actuated_names):
                raise InvalidInputError("coupling cols must equal DoA")
            if self.actuated_limits.shape != (len(self.actuated_names), 2):
                raise InvalidInputError(
                    "actuated_limits must hold [lower, upper] per actuated name")
            self._validate_coupling_range()
        self.doa = self.coupling.shape[1]

        self._name_to_index = {l.name: i for i, l in enumerate(self.links)}
        for a in self.anchors + self.fingertip_frames:
            if not (0 <= a.link < len(self.links)):
                raise InvalidInputError(f"{a.name}: link index out of range")

        self._sample_layout = None
        self._kinematics_arrays = None
        self._link_meshes = None
        self._primitive_stack = None
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
            self._link_meshes = MappingProxyType({
                i: merge_meshes([tessellate(p) for p in link.primitives])
                for i, link in enumerate(self.links) if link.primitives})
        return self._link_meshes

    def _layout(self):
        """(link-frame points, owner links, {link: rows}) of the stacked
        hand samples (lazy, deterministic): each segment link's
        ``sample_count`` surface draws (seed: the link index), in
        segment_links() order."""
        if self._sample_layout is None:
            links = self.segment_links()
            counts = [self.links[i].sample_count for i in links]
            points = np.vstack([np.empty((0, 3))] + [
                sample_surface(self.link_meshes()[i], n=n,
                               seed=i).points
                for i, n in zip(links, counts)])
            owners = np.repeat(np.array(links, dtype=np.intp), counts)
            for array in (points, owners):
                array.setflags(write=False)
            ends = np.cumsum([0] + counts).tolist()
            self._sample_layout = (points, owners, MappingProxyType({
                i: slice(ends[k], ends[k + 1]) for k, i in enumerate(links)}))
        return self._sample_layout

    def _kinematics(self):
        """The arrays of ``_Kinematics``, built once (lazy, read-only)."""
        if self._kinematics_arrays is None:
            joints = [l for l in self.links if l.joint_type == "revolute"]

            def frozen(values, shape, dtype):
                return _readonly(values, dtype).reshape(shape)

            def points(frames):
                return frozen([f.local for f in frames], (-1, 3, 1), float)

            def links(frames):
                return frozen([f.link for f in frames], -1, np.intp)

            depth = []
            for l in self.links:
                depth.append(0 if l.parent < 0 else depth[l.parent] + 1)
            levels = []
            for d in range(max(depth, default=-1) + 1):
                level = [i for i, k in enumerate(depth) if k == d]
                at = [self.links[i] for i in level]
                turned = [k for k, l in enumerate(at) if l.dof_index >= 0]
                levels.append((
                    frozen(level, -1, np.intp),
                    frozen([l.parent for l in at], -1, np.intp),
                    frozen([l.origin_rotation for l in at], (-1, 3, 3),
                           float),
                    frozen([l.origin_translation for l in at], (-1, 3, 1),
                           float),
                    frozen(turned, -1, np.intp),
                    frozen([at[k].dof_index for k in turned], -1, np.intp)))
            local, _, slices = self._layout()
            groups = {}
            for i, rows in slices.items():
                groups.setdefault(rows.stop - rows.start, []).append(i)
            sample_groups = tuple(
                (frozen(group, -1, np.intp),
                 frozen([local[slices[i]] for i in group], (len(group), m, 3),
                        float),
                 frozen([np.arange(slices[i].start, slices[i].stop)
                         for i in group], -1, np.intp))
                for m, group in groups.items())
            self._kinematics_arrays = _Kinematics(
                levels=tuple(levels),
                sample_groups=sample_groups,
                skew=frozen([tf.skew(l.axis) for l in joints], (-1, 3, 3),
                            float),
                outer=frozen([np.outer(l.axis, l.axis) for l in joints],
                             (-1, 3, 3), float),
                parents=frozen([l.parent for l in joints], -1, np.intp),
                axes=frozen([l.origin_rotation @ l.axis for l in joints],
                            (-1, 3, 1), float),
                origins=frozen([l.origin_translation for l in joints],
                               (-1, 3, 1), float),
                anchor_links=links(self.anchors),
                anchor_local=points(self.anchors),
                tip_links=links(self.fingertip_frames),
                tip_local=points(self.fingertip_frames))
        return self._kinematics_arrays

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

    def primitive_stack(self):
        """The hand's one SDF kernel, over every segment link's primitives
        (lazy); a query against one link's primitives passes ``owners``
        to its ``nearest``."""
        if self._primitive_stack is None:
            self._primitive_stack = PrimitiveStack(
                {i: self.links[i].primitives for i in self.segment_links()})
        return self._primitive_stack

    def sample_links(self):
        """Owning link of each row of the stacked hand samples."""
        return self._layout()[1]

    def sample_slices(self):
        """{segment link: its rows of the stacked hand samples}."""
        return self._layout()[2]

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
            self._self_contact_mask = _readonly(
                self.self_contact_links()[:, columns], bool)
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
        # written so that a NaN fails it too, and a huge component does
        # not overflow
        if not abs(math.hypot(*self.rotation) - 1.0) <= 1e-8:
            raise InvalidInputError("grasp rotation must be a unit quaternion")
        for name in ("q", "translation"):
            if not np.isfinite(getattr(self, name)).all():
                raise InvalidInputError(f"grasp {name} must be finite")

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
    sample_points: np.ndarray    # (N, 3) world, read-only, by sample_slices()
    anchor_points: np.ndarray    # (A, 3)
    fingertip_points: np.ndarray  # (F, 3)

    @cached_property
    def joint_axes(self):
        """``joint_axes_world(self)``, computed on first use."""
        return joint_axes_world(self)

    def all_sample_points(self):
        """(sample_points, segment links in row order); kept for callers
        outside the package, which read it in this form."""
        return self.sample_points, self.spec.segment_links()

    def sdf(self, points, with_gradient=False):
        """Signed distance to the whole hand (min across link primitives).

        With ``with_gradient``: (distance, world gradient, nearest link).
        """
        return self.spec.primitive_stack().query(
            self.rotations, self.translations, points, with_gradient)

    def link_distances(self, points):
        """(L, N) SDF of every segment link (rows in segment_links() order)."""
        return self.spec.primitive_stack().owner_distances(
            self.rotations, self.translations, points)

    def self_distances(self):
        """(L, N) distance of every hand sample to every segment link.

        Columns are the stacked hand samples (sample_points); pairs
        that do not count in self-contact (a sample's own link and the
        links adjacent to it) read +inf.
        """
        return np.where(self.spec.self_contact_mask(),
                        self.link_distances(self.sample_points), np.inf)


def forward_kinematics(spec, grasp):
    """Pose every link: parent pose, then joint origin, then the joint turn;
    each link's samples fill its rows of one stacked world array.

    Every joint's Rodrigues matrix comes from one vector pass over ``q``
    (``eye * c + s * skew + (1 - c) * outer`` on the spec's cached
    stacks). The links are posed one tree depth at a time: one stacked
    ``Rp @ origin_rotation``, one ``@ turns`` on the depth's revolute
    links and one ``Rp @ origin_translation + tp``, with the wrist in an
    extra last slot, so a parent of -1 reads it. The samples of all links
    with one sample count take one stacked product, and anchors and
    fingertips one batched product each. Against a loop over the links
    this takes 147-154 instead of 206-213 us a call on the human hand and
    148-150 instead of 190-192 us on coupled9, but 74-76 instead of
    47-52 us on pinch1's three links (one BLAS thread, best of 5 x 300
    calls).
    """
    if len(grasp.q) != spec.dof:
        raise InvalidInputError(
            f"q has length {len(grasp.q)}, spec has {spec.dof} DoF")
    kin = spec._kinematics()
    c, s = np.cos(grasp.q)[:, None, None], np.sin(grasp.q)[:, None, None]
    turns = np.eye(3) * c + s * kin.skew + (1 - c) * kin.outer
    n = len(spec.links)
    rotations = np.empty((n + 1, 3, 3))
    translations = np.empty((n + 1, 3))
    rotations[n], translations[n] = grasp.wrist_matrix()
    for links, parents, Ro, to, turned, dofs in kin.levels:
        Rp, tp = rotations[parents], translations[parents]
        R = Rp @ Ro
        R[turned] = R[turned] @ turns[dofs]
        rotations[links] = R
        translations[links] = (Rp @ to)[..., 0] + tp
    rotations, translations = rotations[:n], translations[:n]

    points = np.empty(spec._layout()[0].shape)
    for links, local, rows in kin.sample_groups:
        points[rows] = (local @ rotations[links].transpose(0, 2, 1)
                        + translations[links][:, None]).reshape(-1, 3)
    points.setflags(write=False)
    anchor_points = ((rotations[kin.anchor_links] @ kin.anchor_local)[..., 0]
                     + translations[kin.anchor_links])
    fingertip_points = ((rotations[kin.tip_links] @ kin.tip_local)[..., 0]
                        + translations[kin.tip_links])
    return PosedHand(spec, grasp, rotations, translations, points,
                     anchor_points, fingertip_points)


def joint_axes_world(posed):
    """((D, 3) world axes, (D, 3) world origins) of every revolute joint,
    by DoF: a joint turns about its axis after its origin transform and
    before its own turn, so both come from its parent's pose (the wrist
    for a root link) in one batched product each."""
    kin = posed.spec._kinematics()
    Rw, tw = posed.grasp.wrist_matrix()
    # parent -1 picks the wrist, stacked last
    Rp = np.concatenate([posed.rotations, Rw[None]])[kin.parents]
    tp = np.concatenate([posed.translations, tw[None]])[kin.parents]
    return (Rp @ kin.axes)[..., 0], (Rp @ kin.origins)[..., 0] + tp


def _ancestor_dofs(spec, link):
    """DoF indices whose joints move the given link, innermost first."""
    out = []
    i = link
    while i >= 0:
        l = spec.links[i]
        if l.joint_type == "revolute":
            out.append(l.dof_index)
        i = l.parent
    return out


def point_jacobian(spec, grasp, link, local_point):
    """3 x (DoF + 6) Jacobian of a link-fixed point's world position.

    Columns: each joint, then wrist translation (world), then wrist
    rotation as a world rotation increment about the wrist origin.
    """
    posed = forward_kinematics(spec, grasp)
    p = posed.rotations[link] @ np.asarray(local_point, float) + posed.translations[link]
    return point_jacobian_world(spec, posed, link, p)


def point_jacobian_world(spec, posed, link, world_point):
    """Same Jacobian for a point already expressed in world coordinates."""
    J = np.zeros((3, spec.dof + 6))
    dofs = _ancestor_dofs(spec, link)
    axes, origins = posed.joint_axes
    J[:, dofs] = tf.cross(axes[dofs], world_point - origins[dofs]).T
    J[:, spec.dof:spec.dof + 3] = np.eye(3)
    J[:, spec.dof + 3:] = tf.cross(np.eye(3),
                                   world_point - posed.grasp.translation).T
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
