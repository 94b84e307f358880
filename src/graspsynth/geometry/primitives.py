"""Analytic solid primitives: spheres, capsules, boxes.

Primitives stand in for per-link meshes so the optimizer gets exact
signed distances and gradients. Each primitive carries a rigid pose in
its owning frame; capsules run along their local +z axis.
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import InvalidInputError
from .mesh import TriMesh

KINDS = ("sphere", "capsule", "box")


@dataclass(frozen=True)
class Primitive:
    """kind: sphere {radius}; capsule {radius, half_length}; box {half extents}."""

    kind: str
    params: tuple
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidInputError(f"unknown primitive kind {self.kind!r}")
        expected = {"sphere": 1, "capsule": 2, "box": 3}[self.kind]
        if len(self.params) != expected:
            raise InvalidInputError(f"{self.kind} expects {expected} parameters")
        if any(p <= 0 for p in self.params):
            raise InvalidInputError("primitive size parameters must be > 0")
        R = np.asarray(self.rotation, dtype=float)
        if np.abs(R @ R.T - np.eye(3)).max() > 1e-8:
            raise InvalidInputError("primitive rotation must be orthonormal")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation",
                           np.asarray(self.translation, dtype=float))


def primitive_sdf(prim, points, with_gradient=True):
    """Exact SDF of one primitive; gradient is unit-length off the surface.

    ``points`` are in the primitive's owning frame; the local pose is
    applied internally.
    """
    return union_sdf([prim], points, with_gradient)


def union_sdf(prims, points, with_gradient=True):
    """SDF of a union of primitives: min over members, gradient from argmin."""
    out = PrimitiveStack({0: prims}).query(np.eye(3)[None], np.zeros((1, 3)),
                                           points, with_gradient)
    return out[:2] if with_gradient else out


# The three SDF formulas. ``p`` holds local points on its last axis, with
# any leading shape; ``params`` broadcasts against that leading shape.
# Each returns (distance, unit gradient or None).


def _sphere_sdf(p, params, with_gradient):
    n = _norm(p)
    # center: any direction works
    return n - params[..., 0], (_unit(p, n, (0.0, 0.0, 1.0))
                                if with_gradient else None)


def _capsule_sdf(p, params, with_gradient):
    h = params[..., 1]
    q = p.copy()
    q[..., 2] -= np.minimum(np.maximum(p[..., 2], -h), h)
    n = _norm(q)
    # on the axis: push out along +x
    return n - params[..., 0], (_unit(q, n, (1.0, 0.0, 0.0))
                                if with_gradient else None)


def _box_sdf(p, params, with_gradient):
    q = np.abs(p) - params
    outside = np.maximum(q, 0.0)
    out_norm = _norm(outside)
    d = out_norm + np.minimum(q.max(axis=-1), 0.0)
    if not with_gradient:
        return d, None
    sign = np.where(p < 0.0, -1.0, 1.0)
    # outside: toward the nearest surface point; inside: out the nearest face
    face = np.arange(3) == q.argmax(axis=-1)[..., None]
    with np.errstate(invalid="ignore", divide="ignore"):
        toward = outside / out_norm[..., None]
    return d, np.where((out_norm > 0)[..., None], toward, face) * sign


def _norm(v):
    """Euclidean norm over the last axis; the same arithmetic as
    ``np.linalg.norm(v, axis=-1)`` without its slow length-3 reduction."""
    return np.sqrt(v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1]
                   + v[..., 2] * v[..., 2])


def _unit(v, n, fallback):
    """v / n, or ``fallback`` where n < 1e-12."""
    with np.errstate(invalid="ignore", divide="ignore"):
        g = v / n[..., None]
    g[n < 1e-12] = fallback
    return g


_FORMULAS = {"sphere": _sphere_sdf, "capsule": _capsule_sdf, "box": _box_sdf}
# points per kernel pass: bounds the (points x primitives x 3) temporaries
CHUNK = 4096


class PrimitiveStack:
    """Primitives of several owners stacked for batched SDF queries.

    ``groups`` maps an owner (a hand link index) to its non-empty list of
    primitives, each posed in the owner's frame. Queries take the owner
    frames as ``rotations`` (K, 3, 3) and ``translations`` (K, 3),
    indexed by owner. Rows run by kind (in ``KINDS`` order), then owner
    order, then list position, so one formula call covers each kind;
    the nearest row wins ties in that order.
    """

    def __init__(self, groups):
        owners = list(groups)
        if any(not groups[o] for o in owners):
            raise InvalidInputError("every owner needs at least one primitive")
        rows = sorted((KINDS.index(p.kind), g, k)
                      for g, o in enumerate(owners)
                      for k, p in enumerate(groups[o]))
        prims = [groups[owners[g]][k] for _, g, k in rows]
        group = np.array([g for _, g, _ in rows], dtype=np.intp)
        self.owner = np.array(owners, dtype=np.intp)[group]
        self.rotation = np.array([p.rotation for p in prims])
        # each row's own offset in its local frame, R^T t
        self.offset = np.array([p.translation @ p.rotation for p in prims])
        self.blocks = []    # (formula, row slice, parameters) per kind
        for kind in KINDS:
            ks = [r for r, p in enumerate(prims) if p.kind == kind]
            if ks:
                self.blocks.append((_FORMULAS[kind], slice(ks[0], ks[-1] + 1),
                                    np.array([prims[r].params for r in ks],
                                             dtype=float)))
        # rows regrouped by owner, and where each owner's run starts
        self._by_owner = np.argsort(group, kind="stable")
        self._owner_starts = np.searchsorted(group[self._by_owner],
                                             np.arange(len(owners)))

    def _frames(self, rotations, translations):
        """World rotation R (P, 3, 3) of each row, and the world-to-local
        map as one product: local = points @ M - b, row k in columns
        3k..3k+2."""
        R = rotations[self.owner] @ self.rotation
        b = (translations[self.owner][:, None] @ R)[:, 0] + self.offset
        return R, R.transpose(1, 0, 2).reshape(3, -1), b.ravel()

    def query(self, rotations, translations, points, with_gradient=False):
        """Union SDF: min over all rows.

        Returns the distances, or with ``with_gradient`` (distances,
        world gradients, owner of the nearest row).
        """
        R, M, b = self._frames(rotations, translations)
        points = np.atleast_2d(np.asarray(points, dtype=float))
        best = np.empty(len(points))
        nearest = np.empty(len(points), dtype=np.intp)
        grad = np.empty((len(points), 3)) if with_gradient else None
        for s in range(0, len(points), CHUNK):
            d, g = _evaluate(points[s:s + CHUNK] @ M - b, self.blocks,
                             with_gradient)
            k = d.argmin(axis=1)
            n = np.arange(len(k))
            best[s:s + CHUNK] = d[n, k]
            nearest[s:s + CHUNK] = k
            if with_gradient:
                grad[s:s + CHUNK] = np.einsum("nij,nj->ni", R[k], g[n, k])
        if not with_gradient:
            return best
        return best, grad, self.owner[nearest]

    def owner_distances(self, rotations, translations, points):
        """(G, N): each owner's union SDF at every point, owners in the
        order of ``groups``."""
        _, M, b = self._frames(rotations, translations)
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.empty((len(self._owner_starts), len(points)))
        for s in range(0, len(points), CHUNK):
            d, _ = _evaluate(points[s:s + CHUNK] @ M - b, self.blocks, False)
            out[:, s:s + CHUNK] = np.minimum.reduceat(
                d[:, self._by_owner], self._owner_starts, axis=1).T
        return out


def _evaluate(local, blocks, with_gradient):
    """Distances (m, P) and local gradients (m, P, 3) or None, from local
    coordinates (m, 3P)."""
    local = local.reshape(len(local), -1, 3)
    d = np.empty(local.shape[:2])
    g = np.empty(local.shape) if with_gradient else None
    for formula, cols, params in blocks:
        d[:, cols], g_cols = formula(local[:, cols], params, with_gradient)
        if with_gradient:
            g[:, cols] = g_cols
    return d, g


# ---------------------------------------------------------------------------
# tessellation (for export, demonstrations, and per-link surface sampling)


def tessellate(prim, subdivisions=2, segments=24):
    """Closed triangle mesh approximating the primitive, in owning-frame cm."""
    if prim.kind == "sphere":
        mesh = _icosphere(prim.params[0], subdivisions)
    elif prim.kind == "capsule":
        mesh = _capsule_mesh(prim.params[0], prim.params[1], segments)
    else:
        mesh = _box_mesh(np.asarray(prim.params, dtype=float))
    return mesh.transformed(prim.rotation, prim.translation)


def _icosphere(radius, subdivisions):
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
        [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
        [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
    ], dtype=float)
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ])
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    for _ in range(subdivisions):
        edge_mid = {}
        new_faces = []
        verts_list = verts.tolist()

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in edge_mid:
                m = np.asarray(verts_list[i]) + np.asarray(verts_list[j])
                m /= np.linalg.norm(m)
                edge_mid[key] = len(verts_list)
                verts_list.append(m.tolist())
            return edge_mid[key]

        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        verts = np.array(verts_list)
        faces = np.array(new_faces)
    return TriMesh(verts * radius, faces)


def _capsule_mesh(radius, half_length, segments, rings=6):
    """UV capsule along +z: two hemispheres joined by a cylinder."""
    verts = [[0.0, 0.0, half_length + radius]]
    # top hemisphere rings (from pole down to equator), then bottom mirrored
    lat_top = np.linspace(np.pi / 2, 0, rings + 1)[1:]
    lat_bot = np.linspace(0, -np.pi / 2, rings + 1)[:-1]
    ang = np.linspace(0, 2 * np.pi, segments, endpoint=False)
    rows = []
    for lat, zc in [(lat_top, half_length), (lat_bot, -half_length)]:
        for phi in lat:
            r = radius * np.cos(phi)
            z = zc + radius * np.sin(phi)
            row = []
            for a in ang:
                row.append(len(verts))
                verts.append([r * np.cos(a), r * np.sin(a), z])
            rows.append(row)
    south = len(verts)
    verts.append([0.0, 0.0, -half_length - radius])

    faces = []
    first = rows[0]
    for k in range(segments):
        faces.append([0, first[k], first[(k + 1) % segments]])
    for r0, r1 in zip(rows[:-1], rows[1:]):
        for k in range(segments):
            k1 = (k + 1) % segments
            faces.append([r0[k], r1[k], r1[k1]])
            faces.append([r0[k], r1[k1], r0[k1]])
    last = rows[-1]
    for k in range(segments):
        faces.append([last[k], south, last[(k + 1) % segments]])
    return TriMesh(np.array(verts), np.array(faces))


def _box_mesh(he):
    x, y, z = he
    verts = np.array([
        [-x, -y, -z], [x, -y, -z], [x, y, -z], [-x, y, -z],
        [-x, -y, z], [x, -y, z], [x, y, z], [-x, y, z],
    ])
    faces = np.array([
        [0, 2, 1], [0, 3, 2],  # bottom (-z)
        [4, 5, 6], [4, 6, 7],  # top (+z)
        [0, 1, 5], [0, 5, 4],  # -y
        [2, 3, 7], [2, 7, 6],  # +y
        [1, 2, 6], [1, 6, 5],  # +x
        [3, 0, 4], [3, 4, 7],  # -x
    ])
    return TriMesh(verts, faces)
