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
        # read-only copies: a primitive shares no array it can write
        R = np.array(self.rotation, dtype=float)
        if np.abs(R @ R.T - np.eye(3)).max() > 1e-8:
            raise InvalidInputError("primitive rotation must be orthonormal")
        t = np.array(self.translation, dtype=float)
        for name, array in (("rotation", R), ("translation", t)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)


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
    n = row_norms(p)
    # center: any direction works
    return n - params[..., 0], (_unit(p, n, (0.0, 0.0, 1.0))
                                if with_gradient else None)


def _capsule_sdf(p, params, with_gradient):
    h = params[..., 1]
    q = p.copy()
    q[..., 2] -= np.minimum(np.maximum(p[..., 2], -h), h)
    n = row_norms(q)
    # on the axis: push out along +x
    return n - params[..., 0], (_unit(q, n, (1.0, 0.0, 0.0))
                                if with_gradient else None)


def _box_sdf(p, params, with_gradient):
    q = np.abs(p) - params
    outside = np.maximum(q, 0.0)
    out_norm = row_norms(outside)
    # the max over the last axis written out: numpy's reduction over a
    # length-3 axis is many times slower, and max is exact either way
    d = out_norm + np.minimum(
        np.maximum(np.maximum(q[..., 0], q[..., 1]), q[..., 2]), 0.0)
    if not with_gradient:
        return d, None
    sign = np.where(p < 0.0, -1.0, 1.0)
    # outside: toward the nearest surface point; inside: out the nearest face
    face = np.arange(3) == q.argmax(axis=-1)[..., None]
    with np.errstate(invalid="ignore", divide="ignore"):
        toward = outside / out_norm[..., None]
    return d, np.where((out_norm > 0)[..., None], toward, face) * sign


def row_norms(v):
    """Euclidean norm over the last axis of length 3, summed by
    components: the same bits as ``np.sqrt((v ** 2).sum(axis=-1))`` and
    cKDTree's distances, without numpy's slow length-3 reduction."""
    return np.sqrt(v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1]
                   + v[..., 2] * v[..., 2])


def _unit(v, n, fallback):
    """v / n, or ``fallback`` where n < 1e-12."""
    with np.errstate(invalid="ignore", divide="ignore"):
        g = v / n[..., None]
    g[n < 1e-12] = fallback
    return g


_FORMULAS = {"sphere": _sphere_sdf, "capsule": _capsule_sdf, "box": _box_sdf}
# bytes of the largest temporary of a kernel pass, (points, P, 3) float64:
# kept below glibc's 128 KiB mmap threshold, so the allocator reuses heap
# memory instead of mapping fresh zeroed pages on every pass
BUDGET = 104 * 1024


class PrimitiveStack:
    """Primitives of several owners stacked for batched SDF queries.

    ``groups`` maps an owner (a hand link index) to its non-empty list of
    primitives, each posed in the owner's frame. Queries take the owner
    frames as ``rotations`` (K, 3, 3) and ``translations`` (K, 3),
    indexed by owner. Rows run by kind (in ``KINDS`` order), then owner
    order, then list position, so one formula call covers each kind;
    the nearest row wins ties in that order.

    Points go through the kernel in passes of ``chunk`` =
    ``max(2, BUDGET // (24 * P))`` points for P rows, so each pass's
    (points, P, 3) temporaries stay within ``BUDGET`` bytes. No pass has
    one point: numpy takes a one-row ``points @ M`` through its
    matrix-vector routine, whose last bit can differ from the same row in
    a batch, so a lone point is computed beside a neighbour and a value
    never depends on how many points share the call.

    A query is two steps: the distance pass ``nearest`` keeps each
    point's winning row and its local point, and ``gradient`` evaluates
    the winners' gradient formulas later, only when a caller needs them.

    A hand has one stack (``HandSpec.primitive_stack``): ``nearest`` with
    ``owners`` gives each point its owner's union, as a one-owner stack.
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
        self.chunk = max(2, BUDGET // (24 * len(prims)))
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
        # a hand's one stack serves every caller of its spec
        self.blocks = tuple(self.blocks)
        for array in (self.owner, self.rotation, self.offset, self._by_owner,
                      self._owner_starts, *(p for _, _, p in self.blocks)):
            array.setflags(write=False)

    def _rotations(self, rotations):
        """World rotation (P, 3, 3) of each row."""
        return rotations[self.owner] @ self.rotation

    def _frames(self, rotations, translations):
        """The world-to-local map as one product: local = points @ M - b,
        row k in columns 3k..3k+2."""
        R = self._rotations(rotations)
        b = (translations[self.owner][:, None] @ R)[:, 0] + self.offset
        return R.transpose(1, 0, 2).reshape(3, -1), b.ravel()

    def _passes(self, points, M, b):
        """(output rows, local coordinates (m, P, 3)) per kernel pass.

        A one-point pass is computed with the point before it, or with a
        copy of itself when it is the only point, and only its own row is
        kept."""
        n = len(points)
        for s in range(0, n, self.chunk):
            e = min(s + self.chunk, n)
            lo = max(min(s, e - 2), 0)
            batch = points[lo:e] if e - lo > 1 else points[[s, s]]
            local = batch @ M
            local -= b
            yield slice(s, e), local.reshape(len(batch), -1, 3)[s - e:]

    def _distances(self, local):
        """(m, P) distances from local coordinates (m, P, 3)."""
        d = np.empty(local.shape[:2])
        for formula, cols, params in self.blocks:
            d[:, cols] = formula(local[:, cols], params, False)[0]
        return d

    def nearest(self, rotations, translations, points, owners=None):
        """Distance pass of the union SDF (min over all rows), or with
        ``owners`` (N,) of each point's owner's union only: the minimum
        over the rows of ``owners[n]``, which must own rows.

        Returns (distances, each point's winning row, the point in that
        row's local frame); ``gradient`` takes the last two.
        """
        M, b = self._frames(rotations, translations)
        points = np.atleast_2d(np.asarray(points, dtype=float))
        best = np.empty(len(points))
        rows = np.empty(len(points), dtype=np.intp)
        won_at = np.empty((len(points), 3))
        for out, local in self._passes(points, M, b):
            d = self._distances(local)
            if owners is not None:
                d[owners[out, None] != self.owner] = np.inf
            k = d.argmin(axis=1)
            n = np.arange(len(k))
            best[out] = d[n, k]
            rows[out] = k
            won_at[out] = local[n, k]
        return best, rows, won_at

    def gradient(self, rotations, rows, won_at):
        """World unit gradients of winning ``rows`` at their local points
        ``won_at`` (from ``nearest``): one formula call per kind, on the
        winners of that kind and their parameters only."""
        g = np.empty((len(rows), 3))
        for formula, cols, params in self.blocks:
            won = (rows >= cols.start) & (rows < cols.stop)
            if won.any():
                g[won] = formula(won_at[won], params[rows[won] - cols.start],
                                 True)[1]
        return np.einsum("nij,nj->ni", self._rotations(rotations)[rows], g)

    def query(self, rotations, translations, points, with_gradient=False):
        """Union SDF: the distances of ``nearest``, or with
        ``with_gradient`` (distances, world gradients, owner of the
        nearest row), the gradients from ``gradient``."""
        best, rows, won_at = self.nearest(rotations, translations, points)
        if not with_gradient:
            return best
        return (best, self.gradient(rotations, rows, won_at),
                self.owner[rows])

    def owner_distances(self, rotations, translations, points):
        """(G, N): each owner's union SDF at every point, owners in the
        order of ``groups``."""
        M, b = self._frames(rotations, translations)
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.empty((len(self._owner_starts), len(points)))
        for cols, local in self._passes(points, M, b):
            out[:, cols] = np.minimum.reduceat(
                self._distances(local)[:, self._by_owner],
                self._owner_starts, axis=1).T
        return out


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


def _capsule_mesh(radius, half_length, segments):
    """UV capsule along +z: two hemispheres of 6 rings joined by a
    cylinder."""
    verts = [[0.0, 0.0, half_length + radius]]
    # top hemisphere rings (from pole down to equator), then bottom mirrored
    lat_top = np.linspace(np.pi / 2, 0, 7)[1:]
    lat_bot = np.linspace(0, -np.pi / 2, 7)[:-1]
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
