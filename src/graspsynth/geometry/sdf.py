"""Signed distance queries against triangle meshes.

``MeshSDF.query`` makes one BVH pass per batch: exact point-triangle
distances, and the sign from the feature (vertex, edge or face) that
holds the closest point. Each feature carries an angle-weighted
pseudonormal (Bærentzen & Aanæs, "Signed distance computation using the
angle weighted pseudonormal", IEEE TVCG 2005): a point is inside when
it lies behind the pseudonormal of its closest feature. Inside is
negative, outside positive. Non-watertight meshes fall back to unsigned
distance with positive sign (with a warning).

``MeshSDF.inside`` keeps ray-crossing parity through the same BVH, with
a winding-number fallback for rays that graze edges. Its callers are
the penetration volume and the grid builders, which ask it only about
lattice points that lie on the surface: there a closest-feature sign
can flip nodes within 1e-15 of a cap.
"""

import warnings

import numpy as np
from scipy.spatial import cKDTree

from ..errors import InvalidInputError

_LEAF_SIZE = 8
_RAY_EPS = 1e-9        # ray hits this close to an edge or plane are marginal
_WINDING_CHUNK = 512   # points per solid-angle batch
# bytes of min_distance's largest temporary, (pairs * _LEAF_SIZE, 3)
# float64 at the leaves: a few hundred KiB keeps a frontier in cache
_FRONTIER_BUDGET = 384 * 1024
_FRONTIER_PAIRS = _FRONTIER_BUDGET // (24 * _LEAF_SIZE)

# fixed irrational-ish directions make grazing hits measure-zero and retries rare
_RAY_DIRECTIONS = [
    np.array([0.57735026, 0.64993368, 0.49474045]),
    np.array([-0.28747603, 0.81650045, 0.50055521]),
    np.array([0.70922085, -0.21973852, 0.66985147]),
    np.array([0.12033916, 0.48556856, -0.86587798]),
]


# closest-point features of a triangle (a, b, c), as indexed by
# closest_point_on_triangles and MeshSDF's pseudonormal table
VERTEX_A, VERTEX_B, VERTEX_C, EDGE_AB, EDGE_BC, EDGE_CA, FACE = range(7)


def closest_point_on_triangles(p, a, b, c):
    """Closest point on each triangle (a, b, c) to each query p, pairwise.

    All inputs (K, 3); vectorized region-case analysis (Ericson). Returns
    the (K, 3) closest points and the (K,) feature holding each, one of
    ``VERTEX_A`` ... ``FACE``.
    """
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    bp = p - b
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    cp = p - c
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)

    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    # each pair takes the first region whose test holds, in Ericson's order
    regions = (
        (VERTEX_A, (d1 <= 0) & (d2 <= 0)), (VERTEX_B, (d3 >= 0) & (d4 <= d3)),
        (EDGE_AB, (vc <= 0) & (d1 >= 0) & (d3 <= 0)),
        (VERTEX_C, (d6 >= 0) & (d5 <= d6)),
        (EDGE_CA, (vb <= 0) & (d2 >= 0) & (d6 <= 0)),
        (EDGE_BC, (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)))
    feature = np.full(len(p), FACE, dtype=np.int8)
    for f, test in reversed(regions):
        feature[test] = f
    order = np.argsort(feature, kind="stable")
    bounds = np.searchsorted(feature[order], np.arange(FACE + 2))
    rows = [order[bounds[f]:bounds[f + 1]] for f in range(FACE + 1)]

    out = np.empty_like(p)
    for f, corner in ((VERTEX_A, a), (VERTEX_B, b), (VERTEX_C, c)):
        out[rows[f]] = corner[rows[f]]

    def along(m, start, edge, num, den):
        out[m] = start[m] + edge * (num / np.where(den != 0, den, 1.0))[:, None]

    m = rows[EDGE_AB]
    if len(m):
        along(m, a, ab[m], d1[m], d1[m] - d3[m])
    m = rows[EDGE_CA]
    if len(m):
        along(m, a, ac[m], d2[m], d2[m] - d6[m])
    m = rows[EDGE_BC]
    if len(m):
        along(m, b, c[m] - b[m], d4[m] - d3[m],
              (d4[m] - d3[m]) + (d5[m] - d6[m]))
    m = rows[FACE]
    if len(m):
        denom = va[m] + vb[m] + vc[m]
        denom = np.where(denom != 0, denom, 1.0)
        out[m] = (a[m] + ab[m] * (vb[m] / denom)[:, None]
                  + ac[m] * (vc[m] / denom)[:, None])
    return out, feature


class TriangleBVH:
    """Axis-aligned BVH over mesh triangles.

    Median split on centroids keeps the tree balanced: every leaf sits
    at depth ``depth`` or one level above it. ``min_distance`` walks
    the tree in ``depth`` array passes, and ``ray_crossings``' recursion
    stays as shallow.
    """

    def __init__(self, mesh):
        tri = mesh.triangles
        self.tri = tri
        n = len(tri)
        tri_min = tri.min(axis=1)
        tri_max = tri.max(axis=1)
        centroids = tri.mean(axis=1)

        node_min, node_max = [], []
        node_left, node_right = [], []
        node_start, node_count = [], []
        leaf_tris = []
        self.depth = 0

        def build(idx, level):
            node_id = len(node_min)
            node_min.append(tri_min[idx].min(axis=0))
            node_max.append(tri_max[idx].max(axis=0))
            node_left.append(-1)
            node_right.append(-1)
            node_start.append(-1)
            node_count.append(0)
            if len(idx) <= _LEAF_SIZE:
                node_start[node_id] = len(leaf_tris)
                node_count[node_id] = len(idx)
                leaf_tris.extend(np.sort(idx).tolist())
                self.depth = max(self.depth, level)
                return node_id
            cen = centroids[idx]
            axis = int(np.argmax(cen.max(axis=0) - cen.min(axis=0)))
            part = np.argsort(cen[:, axis], kind="stable")
            half = len(idx) // 2
            node_left[node_id] = build(idx[part[:half]], level + 1)
            node_right[node_id] = build(idx[part[half:]], level + 1)
            return node_id

        build(np.arange(n), 0)
        self.node_min = np.array(node_min)
        self.node_max = np.array(node_max)
        self.node_left = np.array(node_left)
        self.node_right = np.array(node_right)
        self.node_start = np.array(node_start)
        self.node_count = np.array(node_count)
        self.leaf_tris = np.array(leaf_tris, dtype=np.int64)
        self._centroid_tree = cKDTree(centroids)

        # min_distance's tables. A node's two children and their boxes; a
        # leaf's are itself and an empty box, so a pair that reaches a
        # leaf early rides along until the last pass.
        nodes = np.arange(len(node_min))
        leaf = self.node_left < 0
        self._kids = np.stack([np.where(leaf, nodes, self.node_left),
                               np.where(leaf, nodes, self.node_right)], axis=1)
        self._kid_min = self.node_min[self._kids]
        self._kid_max = self.node_max[self._kids]
        self._kid_min[leaf, 1] = np.inf
        self._kid_max[leaf, 1] = np.inf
        # a leaf's triangles in index order, one slot each with the
        # triangle's own box; unused slots hold an empty box
        self._slot_tri = np.zeros((len(nodes), _LEAF_SIZE), dtype=np.int64)
        self._slot_min = np.full((len(nodes), _LEAF_SIZE, 3), np.inf)
        self._slot_max = np.full((len(nodes), _LEAF_SIZE, 3), np.inf)
        leaves = np.flatnonzero(leaf)
        row, slot = np.nonzero(np.arange(_LEAF_SIZE)
                               < self.node_count[leaves][:, None])
        node = leaves[row]
        tris = self.leaf_tris[self.node_start[node] + slot]
        self._slot_tri[node, slot] = tris
        self._slot_min[node, slot] = tri_min[tris]
        self._slot_max[node, slot] = tri_max[tris]

    # -- distance ----------------------------------------------------------

    def min_distance(self, points):
        """Exact unsigned distance, closest triangle index, closest point
        and its feature (as ``closest_point_on_triangles`` gives them)
        per query.

        Of the triangles at the closest distance, the one with the lowest
        index wins, so each point's result does not depend on the other
        points in the call.

        Each point starts from the distance to the triangle whose
        centroid is nearest. The walk is over arrays of (point, node)
        pairs, one tree level per pass: a pair goes on to each child
        whose box lies within the point's best distance, ties included.
        At the leaves, a pair becomes one (point, triangle) pair per
        triangle whose own box lies within that distance; each point
        keeps the minimum of those, lowest index first. Box distances
        are summed in the order of the triangle distances, so a box
        whose nearest corner is a triangle's closest vertex reads that
        vertex's distance to the bit, and a tie there is searched.

        The pairs are held point by point. A frontier of more than
        ``_FRONTIER_PAIRS`` pairs is split between two points, and the
        halves are walked one after the other, so the walk's temporaries
        stay within ``_FRONTIER_BUDGET`` bytes unless one point alone
        needs more.
        """
        points = np.atleast_2d(points)
        n = len(points)
        # seed upper bounds with the centroid-nearest triangle
        _, seed_tri = self._centroid_tree.query(points)
        seed = self.tri[seed_tri]
        best_cp, best_feature = closest_point_on_triangles(
            points, seed[:, 0], seed[:, 1], seed[:, 2])
        best = np.linalg.norm(points - best_cp, axis=1)
        best_tri = np.asarray(seed_tri, dtype=np.int64)

        todo = [(np.arange(n), np.zeros(n, dtype=np.int64), 0)]
        while todo:
            p, node, level = todo.pop()
            while True:
                if len(p) > _FRONTIER_PAIRS and p[0] != p[-1]:
                    cut = np.searchsorted(p, p[len(p) // 2])
                    if cut == 0:
                        cut = np.searchsorted(p, p[0], side="right")
                    todo.append((p[cut:], node[cut:], level))
                    p, node = p[:cut], node[:cut]
                if level == self.depth:
                    break
                p = np.repeat(p, 2)
                keep = self._within(points, p, self._kid_min, self._kid_max,
                                    node, best)
                p = p.take(keep)
                node = self._kids.take(node, axis=0).take(keep)
                level += 1
            self._nearest_in_leaves(points, p, node, best, best_tri, best_cp,
                                    best_feature)
        return best, best_tri, best_cp, best_feature

    @staticmethod
    def _within(points, p, box_min, box_max, node, best):
        """Positions of the pairs (``p``, box) whose box lies within the
        point's best distance; ``box_min``/``box_max`` hold each node's
        row of boxes, flattened in order to line up with ``p``."""
        q = points.take(p, axis=0)
        d = box_min.take(node, axis=0).reshape(-1, 3) - q
        np.maximum(d, q - box_max.take(node, axis=0).reshape(-1, 3), out=d)
        np.maximum(d, 0.0, out=d)
        d *= d
        # summed in np.linalg.norm's order, as the triangle distances are
        gap = np.sqrt(d[:, 0] + d[:, 1] + d[:, 2])
        return np.flatnonzero(gap <= best.take(p))

    def _nearest_in_leaves(self, points, p, node, best, best_tri, best_cp,
                           best_feature):
        """Fold the triangles of leaf pairs (``p``, ``node``), sorted by
        point and holding all of each point's leaves, into the ``best*``
        arrays."""
        p = np.repeat(p, _LEAF_SIZE)
        keep = self._within(points, p, self._slot_min, self._slot_max,
                            node, best)
        if len(keep) == 0:
            return
        p = p.take(keep)
        tris = self._slot_tri.take(node, axis=0).take(keep)
        q = points.take(p, axis=0)
        corners = self.tri.take(tris, axis=0)
        cp, feature = closest_point_on_triangles(q, corners[:, 0],
                                                 corners[:, 1], corners[:, 2])
        d = np.linalg.norm(q - cp, axis=1)
        # one segment per point: its minimum, then the lowest triangle at it
        first = np.empty(len(p), dtype=bool)
        first[0] = True
        np.not_equal(p[1:], p[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        segment = np.cumsum(first) - 1
        mins = np.minimum.reduceat(d, starts)
        at_min = d == mins.take(segment)
        won = np.minimum.reduceat(np.where(at_min, tris, len(self.tri)), starts)
        # a point meets each triangle once, so one pair per segment wins
        pair = np.flatnonzero(at_min & (tris == won.take(segment)))
        p = p.take(starts)
        held = best.take(p)
        better = (mins < held) | ((mins == held) & (won < best_tri.take(p)))
        p, pair = p[better], pair[better]
        best[p] = mins[better]
        best_tri[p] = won[better]
        best_cp[p] = cp.take(pair, axis=0)
        best_feature[p] = feature.take(pair)

    # -- ray parity --------------------------------------------------------

    def ray_crossings(self, origins, direction):
        """Count ray-triangle crossings for t > 0; flag marginal queries.

        A query is marginal when a hit lands within ``_RAY_EPS`` of a triangle
        edge or the ray runs nearly parallel through a triangle's plane;
        such parities are unreliable and the caller should recast.
        """
        origins = np.atleast_2d(origins)
        n = len(origins)
        counts = np.zeros(n, dtype=np.int64)
        marginal = np.zeros(n, dtype=bool)
        d = np.asarray(direction, dtype=float)
        safe = np.where(np.abs(d) < 1e-300, np.copysign(1e-300, d), d)
        inv = 1.0 / safe
        scale = float(np.abs(self.tri).max()) + 1.0

        def node_hits(idx, node):
            t0 = (self.node_min[node] - origins[idx]) * inv
            t1 = (self.node_max[node] - origins[idx]) * inv
            tmin = np.minimum(t0, t1).max(axis=1)
            tmax = np.maximum(t0, t1).min(axis=1)
            return tmax >= np.maximum(tmin, 0.0) - 1e-12

        def descend(node, idx):
            if len(idx) == 0:
                return
            idx = idx[node_hits(idx, node)]
            if len(idx) == 0:
                return
            left = self.node_left[node]
            if left < 0:
                s, c = self.node_start[node], self.node_count[node]
                tris = self.leaf_tris[s:s + c]
                tri = self.tri[tris]
                v0 = tri[:, 0]
                e1 = tri[:, 1] - tri[:, 0]
                e2 = tri[:, 2] - tri[:, 0]
                pvec = np.cross(d[None, :], e2)                      # (T, 3)
                det = np.einsum("tj,tj->t", pvec, e1)                # (T,)
                tvec = origins[idx][:, None, :] - v0[None, :, :]     # (Q, T, 3)
                qvec = np.cross(tvec, e1[None, :, :])                # (Q, T, 3)
                with np.errstate(divide="ignore", invalid="ignore"):
                    inv_det = 1.0 / np.where(np.abs(det) < 1e-300, 1e-300, det)
                    u = np.einsum("qtj,tj->qt", tvec, pvec) * inv_det
                    v = np.einsum("j,qtj->qt", d, qvec) * inv_det
                    t = np.einsum("tj,qtj->qt", e2, qvec) * inv_det
                tiny_det = np.abs(det)[None, :] < 1e-12 * scale
                hit = (u >= 0) & (v >= 0) & (u + v <= 1) & (t > 0) & ~tiny_det
                counts[idx] += hit.sum(axis=1)
                near_edge = hit & ((u < _RAY_EPS) | (v < _RAY_EPS)
                                   | (u + v > 1 - _RAY_EPS) | (t < _RAY_EPS))
                normal = np.cross(e1, e2)
                nn = normal / np.maximum(np.linalg.norm(normal, axis=1,
                                                        keepdims=True), 1e-300)
                plane_dist = np.abs(np.einsum("qtj,tj->qt", tvec, nn))
                plane_near = tiny_det & (plane_dist < _RAY_EPS * scale)
                marginal[idx] |= (near_edge | plane_near).any(axis=1)
                return
            descend(left, idx)
            descend(self.node_right[node], idx)

        descend(0, np.arange(n))
        return counts, marginal


def winding_numbers(points, mesh):
    """Generalized winding number via summed solid angles (van Oosterom)."""
    points = np.atleast_2d(points)
    tri = mesh.triangles
    out = np.empty(len(points))
    for s in range(0, len(points), _WINDING_CHUNK):
        p = points[s:s + _WINDING_CHUNK][:, None, :]
        a = tri[None, :, 0, :] - p
        b = tri[None, :, 1, :] - p
        c = tri[None, :, 2, :] - p
        la = np.linalg.norm(a, axis=2)
        lb = np.linalg.norm(b, axis=2)
        lc = np.linalg.norm(c, axis=2)
        num = np.einsum("qtj,qtj->qt", a, np.cross(b, c))
        den = (la * lb * lc + np.einsum("qtj,qtj->qt", a, b) * lc
               + np.einsum("qtj,qtj->qt", b, c) * la
               + np.einsum("qtj,qtj->qt", a, c) * lb)
        out[s:s + _WINDING_CHUNK] = (np.arctan2(num, den).sum(axis=1)
                                     / (2.0 * np.pi))
    return out


def _pseudonormals(mesh):
    """(F, 7, 3) pseudonormal of each face's features, indexed like
    ``closest_point_on_triangles``' features.

    A vertex takes the angle-weighted sum of its faces' normals, an edge
    the sum of its two faces' normals, the face its own normal. Both
    faces of an edge and all faces of a vertex read the same vector.
    Normals point out of the enclosed volume whichever way the faces
    wind.
    """
    tri = mesh.triangles
    faces = mesh.faces
    normals = mesh.face_normals()
    if np.einsum("ij,ij->", tri[:, 0], np.cross(tri[:, 1], tri[:, 2])) < 0:
        normals = -normals                  # wound inward: negative volume
    table = np.empty((len(faces), 7, 3))
    table[:, FACE] = normals
    vertex_normals = np.zeros((len(mesh.vertices), 3))
    for k in range(3):
        e1 = tri[:, (k + 1) % 3] - tri[:, k]
        e2 = tri[:, (k + 2) % 3] - tri[:, k]
        angle = np.arctan2(np.linalg.norm(np.cross(e1, e2), axis=1),
                           np.einsum("ij,ij->i", e1, e2))
        np.add.at(vertex_normals, faces[:, k], angle[:, None] * normals)
    table[:, [VERTEX_A, VERTEX_B, VERTEX_C]] = vertex_normals[faces]
    edges = np.stack([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]],
                     axis=1).reshape(-1, 2)
    key = edges.min(axis=1) * (len(mesh.vertices) + 1) + edges.max(axis=1)
    _, edge_of = np.unique(key, return_inverse=True)
    edge_normals = np.zeros((edge_of.max() + 1, 3))
    np.add.at(edge_normals, edge_of, np.repeat(normals, 3, axis=0))
    table[:, [EDGE_AB, EDGE_BC, EDGE_CA]] = edge_normals[edge_of].reshape(-1, 3, 3)
    return table


def _as_points(points):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.all(np.isfinite(points)):
        raise InvalidInputError("query points must be finite")
    return points


class MeshSDF:
    """Reusable signed-distance evaluator for one mesh."""

    def __init__(self, mesh):
        if len(mesh.faces) == 0:
            raise InvalidInputError("empty mesh")
        self.mesh = mesh
        self.watertight = mesh.is_watertight()
        if not self.watertight:
            warnings.warn("mesh is not watertight; returning unsigned distances")
        self.bvh = TriangleBVH(mesh)
        self._pseudonormals = _pseudonormals(mesh) if self.watertight else None

    def query(self, points):
        """Signed distance per point, in one BVH pass.

        Each point's value depends on that point alone, not on the rest
        of the call (``TriangleBVH.min_distance`` breaks ties by
        triangle index).
        """
        points = _as_points(points)
        dist, tri, closest, feature = self.bvh.min_distance(points)
        if not self.watertight:
            return dist
        normal = self._pseudonormals[tri, feature]
        behind = np.einsum("ij,ij->i", points - closest, normal) < 0
        return np.where(behind, -dist, dist)

    def inside(self, points):
        """Ray-crossing parity per point, recast along the next direction
        where a ray grazes an edge, winding numbers where all of them do."""
        points = _as_points(points)
        pending = np.arange(len(points))
        result = np.zeros(len(points), dtype=bool)
        for d in _RAY_DIRECTIONS:
            counts, marginal = self.bvh.ray_crossings(points[pending], d)
            ok = ~marginal
            result[pending[ok]] = counts[ok] % 2 == 1
            pending = pending[marginal]
            if len(pending) == 0:
                break
        if len(pending):
            result[pending] = winding_numbers(points[pending], self.mesh) > 0.5
        return result

    def query_with_gradient(self, points, h=1e-3):
        """Signed distance plus central-difference unit gradients.

        One ``query`` over the point and its six offsets, stacked.
        """
        points = np.atleast_2d(points)
        n = len(points)
        steps = np.eye(3) * h
        values = self.query(np.concatenate(
            [points] + [points + dp for dp in steps]
            + [points - dp for dp in steps])).reshape(7, n)
        grads = np.ascontiguousarray(((values[1:4] - values[4:7]) / (2 * h)).T)
        norms = np.linalg.norm(grads, axis=1, keepdims=True)
        grads = grads / np.maximum(norms, 1e-12)
        return values[0], grads

