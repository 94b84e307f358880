"""Occupancy grids and dense SDF grids.

Voxelization marks a cell occupied iff its center lies strictly inside
the mesh, and SDF grid nodes take their sign the same way: both sign
their lattice with ``_lattice_signs``. The points near the surface take
the closest-feature sign of ``MeshSDF.query`` (ray parity,
``MeshSDF.inside``, only for the points that lie on the surface), and
every other point the sign of its 6-connected region of far points,
filled from a near neighbour. Cell centers of every padded grid come
from ``cell_centers``.
"""

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from ..errors import InvalidInputError
from .sdf import MeshSDF

DEFAULT_SPACING = 0.25  # cm
PAD_CELLS = 2
SDF_PAD_CELLS = 3   # SDF grid nodes beyond the mesh bounds
SDF_BAND_CELLS = 3  # exact distances this far around the sign change
# a distance this close to 0 is rounding, and ray parity signs its point
SIGN_MARGIN = 1e-9
# (triangle, lattice point) pairs per pass of the near-set search: about
# 1 MiB of temporaries, timed no slower than 8 to 16 times as many
_NEAR_PAIRS = 4096


@dataclass(frozen=True)
class OccupancyGrid:
    """Boolean voxel grid. origin is the corner of cell (0,0,0); centers
    sit at origin + (i + 0.5) * spacing."""

    origin: np.ndarray
    spacing: float
    dims: tuple
    occupancy: np.ndarray

    def __post_init__(self):
        if any(d < 1 for d in self.dims):
            raise InvalidInputError("grid dims must be >= 1")
        self.occupancy.setflags(write=False)

    def cell_centers(self):
        return cell_centers(self.origin, self.spacing, self.dims)

    @property
    def cell_volume(self):
        return self.spacing ** 3

    def occupied_volume(self):
        return float(self.occupancy.sum()) * self.cell_volume

    def count(self):
        return int(self.occupancy.sum())


def padded_layout(lo, hi, spacing):
    """Origin and dims of a cell grid covering [lo, hi] plus PAD_CELLS."""
    origin = lo - PAD_CELLS * spacing
    extent = (hi - lo) + 2 * PAD_CELLS * spacing
    dims = tuple(int(np.ceil(e / spacing - 1e-9)) for e in extent)
    dims = tuple(max(d, 1) for d in dims)
    return origin, dims


def _lattice(dims):
    """(N, 3) integer index of every cell, C order."""
    return np.stack(np.meshgrid(*[np.arange(d) for d in dims], indexing="ij"),
                    axis=-1).reshape(-1, 3)


def _neighbour_pairs():
    """Index tuples (lower, upper) that pair every lattice point with its
    6-neighbour one step up each axis in turn."""
    for axis in range(3):
        lower = [slice(None)] * 3
        upper = [slice(None)] * 3
        lower[axis] = slice(0, -1)
        upper[axis] = slice(1, None)
        yield tuple(lower), tuple(upper)


def cell_centers(origin, spacing, dims):
    """Centers origin + (i + 0.5) * spacing of every cell, C order."""
    return origin + (_lattice(dims) + 0.5) * spacing


def _near(tri, points, spacing, dims):
    """Mask of the lattice points within ``spacing`` (plus ``SIGN_MARGIN``)
    of some triangle's box and of that triangle's plane: a superset of
    the points within ``spacing`` of the surface. ``points`` holds the
    lattice in C order; point i sits at about ``points[0] + i * spacing``.
    """
    dims = np.array(dims)
    first = points[0]
    grow = spacing + SIGN_MARGIN
    lo = np.floor((tri.min(axis=1) - grow - first) / spacing).astype(np.int64)
    hi = np.ceil((tri.max(axis=1) + grow - first) / spacing).astype(np.int64)
    lo = np.clip(lo, 0, dims - 1)
    box = np.clip(hi, 0, dims - 1) - lo + 1
    count = box.prod(axis=1)
    starts = np.concatenate([[0], np.cumsum(count)])
    normal = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    reach = grow * np.linalg.norm(normal, axis=1)
    stride = np.array([dims[1] * dims[2], dims[2], 1])
    near = np.zeros(len(points), dtype=bool)
    t0 = 0
    while t0 < len(tri):
        # whole triangles, at most _NEAR_PAIRS (triangle, point) pairs
        t1 = max(t0 + 1, int(np.searchsorted(
            starts, starts[t0] + _NEAR_PAIRS, side="right")) - 1)
        t = np.repeat(np.arange(t0, t1), count[t0:t1])
        k = np.arange(starts[t0], starts[t1]) - starts[t]
        ny, nz = box[t, 1], box[t, 2]
        flat = (lo[t] + np.stack([k // (ny * nz), k // nz % ny, k % nz],
                                 axis=1)) @ stride
        off = np.einsum("ij,ij->i", points[flat] - tri[t, 0], normal[t])
        near[flat[np.abs(off) <= reach[t]]] = True
        t0 = t1
    return near


def _lattice_signs(sdf, points, spacing, dims):
    """Inside flag of every lattice point, shaped ``dims``, and the exact
    unsigned distance of every near point (NaN elsewhere), flat.

    A near point (``_near``) takes the sign of its own ``sdf.query``, or
    of ``sdf.inside`` (ray parity) where the distance is within
    ``SIGN_MARGIN`` of 0. Two 6-neighbours differ in sign only where the
    surface crosses the edge between them, and then both are within one
    spacing of it, so both are near: each 6-connected component of the
    other points has one sign, which it takes from a near neighbour.
    """
    near = _near(sdf.mesh.triangles, points, spacing, dims)
    near_idx = np.flatnonzero(near)
    d = sdf.query(points[near_idx])
    inside = np.zeros(len(points), dtype=bool)
    inside[near_idx] = d < 0
    on = near_idx[np.abs(d) <= SIGN_MARGIN]
    if len(on):
        inside[on] = sdf.inside(points[on])

    near = near.reshape(dims)
    inside = inside.reshape(dims)
    labels, n = ndimage.label(~near)
    sign = np.zeros(n + 1, dtype=bool)
    for lower, upper in _neighbour_pairs():
        for a, b in ((lower, upper), (upper, lower)):
            edge = (labels[a] > 0) & near[b]
            sign[labels[a][edge]] = inside[b][edge]
    inside[~near] = sign[labels[~near]]
    dist = np.full(len(points), np.nan)
    dist[near_idx] = np.abs(d)
    return inside, dist


def voxelize(mesh, spacing=DEFAULT_SPACING):
    """Occupancy grid of the mesh at the given spacing (cm): a cell is
    occupied iff its center is inside, signed by ``_lattice_signs``."""
    if not mesh.is_watertight():
        raise InvalidInputError("voxelize requires a watertight mesh")
    origin, dims = padded_layout(*mesh.bounds(), spacing)
    centers = cell_centers(origin, spacing, dims)
    inside, _ = _lattice_signs(MeshSDF(mesh), centers, spacing, dims)
    return OccupancyGrid(np.asarray(origin, dtype=float), float(spacing), dims,
                         inside)


def iou(a, b):
    """Intersection over union of two occupancy grids.

    Grids must share layout; ``b`` is resampled onto ``a``'s layout by
    nearest cell when they differ. Two empty grids give 1.0.
    """
    if (a.dims != b.dims or a.spacing != b.spacing
            or not np.allclose(a.origin, b.origin)):
        b = _resample(b, a)
    inter = int(np.count_nonzero(a.occupancy & b.occupancy))
    union = int(np.count_nonzero(a.occupancy | b.occupancy))
    if union == 0:
        return 1.0
    return inter / union


def _resample(b, ref):
    centers = ref.cell_centers()
    idx = np.floor((centers - b.origin) / b.spacing).astype(int)
    ok = np.all((idx >= 0) & (idx < np.array(b.dims)), axis=1)
    occ = np.zeros(len(centers), dtype=bool)
    occ[ok] = b.occupancy[idx[ok, 0], idx[ok, 1], idx[ok, 2]]
    return OccupancyGrid(ref.origin.copy(), ref.spacing, ref.dims,
                         occ.reshape(ref.dims))


# ---------------------------------------------------------------------------
# dense signed-distance grids


@dataclass
class SdfGrid:
    """Trilinear-interpolated signed distance field on a regular grid.

    ``values[i, j, k]`` is the signed distance at node
    origin + (i, j, k) * spacing. Queries outside the grid are clamped to
    the boundary and padded with the Euclidean distance to the box, which
    keeps far-field gradients pointing back toward the grid.
    """

    origin: np.ndarray
    spacing: float
    values: np.ndarray

    @property
    def dims(self):
        return self.values.shape

    def query(self, points):
        return self.query_with_gradient(points)[0]

    def gradient(self, points):
        """Analytic gradient of the trilinear interpolant (plus box term)."""
        return self.query_with_gradient(points)[1]

    def query_with_gradient(self, points):
        """Value and gradient from one pass over the eight cell corners."""
        rel = (np.atleast_2d(points) - self.origin) / self.spacing
        hi = np.array(self.values.shape) - 1
        clamped = np.clip(rel, 0.0, hi - 1e-9)
        overshoot = (rel - np.clip(rel, 0.0, hi)) * self.spacing
        outside = np.linalg.norm(overshoot, axis=1)
        i0 = np.floor(clamped).astype(int)
        f = clamped - i0
        # weights of the low and the high corner along each axis
        w = [(1 - f[:, a], f[:, a]) for a in range(3)]
        # corners are gathered from the C-order flat values
        _, ny, nz = self.values.shape
        stride = np.array([ny * nz, nz, 1])
        base = i0 @ stride
        flat = self.values.ravel()
        vals = np.zeros(len(clamped))
        grad = np.zeros((len(clamped), 3))
        for dx in (0, 1):
            for dy in (0, 1):
                for dz in (0, 1):
                    v = flat[base + (dx * stride[0] + dy * stride[1] + dz)]
                    wx, wy, wz = w[0][dx], w[1][dy], w[2][dz]
                    sx = 1.0 if dx else -1.0
                    sy = 1.0 if dy else -1.0
                    sz = 1.0 if dz else -1.0
                    vals += wx * wy * wz * v
                    grad[:, 0] += sx * wy * wz * v
                    grad[:, 1] += wx * sy * wz * v
                    grad[:, 2] += wx * wy * sz * v
        grad /= self.spacing
        out_mask = outside > 0
        if np.any(out_mask):
            grad[out_mask] += overshoot[out_mask] / outside[out_mask, None]
        return vals + outside, grad


def sdf_grid_from_mesh(mesh, spacing):
    """Dense SDF grid: exact distances in a narrow band, propagated beyond.

    Node signs come from ``_lattice_signs``. The narrow band around the
    sign change gets exact point-triangle distances, which the near
    nodes already have from their sign query; farther nodes take the
    distance to the nearest band node plus that node's exact value
    (error O(spacing), fine in the far field).
    """
    if not mesh.is_watertight():
        raise InvalidInputError("sdf grid requires a watertight mesh")
    lo, hi = mesh.bounds()
    origin = lo - SDF_PAD_CELLS * spacing
    dims = tuple(
        int(np.ceil((h - l + 2 * SDF_PAD_CELLS * spacing) / spacing)) + 1
        for l, h in zip(lo, hi))
    sdf = MeshSDF(mesh)
    nodes = origin + _lattice(dims) * spacing
    inside, dist = _lattice_signs(sdf, nodes, spacing, dims)

    boundary = np.zeros(dims, dtype=bool)
    for a, b in _neighbour_pairs():
        diff = inside[a] != inside[b]
        boundary[a] |= diff
        boundary[b] |= diff
    band = ndimage.binary_dilation(boundary, iterations=SDF_BAND_CELLS)

    # a near band node has its distance from its sign query
    ask = np.flatnonzero(band.ravel() & np.isnan(dist))
    dist[ask] = sdf.bvh.min_distance(nodes[ask])[0]
    values = np.where(band, dist.reshape(dims), np.nan)

    far = ~band
    if np.any(far):
        edt, indices = ndimage.distance_transform_edt(
            far, sampling=spacing, return_indices=True)
        src = (indices[0][far], indices[1][far], indices[2][far])
        values[far] = edt[far] + values[src]
    values[inside] *= -1.0
    return SdfGrid(np.asarray(origin, dtype=float), float(spacing), values)
