"""Occupancy grids and dense SDF grids.

Voxelization marks a cell occupied iff its center lies strictly inside
the mesh, and SDF grid nodes take their sign the same way: both ask
``MeshSDF.inside`` (BVH ray parity, winding numbers for grazing rays),
the one inside test for meshes. Cell centers of every padded grid come
from ``cell_centers``.
"""

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from ..errors import InvalidInputError
from .sdf import MeshSDF

DEFAULT_SPACING = 0.25  # cm
PAD_CELLS = 2


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


def cell_centers(origin, spacing, dims):
    """Centers origin + (i + 0.5) * spacing of every cell, C order."""
    return origin + (_lattice(dims) + 0.5) * spacing


def voxelize(mesh, spacing=DEFAULT_SPACING):
    """Occupancy grid of the mesh at the given spacing (cm)."""
    if not mesh.is_watertight():
        raise InvalidInputError("voxelize requires a watertight mesh")
    origin, dims = padded_layout(*mesh.bounds(), spacing)
    occ = MeshSDF(mesh).inside(cell_centers(origin, spacing, dims))
    return OccupancyGrid(np.asarray(origin, dtype=float), float(spacing), dims,
                         occ.reshape(dims))


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

    def _locate(self, points):
        rel = (np.atleast_2d(points) - self.origin) / self.spacing
        hi = np.array(self.values.shape) - 1
        clamped = np.clip(rel, 0.0, hi - 1e-9)
        overshoot = (rel - np.clip(rel, 0.0, hi)) * self.spacing
        outside = np.linalg.norm(overshoot, axis=1)
        return rel, clamped, outside, overshoot

    def query(self, points):
        _, clamped, outside, _ = self._locate(points)
        i0 = np.floor(clamped).astype(int)
        f = clamped - i0
        vals = np.zeros(len(clamped))
        for dx in (0, 1):
            for dy in (0, 1):
                for dz in (0, 1):
                    w = (np.where(dx, f[:, 0], 1 - f[:, 0])
                         * np.where(dy, f[:, 1], 1 - f[:, 1])
                         * np.where(dz, f[:, 2], 1 - f[:, 2]))
                    vals += w * self.values[i0[:, 0] + dx, i0[:, 1] + dy,
                                            i0[:, 2] + dz]
        return vals + outside

    def gradient(self, points):
        """Analytic gradient of the trilinear interpolant (plus box term)."""
        _, clamped, outside, overshoot = self._locate(points)
        i0 = np.floor(clamped).astype(int)
        f = clamped - i0
        grad = np.zeros((len(clamped), 3))
        for dx in (0, 1):
            for dy in (0, 1):
                for dz in (0, 1):
                    v = self.values[i0[:, 0] + dx, i0[:, 1] + dy, i0[:, 2] + dz]
                    wx = np.where(dx, f[:, 0], 1 - f[:, 0])
                    wy = np.where(dy, f[:, 1], 1 - f[:, 1])
                    wz = np.where(dz, f[:, 2], 1 - f[:, 2])
                    sx = 1.0 if dx else -1.0
                    sy = 1.0 if dy else -1.0
                    sz = 1.0 if dz else -1.0
                    grad[:, 0] += sx * wy * wz * v
                    grad[:, 1] += wx * sy * wz * v
                    grad[:, 2] += wx * wy * sz * v
        grad /= self.spacing
        out_mask = outside > 0
        if np.any(out_mask):
            grad[out_mask] += overshoot[out_mask] / outside[out_mask, None]
        return grad


def sdf_grid_from_mesh(mesh, spacing, pad_cells=3, band_cells=3):
    """Dense SDF grid: exact distances in a narrow band, propagated beyond.

    Node signs come from ``MeshSDF.inside``. The narrow band around the
    sign change gets exact point-triangle distances; farther nodes take
    the distance to the nearest band node plus that node's exact value
    (error O(spacing), fine in the far field).
    """
    if not mesh.is_watertight():
        raise InvalidInputError("sdf grid requires a watertight mesh")
    lo, hi = mesh.bounds()
    origin = lo - pad_cells * spacing
    dims = tuple(int(np.ceil((h - l + 2 * pad_cells * spacing) / spacing)) + 1
                 for l, h in zip(lo, hi))
    sdf = MeshSDF(mesh)
    nodes = origin + _lattice(dims) * spacing
    inside = sdf.inside(nodes).reshape(dims)

    boundary = np.zeros(dims, dtype=bool)
    for axis in range(3):
        sl_a = [slice(None)] * 3
        sl_b = [slice(None)] * 3
        sl_a[axis] = slice(0, -1)
        sl_b[axis] = slice(1, None)
        diff = inside[tuple(sl_a)] != inside[tuple(sl_b)]
        boundary[tuple(sl_a)] |= diff
        boundary[tuple(sl_b)] |= diff
    band = ndimage.binary_dilation(boundary, iterations=band_cells)

    values = np.full(dims, np.nan)
    values[band] = sdf.bvh.min_distance(nodes[band.ravel()])[0]

    far = ~band
    if np.any(far):
        edt, indices = ndimage.distance_transform_edt(
            far, sampling=spacing, return_indices=True)
        src = (indices[0][far], indices[1][far], indices[2][far])
        values[far] = edt[far] + values[src]
    values[inside] *= -1.0
    return SdfGrid(np.asarray(origin, dtype=float), float(spacing), values)
