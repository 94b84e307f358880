import numpy as np
import pytest

from graspsynth.errors import InvalidInputError
from graspsynth.fixtures import category_instances, cylinder_mesh
from graspsynth.geometry import (MeshSDF, TriMesh, iou, voxelize,
                                 winding_numbers)

from conftest import make_sphere, make_unit_cube


def test_unit_cube_64_cells():
    grid = voxelize(make_unit_cube(), spacing=0.25)
    assert grid.count() == 64  # 4^3 centers strictly inside


def test_grid_covers_padded_bbox():
    cube = make_unit_cube()
    grid = voxelize(cube, spacing=0.25)
    lo, hi = cube.bounds()
    assert np.all(grid.origin <= lo - 2 * 0.25 + 1e-12)
    top = grid.origin + np.array(grid.dims) * grid.spacing
    assert np.all(top >= hi + 2 * 0.25 - 1e-12)


def test_empty_region_unoccupied():
    grid = voxelize(make_unit_cube(), spacing=0.25)
    centers = grid.cell_centers().reshape(*grid.dims, 3)
    occ = grid.occupancy
    outside = (centers[..., 0] < -0.01) | (centers[..., 0] > 1.01)
    assert not np.any(occ & outside)


def test_sphere_volume_within_5pct():
    sph = make_sphere(radius=1.0, subdivisions=3)
    grid = voxelize(sph, spacing=0.1)
    assert abs(grid.occupied_volume() - 4 / 3 * np.pi) / (4 / 3 * np.pi) < 0.05


def test_volume_converges_with_spacing():
    sph = make_sphere(radius=1.0, subdivisions=3)
    # compare against the icosphere's own volume (not the ideal ball)
    v_true = _mesh_volume(sph)
    err = []
    for spacing in (0.2, 0.1):
        grid = voxelize(sph, spacing=spacing)
        err.append(abs(grid.occupied_volume() - v_true))
    assert err[1] <= err[0] / 2 + 0.01 * v_true


def _mesh_volume(mesh):
    tri = mesh.triangles
    return float(np.abs(np.einsum("ij,ij->i", tri[:, 0],
                                  np.cross(tri[:, 1], tri[:, 2])).sum()) / 6.0)


@pytest.mark.parametrize("name", ["cylinder", "bottle", "tumbler", "wand",
                                  "cube", "sphere"])
def test_voxelize_matches_winding_numbers(name):
    # away from the surface, a cell is occupied iff its center's winding
    # number says inside
    if name == "cylinder":
        mesh = cylinder_mesh()
    elif name == "cube":
        mesh = make_unit_cube()
    elif name == "sphere":
        mesh = make_sphere()
    else:
        mesh = category_instances(name)[1][1]
    grid = voxelize(mesh, spacing=0.25)
    centers = grid.cell_centers()
    clear = MeshSDF(mesh).bvh.min_distance(centers)[0] > 1e-6
    want = winding_numbers(centers[clear], mesh) > 0.5
    assert np.array_equal(grid.occupancy.ravel()[clear], want)
    assert want.any() and not want.all()


def test_nonwatertight_rejected():
    cube = make_unit_cube()
    open_mesh = TriMesh(cube.vertices, cube.faces[:-1])
    with pytest.raises(InvalidInputError):
        voxelize(open_mesh)


def test_iou_identity_and_disjoint():
    a = voxelize(make_unit_cube(), spacing=0.25)
    assert iou(a, a) == 1.0
    b = voxelize(make_unit_cube(center=(10.5, 0.5, 0.5)), spacing=0.25)
    assert iou(a, b) == 0.0


def test_iou_half_overlap_cubes():
    # equal 1 cm cubes offset by half an edge: |A&B| = 32, |A|B| = 96
    a = voxelize(make_unit_cube(), spacing=0.25)
    b = voxelize(make_unit_cube(center=(1.0, 0.5, 0.5)), spacing=0.25)
    value = iou(a, b)
    # one boundary layer of slack on the 4x4x4 center-count intersection
    assert value == pytest.approx(1 / 3, abs=0.12)


def test_iou_resamples_mismatched_grids():
    a = voxelize(make_unit_cube(), spacing=0.25)
    b = voxelize(make_unit_cube(), spacing=0.125)
    assert iou(a, b) == pytest.approx(1.0, abs=0.15)
