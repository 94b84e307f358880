"""Grid and voxel signs against the ray-parity lattice oracles.

``sdf_grid_from_mesh`` and ``voxelize`` sign their lattices from the
points near the surface and a flood fill of the rest; every grid here
must equal, byte for byte, the one built by ray parity at every point.
"""

import functools

import numpy as np
import pytest

from graspsynth import transforms as tf
from graspsynth.fit import GRID_SPACING_CM, canonicalize
from graspsynth.fixtures import (CATEGORY_TEMPLATES, category_instances,
                                 cylinder_mesh)
from graspsynth.geometry import MeshSDF, TriMesh, sdf_grid_from_mesh, voxelize
from graspsynth.geometry.grid import _near, cell_centers, padded_layout

from conftest import make_sphere, make_unit_cube
from oracles import ray_parity_sdf_grid, ray_parity_voxels, sdf_grid_nodes


def _template(category, canonical):
    mesh = CATEGORY_TEMPLATES[category]()
    if not canonical:
        return mesh, GRID_SPACING_CM
    canon, diag, _ = canonicalize(mesh)
    return canon, GRID_SPACING_CM / diag


def _bottle_instance(k):
    return category_instances("bottle")[1][k], 0.25


def _rotated_cylinder():
    q = np.array([0.9, 0.3, -0.2, 0.25])
    R = tf.quat_to_matrix(q / np.linalg.norm(q))
    cyl = cylinder_mesh()
    return TriMesh(cyl.vertices @ R.T + [0.3, -1.1, 2.2], cyl.faces), 0.25


def _hollow_sphere():
    # a closed cavity: the inner shell's faces wind inward
    outer, inner = make_sphere(), make_sphere(radius=0.5)
    return TriMesh(np.vstack([outer.vertices, inner.vertices]),
                   np.vstack([outer.faces,
                              inner.faces[:, ::-1] + len(outer.vertices)])), 0.1


MESHES = {
    **{f"{c}-canonical": functools.partial(_template, c, True)
       for c in CATEGORY_TEMPLATES},
    **{f"{c}-cm": functools.partial(_template, c, False)
       for c in CATEGORY_TEMPLATES},
    **{f"bottle-instance{k}": functools.partial(_bottle_instance, k)
       for k in range(4)},
    "cylinder-0.25": lambda: (cylinder_mesh(), 0.25),
    "cylinder-0.4": lambda: (cylinder_mesh(), 0.4),
    "cylinder-rotated": _rotated_cylinder,
    "cube": lambda: (make_unit_cube(), 0.25),
    "sphere": lambda: (make_sphere(), 0.25),
    "sphere-cavity": _hollow_sphere,
}


@pytest.mark.parametrize("name", MESHES)
def test_sdf_grid_equals_ray_parity_oracle(name):
    mesh, spacing = MESHES[name]()
    values = sdf_grid_from_mesh(mesh, spacing).values
    want = ray_parity_sdf_grid(mesh, spacing)
    assert values.tobytes() == want.tobytes()
    assert (want < 0).any() and (want > 0).any()


@pytest.mark.parametrize("name", MESHES)
def test_voxelize_equals_ray_parity_oracle(name):
    mesh, spacing = MESHES[name]()
    occupancy = voxelize(mesh, spacing).occupancy
    want = ray_parity_voxels(mesh, spacing)
    assert occupancy.tobytes() == want.tobytes()
    assert want.any() and not want.all()


@pytest.mark.parametrize("name", MESHES)
def test_near_set_holds_every_point_within_one_spacing(name):
    # the flood fill rests on it: neighbours of opposite sign are both near
    mesh, spacing = MESHES[name]()
    _, dims, nodes = sdf_grid_nodes(mesh, spacing)
    origin, cell_dims = padded_layout(*mesh.bounds(), spacing)
    bvh = MeshSDF(mesh).bvh
    for dims, points in [(dims, nodes),
                         (cell_dims, cell_centers(origin, spacing, cell_dims))]:
        near = _near(mesh.triangles, points, spacing, dims)
        within = bvh.min_distance(points)[0] <= spacing
        assert within.any() and not near.all()
        assert near[within].all()
