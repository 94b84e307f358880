import numpy as np
import pytest

from graspsynth.fit import GRID_SPACING_CM, canonicalize
from graspsynth.fixtures import CATEGORY_TEMPLATES
from graspsynth.geometry import MeshSDF, TriMesh, mesh_sdf, sdf_grid_from_mesh

from conftest import make_sphere, make_unit_cube
from oracles import mesh_signed_distance


def test_sphere_center_and_outside(sphere):
    vals = mesh_sdf(sphere, [[0, 0, 0], [2, 0, 0]])
    # icosphere is slightly inscribed; generous tolerance
    assert vals[0] == pytest.approx(-1.0, abs=0.01)
    assert vals[1] == pytest.approx(1.0, abs=0.01)


def test_against_bruteforce_oracle(sphere):
    rng = np.random.default_rng(7)
    queries = rng.uniform(-1.6, 1.6, size=(1000, 3))
    got = mesh_sdf(sphere, queries)
    want = np.array([mesh_signed_distance(sphere, q) for q in queries])
    assert np.abs(got - want).max() < 1e-4


def test_cube_oracle_agreement(unit_cube):
    rng = np.random.default_rng(11)
    queries = rng.uniform(-0.5, 1.5, size=(400, 3))
    got = mesh_sdf(unit_cube, queries)
    want = np.array([mesh_signed_distance(unit_cube, q) for q in queries])
    assert np.abs(got - want).max() < 1e-4


def test_sign_flip_along_ray(sphere):
    # walking along +x through the surface flips inside/outside exactly once
    xs = np.linspace(0.5, 1.5, 101)
    pts = np.column_stack([xs, np.zeros_like(xs), np.zeros_like(xs)])
    vals = mesh_sdf(sphere, pts)
    outside = vals > 0
    flips = np.count_nonzero(np.diff(outside.astype(int)) != 0)
    assert flips == 1
    assert not outside[0] and outside[-1]


def test_nonwatertight_fallback():
    cube = make_unit_cube()
    open_mesh = TriMesh(cube.vertices, cube.faces[:-1])
    with pytest.warns(UserWarning):
        vals, info = mesh_sdf(open_mesh, [[0.5, 0.5, 0.5]], detail=True)
    assert not info["watertight"]
    assert vals[0] > 0  # unsigned-positive fallback even though inside


def test_grazing_queries_on_cube_lattice(unit_cube):
    # axis-aligned queries sit on face/edge extensions: worst case for parity
    xs = np.linspace(-0.25, 1.25, 7)
    pts = np.array([[x, y, z] for x in xs for y in xs for z in xs])
    got = mesh_sdf(unit_cube, pts)
    direction = (0.3178011, 0.7394219, 0.5932117)  # avoid rational edge grazing
    want = np.array([mesh_signed_distance(unit_cube, q, direction=direction)
                     for q in pts])
    assert np.abs(got - want).max() < 1e-9


def test_mesh_sdf_class_reuse(sphere):
    ev = MeshSDF(sphere)
    a = ev.query([[0.3, 0.1, -0.2]])
    b = ev.query([[0.3, 0.1, -0.2]])
    assert a == b
    vals, grads = ev.query_with_gradient([[1.5, 0.0, 0.0]])
    assert np.allclose(grads[0], [1, 0, 0], atol=1e-3)


def test_queries_must_be_finite(sphere):
    from graspsynth.errors import InvalidInputError
    with pytest.raises(InvalidInputError):
        mesh_sdf(sphere, [[np.inf, 0, 0]])


def test_sphere_radial_profile():
    sph = make_sphere(radius=2.0, subdivisions=3)
    r = np.array([0.5, 1.0, 1.5, 2.5, 3.0])
    pts = np.column_stack([r, np.zeros_like(r), np.zeros_like(r)])
    vals = mesh_sdf(sph, pts)
    assert np.allclose(vals, r - 2.0, atol=0.02)


@pytest.mark.parametrize("category", ["bottle", "tumbler", "wand"])
def test_sdf_grid_matches_mesh_sdf(category):
    # near the surface every grid node holds the exact signed distance,
    # sign included, of the mesh SDF at that node
    mesh, diag, _ = canonicalize(CATEGORY_TEMPLATES[category]())
    grid = sdf_grid_from_mesh(mesh, GRID_SPACING_CM / diag)
    nodes = grid.origin + np.indices(grid.dims).reshape(3, -1).T * grid.spacing
    want = MeshSDF(mesh).query(nodes)
    near = (np.abs(want) <= grid.spacing) & (np.abs(want) > 1e-9)
    assert near.sum() > 1000
    assert np.array_equal(grid.values.ravel()[near], want[near])
