import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from graspsynth.closure import MARGIN
from graspsynth.errors import InvalidInputError
from graspsynth.fit import GRID_SPACING_CM, canonicalize
from graspsynth.fixtures import (CATEGORY_TEMPLATES, category_instances,
                                 cylinder_mesh, lathe_mesh, wrap_grasp_pose)
from graspsynth.geometry import (MeshSDF, SdfGrid, TriMesh,
                                 sdf_grid_from_mesh, winding_numbers)
from graspsynth.geometry.sdf import closest_point_on_triangles
from graspsynth.hands import builtin_hand, forward_kinematics
from graspsynth.hands.model import Grasp

from conftest import make_sphere, make_unit_cube
from oracles import (bvh_min_distance_recursive, mesh_sdf,
                     mesh_signed_distance, ray_parity_query, trilinear_point)


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
    with pytest.raises(InvalidInputError):
        mesh_sdf(sphere, [[np.inf, 0, 0]])


def test_inside_rejects_non_finite_points(cylinder):
    sdf = MeshSDF(cylinder)
    for bad in ([[np.nan, 0, 0]], [[0, np.inf, 0]], [[0, 0, -np.inf]]):
        with pytest.raises(InvalidInputError):
            sdf.inside(bad)
    # an empty batch is no error: the closure march can re-query nothing
    empty = np.zeros((0, 3))
    assert sdf.inside(empty).shape == (0,)
    assert sdf.query(empty).shape == (0,)
    values, grads = sdf.query_with_gradient(empty)
    assert values.shape == (0,) and grads.shape == (0, 3)


def _surface_points(mesh, rng, n):
    """Uniform points on the surface and the triangles they lie on."""
    tri = mesh.triangles[rng.integers(len(mesh.faces), size=n)]
    return np.einsum("ij,ijk->ik", rng.dirichlet(np.ones(3), size=n), tri), tri


def _near_surface_points(mesh, rng, n):
    """Uniform surface points pushed off along random directions by
    1e-3 to 0.5 cm, so both sides and every feature kind show up."""
    on, _ = _surface_points(mesh, rng, n)
    scale = rng.choice([1e-3, 0.05, 0.5], size=(n, 1))
    return on + rng.normal(size=(n, 3)) * scale


def _posed_hand_points(mesh, rng, poses=2):
    """Human hand samples in the wrap pose, half-curled and pushed
    toward the object so some of them sink into it."""
    spec = builtin_hand("human")
    rotation, translation = wrap_grasp_pose(mesh)
    lo, hi = spec.lower, spec.upper
    points = []
    for _ in range(poses):
        q = lo + rng.uniform(0.2, 0.8, spec.dof) * (hi - lo)
        t = translation + rng.uniform(-0.5, 0.5, 3)
        t[1] -= rng.uniform(0.0, 1.5)
        posed = forward_kinematics(spec, Grasp(q, rotation, t))
        points.append(posed.all_sample_points()[0])
    return np.vstack(points)


def _oracle_mesh(name):
    if name == "cylinder":
        return cylinder_mesh()
    if name.startswith("bottle"):
        return category_instances("bottle")[1][int(name[-1])]
    return CATEGORY_TEMPLATES[name]()


@pytest.mark.parametrize("name", ["cylinder", "bottle0", "bottle1", "bottle2",
                                  "bottle3", "tumbler", "wand"])
def test_query_matches_recursive_ray_parity_oracle(name):
    # distances bit for bit as the recursive traversal gives them, and
    # the closest-feature sign agrees with ray parity off the surface
    mesh = _oracle_mesh(name)
    rng = np.random.default_rng(17)
    points = np.vstack([_near_surface_points(mesh, rng, 1500),
                        _posed_hand_points(mesh, rng)])
    sdf = MeshSDF(mesh)
    got = sdf.query(points)
    want = ray_parity_query(sdf, points)
    assert np.array_equal(np.abs(got), np.abs(want))
    clear = np.abs(want) > 1e-12
    assert np.array_equal(got[clear] < 0, want[clear] < 0)
    assert np.count_nonzero(want < 0) > 300 and np.count_nonzero(want > 0) > 300


@pytest.mark.parametrize("name", ["cylinder", "bottle", "tumbler", "wand"])
def test_query_is_one_lipschitz(name):
    # march_closure bounds a moved sample's value by its last exact one:
    # |f(p) - f(p')| <= |p - p'|, to well within the march's MARGIN, for
    # offsets from 1e-12 to 1 cm off, near and on the surface
    mesh = cylinder_mesh() if name == "cylinder" else CATEGORY_TEMPLATES[name]()
    rng = np.random.default_rng(23)
    n = 4000
    offsets = 10.0 ** rng.uniform(-12, 0, size=(n, 1))
    base = np.vstack([_near_surface_points(mesh, rng, n // 2),
                      _surface_points(mesh, rng, n // 2)[0]])
    away = rng.normal(size=(n, 3))
    away /= np.linalg.norm(away, axis=1, keepdims=True)
    # pairs on the surface: toward another point of the same triangle
    on, tri = _surface_points(mesh, rng, n)
    toward = np.einsum("ij,ijk->ik", rng.dirichlet(np.ones(3), size=n),
                       tri) - on
    length = np.linalg.norm(toward, axis=1, keepdims=True)
    along = on + toward * np.minimum(offsets / length, 1.0)
    p = np.vstack([base, on])
    p_moved = np.vstack([base + away * offsets, along])
    sdf = MeshSDF(mesh)
    gap = np.linalg.norm(p - p_moved, axis=1)
    assert gap.min() < 1e-11 and gap.max() > 0.5
    change = np.abs(sdf.query(p) - sdf.query(p_moved))
    assert np.all(change <= gap + MARGIN / 100)


def test_query_value_does_not_depend_on_the_batch():
    # exact ties included: lattice nodes over the flat caps and the
    # vertex and edge-midpoint directions, where several triangles share
    # the closest point
    mesh = cylinder_mesh()
    rng = np.random.default_rng(5)
    xs = np.linspace(-3.5, 3.5, 8)
    lattice = np.array([[x, y, z] for x in xs for y in xs
                        for z in (-6.5, -5.75, 5.75, 6.5)])
    tri = mesh.triangles
    edges = 0.5 * (tri + np.roll(tri, 1, axis=1)).reshape(-1, 3)
    spokes = np.vstack([mesh.vertices, edges])
    points = np.vstack([lattice, 0.9 * spokes, 1.1 * spokes,
                        _near_surface_points(mesh, rng, 500)])
    sdf = MeshSDF(mesh)
    whole = sdf.query(points)
    closest = sdf.bvh.min_distance(points)[1]
    order = rng.permutation(len(points))
    assert sdf.query(points[order]).tobytes() == whole[order].tobytes()
    for part in np.array_split(order, 9):
        assert sdf.query(points[part]).tobytes() == whole[part].tobytes()
        assert np.array_equal(sdf.bvh.min_distance(points[part])[1],
                              closest[part])
    for i in order[:60]:
        assert sdf.query(points[i]).tobytes() == whole[i:i + 1].tobytes()
    # the closest triangle is the lowest-indexed one at the closest
    # distance, which no batch can change; every pair evaluated here
    pairs = np.repeat(points, len(tri), axis=0)
    corners = np.tile(tri, (len(points), 1, 1))
    foot, _ = closest_point_on_triangles(pairs, corners[:, 0], corners[:, 1],
                                         corners[:, 2])
    d = np.linalg.norm(pairs - foot, axis=1).reshape(len(points), len(tri))
    assert np.array_equal(np.abs(whole), d.min(axis=1))
    assert np.array_equal(closest, d.argmin(axis=1))
    assert np.count_nonzero((d == d.min(axis=1, keepdims=True)).sum(axis=1) > 1) > 500


def _tie_points(mesh, rng):
    """Points where several triangles share the closest point: on the
    vertices and edge midpoints and just off them along the eight box
    diagonals (so a triangle's box can lie exactly as far as the
    vertex), and lattice nodes over and on the end caps, through the
    axis where the cap fans meet."""
    tri = mesh.triangles
    corners = np.vstack([mesh.vertices,
                         0.5 * (tri + np.roll(tri, 1, axis=1)).reshape(-1, 3)])
    diagonals = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1)
                          for z in (-1, 1)], dtype=float)
    off = (corners[rng.integers(len(corners), size=1500)]
           + diagonals[rng.integers(8, size=1500)]
           * rng.choice([1e-3, 0.05, 0.3], size=(1500, 1)))
    lo, hi = mesh.bounds()
    xs = np.union1d(np.linspace(lo[0] - 0.5, hi[0] + 0.5, 9), [0.0])
    ys = np.union1d(np.linspace(lo[1] - 0.5, hi[1] + 0.5, 9), [0.0])
    zs = [lo[2] - 1.0, lo[2] - 0.25, lo[2], hi[2], hi[2] + 0.25, hi[2] + 1.0]
    lattice = np.array([[x, y, z] for x in xs for y in ys for z in zs])
    return np.vstack([corners, off, lattice])


@pytest.mark.parametrize("name", ["cylinder", "bottle", "tumbler", "wand"])
def test_min_distance_matches_the_recursive_traversal(name):
    # distances and closest triangles bit for bit as the recursion gave
    # them, for batches of 1 to 5,000 points, exact ties included; the
    # closest points and features as the winning triangle gives them
    mesh = cylinder_mesh() if name == "cylinder" else CATEGORY_TEMPLATES[name]()
    rng = np.random.default_rng(31)
    lo, hi = mesh.bounds()
    pool = np.vstack([_tie_points(mesh, rng),
                      _near_surface_points(mesh, rng, 2000),
                      rng.uniform(lo - 1.0, hi + 1.0, size=(1500, 3))])
    pool = pool[rng.permutation(len(pool))]
    assert len(pool) >= 5000
    bvh = MeshSDF(mesh).bvh
    for size, batches in ((1, 60), (2, 30), (50, 10), (900, 2), (5000, 1)):
        for k in range(batches):
            points = pool[k * size:(k + 1) * size]
            dist, tri, foot, feature = bvh.min_distance(points)
            want_dist, want_tri = bvh_min_distance_recursive(bvh, points)
            assert dist.tobytes() == want_dist.tobytes()
            assert np.array_equal(tri, want_tri)
            # the closest point and feature of the winning triangle
            corners = mesh.triangles[tri]
            want_foot, want_feature = closest_point_on_triangles(
                points, corners[:, 0], corners[:, 1], corners[:, 2])
            assert foot.tobytes() == want_foot.tobytes()
            assert feature.tobytes() == want_feature.tobytes()
    # the pool holds exact ties: every pair evaluated, as the brute force
    pairs = np.repeat(pool[:900], len(mesh.faces), axis=0)
    corners = np.tile(mesh.triangles, (900, 1, 1))
    foot, _ = closest_point_on_triangles(pairs, corners[:, 0], corners[:, 1],
                                         corners[:, 2])
    d = np.linalg.norm(pairs - foot, axis=1).reshape(900, -1)
    ties = np.count_nonzero((d == d.min(axis=1, keepdims=True)).sum(axis=1) > 1)
    assert ties > 50
    assert np.array_equal(bvh.min_distance(pool[:900])[1], d.argmin(axis=1))


def test_inward_wound_mesh_keeps_its_sign(sphere):
    # pseudonormals follow the enclosed volume, not the winding
    flipped = TriMesh(sphere.vertices, sphere.faces[:, ::-1])
    rng = np.random.default_rng(2)
    points = _near_surface_points(sphere, rng, 600)
    want = MeshSDF(sphere).query(points)
    got = MeshSDF(flipped).query(points)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)
    clear = np.abs(want) > 1e-9
    assert np.array_equal(got[clear] < 0, want[clear] < 0)


def test_query_with_gradient_is_the_seven_query_formula(cylinder):
    # one stacked query gives what seven separate queries gave, bit for bit
    sdf = MeshSDF(cylinder)
    points = _near_surface_points(cylinder, np.random.default_rng(9), 400)
    h = 1e-3
    values, grads = sdf.query_with_gradient(points, h=h)
    want = np.empty_like(points)
    for k in range(3):
        dp = np.zeros(3)
        dp[k] = h
        want[:, k] = (sdf.query(points + dp) - sdf.query(points - dp)) / (2 * h)
    want = want / np.maximum(np.linalg.norm(want, axis=1, keepdims=True), 1e-12)
    assert values.tobytes() == sdf.query(points).tobytes()
    assert grads.tobytes() == want.tobytes()


_RADII = st.floats(0.3, 3.0, allow_nan=False)
_GAPS = st.floats(0.2, 2.0, allow_nan=False)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(radii=st.lists(_RADII, min_size=2, max_size=6),
       gaps=st.lists(_GAPS, min_size=5, max_size=5),
       seed=st.integers(0, 2 ** 16))
@example(radii=[2.0, 0.5, 2.2], gaps=[1.0, 1.0, 1.0, 1.0, 1.0], seed=0)
def test_query_sign_matches_winding_numbers_on_lathe_profiles(radii, gaps, seed):
    # random surfaces of revolution, concave necks included
    z = np.concatenate([[0.0], np.cumsum(gaps[:len(radii) - 1])])
    mesh = lathe_mesh(z, radii, segments=16)
    rng = np.random.default_rng(seed)
    lo, hi = mesh.bounds()
    points = np.vstack([_near_surface_points(mesh, rng, 300),
                        rng.uniform(lo - 0.5, hi + 0.5, size=(100, 3))])
    d = MeshSDF(mesh).query(points)
    inside = winding_numbers(points, mesh) > 0.5
    clear = np.abs(d) > 1e-9
    assert np.array_equal(d[clear] < 0, inside[clear])


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


def _grid_probe_points(grid, rng):
    """Points inside a grid's box, on its nodes (upper faces included),
    on its cell faces, and outside it past every face, edge and corner."""
    hi = np.array(grid.dims) - 1
    inside = rng.uniform(0, hi, size=(300, 3))
    nodes = np.vstack([rng.integers(0, hi + 1, size=(100, 3)),
                       np.indices((2, 2, 2)).reshape(3, -1).T * hi])
    faces = rng.uniform(0, hi, size=(150, 3))
    axis = rng.integers(0, 3, size=150)
    faces[np.arange(150), axis] = rng.integers(0, hi[axis] + 1)
    outside = []
    for side in np.indices((3, 3, 3)).reshape(3, -1).T:   # 0 low, 2 high
        if np.all(side == 1):
            continue
        p = rng.uniform(0, hi, size=(10, 3))
        lo_out = -rng.uniform(0.01, 3.0, size=(10, 3))
        hi_out = hi + rng.uniform(0.01, 3.0, size=(10, 3))
        p = np.where(side == 0, lo_out, np.where(side == 2, hi_out, p))
        outside.append(p)
    rel = np.vstack([inside, nodes, faces, *outside])
    return grid.origin + rel * grid.spacing


def test_sdf_grid_query_with_gradient_matches_trilinear_oracle():
    rng = np.random.default_rng(12)
    grid = SdfGrid(np.array([-0.7, 0.2, 1.3]), 0.3,
                   rng.uniform(-1.0, 1.0, size=(5, 6, 7)))
    points = _grid_probe_points(grid, rng)
    vals, grads = grid.query_with_gradient(points)
    want = [trilinear_point(grid, p) for p in points]
    assert np.abs(vals - [v for v, _ in want]).max() <= 1e-12
    assert np.abs(grads - np.array([g for _, g in want])).max() <= 1e-12
    # query and gradient are the two halves of the same pass, bit for bit
    assert np.array_equal(grid.query(points), vals)
    assert np.array_equal(grid.gradient(points), grads)
