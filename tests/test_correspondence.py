from collections import Counter

import numpy as np
import pytest
from scipy.spatial import cKDTree

from graspsynth import correspondence
from graspsynth.contact import ContactBundle
from graspsynth.correspondence import (CorrespondenceMap, _laplacian,
                                       _NearestPairs, correspond,
                                       diffuse_contacts,
                                       dsc_from_dict, dsc_to_dict,
                                       fit_deformation, lattice_for_bounds,
                                       load_keypoints, pck, save_keypoints,
                                       transfer_keypoints)
from graspsynth.errors import InvalidInputError
from graspsynth.fixtures import category_instances, category_keypoints
from graspsynth.geometry import bbox_diagonal, row_norms, sample_surface

from oracles import (diffuse_sources_loop, nearest_neighbor_matrix,
                     nearest_pairs_kdtree)


@pytest.fixture(scope="module")
def bottle_pair():
    template, meshes, warps = category_instances("bottle", n=3)
    t_samples = sample_surface(template, n=1024, seed=0)
    # instance 1 is a smooth warp of the template with identical topology
    i_samples = sample_surface(meshes[1], n=1024, seed=0)
    return template, t_samples, meshes[1], i_samples, warps[1]


def test_identity_fit_is_zero_field(bottle_pair):
    _, t_samples, *_ = bottle_pair
    field, report = fit_deformation(t_samples, t_samples, max_iters=50)
    assert report.final_chamfer < 1e-8
    assert np.abs(field.displacements).max() < 1e-3


def test_scaled_instance_fit(bottle_pair):
    template, t_samples, *_ = bottle_pair
    scaled = t_samples.points * 1.1
    field, report = fit_deformation(t_samples, scaled)
    diag2 = bbox_diagonal(template) ** 2
    assert report.final_chamfer < 0.01 * diag2
    # trace is non-increasing
    assert np.all(np.diff(report.trace) <= 1e-12)


def test_warped_beats_unwarped(bottle_pair):
    _, t_samples, _, i_samples, _ = bottle_pair
    from graspsynth.geometry import chamfer
    before = chamfer(t_samples.points, i_samples.points)
    field, report = fit_deformation(t_samples, i_samples)
    after = chamfer(field.warp(t_samples.points), i_samples.points)
    assert after < before


def _counting_tree(counts):
    """A cKDTree that counts its builds and the rows it is queried with."""
    class CountingTree(cKDTree):
        def __init__(self, data):
            counts["builds"] += 1
            super().__init__(data)

        def query(self, x, k=1):
            counts["rows"] += len(x)
            return super().query(x, k=k)
    return CountingTree


def _pair_clouds(bottle_pair, kind):
    _, t_samples, _, i_samples, _ = bottle_pair
    if kind == "bottle":
        return t_samples.points, i_samples.points
    # duplicated points on both sides, and template rows that sit exactly
    # on instance rows: first and second distances tie
    base = t_samples.points[:300]
    return (np.concatenate([base[:200], base[100:250]]),
            np.concatenate([base, base[:50]]))


@pytest.mark.parametrize("kind", ["bottle", "duplicated"])
def test_row_norms_equal_kdtree_distances(bottle_pair, kind):
    # the certificates compare row_norms with cKDTree's distances, so the
    # two must be the same bits: on coincident rows (distance 0), on
    # duplicated rows and on rows moved by tiny and large amounts
    t_pts, i_pts = _pair_clouds(bottle_pair, kind)
    rng = np.random.default_rng(9)
    cases = [(i_pts, i_pts)]
    for scale in (0.0, 1e-9, 1e-4, 0.3, 40.0):
        warped = t_pts + rng.normal(size=t_pts.shape) * scale
        cases += [(warped, i_pts), (i_pts, warped)]
    for points, other in cases:
        dist, idx = cKDTree(other).query(points)
        v = points - other[idx]
        got = row_norms(v)
        assert got.tobytes() == dist.tobytes()
        assert got.tobytes() == np.sqrt((v ** 2).sum(axis=1)).tobytes()


@pytest.mark.parametrize("kind", ["bottle", "duplicated"])
def test_nearest_pairs_equal_full_queries(bottle_pair, monkeypatch, kind):
    # the certified pairs give the indices and distances of full cKDTree
    # queries bit for bit, through moves far below, near and beyond the
    # sample spacing, and jumps away and back like rejected candidates
    t_pts, i_pts = _pair_clouds(bottle_pair, kind)
    counts = Counter()
    tree = _counting_tree(counts)
    monkeypatch.setattr(correspondence, "cKDTree", tree)
    pairs = _NearestPairs(i_pts, tree(i_pts))
    rng = np.random.default_rng(5)
    warped = t_pts.copy()
    scales = [0.0, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-3, 1e-2, 0.05, 1.0,
              -1, 1e-4, 1e-6, 0.3, -1, 1e-5, 2.0, 1e-7, 1e-3, 1e-6]
    kept = []
    for scale in scales:
        if scale < 0:   # undo the last move, as after a rejected candidate
            step = -last
        else:
            drift = rng.normal(size=3) * scale
            step = drift + rng.normal(size=warped.shape) * (0.3 * scale)
            last = step
        warped = warped + step
        before = counts["rows"]
        got = pairs(warped)
        want = nearest_pairs_kdtree(warped, i_pts)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)
        kept.append(counts["rows"] - before < len(t_pts) + len(i_pts))
    # tiny moves keep rows without a query
    assert sum(kept) >= 5


def test_zero_fit_evaluates_once_per_level(bottle_pair, monkeypatch):
    # the template fitted to itself has loss 0 and gradient 0, so every
    # candidate equals its iterate and only the first point is evaluated
    _, t_samples, *_ = bottle_pair
    counts = Counter()
    monkeypatch.setattr(correspondence, "cKDTree", _counting_tree(counts))
    calls = []

    class CountingPairs(_NearestPairs):
        def __call__(self, warped):
            calls.append(len(warped))
            return super().__call__(warped)
    monkeypatch.setattr(correspondence, "_NearestPairs", CountingPairs)
    field, report = fit_deformation(t_samples, t_samples)
    levels = 3                       # K = 2, 4, 8
    assert len(calls) == levels
    # the instance tree, then one moving-cloud tree per evaluation
    assert counts["builds"] == 1 + levels
    assert report.iterations == 0
    assert report.final_loss == 0.0
    assert not field.displacements.any()


def test_laplacian_is_node_minus_neighbour_mean():
    dims = (3, 4, 2)
    index = np.arange(24).reshape(dims)
    x = np.random.default_rng(0).normal(size=(24, 3))
    want = np.empty_like(x)
    for node in np.ndindex(*dims):
        neighbours = []
        for axis in range(3):
            for step in (-1, 1):
                other = list(node)
                other[axis] += step
                if 0 <= other[axis] < dims[axis]:
                    neighbours.append(index[tuple(other)])
        want[index[node]] = x[index[node]] - x[neighbours].mean(axis=0)
    assert np.allclose(_laplacian(dims) @ x, want, rtol=0.0, atol=1e-12)


def test_degenerate_instance_rejected(bottle_pair):
    _, t_samples, *_ = bottle_pair
    with pytest.raises(InvalidInputError):
        fit_deformation(t_samples, t_samples.points[:8])


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("side", ["template", "instance"])
def test_fit_deformation_non_finite_sample_is_invalid_input(bottle_pair,
                                                            side, value):
    # a NaN or inf used to end in cKDTree's untyped ValueError
    _, t_samples, _, i_samples, _ = bottle_pair
    clouds = {"template": t_samples.points.copy(),
              "instance": i_samples.points.copy()}
    clouds[side][3, 0] = value
    with pytest.raises(InvalidInputError,
                       match=f"{side} samples must be finite"):
        fit_deformation(clouds["template"], clouds["instance"])


@pytest.mark.parametrize("k", [0, 1])
def test_fit_deformation_lattice_k_below_two_is_invalid_input(bottle_pair, k):
    # k = 0 and 1 used to end in a divide by zero or numpy's "negative
    # axis" ValueError inside the lattice
    _, t_samples, _, i_samples, _ = bottle_pair
    with pytest.raises(InvalidInputError, match=f"k must be >= 2 .*got {k}"):
        fit_deformation(t_samples, i_samples, k=k)


def test_fit_deformation_numpy_integer_k(bottle_pair):
    # numpy integers have no bit_length: k=np.int64(4) used to end in an
    # AttributeError
    _, t_samples, _, i_samples, _ = bottle_pair
    field, report = fit_deformation(t_samples, i_samples, k=np.int64(4),
                                    max_iters=20)
    want, want_report = fit_deformation(t_samples, i_samples, k=4,
                                        max_iters=20)
    assert field.dims == (4, 4, 4)
    assert field.displacements.tobytes() == want.displacements.tobytes()
    assert report.final_loss == want_report.final_loss


@pytest.mark.parametrize("k", [2.5, 8.0, "8", None])
def test_fit_deformation_non_integer_k_is_invalid_input(bottle_pair,
                                                        monkeypatch, k):
    # a float used to end in "'float' object has no attribute
    # 'bit_length'" after the instance tree was built
    _, t_samples, _, i_samples, _ = bottle_pair
    counts = Counter()
    monkeypatch.setattr(correspondence, "cKDTree", _counting_tree(counts))
    with pytest.raises(InvalidInputError, match="k must be an integer"):
        fit_deformation(t_samples, i_samples, k=k)
    assert counts["builds"] == 0


@pytest.mark.parametrize("name", ["beta_smooth", "beta_mag"])
@pytest.mark.parametrize("value", [-1.0, -5.0, np.inf, np.nan])
def test_fit_deformation_bad_beta_is_invalid_input(bottle_pair, name, value):
    # a negative weight used to run silently or overflow, and a non-finite
    # one to spread NaN through the lattice
    _, t_samples, _, i_samples, _ = bottle_pair
    with pytest.raises(InvalidInputError,
                       match=f"{name} must be >= 0 and finite"):
        fit_deformation(t_samples, i_samples, **{name: value})


def test_correspond_identity(bottle_pair):
    _, t_samples, *_ = bottle_pair
    field = lattice_for_bounds(t_samples.points.min(axis=0),
                               t_samples.points.max(axis=0))
    cmap = correspond(t_samples, t_samples, field)
    assert np.array_equal(cmap.indices, np.arange(len(t_samples)))
    assert np.allclose(cmap.residuals, 0.0)


def test_correspond_matches_bruteforce(bottle_pair):
    _, t_samples, _, i_samples, _ = bottle_pair
    field, _ = fit_deformation(t_samples, i_samples, max_iters=60)
    cmap = correspond(t_samples, i_samples, field)
    warped = field.warp(t_samples.points)
    idx, dist = nearest_neighbor_matrix(i_samples.points, warped)
    assert np.array_equal(cmap.indices, idx)
    assert np.allclose(cmap.residuals, dist, atol=1e-12)


def test_correspond_scaling_ground_truth(bottle_pair):
    # instance cloud built by scaling the template samples: sample i of the
    # instance is exactly the image of template sample i
    _, t_samples, *_ = bottle_pair
    scaled = t_samples.points * 1.1
    field, _ = fit_deformation(t_samples, scaled)
    cmap = correspond(t_samples, scaled, field)
    correct = np.mean(cmap.indices == np.arange(len(scaled)))
    assert correct >= 0.95


def test_correspond_smooth_warp_ground_truth(bottle_pair):
    _, t_samples, _, _, warp = bottle_pair
    warped_pts = warp(t_samples.points)
    field, _ = fit_deformation(t_samples, warped_pts)
    cmap = correspond(t_samples, warped_pts, field)
    correct = np.mean(cmap.indices == np.arange(len(warped_pts)))
    assert correct >= 0.95


def test_residual_bound_vs_chamfer(bottle_pair):
    _, t_samples, _, i_samples, _ = bottle_pair
    field, report = fit_deformation(t_samples, i_samples)
    cmap = correspond(t_samples, i_samples, field)
    one_sided = float(np.mean(cmap.residuals ** 2))
    assert one_sided <= 2.0 * report.final_chamfer + 1e-12


def test_keypoint_transfer_and_pck(bottle_pair):
    template, t_samples, instance, i_samples, warp = bottle_pair
    field, _ = fit_deformation(t_samples, i_samples)
    kps = category_keypoints("bottle")
    truth = {k: warp(v[None, :])[0] for k, v in kps.items()}
    predicted = transfer_keypoints(kps, field)
    scores = pck(predicted, truth, instance)
    assert scores[0.02] >= 0.8
    assert 0.0 <= scores[0.01] <= 1.0


def test_pck_threshold_semantics(bottle_pair):
    template, *_ = bottle_pair
    kps = category_keypoints("bottle")
    diag = bbox_diagonal(template)
    assert pck(kps, kps, template) == {0.01: 1.0, 0.02: 1.0}
    shifted = {k: v + np.array([0.015 * diag, 0, 0]) for k, v in kps.items()}
    scores = pck(shifted, kps, template)
    assert scores[0.01] == 0.0
    assert scores[0.02] == 1.0
    with pytest.raises(InvalidInputError):
        pck({"a": np.zeros(3)}, {"b": np.zeros(3)}, template)


def test_diffusion_identity(bottle_pair, cylinder_scene):
    # bundle extracted on the template diffuses onto itself unchanged
    from graspsynth.contact import extract_bundle
    from graspsynth.fixtures import template_demo
    demo, spec, grasp, template = template_demo("bottle")
    bundle = extract_bundle(demo, n_samples=512, seed=1)
    t_samples = sample_surface(template, n=512, seed=1)
    field = lattice_for_bounds(t_samples.points.min(axis=0),
                               t_samples.points.max(axis=0))
    field.template_id = "bottle"
    cmap = correspond(t_samples, t_samples, field)
    out = diffuse_contacts(bundle, cmap, cmap)
    assert np.array_equal(out.contact_object, bundle.contact_object)
    assert np.allclose(out.omega_object, bundle.omega_object)
    for name in bundle.knuckle_partition:
        assert np.array_equal(out.knuckle_partition[name],
                              bundle.knuckle_partition[name])
    for name in bundle.anchor_assignment:
        assert np.array_equal(out.anchor_assignment[name][0],
                              bundle.anchor_assignment[name][0])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_diffusion_sources_match_the_loop(seed):
    # A matches only the first 40 of 60 template samples, with residuals
    # from three values (ties broken by row); each B sample on one of the
    # other 20 falls back to the nearest A-matched template point. Every
    # A row carries its own omega and normal, so B's pin its source.
    rng = np.random.default_rng(seed)
    template = rng.normal(size=(60, 3))
    n_a = 80
    map_a = CorrespondenceMap("t", rng.integers(0, 40, n_a),
                              rng.choice([0.0, 0.5, 1.0], n_a),
                              rng.normal(size=(n_a, 3)), template)
    map_b = CorrespondenceMap("t", rng.integers(0, 60, 100),
                              rng.random(100), rng.normal(size=(100, 3)),
                              template)
    normals = rng.normal(size=(n_a, 3))
    bundle = ContactBundle(map_a.instance_points, normals,
                           np.arange(n_a) / n_a, np.array([], np.int64), [],
                           {}, {}, {}, {}, template_id="t")
    pairs = Counter(zip(map_a.indices.tolist(), map_a.residuals.tolist()))
    assert max(pairs.values()) > 1 and np.any(map_b.indices >= 40)
    want = diffuse_sources_loop(map_a, map_b)
    out = diffuse_contacts(bundle, map_a, map_b)
    assert out.omega_object.tobytes() == bundle.omega_object[want].tobytes()
    assert np.array_equal(out.object_normals, normals[want])


def test_diffusion_empty_contacts(bottle_pair):
    _, t_samples, _, i_samples, _ = bottle_pair
    n = len(t_samples)
    empty = ContactBundle(t_samples.points, t_samples.normals,
                          np.zeros(n), np.array([], dtype=np.int64), [],
                          {}, {}, {}, {}, template_id="bottle")
    field, _ = fit_deformation(t_samples, i_samples, max_iters=40)
    field.template_id = "bottle"
    map_a = correspond(t_samples, t_samples, field)
    map_b = correspond(t_samples, i_samples, field)
    out = diffuse_contacts(empty, map_a, map_b)
    assert len(out.contact_object) == 0


def test_diffusion_category_mismatch(bottle_pair):
    _, t_samples, *_ = bottle_pair
    n = len(t_samples)
    b = ContactBundle(t_samples.points, t_samples.normals, np.zeros(n),
                      np.array([], dtype=np.int64), [], {}, {}, {}, {},
                      template_id="bottle")
    field = lattice_for_bounds(t_samples.points.min(axis=0),
                               t_samples.points.max(axis=0))
    field.template_id = "bottle"
    other = lattice_for_bounds(t_samples.points.min(axis=0),
                               t_samples.points.max(axis=0))
    other.template_id = "wand"
    map_a = correspond(t_samples, t_samples, field)
    map_b = correspond(t_samples, t_samples, other)
    with pytest.raises(InvalidInputError):
        diffuse_contacts(b, map_a, map_b)


def test_dsc_roundtrip(tmp_path, bottle_pair):
    _, t_samples, _, i_samples, _ = bottle_pair
    field, report = fit_deformation(t_samples, i_samples, max_iters=40)
    doc = dsc_to_dict(field, report=report)
    back = dsc_from_dict(doc)
    assert np.allclose(back.displacements, field.displacements)
    assert np.allclose(back.origin, field.origin)


def test_keypoints_roundtrip(tmp_path):
    kps = category_keypoints("wand")
    path = tmp_path / "kp.txt"
    save_keypoints(path, kps)
    back = load_keypoints(path)
    assert set(back) == set(kps)
    for k in kps:
        assert np.allclose(back[k], kps[k], atol=1e-7)


def test_fit_level_stops_once_steps_stop_paying(bottle_pair):
    # each level stops at the first accepted step that gains less than
    # FIT_REL_TOL of the loss it reaches, and records why it stopped
    _, t_samples, _, i_samples, _ = bottle_pair
    _, report = fit_deformation(t_samples, i_samples)
    assert [level.k for level in report.levels] == [2, 4, 8]
    for level in report.levels:
        assert level.stop in ("tolerance", "no_descent", "max_iters")
    final = report.levels[-1]
    assert final.stop == "tolerance"
    assert final.steps == report.iterations == len(report.trace) - 1
    trace = np.asarray(report.trace)
    gains = trace[:-1] - trace[1:]
    floors = correspondence.FIT_REL_TOL * trace[1:]
    assert np.all(gains[:-1] >= floors[:-1])
    assert gains[-1] < floors[-1]


def test_relative_stop_costs_little_accuracy(monkeypatch):
    # against fits run until no step lowers the loss (or max_iters), on the
    # four bottle instances sampled as the pipeline's default config does:
    # the relative stop ends at most 1e-5 (relative) above the converged
    # loss, and leaves at least 99% of the instance rows matched to the
    # same template sample. Instance 0 is the template, whose fit takes
    # no step either way, so its rows are left out of that share.
    template, meshes, _ = category_instances("bottle", n=4)
    t_samples = sample_surface(template, n=2048, seed=0)
    clouds = [sample_surface(mesh, n=2048, seed=0) for mesh in meshes]
    stopped = [fit_deformation(t_samples, cloud) for cloud in clouds]
    monkeypatch.setattr(correspondence, "FIT_REL_TOL", 0.0)
    same = []
    for cloud, (field, report) in zip(clouds, stopped):
        full_field, full = fit_deformation(t_samples, cloud)
        for level in full.levels:
            assert level.stop in ("no_descent", "max_iters")
        assert report.iterations <= full.iterations
        assert report.final_loss <= full.final_loss * (1.0 + 1e-5)
        same.append(correspond(t_samples, cloud, field).indices
                    == correspond(t_samples, cloud, full_field).indices)
    assert np.mean(np.concatenate(same[1:])) >= 0.99
