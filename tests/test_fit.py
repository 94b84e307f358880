from collections import Counter

import numpy as np
import pytest

from graspsynth import fit
from graspsynth import transforms as tf
from graspsynth.errors import InvalidInputError, UnrecognizedObjectError
from graspsynth.fit import (STATE_REL_TOL, TemplateLibrary, canonicalize,
                            fit_state, icp_init, load_state, save_state,
                            state_to_dict)
from graspsynth.fixtures import (CATEGORY_TEMPLATES, bottle_mesh,
                                 category_instances, wand_mesh)
from graspsynth.geometry import sample_surface

from oracles import icp_world_frame


@pytest.fixture(scope="module")
def library():
    return TemplateLibrary.from_meshes({"bottle": bottle_mesh(),
                                        "wand": wand_mesh()})


def world_instance(mesh, s, R, T):
    lo, hi = mesh.bounds()
    centered = mesh.transformed(np.eye(3), -(lo + hi) / 2)
    return centered.scaled(s).transformed(R, T)


def camera_view(mesh, view, n=4096, seed=3):
    """Hemisphere visible from a far camera along ``view`` (back-face cull)."""
    samples = sample_surface(mesh, n=n, seed=seed)
    keep = samples.normals @ np.asarray(view, float) > 0.0
    return samples.points[keep], samples.normals[keep]


def test_canonicalize_unit_diagonal():
    canon, diag, center = canonicalize(bottle_mesh())
    lo, hi = canon.bounds()
    assert np.linalg.norm(hi - lo) == pytest.approx(1.0, abs=1e-9)
    assert np.allclose((lo + hi) / 2, 0.0, atol=1e-9)
    assert diag > 10.0


# -- ICP ----------------------------------------------------------------------


def test_icp_identity(library):
    # observed exactly equals the cloud ICP matches against
    tpl = library.get("bottle")
    observed = tpl.dense_points * tpl.diagonal_cm
    state = icp_init(observed, tpl)
    assert state.icp_residual < 1e-6
    assert state.s == pytest.approx(1.0, abs=1e-6)
    assert np.linalg.norm(state.translation) < 1e-6


def test_icp_recovers_small_transform(library):
    # rotate about a silhouette-changing axis; rotations about the bottle's
    # near-symmetry axis are a known point-to-point ICP degeneracy
    tpl = library.get("bottle")
    R = tf.axis_angle_to_matrix([1, 0, 0], np.deg2rad(10))
    T = np.array([1.0, 0.0, 0.0])
    world = world_instance(bottle_mesh(), 1.0, R, T)
    observed = sample_surface(world, n=1024, seed=2).points
    state = icp_init(observed, tpl)
    ang = np.degrees(tf.quat_rotation_distance(state.rotation,
                                               tf.matrix_to_quat(R)))
    assert ang < 1.0
    assert np.linalg.norm(state.translation - T) < 0.1


def test_icp_half_view(library):
    tpl = library.get("bottle")
    world = world_instance(bottle_mesh(), 1.0, np.eye(3), np.zeros(3))
    pts, _ = camera_view(world, [1, 0, 0])
    state = icp_init(pts, tpl)
    assert np.isfinite(state.icp_residual)
    ang = np.degrees(tf.quat_rotation_distance(state.rotation,
                                               np.array([1.0, 0, 0, 0])))
    assert ang < 5.0
    assert np.linalg.norm(state.translation) < 0.5


def test_icp_needs_points(library):
    with pytest.raises(InvalidInputError):
        icp_init(np.zeros((10, 3)), library.get("bottle"))


def test_icp_coincident_points_is_invalid_input(library):
    # a zero RMS radius used to end in an "invalid value encountered in
    # divide" RuntimeWarning
    with pytest.raises(InvalidInputError, match="do not all coincide"):
        icp_init(np.ones((100, 3)), library.get("bottle"))


@pytest.mark.parametrize("columns", [2, 4])
def test_icp_points_not_n_by_3_is_invalid_input(library, columns):
    # used to end in a numpy broadcasting ValueError
    points = np.zeros((100, columns))
    with pytest.raises(InvalidInputError,
                       match=r"observed points must be an \(N, 3\) array"):
        icp_init(points, library.get("bottle"))


def _with_non_finite(points, value):
    points = np.array(points)
    points[5, 1] = value
    return points


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_icp_non_finite_point_is_invalid_input(library, value):
    # a NaN used to end in cKDTree's untyped ValueError, an inf in an
    # "invalid value encountered in subtract" RuntimeWarning
    tpl = library.get("bottle")
    observed = _with_non_finite(tpl.dense_points * tpl.diagonal_cm, value)
    with pytest.raises(InvalidInputError,
                       match="observed points must be finite"):
        icp_init(observed, tpl)


# -- gradient fit -------------------------------------------------------------


def test_fit_identity_on_exact_samples(library):
    tpl = library.get("bottle")
    observed = tpl.samples.points * tpl.diagonal_cm
    state = fit_state(observed, library, icp_init(observed, tpl),
                      normals=tpl.samples.normals)
    assert state.template_id == "bottle"
    assert state.losses["pc"] < 1e-4
    # sdf/normal floors are set by the 0.25 cm grid resolution
    assert state.losses["sdf"] < 1e-3
    assert state.losses["normal"] < 2e-2
    assert state.s == pytest.approx(1.0, abs=0.01)
    assert np.linalg.norm(state.translation) < 0.05


def test_fit_recovers_synthetic_state(library):
    s_true = 1.2
    R_true = tf.axis_angle_to_matrix([0, 1, 0], np.deg2rad(15))
    T_true = np.array([2.0, 0.0, 1.0])
    world = world_instance(bottle_mesh(), s_true, R_true, T_true)
    pts, nrm = camera_view(world, [1, 0, 0])
    state = fit_state(pts, library, icp_init(pts, library.get("bottle")),
                      normals=nrm)
    assert state.template_id == "bottle"
    assert abs(state.s - s_true) / s_true < 0.02
    ang = np.degrees(tf.quat_rotation_distance(state.rotation,
                                               tf.matrix_to_quat(R_true)))
    assert ang < 2.0
    assert np.linalg.norm(state.translation - T_true) < 0.2


def test_template_discrimination(library):
    world = world_instance(wand_mesh(), 1.05, np.eye(3),
                           np.array([0.5, 0.0, 0.0]))
    pts, nrm = camera_view(world, [0, 1, 0])
    state = fit_state(pts, library, icp_init(pts, library.get("wand")),
                      normals=nrm)
    assert state.template_id == "wand"


def test_fit_equivariance_under_rotation(library):
    rho = tf.axis_angle_to_matrix([1, 0, 0], np.deg2rad(20))
    world = world_instance(bottle_mesh(), 1.0, np.eye(3), np.zeros(3))
    pts, nrm = camera_view(world, [1, 0, 0], seed=5)
    bottle = TemplateLibrary({"bottle": library.get("bottle")})
    base = fit_state(pts, bottle, icp_init(pts, library.get("bottle")),
                     normals=nrm)
    pts2 = pts @ rho.T
    nrm2 = nrm @ rho.T
    init2 = icp_init(pts2, library.get("bottle"))
    rotated = fit_state(pts2, bottle, init2, normals=nrm2)
    R_base = tf.quat_to_matrix(base.rotation)
    R_rot = tf.quat_to_matrix(rotated.rotation)
    relative = R_rot @ R_base.T
    ang = np.degrees(tf.quat_rotation_distance(tf.matrix_to_quat(relative),
                                               tf.matrix_to_quat(rho)))
    assert ang < 2.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_unrecognized_object(library):
    rng = np.random.default_rng(0)
    # diffuse blob much larger than any template, garbage normals
    pts = rng.normal(scale=30.0, size=(512, 3))
    nrm = rng.normal(size=(512, 3))
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    with pytest.raises(UnrecognizedObjectError):
        fit_state(pts, library, icp_init(pts, library.get("bottle")),
                  normals=nrm, loss_ceiling=1.0)


def test_unrecognized_object_evaluation_counts(library, monkeypatch):
    # test_unrecognized_object's blob: an accepted step keeps its step, so
    # each fit is its start, 300 accepted steps and few rejected
    # candidates
    rng = np.random.default_rng(0)
    pts = rng.normal(scale=30.0, size=(512, 3))
    nrm = rng.normal(size=(512, 3))
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    calls = Counter()
    losses = fit._ose_losses

    def counting(template, *args):
        calls[template.template_id] += 1
        return losses(template, *args)

    monkeypatch.setattr(fit, "_ose_losses", counting)
    with pytest.raises(UnrecognizedObjectError):
        fit_state(pts, library, icp_init(pts, library.get("bottle")),
                  normals=nrm, loss_ceiling=1.0)
    assert calls == {"bottle": 306, "wand": 302}


def test_degenerate_normals_guarded(library):
    tpl = library.get("bottle")
    observed = tpl.samples.points * tpl.diagonal_cm
    zeros = np.zeros_like(observed)
    state = fit_state(observed[:256], TemplateLibrary({"bottle": tpl}),
                      icp_init(observed, tpl), normals=zeros[:256])
    assert np.isfinite(state.losses["normal"])  # eps guard, no NaN


@pytest.mark.parametrize("value", [np.nan, -np.inf])
@pytest.mark.parametrize("field", ["points", "normals"])
def test_fit_state_non_finite_observation_is_invalid_input(library, field,
                                                           value):
    tpl = library.get("bottle")
    points = tpl.samples.points * tpl.diagonal_cm
    normals = tpl.samples.normals
    init = icp_init(points, tpl)
    if field == "points":
        points = _with_non_finite(points, value)
    else:
        normals = _with_non_finite(normals, value)
    with pytest.raises(InvalidInputError,
                       match=f"observed {field} must be finite"):
        fit_state(points, library, init, normals=normals)


def test_fit_state_empty_library_is_invalid_input(library):
    # used to end in AttributeError: 'NoneType' object has no attribute
    # 'losses'
    tpl = library.get("bottle")
    points = tpl.samples.points * tpl.diagonal_cm
    with pytest.raises(InvalidInputError, match="template library is empty"):
        fit_state(points, TemplateLibrary({}), icp_init(points, tpl))


def test_fit_state_empty_cloud_is_invalid_input(library):
    # used to end in a "Mean of empty slice" RuntimeWarning
    tpl = library.get("bottle")
    points = tpl.samples.points * tpl.diagonal_cm
    init = icp_init(points, tpl)
    with pytest.raises(InvalidInputError,
                       match="observed points must not be empty"):
        fit_state(points[:0], library, init)


def test_fit_state_init_outside_the_library_icp_starts_every_template(
        library, view_library, monkeypatch):
    # an init naming a template the library lacks seeds no descent: every
    # template starts from its own ICP, as for any other template
    tpl = library.get("bottle")
    points = tpl.samples.points * tpl.diagonal_cm
    init = icp_init(points, tpl)
    others = TemplateLibrary({t.template_id: t for t in view_library
                              if t.template_id != "bottle"})
    started = []
    icp = fit.icp_init

    def recording(observed, template):
        started.append(template.template_id)
        return icp(observed, template)

    monkeypatch.setattr(fit, "icp_init", recording)
    state = fit_state(points, others, init, max_iters=5, loss_ceiling=np.inf)
    assert started == ["tumbler", "wand"]
    assert state.template_id in started


def test_fit_state_points_not_n_by_3_is_invalid_input(library):
    # used to end in a numpy broadcasting ValueError
    tpl = library.get("bottle")
    points = tpl.samples.points * tpl.diagonal_cm
    init = icp_init(points, tpl)
    with pytest.raises(InvalidInputError,
                       match=r"observed points must be an \(N, 3\) array"):
        fit_state(points[:, :2], library, init)


@pytest.mark.parametrize("cut, message", [
    ("short", "observed normals must be one per point"),
    ("two_columns", r"observed normals must be an \(N, 3\) array")],
    ids=["short", "two_columns"])
def test_fit_state_normals_not_matching_points_is_invalid_input(library, cut,
                                                                message):
    # each used to end in a numpy broadcasting ValueError
    tpl = library.get("bottle")
    points = tpl.samples.points * tpl.diagonal_cm
    normals = tpl.samples.normals
    normals = normals[:-1] if cut == "short" else normals[:, :2]
    with pytest.raises(InvalidInputError, match=message):
        fit_state(points, library, icp_init(points, tpl), normals=normals)


# -- the descent's stop -------------------------------------------------------


VIEW_CATEGORIES = ("bottle", "tumbler", "wand")


@pytest.fixture(scope="module")
def view_library():
    return TemplateLibrary.from_meshes(
        {c: CATEGORY_TEMPLATES[c]() for c in VIEW_CATEGORIES})


def half_view(seed, k):
    """The k-th half view of a seed as the fit_view benchmark draws it: a
    warped instance, scaled, tilted 12 degrees and seen from one side;
    returns (points, normals)."""
    category = VIEW_CATEGORIES[k % 3]
    variant = (k // 3) % 2
    _, meshes, _ = category_instances(category)
    mesh = meshes[(1, 3)[variant]]
    tilt_axis = np.deg2rad(60.0 * k)
    R = tf.axis_angle_to_matrix(
        [np.cos(tilt_axis), np.sin(tilt_axis), 0.0], np.deg2rad(12.0))
    T = np.array([1.0, -0.5, 0.5]) * (1 + variant)
    lo, hi = mesh.bounds()
    world = mesh.transformed(np.eye(3), -(lo + hi) / 2).scaled(
        (0.95, 1.1)[variant]).transformed(R, T)
    cloud = sample_surface(world, n=2048, seed=seed * 1000 + k)
    keep = cloud.normals @ np.array([1.0, 0.0, 0.2]) > 0.0
    return cloud.points[keep], cloud.normals[keep]


def _accepted_losses(evaluated):
    """The losses a descent accepted, from every loss it evaluated in
    order: the start, then each one below the last accepted."""
    accepted = [evaluated[0]]
    for value in evaluated[1:]:
        if value < accepted[-1] - 1e-15:
            accepted.append(value)
    return np.array(accepted)


def test_fit_stops_once_steps_stop_paying(view_library, monkeypatch):
    # each template's descent on a half view, at fit_state's default 300
    # steps, stops on the tolerance: every accepted step but the last
    # gains at least STATE_REL_TOL of the loss it reaches, and the last
    # gains less
    points, normals = half_view(7, 0)
    evaluated = []
    losses = fit._ose_losses

    def recording(*args):
        result = losses(*args)
        evaluated.append(result[0])
        return result

    monkeypatch.setattr(fit, "_ose_losses", recording)
    for template in view_library:
        evaluated.clear()
        alone = TemplateLibrary({template.template_id: template})
        state = fit_state(points, alone, icp_init(points, template),
                          normals=normals, loss_ceiling=np.inf)
        accepted = _accepted_losses(evaluated)
        gains = accepted[:-1] - accepted[1:]
        assert state.steps == len(gains)
        assert state.losses["total"] == accepted[-1]
        assert np.all(gains[:-1] >= STATE_REL_TOL * accepted[1:-1])
        assert state.stop == "tolerance"
        assert gains[-1] < STATE_REL_TOL * accepted[-1]
        assert "steps" not in state_to_dict(state)
        assert "stop" not in state_to_dict(state)


def test_relative_stop_costs_little_accuracy(view_library, monkeypatch):
    # the six half views of seed 7, fit for fit_state's default 300 steps,
    # against fits that run until no step lowers the loss. Measured gaps
    # (largest over the views): loss 4.8e-7, s 4.7e-7 (both relative) and
    # rotation 1.8e-5 degrees at seed 7; 4.7e-6, 6.9e-5 and 0.0023 degrees
    # at seed 21, the largest of seeds 0, 7 and 21
    views = [half_view(7, k) for k in range(6)]
    first = next(iter(view_library))
    inits = [icp_init(points, first) for points, _ in views]

    def fits():
        return [fit_state(points, view_library, init, normals=normals)
                for (points, normals), init in zip(views, inits)]

    stopped = fits()
    monkeypatch.setattr(fit, "STATE_REL_TOL", 0.0)
    converged = fits()
    for got, want in zip(stopped, converged):
        assert got.template_id == want.template_id
        assert want.stop == "no_descent"
        loss, floor = got.losses["total"], want.losses["total"]
        assert loss - floor <= 1e-5 * floor
        assert abs(got.s - want.s) <= 1e-4 * want.s
        relative = tf.quat_mul(got.rotation, want.rotation * [1, -1, -1, -1])
        angle = 2.0 * np.arctan2(np.linalg.norm(relative[1:]),
                                 abs(relative[0]))
        assert np.degrees(angle) <= 0.01
    assert {state.stop for state in stopped} == {"tolerance"}


def _single_phase_icp(observed, template):
    """ICP on the whole cloud for at most 50 iterations, as before the
    coarse phase, through the world-frame oracle."""
    (s, quat, t, residual), _ = icp_world_frame(
        np.asarray(observed, float), template.dense_points,
        template.diagonal_cm)
    return fit.ObjectState(template.template_id, s, quat, t,
                           icp_residual=residual)


def test_coarse_icp_start_keeps_template_and_loss(view_library, monkeypatch):
    # the six half views of seed 7, fit from icp_init's coarse-then-full
    # schedule and from the single-phase ICP it replaced: every view picks
    # the same template, and the summed winning loss rises by at most
    # 0.5%
    views = [half_view(7, k) for k in range(6)]
    first = next(iter(view_library))

    def fits(icp):
        return [fit_state(points, view_library, icp(points, first),
                          normals=normals) for points, normals in views]

    coarse = fits(icp_init)
    monkeypatch.setattr(fit, "icp_init", _single_phase_icp)
    single = fits(_single_phase_icp)
    assert ([state.template_id for state in coarse]
            == [state.template_id for state in single]
            == list(VIEW_CATEGORIES) * 2)
    got = sum(state.losses["total"] for state in coarse)
    want = sum(state.losses["total"] for state in single)
    assert got <= 1.005 * want


def test_objstate_roundtrip(tmp_path, library):
    tpl = library.get("bottle")
    observed = tpl.samples.points * tpl.diagonal_cm
    state = icp_init(observed, tpl)
    doc = state_to_dict(state)
    assert doc["schema"] == "objstate/1"
    path = tmp_path / "state.json"
    save_state(path, state)
    back = load_state(path)
    assert back.template_id == state.template_id
    assert back.s == pytest.approx(state.s, rel=1e-12)
    assert np.allclose(back.rotation, state.rotation)
