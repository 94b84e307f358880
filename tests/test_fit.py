import numpy as np
import pytest

from graspsynth import transforms as tf
from graspsynth.errors import InvalidInputError, UnrecognizedObjectError
from graspsynth.fit import (TemplateLibrary, canonicalize, fit_state,
                            icp_init, load_state, save_state, state_to_dict)
from graspsynth.fixtures import bottle_mesh, wand_mesh
from graspsynth.geometry import sample_surface


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
    base = fit_state(pts, library, icp_init(pts, library.get("bottle")),
                     normals=nrm, refit_all_templates=False)
    pts2 = pts @ rho.T
    nrm2 = nrm @ rho.T
    init2 = icp_init(pts2, library.get("bottle"))
    rotated = fit_state(pts2, library, init2, normals=nrm2,
                        refit_all_templates=False)
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


def test_degenerate_normals_guarded(library):
    tpl = library.get("bottle")
    observed = tpl.samples.points * tpl.diagonal_cm
    zeros = np.zeros_like(observed)
    state = fit_state(observed[:256], library,
                      icp_init(observed, tpl), normals=zeros[:256],
                      refit_all_templates=False)
    assert np.isfinite(state.losses["normal"])  # eps guard, no NaN


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
