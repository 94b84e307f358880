import warnings

import numpy as np
import pytest

from graspsynth import transforms as tf
from graspsynth.contact import ContactBundle
from graspsynth.errors import InvalidInputError
from graspsynth.fixtures import (category_instances, cylinder_mesh,
                                 wrap_grasp_pose)
from graspsynth.geometry import (MeshSDF, Primitive, TriMesh, tessellate,
                                 voxelize)
from graspsynth.hands import builtin_hand
from graspsynth.hands.model import (Grasp, HandSpec, Link, apply_coupling,
                                    forward_kinematics, make_grasp)
from graspsynth.metrics import (ContactSet, closure_success, epsilon_quality,
                                evaluate_grasp, functionality_pr, hrd,
                                MetricsReport, ncd, penetration,
                                report_from_dict, report_to_dict,
                                self_penetration, wrench_set, write_csv)

from conftest import make_sphere, make_unit_cube
from oracles import (penetration_volume_full_grid, rot_about,
                     support_function_radius)


def antipodal_contacts(mu=0.5, m=8):
    pts = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    normals = np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])  # inward
    return ContactSet(pts, normals, mu=mu, cone_edges=m)


def test_single_contact_zero():
    c = ContactSet([[1.0, 0.0, 0.0]], [[-1.0, 0.0, 0.0]])
    assert epsilon_quality(c, torque_scale=1.0) == 0.0


def test_antipodal_matches_lp_oracle():
    # two point contacts with friction cannot resist torque about their
    # common axis: the wrench space is rank 5 and both sides report 0
    c = antipodal_contacts()
    got = epsilon_quality(c, torque_scale=1.0)
    oracle = support_function_radius(wrench_set(c, 1.0), restarts=120, seed=0)
    assert abs(got - oracle) <= 0.05 * max(oracle, 1e-6)


def test_tripod_matches_lp_oracle():
    # three symmetric contacts close the wrench space; compare against the
    # support-function minimization oracle
    ang = np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
    pts = np.column_stack([np.cos(ang), np.sin(ang), np.zeros(3)])
    c = ContactSet(pts, -pts, mu=0.5, cone_edges=8)
    got = epsilon_quality(c, torque_scale=1.0)
    oracle = support_function_radius(wrench_set(c, 1.0), restarts=200, seed=1)
    assert got > 0
    assert abs(got - oracle) <= 0.05 * oracle


def test_three_symmetric_contacts_positive_and_monotone_mu():
    ang = np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
    pts = np.column_stack([np.cos(ang), np.sin(ang), np.zeros(3)])
    normals = -pts
    values = []
    for mu in (0.2, 0.5, 0.8):
        c = ContactSet(pts, normals, mu=mu)
        values.append(epsilon_quality(c, torque_scale=1.0))
    assert values[0] > 0
    assert values[0] < values[1] < values[2]


def test_epsilon_monotone_in_cone_edges():
    c6 = antipodal_contacts(m=6)
    c12 = antipodal_contacts(m=12)
    e6 = epsilon_quality(c6, torque_scale=1.0)
    e12 = epsilon_quality(c12, torque_scale=1.0)
    assert e12 >= e6 - 1e-12


def test_epsilon_rotation_invariance():
    c = antipodal_contacts()
    base = epsilon_quality(c, torque_scale=1.0)
    R = rot_about([0.3, 0.8, -0.5], 1.2)
    rotated = ContactSet(c.points @ R.T, c.normals @ R.T, mu=c.mu,
                         cone_edges=c.cone_edges)
    assert epsilon_quality(rotated, torque_scale=1.0) == pytest.approx(
        base, rel=1e-6)


def test_epsilon_requires_contact():
    with pytest.raises(InvalidInputError):
        epsilon_quality(ContactSet(np.zeros((0, 3)), np.zeros((0, 3))), 1.0)


# -- penetration ---------------------------------------------------------------


def box_hand(he=(0.5, 0.5, 0.5), center=(0.0, 0.0, 0.0), samples=256):
    links = [Link("box", -1, np.eye(3), np.asarray(center, float), "fixed",
                  primitives=[Primitive("box", tuple(he))],
                  sample_count=samples)]
    return HandSpec("boxhand", links)


def test_penetration_disjoint():
    spec = box_hand(center=(10.0, 0.0, 0.0))
    posed = forward_kinematics(spec, make_grasp(spec))
    depth, volume = penetration(posed, make_unit_cube())
    assert depth == 0.0
    assert volume == 0.0


def test_penetration_half_overlap_volume():
    # unit cube object; 1 cm cube hand shifted so half of it overlaps
    spec = box_hand(center=(1.0, 0.5, 0.5))
    posed = forward_kinematics(spec, make_grasp(spec))
    depth, volume = penetration(posed, make_unit_cube())
    assert volume == pytest.approx(0.5, abs=0.15)  # one boundary cell layer
    assert depth == pytest.approx(0.5, abs=0.1)    # sample-density limited


def test_penetration_sphere_halfspace_depth():
    # sphere hand r=1 with center 0.5 cm inside a big slab: depth 1.5
    links = [Link("ball", -1, np.eye(3), np.array([0.0, 0.0, -0.5]), "fixed",
                  primitives=[Primitive("sphere", (1.0,))], sample_count=512)]
    spec = HandSpec("ballhand", links)
    posed = forward_kinematics(spec, make_grasp(spec))
    slab = tessellate(Primitive("box", (20.0, 20.0, 5.0),
                                translation=np.array([0.0, 0.0, -5.0])))
    depth, _ = penetration(posed, slab)
    assert depth == pytest.approx(1.5, abs=0.05)


def test_penetration_rejects_open_mesh():
    # refused before any object SDF is built (which would warn)
    cube = make_unit_cube()
    spec = box_hand(center=(0.5, 0.5, 0.5))
    posed = forward_kinematics(spec, make_grasp(spec))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError):
            penetration(posed, TriMesh(cube.vertices, cube.faces[:-1]))


@pytest.mark.parametrize("hand", ["human", "coupled9", "quad16", "pinch1"])
def test_penetration_volume_matches_full_grid(hand):
    # the volume asks the object only at the cells inside the hand; it
    # must equal the full-grid count of voxelize & hand occupancy
    spec = builtin_hand(hand)
    lo, hi = spec.actuated_limits[:, 0], spec.actuated_limits[:, 1]
    rng = np.random.default_rng(5)
    volumes = []
    for mesh in (cylinder_mesh(), category_instances("bottle")[1][2]):
        sdf = MeshSDF(mesh)
        rotation, translation = wrap_grasp_pose(mesh)
        for _ in range(2):
            q, _ = apply_coupling(spec, lo + rng.uniform(0.3, 0.9, spec.doa)
                                  * (hi - lo))
            t = translation + rng.uniform(-0.5, 0.5, 3)
            posed = forward_kinematics(spec, Grasp(q, rotation, t))
            deepest = float(sdf.query(posed.all_sample_points()[0]).min())
            t[1] -= rng.uniform(0.2, 1.0) + deepest
            posed = forward_kinematics(spec, Grasp(q, rotation, t))
            _, volume = penetration(posed, mesh, object_sdf=sdf)
            assert volume == penetration_volume_full_grid(posed, mesh)
            volumes.append(volume)
    assert max(volumes) > 0


def test_self_penetration_zero_open_hand(cylinder_scene):
    spec = cylinder_scene["spec"]
    posed = forward_kinematics(spec, make_grasp(spec))
    depth, volume = self_penetration(posed)
    assert depth == 0.0 and volume == 0.0


def test_self_penetration_overlap():
    links = [
        Link("a", -1, np.eye(3), np.zeros(3), "fixed",
             primitives=[Primitive("sphere", (0.5,))], sample_count=128),
        Link("mid", 0, np.eye(3), np.array([5.0, 0, 0]), "revolute",
             np.array([0.0, 0.0, 1.0]), (-0.5, 0.5),
             primitives=[Primitive("sphere", (0.5,))], sample_count=128),
        Link("b", 1, np.eye(3), np.array([-4.3, 0, 0]), "revolute",
             np.array([0.0, 0.0, 1.0]), (-0.5, 0.5),
             primitives=[Primitive("sphere", (0.5,))], sample_count=128),
    ]
    spec = HandSpec("overlap", links)
    posed = forward_kinematics(spec, make_grasp(spec))
    depth, volume = self_penetration(posed)
    assert depth == pytest.approx(0.3, abs=0.05)
    assert volume > 0


# -- map similarity, rotation distance, reconstruction ------------------------


def _bundle_with_omega(points, omega):
    n = len(points)
    return ContactBundle(np.asarray(points, float), np.zeros((n, 3)),
                         np.asarray(omega, float), np.array([], np.int64),
                         [], {}, {}, {}, {})


def test_functionality_identity():
    pts = np.random.default_rng(0).normal(size=(50, 3))
    omega = np.random.default_rng(1).random(50)
    b = _bundle_with_omega(pts, omega)
    p, r, flags = functionality_pr(b, b)
    assert p == 1.0 and r == 1.0


def test_functionality_half_precision():
    pts = np.zeros((40, 3))
    truth = np.concatenate([np.ones(10), np.zeros(30)])
    pred = np.concatenate([np.ones(20), np.zeros(20)])
    p, r, _ = functionality_pr(_bundle_with_omega(pts, pred),
                               _bundle_with_omega(pts, truth))
    assert p == 0.5 and r == 1.0


def test_functionality_empty_conventions():
    pts = np.zeros((10, 3))
    zero = _bundle_with_omega(pts, np.zeros(10))
    some = _bundle_with_omega(pts, np.ones(10))
    p, r, flags = functionality_pr(zero, some)
    assert p == 0.0 and "empty_prediction" in flags
    p, r, flags = functionality_pr(some, zero)
    assert r == 1.0 and "empty_truth" in flags


def test_functionality_mismatch_error():
    a = _bundle_with_omega(np.zeros((5, 3)), np.zeros(5))
    b = _bundle_with_omega(np.zeros((6, 3)), np.zeros(6))
    with pytest.raises(InvalidInputError):
        functionality_pr(a, b)


def test_hrd_identities():
    q = tf.quat_normalize([0.3, 0.5, -0.2, 0.7])
    assert hrd(q, q) == 0.0
    assert hrd(q, -np.asarray(q)) == 0.0
    p = np.array([1.0, 0.0, 0.0, 0.0])
    r90 = tf.rotvec_to_quat([0.0, np.pi / 2, 0.0])
    assert hrd(p, r90) == pytest.approx(np.pi / 2, abs=1e-12)
    assert hrd(p, r90) == hrd(r90, p)
    with pytest.warns(UserWarning):
        assert hrd([2.0, 0, 0, 0], [1.0, 0, 0, 0]) == 0.0


def test_ncd_self_and_monotone():
    mesh = cylinder_mesh(radius=2.0, height=6.0)
    from graspsynth.geometry import sample_surface
    rec = sample_surface(mesh, n=2048, seed=0)
    assert ncd(rec, mesh, n=2048, seed=0) == 0.0
    values = [ncd(rec.points + np.array([delta, 0.0, 0.0]), mesh,
                  n=2048, seed=0) for delta in (0.2, 0.5, 1.0)]
    assert values[0] < values[1] < values[2]


def test_iou_wrapper(unit_cube):
    a = voxelize(unit_cube, spacing=0.25)
    assert pytest.approx(1.0) == __import__(
        "graspsynth.metrics", fromlist=["grids_iou"]).grids_iou(a, a)


# -- closure success -----------------------------------------------------------


def test_closure_success_on_wrap_grasp(cylinder_scene):
    spec = cylinder_scene["spec"]
    ok = closure_success(spec, cylinder_scene["grasp"],
                         cylinder_scene["mesh"])
    assert ok is True


def test_closure_fails_far_away(cylinder_scene):
    spec = cylinder_scene["spec"]
    g = cylinder_scene["grasp"]
    far = make_grasp(spec, q=g.q,
                     rotation=g.rotation,
                     translation=g.translation + np.array([0.0, 5.0, 0.0]))
    assert closure_success(spec, far, cylinder_scene["mesh"]) is False


def test_closure_single_link_contact_fails():
    # one-box hand resting on a sphere: a single link can never close
    spec = box_hand(center=(0.0, 0.0, 1.6), samples=128)
    mesh = make_sphere(radius=1.0)
    g = make_grasp(spec)
    assert closure_success(spec, g, mesh) is False


# -- aggregated report ----------------------------------------------------------


def test_evaluate_grasp_report(cylinder_scene, cylinder_bundle):
    spec = cylinder_scene["spec"]
    report = evaluate_grasp(spec, cylinder_scene["grasp"],
                            cylinder_scene["mesh"],
                            truth_bundle=cylinder_bundle,
                            hrd_reference=cylinder_scene["grasp"].rotation)
    assert report.functionality_precision == pytest.approx(1.0, abs=1e-9)
    assert report.functionality_recall == pytest.approx(1.0, abs=1e-9)
    assert report.hrd == 0.0
    assert report.closure_success
    assert report.penetration_depth < 0.3


@pytest.mark.parametrize("name, value", [
    ("epsilon", -1.0), ("functionality_precision", 3.0),
    ("functionality_recall", -0.5), ("iou", 1.5), ("hrd", 4.0)])
def test_report_validate_raises(name, value):
    # a raised error, not an assert: python -O must not accept these
    assert MetricsReport().validate() is not None
    report = MetricsReport()
    setattr(report, name, value)
    with pytest.raises(InvalidInputError):
        report.validate()


def test_report_roundtrip_and_csv(tmp_path):
    report = MetricsReport(epsilon=0.1, penetration_depth=0.2,
                           functionality_precision=0.7,
                           functionality_recall=0.9, hrd=0.3,
                           closure_success=True, flags=["x"])
    doc = report_to_dict(report, "obj", "grasp0")
    assert doc["schema"] == "metrics/1"
    back = report_from_dict(doc)
    assert back.epsilon == pytest.approx(0.1)
    assert np.isnan(back.iou)
    path = tmp_path / "m.csv"
    write_csv(path, [("obj", "g0", report), ("obj", "g1", MetricsReport())])
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("object,grasp,epsilon")
