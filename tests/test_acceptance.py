"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Tolerances are pinned here, not configurable.
"""

import json
import time

import numpy as np
import pytest

from graspsynth import transforms as tf
from graspsynth.contact import digitize, extract_bundle
from graspsynth.correspondence import (correspond, diffuse_contacts,
                                       fit_deformation, pck,
                                       transfer_keypoints)
from graspsynth.fit import TemplateLibrary, fit_state, icp_init
from graspsynth.fixtures import (bottle_mesh, category_instances,
                                 category_keypoints, wand_mesh)
from graspsynth.geometry import (MeshSDF, Primitive, chamfer, primitive_sdf,
                                 sample_surface, voxelize)
from graspsynth.geometry.grid import iou as grid_iou
from graspsynth.grasp_opt import LossWeights, optimize
from graspsynth.hands.model import Grasp, forward_kinematics
from graspsynth.hands import builtin_hand, point_jacobian
from graspsynth.metrics import (ContactSet, epsilon_quality, hrd, ncd,
                                wrench_set)
from graspsynth.retarget import RetargetProblem, retarget

from conftest import make_unit_cube
from oracles import (chamfer_bruteforce, finite_difference_jacobian,
                     fk_matrix_chain, loss_anchor, mesh_sdf,
                     mesh_signed_distance, support_function_radius)


def ok(n, message):
    print(f"\nACCEPTANCE {n}: PASS — {message}")


def test_criterion_1_contact_digitization():
    assert digitize(0.0) == 1.0
    assert digitize(1.0) == pytest.approx(0.2384, abs=1e-4)
    grid = np.linspace(0.0, 8.0, 100)
    omega = digitize(grid)
    assert np.all(np.diff(omega) <= 0)
    ok(1, "omega(0)=1 exactly, omega(1cm)=0.2384+-1e-4, monotone on 100-grid")


def test_criterion_2_geometry_oracles(sphere):
    rng = np.random.default_rng(42)
    queries = rng.uniform(-1.6, 1.6, size=(1000, 3))
    got = mesh_sdf(sphere, queries)
    want = np.array([mesh_signed_distance(sphere, q) for q in queries])
    sdf_err = np.abs(got - want).max()
    assert sdf_err < 1e-4

    for _ in range(3):
        p = rng.normal(size=(40, 3))
        q = rng.normal(size=(60, 3))
        assert chamfer(p, q) == pytest.approx(chamfer_bruteforce(p, q),
                                              rel=1e-12)

    prim = Primitive("capsule", (0.6, 1.1),
                     rotation=tf.axis_angle_to_matrix(
                         np.array([1.0, 1.0, 0.0]) / np.sqrt(2), 0.7),
                     translation=np.array([0.2, -0.1, 0.4]))
    pts = rng.uniform(-3, 3, size=(400, 3))
    d, g = primitive_sdf(prim, pts)
    keep = np.abs(d) > 0.05
    h = 1e-4
    worst = 0.0
    for k in range(3):
        dp = np.zeros(3)
        dp[k] = h
        fd = (primitive_sdf(prim, pts[keep] + dp, with_gradient=False)
              - primitive_sdf(prim, pts[keep] - dp, with_gradient=False)) / (2 * h)
        worst = max(worst, float(np.abs(fd - g[keep][:, k]).max()))
    assert worst < 1e-5
    ok(2, f"mesh SDF oracle {sdf_err:.1e}<1e-4 cm (1000 queries), chamfer "
          f"exact, primitive gradients FD {worst:.1e}<1e-5")


def test_criterion_3_kinematics_oracles():
    rng = np.random.default_rng(7)
    worst_fk = 0.0
    worst_jac = 0.0
    for hand in ("coupled9", "quad16", "pinch1"):
        spec = builtin_hand(hand)
        q = rng.uniform(spec.lower, spec.upper)
        quat = tf.quat_normalize(rng.normal(size=4))
        t = rng.uniform(-4, 4, 3)
        g = Grasp(q, quat, t)
        posed = forward_kinematics(spec, g)
        oracle = fk_matrix_chain(spec, q, tf.quat_to_matrix(quat), t)
        for i in range(len(spec.links)):
            worst_fk = max(worst_fk,
                           float(np.abs(posed.rotations[i]
                                        - oracle[i][:3, :3]).max()),
                           float(np.abs(posed.translations[i]
                                        - oracle[i][:3, 3]).max()))

        link = spec.segment_links()[-1]
        local = np.array([0.4, 0.05, -0.1])

        def world_point(x, spec=spec, link=link, local=local, quat=quat):
            g2 = Grasp(x[:spec.dof], tf.quat_normalize(
                tf.quat_mul(tf.rotvec_to_quat(x[spec.dof + 3:]), quat)),
                x[spec.dof:spec.dof + 3])
            p = forward_kinematics(spec, g2)
            return p.rotations[link] @ local + p.translations[link]

        x0 = np.concatenate([q, t, np.zeros(3)])
        J_fd = finite_difference_jacobian(world_point, x0, h=1e-5)
        J = point_jacobian(spec, g, link, local)
        scale = max(np.abs(J_fd).max(), 1.0)
        worst_jac = max(worst_jac, float(np.abs(J - J_fd).max() / scale))
    assert worst_fk < 1e-8
    assert worst_jac < 1e-4
    ok(3, f"FK matrix-chain equality {worst_fk:.1e}<1e-8, point Jacobian "
          f"FD rel {worst_jac:.1e}<1e-4 on 3 shipped hands")


def test_criterion_4_retargeting(cylinder_scene):
    from graspsynth.retarget import problem_from_demo
    problem = problem_from_demo(cylinder_scene["demo"], cylinder_scene["spec"])
    result = retarget(problem)
    assert np.array_equal(result.grasp.q, cylinder_scene["grasp"].q)

    from test_retarget import one_joint_hand
    spec1 = one_joint_hand(hi=0.9)
    boundary = retarget(RetargetProblem(
        spec1, {"human_j": 1.2}, {"index": np.array([2.0, 0.0, 0.0])},
        tf.IDENTITY_QUAT, np.zeros(3), alpha_task=0.0, alpha_joint=5.0))
    assert boundary.grasp.q[0] == pytest.approx(0.9, abs=1e-12)

    robot = builtin_hand("coupled9")
    trace = np.asarray(retarget(problem_from_demo(cylinder_scene["demo"],
                                                  robot)).trace)
    assert np.all(np.diff(trace) <= 1e-12)
    ok(4, "identical-skeleton roundtrip exact, boundary clamp exact, "
          "cost trace non-increasing")


def test_criterion_5_self_transfer(cylinder_scene, cylinder_bundle):
    spec = cylinder_scene["spec"]
    grasp = cylinder_scene["grasp"]
    mesh = cylinder_scene["mesh"]
    t0 = time.perf_counter()
    report = optimize(spec, grasp, cylinder_bundle, restarts=5, steps=200,
                      seed=0)
    report2 = optimize(spec, grasp, cylinder_bundle, restarts=5, steps=200,
                       seed=0)
    elapsed = time.perf_counter() - t0
    assert report.final_loss <= report.initial_loss

    posed = forward_kinematics(spec, report.grasp)
    pts, _ = posed.all_sample_points()
    depth = float(np.maximum(-MeshSDF(mesh).query(pts), 0.0).max())
    assert depth <= 0.3

    # anchors whose nearest assigned point is within d2 contribute zero
    w = LossWeights()
    contributions = []
    for k, anchor in enumerate(spec.anchors):
        entry = cylinder_bundle.anchor_assignment.get(anchor.name)
        if entry is None or not len(entry[0]):
            continue
        target = cylinder_bundle.object_points[entry[0]]
        dist = float(np.linalg.norm(target - posed.anchor_points[k],
                                    axis=1).min())
        contributions.append(dist if dist > w.d2 else 0.0)
    assert sum(contributions) == pytest.approx(report.steps[-1]["anchor"],
                                               abs=1e-9)
    assert np.array_equal(report.grasp.q, report2.grasp.q)
    assert [r["total"] for r in report.steps] == \
        [r["total"] for r in report2.steps]
    assert elapsed < 120.0  # two full 200x5 runs; one run well under 60 s
    ok(5, f"200x5 self-transfer: loss {report.initial_loss:.2f}->"
          f"{report.final_loss:.2f}, penetration {depth:.3f}<=0.3 cm, "
          f"near anchors contribute 0, bit-deterministic, "
          f"{elapsed / 2:.1f}s per run < 60s")


def test_criterion_6_ablation_directions(cylinder_scene, cylinder_bundle):
    spec = cylinder_scene["spec"]
    grasp = cylinder_scene["grasp"]
    mesh = cylinder_scene["mesh"]
    sdf = MeshSDF(mesh)

    def pen_depth(g):
        posed = forward_kinematics(spec, g)
        pts, _ = posed.all_sample_points()
        return float(np.maximum(-sdf.query(pts), 0.0).max(initial=0.0))

    def anchor_excess(g):
        # L_A is a hinge: an anchor adds its distance to the nearest
        # assigned target only beyond d2, and nothing (no loss, no
        # gradient) within it. Measure that excess, not the mean over all
        # anchors, and check that it is the term's own value.
        posed = forward_kinematics(spec, g)
        d2 = LossWeights().d2
        excess, active = 0.0, 0
        for k, anchor in enumerate(spec.anchors):
            entry = cylinder_bundle.anchor_assignment.get(anchor.name)
            if entry is None or not len(entry[0]):
                continue
            target = cylinder_bundle.object_points[entry[0]]
            dist = float(np.linalg.norm(target - posed.anchor_points[k],
                                        axis=1).min())
            if dist > d2:
                excess += dist
                active += 1
        assert excess == pytest.approx(loss_anchor(posed, cylinder_bundle),
                                       abs=1e-9)
        return excess, active

    # L_IP arm: the demonstration pressed 1.2 cm into the cylinder, so the
    # start penetrates and L_IP has depth to remove
    pressed = Grasp(grasp.q.copy(), grasp.rotation.copy(),
                    grasp.translation + np.array([0.0, -1.2, 0.0]))
    with_ip = optimize(spec, pressed, cylinder_bundle, restarts=2, steps=120,
                       seed=0)
    no_ip = optimize(spec, pressed, cylinder_bundle,
                     weights=LossWeights(lam6=0.0), restarts=2, steps=120,
                     seed=0)
    assert pen_depth(no_ip.grasp) > pen_depth(with_ip.grasp)

    # L_A arm: the demonstration turned and slid away from its anchors, so
    # every anchor starts beyond d2; the contact terms pull most of them
    # back inside d2 in both arms, and what stays beyond is L_A's work
    shifted = Grasp(grasp.q.copy(),
                    tf.quat_normalize(tf.quat_mul(
                        tf.rotvec_to_quat([0.0, 0.0, 0.15]), grasp.rotation)),
                    grasp.translation + np.array([0.8, 0.6, 1.5]))
    with_a = optimize(spec, shifted, cylinder_bundle, restarts=2, steps=120,
                      seed=0)
    no_a = optimize(spec, shifted, cylinder_bundle,
                    weights=LossWeights(anchor_weight=0.0), restarts=2,
                    steps=120, seed=0)
    excess_no_a, active_no_a = anchor_excess(no_a.grasp)
    excess_a, active_a = anchor_excess(with_a.grasp)
    assert active_no_a >= 1  # else the comparison passes vacuously at 0 = 0
    assert excess_no_a > excess_a
    ok(6, f"removing L_IP raises penetration "
          f"({pen_depth(with_ip.grasp):.3f} -> {pen_depth(no_ip.grasp):.3f}); "
          f"removing L_A raises anchor excess beyond d2 "
          f"({excess_a:.3f} cm, {active_a} active -> "
          f"{excess_no_a:.3f} cm, {active_no_a} active)")


def test_criterion_7_correspondence_and_diffusion(cylinder_scene):
    template, meshes, warps = category_instances("bottle", n=4)
    t_samples = sample_surface(template, n=2048, seed=0)
    kps = category_keypoints("bottle")
    pck02 = []
    for k in (1, 2, 3):
        i_samples = sample_surface(meshes[k], n=2048, seed=0)
        field, _ = fit_deformation(t_samples, i_samples)
        truth = {name: warps[k](v[None, :])[0] for name, v in kps.items()}
        predicted = transfer_keypoints(kps, field)
        pck02.append(pck(predicted, truth, meshes[k])[0.02])
    mean_pck = float(np.mean(pck02))
    assert mean_pck >= 0.90

    # diffused knuckle partitions vs ground-truth transport: instance
    # clouds are the warped template samples, so sample i corresponds to i
    from graspsynth.fixtures import template_demo
    demo, spec, grasp, template_obj = template_demo("bottle")
    bundle = extract_bundle(demo, n_samples=2048, seed=0)
    bundle.template_id = "bottle"
    t_pts = sample_surface(template_obj, n=2048, seed=0)
    field0, _ = fit_deformation(t_pts, bundle.object_points,
                                template_id="bottle")
    map_a = correspond(t_pts, bundle.object_points, field0)
    ious = []
    for k in (1, 2, 3):
        warped_pts = warps[k](t_pts.points)
        field_k, _ = fit_deformation(t_pts, warped_pts, template_id="bottle")
        map_b = correspond(t_pts, warped_pts, field_k)
        out = diffuse_contacts(bundle, map_a, map_b)
        for name, idx in bundle.knuckle_partition.items():
            if len(idx) < 10:
                continue
            got = set(out.knuckle_partition[name].tolist())
            want = set(idx.tolist())   # identity transport is ground truth
            ious.append(len(got & want) / max(len(got | want), 1))
    min_iou = min(ious)
    assert min_iou >= 0.90
    ok(7, f"PCK-0.02 {mean_pck:.3f}>=0.90 over 3 warped instances; "
          f"diffused partition IoU min {min_iou:.3f}>=0.90")


def test_criterion_8_epsilon_quality():
    pts = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    normals = -pts
    c = ContactSet(pts, normals, mu=0.5, cone_edges=8)
    got = epsilon_quality(c, torque_scale=1.0)
    oracle = support_function_radius(wrench_set(c, 1.0), restarts=120, seed=0)
    assert abs(got - oracle) <= 0.05 * max(oracle, 1e-6)

    single = ContactSet([[1.0, 0, 0]], [[-1.0, 0, 0]])
    assert epsilon_quality(single, torque_scale=1.0) == 0.0

    ang = np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
    tri = np.column_stack([np.cos(ang), np.sin(ang), np.zeros(3)])
    values = [epsilon_quality(ContactSet(tri, -tri, mu=mu), 1.0)
              for mu in (0.2, 0.5, 0.8)]
    assert values[0] > 0 and values[0] < values[1] < values[2]
    tri_c = ContactSet(tri, -tri, mu=0.5)
    tri_oracle = support_function_radius(wrench_set(tri_c, 1.0),
                                         restarts=200, seed=1)
    tri_got = epsilon_quality(tri_c, 1.0)
    assert abs(tri_got - tri_oracle) <= 0.05 * tri_oracle
    ok(8, f"antipodal matches LP oracle (both {got:.4f}); single contact 0; "
          f"monotone in mu {np.round(values, 4).tolist()}; tripod within 5% "
          f"of oracle ({tri_got:.4f} vs {tri_oracle:.4f})")


def test_criterion_9_fit_recovery():
    library = TemplateLibrary.from_meshes({"bottle": bottle_mesh(),
                                           "wand": wand_mesh()})
    s_true = 1.2
    R_true = tf.axis_angle_to_matrix([0, 1, 0], np.deg2rad(15))
    T_true = np.array([2.0, 0.0, 1.0])
    src = bottle_mesh()
    lo, hi = src.bounds()
    world = src.transformed(np.eye(3), -(lo + hi) / 2).scaled(s_true) \
        .transformed(R_true, T_true)
    samples = sample_surface(world, n=4096, seed=3)
    keep = samples.normals @ np.array([1.0, 0.0, 0.0]) > 0  # half view
    pts, nrm = samples.points[keep], samples.normals[keep]
    state = fit_state(pts, library, icp_init(pts, library.get("bottle")),
                      normals=nrm)
    s_err = abs(state.s - s_true) / s_true
    ang = np.degrees(tf.quat_rotation_distance(state.rotation,
                                               tf.matrix_to_quat(R_true)))
    t_err = float(np.linalg.norm(state.translation - T_true))
    assert state.template_id == "bottle"   # discrimination
    assert s_err < 0.02
    assert ang < 2.0
    assert t_err < 0.2
    ok(9, f"half-view recovery: scale {100 * s_err:.2f}%<2%, rotation "
          f"{ang:.2f}deg<2deg, translation {t_err:.3f}cm<0.2cm; generating "
          f"template selected from a 2-template library")


def test_criterion_10_metric_identities():
    q = tf.quat_normalize([0.4, -0.3, 0.7, 0.2])
    assert hrd(q, -np.asarray(q)) == 0.0

    a = voxelize(make_unit_cube(), spacing=0.25)
    b = voxelize(make_unit_cube(center=(1.0, 0.5, 0.5)), spacing=0.25)
    value = grid_iou(a, b)
    assert value == pytest.approx(1 / 3, abs=0.12)  # one boundary layer

    mesh = bottle_mesh()
    rec = sample_surface(mesh, n=2048, seed=0)
    assert ncd(rec, mesh, n=2048, seed=0) == 0.0
    ok(10, f"hrd double-cover exact 0; cube half-overlap IoU {value:.3f}"
           f"~1/3; NCD(self)=0")


def test_criterion_11_manifest_determinism(tmp_path):
    from graspsynth.cli import main
    data = tmp_path / "data"
    assert main(["fixtures", "--out", str(data), "--categories", "wand",
                 "--instances", "3"]) == 0
    args = ["synthesize", "--category", str(data / "wand"),
            "--demo", str(data / "wand" / "demo.json"), "--hand", "coupled9",
            "--seed", "11", "--steps", "25", "--restarts", "2",
            "--object-samples", "512"]
    assert main([*args, "--out", str(tmp_path / "r1")]) == 0
    assert main([*args, "--out", str(tmp_path / "r2")]) == 0
    m1 = json.loads((tmp_path / "r1" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "r2" / "manifest.json").read_text())
    assert m1["outputs"] == m2["outputs"]
    assert len(m1["outputs"]) > 0
    ok(11, f"cmd_synthesize manifests identical across reruns "
           f"({len(m1['outputs'])} hashed outputs)")
