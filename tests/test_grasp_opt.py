import numpy as np
import pytest

from graspsynth import transforms as tf
from graspsynth.contact import ContactBundle, extract_bundle
from graspsynth.errors import InvalidInputError
from graspsynth.geometry import Primitive
from graspsynth.grasp_opt import (GraspScene, LossWeights, evaluate,
                                  loss_anchor, loss_contact, loss_gesture,
                                  loss_interpenetration,
                                  loss_self_penetration, optimize,
                                  refine_physical)
from graspsynth.hands import builtin_hand
from graspsynth.hands.model import (Grasp, HandSpec, Link, actuated_from_q,
                                    apply_coupling, forward_kinematics,
                                    make_grasp)
from graspsynth.metrics import self_penetration

from oracles import rot_about, self_penetration_bruteforce


def sphere_hand(n_links=1, spacing=3.0, radius=0.5, samples=48):
    """Hand of free-floating sphere links spaced along +x (for loss math)."""
    links = []
    for k in range(n_links):
        links.append(Link(f"s{k}", k - 1,
                          np.eye(3), np.array([spacing if k else 0.0, 0, 0]),
                          "revolute" if k else "fixed",
                          np.array([0.0, 0.0, 1.0]), (-0.5, 0.5),
                          primitives=[Primitive("sphere", (radius,))],
                          sample_count=samples))
    return HandSpec(f"spheres{n_links}", links)


def bundle_for(points, omega=None, contact=None, partition=None, anchors=None,
               segment_names=(), omega_hand=None):
    points = np.asarray(points, float)
    n = len(points)
    normals = np.zeros((n, 3))
    normals[:, 2] = 1.0
    omega = np.zeros(n) if omega is None else np.asarray(omega, float)
    contact = np.array([], np.int64) if contact is None else np.asarray(contact, np.int64)
    return ContactBundle(points, normals, omega, contact,
                         list(segment_names), omega_hand or {}, {},
                         partition or {}, anchors or {})


def test_loss_gesture_examples():
    spec = sphere_hand()
    g = make_grasp(spec)
    assert loss_gesture(g, g) == 0.0
    g_t = Grasp(g.q, g.rotation, np.array([1.0, 0.0, 0.0]))
    assert loss_gesture(g_t, g) == pytest.approx(5.0, abs=1e-12)
    g_r = Grasp(g.q, tf.rotvec_to_quat([0, 0, np.pi / 2]), g.translation)
    assert loss_gesture(g_r, g) == pytest.approx(np.pi, abs=1e-9)


def test_loss_interpenetration_examples():
    spec = sphere_hand(radius=1.0)
    posed = forward_kinematics(spec, make_grasp(spec))
    # disjoint
    assert loss_interpenetration(posed, np.array([[5.0, 0, 0]])) == 0.0
    # one object point 1 cm inside the unit-sphere link
    val = loss_interpenetration(posed, np.array([[0.0, 0.0, 0.0]]))
    assert val == pytest.approx(1.0, abs=1e-12)
    deeper = loss_interpenetration(posed, np.array([[0.0, 0.0, 0.0],
                                                    [0.5, 0.0, 0.0]]))
    assert deeper > val


def test_loss_self_penetration_rules():
    # two overlapping spheres, non-adjacent: both orderings count
    links = [
        Link("base", -1, np.eye(3), np.zeros(3), "fixed",
             primitives=[Primitive("sphere", (0.5,))], sample_count=64),
        Link("mid", 0, np.eye(3), np.array([5.0, 0, 0]), "revolute",
             np.array([0.0, 0.0, 1.0]), (-0.5, 0.5),
             primitives=[Primitive("sphere", (0.5,))], sample_count=64),
        Link("tip", 1, np.eye(3), np.array([-4.4, 0, 0]), "revolute",
             np.array([0.0, 0.0, 1.0]), (-0.5, 0.5),
             primitives=[Primitive("sphere", (0.5,))], sample_count=64),
    ]
    spec = HandSpec("overlap", links)
    posed = forward_kinematics(spec, make_grasp(spec))
    # base at 0, tip at 0.6: spheres r=0.5 overlap by 0.4; (base, tip) are
    # non-adjacent (mid sits between them in the chain)
    val = loss_self_penetration(posed)
    # oracle: explicit double loop over ordered pairs
    expected = 0.0
    for i in spec.segment_links():
        for j in spec.segment_links():
            if i == j or (i, j) in spec.adjacent_pairs:
                continue
            d, _ = posed.link_sdf(j, posed.segment_points(i))
            expected += float(np.maximum(-d, 0).sum())
    assert val == pytest.approx(expected, rel=1e-12)
    assert val > 0
    deepest = 0.4
    per_sample_max = max(
        float(np.maximum(-posed.link_sdf(2, posed.segment_points(0))[0], 0).max()),
        float(np.maximum(-posed.link_sdf(0, posed.segment_points(2))[0], 0).max()))
    assert per_sample_max == pytest.approx(deepest, abs=0.05)


@pytest.mark.parametrize("hand", ["human", "coupled9", "quad16", "pinch1"])
def test_self_penetration_matches_bruteforce(hand):
    # the optimizer term, the loss entry point and the metric depth all
    # read one masked distance array; check each against plain pair loops
    spec = builtin_hand(hand)
    rng = np.random.default_rng(11)
    scene = GraspScene(spec, bundle_for([[100.0, 100.0, 100.0]]))
    lam7 = LossWeights().lam7
    colliding = 0
    for _ in range(6):
        a = rng.uniform(spec.actuated_limits[:, 0], spec.actuated_limits[:, 1])
        q, _ = apply_coupling(spec, a)
        grasp = Grasp(q, tf.rotvec_to_quat(rng.normal(size=3)),
                      rng.normal(scale=5.0, size=3))
        posed = forward_kinematics(spec, grasp)
        total, deepest = self_penetration_bruteforce(posed)
        colliding += total > 0
        _, terms, _ = evaluate(scene, grasp, grasp)
        assert terms["self_penetration"] == pytest.approx(lam7 * total,
                                                          rel=1e-9, abs=1e-12)
        assert loss_self_penetration(posed) == pytest.approx(
            lam7 * total, rel=1e-9, abs=1e-12)
        assert self_penetration(posed)[0] == pytest.approx(deepest, rel=1e-9,
                                                           abs=1e-12)
    assert colliding > 0, hand


def test_open_hand_no_self_penetration(cylinder_scene):
    spec = cylinder_scene["spec"]
    posed = forward_kinematics(spec, make_grasp(spec))
    assert loss_self_penetration(posed) == 0.0


def test_loss_anchor_examples():
    from graspsynth.hands.model import Anchor
    links = [Link("base", -1, np.eye(3), np.zeros(3), "fixed",
                  primitives=[Primitive("sphere", (0.5,))], sample_count=16)]
    spec = HandSpec("anchored", links,
                    anchors=[Anchor("a_near", 0, np.zeros(3)),
                             Anchor("a_far", 0, np.array([0.0, 2.0, 0.0])),
                             Anchor("a_empty", 0, np.array([0.0, -2.0, 0.0]))])
    posed = forward_kinematics(spec, make_grasp(spec))
    pts = np.array([[0.5, 0.0, 0.0],          # 0.5 cm from a_near: inactive
                    [0.0, 5.0, 0.0]])         # 3 cm from a_far: active
    bundle = bundle_for(pts, contact=[0, 1],
                        partition={"base": np.array([0, 1])},
                        anchors={"a_near": (np.array([0]), np.array([0.25])),
                                 "a_far": (np.array([1]), np.array([9.0])),
                                 "a_empty": (np.array([], np.int64),
                                             np.array([]))})
    val = loss_anchor(posed, bundle)
    assert val == pytest.approx(3.0, abs=1e-9)


def test_loss_contact_attraction_and_repel_terms():
    # two sphere links; targets placed at known distances from the samples
    spec = sphere_hand(n_links=2, spacing=3.0, radius=0.5, samples=128)
    posed = forward_kinematics(spec, make_grasp(spec))
    pts_a = posed.segment_points(0)
    pts_b = posed.segment_points(1)
    # target for s0 at 3.5 cm from the sphere center: nearest surface
    # sample sits ~3 cm away; target for s1 at 5.5 cm (repel saturates)
    t0 = np.array([0.0, 3.5, 0.0])
    t1 = np.array([3.0, -5.5, 0.0])
    far = np.array([[40.0, 40.0, 40.0]])
    pts = np.vstack([t0, t1, far])
    bundle = bundle_for(pts, omega=np.zeros(3), contact=[0, 1],
                        partition={"s0": np.array([0]), "s1": np.array([1])},
                        segment_names=["s0", "s1"])
    w = LossWeights()
    val = loss_contact(posed, bundle, weights=w)
    d_a0 = np.linalg.norm(pts_a - t0, axis=1).min()
    d_b1 = np.linalg.norm(pts_b - t1, axis=1).min()
    d_a1 = np.linalg.norm(pts_a - t1, axis=1).min()
    d_b0 = np.linalg.norm(pts_b - t0, axis=1).min()
    assert d_a0 == pytest.approx(3.0, abs=0.05)   # segment 3 cm from target
    assert d_a1 > w.d1 and d_b0 > w.d1            # non-pairs saturate at 2.5
    attract = w.lam1 * (d_a0 + d_b1)
    repel = w.lam2 * (min(d_a1, w.d1) + min(d_b0, w.d1))
    assert repel == pytest.approx(w.lam2 * 2 * w.d1, rel=1e-12)
    scene_map_terms = val - attract + repel
    # omega targets are zero and the hand is far from all object points,
    # so the map terms are tiny
    assert abs(scene_map_terms) < 0.2
    assert val == pytest.approx(scene_map_terms + attract - repel, rel=1e-9)


def test_loss_contact_self_consistency(cylinder_scene, cylinder_bundle):
    demo = cylinder_scene["demo"]
    spec = cylinder_scene["spec"]
    posed = forward_kinematics(spec, cylinder_scene["grasp"])
    scene = GraspScene(spec, cylinder_bundle)
    _, terms, _ = evaluate(scene, cylinder_scene["grasp"],
                           cylinder_scene["grasp"])
    # object-side live map is identical to the extracted one by construction
    sdf, _, _ = posed.sdf(scene.object_points, with_gradient=True)
    from graspsynth.contact import digitize
    assert np.abs(digitize(sdf) - cylinder_bundle.omega_object).max() < 1e-9
    assert terms["gesture"] == 0.0


def test_rigid_invariance_of_losses(cylinder_scene, cylinder_bundle):
    spec = cylinder_scene["spec"]
    grasp = cylinder_scene["grasp"]
    scene = GraspScene(spec, cylinder_bundle)
    _, terms, _ = evaluate(scene, grasp, grasp)

    R = rot_about([0.4, -0.2, 0.9], 0.8)
    t = np.array([2.0, -1.0, 3.0])
    b = cylinder_bundle
    moved_bundle = ContactBundle(
        b.object_points @ R.T + t, b.object_normals @ R.T, b.omega_object,
        b.contact_object, b.segment_names, b.omega_hand, b.contact_hand,
        b.knuckle_partition, b.anchor_assignment, tau_c=b.tau_c)
    g2 = Grasp(grasp.q, tf.quat_mul(tf.matrix_to_quat(R), grasp.rotation),
               R @ grasp.translation + t)
    scene2 = GraspScene(spec, moved_bundle)
    _, terms2, _ = evaluate(scene2, g2, g2)
    for key in ("contact", "anchor", "interpenetration", "self_penetration"):
        assert terms2[key] == pytest.approx(terms[key], abs=1e-6), key


def test_gradient_matches_finite_differences(cylinder_scene, cylinder_bundle):
    spec = cylinder_scene["spec"]
    grasp = cylinder_scene["grasp"]
    scene = GraspScene(spec, cylinder_bundle)
    rng = np.random.default_rng(11)
    a0 = actuated_from_q(spec, grasp.q) + rng.normal(0, 0.03, spec.doa)
    a0 = np.clip(a0, spec.actuated_limits[:, 0] + 1e-3,
                 spec.actuated_limits[:, 1] - 1e-3)
    t0 = grasp.translation + rng.normal(0, 0.3, 3)
    Q0 = tf.quat_normalize(tf.quat_mul(
        tf.rotvec_to_quat(rng.normal(0, 0.03, 3)), grasp.rotation))

    def loss_at(x):
        a = x[:spec.doa]
        q = np.clip(spec.coupling @ a, spec.lower, spec.upper)
        quat = tf.quat_normalize(tf.quat_mul(
            tf.rotvec_to_quat(x[spec.doa + 3:]), Q0))
        v, _, _ = evaluate(scene, Grasp(q, quat, x[spec.doa:spec.doa + 3]),
                           grasp)
        return v

    x0 = np.concatenate([a0, t0, np.zeros(3)])
    q = np.clip(spec.coupling @ a0, spec.lower, spec.upper)
    _, _, grad = evaluate(scene, Grasp(q, Q0, t0), grasp, accumulate=True)
    h = 1e-6
    fd = np.array([(loss_at(x0 + h * e) - loss_at(x0 - h * e)) / (2 * h)
                   for e in np.eye(len(x0))])
    scale = max(np.abs(fd).max(), 1.0)
    assert np.abs(grad - fd).max() / scale < 1e-3


def test_optimize_monotone_and_within_limits(cylinder_scene, cylinder_bundle):
    spec = cylinder_scene["spec"]
    grasp = cylinder_scene["grasp"]
    report = optimize(spec, grasp, cylinder_bundle, restarts=1, steps=40,
                      seed=0)
    totals = [r["total"] for r in report.steps]
    assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))
    assert report.final_loss <= report.initial_loss
    assert np.all(report.grasp.q >= spec.lower - 1e-12)
    assert np.all(report.grasp.q <= spec.upper + 1e-12)


def test_optimize_deterministic(cylinder_scene, cylinder_bundle):
    spec = cylinder_scene["spec"]
    grasp = cylinder_scene["grasp"]
    a = optimize(spec, grasp, cylinder_bundle, restarts=1, steps=25, seed=7)
    b = optimize(spec, grasp, cylinder_bundle, restarts=1, steps=25, seed=7)
    assert np.array_equal(a.grasp.q, b.grasp.q)
    assert np.array_equal(a.grasp.translation, b.grasp.translation)
    assert [r["total"] for r in a.steps] == [r["total"] for r in b.steps]


def test_optimize_nonfinite_start_rejected(cylinder_scene, cylinder_bundle):
    spec = cylinder_scene["spec"]
    grasp = cylinder_scene["grasp"].copy()
    grasp.translation = grasp.translation.copy()
    grasp.translation[0] = np.nan
    with pytest.raises((InvalidInputError, ValueError)):
        optimize(spec, grasp, cylinder_bundle, restarts=1, steps=5, seed=0)


def test_refine_already_feasible_unchanged(cylinder_scene, cylinder_bundle):
    # open the fingers and back away: a clearly penetration-free grasp
    spec = cylinder_scene["spec"]
    g = cylinder_scene["grasp"]
    feasible = Grasp(g.q * 0.4, g.rotation.copy(),
                     g.translation + np.array([0.0, 2.0, 0.0]))
    refined = refine_physical(spec, feasible, cylinder_bundle,
                              object_mesh=cylinder_scene["mesh"])
    assert np.abs(refined.q - feasible.q).max() < 1e-6
    assert np.abs(refined.translation - feasible.translation).max() < 1e-6
    assert "infeasible" not in refined.flags


def test_refine_pushes_out_of_penetration(cylinder_scene, cylinder_bundle):
    spec = cylinder_scene["spec"]
    grasp = cylinder_scene["grasp"]
    mesh = cylinder_scene["mesh"]
    bad = Grasp(grasp.q.copy(), grasp.rotation.copy(),
                grasp.translation + np.array([0.0, -1.0, 0.0]))
    refined = refine_physical(spec, bad, cylinder_bundle, object_mesh=mesh)
    from graspsynth.geometry import MeshSDF
    posed = forward_kinematics(spec, refined)
    pts, _ = posed.all_sample_points()
    depth = float(np.maximum(-MeshSDF(mesh).query(pts), 0).max())
    assert depth < 0.2
    assert "infeasible" not in refined.flags


def test_refine_box_scene_reaches_tolerance():
    # sphere-link hand pressed ~1 cm into a box object: refined below 0.1 cm
    from conftest import make_unit_cube
    from graspsynth.contact import demonstration_from_hand, extract_bundle
    from graspsynth.geometry import MeshSDF
    box = make_unit_cube(center=(0.0, 0.0, 0.0), edge=6.0)
    links = [Link("ball", -1, np.eye(3), np.zeros(3), "fixed",
                  primitives=[Primitive("sphere", (1.0,))], sample_count=256)]
    spec = HandSpec("ballhand", links)
    # sphere center at z = 3.0 would touch; at 2.0 it penetrates 1 cm
    pressed = make_grasp(spec, translation=np.array([0.0, 0.0, 4.0]))
    demo = demonstration_from_hand(spec, pressed, box)
    bundle = extract_bundle(demo, n_samples=2048, seed=0)
    bad = make_grasp(spec, translation=np.array([0.0, 0.0, 3.0]))
    refined = refine_physical(spec, bad, bundle, object_mesh=box)
    posed = forward_kinematics(spec, refined)
    pts, _ = posed.all_sample_points()
    depth = float(np.maximum(-MeshSDF(box).query(pts), 0.0).max(initial=0.0))
    assert depth < 0.1
    assert "infeasible" not in refined.flags


def test_refine_flags_hopeless_case(cylinder_scene):
    # object encloses the hand entirely: no pose escapes penetration
    from conftest import make_sphere
    from graspsynth.contact import demonstration_from_hand, extract_bundle
    spec = cylinder_scene["spec"]
    ball = make_sphere(radius=40.0, subdivisions=2)
    grasp = make_grasp(spec)
    demo = demonstration_from_hand(spec, grasp, ball)
    bundle = extract_bundle(demo, n_samples=256, seed=0)
    refined = refine_physical(spec, grasp, bundle, object_mesh=ball,
                              max_steps=10)
    assert "infeasible" in refined.flags
