from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.spatial import cKDTree

from graspsynth import grasp_opt
from graspsynth import transforms as tf
from graspsynth.contact import ContactBundle, extract_bundle
from graspsynth.errors import InvalidInputError
from graspsynth.geometry import MeshSDF, Primitive
from graspsynth.geometry.primitives import PrimitiveStack
from graspsynth.grasp_opt import (GraspScene, LossWeights, evaluate,
                                  loss_gesture, optimize, refine_physical)
from graspsynth.hands import builtin_hand
from graspsynth.hands.model import (Grasp, HandSpec, Link, actuated_from_q,
                                    apply_coupling, forward_kinematics,
                                    make_grasp)
from graspsynth.metrics import self_penetration
from graspsynth.pipeline import opt_report_to_dict

from oracles import (descend_full_passes, descend_reevaluate,
                     forward_pass_pairs_per_segment,
                     link_sample_points, link_sdf, link_targets, loss_anchor,
                     loss_contact, loss_interpenetration,
                     loss_self_penetration, rot_about,
                     self_penetration_bruteforce)


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
    samples = link_sample_points(posed)
    for i in spec.segment_links():
        for j in spec.segment_links():
            if i == j or (i, j) in spec.adjacent_pairs:
                continue
            d, _ = link_sdf(posed, j, samples[i])
            expected += float(np.maximum(-d, 0).sum())
    assert val == pytest.approx(expected, rel=1e-12)
    assert val > 0
    deepest = 0.4
    per_sample_max = max(
        float(np.maximum(-link_sdf(posed, 2, samples[0])[0], 0).max()),
        float(np.maximum(-link_sdf(posed, 0, samples[2])[0], 0).max()))
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
    samples = link_sample_points(posed)
    pts_a, pts_b = samples[0], samples[1]
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


def test_cross_by_components_matches_np_cross():
    # same bits as np.cross, per row and summed over rows as the
    # gradient accumulator sums them
    rng = np.random.default_rng(4)
    for n in (1, 2, 5, 17, 64, 2048):
        a, b = rng.normal(size=(2, n, 3)) * 10.0 ** rng.uniform(-4, 4, (2, n, 1))
        assert np.array_equal(tf.cross(a, b), np.cross(a, b))
        assert np.array_equal(tf.cross(a, b).sum(axis=0),
                              np.cross(a, b).sum(axis=0))
    for _ in range(200):
        a, b = rng.normal(size=(2, 3)) * 10.0 ** rng.uniform(-4, 4, (2, 1))
        assert np.array_equal(tf.cross(a, b), np.cross(a, b))


@pytest.mark.parametrize("hand", ["human", "coupled9", "quad16", "pinch1"])
def test_descend_matches_reevaluating_oracle(hand, cylinder_scene,
                                             cylinder_bundle, monkeypatch):
    # one forward pass per candidate, the gradient pass over the accepted
    # candidate's state and one KD query per target tree must reproduce
    # the descent that evaluated every accepted candidate twice, bit for bit
    spec = cylinder_scene["spec"] if hand == "human" else builtin_hand(hand)
    g = cylinder_scene["grasp"]
    lo, hi = spec.actuated_limits[:, 0], spec.actuated_limits[:, 1]
    g_init = Grasp(apply_coupling(spec, lo + 0.5 * (hi - lo))[0],
                   g.rotation.copy(), g.translation.copy())
    weights = LossWeights()
    scene = GraspScene(spec, cylinder_bundle)
    grads = []
    gradient = grasp_opt._ForwardPass.gradient

    def recorded(fwd):
        grads.append(gradient(fwd))
        return grads[-1]

    monkeypatch.setattr(grasp_opt._ForwardPass, "gradient", recorded)

    def check(start, g0, steps, w, gesture_reference=None, stop_depth=None):
        grads.clear()
        grasp, rows, _ = grasp_opt._descend(
            scene, start, g0, steps, w, gesture_reference=gesture_reference,
            stop_depth=stop_depth)
        stop = None if stop_depth is None else (
            lambda gr: grasp_opt.penetration_depth_cloud(scene, gr)
            < stop_depth)
        o_grasp, o_rows, o_grads = descend_reevaluate(
            scene, start, g0, steps, w, gesture_reference=gesture_reference,
            stop_penetration=stop)
        assert len(rows) == len(o_rows) > 1
        for row, o_row in zip(rows, o_rows):
            assert list(row) == list(o_row)
            assert np.array_equal(list(row.values()), list(o_row.values()))
        for attr in ("q", "rotation", "translation"):
            assert np.array_equal(getattr(grasp, attr), getattr(o_grasp, attr))
        # the last accepted step's gradient is taken only if a step follows
        assert len(o_grads) - 1 <= len(grads) <= len(o_grads)
        for grad, o_grad in zip(grads, o_grads):
            assert np.array_equal(grad, o_grad)
        _, _, final_grad = evaluate(scene, grasp, g0, weights=w,
                                    accumulate=True,
                                    gesture_reference=gesture_reference)
        assert np.array_equal(final_grad, o_grads[-1])
        return o_rows

    rng = np.random.default_rng(3)
    rows = []
    for r in range(3):
        start = g_init.copy()
        if r:
            a = np.clip(actuated_from_q(spec, start.q)
                        + rng.normal(0.0, 0.05, spec.doa), lo, hi)
            start = Grasp(np.clip(spec.coupling @ a, spec.lower, spec.upper),
                          tf.quat_normalize(tf.quat_mul(
                              tf.rotvec_to_quat(rng.normal(0.0, 0.05, 3)),
                              start.rotation)),
                          start.translation + rng.normal(0.0, 0.5, 3))
        rows += check(start, g_init, 6, weights)
    # contact-map terms as means
    rows += check(g_init, g_init, 4, LossWeights(map_norm="mean"))
    # physical refinement: gesture reference, 10x penetration weights and
    # the stop on the accepted step's cloud depth
    pressed = Grasp(g_init.q.copy(), g_init.rotation.copy(),
                    g_init.translation + np.array([0.0, -1.0, 0.0]))
    refine_w = LossWeights(lam6=10.0, lam7=10.0)
    rows += check(pressed, pressed, 10, refine_w, gesture_reference=pressed,
                  stop_depth=grasp_opt.REFINE_PENETRATION_GOAL)
    assert any(row["interpenetration"] > 0 for row in rows)
    # where the oracle takes each self-penetration gradient from a one-link
    # stack and the descent from the hand stack with owners
    assert any(row["self_penetration"] > 0 for row in rows)


def test_gradient_step_runs_only_in_gradient_passes(cylinder_scene,
                                                   cylinder_bundle,
                                                   monkeypatch):
    # a line-search candidate needs only its loss: the hand SDF's gradient
    # step runs once per gradient pass, never for a rejected candidate and
    # never for the last accepted state
    spec = cylinder_scene["spec"]
    g = cylinder_scene["grasp"]
    scene = GraspScene(spec, cylinder_bundle)
    hand_stack = spec.primitive_stack()
    passes, graded, inside, steps = [], [], [], []
    build = grasp_opt._ForwardPass.__init__
    gradient = grasp_opt._ForwardPass.gradient
    step = PrimitiveStack.gradient

    def built(fwd, *args):
        build(fwd, *args)
        passes.append(fwd)

    def graded_pass(fwd):
        graded.append(fwd)
        inside.append(fwd)
        try:
            return gradient(fwd)
        finally:
            inside.pop()

    def counted(stack, *args):
        if stack is hand_stack:
            steps.append(inside[-1] if inside else None)
        return step(stack, *args)

    monkeypatch.setattr(grasp_opt._ForwardPass, "__init__", built)
    monkeypatch.setattr(grasp_opt._ForwardPass, "gradient", graded_pass)
    monkeypatch.setattr(PrimitiveStack, "gradient", counted)
    start = Grasp(g.q.copy(), g.rotation.copy(),
                  g.translation + np.array([0.3, -0.2, 0.4]))
    _, rows, counts = grasp_opt._descend(scene, start, g, 8, None)
    assert len(rows) == 9 and counts["backtracks"] > 0
    assert counts == {"forward_passes": len(passes),
                      "gradient_passes": len(graded),
                      "backtracks": len(passes) - len(rows),
                      "refuted": sum(fwd.refuted for fwd in passes)}
    # one step per gradient pass, taken inside it
    assert steps == graded
    # the start and every accepted state but the last
    assert [fwd.total for fwd in graded] == [r["total"] for r in rows[:-1]]
    assert graded[0] is passes[0] and passes[-1] not in graded


def test_restart_summaries_count_passes(cylinder_scene, cylinder_bundle):
    # unhashed counters: every forward pass is the start, an accepted step
    # or a backtrack, the last accepted state has a gradient pass only
    # when the line search went on from it, and some but not all
    # backtracks in every restart are refuted before their last stage
    spec = cylinder_scene["spec"]
    report = optimize(spec, cylinder_scene["grasp"], cylinder_bundle,
                      restarts=3, steps=10, seed=4)
    for r in report.restarts:
        assert r["forward_passes"] == 1 + r["steps_run"] + r["backtracks"]
        assert r["gradient_passes"] in (r["steps_run"], r["steps_run"] + 1)
        assert 0 < r["refuted"] <= r["backtracks"]
    assert [list(r) for r in opt_report_to_dict(report)["restarts"]] == [
        ["restart", "final_loss", "steps_run"]] * 3


@pytest.fixture(scope="module")
def bottle_demo():
    from graspsynth.fixtures import template_demo
    demo, _, grasp, _ = template_demo("bottle")
    return extract_bundle(demo, n_samples=2048, seed=0), grasp


def _check_pairs_match_per_segment_loop(scene, grasp, w):
    fwd = grasp_opt._ForwardPass(scene, grasp, grasp, w, np.inf)
    ref = forward_pass_pairs_per_segment(scene, grasp, grasp, w)
    assert len(fwd.pulls) == len(ref.pulls)
    for pull, o_pull in zip(fwd.pulls, ref.pulls):
        assert pull[0] == o_pull[0] and pull[3:] == o_pull[3:]
        assert np.array_equal(pull[1], o_pull[1])
        assert np.array_equal(pull[2], o_pull[2])
    assert list(fwd.terms.items()) == list(ref.terms.items())
    assert fwd.total == ref.total
    assert np.array_equal(fwd.gradient(), ref.gradient())
    return fwd


@pytest.mark.parametrize("hand", ["human", "coupled9", "quad16", "pinch1"])
def test_forward_pass_pairs_match_per_segment_loop(hand, cylinder_scene,
                                                    bottle_demo):
    # one exact search per target tree over its own segment and the
    # samples near its bounding box, and one reduceat pass, must give the
    # pulls, terms and total of the loop that searched every tree exactly
    # and took one argmin per segment and tree, bit for bit; also with no
    # targets at all, with d1 = 0 and with a sample exactly d1 from
    # another link's target
    spec = builtin_hand(hand)
    if hand == "human":
        g = cylinder_scene["grasp"]
        bundles = [extract_bundle(cylinder_scene["demo"], n_samples=2048,
                                  seed=seed) for seed in (0, 1)]
    else:
        bundles, g = [bottle_demo[0]], bottle_demo[1]
    lo, hi = spec.actuated_limits[:, 0], spec.actuated_limits[:, 1]
    rng = np.random.default_rng(5)
    far = False
    for bundle in bundles:
        untargeted = GraspScene(spec, replace(bundle, knuckle_partition={}))
        assert not untargeted.target_trees
        scene = GraspScene(spec, bundle)
        for w in (LossWeights(), LossWeights(d1=0.5), LossWeights(d1=0.0)):
            slices = spec.sample_slices()
            for k in range(4):
                a = lo + rng.uniform(0.2, 0.8, spec.doa) * (hi - lo)
                t = g.translation + rng.normal(0.0, 0.5, 3)
                if k == 3:      # moved off the object
                    t = t + np.array([0.0, 0.0, 12.0])
                grasp = Grasp(apply_coupling(spec, a)[0], tf.quat_normalize(
                    tf.quat_mul(tf.rotvec_to_quat(rng.normal(0.0, 0.1, 3)),
                                g.rotation)), t)
                fwd = _check_pairs_match_per_segment_loop(scene, grasp, w)
                _check_pairs_match_per_segment_loop(untargeted, grasp, w)
                # some segment with no other link's tree within d1
                d = {j: cKDTree(pts).query(fwd.H)[0]
                     for j, pts in link_targets(scene).items()}
                far |= any(all(d[j][sl].min() >= w.d1 for j in d if j != i)
                           for i, sl in slices.items())
                # d1 set to the distance of a segment's nearest sample to
                # another link's target: that pair adds d1 and no pull
                edge = min(d[j][sl].min() for i, sl in slices.items()
                           for j in d if j != i)
                edge_w = replace(w, d1=float(edge))
                fwd = _check_pairs_match_per_segment_loop(scene, grasp, edge_w)
                assert 1e-12 < edge and all(p[3] != edge for p in fwd.pulls)
    assert far


def _near_start(spec, g, rng, spread):
    """A grasp of ``spec`` with random actuation inside its limits, near
    ``g``'s wrist pose."""
    lo, hi = spec.actuated_limits[:, 0], spec.actuated_limits[:, 1]
    a = lo + rng.uniform(0.2, 0.8, spec.doa) * (hi - lo)
    return Grasp(apply_coupling(spec, a)[0], tf.quat_normalize(tf.quat_mul(
        tf.rotvec_to_quat(rng.normal(0.0, 0.1 * spread, 3)), g.rotation)),
        g.translation + rng.normal(0.0, 0.5 * spread, 3))


def _hand_scene(hand, cylinder_scene, cylinder_bundle, bottle_demo):
    """(scene, wrist grasp): human on the cylinder, the rest on the bottle."""
    if hand == "human":
        return (GraspScene(cylinder_scene["spec"], cylinder_bundle),
                cylinder_scene["grasp"])
    return GraspScene(builtin_hand(hand), bottle_demo[0]), bottle_demo[1]


@pytest.mark.parametrize("hand", ["human", "coupled9", "quad16", "pinch1"])
def test_staged_descent_matches_full_passes(hand, cylinder_scene,
                                            cylinder_bundle, bottle_demo):
    # refuting a candidate from its first stages must not change the
    # descent: the grasp, every term of every row and the pass counts are
    # those of the descent that computed every candidate in full, bit for
    # bit, also on physical refinement's path (10x penetration weights,
    # gesture reference, stop on the cloud depth)
    scene, g = _hand_scene(hand, cylinder_scene, cylinder_bundle, bottle_demo)
    spec = scene.spec
    rng = np.random.default_rng(11)
    g_init = _near_start(spec, g, rng, 0.0)
    pressed = Grasp(g_init.q.copy(), g_init.rotation.copy(),
                    g_init.translation + np.array([0.0, -0.3, 0.0]))
    assert (grasp_opt.penetration_depth_cloud(scene, pressed)
            > grasp_opt.REFINE_PENETRATION_GOAL)
    refine_w = LossWeights(lam6=10.0, lam7=10.0)
    runs = [(g_init, g_init, 8, LossWeights(), {}),
            (_near_start(spec, g, rng, 1.0), g_init, 8, None, {}),
            (pressed, pressed, 10, refine_w,
             {"gesture_reference": pressed,
              "stop_depth": grasp_opt.REFINE_PENETRATION_GOAL})]
    refuted = 0
    for start, g0, steps, w, options in runs:
        grasp, rows, counts = grasp_opt._descend(scene, start, g0, steps, w,
                                                 **options)
        o_grasp, o_rows, o_counts = descend_full_passes(scene, start, g0,
                                                        steps, w, **options)
        assert len(rows) == len(o_rows) > 1
        for row, o_row in zip(rows, o_rows):
            assert list(row) == list(o_row)
            assert (np.array(list(row.values())).tobytes()
                    == np.array(list(o_row.values())).tobytes())
        for attr in ("q", "rotation", "translation"):
            assert np.array_equal(getattr(grasp, attr), getattr(o_grasp, attr))
        assert {k: counts[k] for k in o_counts} == o_counts
        assert counts["refuted"] <= counts["backtracks"]
        refuted += counts["refuted"]
    assert refuted > 0


@pytest.mark.parametrize("hand", ["human", "coupled9", "quad16", "pinch1"])
@settings(derandomize=True, max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2 ** 32 - 1), spread=st.floats(0.0, 3.0),
       frac=st.floats(0.0, 1.0),
       weights=st.sampled_from([LossWeights(), LossWeights(map_norm="mean"),
                                LossWeights(lam6=10.0, lam7=10.0),
                                LossWeights(d1=0.0)]))
def test_refuted_pass_is_sound_and_unrefuted_pass_is_full(
        hand, cylinder_scene, cylinder_bundle, bottle_demo, seed, spread,
        frac, weights):
    # a pass refuted below a ceiling has a full total at or above it; a
    # pass that is not refuted has the full pass's terms, total and
    # gradient, bit for bit; a ceiling one ulp above the full total never
    # refutes
    scene, g = _hand_scene(hand, cylinder_scene, cylinder_bundle, bottle_demo)
    rng = np.random.default_rng(seed)
    ref = _near_start(scene.spec, g, rng, 0.0)
    grasp = _near_start(scene.spec, g, rng, spread)
    full = grasp_opt._ForwardPass(scene, grasp, ref, weights, np.inf)
    assert not full.refuted and np.isfinite(full.total)
    values = np.array(list(full.terms.values()))
    above = np.nextafter(full.total, np.inf)
    for ceiling in (full.total, np.nextafter(full.total, -np.inf), above,
                    frac * full.total):
        staged = grasp_opt._ForwardPass(scene, grasp, ref, weights, ceiling)
        if staged.refuted:
            assert full.total >= ceiling and ceiling < above
            assert staged.total == np.inf and staged.terms is None
        else:
            assert list(staged.terms) == list(full.terms)
            assert (np.array(list(staged.terms.values())).tobytes()
                    == values.tobytes())
            assert staged.total == full.total
            assert np.array_equal(staged.gradient(), full.gradient())


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
                              object_sdf=MeshSDF(cylinder_scene["mesh"]))
    assert np.abs(refined.q - feasible.q).max() < 1e-6
    assert np.abs(refined.translation - feasible.translation).max() < 1e-6
    assert "infeasible" not in refined.flags


def test_refine_pushes_out_of_penetration(cylinder_scene, cylinder_bundle):
    spec = cylinder_scene["spec"]
    grasp = cylinder_scene["grasp"]
    mesh = cylinder_scene["mesh"]
    bad = Grasp(grasp.q.copy(), grasp.rotation.copy(),
                grasp.translation + np.array([0.0, -1.0, 0.0]))
    refined = refine_physical(spec, bad, cylinder_bundle,
                              object_sdf=MeshSDF(mesh))
    posed = forward_kinematics(spec, refined)
    pts, _ = posed.all_sample_points()
    depth = float(np.maximum(-MeshSDF(mesh).query(pts), 0).max())
    assert depth < 0.2
    assert "infeasible" not in refined.flags


def test_refine_box_scene_reaches_tolerance():
    # sphere-link hand pressed ~1 cm into a box object: refined below 0.1 cm
    from conftest import make_unit_cube
    from graspsynth.contact import demonstration_from_hand, extract_bundle
    box = make_unit_cube(center=(0.0, 0.0, 0.0), edge=6.0)
    links = [Link("ball", -1, np.eye(3), np.zeros(3), "fixed",
                  primitives=[Primitive("sphere", (1.0,))], sample_count=256)]
    spec = HandSpec("ballhand", links)
    # sphere center at z = 3.0 would touch; at 2.0 it penetrates 1 cm
    pressed = make_grasp(spec, translation=np.array([0.0, 0.0, 4.0]))
    demo = demonstration_from_hand(spec, pressed, box)
    bundle = extract_bundle(demo, n_samples=2048, seed=0)
    bad = make_grasp(spec, translation=np.array([0.0, 0.0, 3.0]))
    refined = refine_physical(spec, bad, bundle, object_sdf=MeshSDF(box))
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
    refined = refine_physical(spec, grasp, bundle, object_sdf=MeshSDF(ball),
                              max_steps=10)
    assert "infeasible" in refined.flags
