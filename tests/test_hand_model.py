import json
from dataclasses import FrozenInstanceError, fields, replace
from importlib import resources

import numpy as np
import pytest

from graspsynth import transforms as tf
from graspsynth.errors import InvalidInputError
from graspsynth.geometry import Primitive
from graspsynth.hands import (Anchor, FingertipFrame, Grasp, HandSpec, Link,
                              apply_coupling, builtin_hand, builtin_hand_names,
                              forward_kinematics, handspec_from_dict,
                              handspec_to_dict, make_grasp, point_jacobian,
                              point_jacobian_world)

from oracles import (finite_difference_jacobian, fk_matrix_chain,
                     forward_kinematics_per_link, link_sample_points, link_sdf,
                     point_jacobian_per_joint, rot_about)

HANDS = ["human", "coupled9", "quad16", "pinch1"]


def two_link_finger_links():
    return [
        Link("base", -1, np.eye(3), np.zeros(3), "fixed",
             primitives=[Primitive("box", (0.5, 0.5, 0.5))], sample_count=16),
        Link("prox", 0, np.eye(3), np.array([0.5, 0.0, 0.0]), "revolute",
             np.array([0.0, 0.0, 1.0]), (-1.5, 1.5),
             primitives=[Primitive("capsule", (0.3, 1.0),
                                   rotation=rot_about([0, 1, 0], np.pi / 2),
                                   translation=np.array([1.0, 0.0, 0.0]))],
             sample_count=16),
        Link("dist", 1, np.eye(3), np.array([2.0, 0.0, 0.0]), "revolute",
             np.array([0.0, 0.0, 1.0]), (-1.5, 1.5),
             primitives=[Primitive("capsule", (0.25, 0.75),
                                   rotation=rot_about([0, 1, 0], np.pi / 2),
                                   translation=np.array([0.75, 0.0, 0.0]))],
             sample_count=16),
    ]


def two_link_finger():
    return HandSpec("finger2", two_link_finger_links())


def test_zero_configuration_chains_origins():
    spec = two_link_finger()
    posed = forward_kinematics(spec, make_grasp(spec))
    assert np.allclose(posed.translations[0], [0, 0, 0])
    assert np.allclose(posed.translations[1], [0.5, 0, 0])
    assert np.allclose(posed.translations[2], [2.5, 0, 0])
    for R in posed.rotations:
        assert np.allclose(R, np.eye(3), atol=1e-12)


def test_handspec_refuses_primitive_link_without_samples():
    # closure and penetration see a link only through its samples, so a
    # link with geometry and no samples is refused however it is built
    links = [Link("palm", -1, np.eye(3), np.zeros(3), "fixed",
                  primitives=[Primitive("sphere", (0.5,))], sample_count=8),
             Link("tip", 0, np.eye(3), np.array([1.0, 0.0, 0.0]), "fixed",
                  primitives=[Primitive("sphere", (0.3,))], sample_count=0)]
    with pytest.raises(InvalidInputError,
                       match="link tip: has primitives, so needs"):
        HandSpec("bare", links)


@pytest.mark.parametrize("hand", HANDS)
def test_stacked_samples_match_per_link_oracle(hand):
    # one layout: the spec's slices tile the stacked rows in segment-link
    # order, sample_links() names the owner of each row, and each link's
    # rows of the posed array are its own samples posed link by link
    spec = builtin_hand(hand)
    slices = spec.sample_slices()
    assert list(slices) == spec.segment_links()
    starts = [rows.start for rows in slices.values()]
    stops = [rows.stop for rows in slices.values()]
    assert starts == [0] + stops[:-1]
    assert np.array_equal(spec.sample_links(),
                          np.repeat(list(slices), np.subtract(stops, starts)))
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = rng.uniform(spec.actuated_limits[:, 0], spec.actuated_limits[:, 1])
        grasp = Grasp(apply_coupling(spec, a)[0],
                      tf.rotvec_to_quat(rng.normal(size=3)),
                      rng.normal(scale=5.0, size=3))
        posed = forward_kinematics(spec, grasp)
        points, links = posed.all_sample_points()
        assert links == spec.segment_links()
        assert points.shape == (stops[-1], 3)
        assert not points.flags.writeable
        want = link_sample_points(posed)
        assert list(want) == list(slices)
        for i, rows in slices.items():
            assert np.array_equal(points[rows], want[i]), (hand, i)


def test_single_link_translation_only():
    links = [Link("only", -1, np.eye(3), np.zeros(3), "fixed",
                  primitives=[Primitive("sphere", (0.5,))], sample_count=8)]
    spec = HandSpec("blob", links)
    g = make_grasp(spec, translation=np.array([1.0, 2.0, 3.0]))
    posed = forward_kinematics(spec, g)
    assert np.allclose(posed.translations[0], [1, 2, 3])


@pytest.mark.parametrize("hand", HANDS)
def test_fk_matches_matrix_chain_oracle(hand):
    spec = builtin_hand(hand)
    rng = np.random.default_rng(12)
    for _ in range(3):
        q = rng.uniform(spec.lower, spec.upper)
        quat = tf.quat_normalize(rng.normal(size=4))
        t = rng.uniform(-5, 5, size=3)
        g = Grasp(q, quat, t)
        posed = forward_kinematics(spec, g)
        oracle = fk_matrix_chain(spec, q, tf.quat_to_matrix(quat), t)
        for i in range(len(spec.links)):
            assert np.abs(posed.rotations[i] - oracle[i][:3, :3]).max() < 1e-8
            assert np.abs(posed.translations[i] - oracle[i][:3, 3]).max() < 1e-8
        # anchors through the oracle chain
        for a, world in zip(spec.anchors, posed.anchor_points):
            T = oracle[a.link]
            assert np.allclose(world, T[:3, :3] @ a.local + T[:3, 3], atol=1e-8)


def _assert_fk_is_per_link_oracle(spec, rng, poses):
    # the array kinematics do the per-link loop's float operations in its
    # order, so every output is the same bits: poses, samples, anchors,
    # fingertips and the point Jacobians of the anchors and fingertips
    frames = spec.anchors + spec.fingertip_frames
    for k in range(poses):
        q = [rng.uniform(spec.lower, spec.upper), spec.lower, spec.upper,
             np.where(rng.random(spec.dof) < 0.5, spec.lower, spec.upper),
             ][k % 4]
        rotation = (tf.IDENTITY_QUAT if k % 5 == 0
                    else tf.rotvec_to_quat(rng.normal(size=3)))
        grasp = Grasp(q, rotation, rng.normal(scale=5.0, size=3))
        posed = forward_kinematics(spec, grasp)
        want = forward_kinematics_per_link(spec, grasp)
        for name in ("rotations", "translations", "sample_points",
                     "anchor_points", "fingertip_points"):
            got, ref = getattr(posed, name), getattr(want, name)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), (
                spec.name, k, name)
        points = np.vstack([posed.anchor_points, posed.fingertip_points])
        for frame, point in zip(frames, points):
            J = point_jacobian_world(spec, posed, frame.link, point)
            ref = point_jacobian_per_joint(spec, want, frame.link, point)
            assert J.tobytes() == ref.tobytes(), (spec.name, k, frame.name)
            J = point_jacobian(spec, grasp, frame.link, frame.local)
            assert J.tobytes() == ref.tobytes(), (spec.name, k, frame.name)


@pytest.mark.parametrize("hand", HANDS)
def test_fk_matches_per_link_oracle_bit_for_bit(hand):
    _assert_fk_is_per_link_oracle(builtin_hand(hand), np.random.default_rng(16),
                                  poses=50)


def test_fk_matches_per_link_oracle_on_random_chains():
    # the builtin fingertips sit on a link axis, where any order of the
    # three products gives the same bits; these frames do not
    rng = np.random.default_rng(61)
    for _ in range(8):
        spec = random_chain(rng, n_links=int(rng.integers(2, 8)), frames=4)
        _assert_fk_is_per_link_oracle(spec, rng, poses=8)


def random_tree(rng, n_links):
    """Random branching tree whose siblings mix revolute and fixed joints
    and sample counts, with one link that has no geometry and so no
    samples, and anchors and fingertip frames on random links."""
    bare = int(rng.integers(1, n_links))
    links = [Link("root", -1, np.eye(3), np.zeros(3), "fixed",
                  primitives=[Primitive("sphere", (0.3,))], sample_count=6)]
    for k in range(1, n_links):
        axis = rng.normal(size=3)
        links.append(Link(
            f"l{k}", int(rng.integers(0, k)),
            rot_about(rng.normal(size=3), rng.uniform(-np.pi, np.pi)),
            rng.uniform(-2, 2, 3),
            "revolute" if rng.random() < 0.6 else "fixed",
            axis / np.linalg.norm(axis), (-2.0, 2.0),
            primitives=[] if k == bare else [Primitive("sphere", (0.2,))],
            sample_count=0 if k == bare else int(rng.integers(2, 6))))

    def frames(kind):
        return [kind(f"{kind.__name__}{k}", int(rng.integers(0, n_links)),
                     rng.uniform(-2, 2, 3)) for k in range(4)]

    return HandSpec(f"tree{n_links}", links, anchors=frames(Anchor),
                    fingertip_frames=frames(FingertipFrame))


def test_fk_matches_per_link_oracle_on_branching_trees():
    # forward kinematics poses a tree depth at a time and the samples a
    # sample count at a time; on these trees a depth mixes revolute and
    # fixed links and a sample group mixes depths
    rng = np.random.default_rng(63)
    mixed_depths = 0
    for _ in range(10):
        spec = random_tree(rng, n_links=int(rng.integers(8, 14)))
        depth = []
        for l in spec.links:
            depth.append(0 if l.parent < 0 else depth[l.parent] + 1)
        for d in set(depth):
            level = [l for l, k in zip(spec.links, depth) if k == d]
            mixed_depths += (len({l.joint_type for l in level}) == 2
                             and len({l.sample_count for l in level}) > 1)
        _assert_fk_is_per_link_oracle(spec, rng, poses=8)
    assert mixed_depths >= 10


def test_fk_equivariance_under_rigid_transform():
    spec = builtin_hand("human")
    rng = np.random.default_rng(3)
    q = rng.uniform(spec.lower, spec.upper)
    g = Grasp(q, tf.quat_normalize(rng.normal(size=4)), rng.uniform(-3, 3, 3))
    posed = forward_kinematics(spec, g)
    Rx = rot_about([0.2, 0.9, -0.1], 1.1)
    tx = np.array([4.0, -1.0, 2.0])
    Rq = tf.matrix_to_quat(Rx)
    g2 = Grasp(q, tf.quat_mul(Rq, g.rotation), Rx @ g.translation + tx)
    posed2 = forward_kinematics(spec, g2)
    assert np.allclose(posed2.anchor_points,
                       posed.anchor_points @ Rx.T + tx, atol=1e-9)
    assert np.allclose(posed2.fingertip_points,
                       posed.fingertip_points @ Rx.T + tx, atol=1e-9)


def test_anchor_continuity_in_q():
    spec = builtin_hand("human")
    rng = np.random.default_rng(8)
    q = rng.uniform(spec.lower, spec.upper)
    g = make_grasp(spec, q=q)
    base = forward_kinematics(spec, g).anchor_points
    bumped = forward_kinematics(
        spec, make_grasp(spec, q=q + 1e-6)).anchor_points
    assert np.abs(bumped - base).max() < 1e-4


def test_nan_quaternion_is_invalid_input():
    # abs(nan - 1) > 1e-8 is False, so a NaN used to pass the unit check
    with pytest.raises(InvalidInputError, match="unit quaternion"):
        Grasp(np.zeros(2), [np.nan, 0.0, 0.0, 0.0], np.zeros(3))


@pytest.mark.parametrize("field", ["q", "translation"])
def test_nonfinite_grasp_is_invalid_input(field):
    # only the loaders checked q and translation; a Grasp built in Python
    # took NaN or infinity and forward kinematics posed NaN fingertips
    spec = builtin_hand("pinch1")
    bad = {"q": np.full(spec.dof, np.nan),
           "translation": np.array([0.0, np.inf, 0.0])}
    with pytest.raises(InvalidInputError,
                       match=f"grasp {field} must be finite"):
        replace(make_grasp(spec), **{field: bad[field]})


def test_nan_axis_is_invalid_input():
    links = [Link("base", -1, np.eye(3), np.zeros(3), "fixed"),
             Link("j", 0, np.eye(3), np.zeros(3), "revolute",
                  np.array([np.nan, 0.0, 0.0]), (-1.0, 1.0))]
    with pytest.raises(InvalidInputError, match="link j: axis must be unit"):
        HandSpec("nan-axis", links)


def test_q_length_mismatch():
    spec = two_link_finger()
    with pytest.raises(InvalidInputError):
        forward_kinematics(spec, Grasp(np.zeros(5), tf.IDENTITY_QUAT, np.zeros(3)))


# -- Jacobians ---------------------------------------------------------------


def test_jacobian_revolute_circle():
    # point at radius r about a z-axis joint moves along +y at rate r
    spec = two_link_finger()
    g = make_grasp(spec)
    J = point_jacobian(spec, g, 1, np.array([2.0, 0.0, 0.0]))
    assert np.allclose(J[:, 0], [0.0, 2.0, 0.0], atol=1e-12)


def test_jacobian_base_link_zero_joint_columns():
    spec = two_link_finger()
    J = point_jacobian(spec, make_grasp(spec), 0, np.array([0.3, 0.1, 0.0]))
    assert np.allclose(J[:, :spec.dof], 0.0)
    assert np.allclose(J[:, spec.dof:spec.dof + 3], np.eye(3))


def random_chain(rng, n_links=5, frames=0):
    """Random kinematic chain: arbitrary axes, origins, and branching, and
    ``frames`` anchors and as many fingertip frames at random points of
    random links."""
    links = [Link("root", -1, np.eye(3), np.zeros(3), "fixed",
                  primitives=[Primitive("sphere", (0.3,))], sample_count=4)]
    for k in range(1, n_links):
        parent = int(rng.integers(0, k))
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        origin_R = rot_about(rng.normal(size=3), rng.uniform(-np.pi, np.pi))
        links.append(Link(f"l{k}", parent, origin_R,
                          rng.uniform(-2, 2, 3), "revolute", axis,
                          (-2.0, 2.0),
                          primitives=[Primitive("sphere", (0.2,))],
                          sample_count=4))

    def frame(kind, k):
        return kind(f"{kind.__name__}{k}", int(rng.integers(0, n_links)),
                    rng.uniform(-2, 2, 3))

    return HandSpec(f"rand{n_links}", links,
                    anchors=[frame(Anchor, k) for k in range(frames)],
                    fingertip_frames=[frame(FingertipFrame, k)
                                      for k in range(frames)])


def test_jacobian_property_over_random_chains():
    rng = np.random.default_rng(77)
    for trial in range(8):
        spec = random_chain(rng, n_links=int(rng.integers(3, 8)))
        q0 = rng.uniform(spec.lower, spec.upper)
        quat0 = tf.quat_normalize(rng.normal(size=4))
        t0 = rng.uniform(-3, 3, 3)
        link = int(rng.integers(0, len(spec.links)))
        local = rng.uniform(-1, 1, 3)

        def world_point(x):
            q = x[:spec.dof]
            quat = tf.quat_mul(tf.rotvec_to_quat(x[spec.dof + 3:]), quat0)
            posed = forward_kinematics(
                spec, Grasp(q, tf.quat_normalize(quat),
                            x[spec.dof:spec.dof + 3]))
            return posed.rotations[link] @ local + posed.translations[link]

        x0 = np.concatenate([q0, t0, np.zeros(3)])
        J_fd = finite_difference_jacobian(world_point, x0, h=1e-6)
        J = point_jacobian(spec, Grasp(q0, quat0, t0), link, local)
        scale = max(np.abs(J_fd).max(), 1.0)
        assert np.abs(J - J_fd).max() / scale < 1e-4, trial


@pytest.mark.parametrize("hand", HANDS)
def test_jacobian_matches_finite_differences(hand):
    spec = builtin_hand(hand)
    rng = np.random.default_rng(21)
    q0 = rng.uniform(spec.lower, spec.upper)
    quat0 = tf.quat_normalize(rng.normal(size=4))
    t0 = rng.uniform(-2, 2, 3)
    link = spec.segment_links()[-1]
    local = np.array([0.5, 0.1, -0.2])

    def world_point(x):
        q = x[:spec.dof]
        t = x[spec.dof:spec.dof + 3]
        r = x[spec.dof + 3:]
        quat = tf.quat_mul(tf.rotvec_to_quat(r), quat0)
        posed = forward_kinematics(spec, Grasp(q, quat, t))
        return posed.rotations[link] @ local + posed.translations[link]

    x0 = np.concatenate([q0, t0, np.zeros(3)])
    J_fd = finite_difference_jacobian(world_point, x0, h=1e-5)
    J = point_jacobian(spec, Grasp(q0, quat0, t0), link, local)
    scale = max(np.abs(J_fd).max(), 1.0)
    assert np.abs(J - J_fd).max() / scale < 1e-4


# -- coupling ----------------------------------------------------------------


def test_identity_coupling_roundtrip():
    spec = two_link_finger()
    q, clamped = apply_coupling(spec, [0.3, -0.2])
    assert np.allclose(q, [0.3, -0.2])
    assert len(clamped) == 0


def test_ratio_coupling_and_clamp():
    links = [
        Link("base", -1, np.eye(3), np.zeros(3), "fixed",
             primitives=[Primitive("sphere", (0.4,))], sample_count=8),
        Link("j1", 0, np.eye(3), np.array([0.5, 0, 0]), "revolute",
             np.array([0.0, 0.0, 1.0]), (-1.0, 1.0)),
        Link("j2", 1, np.eye(3), np.array([0.5, 0, 0]), "revolute",
             np.array([0.0, 0.0, 1.0]), (-1.0, 0.3)),
    ]
    # j2 follows j1 at 0.8; hi limit on j2 forces a clamp report for a=0.5
    spec = HandSpec("coupled2", links,
                    coupling=np.array([[1.0], [0.8]]),
                    actuated_names=["a"], actuated_limits=[(-0.375, 0.375)])
    q, clamped = apply_coupling(spec, [0.25])
    assert np.allclose(q, [0.25, 0.2])
    assert len(clamped) == 0
    q, clamped = apply_coupling(spec, [0.5])  # beyond actuated range on purpose
    assert np.allclose(q, [0.5, 0.3])
    assert list(clamped) == [1]


def test_coupling_range_validated():
    links = [
        Link("base", -1, np.eye(3), np.zeros(3), "fixed",
             primitives=[Primitive("sphere", (0.4,))], sample_count=8),
        Link("j1", 0, np.eye(3), np.array([0.5, 0, 0]), "revolute",
             np.array([0.0, 0.0, 1.0]), (-0.1, 0.1)),
    ]
    with pytest.raises(InvalidInputError):
        HandSpec("bad", links, coupling=np.array([[2.0]]),
                 actuated_names=["a"], actuated_limits=[(-1.0, 1.0)])


def _one_joint_links():
    return [
        Link("base", -1, np.eye(3), np.zeros(3), "fixed",
             primitives=[Primitive("sphere", (0.4,))], sample_count=8),
        Link("j1", 0, np.eye(3), np.array([0.5, 0, 0]), "revolute",
             np.array([0.0, 0.0, 1.0]), (-1.0, 1.0)),
    ]


def test_coupling_without_actuated_names_is_invalid_input():
    with pytest.raises(InvalidInputError, match="needs actuated_names"):
        HandSpec("c", _one_joint_links(), coupling=[[1.0]],
                 actuated_limits=[(-1.0, 1.0)])


def test_coupling_without_actuated_limits_is_invalid_input():
    with pytest.raises(InvalidInputError, match="needs actuated_limits"):
        HandSpec("c", _one_joint_links(), coupling=[[1.0]],
                 actuated_names=["a"])


# -- builtin specs and schema -------------------------------------------------


@pytest.mark.parametrize("hand", HANDS)
def test_builtin_schema_roundtrip(hand):
    spec = builtin_hand(hand)
    doc = handspec_to_dict(spec)
    assert doc["schema"] == "handspec/1"
    back = handspec_from_dict(doc)
    assert back.dof == spec.dof and back.doa == spec.doa
    assert [l.name for l in back.links] == [l.name for l in spec.links]
    g = make_grasp(spec, q=np.clip(0.1, spec.lower, spec.upper))
    a = forward_kinematics(spec, g).anchor_points
    b = forward_kinematics(back, g).anchor_points
    assert np.allclose(a, b, atol=1e-12)


# dof, doa, anchors, fingertips, segments of each shipped hand
BUILTIN_COUNTS = {
    "human": (22, 22, 41, 5, 17),
    "coupled9": (21, 9, 39, 5, 16),
    "quad16": (16, 16, 30, 4, 13),
    "pinch1": (2, 1, 5, 2, 3),
}


def test_human_hand_counts():
    assert sorted(BUILTIN_COUNTS) == list(builtin_hand_names())
    for hand, counts in BUILTIN_COUNTS.items():
        spec = builtin_hand(hand)
        assert (spec.dof, spec.doa, len(spec.anchors),
                len(spec.fingertip_frames),
                len(spec.segment_links())) == counts, hand


@pytest.mark.parametrize("hand", builtin_hand_names())
def test_builtin_hand_is_its_json_file(hand):
    # the shipped file is the only source of a builtin hand: loading and
    # writing it back gives the parsed file, value for value
    ref = resources.files("graspsynth").joinpath(f"data/hands/{hand}.json")
    assert handspec_to_dict(builtin_hand(hand)) == json.loads(ref.read_text())


@pytest.mark.parametrize("hand", builtin_hand_names())
def test_builtin_hand_is_one_shared_spec(hand):
    assert builtin_hand(hand) is builtin_hand(hand)


def _held_arrays(spec):
    """{name: array} of every array a spec holds, its lazy parts built."""
    arrays = {"lower": spec.lower, "upper": spec.upper,
              "coupling": spec.coupling,
              "actuated_limits": spec.actuated_limits,
              "self_contact_mask": spec.self_contact_mask(),
              "layout points": spec._layout()[0],
              "layout owners": spec._layout()[1]}
    for link in spec.links:
        for f in ("origin_rotation", "origin_translation", "axis"):
            arrays[f"{link.name}.{f}"] = getattr(link, f)
        for k, p in enumerate(link.primitives):
            arrays[f"{link.name}.primitives[{k}].rotation"] = p.rotation
            arrays[f"{link.name}.primitives[{k}].translation"] = p.translation
    for frame in spec.anchors + spec.fingertip_frames:
        arrays[f"{frame.name}.local"] = frame.local
    for i, mesh in spec.link_meshes().items():
        arrays[f"mesh {i} vertices"] = mesh.vertices
        arrays[f"mesh {i} faces"] = mesh.faces
    stack = spec.primitive_stack()
    for name in ("owner", "rotation", "offset", "_by_owner", "_owner_starts"):
        arrays[f"stack {name}"] = getattr(stack, name)
    for k, (_, _, params) in enumerate(stack.blocks):
        arrays[f"stack block {k} params"] = params
    kin = spec._kinematics()
    for f in fields(kin):
        value = getattr(kin, f.name)
        if isinstance(value, np.ndarray):
            arrays[f"kinematics {f.name}"] = value
    for k, entry in enumerate(kin.levels + kin.sample_groups):
        for j, value in enumerate(entry):
            arrays[f"kinematics entry {k}.{j}"] = value
    return arrays


@pytest.mark.parametrize("hand", builtin_hand_names())
def test_builtin_hand_arrays_are_read_only(hand):
    spec = builtin_hand(hand)
    for name, array in _held_arrays(spec).items():
        assert not array.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    for mapping in (spec.human_joint_map, spec.link_meshes(),
                    spec.sample_slices()):
        with pytest.raises(TypeError):
            mapping[0] = None


@pytest.mark.parametrize("hand", builtin_hand_names())
def test_builtin_hand_parts_are_frozen(hand):
    spec = builtin_hand(hand)
    assert isinstance(spec.links, tuple)
    for part in spec.links + spec.anchors + spec.fingertip_frames:
        for f in fields(part):
            with pytest.raises(FrozenInstanceError):
                setattr(part, f.name, getattr(part, f.name))


def test_handspec_owns_what_it_is_given():
    links = two_link_finger_links()
    local = np.array([0.1, 0.0, 0.0])
    anchors = [Anchor("pad", 2, local)]
    spec = HandSpec("finger2", links, anchors=anchors)
    before = handspec_to_dict(spec)
    # a frozen link refuses assignment; even one written past that
    # leaves the spec's own copy as it was
    object.__setattr__(links[1], "limits", (0.0, 5.0))
    object.__setattr__(links[2], "axis", np.array([1.0, 0.0, 0.0]))
    local[0] = 9.0
    links.append(links[0])
    anchors.clear()
    assert handspec_to_dict(spec) == before
    assert spec.links[1].limits == (-1.5, 1.5)
    assert spec.upper.tolist() == [1.5, 1.5]
    assert len(spec.links) == 3 and len(spec.anchors) == 1


def test_unknown_builtin_hand_is_invalid_input():
    with pytest.raises(InvalidInputError,
                       match="'nope'; have coupled9, human, pinch1, quad16"):
        builtin_hand("nope")


def test_rest_pose_collision_free():
    for hand in HANDS:
        spec = builtin_hand(hand)
        posed = forward_kinematics(spec, make_grasp(spec))
        samples = link_sample_points(posed)
        for i in spec.segment_links():
            for j in spec.segment_links():
                if i == j or (i, j) in spec.adjacent_pairs:
                    continue
                d, _ = link_sdf(posed, j, samples[i])
                assert d.min() > -1e-9, (hand, spec.links[i].name,
                                         spec.links[j].name)
