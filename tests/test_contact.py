import numpy as np
import pytest

from graspsynth.contact import (ContactBundle, anchor_assignment,
                                bundle_from_dict, bundle_to_dict, digitize,
                                extract_bundle, hand_contact_map,
                                knuckle_partition, load_bundle,
                                object_contact_map, rigid_transform_demo,
                                save_bundle)
from graspsynth.geometry import sample_surface

from conftest import make_sphere
from oracles import nearest_neighbor_matrix, rot_about


def test_digitize_closed_form():
    assert digitize(0.0) == pytest.approx(1.0, abs=1e-12)
    assert digitize(-0.3) == pytest.approx(1.0, abs=1e-12)  # truncation
    # omega(1 cm) = 2 - 2*sigmoid(2)
    assert digitize(1.0) == pytest.approx(2 - 2 / (1 + np.exp(-2)), abs=1e-12)
    assert digitize(1.0) == pytest.approx(0.2384, abs=1e-4)
    # omega = 0.5 exactly at d = ln(3)/2
    assert digitize(np.log(3) / 2) == pytest.approx(0.5, abs=1e-12)


def test_digitize_monotone_and_bounded():
    d = np.linspace(0, 10, 100)
    om = digitize(d)
    assert np.all(np.diff(om) <= 0)
    assert om[0] == 1.0
    assert om[-1] < 1e-4
    assert np.all((om >= 0) & (om <= 1))


def test_object_contact_map_against_sphere_hand():
    # "hand" is a 1 cm sphere at (2, 0, 0); object samples on a unit sphere
    hand = make_sphere(radius=1.0, center=(2.0, 0.0, 0.0), subdivisions=3)
    samples = sample_surface(make_sphere(radius=1.0), n=512, seed=2)
    omega, contact = object_contact_map(samples, hand)
    d_true = np.linalg.norm(samples.points - [2.0, 0.0, 0.0], axis=1) - 1.0
    expect = digitize(np.maximum(d_true, 0))
    assert np.abs(omega - expect).max() < 0.02
    assert set(contact) == set(np.nonzero(np.maximum(d_true, 0) <= 0.5)[0]) \
        or np.abs(omega - expect).max() < 0.02


def test_hand_far_from_object_small_omegas(cylinder_scene):
    demo = cylinder_scene["demo"]
    far = rigid_transform_demo(demo, np.eye(3), np.array([50.0, 0.0, 0.0]))
    # move only the hand away: transform demo but keep original object
    far.object_mesh = demo.object_mesh
    omega, contact = hand_contact_map(far, demo.object_mesh)
    allvals = np.concatenate(list(omega.values()))
    assert allvals.max() < 1e-4
    assert all(len(v) == 0 for v in contact.values())


def test_hand_contact_map_concatenation_lengths(cylinder_scene):
    demo = cylinder_scene["demo"]
    omega, _ = hand_contact_map(demo, demo.object_mesh)
    for name, samples in demo.segments.items():
        assert len(omega[name]) == len(samples)


def test_knuckle_partition_single_segment():
    pts = np.random.default_rng(0).normal(size=(20, 3))
    part = knuckle_partition(pts, {"only": np.zeros((4, 3))})
    assert np.array_equal(part["only"], np.arange(20))


def test_knuckle_partition_tie_breaks_low_index():
    segments = {
        "seg0": np.array([[1.0, 0.0, 0.0]]),
        "seg1": np.array([[-1.0, 0.0, 0.0]]),
    }
    part = knuckle_partition(np.array([[0.0, 0.0, 0.0]]), segments)
    assert np.array_equal(part["seg0"], [0])
    assert len(part["seg1"]) == 0


def test_knuckle_partition_matches_bruteforce(cylinder_bundle, cylinder_scene):
    demo = cylinder_scene["demo"]
    pts = cylinder_bundle.object_points[cylinder_bundle.contact_object]
    names = list(demo.segments)
    d = np.column_stack([
        nearest_neighbor_matrix(pts, demo.segments[n])[1] for n in names])
    owner = d.argmin(axis=1)
    for k, name in enumerate(names):
        got = cylinder_bundle.knuckle_partition[name]
        want = cylinder_bundle.contact_object[owner == k]
        assert np.array_equal(np.sort(got), np.sort(want))


def test_anchor_assignment_basics():
    anchors = {"a0": np.zeros(3), "a1": np.array([2.0, 0.0, 0.0])}
    pts = np.array([[0.9, 0.0, 0.0], [0.0, 0.0, 0.0]])
    out = anchor_assignment(pts, anchors)
    idx0, delta0 = out["a0"]
    assert set(idx0) == {0, 1}
    assert delta0[list(idx0).index(0)] == pytest.approx(0.81, abs=1e-12)
    assert delta0[list(idx0).index(1)] == pytest.approx(0.0, abs=1e-12)
    assert len(out["a1"][0]) == 0


def test_anchor_assignment_matches_bruteforce(cylinder_bundle, cylinder_scene):
    demo = cylinder_scene["demo"]
    pts = cylinder_bundle.object_points[cylinder_bundle.contact_object]
    names = list(demo.anchors)
    positions = np.array([demo.anchors[n] for n in names])
    owner, dist = nearest_neighbor_matrix(pts, positions)
    for k, name in enumerate(names):
        got_idx, got_delta = cylinder_bundle.anchor_assignment[name]
        want = cylinder_bundle.contact_object[owner == k]
        assert np.array_equal(np.sort(got_idx), np.sort(want))
        if len(got_idx):
            order = np.argsort(got_idx)
            want_delta = (dist[owner == k] ** 2)[np.argsort(want)]
            assert np.allclose(np.asarray(got_delta)[order], want_delta,
                               atol=1e-10)


def test_bundle_invariants(cylinder_bundle):
    b = cylinder_bundle
    assert np.all((b.omega_object >= 0) & (b.omega_object <= 1))
    union = np.concatenate([v for v in b.knuckle_partition.values()])
    assert set(union.tolist()) == set(b.contact_object.tolist())
    assert len(union) == len(b.contact_object)  # disjoint cover
    for name, (idx, _) in b.anchor_assignment.items():
        assert set(idx.tolist()) <= set(b.contact_object.tolist())


def test_rigid_invariance_of_extraction(cylinder_scene):
    demo = cylinder_scene["demo"]
    R = rot_about([0.3, -0.5, 0.8], 1.0)
    t = np.array([3.0, -2.0, 1.0])
    moved = rigid_transform_demo(demo, R, t)
    a = extract_bundle(demo, n_samples=512, seed=4)
    b = extract_bundle(moved, n_samples=512, seed=4)
    assert np.abs(a.omega_object - b.omega_object).max() < 1e-6
    assert np.array_equal(a.contact_object, b.contact_object)
    for name in a.knuckle_partition:
        assert np.array_equal(a.knuckle_partition[name],
                              b.knuckle_partition[name])


def test_interpenetrating_demo_omega_clamped():
    # a hand sphere overlapping the object still yields omega exactly 1
    hand = make_sphere(radius=1.2, center=(0.9, 0.0, 0.0), subdivisions=2)
    samples = sample_surface(make_sphere(radius=1.0), n=256, seed=3)
    omega, _ = object_contact_map(samples, hand)
    assert omega.max() <= 1.0
    # margin for the icosphere's inscribed-face error
    inside = np.linalg.norm(samples.points - [0.9, 0, 0], axis=1) < 1.15
    assert np.any(inside)
    assert np.all(omega[inside] == 1.0)


def test_bundle_roundtrip(tmp_path, cylinder_bundle):
    path = tmp_path / "contacts.json"
    save_bundle(path, cylinder_bundle)
    back = load_bundle(path)
    assert np.allclose(back.omega_object, cylinder_bundle.omega_object)
    assert np.array_equal(back.contact_object, cylinder_bundle.contact_object)
    for name in cylinder_bundle.knuckle_partition:
        assert np.array_equal(back.knuckle_partition[name],
                              cylinder_bundle.knuckle_partition[name])
    doc = bundle_to_dict(cylinder_bundle)
    assert doc["schema"] == "contacts/1"
    assert bundle_from_dict(doc).tau_c == cylinder_bundle.tau_c


def test_validate_rejects_overlapping_partition(cylinder_bundle):
    from graspsynth.errors import InvalidInputError
    b = cylinder_bundle
    bad = ContactBundle(b.object_points, b.object_normals, b.omega_object,
                        b.contact_object, b.segment_names, b.omega_hand,
                        b.contact_hand,
                        {"a": b.contact_object, "b": b.contact_object},
                        b.anchor_assignment)
    with pytest.raises(InvalidInputError):
        bad.validate()


def test_link_without_samples_is_no_segment():
    # closure and penetration see a link only through its samples, so a
    # link with primitives but no samples would close through the object
    # unchecked: the loader refuses it, whether "samples" is left out or 0
    from graspsynth.errors import SchemaError
    from graspsynth.hands import builtin_hand
    from graspsynth.hands.schema import handspec_from_dict, handspec_to_dict

    doc = handspec_to_dict(builtin_hand("pinch1"))
    assert doc["links"][1]["name"] == "thumb_distal"
    del doc["links"][1]["samples"]
    with pytest.raises(SchemaError, match="link thumb_distal: has primitives"):
        handspec_from_dict(doc)
    doc["links"][1]["samples"] = 0
    with pytest.raises(SchemaError, match="link thumb_distal: has primitives"):
        handspec_from_dict(doc)
