import numpy as np
import pytest

from graspsynth.closure import (MARGIN, STOP_SDF, close_until_contact,
                                march_closure)
from graspsynth.fixtures import cylinder_mesh, wrap_grasp_pose
from graspsynth.geometry import MeshSDF
from graspsynth.hands import (builtin_hand, forward_kinematics,
                              handspec_from_dict, handspec_to_dict)
from graspsynth.hands.model import Grasp, apply_coupling
from graspsynth.metrics import CONTACT_BAND, ContactSet, closure_contacts

from oracles import (close_until_contact_fresh, link_sample_points,
                     march_closure_per_link)


@pytest.fixture(scope="module")
def cylinder_sdf():
    mesh = cylinder_mesh()
    return mesh, MeshSDF(mesh)


def _grasps_near(spec, mesh, sdf, rng, curl=(0.3, 0.8), gap=(-0.15, 0.1)):
    """Three seeded grasps in the wrap pose: joints at a ``curl`` draw of
    their range (by default half-curled) and a jittered wrist, moved along
    the approach axis so the deepest hand sample lies a ``gap`` draw
    outside the surface (by default between 0.15 cm inside and 0.1 cm
    outside)."""
    rotation, translation = wrap_grasp_pose(mesh)
    lo, hi = spec.actuated_limits[:, 0], spec.actuated_limits[:, 1]
    out = []
    for _ in range(3):
        q, _ = apply_coupling(spec, lo + rng.uniform(*curl, spec.doa)
                              * (hi - lo))
        t = translation + rng.uniform(-0.5, 0.5, 3)
        posed = forward_kinematics(spec, Grasp(q, rotation, t))
        deepest = float(sdf.query(posed.all_sample_points()[0]).min())
        t[1] += rng.uniform(*gap) - deepest
        out.append(Grasp(q, rotation, t))
    return out


def _open_grasps(spec, mesh, sdf):
    """Authoring starts: joints in the first fifth of their range, the
    hand 0.2 to 1 cm from the surface."""
    return _grasps_near(spec, mesh, sdf, np.random.default_rng(5),
                        curl=(0.0, 0.2), gap=(0.2, 1.0))


@pytest.mark.parametrize("hand", ["human", "coupled9", "quad16", "pinch1"])
def test_march_closure_matches_per_link(hand, cylinder_sdf):
    # one object query over all hand samples per substep, read through
    # the joint masks, must stop every joint where the per-link rule does
    mesh, sdf = cylinder_sdf
    spec = builtin_hand(hand)
    rng = np.random.default_rng(3)
    delta = np.deg2rad(20.0)
    frozen_early = self_stopped = contacts_seen = 0
    for grasp in _grasps_near(spec, mesh, sdf, rng):
        closed = []
        for stop_self in (False, True):
            q = march_closure(spec, grasp, sdf.query, delta=delta,
                              substeps=20, stop_self=stop_self)
            want = march_closure_per_link(spec, grasp, sdf.query, delta,
                                          STOP_SDF, 20, stop_self)
            assert np.array_equal(q, want), (hand, stop_self)
            closed.append(q)
        free = march_closure(spec, grasp, lambda p: np.full(len(p), 9.0),
                             delta=delta, substeps=20)
        frozen_early += not np.array_equal(closed[0], free)
        self_stopped += not np.array_equal(closed[0], closed[1])

        contacts, links, q = closure_contacts(spec, grasp, sdf)
        want_q = march_closure_per_link(spec, grasp, sdf.query,
                                        np.deg2rad(10.0), STOP_SDF, 20, False)
        assert np.array_equal(q, want_q)
        posed = forward_kinematics(spec, Grasp(q, grasp.rotation,
                                               grasp.translation))
        points, normals, want_links = [], [], set()
        for i, pts in link_sample_points(posed).items():
            vals, grads = sdf.query_with_gradient(pts)
            touching = vals <= CONTACT_BAND
            if np.any(touching):
                want_links.add(i)
                points.append(pts[touching])
                normals.append(-grads[touching])
        assert links == want_links
        if points:
            contacts_seen += 1
            want = ContactSet(np.vstack(points), np.vstack(normals))
            assert np.array_equal(contacts.points, want.points)
            assert np.array_equal(contacts.normals, want.normals)
        else:
            assert contacts is None
    # the object stop, the self-touch stop and the contacts all took part
    assert frozen_early > 0 and self_stopped > 0 and contacts_seen > 0


@pytest.mark.parametrize("hand", ["human", "pinch1"])
def test_march_closure_requeries_only_moved_samples(hand, cylinder_sdf,
                                                    monkeypatch):
    # after its first object query a march asks, per substep, exactly the
    # moved samples whose bound [d_ref - m, d_ref + m] (m: the distance
    # from where d_ref was taken, plus MARGIN) holds STOP_SDF or
    # -2 * STOP_SDF; every moved sample it skips lies, exactly, on the
    # side of both thresholds that its bound gives
    import graspsynth.closure as closure

    mesh, sdf = cylinder_sdf
    spec = builtin_hand(hand)
    _, moves = closure._dof_sample_masks(spec)
    thresholds = np.array([STOP_SDF, -2 * STOP_SDF])
    grasps = _grasps_near(spec, mesh, sdf, np.random.default_rng(3))
    substeps = []  # (q, posed samples, the object queries after that pose)
    real_fk = closure.forward_kinematics

    def recording_fk(spec, grasp):
        result = real_fk(spec, grasp)
        substeps.append((grasp.q.copy(), result.all_sample_points()[0], []))
        return result

    def recording_sdf(points):
        substeps[-1][2].append(np.array(points))
        return sdf.query(points)

    monkeypatch.setattr(closure, "forward_kinematics", recording_fk)
    skipping = asking = 0
    for grasp in grasps:
        for stop_self in (False, True):
            substeps.clear()
            march_closure(spec, grasp, recording_sdf, delta=np.deg2rad(20.0),
                          substeps=20, stop_self=stop_self)
            _, p0, asked = substeps[0]
            assert len(asked) == 1 and np.array_equal(asked[0], p0)
            p_ref, d_ref = p0.copy(), sdf.query(p0)
            for (q0, p0, _), (q1, p1, asked) in zip(substeps, substeps[1:]):
                moved = moves[q1 != q0].any(axis=0)
                assert np.array_equal(p1[~moved], p0[~moved])
                drifted = np.any(p1 != p_ref, axis=1)
                reach = np.linalg.norm(p1 - p_ref, axis=1) + MARGIN
                want = drifted & (np.abs(d_ref[:, None] - thresholds)
                                  <= reach[:, None]).any(axis=1)
                assert not np.any(want & ~moved)
                assert len(asked) == want.any()
                if asked:
                    assert np.array_equal(asked[0], p1[want])
                exact = sdf.query(p1)
                skipped = moved & ~want
                for t in thresholds:
                    assert np.array_equal(exact[skipped] > t,
                                          d_ref[skipped] > t)
                    assert not np.any(exact[skipped] == t)
                assert np.all(np.abs(exact - d_ref)[drifted] <= reach[drifted])
                p_ref[want], d_ref[want] = p1[want], exact[want]
                skipping += skipped.any()
                asking += want.any()
    # the bound both spared queries and sent samples back to the object
    assert skipping > 0 and asking > 0


@pytest.mark.parametrize("hand", ["human", "coupled9", "quad16", "pinch1"])
def test_close_until_contact_matches_fresh_marches(hand, cylinder_sdf):
    # carrying the object distances from march to march, and checking
    # self-touch only where an active joint moves, leave q bit for bit
    # where fresh marches over every sample put it
    mesh, sdf = cylinder_sdf
    spec = builtin_hand(hand)
    for grasp in _open_grasps(spec, mesh, sdf):
        q = close_until_contact(spec, grasp, sdf.query)
        assert np.array_equal(q, close_until_contact_fresh(spec, grasp,
                                                           sdf.query))
        assert not np.array_equal(q, grasp.q)


@pytest.mark.parametrize("hand", ["human", "pinch1"])
def test_close_until_contact_asks_no_unmoved_sample_again(hand, cylinder_sdf,
                                                          monkeypatch):
    # the first march asks every sample once; after that a sample is
    # asked again only from a position other than where it was last asked,
    # so a later march does not start by asking the samples it inherits
    import graspsynth.closure as closure

    mesh, sdf = cylinder_sdf
    spec = builtin_hand(hand)
    n = len(spec.sample_links())
    posed, marches = [], []
    real_fk, real_march = closure.forward_kinematics, closure.march_closure

    def recording_fk(spec, grasp):
        result = real_fk(spec, grasp)
        posed.append(result.sample_points)
        return result

    def counting_march(*args, **kwargs):
        marches.append(kwargs["reference"])
        return real_march(*args, **kwargs)

    def recording_sdf(points):
        match = (points[:, None] == posed[-1][None]).all(axis=2)
        assert np.all(match.sum(axis=1) == 1)
        rows = match.argmax(axis=1)
        assert not np.any((asked_at[rows] == points).all(axis=1))
        asked_at[rows] = points
        calls.append(len(points))
        return sdf.query(points)

    monkeypatch.setattr(closure, "forward_kinematics", recording_fk)
    monkeypatch.setattr(closure, "march_closure", counting_march)
    for grasp in _open_grasps(spec, mesh, sdf):
        posed.clear()
        marches.clear()
        asked_at, calls = np.full((n, 3), np.nan), []
        closure.close_until_contact(spec, grasp, recording_sdf)
        assert len(marches) > 1
        assert all(ref is marches[0] for ref in marches)
        assert calls[0] == n and n not in calls[1:]


def _column_sets(spec, rng):
    """Column subsets of the stacked hand samples: those that the joints
    of random active sets move, as a march picks them, and random draws
    of two or more columns."""
    from graspsynth.closure import _dof_sample_masks

    _, moves = _dof_sample_masks(spec)
    n = moves.shape[1]
    out = [moves[rng.uniform(size=spec.dof) < p].any(axis=0)
           for p in (0.2, 0.5, 0.8)]
    for size in (2, 3, 17, n // 2, n - 1):
        cols = np.zeros(n, dtype=bool)
        cols[rng.choice(n, size, replace=False)] = True
        out.append(cols)
    return out


@pytest.mark.parametrize("hand", ["human", "coupled9", "quad16", "pinch1"])
def test_link_distances_of_a_column_subset_are_those_columns(hand):
    # the march evaluates self-touch only on the samples an active joint
    # moves: a sample's link distances must not depend on the other points
    # of the call, bit for bit (a single point takes numpy's matrix-vector
    # product; the kernel computes it beside a neighbour)
    spec = builtin_hand(hand)
    rng = np.random.default_rng(11)
    for _ in range(4):
        q = spec.lower + rng.uniform(size=spec.dof) * (spec.upper - spec.lower)
        posed = forward_kinematics(spec, Grasp(q, [1.0, 0.0, 0.0, 0.0],
                                               rng.normal(size=3)))
        points = posed.sample_points
        full = posed.link_distances(points)
        for cols in _column_sets(spec, rng):
            assert np.array_equal(posed.link_distances(points[cols]),
                                  full[:, cols])


def test_march_closure_never_checks_self_touch_on_one_sample(monkeypatch):
    # pinch1 with a one-sample thumb, the index finger already at its
    # limit: only the thumb's joint is active, so the march asks the hand
    # links' distances at the thumb's lone sample alone; its q must be that
    # of a march that evaluates the lone sample beside a neighbour
    from graspsynth.hands.model import PosedHand

    doc = handspec_to_dict(builtin_hand("pinch1"))
    for link in doc["links"]:
        if link["name"] == "thumb_distal":
            link["samples"] = 1
    spec = handspec_from_dict(doc)
    q = np.zeros(spec.dof)
    q[1] = spec.upper[1]
    real = PosedHand.link_distances

    def march():
        return march_closure(spec, Grasp(q, [1.0, 0.0, 0.0, 0.0], np.zeros(3)),
                             lambda p: np.full(len(p), 9.0),
                             delta=np.deg2rad(20.0), substeps=4,
                             stop_self=True)

    sizes = []

    def recording(self, points):
        sizes.append(len(points))
        return real(self, points)

    monkeypatch.setattr(PosedHand, "link_distances", recording)
    q_march = march()
    assert sizes and set(sizes) == {1}

    def with_neighbour(self, points):
        if len(points) > 1:
            return real(self, points)
        return real(self, np.vstack([points, self.sample_points[:1]]))[:, :1]

    monkeypatch.setattr(PosedHand, "link_distances", with_neighbour)
    assert np.array_equal(q_march, march())
