import numpy as np
import pytest

from graspsynth.closure import MARGIN, STOP_SDF, march_closure
from graspsynth.fixtures import cylinder_mesh, wrap_grasp_pose
from graspsynth.geometry import MeshSDF
from graspsynth.hands import builtin_hand, forward_kinematics
from graspsynth.hands.model import Grasp, apply_coupling
from graspsynth.metrics import CONTACT_BAND, ContactSet, closure_contacts

from oracles import link_sample_points, march_closure_per_link


@pytest.fixture(scope="module")
def cylinder_sdf():
    mesh = cylinder_mesh()
    return mesh, MeshSDF(mesh)


def _grasps_near(spec, mesh, sdf, rng, n=3):
    """Seeded grasps in the wrap pose: half-curled joints and a jittered
    wrist, moved along the approach axis so the deepest hand sample lands
    near the surface (a draw between 0.15 cm inside and 0.1 cm outside)."""
    rotation, translation = wrap_grasp_pose(mesh)
    lo, hi = spec.actuated_limits[:, 0], spec.actuated_limits[:, 1]
    out = []
    for _ in range(n):
        q, _ = apply_coupling(spec, lo + rng.uniform(0.3, 0.8, spec.doa)
                              * (hi - lo))
        t = translation + rng.uniform(-0.5, 0.5, 3)
        posed = forward_kinematics(spec, Grasp(q, rotation, t))
        deepest = float(sdf.query(posed.all_sample_points()[0]).min())
        t[1] += rng.uniform(-0.15, 0.1) - deepest
        out.append(Grasp(q, rotation, t))
    return out


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

        contacts, links, q = closure_contacts(spec, grasp, mesh,
                                              object_sdf=sdf)
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
