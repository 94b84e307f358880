import numpy as np
import pytest

from graspsynth.closure import STOP_SDF, march_closure
from graspsynth.fixtures import cylinder_mesh, wrap_grasp_pose
from graspsynth.geometry import MeshSDF
from graspsynth.hands import builtin_hand, forward_kinematics
from graspsynth.hands.model import Grasp, apply_coupling
from graspsynth.metrics import CONTACT_BAND, ContactSet, closure_contacts

from oracles import march_closure_per_link


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
        for i in sorted(posed.samples):
            pts = posed.samples[i].points
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
