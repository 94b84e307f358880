"""Quasi-static finger closure: flex joints toward the palm until contact.

Each flexion joint advances toward its target in substeps and freezes
when the segment it directly carries reaches the object, so distal
joints keep curling after a proximal contact (a wrap, not a graze).
A joint also freezes if any link it moves starts penetrating, which
stops fingers from pressing through the surface. Abduction/pronation
joints (flexion_sign 0) never move.
"""

import numpy as np

from .hands.model import _ancestor_dofs, forward_kinematics

STOP_SDF = 0.05  # cm


def _dof_sample_masks(spec):
    """(DoF, N) bool over the stacked hand samples: the samples each joint
    carries directly (it is their link's nearest revolute ancestor), and
    the samples it moves at all."""
    sample_links = spec.sample_links()
    carries = np.zeros((spec.dof, len(sample_links)), dtype=bool)
    moves = np.zeros_like(carries)
    for link in np.unique(sample_links):
        dofs = [dof for _, dof in _ancestor_dofs(spec, link)]
        if dofs:
            carries[dofs[0], sample_links == link] = True
            moves[np.ix_(dofs, sample_links == link)] = True
    return carries, moves


def march_closure(spec, grasp, object_sdf, delta=np.deg2rad(10.0),
                  stop_sdf=STOP_SDF, substeps=20, stop_self=False):
    """Advance every flexion joint by up to ``delta`` toward the palm.

    Per-joint stop at first contact of its own segment (object SDF <=
    ``stop_sdf``) or at penetration anywhere downstream, clamped to the
    joint limits. With ``stop_self`` a joint also freezes when its
    segment reaches another non-adjacent hand link (used when authoring
    demonstrations, so thumbs do not curl through fingers). Returns the
    final q.

    After the first substep only the samples that an advancing joint
    moves are queried; the rest keep their previous values. That is
    exact when ``object_sdf`` gives each point a value that does not
    depend on the other points in the call (``MeshSDF.query`` does),
    because forward kinematics poses a link whose joints did not change
    bit for bit as before.
    """
    q = grasp.q.copy()
    lower, upper = spec.lower, spec.upper
    carries, moves = _dof_sample_masks(spec)
    signs = np.zeros(spec.dof)
    for link in spec.links:
        if link.joint_type == "revolute":
            signs[link.dof_index] = link.flexion_sign
    targets = np.clip(q + signs * delta, lower, upper)
    active = (signs != 0) & (np.abs(targets - q) > 1e-12)

    def stopped(q, d, moved=None):
        """Joints whose own samples touch the object, or that move a
        sample that penetrates it (or, with ``stop_self``, rests on
        another finger: the whole chain stops pressing), and the object
        distances of all samples, re-queried where ``moved``."""
        posed = forward_kinematics(spec, _with_q(grasp, q))
        points = posed.all_sample_points()[0]
        if moved is None:
            d = object_sdf(points)
        else:
            d = d.copy()
            d[moved] = object_sdf(points[moved])
        blocked = d < -2 * stop_sdf
        if stop_self:
            blocked |= posed.self_distances().min(axis=0) <= stop_sdf
        return ((carries & (d <= stop_sdf)).any(axis=1)
                | (moves & blocked).any(axis=1)), d

    halted, d = stopped(q, None)
    active &= ~halted
    step = (targets - q) / substeps
    for _ in range(substeps):
        if not np.any(active):
            break
        q[active] += step[active]
        halted, d = stopped(q, d, moves[active].any(axis=0))
        active &= ~halted
    # accumulated substeps can overshoot the limits by float rounding
    return np.clip(q, lower, upper)


def _with_q(grasp, q):
    from .hands.model import Grasp
    return Grasp(q, grasp.rotation, grasp.translation, list(grasp.flags))


def close_until_contact(spec, grasp, object_sdf, max_sweep=np.deg2rad(160),
                        stop_sdf=STOP_SDF, step=np.deg2rad(4.0), substeps=8):
    """Repeated small closure marches; used to author touching grasps.

    Self-contact stopping is on, so authored demonstration hands neither
    pass through the object nor through themselves. Substeps are fine
    (0.5 degrees) to keep contact overshoot below the stop tolerance.
    """
    q = grasp.q.copy()
    swept = 0.0
    while swept < max_sweep:
        g = _with_q(grasp, q)
        q_new = march_closure(spec, g, object_sdf, delta=step,
                              stop_sdf=stop_sdf, substeps=substeps,
                              stop_self=True)
        if np.abs(q_new - q).max() < 1e-9:
            break
        q = q_new
        swept += step
    return q
