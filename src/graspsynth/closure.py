"""Quasi-static finger closure: flex joints toward the palm until contact.

Each flexion joint advances toward its target in substeps and freezes
when the segment it directly carries reaches the object, so distal
joints keep curling after a proximal contact (a wrap, not a graze).
A joint also freezes if any link it moves starts penetrating, which
stops fingers from pressing through the surface. Abduction/pronation
joints (flexion_sign 0) never move.
"""

import numpy as np

from .hands.model import forward_kinematics

STOP_SDF = 0.05  # cm


def _own_links(spec):
    """dof index -> geometric links whose nearest revolute ancestor is it."""
    out = {}
    for i, link in enumerate(spec.links):
        if not (link.primitives and link.sample_count > 0):
            continue
        j = i
        while j >= 0:
            l = spec.links[j]
            if l.joint_type == "revolute":
                out.setdefault(l.dof_index, []).append(i)
                break
            j = l.parent
    return out


def _subtree_links(spec):
    """dof index -> all geometric links that joint moves."""
    out = {}
    for i, link in enumerate(spec.links):
        if not (link.primitives and link.sample_count > 0):
            continue
        j = i
        while j >= 0:
            l = spec.links[j]
            if l.joint_type == "revolute":
                out.setdefault(l.dof_index, []).append(i)
            j = l.parent
    return out


def march_closure(spec, grasp, object_sdf, delta=np.deg2rad(10.0),
                  stop_sdf=STOP_SDF, substeps=20, stop_self=False):
    """Advance every flexion joint by up to ``delta`` toward the palm.

    Per-joint stop at first contact of its own segment (object SDF <=
    ``stop_sdf``) or at penetration anywhere downstream, clamped to the
    joint limits. With ``stop_self`` a joint also freezes when its
    segment reaches another non-adjacent hand link (used when authoring
    demonstrations, so thumbs do not curl through fingers). Returns the
    final q.
    """
    q = grasp.q.copy()
    lower, upper = spec.lower, spec.upper
    own = _own_links(spec)
    subtree = _subtree_links(spec)
    signs = np.zeros(spec.dof)
    for link in spec.links:
        if link.joint_type == "revolute":
            signs[link.dof_index] = link.flexion_sign
    targets = np.clip(q + signs * delta, lower, upper)
    active = (signs != 0) & (np.abs(targets - q) > 1e-12)
    sample_links = spec.sample_links()

    def self_touching(posed):
        """Links with a sample within ``stop_sdf`` of a non-adjacent link."""
        if not stop_self:
            return set()
        near = posed.self_distances().min(axis=0) <= stop_sdf
        return set(sample_links[near].tolist())

    def frozen(posed, dof, touching):
        for link in own.get(dof, ()):
            if object_sdf(posed.segment_points(link)).min() <= stop_sdf:
                return True
        for link in subtree.get(dof, ()):
            if object_sdf(posed.segment_points(link)).min() < -2 * stop_sdf:
                return True
            # the whole chain stops pressing once anything downstream
            # rests on another finger
            if link in touching:
                return True
        return False

    posed = forward_kinematics(spec, _with_q(grasp, q))
    touching = self_touching(posed)
    for dof in np.nonzero(active)[0]:
        if frozen(posed, dof, touching):
            active[dof] = False

    step = (targets - q) / substeps
    for _ in range(substeps):
        if not np.any(active):
            break
        q[active] += step[active]
        posed = forward_kinematics(spec, _with_q(grasp, q))
        touching = self_touching(posed)
        for dof in np.nonzero(active)[0]:
            if frozen(posed, dof, touching):
                active[dof] = False
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
