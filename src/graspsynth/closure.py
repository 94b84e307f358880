"""Quasi-static finger closure: flex joints toward the palm until contact.

Each flexion joint advances toward its target in substeps and freezes
when the segment it directly carries reaches the object, so distal
joints keep curling after a proximal contact (a wrap, not a graze).
A joint also freezes if any link it moves starts penetrating, which
stops fingers from pressing through the surface. Abduction/pronation
joints (flexion_sign 0) never move.
"""

from dataclasses import replace

import numpy as np

from .hands.model import _ancestor_dofs, forward_kinematics

STOP_SDF = 0.05  # cm
# widens the distance bound of a moved sample for rounding: the worst
# excess of |f(p) - f(p')| over |p - p'| measured for MeshSDF.query on
# the cylinder and the category templates was below 1e-12 cm
MARGIN = 1e-9  # cm


def _dof_sample_masks(spec):
    """(DoF, N) bool over the stacked hand samples: the samples each joint
    carries directly (it is their link's nearest revolute ancestor), and
    the samples it moves at all."""
    carries = np.zeros((spec.dof, len(spec.sample_links())), dtype=bool)
    moves = np.zeros_like(carries)
    for link, rows in spec.sample_slices().items():
        dofs = _ancestor_dofs(spec, link)
        if dofs:
            carries[dofs[0], rows] = True
            moves[dofs, rows] = True
    return carries, moves


def march_closure(spec, grasp, object_sdf, delta=np.deg2rad(10.0),
                  substeps=20, stop_self=False, reference=None):
    """Advance every flexion joint by up to ``delta`` toward the palm.

    Per-joint stop at first contact of its own segment (object SDF <=
    ``STOP_SDF``) or at penetration anywhere downstream, clamped to the
    joint limits. With ``stop_self`` a joint also freezes when its
    segment reaches another non-adjacent hand link (used when authoring
    demonstrations, so thumbs do not curl through fingers). Returns the
    final q.

    ``object_sdf`` must be a distance field,
    ``|f(p) - f(p')| <= |p - p'|`` (``MeshSDF.query`` is, signed or
    unsigned, and so is a constant field), and must give each point a
    value that does not depend on the other points in the call. The
    march only compares values with ``STOP_SDF`` and ``-2 * STOP_SDF``,
    so after the first query of every sample, a sample keeps its last
    exact value ``d_ref`` and where it was taken, ``p_ref``. A sample
    that moved by ``m`` since then lies in ``[d_ref - m, d_ref + m]``,
    widened by ``MARGIN`` for rounding; it is queried again only when
    that interval holds a threshold, so the decisions, and q, are those
    of exact values. Forward kinematics poses a link whose joints did not
    change bit for bit as before, so the samples of frozen fingers keep
    their values.

    ``reference`` carries ``[p_ref, d_ref]`` from one march to the next
    over the same ``object_sdf``: an empty list is filled at the first
    substep, which then queries every sample, and a filled one is
    updated in place, its first substep asking only what the bound
    rule asks. Without it a march starts from a fresh query.

    Only active joints read whether a sample rests on another link, so
    with ``stop_self`` the hand-link distances are evaluated only on the
    samples an active joint moves; a sample's distances do not depend on
    the other points of the call, so these are bit for bit those
    columns of ``self_distances``.
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
    thresholds = (STOP_SDF, -2 * STOP_SDF)
    if reference is None:
        reference = []
    if stop_self:
        contact_mask = spec.self_contact_mask()

    def stopped(q):
        """Joints whose own samples touch the object, or that move a
        sample that penetrates it (or, with ``stop_self``, rests on
        another finger: the whole chain stops pressing). Only the
        samples an active joint moves are checked against other links."""
        posed = forward_kinematics(spec, replace(grasp, q=q))
        points = posed.sample_points
        if not reference:
            reference[:] = [points.copy(),
                            np.array(object_sdf(points), dtype=float)]
            d_max = reference[1]
        else:
            p_ref, d_ref = reference
            moved = np.any(points != p_ref, axis=1)
            slack = np.zeros(len(points))
            slack[moved] = (np.linalg.norm(points[moved] - p_ref[moved],
                                           axis=1) + MARGIN)
            ask = moved & (np.abs(d_ref[:, None] - thresholds)
                           <= slack[:, None]).any(axis=1)
            if ask.any():
                p_ref[ask] = points[ask]
                d_ref[ask] = object_sdf(points[ask])
                slack[ask] = 0.0
            # the largest value each sample can have; a sample left
            # unasked lies on the same side of both thresholds as it
            d_max = d_ref + slack
        blocked = d_max < -2 * STOP_SDF
        if stop_self:
            cols = moves[active].any(axis=0)
            touch = np.where(contact_mask[:, cols],
                             posed.link_distances(points[cols]), np.inf)
            blocked[cols] |= touch.min(axis=0) <= STOP_SDF
        return ((carries & (d_max <= STOP_SDF)).any(axis=1)
                | (moves & blocked).any(axis=1))

    active &= ~stopped(q)
    step = (targets - q) / substeps
    for _ in range(substeps):
        if not np.any(active):
            break
        q[active] += step[active]
        active &= ~stopped(q)
    # accumulated substeps can overshoot the limits by float rounding
    return np.clip(q, lower, upper)


def close_until_contact(spec, grasp, object_sdf):
    """Repeated small closure marches; used to author touching grasps.

    Marches of 4 degrees sweep at most 160 degrees. Self-contact
    stopping is on, so authored demonstration hands neither pass through
    the object nor through themselves. Substeps are fine (0.5 degrees)
    to keep contact overshoot below the stop tolerance. The marches
    share one object-distance ``reference``, so only the first queries
    every sample; q is that of fresh marches, bit for bit.
    """
    step = np.deg2rad(4.0)
    q = grasp.q.copy()
    swept = 0.0
    reference = []
    while swept < np.deg2rad(160):
        g = replace(grasp, q=q)
        q_new = march_closure(spec, g, object_sdf, delta=step, substeps=8,
                              stop_self=True, reference=reference)
        if np.abs(q_new - q).max() < 1e-9:
            break
        q = q_new
        swept += step
    return q
