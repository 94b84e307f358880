"""Articulated hand models: kinematics, coupling, reference specs."""

from .model import (Anchor, FingertipFrame, Grasp, HandSpec, Link, PosedHand,
                    actuated_from_q, apply_coupling, forward_kinematics,
                    make_grasp, point_jacobian, point_jacobian_world)
from .schema import (builtin_hand, builtin_hand_names, grasp_from_dict,
                     grasp_to_dict, handspec_from_dict, handspec_to_dict,
                     load_grasp, load_handspec, save_handspec)

__all__ = [
    "Anchor", "FingertipFrame", "Grasp", "HandSpec", "Link", "PosedHand",
    "actuated_from_q", "apply_coupling", "builtin_hand", "builtin_hand_names",
    "forward_kinematics", "grasp_from_dict", "grasp_to_dict",
    "handspec_from_dict", "handspec_to_dict", "load_grasp", "load_handspec",
    "make_grasp", "point_jacobian", "point_jacobian_world", "save_handspec",
]
