import functools

import numpy as np
import pytest

from graspsynth import transforms as tf
from graspsynth.errors import ConfigurationError, InvalidInputError
from graspsynth.geometry import Primitive
from graspsynth.hands import (FingertipFrame, HandSpec, Link, builtin_hand,
                              forward_kinematics, make_grasp)
from graspsynth.retarget import RetargetProblem, problem_from_demo, retarget

from oracles import retarget_reference, rot_about


def _human_problem(cylinder_scene, robot=None, **kw):
    demo = cylinder_scene["demo"]
    robot = robot or cylinder_scene["spec"]
    return problem_from_demo(demo, robot, **kw)


def test_identical_skeleton_roundtrip(cylinder_scene):
    problem = _human_problem(cylinder_scene)
    result = retarget(problem)
    q_h = cylinder_scene["grasp"].q
    assert np.array_equal(result.grasp.q, q_h)  # exact recovery
    assert result.trace[0] == pytest.approx(0.0, abs=1e-9)
    assert result.final_cost == pytest.approx(0.0, abs=1e-9)
    assert np.array_equal(result.grasp.rotation, cylinder_scene["grasp"].rotation)
    assert np.array_equal(result.grasp.translation,
                          cylinder_scene["grasp"].translation)


def one_joint_hand(hi=0.9):
    links = [
        Link("base", -1, np.eye(3), np.zeros(3), "fixed",
             primitives=[Primitive("sphere", (0.4,))], sample_count=8),
        Link("j", 0, np.eye(3), np.array([0.5, 0, 0]), "revolute",
             np.array([0.0, 0.0, 1.0]), (-hi, hi),
             primitives=[Primitive("capsule", (0.3, 1.0),
                                   rotation=rot_about([0, 1, 0], np.pi / 2),
                                   translation=np.array([1.0, 0, 0]))],
             sample_count=8),
    ]
    return HandSpec("one", links,
                    fingertip_frames=[FingertipFrame("index", 1,
                                                     np.array([2.0, 0, 0]))],
                    human_joint_map={"j": "human_j"})


def test_clamped_boundary_optimum():
    # human joint at 1.2 rad, robot limit 0.9, no task term -> exactly 0.9
    spec = one_joint_hand(hi=0.9)
    problem = RetargetProblem(spec, {"human_j": 1.2},
                              {"index": np.array([2.0, 0.0, 0.0])},
                              tf.IDENTITY_QUAT, np.zeros(3),
                              alpha_task=0.0, alpha_joint=5.0)
    result = retarget(problem)
    assert result.grasp.q[0] == pytest.approx(0.9, abs=1e-12)


def test_pure_task_term_reaches_analytic_ik():
    # alpha_joint = 0: single z-joint, target tip at 45 degrees
    spec = one_joint_hand(hi=1.5)
    angle = np.pi / 4
    posed = forward_kinematics(spec, make_grasp(spec, q=[angle]))
    target = posed.fingertip_points[0]
    problem = RetargetProblem(spec, {"human_j": 0.0}, {"index": target},
                              tf.IDENTITY_QUAT, np.zeros(3),
                              alpha_task=1.0, alpha_joint=0.0)
    result = retarget(problem)
    assert result.grasp.q[0] == pytest.approx(angle, abs=1e-3)


def test_trace_nonincreasing(cylinder_scene):
    robot = builtin_hand("coupled9")
    problem = _human_problem(cylinder_scene, robot=robot)
    result = retarget(problem)
    trace = np.asarray(result.trace)
    assert np.all(np.diff(trace) <= 1e-12)
    assert len(trace) >= 2


def test_never_worse_than_clamped_direct_mapping(cylinder_scene):
    for hand in ("coupled9", "quad16", "pinch1"):
        robot = builtin_hand(hand)
        problem = _human_problem(cylinder_scene, robot=robot)
        result = retarget(problem)
        assert result.final_cost <= result.trace[0] + 1e-12
        assert np.all(result.grasp.q >= robot.lower - 1e-12)
        assert np.all(result.grasp.q <= robot.upper + 1e-12)


def test_deterministic(cylinder_scene):
    robot = builtin_hand("coupled9")
    problem = _human_problem(cylinder_scene, robot=robot)
    a = retarget(problem)
    b = retarget(problem)
    assert np.array_equal(a.grasp.q, b.grasp.q)
    assert a.trace == b.trace


def test_unmapped_fingertip_is_configuration_error(cylinder_scene):
    robot = builtin_hand("coupled9")
    demo = cylinder_scene["demo"]
    task_points = dict(demo.task_points)
    del task_points["thumb"]
    with pytest.raises(ConfigurationError):
        RetargetProblem(robot, dict(demo.q), task_points,
                        demo.wrist_rotation, demo.wrist_translation)


def _one_joint_problem(human_q=None, task_points=None, **alphas):
    return RetargetProblem(one_joint_hand(), human_q or {"human_j": 1.2},
                           task_points or {"index": np.array([2.0, 0, 0])},
                           tf.IDENTITY_QUAT, np.zeros(3), **alphas)


def test_infinite_alpha_joint_is_configuration_error():
    # used to reach the solver and raise "invalid value in multiply"
    with pytest.raises(ConfigurationError, match="alpha weights"):
        _one_joint_problem(alpha_joint=np.inf)


def test_nan_alpha_task_is_configuration_error():
    # NaN compares False with 0, so the negative-weight check let it by
    # and the solver failed on "grasp q must be finite"
    with pytest.raises(ConfigurationError, match="alpha weights"):
        _one_joint_problem(alpha_task=np.nan)


def test_nan_task_point_is_invalid_input():
    with pytest.raises(InvalidInputError,
                       match="task point of fingertip 'index' must be finite"):
        _one_joint_problem(task_points={"index": np.array([2.0, np.nan, 0])})


def test_nan_mapped_human_joint_is_invalid_input():
    with pytest.raises(InvalidInputError,
                       match="human joint 'human_j' must be finite"):
        _one_joint_problem(human_q={"human_j": np.nan})


def test_coupled_hand_reduces_task_error(cylinder_scene):
    robot = builtin_hand("coupled9")
    problem = _human_problem(cylinder_scene, robot=robot, alpha_joint=0.5)
    result = retarget(problem)
    # task-only error at solution vs at zero pose
    posed = forward_kinematics(robot, result.grasp)
    tips_t = np.array([problem.task_points[f.name]
                       for f in robot.fingertip_frames])
    Rw, tw = result.grasp.wrist_matrix()
    tips = (posed.fingertip_points - tw) @ Rw
    err = np.linalg.norm(tips_t - tips, axis=1).sum()
    posed0 = forward_kinematics(robot, make_grasp(robot))
    tips0 = posed0.fingertip_points  # identity wrist: already wrist frame
    err0 = np.linalg.norm(tips_t - tips0, axis=1).sum()
    assert err < err0


@functools.lru_cache(maxsize=None)
def _demo(name):
    from graspsynth.fixtures import cylinder_demo, template_demo
    return cylinder_demo()[0] if name == "cylinder" else template_demo(name)[0]


@pytest.mark.parametrize("hand", ["coupled9", "human", "pinch1", "quad16"])
@pytest.mark.parametrize("demo", ["cylinder", "bottle", "tumbler", "wand"])
def test_matches_reference_solver_bit_for_bit(demo, hand):
    # the array Jacobians change no bit of the descent: same q, the same
    # trace and the same iteration count as the per-joint solver
    problem = problem_from_demo(_demo(demo), builtin_hand(hand))
    result = retarget(problem)
    q, trace, iterations = retarget_reference(problem)
    assert result.grasp.q.tobytes() == q.tobytes()
    assert np.array(result.trace).tobytes() == np.array(trace).tobytes()
    assert result.iterations == iterations


def test_poses_once_per_candidate(monkeypatch):
    # an accepted candidate's gradient reuses the pose that scored it, so
    # the hand is posed once at the start and once per line-search
    # candidate: 811 times on coupled9 and the bottle demo, not 1,311
    import graspsynth.retarget as module

    calls = []

    def counted(spec, grasp):
        calls.append(grasp.q.copy())
        return forward_kinematics(spec, grasp)

    monkeypatch.setattr(module, "forward_kinematics", counted)
    result = retarget(problem_from_demo(_demo("bottle"),
                                        builtin_hand("coupled9")))
    assert result.iterations == 500
    assert len(calls) == 811
    assert len({q.tobytes() for q in calls}) == len(calls)


def test_matches_reference_solver_on_random_fingertips():
    # the builtin fingertips sit on a link axis; these are general points,
    # on random chains with every other joint mapped onto a human joint,
    # and a joint weight low enough that the descent moves them
    from test_hand_model import random_chain

    rng = np.random.default_rng(62)
    for _ in range(4):
        chain = random_chain(rng, n_links=int(rng.integers(3, 7)), frames=3)
        revolute = [l.name for l in chain.links if l.joint_type == "revolute"]
        robot = HandSpec(chain.name, chain.links,
                         fingertip_frames=chain.fingertip_frames,
                         human_joint_map={n: f"human_{n}"
                                          for n in revolute[::2]})
        problem = RetargetProblem(
            robot, {f"human_{n}": rng.uniform(-1, 1) for n in revolute},
            {f.name: rng.uniform(-3, 3, 3) for f in robot.fingertip_frames},
            tf.IDENTITY_QUAT, np.zeros(3), alpha_joint=0.5)
        result = retarget(problem)
        q, trace, iterations = retarget_reference(problem)
        assert iterations > 1 and trace[-1] < trace[0]
        assert result.grasp.q.tobytes() == q.tobytes()
        assert np.array(result.trace).tobytes() == np.array(trace).tobytes()
        assert result.iterations == iterations
