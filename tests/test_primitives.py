import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graspsynth import transforms as tf
from graspsynth.errors import InvalidInputError
from graspsynth.geometry import Primitive, primitive_sdf, tessellate, union_sdf
from graspsynth.geometry.primitives import PrimitiveStack
from graspsynth.hands import builtin_hand, forward_kinematics
from graspsynth.hands.model import Grasp

from oracles import link_stack, primitive_query_all_rows, rot_about

HANDS = ["human", "coupled9", "quad16", "pinch1"]


def test_sphere_point_values():
    prim = Primitive("sphere", (1.0,))
    d, g = primitive_sdf(prim, [[3, 0, 0]])
    assert d[0] == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(g[0], [1, 0, 0], atol=1e-12)


def test_capsule_on_axis():
    prim = Primitive("capsule", (0.5, 1.0))
    d = primitive_sdf(prim, [[0, 0, 0]], with_gradient=False)
    assert d[0] == pytest.approx(-0.5, abs=1e-12)
    d_end = primitive_sdf(prim, [[0, 0, 2.0]], with_gradient=False)
    assert d_end[0] == pytest.approx(0.5, abs=1e-12)


def test_box_inside_outside():
    prim = Primitive("box", (1.0, 2.0, 3.0))
    d = primitive_sdf(prim, [[0, 0, 0], [2, 0, 0], [1.5, 2.5, 0]],
                      with_gradient=False)
    assert d[0] == pytest.approx(-1.0, abs=1e-12)
    assert d[1] == pytest.approx(1.0, abs=1e-12)
    assert d[2] == pytest.approx(np.hypot(0.5, 0.5), abs=1e-12)


@pytest.mark.parametrize("prim", [
    Primitive("sphere", (0.8,)),
    Primitive("capsule", (0.4, 1.2)),
    Primitive("box", (0.5, 0.9, 1.4)),
    Primitive("capsule", (0.6, 0.7), rotation=rot_about([1, 1, 0], 0.9),
              translation=np.array([0.3, -0.2, 1.0])),
])
def test_gradients_match_finite_differences(prim):
    rng = np.random.default_rng(17)
    pts = rng.uniform(-3, 3, size=(300, 3))
    d, g = primitive_sdf(prim, pts)
    # keep clear of surface kinks and the medial axis
    keep = np.abs(d) > 0.05
    if prim.kind == "box":
        local = (pts - prim.translation) @ prim.rotation
        q = np.abs(local) - np.asarray(prim.params)
        s = np.sort(q, axis=1)
        keep &= np.abs(s[:, 2] - s[:, 1]) > 0.05  # off the corner/edge loci
    pts, d, g = pts[keep], d[keep], g[keep]
    h = 1e-4
    for k in range(3):
        dp = np.zeros(3)
        dp[k] = h
        fd = (primitive_sdf(prim, pts + dp, with_gradient=False)
              - primitive_sdf(prim, pts - dp, with_gradient=False)) / (2 * h)
        rel = np.abs(fd - g[:, k]) / np.maximum(np.abs(g).max(axis=1), 1e-9)
        assert rel.max() < 1e-5
    assert np.allclose(np.linalg.norm(g, axis=1), 1.0, atol=1e-9)


def test_union_takes_min():
    prims = [Primitive("sphere", (1.0,)),
             Primitive("sphere", (1.0,), translation=np.array([4.0, 0, 0]))]
    d, g = union_sdf(prims, [[1.5, 0, 0], [2.5, 0, 0]])
    assert d[0] == pytest.approx(0.5)
    assert np.allclose(g[0], [1, 0, 0])
    assert np.allclose(g[1], [-1, 0, 0])


def test_invalid_parameters():
    with pytest.raises(InvalidInputError):
        Primitive("sphere", (-1.0,))
    with pytest.raises(InvalidInputError):
        Primitive("cone", (1.0,))
    with pytest.raises(InvalidInputError):
        Primitive("sphere", (1.0,), rotation=np.eye(3) * 2)


@pytest.mark.parametrize("prim", [
    Primitive("sphere", (1.0,)),
    Primitive("capsule", (0.5, 1.0)),
    Primitive("box", (0.5, 0.7, 0.9)),
])
def test_tessellation_watertight_and_euler(prim):
    mesh = tessellate(prim)
    assert mesh.is_watertight()
    # closed genus-0 surface: V - E + F = 2
    edges = set()
    for f in mesh.faces:
        for e in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            edges.add((min(e), max(e)))
    euler = len(mesh.vertices) - len(edges) + len(mesh.faces)
    assert euler == 2


def test_tessellation_approximates_sdf():
    prim = Primitive("capsule", (0.5, 1.0))
    mesh = tessellate(prim, segments=48)
    d = primitive_sdf(prim, mesh.vertices, with_gradient=False)
    assert np.abs(d).max() < 0.01


def _random_pose(spec, rng):
    q = spec.lower + rng.uniform(size=spec.dof) * (spec.upper - spec.lower)
    posed = forward_kinematics(spec, Grasp(q, tf.quat_normalize(
        rng.normal(size=4)), rng.normal(size=3)))
    return posed.rotations, posed.translations


def _feature_points(prims):
    """Local points on each primitive's features: a capsule's axis, where
    the gradient falls back to a fixed direction, and a box's centre,
    face centres, edge midpoints and corners, where faces tie."""
    out = []
    for prim in prims:
        if prim.kind == "capsule":
            h = prim.params[1]
            local = [[0.0, 0.0, z] for z in (-h, -0.5 * h, 0.0, h)]
        elif prim.kind == "box":
            he = np.asarray(prim.params)
            signs = np.meshgrid(*[(-1.0, 0.0, 1.0)] * 3)
            local = np.reshape(signs, (3, -1)).T * he
        else:
            local = [[0.0, 0.0, 0.0]]
        out.append(np.asarray(local) @ prim.rotation.T + prim.translation)
    return np.vstack(out)


def _check_against_all_rows(stack, rotations, translations, points):
    d, grad, k = primitive_query_all_rows(stack, rotations, translations,
                                          points)
    n = np.arange(len(points))
    best, g, owner = stack.query(rotations, translations, points,
                                 with_gradient=True)
    assert np.array_equal(best, d[n, k])
    assert np.array_equal(g, grad)
    assert np.array_equal(owner, stack.owner[k])
    assert np.array_equal(stack.query(rotations, translations, points),
                          d[n, k])
    owners = sorted(set(stack.owner.tolist()))
    assert np.array_equal(
        stack.owner_distances(rotations, translations, points),
        [d[:, stack.owner == o].min(axis=1) for o in owners])


@pytest.mark.parametrize("hand", HANDS)
def test_stack_matches_all_rows_kernel(hand):
    # passes of ``chunk`` points, a one-point pass beside a neighbour and a
    # gradient from the nearest row's formula alone must give the values of
    # every row's gradient over all points at once, bit for bit
    spec = builtin_hand(hand)
    rng = np.random.default_rng(23)
    for link in [None] + spec.segment_links():
        stack = (spec.primitive_stack() if link is None
                 else link_stack(spec, link))
        rotations, translations = _random_pose(spec, rng)
        links = spec.segment_links() if link is None else [link]
        features = np.vstack([
            _feature_points(spec.links[i].primitives) @ rotations[i].T
            + translations[i] for i in links])
        c = stack.chunk
        for size in (1, 2, c - 1, c, c + 1, 3 * c + 2, 5000):
            pool = np.vstack([features, features.mean(axis=0) + rng.normal(
                0.0, 4.0, (max(size - len(features), 0), 3))])
            points = pool[rng.permutation(len(pool))[:size]]
            _check_against_all_rows(stack, rotations, translations, points)
    for point in features:
        _check_against_all_rows(stack, rotations, translations, point[None])


def test_stack_matches_all_rows_kernel_on_exact_features():
    # in identity frames the local points are exact: points on a capsule's
    # axis take the fallback direction and box faces, edges and corners
    # tie exactly
    prims = [Primitive("capsule", (0.5, 1.0)),
             Primitive("box", (1.0, 0.5, 0.5)),
             Primitive("sphere", (0.7,), translation=np.array([3.0, 0, 0]))]
    stack = PrimitiveStack({0: prims[:2], 1: prims[2:]})
    frames = np.stack([np.eye(3)] * 2), np.zeros((2, 3))
    points = np.vstack([_feature_points(prims),
                        [[0.25, 0.25, 0.0], [0.9, 0.4, 0.4], [3.0, 0.0, 0.0]]])
    _check_against_all_rows(stack, *frames, points)
    for point in points:
        _check_against_all_rows(stack, *frames, point[None])


@pytest.mark.parametrize("hand", HANDS)
def test_one_point_query_equals_its_batch_row(hand):
    # a one-row ``points @ M`` takes numpy's matrix-vector routine, whose
    # last bit can differ from the same row in a batch: a point's value
    # must not depend on how many points share the call
    spec = builtin_hand(hand)
    rng = np.random.default_rng(40)
    rotations, translations = _random_pose(spec, rng)
    stack = spec.primitive_stack()
    points = rng.normal(0.0, 4.0, (500, 3)) + translations.mean(axis=0)
    best, grad, owner = stack.query(rotations, translations, points,
                                    with_gradient=True)
    dist = stack.query(rotations, translations, points)
    owners = stack.owner_distances(rotations, translations, points)
    for r in rng.choice(len(points), 40, replace=False):
        one = points[r:r + 1]
        b1, g1, o1 = stack.query(rotations, translations, one,
                                 with_gradient=True)
        assert b1[0] == best[r] and o1[0] == owner[r]
        assert np.array_equal(g1[0], grad[r])
        assert stack.query(rotations, translations, one)[0] == dist[r]
        assert np.array_equal(
            stack.owner_distances(rotations, translations, one)[:, 0],
            owners[:, r])


_SPECS = {}


def _spec(hand):
    if hand not in _SPECS:
        _SPECS[hand] = builtin_hand(hand)
    return _SPECS[hand]


@settings(derandomize=True, max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), spread=st.floats(0.5, 8.0))
def test_distance_pass_and_gradient_step_match_all_rows_kernel(seed, spread):
    # the distance pass keeps each point's winning row and local point and
    # the gradient step runs the winners' formulas later: together they
    # must give every row's formula over all points at once, bit for bit,
    # at every batch size around a pass, and a one-point call its batch row
    rng = np.random.default_rng(seed)
    for hand in HANDS:
        spec = _spec(hand)
        stack = spec.primitive_stack()
        rotations, translations = _random_pose(spec, rng)
        c = stack.chunk
        for size in (0, 1, 2, c - 1, c, c + 1):
            points = translations.mean(axis=0) + rng.normal(0.0, spread,
                                                             (size, 3))
            best, rows, won_at = stack.nearest(rotations, translations, points)
            grad = stack.gradient(rotations, rows, won_at)
            assert best.shape == rows.shape == (size,)
            assert grad.shape == won_at.shape == (size, 3)
            b, g, owner = stack.query(rotations, translations, points,
                                      with_gradient=True)
            assert np.array_equal(b, best) and np.array_equal(g, grad)
            assert np.array_equal(owner, stack.owner[rows])
            if not size:
                continue
            d, want, k = primitive_query_all_rows(stack, rotations,
                                                  translations, points)
            assert np.array_equal(best, d[np.arange(size), k])
            assert np.array_equal(rows, k)
            assert np.array_equal(grad, want)
            for r in rng.choice(size, min(size, 3), replace=False):
                b1, r1, w1 = stack.nearest(rotations, translations,
                                           points[r:r + 1])
                assert b1[0] == best[r] and r1[0] == rows[r]
                assert np.array_equal(stack.gradient(rotations, r1, w1)[0],
                                      grad[r])


@pytest.mark.parametrize("hand", HANDS)
def test_owner_restricted_pass_matches_one_link_stack(hand):
    # with ``owners`` each point's minimum runs over its owner's rows only:
    # the distance pass and the gradient step must give what a stack built
    # over that one link gives, bit for bit, at every batch size around a
    # pass, with ties at the primitives' features among the points
    spec = builtin_hand(hand)
    stack = spec.primitive_stack()
    links = spec.segment_links()
    rng = np.random.default_rng(61)
    c = stack.chunk
    for size in (0, 1, 2, c - 1, c, c + 1):
        rotations, translations = _random_pose(spec, rng)
        features = [_feature_points(spec.links[i].primitives) @ rotations[i].T
                    + translations[i] for i in links]
        pool = np.vstack(features + [translations.mean(axis=0) + rng.normal(
            0.0, 3.0, (size, 3))])
        pool_owners = np.concatenate(
            [np.full(len(f), i) for f, i in zip(features, links)]
            + [rng.choice(links, size)])
        pick = rng.permutation(len(pool))[:size]
        points, owners = pool[pick], pool_owners[pick]
        best, rows, won_at = stack.nearest(rotations, translations, points,
                                           owners=owners)
        grad = stack.gradient(rotations, rows, won_at)
        assert best.shape == rows.shape == (size,)
        assert grad.shape == won_at.shape == (size, 3)
        assert np.array_equal(stack.owner[rows], owners)
        for link in np.unique(owners):
            mine = owners == link
            d, g, _ = link_stack(spec, link).query(
                rotations, translations, points[mine], with_gradient=True)
            assert np.array_equal(best[mine], d)
            assert np.array_equal(grad[mine], g)
