"""ICP matched in the template's frame against the world-frame oracle.

A similarity scales every distance by sigma, so ``icp_init`` matches
R^T (p - t) / sigma against one KD tree over the canonical points instead
of building a tree over the moved template each iteration. The matched
indices of every iteration and the final state must be those of the
world-frame loop in ``oracles.icp_world_frame``.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial import cKDTree

from graspsynth import fit
from graspsynth import transforms as tf
from graspsynth.fixtures import CATEGORY_TEMPLATES, category_instances
from graspsynth.geometry import sample_surface

from oracles import icp_world_frame


@pytest.fixture(scope="module")
def library():
    return fit.TemplateLibrary.from_meshes(
        {c: CATEGORY_TEMPLATES[c]() for c in ("bottle", "tumbler", "wand")})


def _half_view(category, seed):
    """Seeded half view of a warped, scaled, tilted instance."""
    rng = np.random.default_rng(seed)
    _, meshes, _ = category_instances(category)
    mesh = meshes[seed % len(meshes)]
    lo, hi = mesh.bounds()
    R = tf.axis_angle_to_matrix(rng.normal(size=3), np.deg2rad(15.0))
    world = mesh.transformed(np.eye(3), -(lo + hi) / 2).scaled(
        rng.uniform(0.9, 1.1)).transformed(R, rng.normal(size=3))
    cloud = sample_surface(world, n=2048, seed=seed)
    keep = cloud.normals @ rng.normal(size=3) > 0.0
    return cloud.points[keep]


class _RecordingTree(cKDTree):
    """cKDTree that keeps the indices of every query it answers."""

    matches = []

    def query(self, x, *args, **kwargs):
        d, idx = super().query(x, *args, **kwargs)
        self.matches.append(idx)
        return d, idx


def _check_against_oracle(monkeypatch, observed, template, canon, diag):
    _RecordingTree.matches = []
    monkeypatch.setattr(template, "_tree", _RecordingTree(canon))
    state = fit.icp_init(observed, template)
    (s, quat, t, residual), matches = icp_world_frame(observed, canon, diag)
    assert len(_RecordingTree.matches) == len(matches)
    for got, want in zip(_RecordingTree.matches, matches):
        assert np.array_equal(got, want)
    np.testing.assert_allclose(state.s, s, rtol=0, atol=1e-12)
    np.testing.assert_allclose(state.rotation, quat, rtol=0, atol=1e-12)
    np.testing.assert_allclose(state.translation, t, rtol=0, atol=1e-12)
    np.testing.assert_allclose(state.icp_residual, residual, rtol=0,
                               atol=1e-12)


@pytest.mark.parametrize("category", ["bottle", "tumbler", "wand"])
@pytest.mark.parametrize("seed", [3, 4])
def test_icp_matches_world_frame_oracle(monkeypatch, library, category, seed):
    template = library.get(category)
    observed = _half_view(category, seed)
    _check_against_oracle(monkeypatch, observed, template,
                          template.dense_points, template.diagonal_cm)


def test_icp_on_bare_array_matches_world_frame_oracle(monkeypatch, library):
    # a template whose dense cloud is a bare array, with diagonal 1, is
    # matched as is
    canon = sample_surface(CATEGORY_TEMPLATES["tumbler"](), n=3000,
                           seed=9).points
    template = fit.Template("", None, None, 1.0, _dense=canon)
    observed = _half_view("tumbler", 5)
    _check_against_oracle(monkeypatch, observed, template, canon, 1.0)


def _blob():
    rng = np.random.default_rng(0)
    return rng.normal(scale=5.0, size=(1024, 3))


@pytest.mark.parametrize("view", ["bottle", "tumbler", "wand", "blob"])
@pytest.mark.parametrize("category", ["bottle", "tumbler", "wand"])
def test_icp_residual_never_rises(monkeypatch, library, category, view):
    # each iteration matches every point to its nearest template point,
    # which cannot raise the residual of the current similarity, and then
    # takes the least-squares similarity of those pairs, which cannot
    # either: so icp_init keeps its last state and needs no guard
    residuals = []
    umeyama = fit._umeyama

    def recording(source, target):
        s, R, t = umeyama(source, target)
        moved = (source @ R.T) * s + t
        residuals.append(float(np.sqrt(((target - moved) ** 2)
                                       .sum(axis=1).mean())))
        return s, R, t

    monkeypatch.setattr(fit, "_umeyama", recording)
    observed = _blob() if view == "blob" else _half_view(view, 3)
    state = fit.icp_init(observed, library.get(category))
    assert len(residuals) >= 2
    assert np.all(np.diff(residuals) <= 1e-12)
    assert state.icp_residual == residuals[-1]


def test_icp_builds_one_tree_per_template(monkeypatch, library):
    # counts, times nothing: every call matches against the template's
    # one tree over its dense points
    built = []

    class CountingTree(cKDTree):
        def __init__(self, *args, **kwargs):
            built.append(len(args[0]))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(fit, "cKDTree", CountingTree)
    template = replace(library.get("wand"), _tree=None)
    for seed in (3, 4):
        fit.icp_init(_half_view("wand", seed), template)
    assert built == [len(template.dense_points)]
