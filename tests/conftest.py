import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from graspsynth.geometry import TriMesh, tessellate, Primitive  # noqa: E402


def make_unit_cube(center=(0.5, 0.5, 0.5), edge=1.0):
    he = np.full(3, edge / 2.0)
    mesh = tessellate(Primitive("box", tuple(he)))
    return TriMesh(mesh.vertices + np.asarray(center, float), mesh.faces)


def make_sphere(radius=1.0, center=(0, 0, 0), subdivisions=3):
    mesh = tessellate(Primitive("sphere", (radius,)), subdivisions=subdivisions)
    return TriMesh(mesh.vertices + np.asarray(center, float), mesh.faces)


def make_cylinder(radius=2.8, height=12.0, segments=48):
    """Closed cylinder along z, centered at the origin."""
    ang = np.linspace(0, 2 * np.pi, segments, endpoint=False)
    ring = np.column_stack([radius * np.cos(ang), radius * np.sin(ang)])
    top = np.column_stack([ring, np.full(segments, height / 2)])
    bot = np.column_stack([ring, np.full(segments, -height / 2)])
    verts = np.vstack([top, bot, [[0, 0, height / 2]], [[0, 0, -height / 2]]])
    ct, cb = 2 * segments, 2 * segments + 1
    faces = []
    for k in range(segments):
        k1 = (k + 1) % segments
        faces.append([k, k1, ct])                      # top fan
        faces.append([segments + k1, segments + k, cb])  # bottom fan
        faces.append([k, segments + k, k1])
        faces.append([k1, segments + k, segments + k1])
    return TriMesh(verts, np.array(faces))


@pytest.fixture
def unit_cube():
    return make_unit_cube()


@pytest.fixture
def sphere():
    return make_sphere()


@pytest.fixture
def cylinder():
    return make_cylinder()


@pytest.fixture(scope="session")
def cylinder_scene():
    """Authored wrap demonstration on a cylinder, shared across tests."""
    from graspsynth.fixtures import cylinder_demo
    demo, spec, grasp, mesh = cylinder_demo()
    return {"demo": demo, "spec": spec, "grasp": grasp, "mesh": mesh}


@pytest.fixture(scope="session")
def cylinder_bundle(cylinder_scene):
    from graspsynth.contact import extract_bundle
    return extract_bundle(cylinder_scene["demo"], n_samples=2048, seed=0)


@pytest.fixture
def mesh_sdf_builds(monkeypatch):
    """The mesh of every ``MeshSDF`` built while the test runs, in order."""
    from graspsynth.geometry import MeshSDF
    built = []
    init = MeshSDF.__init__

    def counting(self, mesh):
        built.append(mesh)
        init(self, mesh)

    monkeypatch.setattr(MeshSDF, "__init__", counting)
    return built
