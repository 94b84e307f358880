"""Area-weighted surface sampling."""

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError


@dataclass(frozen=True)
class SurfaceSamples:
    """Oriented point samples on a mesh surface.

    points : (N, 3) cm; normals : (N, 3) unit; face_ids : (N,) source faces.
    """

    points: np.ndarray
    normals: np.ndarray
    face_ids: np.ndarray

    def __post_init__(self):
        for arr in (self.points, self.normals, self.face_ids):
            arr.setflags(write=False)

    def __len__(self):
        return len(self.points)


def sample_surface(mesh, n=2048, seed=0):
    """Draw ``n`` points on the mesh, each face weighted by its area.

    Deterministic for a fixed seed. Normals are the source face normals.
    """
    if n < 1:
        raise InvalidInputError("sample count must be >= 1")
    rng = np.random.default_rng(seed)
    probs = mesh.face_areas / mesh.face_areas.sum()
    face_ids = rng.choice(len(mesh.faces), size=n, p=probs)
    # uniform barycentric draw via the sqrt trick
    r1 = np.sqrt(rng.random(n))
    r2 = rng.random(n)
    tri = mesh.triangles[face_ids]
    pts = (tri[:, 0] * (1 - r1)[:, None]
           + tri[:, 1] * (r1 * (1 - r2))[:, None]
           + tri[:, 2] * (r1 * r2)[:, None])
    normals = mesh.face_normals()[face_ids]
    return SurfaceSamples(pts, normals, face_ids)
