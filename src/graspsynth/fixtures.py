"""Synthetic desk-scale objects, categories, and demonstrations.

Category instances are smooth warps of a shared template mesh (same
topology), which gives exact ground-truth correspondence for testing
and keeps every run self-contained. All sizes in cm.
"""

import json
import pathlib

import numpy as np

from . import transforms as tf
from .closure import close_until_contact
from .contact import demonstration_from_hand
from .errors import InvalidInputError
from .geometry import MeshSDF, TriMesh, save_obj
from .hands.model import Grasp


def cylinder_mesh(radius=2.8, height=12.0, segments=48):
    """Closed cylinder along z, centered at the origin."""
    return lathe_mesh([-height / 2, height / 2], [radius, radius],
                      segments=segments)


def lathe_mesh(profile_z, profile_r, segments=48):
    """Watertight surface of revolution about z with closed end caps.

    ``profile_r[i]`` is the radius at height ``profile_z[i]``; radii must
    be positive (the caps close the ends).
    """
    profile_z = np.asarray(profile_z, dtype=float)
    profile_r = np.asarray(profile_r, dtype=float)
    if len(profile_z) < 2 or np.any(profile_r <= 0):
        raise InvalidInputError("lathe profile needs >= 2 rings, radii > 0")
    ang = np.linspace(0, 2 * np.pi, segments, endpoint=False)
    cx, sx = np.cos(ang), np.sin(ang)
    verts = []
    rows = []
    for z, r in zip(profile_z, profile_r):
        rows.append(np.arange(len(verts), len(verts) + segments))
        verts.extend(np.column_stack([r * cx, r * sx, np.full(segments, z)]))
    bottom = len(verts)
    verts.append([0.0, 0.0, profile_z[0]])
    top = len(verts)
    verts.append([0.0, 0.0, profile_z[-1]])

    faces = []
    for r0, r1 in zip(rows[:-1], rows[1:]):
        for k in range(segments):
            k1 = (k + 1) % segments
            faces.append([r0[k], r0[k1], r1[k1]])
            faces.append([r0[k], r1[k1], r1[k]])
    for k in range(segments):
        k1 = (k + 1) % segments
        faces.append([bottom, rows[0][k1], rows[0][k]])   # bottom cap (-z out)
        faces.append([top, rows[-1][k], rows[-1][k1]])    # top cap (+z out)
    return TriMesh(np.asarray(verts), np.asarray(faces))


def _featured(mesh, feature):
    """Apply a smooth vertex warp; breaks axisymmetry so azimuthal
    correspondence is well-posed (real categories have triggers/handles)."""
    return TriMesh(feature(mesh.vertices.copy()), mesh.faces)


def _flat_back(v, strength=0.45):
    """Compress the -x half toward a flat face (smooth, full height)."""
    neg = 1.0 / (1.0 + np.exp(4.0 * v[:, 0]))  # ~1 on -x side
    v[:, 0] *= 1.0 - strength * neg
    return v


def bottle_mesh(segments=48):
    """Body, shoulder, neck, a trigger-side nose, and a flat back."""
    z = [-6.0, -1.0, 0.5, 2.0, 3.0, 5.5]
    r = [2.9, 2.9, 2.6, 1.5, 1.2, 1.2]

    def feature(v):
        v[:, 1] *= 0.82
        bulge = 1.1 * np.exp(-((v[:, 2] - 2.2) ** 2 + v[:, 1] ** 2) / 5.0)
        v[:, 0] += bulge / (1.0 + np.exp(-3.0 * v[:, 0]))
        return _flat_back(v)

    return _featured(lathe_mesh(z, r, segments), feature)


def tumbler_mesh(segments=48):
    """Tapered cup with an elliptic section, side ridge, and flat back."""
    z = [-5.0, 5.0]
    r = [2.2, 3.2]

    def feature(v):
        v[:, 1] *= 0.85
        ridge = 0.7 * np.exp(-(v[:, 2] ** 2) / 9.0)
        v[:, 0] += ridge / (1.0 + np.exp(-3.0 * v[:, 0]))
        return _flat_back(v, strength=0.35)

    return _featured(lathe_mesh(z, r, segments), feature)


def wand_mesh(segments=36):
    """Thin handle with a flattened grip and a clip nub: pen stand-in."""
    z = [-7.0, -2.0, -1.0, 6.0]
    r = [1.4, 1.4, 0.9, 0.9]

    def feature(v):
        v[:, 1] *= 1.0 - 0.3 * np.exp(-((v[:, 2] + 4.0) ** 2) / 5.0)
        nub = 0.6 * np.exp(-((v[:, 2] - 4.5) ** 2 + v[:, 1] ** 2) / 2.0)
        v[:, 0] += nub / (1.0 + np.exp(-4.0 * v[:, 0]))
        return _flat_back(v, strength=0.3)

    return _featured(lathe_mesh(z, r, segments), feature)


CATEGORY_TEMPLATES = {
    "bottle": bottle_mesh,
    "tumbler": tumbler_mesh,
    "wand": wand_mesh,
}


def smooth_warp(params):
    """Smooth bijective warp: anisotropic scale + axial taper + sine bump.

    params: dict with sx, sy, sz, taper, bump (all floats, small). Applies
    p' = diag(sx, sy, sz) p, then xy *= 1 + taper * z / 10, then a gentle
    lateral sine bump in x.
    """
    sx = params.get("sx", 1.0)
    sy = params.get("sy", 1.0)
    sz = params.get("sz", 1.0)
    taper = params.get("taper", 0.0)
    bump = params.get("bump", 0.0)

    def warp(points):
        p = np.atleast_2d(np.asarray(points, float)).copy()
        p[:, 0] *= sx
        p[:, 1] *= sy
        p[:, 2] *= sz
        factor = 1.0 + taper * p[:, 2] / 10.0
        p[:, 0] *= factor
        p[:, 1] *= factor
        p[:, 0] += bump * np.sin(p[:, 2] / 6.0)
        return p

    return warp


INSTANCE_PARAMS = [
    {},  # the template itself
    {"sx": 1.12, "sy": 1.05, "sz": 0.94, "taper": 0.04},
    {"sx": 0.9, "sy": 0.96, "sz": 1.1, "taper": -0.05, "bump": 0.25},
    {"sx": 1.05, "sy": 0.88, "sz": 1.04, "taper": 0.08, "bump": -0.2},
]


def category_instances(name, n=4):
    """(template mesh, [instance meshes], [warp fns]); instance 0 is the
    template. Instances share the template topology, so vertex i of any
    instance is the warp of template vertex i (exact correspondence)."""
    if name not in CATEGORY_TEMPLATES:
        raise InvalidInputError(f"unknown category {name!r}")
    template = CATEGORY_TEMPLATES[name]()
    meshes, warps = [], []
    for params in INSTANCE_PARAMS[:n]:
        w = smooth_warp(params)
        meshes.append(TriMesh(w(template.vertices), template.faces))
        warps.append(w)
    return template, meshes, warps


CATEGORY_KEYPOINTS = {
    # salient template-surface keypoints (cm), on or near the shape features
    "bottle": {
        "nose_tip": (2.654, 0.001, 1.824),
        "spout_rim": (1.171, 0.001, 5.500),
        "flat_heel": (-1.594, 0.033, -5.982),
        "front_base": (2.901, -0.002, -5.950),
        "shoulder_front": (3.129, -0.004, 0.705),
    },
    "tumbler": {
        "ridge": (2.743, -0.103, 0.077),
        "flat_rim": (-2.011, 0.008, 5.000),
        "front_rim": (3.205, 0.099, 5.000),
        "flat_base": (-1.435, -0.008, -4.919),
        "front_base": (2.238, -0.024, -5.000),
    },
    "wand": {
        "nub": (1.041, 0.049, 4.570),
        "tip_front": (0.915, 0.030, 6.000),
        "grip_flat": (-0.979, -0.040, -3.982),
        "butt": (0.005, 1.329, -6.938),
        "collar_front": (0.984, 0.045, -1.189),
    },
}


def category_keypoints(name):
    return {k: np.asarray(v, float) for k, v in CATEGORY_KEYPOINTS[name].items()}


# ---------------------------------------------------------------------------
# demonstrations


FINGER_REACH = 7.8       # human knuckle distance from the wrist
KNUCKLE_CLEARANCE = 1.5  # knuckles start this far past the object's far face


def wrap_grasp_pose(object_mesh, standoff=0.1, height=0.0,
                    palm_half_depth=0.7):
    """Wrist pose for a palm-facing wrap approach from +y.

    Hand +x maps to world -x, hand +y (flexion axes) to world +z, and the
    palmar -z face looks at the object from +y. The wrist slides along x
    so the knuckles clear the object's far face and the finger curl
    actually encircles thin objects.
    """
    lo, hi = object_mesh.bounds()
    R = np.array([[-1.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0],
                  [0.0, 1.0, 0.0]]).T  # columns: images of x, y, z
    wrist_x = FINGER_REACH + lo[0] - KNUCKLE_CLEARANCE
    t = np.array([wrist_x, hi[1] + standoff + palm_half_depth, height])
    return tf.matrix_to_quat(R), t


def author_wrap_demo(spec, object_mesh, standoff=0.1, height=0.0,
                     thumb_abd=None, sdf=None):
    """Pose the hand beside the object and close fingers until contact."""
    rot, trans = wrap_grasp_pose(object_mesh, standoff=standoff, height=height)
    q0 = np.zeros(spec.dof)
    # pre-swing the thumb across the palm so closure opposes the fingers
    for name, value in (thumb_abd or {}).items():
        link = spec.links[spec.link_index(name)]
        q0[link.dof_index] = np.clip(value, *link.limits)
    if sdf is None:
        sdf = MeshSDF(object_mesh).query
    # retract along the approach axis until the open pose is contact-free
    from .hands.model import forward_kinematics
    for _ in range(8):
        posed = forward_kinematics(spec, Grasp(q0, rot, trans))
        pts, _ = posed.all_sample_points()
        deepest = float(sdf(pts).min())
        if deepest > 0.06:
            break
        trans = trans + np.array([0.0, 0.1 - deepest, 0.0])
    grasp = Grasp(q0, rot, trans)
    q = close_until_contact(spec, grasp, sdf)
    return Grasp(q, rot, trans)


DEFAULT_THUMB_PRESET = {"thumb_cmc_rot": 0.7, "thumb_cmc_abd": -0.2}


def cylinder_demo(spec=None, radius=2.8, height=12.0):
    """Self-consistent wrap demonstration on a cylinder; returns
    (demonstration, spec, grasp, mesh)."""
    from .hands.gallery import human_hand
    if spec is None:
        spec = human_hand()
    mesh = cylinder_mesh(radius=radius, height=height)
    grasp = author_wrap_demo(spec, mesh, thumb_abd=DEFAULT_THUMB_PRESET)
    demo = demonstration_from_hand(spec, grasp, mesh)
    return demo, spec, grasp, mesh


def template_demo(category, spec=None):
    """Wrap demonstration on a category template."""
    from .hands.gallery import human_hand
    if spec is None:
        spec = human_hand()
    template = CATEGORY_TEMPLATES[category]()
    grasp = author_wrap_demo(spec, template, thumb_abd=DEFAULT_THUMB_PRESET)
    return demonstration_from_hand(spec, grasp, template), spec, grasp, template


# ---------------------------------------------------------------------------
# on-disk category layout (category/1)


def write_category(directory, name, n=4, keypoints=True):
    """Write a category directory: instance meshes + category.json manifest."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    template, meshes, warps = category_instances(name, n)
    files = []
    for k, mesh in enumerate(meshes):
        fname = f"{name}_{k}.obj"
        save_obj(directory / fname, mesh)
        files.append(fname)
    doc = {"schema": "category/1", "name": name, "template": files[0],
           "instances": files}
    if keypoints:
        kp = category_keypoints(name)
        kp_file = f"{name}_keypoints.txt"
        with open(directory / kp_file, "w") as fh:
            for key, p in kp.items():
                fh.write(f"{key} {p[0]:.9g} {p[1]:.9g} {p[2]:.9g}\n")
        doc["keypoints"] = kp_file
    with open(directory / "category.json", "w") as fh:
        json.dump(doc, fh, indent=1)
    return directory / "category.json"


def load_category(path):
    path = pathlib.Path(path)
    if path.is_dir():
        path = path / "category.json"
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != "category/1":
        raise InvalidInputError(f"{path}: not a category/1 manifest")
    return doc, path.parent
