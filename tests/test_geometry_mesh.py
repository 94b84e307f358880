import numpy as np
import pytest

from graspsynth.errors import InvalidInputError
from graspsynth.geometry import (TriMesh, bbox_diagonal, load_mesh,
                                 load_point_cloud, save_obj, save_ply)

from conftest import make_unit_cube
from oracles import rot_about


def test_face_index_out_of_range():
    with pytest.raises(InvalidInputError):
        TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 3]])


def test_degenerate_faces_dropped():
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 0, 0]]
    faces = [[0, 1, 2], [0, 1, 3]]  # second is collinear
    with pytest.warns(UserWarning):
        mesh = TriMesh(verts, faces)
    assert mesh.dropped_faces == 1
    assert len(mesh.faces) == 1


def test_nonfinite_vertices_rejected():
    with pytest.raises(InvalidInputError):
        TriMesh([[0, 0, 0], [1, 0, 0], [0, np.nan, 0]], [[0, 1, 2]])


def test_bbox_diagonal_unit_cube():
    assert bbox_diagonal(make_unit_cube()) == pytest.approx(np.sqrt(3), abs=1e-12)


def test_bbox_diagonal_scales_linearly():
    cube = make_unit_cube()
    assert bbox_diagonal(cube.scaled(2.0)) == pytest.approx(2 * np.sqrt(3), abs=1e-12)


def test_bbox_diagonal_rotated_cube_matches_vertex_extrema():
    cube = make_unit_cube()
    R = rot_about([0.3, 1.0, -0.2], 0.7)
    rotated = cube.transformed(R, np.array([1.0, -2.0, 0.5]))
    v = rotated.vertices
    expected = np.linalg.norm(v.max(axis=0) - v.min(axis=0))
    assert bbox_diagonal(rotated) == pytest.approx(expected, abs=1e-12)


def test_watertight_detection(unit_cube):
    assert unit_cube.is_watertight()
    open_mesh = TriMesh(unit_cube.vertices, unit_cube.faces[:-1])
    assert not open_mesh.is_watertight()


def test_obj_roundtrip(tmp_path, unit_cube):
    path = tmp_path / "cube.obj"
    save_obj(path, unit_cube)
    back = load_mesh(path)
    assert np.allclose(back.vertices, unit_cube.vertices)
    assert np.array_equal(back.faces, unit_cube.faces)


def test_ply_ascii_roundtrip(tmp_path, unit_cube):
    path = tmp_path / "cube.ply"
    save_ply(path, unit_cube.vertices, unit_cube.faces)
    back = load_mesh(path)
    assert np.allclose(back.vertices, unit_cube.vertices, atol=1e-6)
    assert np.array_equal(back.faces, unit_cube.faces)


def test_ply_point_cloud_with_normals(tmp_path):
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(50, 3))
    nrm = rng.normal(size=(50, 3))
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    path = tmp_path / "cloud.ply"
    save_ply(path, pts, normals=nrm)
    back_pts, back_nrm = load_point_cloud(path)
    assert np.allclose(back_pts, pts, atol=1e-6)
    assert np.allclose(back_nrm, nrm, atol=1e-6)


def test_ply_binary_little_endian(tmp_path):
    # hand-rolled binary PLY: 3 vertices, 1 face
    import struct
    path = tmp_path / "tri.ply"
    header = (b"ply\nformat binary_little_endian 1.0\n"
              b"element vertex 3\n"
              b"property float x\nproperty float y\nproperty float z\n"
              b"element face 1\n"
              b"property list uchar int vertex_indices\n"
              b"end_header\n")
    with open(path, "wb") as fh:
        fh.write(header)
        for p in [(0, 0, 0), (1, 0, 0), (0, 1, 0)]:
            fh.write(struct.pack("<fff", *p))
        fh.write(struct.pack("<Biii", 3, 0, 1, 2))
    mesh = load_mesh(path)
    assert len(mesh.vertices) == 3
    assert np.array_equal(mesh.faces, [[0, 1, 2]])


_PLY_XYZ = (b"ply\nformat ascii 1.0\nelement vertex 3\n"
            b"property float x\nproperty float y\nproperty float z\n"
            b"end_header\n")
_PLY_BINARY = (b"ply\nformat binary_little_endian 1.0\nelement vertex 3\n"
               b"property float x\nproperty float y\nproperty float z\n"
               b"element face 1\nproperty list uchar int vertex_indices\n"
               b"end_header\n")


def _binary_triangle(n_vertices, face=True, corner=(0, 1, 0)):
    import struct
    body = b"".join(struct.pack("<fff", *p)
                    for p in [(0, 0, 0), (1, 0, 0), corner][:n_vertices])
    return _PLY_BINARY + body + (struct.pack("<Bii", 3, 0, 1) if face else b"")


@pytest.mark.parametrize("name,content,message", [
    ("bad.obj", b"v 0 0 0\nv 1 0 0\nv 0 0 x\nf 1 2 3\n",
     "line 3: malformed record 'v 0 0 x'"),
    ("bad.obj", b"v 0 0 0\nv 1 0 0\nv 0 1\n", "line 3: malformed record"),
    ("bad.obj", b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 b\n",
     "line 4: malformed record 'f 1 2 b'"),
    ("short.ply", _PLY_XYZ + b"0 0 0\n1 0 0\n",
     "PLY vertex line 3 of 3: expected 3 numbers, got ''"),
    ("no_y.ply", _PLY_XYZ.replace(b"property float y\n", b"")
     + b"0 0\n1 0\n0 1\n", "PLY vertex element has no 'y' property"),
    ("truncated.ply", _binary_triangle(2, face=False),
     "binary PLY ends inside element 'vertex' (24 of 36 bytes)"),
    ("truncated.ply", _binary_triangle(3),
     "binary PLY ends inside element 'face'"),
    # a NaN or inf used to load unchecked and end in cKDTree's untyped
    # "data must be finite" further on
    ("nan.ply", _PLY_XYZ + b"0 0 0\n1 nan 0\n0 1 0\n",
     "point coordinates must be finite"),
    ("inf.ply", _PLY_XYZ + b"0 0 0\n1 0 -inf\n0 1 0\n",
     "point coordinates must be finite"),
    ("inf.ply", _binary_triangle(3, face=False, corner=(0, float("inf"), 0))
     .replace(b"element face 1\nproperty list uchar int vertex_indices\n",
              b""), "point coordinates must be finite"),
    ("nan.ply", _PLY_XYZ.replace(b"end_header", b"property float nx\n"
                                 b"property float ny\nproperty float nz\n"
                                 b"end_header")
     + b"0 0 0 0 0 1\n1 0 0 0 nan 1\n0 1 0 0 0 1\n",
     "normals must be finite"),
], ids=["obj-not-a-number", "obj-short-vertex", "obj-bad-face",
        "ply-fewer-vertex-lines", "ply-no-y", "ply-binary-truncated-vertices",
        "ply-binary-truncated-face", "ply-nan-point", "ply-inf-point",
        "ply-binary-inf-point", "ply-nan-normal"])
def test_mesh_readers_name_what_is_wrong(tmp_path, name, content, message):
    path = tmp_path / name
    path.write_bytes(content)
    load = load_mesh if name.endswith(".obj") else load_point_cloud
    with pytest.raises(InvalidInputError) as info:
        load(path)
    assert str(info.value).startswith(f"{path}: ")
    assert message in str(info.value)


_PLY_TRIANGLE = (b"ply\nformat ascii 1.0\nelement vertex 3\n"
                 b"property float x\nproperty float y\nproperty float z\n"
                 b"element face 1\nproperty list uchar int vertex_indices\n"
                 b"end_header\n")


@pytest.mark.parametrize("load", [load_point_cloud, load_mesh],
                         ids=["point-cloud", "mesh"])
@pytest.mark.parametrize("body,message", [
    (b"0 0 0\n1 0\n0 1 0\n3 0 1 2\n",
     "PLY vertex line 2 of 3: expected 3 numbers, got '1 0'"),
    (b"0 0 0\n1 0 0\n0 1 0\n3 0 1\n",
     "PLY face line 1 of 1: malformed '3 0 1'"),
], ids=["ply-ascii-short-vertex-row", "ply-ascii-short-face-row"])
def test_ply_ascii_short_rows_are_invalid_input(tmp_path, load, body,
                                                message):
    # a row with too few numbers used to end in a TypeError from joining
    # its bytes tokens into the message
    path = tmp_path / "short.ply"
    path.write_bytes(_PLY_TRIANGLE + body)
    with pytest.raises(InvalidInputError) as info:
        load(path)
    assert str(info.value) == f"{path}: {message}"
