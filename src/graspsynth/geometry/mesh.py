"""Triangle mesh container with OBJ/PLY input and output.

All coordinates are centimeters. Degenerate faces (area below
``DEGENERATE_AREA`` cm^2) are dropped at construction and counted, since
scanned and CAD meshes commonly contain slivers.
"""

import struct
import warnings

import numpy as np

from ..errors import InvalidInputError

DEGENERATE_AREA = 1e-10


class TriMesh:
    """Immutable indexed triangle mesh.

    Attributes
    ----------
    vertices : (V, 3) float array, cm
    faces : (F, 3) int array
    dropped_faces : number of degenerate faces removed at construction
    """

    def __init__(self, vertices, faces):
        vertices = np.ascontiguousarray(vertices, dtype=float)
        faces = np.ascontiguousarray(faces, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise InvalidInputError("vertices must be (V, 3)")
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise InvalidInputError("faces must be (F, 3)")
        if not np.all(np.isfinite(vertices)):
            raise InvalidInputError("vertex coordinates must be finite")
        if faces.size and (faces.min() < 0 or faces.max() >= len(vertices)):
            raise InvalidInputError("face index out of range")

        areas = _face_areas(vertices, faces)
        keep = areas > DEGENERATE_AREA
        self.dropped_faces = int(np.count_nonzero(~keep))
        if self.dropped_faces:
            warnings.warn(f"dropped {self.dropped_faces} degenerate faces")
            faces = faces[keep]
            areas = areas[keep]
        if len(faces) == 0:
            raise InvalidInputError("mesh has no non-degenerate faces")

        self.vertices = vertices
        self.faces = faces
        self.face_areas = areas
        self.vertices.setflags(write=False)
        self.faces.setflags(write=False)
        self.face_areas.setflags(write=False)
        self._watertight = None

    @property
    def triangles(self):
        """Face corner coordinates, shape (F, 3, 3)."""
        return self.vertices[self.faces]

    def face_normals(self):
        tri = self.triangles
        n = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        norm = np.linalg.norm(n, axis=1, keepdims=True)
        return n / np.maximum(norm, 1e-300)

    def bounds(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def is_watertight(self):
        """True when every edge is shared by exactly two opposed faces."""
        if self._watertight is None:
            f = self.faces
            edges = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
            lo = np.minimum(edges[:, 0], edges[:, 1])
            hi = np.maximum(edges[:, 0], edges[:, 1])
            forward = edges[:, 0] < edges[:, 1]
            key = lo * (len(self.vertices) + 1) + hi
            order = np.argsort(key, kind="stable")
            key_s = key[order]
            fwd_s = forward[order]
            ok = True
            if len(key_s) % 2 != 0:
                ok = False
            else:
                pairs = key_s.reshape(-1, 2)
                if not np.all(pairs[:, 0] == pairs[:, 1]):
                    ok = False
                else:
                    # opposed orientation: one traversal forward, one backward
                    fp = fwd_s.reshape(-1, 2)
                    if not np.all(fp[:, 0] != fp[:, 1]):
                        ok = False
            self._watertight = ok
        return self._watertight

    def transformed(self, R, t):
        return TriMesh(self.vertices @ np.asarray(R).T + np.asarray(t), self.faces)

    def scaled(self, s):
        return TriMesh(self.vertices * float(s), self.faces)

    def __repr__(self):
        return f"TriMesh({len(self.vertices)} vertices, {len(self.faces)} faces)"


def _face_areas(vertices, faces):
    tri = vertices[faces]
    return 0.5 * np.linalg.norm(
        np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1)


def bbox_diagonal(mesh):
    """Axis-aligned bounding-box diagonal length in cm."""
    lo, hi = mesh.bounds()
    return float(np.linalg.norm(hi - lo))


def merge_meshes(meshes):
    """Concatenate meshes into one (no welding)."""
    verts, faces, off = [], [], 0
    for m in meshes:
        verts.append(m.vertices)
        faces.append(m.faces + off)
        off += len(m.vertices)
    return TriMesh(np.vstack(verts), np.vstack(faces))


# ---------------------------------------------------------------------------
# file input / output


def load_mesh(path):
    path = str(path)
    if path.lower().endswith(".obj"):
        return _load_obj(path)
    if path.lower().endswith(".ply"):
        v, f, _ = _load_ply(path)
        if f is None:
            raise InvalidInputError(f"{path}: PLY has no faces; use load_point_cloud")
        return TriMesh(v, f)
    raise InvalidInputError(f"unsupported mesh format: {path}")


def load_point_cloud(path):
    """Load a PLY point cloud; returns (points, normals-or-None)."""
    v, _, n = _load_ply(str(path))
    for name, values in (("point coordinates", v), ("normals", n)):
        if values is not None and not np.all(np.isfinite(values)):
            raise InvalidInputError(f"{path}: {name} must be finite")
    return v, n


def _load_obj(path):
    verts, faces = [], []
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                if line.startswith("v "):
                    parts = line.split()
                    verts.append([float(parts[1]), float(parts[2]),
                                  float(parts[3])])
                elif line.startswith("f "):
                    idx = [int(p.split("/")[0]) for p in line.split()[1:]]
                    idx = [i - 1 if i > 0 else len(verts) + i for i in idx]
                    for k in range(1, len(idx) - 1):  # fan-triangulate
                        faces.append([idx[0], idx[k], idx[k + 1]])
            except (ValueError, IndexError):
                raise InvalidInputError(
                    f"{path}: line {lineno}: malformed record "
                    f"{line.strip()!r:.60}") from None
    if not verts:
        raise InvalidInputError(f"{path}: no vertices")
    return TriMesh(np.array(verts), np.array(faces) if faces else np.zeros((0, 3), int))


_PLY_TYPES = {
    "char": "b", "int8": "b", "uchar": "B", "uint8": "B",
    "short": "h", "int16": "h", "ushort": "H", "uint16": "H",
    "int": "i", "int32": "i", "uint": "I", "uint32": "I",
    "float": "f", "float32": "f", "double": "d", "float64": "d",
}


def _load_ply(path):
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"ply":
            raise InvalidInputError(f"{path}: not a PLY file")
        fmt = None
        elements = []  # (name, count, [(prop_name, type, list_count_type)])
        while True:
            line = fh.readline()
            if not line:
                raise InvalidInputError(f"{path}: truncated PLY header")
            tokens = line.decode("ascii", "replace").split()
            if not tokens:
                continue
            try:
                if tokens[0] == "format":
                    fmt = tokens[1]
                elif tokens[0] == "element":
                    elements.append((tokens[1], int(tokens[2]), []))
                elif tokens[0] == "property":
                    if tokens[1] == "list":
                        elements[-1][2].append((tokens[4], tokens[3],
                                                tokens[2]))
                    else:
                        elements[-1][2].append((tokens[2], tokens[1], None))
                elif tokens[0] == "end_header":
                    break
            except (ValueError, IndexError):
                raise InvalidInputError(
                    f"{path}: malformed PLY header line "
                    f"{' '.join(tokens)!r:.60}") from None
        for name, _, props in elements:
            for prop, ptype, ltype in props:
                for type_ in (ptype, ltype):
                    if type_ is not None and type_ not in _PLY_TYPES:
                        raise InvalidInputError(
                            f"{path}: PLY element {name!r} property "
                            f"{prop!r}: unknown type {type_!r}")
        if fmt == "ascii":
            return _parse_ply_ascii(fh, elements, path)
        if fmt == "binary_little_endian":
            return _parse_ply_binary(fh, elements, path)
        raise InvalidInputError(f"{path}: unsupported PLY format {fmt}")


def _extract_vertex_data(names, rows, path):
    for c in ("x", "y", "z"):
        if c not in names:
            raise InvalidInputError(f"{path}: PLY vertex element has no "
                                    f"{c!r} property")
    rows = np.asarray(rows, dtype=float).reshape(-1, len(names))
    ix = [names.index(c) for c in ("x", "y", "z")]
    points = rows[:, ix]
    normals = None
    if all(c in names for c in ("nx", "ny", "nz")):
        normals = rows[:, [names.index(c) for c in ("nx", "ny", "nz")]]
    return points, normals


def _ply_text(tokens):
    """A body line's byte tokens as text, for an error message."""
    return b" ".join(tokens).decode("ascii", "replace")


def _parse_ply_ascii(fh, elements, path):
    points = normals = faces = None
    for name, count, props in elements:
        if name == "vertex":
            names = [p[0] for p in props]
            rows = []
            for k in range(count):
                line = fh.readline().split()
                try:
                    row = [float(t) for t in line]
                except ValueError:
                    row = None
                if row is None or len(row) != len(names):
                    raise InvalidInputError(
                        f"{path}: PLY vertex line {k + 1} of {count}: "
                        f"expected {len(names)} numbers, got "
                        f"{_ply_text(line)!r:.60}")
                rows.append(row)
            points, normals = _extract_vertex_data(names, rows, path)
        elif name == "face":
            faces = []
            for k in range(count):
                vals = fh.readline().split()
                try:
                    n = int(vals[0])
                    idx = [int(v) for v in vals[1:1 + n]]
                except (ValueError, IndexError):
                    idx, n = [], -1
                if len(idx) != n:
                    raise InvalidInputError(
                        f"{path}: PLY face line {k + 1} of {count}: "
                        f"malformed {_ply_text(vals)!r:.60}")
                for j in range(1, n - 1):
                    faces.append([idx[0], idx[j], idx[j + 1]])
            faces = np.array(faces, dtype=np.int64) if faces else None
        else:
            for _ in range(count):
                fh.readline()
    if points is None:
        raise InvalidInputError(f"{path}: PLY has no vertex element")
    return points, faces, normals


def _parse_ply_binary(fh, elements, path):
    points = normals = faces = None
    for name, count, props in elements:
        if name == "vertex" and all(p[2] is None for p in props):
            names = [p[0] for p in props]
            fmt = "<" + "".join(_PLY_TYPES[p[1]] for p in props)
            size = struct.calcsize(fmt)
            raw = fh.read(size * count)
            if len(raw) < size * count:
                raise InvalidInputError(
                    f"{path}: binary PLY ends inside element 'vertex' "
                    f"({len(raw)} of {size * count} bytes)")
            rows = [struct.unpack_from(fmt, raw, i * size) for i in range(count)]
            points, normals = _extract_vertex_data(names, rows, path)
        else:
            try:
                rows = [_read_binary_row(fh, props) for _ in range(count)]
            except struct.error:
                raise InvalidInputError(f"{path}: binary PLY ends inside "
                                        f"element {name!r}") from None
            if name == "face":
                faces = []
                for row in rows:
                    idx = row[0]
                    for k in range(1, len(idx) - 1):
                        faces.append([idx[0], idx[k], idx[k + 1]])
                faces = np.array(faces, dtype=np.int64) if faces else None
    if points is None:
        raise InvalidInputError(f"{path}: PLY has no fixed-size vertex element")
    return points, faces, normals


def _read_binary_row(fh, props):
    row = []
    for _, ptype, ltype in props:
        if ltype is None:
            (val,) = struct.unpack("<" + _PLY_TYPES[ptype],
                                   fh.read(struct.calcsize(_PLY_TYPES[ptype])))
            row.append(val)
        else:
            (n,) = struct.unpack("<" + _PLY_TYPES[ltype],
                                 fh.read(struct.calcsize(_PLY_TYPES[ltype])))
            vals = struct.unpack("<" + _PLY_TYPES[ptype] * n,
                                 fh.read(struct.calcsize(_PLY_TYPES[ptype]) * n))
            row.append(list(vals))
    return row


def save_ply(path, vertices, faces=None, normals=None, face_labels=None,
             comments=()):
    """Write an ASCII PLY. ``face_labels`` adds an int property per face."""
    vertices = np.asarray(vertices, dtype=float)
    with open(path, "w") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        for c in comments:
            fh.write(f"comment {c}\n")
        fh.write(f"element vertex {len(vertices)}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        if normals is not None:
            fh.write("property float nx\nproperty float ny\nproperty float nz\n")
        if faces is not None:
            fh.write(f"element face {len(faces)}\n")
            fh.write("property list uchar int vertex_indices\n")
            if face_labels is not None:
                fh.write("property int part_id\n")
        fh.write("end_header\n")
        if normals is not None:
            for p, n in zip(vertices, normals):
                fh.write(f"{p[0]:.9g} {p[1]:.9g} {p[2]:.9g} "
                         f"{n[0]:.9g} {n[1]:.9g} {n[2]:.9g}\n")
        else:
            for p in vertices:
                fh.write(f"{p[0]:.9g} {p[1]:.9g} {p[2]:.9g}\n")
        if faces is not None:
            for i, f in enumerate(faces):
                line = f"3 {f[0]} {f[1]} {f[2]}"
                if face_labels is not None:
                    line += f" {int(face_labels[i])}"
                fh.write(line + "\n")


def save_obj(path, mesh):
    with open(path, "w") as fh:
        for v in mesh.vertices:
            fh.write(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}\n")
        for f in mesh.faces:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")
