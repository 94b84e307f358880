"""handspec/1 and grasp/1 document IO (JSON)."""

import json
import sys
from contextlib import contextmanager
from importlib import resources

import numpy as np

from .. import transforms as tf
from ..errors import InvalidInputError, SchemaError
from ..geometry import Primitive
from .model import Anchor, FingertipFrame, Grasp, HandSpec, Link

HANDSPEC_SCHEMA = "handspec/1"
GRASP_SCHEMA = "grasp/1"


def _read_json(path):
    """The JSON document in the file ``path``; a file that is not JSON is
    a SchemaError naming the path."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SchemaError(f"{path}: not a JSON document ({exc})") from exc


@contextmanager
def _keys_of(where):
    """Turn a key missing inside ``where`` into a SchemaError naming both."""
    try:
        yield
    except KeyError as exc:
        raise SchemaError(f"{where}: missing key {exc}") from None


def _objects(value, where, noun="objects"):
    """``value`` if it is a list of JSON objects, else a SchemaError."""
    if not (isinstance(value, list)
            and all(isinstance(item, dict) for item in value)):
        raise SchemaError(f"{where} must be a list of {noun}, "
                          f"got {value!r:.40}")
    return value


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _vector(value, n, where, key, form=None):
    """``value`` as a float array if it is a list of ``n`` finite numbers
    (of any length for ``n`` None), else a SchemaError naming ``where`` and
    ``key`` (``json`` reads ``NaN`` and ``Infinity`` as numbers)."""
    if not (isinstance(value, list) and n in (None, len(value))
            and all(_is_number(v) for v in value)):
        raise SchemaError(f"{where}: {key!r} must be "
                          f"{form or f'{n} numbers'}, got {value!r:.40}")
    # written so that a NaN, and an int past any float, fails it too
    if not all(abs(v) <= sys.float_info.max for v in value):
        raise SchemaError(f"{where}: {key!r} must be finite, "
                          f"got {value!r:.40}")
    return np.asarray(value, float)


def _limits(value, where):
    """``(lower, upper)`` from a two-number list, else a SchemaError."""
    return tuple(_vector(value, 2, where, "limits", "[lower, upper]").tolist())


def _quat_of(rotation_matrix):
    return [float(v) for v in tf.matrix_to_quat(rotation_matrix)]


def handspec_to_dict(spec):
    links = []
    for link in spec.links:
        entry = {
            "name": link.name,
            "parent": spec.links[link.parent].name if link.parent >= 0 else None,
            "origin": {
                "rotation": _quat_of(link.origin_rotation),
                "translation": [float(v) for v in link.origin_translation],
            },
            "joint": {"type": link.joint_type},
            "primitives": [
                {
                    "kind": p.kind,
                    "params": [float(v) for v in p.params],
                    "rotation": _quat_of(p.rotation),
                    "translation": [float(v) for v in p.translation],
                }
                for p in link.primitives
            ],
            "samples": link.sample_count,
        }
        if link.joint_type == "revolute":
            entry["joint"].update({
                "axis": [float(v) for v in link.axis],
                "limits": [float(link.limits[0]), float(link.limits[1])],
                "flexion_sign": float(link.flexion_sign),
            })
        links.append(entry)

    doc = {
        "schema": HANDSPEC_SCHEMA,
        "name": spec.name,
        "links": links,
        "anchors": [{"name": a.name, "link": spec.links[a.link].name,
                     "local": [float(v) for v in a.local]} for a in spec.anchors],
        "fingertips": [{"name": f.name, "link": spec.links[f.link].name,
                        "local": [float(v) for v in f.local]}
                       for f in spec.fingertip_frames],
        "human_joint_map": spec.human_joint_map,
    }
    if spec.coupling.shape != (spec.dof, spec.dof) or not np.allclose(
            spec.coupling, np.eye(spec.dof)):
        doc["coupling"] = {
            "actuated": [{"name": n, "limits": [float(lo), float(hi)]}
                         for n, (lo, hi) in zip(spec.actuated_names,
                                                spec.actuated_limits)],
            "rows": [[float(v) for v in row] for row in spec.coupling],
        }
    return doc


def _link_from_dict(entry, parent):
    where = f"link {entry.get('name')}"
    joint, origin = entry["joint"], entry["origin"]
    samples = entry.get("samples", 0)
    if not isinstance(samples, int) or isinstance(samples, bool):
        raise SchemaError(f"{where}: 'samples' must be an integer, "
                          f"got {samples!r:.40}")
    link = Link(
        name=entry["name"],
        parent=parent,
        origin_rotation=tf.quat_to_matrix(
            _vector(origin["rotation"], 4, where, "origin.rotation")),
        origin_translation=_vector(origin["translation"], 3, where,
                                   "origin.translation"),
        joint_type=joint["type"],
        primitives=[
            Primitive(p["kind"], tuple(_vector(
                          p["params"], None, where, f"primitives[{k}].params",
                          "a list of numbers").tolist()),
                      rotation=tf.quat_to_matrix(_vector(
                          p["rotation"], 4, where, f"primitives[{k}].rotation")),
                      translation=_vector(p["translation"], 3, where,
                                          f"primitives[{k}].translation"))
            for k, p in enumerate(_objects(entry.get("primitives", []),
                                           f"{where}: 'primitives'"))
        ],
        sample_count=samples,
    )
    if joint["type"] == "revolute":
        link.axis = _vector(joint["axis"], 3, where, "axis")
        link.limits = _limits(joint["limits"], where)
        sign = joint.get("flexion_sign", 1.0)
        if not _is_number(sign):
            raise SchemaError(f"{where}: 'flexion_sign' must be a number, "
                              f"got {sign!r:.40}")
        link.flexion_sign = float(sign)
    return link


def handspec_from_dict(doc):
    if doc.get("schema") != HANDSPEC_SCHEMA:
        raise SchemaError(f"expected {HANDSPEC_SCHEMA}, got {doc.get('schema')!r}")
    for key in ("name", "links"):
        if key not in doc:
            raise SchemaError(f"{HANDSPEC_SCHEMA} document has no {key!r}")
    name_to_index = {}
    links = []
    for entry in _objects(doc["links"], f"{HANDSPEC_SCHEMA} 'links'",
                          "link objects"):
        name = entry.get("name")
        parent_name = entry.get("parent")
        if parent_name is None:
            parent = -1
        elif parent_name in name_to_index:
            parent = name_to_index[parent_name]
        else:
            raise SchemaError(f"link {name}: unknown parent {parent_name}")
        with _keys_of(f"link {name}"):
            link = _link_from_dict(entry, parent)
        # closure and penetration see a link only through its samples
        if link.primitives and link.sample_count <= 0:
            raise SchemaError(f"link {name}: has primitives, so needs samples > 0")
        name_to_index[name] = len(links)
        links.append(link)

    def attached(key, cls):
        items = []
        for a in _objects(doc.get(key, []), f"{HANDSPEC_SCHEMA} {key!r}"):
            with _keys_of(f"{key[:-1]} {a.get('name')}"):
                if a["link"] not in name_to_index:
                    raise SchemaError(f"{key[:-1]} {a['name']}: "
                                      f"unknown link {a['link']!r}")
                items.append(cls(a["name"], name_to_index[a["link"]],
                                 _vector(a["local"], 3,
                                         f"{key[:-1]} {a['name']}", "local")))
        return items

    coupling = actuated_names = actuated_limits = None
    if "coupling" in doc:
        c = doc["coupling"]
        if not isinstance(c, dict):
            raise SchemaError(f"coupling must be an object, got {c!r:.40}")
        with _keys_of("coupling"):
            actuated = _objects(c["actuated"], "coupling 'actuated'")
            actuated_names = [a["name"] for a in actuated]
            actuated_limits = [_limits(a["limits"], f"actuated {a['name']}")
                               for a in actuated]
            rows = c["rows"]
            if not isinstance(rows, list):
                raise SchemaError(f"coupling: 'rows' must be a list, "
                                  f"got {rows!r:.40}")
            coupling = np.array(
                [_vector(row, len(actuated), "coupling", f"rows[{k}]")
                 for k, row in enumerate(rows)])

    joint_map = doc.get("human_joint_map", {})
    if not (isinstance(joint_map, dict)
            and all(isinstance(v, str) for v in joint_map.values())):
        raise SchemaError(f"{HANDSPEC_SCHEMA} 'human_joint_map' must be an "
                          f"object of joint names, got {joint_map!r:.40}")
    return HandSpec(doc["name"], links, attached("anchors", Anchor),
                    attached("fingertips", FingertipFrame),
                    coupling=coupling, actuated_names=actuated_names,
                    actuated_limits=actuated_limits,
                    human_joint_map=joint_map)


def _builtin_dir():
    return resources.files("graspsynth").joinpath("data/hands")


def builtin_hand_names():
    """Names of the shipped hands: the files in the package's data/hands."""
    return tuple(sorted(f.name[:-len(".json")] for f in _builtin_dir().iterdir()
                        if f.name.endswith(".json")))


def builtin_hand(name):
    """Load a shipped hand: ``data/hands/<name>.json`` in the package."""
    names = builtin_hand_names()
    if name not in names:
        raise InvalidInputError(f"unknown builtin hand {name!r}; "
                                f"have {', '.join(names)}")
    with _builtin_dir().joinpath(f"{name}.json").open() as fh:
        return handspec_from_dict(json.load(fh))


def save_handspec(path, spec):
    with open(path, "w") as fh:
        json.dump(handspec_to_dict(spec), fh, indent=1)


def load_handspec(path):
    return handspec_from_dict(_read_json(path))


def grasp_to_dict(grasp, hand=None, provenance=None):
    doc = {
        "schema": GRASP_SCHEMA,
        "q": [float(v) for v in grasp.q],
        "wrist": {
            "rotation": [float(v) for v in grasp.rotation],
            "translation": [float(v) for v in grasp.translation],
        },
        "flags": list(grasp.flags),
    }
    if hand is not None:
        doc["hand"] = hand
    if provenance:
        doc["provenance"] = provenance
    return doc


def grasp_fields(doc, where):
    """The ``Grasp`` of a document's ``q`` and ``wrist`` (grasp/1 and
    demo/1 hold them alike), else a SchemaError naming ``where`` and the
    key."""
    with _keys_of(where):
        wrist = doc["wrist"]
        if not isinstance(wrist, dict):
            raise SchemaError(f"{where}: 'wrist' must be an object, "
                              f"got {wrist!r:.40}")
        return Grasp(_vector(doc["q"], None, where, "q", "a list of numbers"),
                     _vector(wrist["rotation"], 4, where, "wrist.rotation"),
                     _vector(wrist["translation"], 3, where,
                             "wrist.translation"))


def grasp_from_dict(doc):
    if doc.get("schema") != GRASP_SCHEMA:
        raise SchemaError(f"expected {GRASP_SCHEMA}, got {doc.get('schema')!r}")
    where = f"{GRASP_SCHEMA} document"
    flags = doc.get("flags", [])
    if not (isinstance(flags, list)
            and all(isinstance(f, str) for f in flags)):
        raise SchemaError(f"{where}: 'flags' must be a list of strings, "
                          f"got {flags!r:.40}")
    grasp = grasp_fields(doc, where)
    grasp.flags = list(flags)
    return grasp


def load_grasp(path):
    return grasp_from_dict(_read_json(path))
