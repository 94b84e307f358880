"""handspec/1 and grasp/1 document IO (JSON)."""

import json
from importlib import resources

import numpy as np

from .. import transforms as tf
from ..documents import (document, keys_of, list_of, number, quaternion,
                         read_json, require, typed, vector)
from ..errors import InvalidInputError, SchemaError
from ..geometry import Primitive
from .model import Anchor, FingertipFrame, Grasp, HandSpec, Link

HANDSPEC_SCHEMA = "handspec/1"
GRASP_SCHEMA = "grasp/1"


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
        "human_joint_map": dict(spec.human_joint_map),
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


def _link_from_dict(entry, name_to_index):
    where = f"link {entry.get('name')}"
    parent = typed(entry.get("parent"), (str, type(None)), where, "parent",
                   "a link name or null")
    if parent not in name_to_index:
        raise SchemaError(f"{where}: unknown parent {parent}")
    joint = typed(entry["joint"], dict, where, "joint", "an object")
    origin = typed(entry["origin"], dict, where, "origin", "an object")
    primitives = list_of(entry.get("primitives", []), dict, None, where,
                         "primitives", "a list of objects")
    fields = dict(
        name=typed(entry["name"], str, where, "name", "a string"),
        parent=name_to_index[parent],
        origin_rotation=tf.quat_to_matrix(quaternion(
            origin["rotation"], where, "origin.rotation", "4 numbers")),
        origin_translation=vector(origin["translation"], 3, where,
                                  "origin.translation"),
        joint_type=joint["type"],
        primitives=[
            Primitive(p["kind"], tuple(vector(
                          p["params"], None, where, f"primitives[{k}].params",
                          "a list of numbers").tolist()),
                      rotation=tf.quat_to_matrix(quaternion(
                          p["rotation"], where, f"primitives[{k}].rotation",
                          "4 numbers")),
                      translation=vector(p["translation"], 3, where,
                                         f"primitives[{k}].translation"))
            for k, p in enumerate(primitives)
        ],
        sample_count=typed(entry.get("samples", 0), int, where, "samples",
                           "an integer"))
    if joint["type"] == "revolute":
        fields.update(
            axis=vector(joint["axis"], 3, where, "axis"),
            limits=tuple(vector(joint["limits"], 2, where, "limits",
                                "[lower, upper]").tolist()),
            flexion_sign=float(number(joint.get("flexion_sign", 1.0),
                                      where, "flexion_sign", "a number")))
    return Link(**fields)


def handspec_from_dict(doc):
    where = document(doc, HANDSPEC_SCHEMA)
    require(doc, where, ("name", "links"))
    name_to_index = {None: -1}  # a root link's parent is null
    links = []
    for entry in list_of(doc["links"], dict, None,
                         f"{HANDSPEC_SCHEMA} 'links'", None,
                         "a list of link objects"):
        with keys_of(f"link {entry.get('name')}"):
            link = _link_from_dict(entry, name_to_index)
        # closure and penetration see a link only through its samples
        if link.primitives and link.sample_count <= 0:
            raise SchemaError(f"link {link.name}: has primitives, so needs "
                              f"samples > 0")
        name_to_index[link.name] = len(links)
        links.append(link)

    def attached(key, cls):
        items = []
        for a in list_of(doc.get(key, []), dict, None,
                         f"{HANDSPEC_SCHEMA} {key!r}", None, "a list of objects"):
            label = f"{key[:-1]} {a.get('name')}"
            with keys_of(label):
                link = typed(a["link"], str, label, "link", "a link name")
                if link not in name_to_index:
                    raise SchemaError(f"{label}: unknown link {link!r}")
                items.append(cls(a["name"], name_to_index[link],
                                 vector(a["local"], 3, label, "local")))
        return items

    coupling = actuated_names = actuated_limits = None
    if "coupling" in doc:
        c = typed(doc["coupling"], dict, "coupling", None, "an object")
        with keys_of("coupling"):
            actuated = list_of(c["actuated"], dict, None,
                               "coupling 'actuated'", None, "a list of objects")
            actuated_names = [a["name"] for a in actuated]
            actuated_limits = [tuple(vector(
                a["limits"], 2, f"actuated {a['name']}", "limits",
                "[lower, upper]").tolist()) for a in actuated]
            rows = list_of(c["rows"], list, None, "coupling", "rows",
                           "a list of rows")
            coupling = np.array(
                [vector(row, len(actuated), "coupling", f"rows[{k}]")
                 for k, row in enumerate(rows)])

    where, form = (f"{HANDSPEC_SCHEMA} 'human_joint_map'",
                   "an object of joint names")
    joint_map = typed(doc.get("human_joint_map", {}), dict, where, None, form)
    list_of(list(joint_map.values()), str, None, where, None, form)
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


# shipped hand name -> its HandSpec, parsed on the first call for it
_BUILTIN_HANDS = {}


def builtin_hand(name):
    """The shipped hand ``data/hands/<name>.json`` in the package.

    The file is parsed once per process: every call with one name returns
    the same ``HandSpec``, so its sample layout, link meshes, kinematics
    arrays and primitive stack are built once. The spec is immutable and
    shared; for a variant, edit ``handspec_to_dict(builtin_hand(name))``
    and build a new spec with ``handspec_from_dict``.
    """
    names = builtin_hand_names()
    if name not in names:
        raise InvalidInputError(f"unknown builtin hand {name!r}; "
                                f"have {', '.join(names)}")
    if name not in _BUILTIN_HANDS:
        with _builtin_dir().joinpath(f"{name}.json").open() as fh:
            spec = handspec_from_dict(json.load(fh))
        # two threads may both parse: each caller gets the one kept
        _BUILTIN_HANDS.setdefault(name, spec)
    return _BUILTIN_HANDS[name]


def save_handspec(path, spec):
    with open(path, "w") as fh:
        json.dump(handspec_to_dict(spec), fh, indent=1)


def load_handspec(path):
    return handspec_from_dict(read_json(path))


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
    """The ``Grasp`` of a document's ``q`` and ``wrist``, which grasp/1 and
    demo/1 hold alike."""
    with keys_of(where):
        wrist = typed(doc["wrist"], dict, where, "wrist", "an object")
        return Grasp(vector(doc["q"], None, where, "q", "a list of numbers"),
                     vector(wrist["rotation"], 4, where, "wrist.rotation"),
                     vector(wrist["translation"], 3, where,
                            "wrist.translation"))


def grasp_from_dict(doc):
    where = document(doc, GRASP_SCHEMA)
    grasp = grasp_fields(doc, where)
    grasp.flags = list(list_of(doc.get("flags", []), str, None, where,
                               "flags", "a list of strings"))
    return grasp


def load_grasp(path):
    return grasp_from_dict(read_json(path))
