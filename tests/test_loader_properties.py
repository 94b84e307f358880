"""Property tests over the demo/1, contacts/1, category/1, objstate/1,
dsc/1, handspec/1, grasp/1 and config/1 loaders.

Each replaces the whole of a valid document, or one key of it at any
depth, with an arbitrary JSON value. The loader must then load the
document or raise a ``GraspSynthError`` subtype (which the CLI turns
into exit code 2): never another exception and never a RuntimeWarning.
Every case these properties found has a named test of its own below.
"""

import copy
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from graspsynth.contact import bundle_from_dict, load_demo, save_demo
from graspsynth.correspondence import dsc_from_dict
from graspsynth.errors import GraspSynthError, InvalidInputError, SchemaError
from graspsynth.fit import state_from_dict
from graspsynth.fixtures import cylinder_mesh, load_category
from graspsynth.geometry import save_obj
from graspsynth.hands import (builtin_hand, grasp_from_dict, grasp_to_dict,
                              handspec_from_dict, handspec_to_dict,
                              make_grasp, save_handspec)
from graspsynth.pipeline import RunConfig

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.text(max_size=6))
# arbitrary JSON, and lists of number rows near the valid shapes
JSON = st.recursive(
    _SCALARS,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=6), children,
                                        max_size=3)),
    max_leaves=8) | st.lists(
        st.lists(st.integers() | st.floats(), min_size=2, max_size=4),
        max_size=5)


def _paths(doc, prefix=()):
    """The root and every key of a JSON document at any depth, as a path
    of keys and list positions (only the first item of a list)."""
    if not prefix:
        yield prefix
    items = (doc.items() if isinstance(doc, dict)
             else [(0, doc[0])] if isinstance(doc, list) and doc else [])
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    out = copy.deepcopy(doc)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


def _loads_or_typed_error(load):
    """``load()``'s result, or None when it raises a GraspSynthError;
    RuntimeWarnings are errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return load()
        except GraspSynthError:
            return None


# ---------------------------------------------------------------------------
# demo/1


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("demo")
    spec = builtin_hand("pinch1")
    save_obj(root / "object.obj", cylinder_mesh(radius=2.0, height=8.0))
    save_handspec(root / "hand.json", spec)
    grasp = make_grasp(spec, q=[0.2, 0.2],
                       translation=np.array([0.0, 6.0, 0.0]))
    save_demo(root / "demo.json", "object.obj", "hand.json", grasp,
              note="test")
    return root


def _demo_doc(demo_dir):
    return json.loads((demo_dir / "demo.json").read_text())


def _load_demo_doc(demo_dir, doc):
    path = demo_dir / "case.json"
    path.write_text(json.dumps(doc))
    return load_demo(path)


@SETTINGS
@given(data=st.data(), value=JSON)
def test_demo_loader_takes_any_value_at_any_key(demo_dir, data, value):
    doc = _demo_doc(demo_dir)
    path = data.draw(st.sampled_from(sorted(_paths(doc), key=repr)))
    _loads_or_typed_error(
        lambda: _load_demo_doc(demo_dir, _replaced(doc, path, value)))


@pytest.mark.parametrize("path,value,error,message", [
    (("handspec",), "", InvalidInputError, "'handspec' names no file"),
    (("object",), ".", InvalidInputError, "'object' names no file"),
    (("object",), "missing.obj", InvalidInputError,
     "'object' names no file"),
    (("object",), "x\x00", InvalidInputError, "'object' names no file"),
    (("object",), ["object.obj"], SchemaError,
     "'object' must be a path string"),
    (("wrist", "rotation"), [10 ** 400, 0, 0, 0], SchemaError,
     "'wrist.rotation' must be finite"),
    (("q",), [0.2, 10 ** 400], SchemaError, "'q' must be finite"),
    (("q",), False, SchemaError, "'q' must be a list of numbers, got False"),
    (("q",), [[0, 0, 0, 0], [0, 0, 0, 0]], SchemaError,
     "'q' must be a list of numbers"),
    (("wrist",), [], SchemaError, "'wrist' must be an object, got []"),
    (("wrist",), {}, SchemaError, "missing key 'rotation'"),
    (("wrist", "rotation"), [True], SchemaError,
     "'wrist.rotation' must be 4 numbers, got [True]"),
    (("wrist", "rotation"), [1.3407807929942597e+154], SchemaError,
     "'wrist.rotation' must be 4 numbers"),
    (("wrist", "translation"), [], SchemaError,
     "'wrist.translation' must be 3 numbers, got []"),
], ids=["handspec-empty", "object-directory", "object-missing",
        "object-nul", "object-a-list", "rotation-past-any-float",
        "q-past-any-float", "q-false", "q-nested", "wrist-a-list",
        "wrist-empty", "rotation-bool", "rotation-one-number",
        "translation-empty"])
def test_demo_loader_names_the_bad_path_or_number(demo_dir, path, value,
                                                  error, message):
    doc = _replaced(_demo_doc(demo_dir), path, value)
    with pytest.raises(error, match=re.escape(f"demo/1 document: {message}")):
        _load_demo_doc(demo_dir, doc)


# ---------------------------------------------------------------------------
# contacts/1


def _contacts_doc():
    return {
        "schema": "contacts/1", "tau_c": 0.5, "template_id": "cyl",
        "object_points": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                          [0.0, 0.0, 1.0]],
        "object_normals": [[0.0, 0.0, 1.0]] * 4,
        "omega_object": [1.0, 0.5, 0.25, 0.9],
        "contact_object": [0, 3],
        "segment_names": ["thumb", "index"],
        "omega_hand": {"thumb": [0.1, 0.9], "index": [0.5]},
        "contact_hand": {"thumb": [1], "index": [0]},
        "knuckle_partition": {"thumb": [0], "index": [3]},
        "anchor_assignment": {"tip": {"indices": [0, 3],
                                      "delta": [0.1, 0.2]}},
    }


@SETTINGS
@given(data=st.data(), value=JSON)
def test_contacts_loader_takes_any_value_at_any_key(data, value):
    doc = _contacts_doc()
    assert bundle_from_dict(doc).object_points.shape == (4, 3)
    path = data.draw(st.sampled_from(sorted(_paths(doc), key=repr)))
    _loads_or_typed_error(
        lambda: bundle_from_dict(_replaced(doc, path, value)))


@pytest.mark.parametrize("path,value,error,message", [
    (("object_points",), "x", SchemaError,
     "'object_points' must be a list of [x, y, z], got 'x'"),
    (("object_points", 1), [1.0, 0.0], SchemaError,
     "'object_points' must be a list of [x, y, z]"),
    (("object_points", 1), [1.0, 0.0, "x"], SchemaError,
     "'object_points' must be rows of 3 numbers"),
    (("object_normals",), [[0.0, 0.0, 1.0]], SchemaError,
     "'object_normals' must be 4 rows of [x, y, z]"),
    (("omega_object",), [1.0, 0.5], SchemaError,
     "'omega_object' must be 4 numbers"),
    (("contact_object",), [0, 1.5], SchemaError,
     "'contact_object' must be a list of indices"),
    (("contact_object",), [0, True], SchemaError,
     "'contact_object' must be a list of indices"),
    (("contact_object",), [0, 10 ** 30], InvalidInputError,
     "'contact_object' has an index outside [0, 4)"),
    (("knuckle_partition", "index"), [-1], InvalidInputError,
     "'knuckle_partition.index' has an index outside [0, 4)"),
    (("contact_hand", "index"), [1], InvalidInputError,
     "'contact_hand.index' has an index outside [0, 1)"),
    (("anchor_assignment", "tip"), 3, SchemaError,
     "'anchor_assignment.tip' must be an object, got 3"),
    (("anchor_assignment", "tip", "delta"), [0.1], SchemaError,
     "'anchor_assignment.tip.delta' must be 2 numbers"),
    (("omega_hand",), [0.5], SchemaError,
     "'omega_hand' must be an object"),
    (("segment_names",), "thumb", SchemaError,
     "'segment_names' must be a list of strings"),
    (("tau_c",), "x", SchemaError, "'tau_c' must be a finite number"),
    (("tau_c",), 10 ** 400, SchemaError, "'tau_c' must be a finite number"),
    (("template_id",), 3, SchemaError, "'template_id' must be a string"),
    (("object_points",), None, SchemaError,
     "'object_points' must be a list of [x, y, z], got None"),
    (("contact_object",), False, SchemaError,
     "'contact_object' must be a list of indices, got False"),
    (("contact_object", 0), 2 ** 63, InvalidInputError,
     "'contact_object' has an index outside [0, 4)"),
    (("knuckle_partition", "index"), "", SchemaError,
     "'knuckle_partition.index' must be a list of indices, got ''"),
    (("omega_hand", "index"), {}, SchemaError,
     "'omega_hand.index' must be a list of numbers, got {}"),
], ids=["points-a-string", "points-ragged", "points-not-numbers",
        "normals-short", "omega-short", "contact-fraction", "contact-bool",
        "contact-past-int64", "partition-negative", "contact-hand-past-end",
        "anchor-not-an-object", "anchor-delta-short", "omega-hand-a-list",
        "segment-names-a-string", "tau-c-a-string", "tau-c-past-any-float",
        "template-id-a-number", "points-none", "contact-false",
        "contact-past-int64-by-one", "partition-a-string",
        "omega-hand-an-object"])
def test_contacts_loader_names_the_bad_key(path, value, error, message):
    doc = _replaced(_contacts_doc(), path, value)
    with pytest.raises(error,
                       match=re.escape(f"contacts/1 document: {message}")):
        bundle_from_dict(doc)


def test_contacts_loader_refuses_missing_key():
    doc = _contacts_doc()
    del doc["anchor_assignment"]["tip"]["indices"]
    with pytest.raises(SchemaError, match=re.escape(
            "contacts/1 document: missing key 'indices'")):
        bundle_from_dict(doc)


def test_validate_refuses_empty_hand_map_row():
    # an empty row loaded, and the optimizer's segment mean of it warned
    # "Mean of empty slice" when the robot's layout differed
    doc = _replaced(_contacts_doc(), ("omega_hand", "index"), [])
    doc["contact_hand"]["index"] = []
    with pytest.raises(InvalidInputError,
                       match=re.escape("omega_hand 'index' is empty")):
        bundle_from_dict(doc)


def test_validate_refuses_negative_contact_index():
    # with -1 in O^c and in a partition set the bundle used to pass, and
    # its indices picked points from the end of the array
    bundle = bundle_from_dict(_contacts_doc())
    bundle.contact_object = np.array([0, 3, -1])
    bundle.knuckle_partition["index"] = np.array([3, -1])
    with pytest.raises(InvalidInputError, match="contact index out of range"):
        bundle.validate()


# ---------------------------------------------------------------------------
# category/1


def _category_doc():
    return {"schema": "category/1", "name": "wand", "template": "wand_0.obj",
            "instances": ["wand_0.obj", "wand_1.obj"],
            "keypoints": "wand_keypoints.txt"}


def _load_category_doc(directory, doc):
    (directory / "category.json").write_text(json.dumps(doc))
    return load_category(directory)


@SETTINGS
@given(data=st.data(), value=JSON)
def test_category_loader_takes_any_value_at_any_key(tmp_path, data, value):
    # a manifest that loads has the types ``run_category`` reads
    doc = _category_doc()
    path = data.draw(st.sampled_from(sorted(_paths(doc), key=repr)))
    loaded = _loads_or_typed_error(
        lambda: _load_category_doc(tmp_path, _replaced(doc, path, value)))
    if loaded is not None:
        doc = loaded[0]
        assert isinstance(doc["name"], str)
        assert isinstance(doc["template"], str)
        assert isinstance(doc.get("keypoints", ""), str)
        assert doc["instances"] and all(isinstance(name, str)
                                        for name in doc["instances"])


@pytest.mark.parametrize("path,value,message", [
    (("name",), 3, "'name' must be a string, got 3"),
    (("keypoints",), ["x"], "'keypoints' must be a string, got ['x']"),
    (("instances",), [], "'instances' must be a non-empty list of strings"),
    (("instances", 0), 3, "'instances' must be a non-empty list of strings"),
], ids=["name-a-number", "keypoints-a-list", "instances-empty",
        "instance-a-number"])
def test_category_loader_names_the_bad_key(tmp_path, path, value, message):
    with pytest.raises(SchemaError, match=re.escape(message)):
        _load_category_doc(tmp_path, _replaced(_category_doc(), path, value))


def _without(doc, path):
    out = copy.deepcopy(doc)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    return out


# ---------------------------------------------------------------------------
# objstate/1


def _objstate_doc():
    return {"schema": "objstate/1", "template_id": "bottle", "s": 1.25,
            "rotation": [0.6, 0.0, 0.8, 0.0], "translation": [1.0, -2.0, 0.5],
            "losses": {"total": 0.25, "sdf": 0.125}, "icp_residual": 0.01}


@SETTINGS
@given(data=st.data(), value=JSON)
def test_objstate_loader_takes_any_value_at_any_key(data, value):
    doc = _objstate_doc()
    assert state_from_dict(doc).s == 1.25
    path = data.draw(st.sampled_from(sorted(_paths(doc), key=repr)))
    state = _loads_or_typed_error(
        lambda: state_from_dict(_replaced(doc, path, value)))
    if state is not None:
        assert isinstance(state.template_id, str)
        assert np.isfinite(state.s) and state.s > 0
        assert abs(np.linalg.norm(state.rotation) - 1.0) <= 1e-6
        assert np.all(np.isfinite(state.translation))
        assert state.translation.shape == (3,)


@pytest.mark.parametrize("path,value,error,message", [
    (("s",), None, SchemaError, "missing key 's'"),
    (("s",), "x", SchemaError, "'s' must be a finite number, got 'x'"),
    (("losses",), [1], SchemaError,
     "'losses' must be an object of finite numbers, got [1]"),
    (("s",), float("nan"), SchemaError,
     "'s' must be a finite number, got nan"),
    (("rotation",), [1.0, 0.0], SchemaError,
     "'rotation' must be a quaternion [w, x, y, z], got [1.0, 0.0]"),
    (("rotation",), [1.0, 0.0, 1.0, 0.0], InvalidInputError,
     "'rotation' must be a unit quaternion, got norm 1.41421"),
    # its norm used to overflow, a RuntimeWarning
    (("rotation",), [0.0, 1e200, 0.0, 0.0], InvalidInputError,
     "'rotation' must be a unit quaternion, got norm 1e+200"),
    (("s",), 0, InvalidInputError, "'s' must be positive, got 0"),
    (("translation", 2), float("inf"), SchemaError,
     "'translation' must be finite"),
    (("template_id",), 3, SchemaError, "'template_id' must be a string"),
    (("icp_residual",), "x", SchemaError,
     "'icp_residual' must be a finite number or null, got 'x'"),
    (("losses", "sdf"), 10 ** 400, SchemaError,
     "'losses' must be an object of finite numbers"),
], ids=["s-missing", "s-a-string", "losses-a-list", "s-nan",
        "rotation-two-numbers", "rotation-not-unit", "rotation-huge",
        "s-zero",
        "translation-infinite", "template-id-a-number",
        "icp-residual-a-string", "loss-past-any-float"])
def test_objstate_loader_names_the_bad_key(path, value, error, message):
    # each of these raised KeyError, ValueError or TypeError, or loaded
    doc = (_without(_objstate_doc(), path) if value is None
           else _replaced(_objstate_doc(), path, value))
    with pytest.raises(error,
                       match=re.escape(f"objstate/1 document: {message}")):
        state_from_dict(doc)


# ---------------------------------------------------------------------------
# dsc/1


def _dsc_doc():
    return {"schema": "dsc/1", "template_id": "bottle",
            "lattice": {"origin": [-1.0, -1.0, -2.0],
                        "spacing": [1.0, 1.0, 2.0], "dims": [2, 3, 2],
                        "displacements": [0.0, 0.5, -0.25] * 12},
            "final_loss": 0.5, "final_chamfer": 0.25,
            "correspondence": {"indices": [0, 1], "residuals": [0.0, 0.1]}}


@SETTINGS
@given(data=st.data(), value=JSON)
def test_dsc_loader_takes_any_value_at_any_key(data, value):
    doc = _dsc_doc()
    assert dsc_from_dict(doc).displacements.shape == (2, 3, 2, 3)
    path = data.draw(st.sampled_from(sorted(_paths(doc), key=repr)))
    field = _loads_or_typed_error(
        lambda: dsc_from_dict(_replaced(doc, path, value)))
    if field is not None:
        assert field.displacements.shape == (*field.dims, 3)
        assert np.all(np.isfinite(field.displacements))
        assert np.all(field.spacing > 0) and field.spacing.shape == (3,)
        assert np.all(np.isfinite(field.origin))


@pytest.mark.parametrize("path,value,error,message", [
    (("lattice",), None, SchemaError, "missing key 'lattice'"),
    (("lattice", "displacements"), [0.0] * 24, SchemaError,
     "'lattice.displacements' must be 36 numbers"),
    (("lattice", "origin", 1), float("nan"), SchemaError,
     "'lattice.origin' must be finite, got [-1.0, nan, -2.0]"),
    (("lattice",), [], SchemaError, "'lattice' must be an object, got []"),
    (("lattice", "dims"), [2, 3], SchemaError,
     "'lattice.dims' must be 3 integers of at least 2, got [2, 3]"),
    (("lattice", "dims", 0), 2.0, SchemaError,
     "'lattice.dims' must be 3 integers of at least 2"),
    (("lattice", "spacing", 0), 0.0, InvalidInputError,
     "'lattice.spacing' must be positive, got [0.0, 1.0, 2.0]"),
    (("template_id",), ["bottle"], SchemaError,
     "'template_id' must be a string"),
], ids=["lattice-missing", "displacements-not-3k3", "origin-nan",
        "lattice-a-list", "dims-two", "dims-a-float", "spacing-zero",
        "template-id-a-list"])
def test_dsc_loader_names_the_bad_key(path, value, error, message):
    # the first three raised KeyError or numpy's reshape ValueError, or
    # loaded
    doc = (_without(_dsc_doc(), path) if value is None
           else _replaced(_dsc_doc(), path, value))
    with pytest.raises(error, match=re.escape(f"dsc/1 document: {message}")):
        dsc_from_dict(doc)


# ---------------------------------------------------------------------------
# handspec/1


@pytest.fixture(scope="module")
def coupled9_doc():
    return handspec_to_dict(builtin_hand("coupled9"))


@SETTINGS
@given(data=st.data(), value=JSON)
def test_handspec_loader_takes_any_value_at_any_key(coupled9_doc, data,
                                                    value):
    doc = coupled9_doc
    path = data.draw(st.sampled_from(sorted(_paths(doc), key=repr)))
    spec = _loads_or_typed_error(
        lambda: handspec_from_dict(_replaced(doc, path, value)))
    if spec is not None:
        for link in spec.links:
            assert np.all(np.isfinite(link.origin_rotation))
            assert np.all(np.isfinite(link.origin_translation))
            assert isinstance(link.name, str)


@pytest.mark.parametrize("path,value,message", [
    (("links", 1, "parent"), ["palm"],
     "link index_knuckle: 'parent' must be a link name or null, "
     "got ['palm']"),
    (("anchors", 0, "link"), ["index_distal"],
     "anchor index_tip: 'link' must be a link name, got ['index_distal']"),
    (("links", 0, "name"), ["palm"],
     "link ['palm']: 'name' must be a string, got ['palm']"),
    (("links", 0, "joint"), [], "link palm: 'joint' must be an object, "
     "got []"),
    (("links", 0, "origin"), "x", "link palm: 'origin' must be an object, "
     "got 'x'"),
], ids=["parent-a-list", "anchor-link-a-list", "name-a-list", "joint-a-list",
        "origin-a-string"])
def test_handspec_loader_names_the_bad_key(coupled9_doc, path, value,
                                           message):
    # each of these ended in a TypeError: a list is no dict key, and a
    # list or string is no object to index by name
    with pytest.raises(SchemaError, match=re.escape(message)):
        handspec_from_dict(_replaced(coupled9_doc, path, value))


# ---------------------------------------------------------------------------
# grasp/1


def _grasp_doc():
    spec = builtin_hand("pinch1")
    grasp = make_grasp(spec, q=[0.2, 0.3],
                       translation=np.array([0.0, 6.0, 0.0]))
    grasp.flags.append("infeasible")
    return grasp_to_dict(grasp, hand="pinch1",
                         provenance={"source": "test", "seed": 3})


@SETTINGS
@given(data=st.data(), value=JSON)
def test_grasp_loader_takes_any_value_at_any_key(data, value):
    doc = _grasp_doc()
    assert grasp_from_dict(doc).flags == ["infeasible"]
    path = data.draw(st.sampled_from(sorted(_paths(doc), key=repr)))
    grasp = _loads_or_typed_error(
        lambda: grasp_from_dict(_replaced(doc, path, value)))
    if grasp is not None:
        assert grasp.rotation.shape == (4,) and grasp.translation.shape == (3,)
        assert all(np.all(np.isfinite(v))
                   for v in (grasp.q, grasp.rotation, grasp.translation))
        assert all(isinstance(flag, str) for flag in grasp.flags)


# ---------------------------------------------------------------------------
# config/1


@SETTINGS
@given(data=st.data(), value=JSON)
def test_config_loader_takes_any_value_at_any_key(data, value):
    doc = RunConfig(seed=3, restarts=2).to_dict()
    assert RunConfig.from_dict(doc).restarts == 2
    path = data.draw(st.sampled_from(sorted(_paths(doc), key=repr)))
    config = _loads_or_typed_error(
        lambda: RunConfig.from_dict(_replaced(doc, path, value)))
    if config is not None:
        # a config that loads has every field of its declared type
        for obj in (config, config.weights):
            for name, spec in type(obj).__dataclass_fields__.items():
                kind = (int, float) if spec.type is float else spec.type
                got = getattr(obj, name)
                assert isinstance(got, kind) and not isinstance(got, bool)
