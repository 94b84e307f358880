import json
import re

import numpy as np
import pytest

from graspsynth.contact import (bundle_from_dict, load_bundle, load_demo,
                                save_demo)
from graspsynth.correspondence import dsc_from_dict, load_keypoints
from graspsynth.errors import InvalidInputError, SchemaError
from graspsynth.fit import load_state, state_from_dict
from graspsynth.fixtures import cylinder_mesh, load_category
from graspsynth.geometry import save_obj
from graspsynth.grasp_opt import LossWeights
from graspsynth.hands import (builtin_hand, grasp_from_dict,
                              handspec_from_dict, handspec_to_dict, load_grasp,
                              load_handspec, make_grasp, save_handspec)
from graspsynth.metrics import MetricsReport, report_from_dict, report_to_dict
from graspsynth.pipeline import RunConfig


@pytest.mark.parametrize("loader,schema", [
    (handspec_from_dict, "handspec/1"),
    (grasp_from_dict, "grasp/1"),
    (bundle_from_dict, "contacts/1"),
    (dsc_from_dict, "dsc/1"),
    (state_from_dict, "objstate/1"),
    (report_from_dict, "metrics/1"),
])
def test_loaders_reject_wrong_schema(loader, schema):
    with pytest.raises(SchemaError):
        loader({"schema": "bogus/9"})


@pytest.mark.parametrize("content", [b'{"schema": "demo/1",', b"\x80\x81"],
                         ids=["truncated-json", "not-utf8"])
@pytest.mark.parametrize("loader", [
    load_demo, load_bundle, load_handspec, load_grasp, load_category,
    load_state, RunConfig.from_file,
], ids=["demo", "contacts", "handspec", "grasp", "category", "objstate",
        "config"])
def test_file_loaders_refuse_a_file_that_is_not_json(tmp_path, loader,
                                                     content):
    # used to raise the decoder's own error, which is no GraspSynthError
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    with pytest.raises(SchemaError) as info:
        loader(path)
    assert str(info.value).startswith(f"{path}: not a JSON document")
    assert isinstance(info.value.__cause__, ValueError)


@pytest.mark.parametrize("hand,damage,message", [
    ("pinch1", lambda d: d["anchors"][0].update(link="nope"),
     "anchor thumb_tip: unknown link 'nope'"),
    ("pinch1", lambda d: d["fingertips"][1].update(link="nope"),
     "fingertip index: unknown link 'nope'"),
    ("pinch1", lambda d: d["links"][1].pop("joint"),
     "link thumb_distal: missing key 'joint'"),
    ("pinch1", lambda d: d["links"][2].pop("origin"),
     "link index_distal: missing key 'origin'"),
    ("pinch1", lambda d: d.pop("links"), "handspec/1 document has no 'links'"),
    ("pinch1", lambda d: d.pop("name"), "handspec/1 document has no 'name'"),
    ("pinch1", lambda d: d["anchors"][0].pop("local"),
     "anchor thumb_tip: missing key 'local'"),
    ("pinch1", lambda d: d.update(links="x"),
     "handspec/1 'links' must be a list of link objects, got 'x'"),
    ("coupled9", lambda d: d["coupling"].pop("rows"),
     "coupling: missing key 'rows'"),
    ("coupled9", lambda d: d.update(anchors=["x"]),
     "handspec/1 'anchors' must be a list of objects, got ['x']"),
    ("coupled9", lambda d: d.update(coupling="x"),
     "coupling must be an object, got 'x'"),
    ("coupled9", lambda d: d["links"][2].update(primitives=["x"]),
     "link index_proximal: 'primitives' must be a list of objects, got ['x']"),
    ("coupled9", lambda d: d["links"][2]["joint"].update(limits=0.3),
     "link index_proximal: 'limits' must be [lower, upper], got 0.3"),
    ("coupled9", lambda d: d["coupling"]["actuated"][0].update(limits=0.3),
     "actuated thumb_rot: 'limits' must be [lower, upper], got 0.3"),
    ("coupled9", lambda d: d["links"][2].update(samples="many"),
     "link index_proximal: 'samples' must be an integer, got 'many'"),
    ("coupled9", lambda d: d["links"][2].update(samples=2.5),
     "link index_proximal: 'samples' must be an integer, got 2.5"),
    ("coupled9", lambda d: d["links"][2].update(samples=True),
     "link index_proximal: 'samples' must be an integer, got True"),
    ("coupled9", lambda d: d["links"][2]["origin"].update(rotation="x"),
     "link index_proximal: 'origin.rotation' must be 4 numbers, got 'x'"),
    ("coupled9", lambda d: d["anchors"][0].update(local="x"),
     "anchor index_tip: 'local' must be 3 numbers, got 'x'"),
    ("coupled9", lambda d: d["coupling"]["rows"][3].pop(),
     "coupling: 'rows[3]' must be 9 numbers, got [0.0, 0.0, 0.0"),
    ("coupled9", lambda d: d["links"][2]["joint"].update(axis=[1, 0]),
     "link index_proximal: 'axis' must be 3 numbers, got [1, 0]"),
    ("pinch1", lambda d: d["links"][1]["primitives"][0].update(rotation="x"),
     "link thumb_distal: 'primitives[0].rotation' must be 4 numbers, "
     "got 'x'"),
    ("pinch1", lambda d: d["links"][1]["primitives"][0].update(
        translation=[0, 0]),
     "link thumb_distal: 'primitives[0].translation' must be 3 numbers, "
     "got [0, 0]"),
    ("pinch1", lambda d: d["links"][1]["primitives"][0].update(params=3),
     "link thumb_distal: 'primitives[0].params' must be a list of numbers, "
     "got 3"),
    ("pinch1", lambda d: d["links"][1]["primitives"][0].update(params="ab"),
     "link thumb_distal: 'primitives[0].params' must be a list of numbers, "
     "got 'ab'"),
    ("pinch1", lambda d: d["links"][1]["joint"].update(flexion_sign="x"),
     "link thumb_distal: 'flexion_sign' must be a number, got 'x'"),
    ("pinch1", lambda d: d.update(human_joint_map=[1]),
     "handspec/1 'human_joint_map' must be an object of joint names, "
     "got [1]"),
    ("coupled9", lambda d: d["links"][2]["joint"].update(
        axis=[float("nan"), 1, 0]),
     "link index_proximal: 'axis' must be finite, got [nan, 1, 0]"),
    ("coupled9", lambda d: d["anchors"][0].update(
        local=[0, float("inf"), 0]),
     "anchor index_tip: 'local' must be finite, got [0, inf, 0]"),
], ids=["anchor-link", "fingertip-link", "no-joint", "no-origin", "no-links",
        "no-name", "anchor-no-local", "links-not-a-list", "coupling-no-rows",
        "anchor-not-an-object", "coupling-not-an-object",
        "primitive-not-an-object", "scalar-limits", "scalar-actuated-limits",
        "samples-not-a-number", "samples-fraction", "samples-bool",
        "rotation-not-numbers", "anchor-local-not-numbers",
        "coupling-rows-ragged", "axis-two-numbers",
        "primitive-rotation-not-numbers", "primitive-translation-two-numbers",
        "primitive-params-a-number", "primitive-params-a-string",
        "flexion-sign-not-a-number", "joint-map-not-an-object", "axis-nan",
        "anchor-local-infinity"])
def test_handspec_loader_names_what_is_wrong(hand, damage, message):
    # a malformed handspec/1 raises SchemaError naming the link and the
    # key, not a bare KeyError or AttributeError
    doc = handspec_to_dict(builtin_hand(hand))
    damage(doc)
    with pytest.raises(SchemaError, match=re.escape(message)):
        handspec_from_dict(doc)


@pytest.mark.parametrize("damage,message", [
    (lambda d: d["links"][0]["origin"].update(rotation=[0, 0, 0, 0]),
     "link palm: 'origin.rotation' must be a unit quaternion, got norm 0"),
    (lambda d: d["links"][0]["origin"].update(rotation=[0, 1e200, 0, 0]),
     "link palm: 'origin.rotation' must be a unit quaternion, "
     "got norm 1e+200"),
    (lambda d: d["links"][1]["primitives"][0].update(rotation=[0, 0, 0, 0]),
     "link thumb_distal: 'primitives[0].rotation' must be a unit "
     "quaternion, got norm 0"),
    (lambda d: d["links"][1]["primitives"][0].update(
        rotation=[0, 1e200, 0, 0]),
     "link thumb_distal: 'primitives[0].rotation' must be a unit "
     "quaternion, got norm 1e+200"),
], ids=["origin-zero", "origin-huge", "primitive-zero", "primitive-huge"])
def test_handspec_rotation_must_be_a_unit_quaternion(damage, message):
    # [0, 0, 0, 0] used to load as the identity, and a huge component
    # ended in an overflow RuntimeWarning
    doc = handspec_to_dict(builtin_hand("pinch1"))
    damage(doc)
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        handspec_from_dict(doc)


def test_grasp_rotation_with_a_huge_component_is_refused():
    # the unit check used to overflow (a RuntimeWarning) before refusing it
    doc = {"schema": "grasp/1", "q": [0.1, 0.2],
           "wrist": {"rotation": [0, 1e200, 0, 0],
                     "translation": [0.0, 0.0, 0.0]}}
    with pytest.raises(InvalidInputError, match="unit quaternion"):
        grasp_from_dict(doc)


@pytest.mark.parametrize("key", ["q", "wrist"])
def test_grasp_loader_names_the_missing_key(key):
    doc = {"schema": "grasp/1", "q": [0.1, 0.2],
           "wrist": {"rotation": [1.0, 0.0, 0.0, 0.0],
                     "translation": [0.0, 0.0, 0.0]}}
    del doc[key]
    with pytest.raises(SchemaError,
                       match=re.escape(f"grasp/1 document: missing key '{key}'")):
        grasp_from_dict(doc)


def _grasp_doc():
    return {"schema": "grasp/1", "q": [0.1, 0.2],
            "wrist": {"rotation": [1.0, 0.0, 0.0, 0.0],
                      "translation": [0.0, 0.0, 0.0]}}


@pytest.mark.parametrize("damage,message", [
    (lambda d: d.update(q="x"), "'q' must be a list of numbers, got 'x'"),
    (lambda d: d.update(q=[[1, 2]]),
     "'q' must be a list of numbers, got [[1, 2]]"),
    (lambda d: d.update(wrist="x"), "'wrist' must be an object, got 'x'"),
    (lambda d: d["wrist"].update(rotation="x"),
     "'wrist.rotation' must be 4 numbers, got 'x'"),
    (lambda d: d["wrist"].update(rotation=[1, 0, 0]),
     "'wrist.rotation' must be 4 numbers, got [1, 0, 0]"),
    (lambda d: d["wrist"].update(translation=[0, 0]),
     "'wrist.translation' must be 3 numbers, got [0, 0]"),
    (lambda d: d.update(flags=3), "'flags' must be a list of strings, got 3"),
    (lambda d: d.update(q=[0.1, float("nan")]),
     "'q' must be finite, got [0.1, nan]"),
    (lambda d: d["wrist"].update(rotation=[float("nan"), 0, 0, 0]),
     "'wrist.rotation' must be finite, got [nan, 0, 0, 0]"),
    (lambda d: d["wrist"].update(translation=[0, float("inf"), 0]),
     "'wrist.translation' must be finite, got [0, inf, 0]"),
], ids=["q-not-numbers", "q-nested", "wrist-not-an-object",
        "rotation-not-numbers", "rotation-three-numbers",
        "translation-two-numbers", "flags-not-a-list", "q-nan",
        "rotation-nan", "translation-infinity"])
def test_grasp_loader_names_the_bad_key(damage, message):
    # grasp/1 values of the wrong type or length raise SchemaError naming
    # the key, not a ValueError or TypeError, and are not accepted as is
    doc = _grasp_doc()
    damage(doc)
    with pytest.raises(SchemaError,
                       match=re.escape(f"grasp/1 document: {message}")):
        grasp_from_dict(doc)


def test_grasp_loader_refuses_json_nan_and_infinity():
    # Python's json reads NaN and Infinity as numbers
    text = json.dumps(_grasp_doc()).replace("0.2", "NaN")
    with pytest.raises(SchemaError,
                       match=re.escape("grasp/1 document: 'q' must be finite")):
        grasp_from_dict(json.loads(text))
    text = json.dumps(_grasp_doc()).replace(
        '"translation": [0.0, 0.0, 0.0]', '"translation": [0.0, -Infinity, 0.0]')
    with pytest.raises(SchemaError, match=re.escape(
            "grasp/1 document: 'wrist.translation' must be finite")):
        grasp_from_dict(json.loads(text))


def test_runconfig_rejects_unknown_keys():
    with pytest.raises(SchemaError):
        RunConfig.from_dict({"schema": "config/1", "bogus_knob": 3})
    with pytest.raises(SchemaError):
        RunConfig.from_dict({"schema": "config/1", "restarts": 0})


@pytest.mark.parametrize("doc,message", [
    ({"weights": {"nope": 1}}, "unknown config 'weights' keys: ['nope']"),
    ({"weights": [1, 2]}, "config 'weights' must be an object, got [1, 2]"),
    ({"weights": {"lam1": "x"}},
     "config 'weights': 'lam1' must be float, got 'x'"),
    ({"seed": "x"}, "config: 'seed' must be int, got 'x'"),
    ({"restarts": 2.5}, "config: 'restarts' must be int, got 2.5"),
    ({"steps": True}, "config: 'steps' must be int, got True"),
    # Python's json reads NaN and Infinity as numbers, and a NaN weight
    # passed the old ``value < 0`` check
    ({"weights": {"lam1": float("nan")}},
     "config 'weights': 'lam1' must be finite, got nan"),
    ({"weights": {"d1": float("inf")}},
     "config 'weights': 'd1' must be finite, got inf"),
    ({"tau_c": float("nan")}, "config: 'tau_c' must be finite, got nan"),
    ({"beta_smooth": float("inf")},
     "config: 'beta_smooth' must be finite, got inf"),
    ({"beta_mag": float("-inf")}, "config: 'beta_mag' must be finite, got -inf"),
    ({"beta_mag": 10 ** 400}, "config: 'beta_mag' must be finite, got 1000"),
], ids=["weights-unknown-key", "weights-not-an-object", "weight-not-a-number",
        "seed-not-a-number", "restarts-fraction", "steps-bool", "lam1-nan",
        "d1-infinity", "tau_c-nan", "beta_smooth-infinity",
        "beta_mag-minus-infinity", "beta_mag-past-any-float"])
def test_runconfig_names_the_bad_key(doc, message):
    # config/1 values of the wrong type raise SchemaError naming the key,
    # not a TypeError, integer fields take integers only, and numbers
    # must be finite
    with pytest.raises(SchemaError, match=re.escape(message)):
        RunConfig.from_dict({"schema": "config/1", **doc})


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_loss_weights_refuse_nan_and_infinity(value):
    with pytest.raises(InvalidInputError,
                       match=re.escape("lam1 must be finite and >= 0")):
        LossWeights(lam1=value)


@pytest.mark.parametrize("doc", ["config/1", ["config/1"], 3, None],
                         ids=["string", "list", "number", "null"])
def test_runconfig_must_be_an_object(doc):
    # a top-level document that is not an object is refused as such, even
    # when it reads like the schema tag
    with pytest.raises(SchemaError, match="config must be an object"):
        RunConfig.from_dict(doc)


def test_runconfig_roundtrip(tmp_path):
    cfg = RunConfig(seed=9, restarts=2, steps=50)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    back = RunConfig.from_file(path)
    assert back.seed == 9 and back.restarts == 2 and back.steps == 50
    assert back.weights.lam1 == 5.0


def test_demo_roundtrip(tmp_path):
    spec = builtin_hand("pinch1")
    mesh = cylinder_mesh(radius=2.0, height=8.0)
    save_obj(tmp_path / "object.obj", mesh)
    save_handspec(tmp_path / "hand.json", spec)
    grasp = make_grasp(spec, q=[0.2, 0.2],
                       translation=np.array([0.0, 6.0, 0.0]))
    save_demo(tmp_path / "demo.json", "object.obj", "hand.json", grasp,
              note="test")
    demo, spec2, grasp2 = load_demo(tmp_path / "demo.json")
    assert spec2.name == "pinch1"
    assert np.allclose(grasp2.q, grasp.q)
    assert set(demo.segments) == {spec.links[i].name
                                  for i in spec.segment_links()}
    assert set(demo.task_points) == {"thumb", "index"}
    assert len(demo.anchors) == len(spec.anchors)


def test_demo_requires_schema(tmp_path):
    (tmp_path / "bad.json").write_text(json.dumps({"schema": "nope/1"}))
    with pytest.raises(SchemaError):
        load_demo(tmp_path / "bad.json")


def test_grasp_flags_roundtrip():
    spec = builtin_hand("pinch1")
    g = make_grasp(spec)
    g.flags.append("infeasible")
    from graspsynth.hands import grasp_to_dict
    doc = grasp_to_dict(g, hand="pinch1", provenance={"source": "test"})
    back = grasp_from_dict(doc)
    assert back.flags == ["infeasible"]
    assert doc["provenance"] == {"source": "test"}


def _from_json_file(loader):
    return lambda path: loader(json.loads(path.read_text()))


@pytest.mark.parametrize("value", [[1, 2], "x", 3, None],
                         ids=["list", "string", "number", "null"])
@pytest.mark.parametrize("loader,schema", [
    (load_handspec, "handspec/1"), (load_grasp, "grasp/1"),
    (load_demo, "demo/1"), (load_bundle, "contacts/1"),
    (load_state, "objstate/1"), (_from_json_file(dsc_from_dict), "dsc/1"),
    (_from_json_file(report_from_dict), "metrics/1"),
    (load_category, "category/1"), (RunConfig.from_file, "config"),
], ids=["handspec", "grasp", "demo", "contacts", "objstate", "dsc",
        "metrics", "category", "config"])
def test_loaders_refuse_a_document_that_is_not_an_object(tmp_path, loader,
                                                        schema, value):
    # every loader but config's read the tag with ``doc.get`` and ended in
    # an AttributeError; category/1 raised an InvalidInputError
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(value))
    with pytest.raises(SchemaError, match=re.escape(
            f"{schema} document must be an object, got {value!r}"
            if schema != "config" else "config must be an object")):
        loader(path)


def _metrics_doc():
    report = MetricsReport(epsilon=0.125, hrd=0.5, closure_success=True,
                           flags=["infeasible"])
    return report_to_dict(report, "obj", "grasp0")


def test_metrics_loader_reads_what_the_writer_writes():
    doc = json.loads(json.dumps(_metrics_doc()))
    back = report_from_dict(doc)
    assert back.epsilon == 0.125 and back.hrd == 0.5
    assert np.isnan(back.iou) and back.closure_success is True
    assert back.flags == ["infeasible"]
    assert report_to_dict(back, "obj", "grasp0") == doc


@pytest.mark.parametrize("key,value,message", [
    ("epsilon", "abc", "'epsilon' must be a finite number or null, got 'abc'"),
    ("hrd", float("nan"), "'hrd' must be a finite number or null, got nan"),
    ("iou", 10 ** 400, "'iou' must be a finite number or null"),
    ("ncd", True, "'ncd' must be a finite number or null, got True"),
    ("closure_success", 1, "'closure_success' must be a bool, got 1"),
    ("flags", "x", "'flags' must be a list of strings, got 'x'"),
    ("flags", [3], "'flags' must be a list of strings, got [3]"),
], ids=["epsilon-a-string", "hrd-nan", "iou-past-any-float", "ncd-a-bool",
        "closure-success-a-number", "flags-a-string", "flags-numbers"])
def test_metrics_loader_names_the_bad_key(key, value, message):
    # these raised ValueError, or loaded as NaN, True or a list of letters
    doc = _metrics_doc()
    doc[key] = value
    with pytest.raises(SchemaError,
                       match=re.escape(f"metrics/1 document: {message}")):
        report_from_dict(doc)


def test_keypoints_loader_names_a_line_that_is_not_numbers(tmp_path):
    # used to raise float()'s ValueError
    path = tmp_path / "kp.txt"
    path.write_text("tip 1 2 3\na b c d\n")
    with pytest.raises(SchemaError, match=re.escape(
            f"{path}: 'line 2' must be a name and 3 numbers, "
            f"got ['b', 'c', 'd']")):
        load_keypoints(path)


@pytest.mark.parametrize("word", ["nan", "inf", "-Infinity", "1e400"])
def test_keypoints_loader_refuses_nan_and_infinity(tmp_path, word):
    # these loaded as keypoints at NaN or infinity
    path = tmp_path / "kp.txt"
    path.write_text(f"tip 1 2 3\nbase 0 {word} 0\n")
    with pytest.raises(SchemaError,
                       match=re.escape(f"{path}: 'line 2' must be finite")):
        load_keypoints(path)
