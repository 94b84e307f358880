import json
import warnings

import numpy as np
import pytest

from graspsynth.contact import extract_bundle
from graspsynth.correspondence import dsc_from_dict
from graspsynth.fixtures import (category_instances, load_category,
                                 template_demo, write_category)
from graspsynth.geometry import TriMesh, load_mesh, save_obj
from graspsynth.grasp_opt import GraspScene, LossWeights, evaluate
from graspsynth.hands import builtin_hand
from graspsynth.hands.model import forward_kinematics
from graspsynth.pipeline import RunConfig, opt_report_to_dict, run_category
from graspsynth.retarget import problem_from_demo, retarget


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipe")
    write_category(root / "wand", "wand", n=3)
    doc, cat_dir = load_category(root / "wand")
    demo, spec, grasp, template = template_demo("wand")
    robot = builtin_hand("quad16")
    config = RunConfig(seed=2, object_samples=512, restarts=1, steps=15,
                       refine_steps=20)
    out = root / "out"
    manifest = run_category(doc, cat_dir, demo, robot, config, out)
    return manifest, out, robot


def test_manifest_contents(small_run):
    manifest, out, _ = small_run
    assert manifest["schema"] == "manifest/1"
    assert manifest["failures"] == []
    files = [e["file"] for e in manifest["outputs"]]
    assert files == sorted(files)
    for stem in ("wand_0", "wand_1", "wand_2"):
        for kind in ("grasp", "optreport", "dsc", "contacts", "metrics"):
            assert f"{stem}.{kind}.json" in files
    # hashes match the files on disk
    import hashlib
    for entry in manifest["outputs"]:
        digest = hashlib.sha256((out / entry["file"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]


def test_written_dsc_documents_load(small_run):
    # the dsc/1 loader's types hold for what run_category writes
    manifest, out, _ = small_run
    names = [e["file"] for e in manifest["outputs"]
             if e["file"].endswith(".dsc.json")]
    assert len(names) == 3
    for name in names:
        field = dsc_from_dict(json.loads((out / name).read_text()))
        assert field.template_id == "wand"
        assert field.displacements.shape == (*field.dims, 3)


def test_optreport_structure(small_run):
    manifest, out, _ = small_run
    doc = json.loads((out / "wand_1.optreport.json").read_text())
    assert doc["schema"] == "optreport/1"
    totals = [row["total"] for row in doc["steps"]]
    assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))
    assert {"contact", "anchor", "gesture", "interpenetration",
            "self_penetration"} <= set(doc["steps"][0])
    assert "wall_clock" not in doc
    assert doc["grasp"]["schema"] == "grasp/1"


def test_grasps_within_limits(small_run):
    manifest, out, robot = small_run
    for stem in ("wand_0", "wand_1", "wand_2"):
        doc = json.loads((out / f"{stem}.grasp.json").read_text())
        q = np.asarray(doc["q"])
        assert np.all(q >= robot.lower - 1e-9)
        assert np.all(q <= robot.upper + 1e-9)


def test_open_instance_is_refused_before_its_sdf(tmp_path):
    # an open instance mesh fails on its own, with the typed error and
    # before any object SDF is built (no "not watertight" warning)
    write_category(tmp_path / "wand", "wand", n=2)
    doc, cat_dir = load_category(tmp_path / "wand")
    mesh = load_mesh(cat_dir / "wand_1.obj")
    save_obj(cat_dir / "wand_1.obj", TriMesh(mesh.vertices, mesh.faces[:-1]))
    demo, _, _, _ = template_demo("wand")
    config = RunConfig(seed=2, object_samples=256, restarts=1, steps=2,
                       refine_steps=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        manifest = run_category(doc, cat_dir, demo, builtin_hand("pinch1"),
                                config, tmp_path / "out")
    assert [f["instance"] for f in manifest["failures"]] == ["wand_1.obj"]
    assert "InvalidInputError" in manifest["failures"][0]["error"]
    assert not any("watertight" in str(w.message) for w in caught)


def test_one_object_sdf_per_instance(tmp_path, mesh_sdf_builds):
    # refine and every metric of an instance share its one MeshSDF
    write_category(tmp_path / "wand", "wand", n=2)
    doc, cat_dir = load_category(tmp_path / "wand")
    demo, _, _, _ = template_demo("wand")
    config = RunConfig(seed=2, object_samples=256, restarts=1, steps=2,
                       refine_steps=2)
    bundle = extract_bundle(demo, n_samples=config.object_samples,
                            seed=config.seed, tau_c=config.tau_c)
    before = len(mesh_sdf_builds)
    manifest = run_category(doc, cat_dir, demo, builtin_hand("pinch1"),
                            config, tmp_path / "out", demo_bundle=bundle)
    assert manifest["failures"] == []
    assert len(mesh_sdf_builds) - before == len(doc["instances"])


def test_segment_mean_hand_map_path():
    # pinch1's layout never matches the 17-segment demonstration, so the
    # hand-map term must run through the segment-mean fallback
    demo, spec, grasp, template = template_demo("wand")
    bundle = extract_bundle(demo, n_samples=256, seed=1)
    robot = builtin_hand("pinch1")
    scene = GraspScene(robot, bundle)
    assert not scene.per_sample_hand_map
    # palm, thumb_distal, index_distal all share demonstration names
    assert len(scene.matched_segments) == 3
    init = retarget(problem_from_demo(demo, robot)).grasp
    total, terms, grad = evaluate(scene, init, init, accumulate=True)
    assert np.isfinite(total)
    assert np.all(np.isfinite(grad))


def test_config_weights_flow_through(tmp_path):
    cfg = RunConfig.from_dict({
        "schema": "config/1", "seed": 1, "restarts": 1, "steps": 5,
        "object_samples": 256,
        "weights": {"lam6": 0.0, "map_norm": "mean"},
    })
    assert cfg.weights.lam6 == 0.0
    assert cfg.weights.map_norm == "mean"
    assert cfg.weights.lam1 == 5.0
