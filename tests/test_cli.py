import json
import subprocess
import sys

import numpy as np
import pytest

from graspsynth.cli import main

FAST = ["--steps", "12", "--restarts", "1", "--object-samples", "512"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert main(["fixtures", "--out", str(root / "data"),
                 "--categories", "wand", "--instances", "3"]) == 0
    return root


def test_fixtures_layout(workspace):
    cat = workspace / "data" / "wand"
    doc = json.loads((cat / "category.json").read_text())
    assert doc["schema"] == "category/1"
    assert doc["template"] == "wand_0.obj"
    assert len(doc["instances"]) == 3
    assert (cat / "demo.json").exists()
    assert (cat / doc["keypoints"]).exists()


def test_fixtures_rerun_writes_identical_files(tmp_path):
    # every demo either run authors poses the one shared human hand
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        assert main(["fixtures", "--out", str(out), "--instances", "2"]) == 0
    files = [sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
             for out in runs]
    assert files[0] == files[1] and files[0]
    for f in files[0]:
        assert (runs[0] / f).read_bytes() == (runs[1] / f).read_bytes(), f


def test_contacts_command(workspace, capsys):
    cat = workspace / "data" / "wand"
    out = workspace / "contacts.json"
    code = main(["contacts", "--demo", str(cat / "demo.json"),
                 "--out", str(out), "--samples", "512"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "contacts/1"
    assert len(doc["contact_object"]) > 0
    assert "|O^c|" in capsys.readouterr().out


def test_contacts_missing_file_exit_2(workspace):
    assert main(["contacts", "--demo", str(workspace / "nope.json"),
                 "--out", str(workspace / "x.json")]) == 2


def test_synthesize_and_manifest_determinism(workspace):
    cat = workspace / "data" / "wand"
    args = ["synthesize", "--category", str(cat),
            "--demo", str(cat / "demo.json"), "--hand", "pinch1",
            "--seed", "3", *FAST]
    out1 = workspace / "run1"
    out2 = workspace / "run2"
    assert main([*args, "--out", str(out1)]) == 0
    assert main([*args, "--out", str(out2)]) == 0
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["outputs"] == m2["outputs"]
    assert len(m1["outputs"]) == 15
    assert m1["failures"] == []


def test_synthesize_isolates_corrupt_instance(workspace, tmp_path):
    cat = workspace / "data" / "wand"
    broken = tmp_path / "wandx"
    broken.mkdir()
    for f in cat.iterdir():
        if f.is_file():
            (broken / f.name).write_bytes(f.read_bytes())
    (broken / "wand_2.obj").write_text("v 0 0 0\nnot a mesh line\n")
    doc = json.loads((broken / "category.json").read_text())
    out = tmp_path / "iso"
    code = main(["synthesize", "--category", str(broken),
                 "--demo", str(broken / "demo.json"), "--hand", "pinch1",
                 "--seed", "1", *FAST, "--out", str(out)])
    assert code == 0  # >= 1 instance succeeded
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["failures"]) == 1
    assert manifest["failures"][0]["instance"] == "wand_2.obj"
    assert len(manifest["outputs"]) == 10


def test_synthesize_bad_handspec_exit_2(workspace, tmp_path, capsys):
    cat = workspace / "data" / "wand"
    doc = json.loads((cat / "demonstrator.handspec.json").read_text())
    del doc["links"][1]["joint"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["synthesize", "--category", str(cat),
                 "--demo", str(cat / "demo.json"), "--hand", str(bad),
                 *FAST, "--out", str(tmp_path / "out")])
    assert code == 2
    assert (f"error: link {doc['links'][1]['name']}: missing key 'joint'"
            in capsys.readouterr().err)


def test_synthesize_handspec_zero_rotation_exit_2(workspace, tmp_path,
                                                  capsys):
    # a [0, 0, 0, 0] rotation used to load as the identity
    cat = workspace / "data" / "wand"
    doc = json.loads((cat / "demonstrator.handspec.json").read_text())
    doc["links"][1]["origin"]["rotation"] = [0, 0, 0, 0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["synthesize", "--category", str(cat),
                 "--demo", str(cat / "demo.json"), "--hand", str(bad),
                 *FAST, "--out", str(tmp_path / "out")])
    assert code == 2
    assert (f"error: link {doc['links'][1]['name']}: 'origin.rotation' must "
            f"be a unit quaternion, got norm 0" in capsys.readouterr().err)


def test_synthesize_handspec_links_not_a_list_exit_2(workspace, tmp_path,
                                                      capsys):
    # "links" as a string used to end in an AttributeError traceback
    cat = workspace / "data" / "wand"
    doc = json.loads((cat / "demonstrator.handspec.json").read_text())
    doc["links"] = "x"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["synthesize", "--category", str(cat),
                 "--demo", str(cat / "demo.json"), "--hand", str(bad),
                 *FAST, "--out", str(tmp_path / "out")])
    assert code == 2
    assert ("error: handspec/1 'links' must be a list of link objects"
            in capsys.readouterr().err)


def test_synthesize_handspec_samples_not_a_number_exit_2(
        workspace, tmp_path, capsys):
    # "samples": "many" used to end in a ValueError traceback
    cat = workspace / "data" / "wand"
    doc = json.loads((cat / "demonstrator.handspec.json").read_text())
    doc["links"][1]["samples"] = "many"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["synthesize", "--category", str(cat),
                 "--demo", str(cat / "demo.json"), "--hand", str(bad),
                 *FAST, "--out", str(tmp_path / "out")])
    assert code == 2
    assert (f"error: link {doc['links'][1]['name']}: 'samples' must be an "
            f"integer, got 'many'" in capsys.readouterr().err)


def test_synthesize_handspec_params_not_a_list_exit_2(workspace, tmp_path,
                                                      capsys):
    # "params": 3 used to end in a TypeError traceback
    cat = workspace / "data" / "wand"
    doc = json.loads((cat / "demonstrator.handspec.json").read_text())
    link = next(entry for entry in doc["links"] if entry["primitives"])
    link["primitives"][0]["params"] = 3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["synthesize", "--category", str(cat),
                 "--demo", str(cat / "demo.json"), "--hand", str(bad),
                 *FAST, "--out", str(tmp_path / "out")])
    assert code == 2
    assert (f"error: link {link['name']}: 'primitives[0].params' must be a "
            f"list of numbers, got 3" in capsys.readouterr().err)


def test_synthesize_config_weight_not_a_number_exit_2(workspace, tmp_path,
                                                      capsys):
    # a string weight used to end in a TypeError traceback
    cat = workspace / "data" / "wand"
    bad = tmp_path / "config.json"
    bad.write_text(json.dumps({"schema": "config/1",
                               "weights": {"lam1": "x"}}))
    code = main(["synthesize", "--category", str(cat),
                 "--demo", str(cat / "demo.json"), "--hand", "pinch1",
                 "--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    assert ("error: config 'weights': 'lam1' must be float, got 'x'"
            in capsys.readouterr().err)


def test_synthesize_config_weight_nan_exit_2(workspace, tmp_path, capsys):
    # a NaN weight used to be accepted, and the optimizer's loss was NaN
    cat = workspace / "data" / "wand"
    bad = tmp_path / "config.json"
    bad.write_text('{"schema": "config/1", "weights": {"lam1": NaN}}')
    code = main(["synthesize", "--category", str(cat),
                 "--demo", str(cat / "demo.json"), "--hand", "pinch1",
                 "--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    assert ("error: config 'weights': 'lam1' must be finite, got nan"
            in capsys.readouterr().err)


@pytest.mark.parametrize("k", [0, 1])
def test_synthesize_config_lattice_k_below_two_exit_2(workspace, tmp_path,
                                                      capsys, k):
    # the demonstration's lattice fit used to end in a traceback
    # (ValueError: negative axis 1 index), outside the per-instance
    # isolation
    cat = workspace / "data" / "wand"
    bad = tmp_path / "config.json"
    bad.write_text(json.dumps({"schema": "config/1", "lattice_k": k}))
    code = main(["synthesize", "--category", str(cat),
                 "--demo", str(cat / "demo.json"), "--hand", "pinch1",
                 *FAST, "--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    assert (f"error: k must be >= 2 lattice nodes, got {k}"
            in capsys.readouterr().err)


def test_eval_command(workspace):
    run1 = workspace / "run1"
    cat = workspace / "data" / "wand"
    out = workspace / "metrics.csv"
    code = main(["eval",
                 "--grasp", str(run1 / "wand_0.grasp.json"),
                 str(run1 / "wand_1.grasp.json"),
                 "--hand", "pinch1",
                 "--object", str(cat / "wand_0.obj"),
                 "--truth", str(run1 / "wand_0.contacts.json"),
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].split(",")[0] == "object"


def test_eval_builds_one_object_sdf(workspace, tmp_path, mesh_sdf_builds):
    # every grasp is scored against the same MeshSDF of the object
    run1 = workspace / "run1"
    assert main(["eval",
                 "--grasp", str(run1 / "wand_0.grasp.json"),
                 str(run1 / "wand_1.grasp.json"),
                 "--hand", "pinch1",
                 "--object", str(workspace / "data" / "wand" / "wand_0.obj"),
                 "--out", str(tmp_path / "m.csv")]) == 0
    assert len(mesh_sdf_builds) == 1


def test_eval_open_mesh_exit_2(workspace, tmp_path, capsys):
    # refused at the input, before an object SDF would warn about it
    import warnings
    from graspsynth.geometry import TriMesh, load_mesh, save_obj
    mesh = load_mesh(workspace / "data" / "wand" / "wand_0.obj")
    open_mesh = tmp_path / "open.obj"
    save_obj(open_mesh, TriMesh(mesh.vertices, mesh.faces[:-1]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["eval", "--grasp",
                     str(workspace / "run1" / "wand_0.grasp.json"),
                     "--hand", "pinch1", "--object", str(open_mesh),
                     "--out", str(tmp_path / "m.csv")])
    assert code == 2
    assert (f"error: {open_mesh}: object mesh is not watertight"
            in capsys.readouterr().err)
    assert not any("watertight" in str(w.message) for w in caught)


@pytest.mark.parametrize("damage,message", [
    (lambda d: d.update(q="x"), "'q' must be a list of numbers"),
    (lambda d: d.update(wrist="x"), "'wrist' must be an object"),
    (lambda d: d["wrist"].update(rotation=[float("nan"), 0.0, 0.0, 0.0]),
     "'wrist.rotation' must be finite"),
], ids=["q-not-numbers", "wrist-not-an-object", "rotation-nan"])
def test_eval_bad_grasp_exit_2(workspace, tmp_path, capsys, damage, message):
    # these grasp/1 documents used to end in a traceback with exit code 1
    doc = json.loads((workspace / "run1" / "wand_0.grasp.json").read_text())
    damage(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["eval", "--grasp", str(bad), "--hand", "pinch1",
                 "--object", str(workspace / "data" / "wand" / "wand_0.obj"),
                 "--out", str(tmp_path / "m.csv")])
    assert code == 2
    assert f"error: grasp/1 document: {message}" in capsys.readouterr().err


def test_eval_grasp_not_an_object_exit_2(workspace, tmp_path, capsys):
    # used to end in an AttributeError traceback with exit code 1
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    code = main(["eval", "--grasp", str(bad), "--hand", "pinch1",
                 "--object", str(workspace / "data" / "wand" / "wand_0.obj"),
                 "--out", str(tmp_path / "m.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: grasp/1 document must be an object, got [1, 2]" in err
    assert "Traceback" not in err


def test_eval_without_truth_leaves_columns_empty(workspace):
    run1 = workspace / "run1"
    cat = workspace / "data" / "wand"
    out = workspace / "metrics_nt.csv"
    assert main(["eval", "--grasp", str(run1 / "wand_0.grasp.json"),
                 "--hand", "pinch1", "--object", str(cat / "wand_0.obj"),
                 "--out", str(out)]) == 0
    header, row = out.read_text().strip().splitlines()
    cols = header.split(",")
    vals = row.split(",")
    assert vals[cols.index("functionality_precision")] == ""
    assert vals[cols.index("hrd")] == ""
    assert vals[cols.index("epsilon")] != ""


def test_export_command(workspace):
    run1 = workspace / "run1"
    cat = workspace / "data" / "wand"
    out = workspace / "viz.ply"
    assert main(["export", "--grasp", str(run1 / "wand_0.grasp.json"),
                 "--hand", "pinch1", "--object", str(cat / "wand_0.obj"),
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert "comment part 0 palm" in text
    assert "comment part" in text
    assert "property int part_id" in text


def test_fit_command(workspace, tmp_path):
    from graspsynth.fixtures import wand_mesh
    from graspsynth.geometry import sample_surface, save_obj, save_ply
    lib_dir = tmp_path / "lib"
    lib_dir.mkdir()
    save_obj(lib_dir / "wand.obj", wand_mesh())
    mesh = wand_mesh()
    lo, hi = mesh.bounds()
    centered = mesh.transformed(np.eye(3), -(lo + hi) / 2)
    samples = sample_surface(centered, n=2048, seed=1)
    keep = samples.normals @ np.array([0.0, 1.0, 0.0]) > 0
    cloud = tmp_path / "cloud.ply"
    save_ply(cloud, samples.points[keep], normals=samples.normals[keep])
    out = tmp_path / "state.json"
    assert main(["fit", "--cloud", str(cloud), "--library", str(lib_dir),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "objstate/1"
    assert doc["template_id"] == "wand"
    assert abs(doc["s"] - 1.0) < 0.05


def test_empty_cloud_exit_2(tmp_path, workspace):
    from graspsynth.geometry import save_ply
    cloud = tmp_path / "empty.ply"
    save_ply(cloud, np.zeros((0, 3)))
    lib_dir = workspace / "data" / "wand"
    assert main(["fit", "--cloud", str(cloud), "--library", str(lib_dir),
                 "--out", str(tmp_path / "s.json")]) == 2


def test_fit_cloud_without_y_exit_2(tmp_path, workspace, capsys):
    # a PLY vertex element without 'y' used to end in a ValueError traceback
    cloud = tmp_path / "no_y.ply"
    cloud.write_text("ply\nformat ascii 1.0\nelement vertex 2\n"
                     "property float x\nproperty float z\nend_header\n"
                     "0 0\n1 1\n")
    lib_dir = workspace / "data" / "wand"
    assert main(["fit", "--cloud", str(cloud), "--library", str(lib_dir),
                 "--out", str(tmp_path / "s.json")]) == 2
    assert (f"error: {cloud}: PLY vertex element has no 'y' property"
            in capsys.readouterr().err)


def test_fit_cloud_short_vertex_row_exit_2(tmp_path, workspace, capsys):
    # an ASCII PLY vertex row with two of its three numbers used to end in
    # a TypeError traceback with exit 1
    cloud = tmp_path / "short.ply"
    cloud.write_text("ply\nformat ascii 1.0\nelement vertex 2\n"
                     "property float x\nproperty float y\n"
                     "property float z\nend_header\n0 0 0\n1 0\n")
    lib_dir = workspace / "data" / "wand"
    assert main(["fit", "--cloud", str(cloud), "--library", str(lib_dir),
                 "--out", str(tmp_path / "s.json")]) == 2
    err = capsys.readouterr().err
    assert (f"error: {cloud}: PLY vertex line 2 of 2: expected 3 numbers, "
            "got '1 0'" in err)
    assert "Traceback" not in err


def test_fit_cloud_single_point_exit_2(tmp_path, workspace, capsys):
    # one point and no normals used to end in a LinAlgError traceback from
    # estimate_normals, with exit 1; 2 to 63 points already exited 2
    cloud = tmp_path / "one.ply"
    cloud.write_text("ply\nformat ascii 1.0\nelement vertex 1\n"
                     "property float x\nproperty float y\n"
                     "property float z\nend_header\n0 0 0\n")
    lib_dir = workspace / "data" / "wand"
    assert main(["fit", "--cloud", str(cloud), "--library", str(lib_dir),
                 "--out", str(tmp_path / "s.json")]) == 2
    err = capsys.readouterr().err
    assert "error: ICP needs >= 64 observed points" in err
    assert "Traceback" not in err


def test_fit_cloud_coincident_points_exit_2(tmp_path, workspace, capsys):
    # 100 copies of one point used to end in an "invalid value encountered
    # in divide" RuntimeWarning from ICP's initial scale
    from graspsynth.geometry import save_ply
    cloud = tmp_path / "coincident.ply"
    save_ply(cloud, np.ones((100, 3)))
    lib_dir = workspace / "data" / "wand"
    assert main(["fit", "--cloud", str(cloud), "--library", str(lib_dir),
                 "--out", str(tmp_path / "s.json")]) == 2
    err = capsys.readouterr().err
    assert "error: ICP needs observed points that do not all coincide" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_fit_cloud_non_finite_coordinate_exit_2(tmp_path, workspace, capsys,
                                                value):
    # a NaN or inf coordinate used to end in a ValueError traceback from
    # cKDTree in estimate_normals, with exit 1
    from graspsynth.fixtures import wand_mesh
    from graspsynth.geometry import sample_surface, save_ply
    points = sample_surface(wand_mesh(), n=256, seed=1).points.copy()
    points[7, 2] = float(value)
    cloud = tmp_path / "bad.ply"
    save_ply(cloud, points)
    lib_dir = workspace / "data" / "wand"
    assert main(["fit", "--cloud", str(cloud), "--library", str(lib_dir),
                 "--out", str(tmp_path / "s.json")]) == 2
    err = capsys.readouterr().err
    assert f"error: {cloud}: point coordinates must be finite" in err
    assert "Traceback" not in err


def test_console_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "graspsynth.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "synthesize" in proc.stdout


def _demo_elsewhere(workspace, tmp_path, damage):
    # the wand demo with absolute paths, damaged and written to tmp_path
    cat = workspace / "data" / "wand"
    doc = json.loads((cat / "demo.json").read_text())
    for key in ("object", "handspec"):
        doc[key] = str(cat / doc[key])
    damage(doc)
    bad = tmp_path / "demo.json"
    bad.write_text(json.dumps(doc))
    return bad


@pytest.mark.parametrize("damage,message", [
    (lambda d: d.update(q="x"),
     "demo/1 document: 'q' must be a list of numbers, got 'x'"),
    (lambda d: d.update(handspec=3),
     "demo/1 document: 'handspec' must be a path string, got 3"),
    (lambda d: d.pop("wrist"), "demo/1 document: missing key 'wrist'"),
    (lambda d: d.update(object=""), "demo/1 document: 'object' names no file"),
], ids=["q-a-string", "handspec-a-number", "no-wrist", "object-empty"])
def test_contacts_bad_demo_exit_2(workspace, tmp_path, capsys, damage,
                                  message):
    # these demo/1 documents used to end in a ValueError, TypeError or
    # IsADirectoryError traceback, or a bare "error: 'wrist'"
    bad = _demo_elsewhere(workspace, tmp_path, damage)
    code = main(["contacts", "--demo", str(bad),
                 "--out", str(tmp_path / "c.json")])
    assert code == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_contacts_demo_not_an_object_exit_2(tmp_path, capsys):
    # used to end in an AttributeError traceback with exit code 1
    bad = tmp_path / "demo.json"
    bad.write_text('"x"')
    code = main(["contacts", "--demo", str(bad),
                 "--out", str(tmp_path / "c.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: demo/1 document must be an object, got 'x'" in err
    assert "Traceback" not in err


def _negative_contact(doc):
    doc["contact_object"].append(-1)
    doc["knuckle_partition"][next(iter(doc["knuckle_partition"]))].append(-1)


@pytest.mark.parametrize("damage,message", [
    (lambda d: d.update(object_points="x"),
     "'object_points' must be a list of [x, y, z], got 'x'"),
    (lambda d: d["object_points"][1].pop(),
     "'object_points' must be a list of [x, y, z]"),
    (lambda d: d["anchor_assignment"].update(tip=3),
     "'anchor_assignment.tip' must be an object, got 3"),
    (_negative_contact, "'contact_object' has an index outside [0, "),
], ids=["points-a-string", "points-ragged", "anchor-not-an-object",
        "negative-index"])
def test_eval_bad_truth_exit_2(workspace, tmp_path, capsys, damage, message):
    # these contacts/1 documents used to end in a ValueError or TypeError
    # traceback, and a -1 index passed and picked the last point
    run1 = workspace / "run1"
    doc = json.loads((run1 / "wand_0.contacts.json").read_text())
    damage(doc)
    bad = tmp_path / "truth.json"
    bad.write_text(json.dumps(doc))
    code = main(["eval", "--grasp", str(run1 / "wand_0.grasp.json"),
                 "--hand", "pinch1",
                 "--object", str(workspace / "data" / "wand" / "wand_0.obj"),
                 "--truth", str(bad), "--out", str(tmp_path / "m.csv")])
    assert code == 2
    assert (f"error: contacts/1 document: {message}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("damage,message", [
    (lambda d: d.update(instances=3),
     "'instances' must be a non-empty list of strings, got 3"),
    (lambda d: d.update(template=5), "'template' must be a string, got 5"),
    (lambda d: d.pop("template"), "category/1 document has no 'template'"),
], ids=["instances-a-number", "template-a-number", "no-template"])
def test_synthesize_bad_category_exit_2(workspace, tmp_path, capsys, damage,
                                        message):
    # these category/1 documents used to end in a TypeError traceback
    # outside the per-instance isolation, or a bare "error: 'template'"
    cat = workspace / "data" / "wand"
    doc = json.loads((cat / "category.json").read_text())
    damage(doc)
    bad = tmp_path / "category.json"
    bad.write_text(json.dumps(doc))
    code = main(["synthesize", "--category", str(bad),
                 "--demo", str(cat / "demo.json"), "--hand", "pinch1",
                 *FAST, "--out", str(tmp_path / "out")])
    assert code == 2
    assert message in capsys.readouterr().err
