"""Batch synthesis over a category: the outer loop of the engine.

For every instance of a category, transport the demonstrated contacts
through the shared template (fit deformation, correspond, diffuse), map
the human grasp onto the robot hand, optimize, physically refine, and
score. Each instance writes a grasp, an optimization report, a dense
correspondence record, and a metrics report; a manifest lists all
outputs with content hashes (the golden-file regression surface).
"""

import hashlib
import json
import pathlib
import traceback
from dataclasses import asdict, dataclass, field

import numpy as np

from .contact import TAU_CONTACT, bundle_to_dict, extract_bundle
from .correspondence import (correspond, diffuse_contacts, dsc_to_dict,
                             fit_deformation)
from .errors import SchemaError
from .geometry import load_mesh, sample_surface
from .grasp_opt import (GraspScene, LossWeights, optimize, refine_physical)
from .hands.schema import grasp_to_dict
from .metrics import evaluate_grasp, report_to_dict
from .retarget import problem_from_demo, retarget

MANIFEST_SCHEMA = "manifest/1"
CONFIG_SCHEMA = "config/1"


@dataclass
class RunConfig:
    seed: int = 0
    object_samples: int = 2048
    restarts: int = 5
    steps: int = 200
    refine_steps: int = 100
    tau_c: float = TAU_CONTACT
    lattice_k: int = 8
    beta_smooth: float = 10.0
    beta_mag: float = 0.1
    weights: LossWeights = field(default_factory=LossWeights)

    @classmethod
    def from_dict(cls, doc):
        doc = dict(doc)
        schema = doc.pop("schema", CONFIG_SCHEMA)
        if schema != CONFIG_SCHEMA:
            raise SchemaError(f"expected {CONFIG_SCHEMA}, got {schema!r}")
        weights = doc.pop("weights", None)
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(doc) - known
        if unknown:
            raise SchemaError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**doc)
        if weights:
            cfg.weights = LossWeights(**weights)
        _validate_config(cfg)
        return cfg

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self):
        doc = asdict(self)
        doc["schema"] = CONFIG_SCHEMA
        return doc


def _validate_config(cfg):
    if cfg.seed < 0 or cfg.object_samples < 32:
        raise SchemaError("config: seed >= 0 and object_samples >= 32")
    if cfg.restarts < 1 or cfg.steps < 1 or cfg.refine_steps < 0:
        raise SchemaError("config: restarts/steps must be positive")


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _dump(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)


def synthesize_instance(robot, demo, bundle_demo, map_demo, template_samples,
                        instance_mesh, config, hrd_reference=None):
    """Contact diffusion + retarget + optimize + refine + metrics for one
    instance mesh. Returns a dict of result objects."""
    i_samples = sample_surface(instance_mesh, n=config.object_samples,
                               seed=config.seed)
    field_i, fit_report = fit_deformation(
        template_samples, i_samples, k=config.lattice_k,
        beta_smooth=config.beta_smooth, beta_mag=config.beta_mag,
        template_id=map_demo.template_id)
    map_i = correspond(template_samples, i_samples, field_i)
    bundle_i = diffuse_contacts(bundle_demo, map_demo, map_i)

    problem = problem_from_demo(demo, robot)
    init = retarget(problem)
    scene = GraspScene(robot, bundle_i, config.weights)
    report = optimize(robot, init.grasp, bundle_i, weights=config.weights,
                      restarts=config.restarts, steps=config.steps,
                      seed=config.seed, scene=scene)
    refined = refine_physical(robot, report.grasp, bundle_i,
                              object_mesh=instance_mesh,
                              weights=config.weights,
                              max_steps=config.refine_steps)
    metrics = evaluate_grasp(robot, refined, instance_mesh,
                             truth_bundle=bundle_i,
                             hrd_reference=hrd_reference)
    return {
        "grasp": refined,
        "opt_report": report,
        "field": field_i,
        "cmap": map_i,
        "fit_report": fit_report,
        "bundle": bundle_i,
        "metrics": metrics,
        "retarget_trace": init.trace,
    }


def opt_report_to_dict(report, hand_name=""):
    """optreport/1 sidecar; wall clock stays out so outputs hash stably."""
    return {
        "schema": "optreport/1",
        "steps": [{k: float(v) if k != "step" else int(v)
                   for k, v in row.items()} for row in report.steps],
        "restarts": [{"restart": int(r["restart"]),
                      "final_loss": float(r["final_loss"]),
                      "steps_run": int(r["steps_run"])}
                     for r in report.restarts],
        "restart_chosen": int(report.restart_chosen),
        "initial_loss": float(report.initial_loss),
        "final_loss": float(report.final_loss),
        "flags": list(report.flags),
        "grasp": grasp_to_dict(report.grasp, hand=hand_name),
    }


def run_category(category_doc, category_dir, demo, robot, config, out_dir,
                 demo_bundle=None):
    """Run the full loop over a category directory; returns the manifest.

    Per-instance failures are isolated and recorded; the manifest is
    written even when instances fail.
    """
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    category_dir = pathlib.Path(category_dir)

    template_mesh = load_mesh(category_dir / category_doc["template"])
    template_samples = sample_surface(template_mesh, n=config.object_samples,
                                      seed=config.seed)
    if demo_bundle is None:
        demo_bundle = extract_bundle(demo, n_samples=config.object_samples,
                                     seed=config.seed, tau_c=config.tau_c)
    demo_bundle.template_id = category_doc["name"]
    field_demo, _ = fit_deformation(
        template_samples, demo_bundle.object_points, k=config.lattice_k,
        beta_smooth=config.beta_smooth, beta_mag=config.beta_mag,
        template_id=category_doc["name"])
    map_demo = correspond(template_samples, demo_bundle.object_points,
                          field_demo)

    instances = list(category_doc["instances"])
    outputs = []
    failures = []

    for name in instances:
        try:
            mesh = load_mesh(category_dir / name)
            res = synthesize_instance(robot, demo, demo_bundle, map_demo,
                                      template_samples, mesh, config,
                                      hrd_reference=demo.wrist_rotation)
        except Exception as exc:  # noqa: BLE001 - isolation contract
            failures.append({"instance": name, "error": repr(exc),
                             "trace": traceback.format_exc()})
            continue
        stem = pathlib.Path(name).stem
        files = {
            f"{stem}.grasp.json": grasp_to_dict(res["grasp"], hand=robot.name),
            f"{stem}.optreport.json": opt_report_to_dict(res["opt_report"],
                                                         robot.name),
            f"{stem}.dsc.json": dsc_to_dict(res["field"], res["cmap"],
                                            res["fit_report"]),
            f"{stem}.contacts.json": bundle_to_dict(res["bundle"]),
            f"{stem}.metrics.json": report_to_dict(res["metrics"],
                                                   object_name=name,
                                                   grasp_name=f"{stem}.grasp"),
        }
        for fname, doc in files.items():
            _dump(out_dir / fname, doc)
            outputs.append(fname)

    entries = [{"file": f, "sha256": _sha256(out_dir / f)} for f in outputs]
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "category": category_doc["name"],
        "hand": robot.name,
        "config": config.to_dict(),
        "outputs": sorted(entries, key=lambda e: e["file"]),
        "failures": sorted(failures, key=lambda e: e["instance"]),
    }
    _dump(out_dir / "manifest.json", manifest)
    return manifest
