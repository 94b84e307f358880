"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup``,
hands out the units of a round, and checks every output. Every round
repeats the same units on the same inputs; the round number only names
them. A unit is one call a user of the program would make. Boundaries are
called through their module (``grasp_opt.optimize``, not a name
imported here), so the tracer's wrappers see them in a traced pass.

Why each workload exists is written up in ``RATIONALE.md``.
"""

import hashlib
import json
import math
import pathlib

import numpy as np

from graspsynth import contact, fit, fixtures, grasp_opt, metrics, pipeline
from graspsynth import correspondence
from graspsynth import transforms as tf
from graspsynth.closure import STOP_SDF
from graspsynth.grasp_opt import REFINE_PENETRATION_FAIL
from graspsynth.geometry import MeshSDF, sample_surface, save_obj
from graspsynth.hands import builtin_hand, forward_kinematics, schema

INPUTS = pathlib.Path(__file__).resolve().parent / "inputs"
HANDSPEC = "demonstrator.handspec.json"


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
    return h.hexdigest()


def _hand_points(spec, grasp):
    return forward_kinematics(spec, grasp).all_sample_points()[0]


def _write_demonstrator(directory):
    schema.save_handspec(pathlib.Path(directory) / HANDSPEC,
                         builtin_hand("human"))


class Unit:
    """One call of the program, named so traced and untraced runs align."""

    def __init__(self, uid, fn, **info):
        self.uid = uid
        self.fn = fn
        self.info = info


# ---------------------------------------------------------------------------


class SelfTransfer:
    """Criterion 5: optimize the human wrap demo on the cylinder."""

    name = "self_transfer"
    bundles = 10          # units per round, one object sampling each
    restarts = 2
    steps = 12
    object_samples = 2048
    warmup = True         # a repeat of unit 0 checks bit-determinism

    def setup(self, seed, workdir):
        save_obj(workdir / "cylinder.obj", fixtures.cylinder_mesh())
        _write_demonstrator(workdir)
        demo, spec, grasp = contact.load_demo(INPUTS / "cylinder.demo.json",
                                              base_dir=workdir)
        bundles = [contact.extract_bundle(demo, n_samples=self.object_samples,
                                          seed=seed * self.bundles + k)
                   for k in range(self.bundles)]
        return {"seed": seed, "spec": spec, "grasp": grasp,
                "mesh": demo.object_mesh, "bundles": bundles}

    def sizes(self, state):
        return {"hand": state["spec"].name, "restarts": self.restarts,
                "steps": self.steps, "object_samples": self.object_samples,
                "units_per_round": self.bundles}

    def round_units(self, state, r):
        units = []
        for k, bundle in enumerate(state["bundles"]):
            opt_seed = state["seed"] * 1000 + k

            def run(bundle=bundle, opt_seed=opt_seed):
                return grasp_opt.optimize(
                    state["spec"], state["grasp"], bundle,
                    restarts=self.restarts, steps=self.steps, seed=opt_seed)
            units.append(Unit(f"r{r}.b{k}", run, bundle=k, seed=opt_seed))
        return units

    def digest(self, report):
        rows = [[row[k] for k in sorted(row)] for row in report.steps]
        return _digest(np.ravel(rows), [report.restart_chosen],
                       report.grasp.q, report.grasp.rotation,
                       report.grasp.translation)

    def check(self, state, unit, report):
        if not report.final_loss <= report.initial_loss:
            return [f"final loss {report.final_loss} > initial "
                    f"{report.initial_loss}"]
        return []

    def quality(self, state, outputs):
        sdf = MeshSDF(state["mesh"])
        depths = [float(np.maximum(-sdf.query(_hand_points(state["spec"],
                                                            r.grasp)),
                                   0.0).max()) for r in outputs]
        return {"neg_final_loss": -sum(r.final_loss for r in outputs),
                "penetration_cm_max": max(depths)}


# ---------------------------------------------------------------------------


class CategoryTransfer:
    """``pipeline.run_category`` on the bottle category, three hands."""

    name = "category_transfer"
    category = "bottle"
    hands = ("coupled9", "quad16", "pinch1")
    restarts = 1
    steps = 10
    object_samples = 2048
    warmup = False

    def setup(self, seed, workdir):
        cat_dir = workdir / self.category
        fixtures.write_category(cat_dir, self.category)
        _write_demonstrator(cat_dir)
        doc, cat_dir = fixtures.load_category(cat_dir)
        demo, _, _ = contact.load_demo(INPUTS / f"{self.category}.demo.json",
                                       base_dir=cat_dir)
        config = pipeline.RunConfig(seed=seed, restarts=self.restarts,
                                    steps=self.steps,
                                    object_samples=self.object_samples)
        bundle = contact.extract_bundle(demo, n_samples=config.object_samples,
                                        seed=config.seed, tau_c=config.tau_c)
        return {"doc": doc, "dir": cat_dir, "demo": demo, "bundle": bundle,
                "config": config, "out": workdir / "out",
                "robots": {h: builtin_hand(h) for h in self.hands}}

    def sizes(self, state):
        return {"category": self.category,
                "instances": len(state["doc"]["instances"]),
                "hands": list(self.hands), "restarts": self.restarts,
                "steps": self.steps, "object_samples": self.object_samples,
                "units_per_round": len(self.hands)}

    def round_units(self, state, r):
        instances = state["doc"]["instances"]
        units = []
        for h, hand in enumerate(self.hands):
            instance = instances[(1 + h) % len(instances)]
            uid = f"r{r}.{hand}.{pathlib.Path(instance).stem}"

            def run(hand=hand, instance=instance, uid=uid):
                out = state["out"] / uid
                manifest = pipeline.run_category(
                    dict(state["doc"], instances=[instance]), state["dir"],
                    state["demo"], state["robots"][hand], state["config"],
                    out, demo_bundle=state["bundle"])
                return {"manifest": manifest, "out": out}
            units.append(Unit(uid, run, hand=hand, instance=instance))
        return units

    def digest(self, output):
        return [(e["file"], e["sha256"])
                for e in output["manifest"]["outputs"]]

    def check(self, state, unit, output):
        manifest, out = output["manifest"], output["out"]
        problems = [f"manifest failure: {f['error']}"
                    for f in manifest["failures"]]
        files = [e["file"] for e in manifest["outputs"]]
        if len(files) != 5:
            problems.append(f"expected 5 outputs, got {len(files)}")
        for name in files:
            path = out / name
            try:
                if name.endswith(".grasp.json"):
                    schema.load_grasp(path)
                elif name.endswith(".contacts.json"):
                    contact.load_bundle(path)
                elif name.endswith(".dsc.json"):
                    with open(path) as fh:
                        correspondence.dsc_from_dict(json.load(fh))
                elif name.endswith(".metrics.json"):
                    with open(path) as fh:
                        report = metrics.report_from_dict(json.load(fh))
                    for key in ("epsilon", "penetration_depth",
                                "functionality_precision",
                                "functionality_recall"):
                        if not math.isfinite(getattr(report, key)):
                            problems.append(f"{name}: {key} is not finite")
                    if report.penetration_depth >= REFINE_PENETRATION_FAIL:
                        problems.append(f"{name}: penetration "
                                        f"{report.penetration_depth:.3f} cm")
                elif name.endswith(".optreport.json"):
                    with open(path) as fh:
                        doc = json.load(fh)
                    if doc.get("schema") != "optreport/1":
                        problems.append(f"{name}: schema {doc.get('schema')}")
                    schema.grasp_from_dict(doc["grasp"])
                    if not math.isfinite(doc["final_loss"]):
                        problems.append(f"{name}: final loss is not finite")
            except Exception as exc:  # noqa: BLE001 - any reload error fails
                problems.append(f"{name}: {exc!r}")
        return problems

    def quality(self, state, outputs):
        reports, losses = [], []
        for output in outputs:
            for entry in output["manifest"]["outputs"]:
                with open(output["out"] / entry["file"]) as fh:
                    doc = json.load(fh)
                if entry["file"].endswith(".metrics.json"):
                    reports.append(metrics.report_from_dict(doc))
                elif entry["file"].endswith(".optreport.json"):
                    losses.append(doc["initial_loss"] - doc["final_loss"])
        return {
            "loss_drop": sum(losses),
            "closure_success_rate": float(np.mean(
                [r.closure_success for r in reports])),
            "contact_precision_mean": float(np.mean(
                [r.functionality_precision for r in reports])),
            "contact_recall_mean": float(np.mean(
                [r.functionality_recall for r in reports])),
        }


# ---------------------------------------------------------------------------


class AuthorDemos:
    """Author the cylinder wrap demo, as the stored input was made."""

    name = "author_demos"
    warmup = False

    # Authoring closes joints in 0.5 degree substeps and freezes each at a
    # distance threshold, so a last-bit change in an SDF value can move a
    # joint by one substep; the stored demos of other objects differ from
    # this one by a degree or more.
    TOLERANCE = {"q": np.deg2rad(0.5) * 1.01, "rotation": 1e-6,
                 "translation": 1e-6}

    def setup(self, seed, workdir):
        save_obj(workdir / "cylinder.obj", fixtures.cylinder_mesh())
        _write_demonstrator(workdir)
        _, _, grasp = contact.load_demo(INPUTS / "cylinder.demo.json",
                                        base_dir=workdir)
        return {"stored": {"q": grasp.q, "rotation": grasp.rotation,
                           "translation": grasp.translation}}

    def sizes(self, state):
        return {"demos": ["cylinder"], "hand": "human", "units_per_round": 1}

    def round_units(self, state, r):
        return [Unit(f"r{r}.cylinder", lambda: fixtures.cylinder_demo())]

    def digest(self, output):
        grasp = output[2]
        return _digest(grasp.q, grasp.rotation, grasp.translation)

    def check(self, state, unit, output):
        _, spec, grasp, mesh = output
        problems = []
        for what, want in state["stored"].items():
            got = getattr(grasp, what)
            if not np.allclose(got, want, rtol=0.0, atol=self.TOLERANCE[what]):
                problems.append(f"authored {what} differs from the stored "
                                f"demo by {np.abs(got - want).max():.3g}")
        gap = float(MeshSDF(mesh).query(_hand_points(spec, grasp)).min())
        if not gap <= 2 * STOP_SDF:
            problems.append(f"authored hand does not touch: gap {gap:.4f} cm")
        return problems

    def quality(self, state, outputs):
        return {}


# ---------------------------------------------------------------------------


class FitView:
    """``fit.fit_state`` on half-view clouds against three templates."""

    name = "fit_view"
    categories = ("bottle", "tumbler", "wand")
    views_per_category = 2
    cloud_samples = 2048
    # The descent of one template stops where its line search fails,
    # after 25 to 90 steps depending on the cloud the seed draws, so fit
    # times varied by seed more than by code. At 30 steps nearly every
    # template stops at the cap and the fitted states match those of the
    # default 300 to within the spread of the quality metrics. Nine
    # views instead of six made the largest tilt error, a maximum over
    # the views, spread by 0.24 across seeds.
    max_iters = 30
    warmup = False

    def setup(self, seed, workdir):
        library = fit.TemplateLibrary.from_meshes(
            {c: fixtures.CATEGORY_TEMPLATES[c]() for c in self.categories})
        for template in library:
            template.sdf_grid, template.dense_points    # built lazily
        views = [self._view(seed, k) for k in
                 range(len(self.categories) * self.views_per_category)]
        return {"library": library, "views": views}

    def sizes(self, state):
        return {"templates": list(self.categories),
                "views_per_round": len(self.categories)
                * self.views_per_category,
                "cloud_samples": self.cloud_samples,
                "max_iters": self.max_iters}

    def _view(self, seed, k):
        """Half view of a scaled, tilted, warped instance.

        The pose follows a fixed pattern: which warped instance, the
        scale, a 12 degree tilt about a horizontal axis, and a camera on
        the side of the shape features. The seed draws the surface
        samples the camera sees.
        """
        category = self.categories[k % len(self.categories)]
        variant = k // len(self.categories)
        template, meshes, _ = fixtures.category_instances(category)
        mesh = meshes[(1, 3)[variant % 2]]
        s = (0.95, 1.1)[variant % 2]
        tilt_axis = np.deg2rad(60.0 * k)
        R = tf.axis_angle_to_matrix(
            [np.cos(tilt_axis), np.sin(tilt_axis), 0.0], np.deg2rad(12.0))
        T = np.array([1.0, -0.5, 0.5]) * (1 + variant % 2)
        lo, hi = mesh.bounds()
        world = mesh.transformed(np.eye(3), -(lo + hi) / 2).scaled(s)
        world = world.transformed(R, T)
        cloud = sample_surface(world, n=self.cloud_samples,
                               seed=seed * 1000 + k)
        keep = cloud.normals @ np.array([1.0, 0.0, 0.2]) > 0.0
        t_lo, t_hi = template.bounds()
        s_true = s * np.linalg.norm(hi - lo) / np.linalg.norm(t_hi - t_lo)
        return {"category": category, "points": cloud.points[keep],
                "normals": cloud.normals[keep], "s": s_true, "R": R}

    def round_units(self, state, r):
        units = []
        library = state["library"]
        for k, view in enumerate(state["views"]):
            def run(view=view):
                first = next(iter(library))
                init = fit.icp_init(view["points"], first)
                state_ = fit.fit_state(view["points"], library, init,
                                       normals=view["normals"],
                                       max_iters=self.max_iters)
                return {"state": state_, "view": view}
            units.append(Unit(f"r{r}.v{k}.{view['category']}", run,
                              category=view["category"]))
        return units

    def digest(self, output):
        return json.dumps(fit.state_to_dict(output["state"]), sort_keys=True)

    def check(self, state, unit, output):
        got = output["state"].template_id
        want = output["view"]["category"]
        return [] if got == want else [f"selected {got}, generated {want}"]

    def quality(self, state, outputs):
        """Largest scale error and largest tilt of the fitted object axis.

        The rotation error is the angle between the fitted and the true
        z axis of the template. Spin about that axis is left out: the wand
        and the tumbler are nearly symmetric about it, and their spin
        error jumps between seeds (1 to 29 degrees) on unchanged code.
        """
        scale, rot = [], []
        for output in outputs:
            fitted, view = output["state"], output["view"]
            scale.append(abs(fitted.s - view["s"]) / view["s"])
            axis = tf.quat_to_matrix(fitted.rotation)[:, 2]
            rot.append(np.degrees(np.arccos(np.clip(
                axis @ view["R"][:, 2], -1.0, 1.0))))
        return {"fit_scale_err_max": float(max(scale)),
                "fit_rot_deg_max": float(max(rot))}


WORKLOADS = {w.name: w for w in (SelfTransfer(), CategoryTransfer(),
                                 AuthorDemos(), FitView())}
