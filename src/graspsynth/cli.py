"""Command-line interface.

Subcommands: contacts, synthesize, fit, eval, export, fixtures. Every
command honors --seed and is deterministic for identical inputs. Exit
codes: 0 success, 1 partial internal failure, 2 invalid input.
"""

import argparse
import json
import pathlib
import sys

import numpy as np

from .contact import extract_bundle, load_bundle, load_demo, save_bundle
from .errors import GraspSynthError, InvalidInputError, SchemaError
from .fit import TemplateLibrary, fit_state, icp_init, save_state
from .fixtures import CATEGORY_TEMPLATES, load_category, template_demo, write_category
from .geometry import (MeshSDF, load_mesh, load_point_cloud, merge_meshes,
                       save_ply)
from .hands.model import forward_kinematics
from .hands.schema import (builtin_hand, builtin_hand_names, load_grasp,
                           load_handspec, save_handspec)
from .metrics import evaluate_grasp, write_csv
from .pipeline import RunConfig, run_category


def _resolve_hand(name_or_path):
    if name_or_path in builtin_hand_names():
        return builtin_hand(name_or_path)
    return load_handspec(name_or_path)


def _load_config(args):
    if getattr(args, "config", None):
        cfg = RunConfig.from_file(args.config)
    else:
        cfg = RunConfig()
    for key in ("seed", "restarts", "steps", "object_samples"):
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    return cfg


def cmd_contacts(args):
    demo, spec, grasp = load_demo(args.demo)
    bundle = extract_bundle(demo, n_samples=args.samples, seed=args.seed,
                            tau_c=args.tau_c)
    save_bundle(args.out, bundle)
    active = sum(1 for idx, _ in bundle.anchor_assignment.values() if len(idx))
    print(f"wrote {args.out}: |O^c|={len(bundle.contact_object)} "
          f"active_anchors={active}/{len(bundle.anchor_assignment)}")
    if len(bundle.contact_object) == 0:
        print("warning: demonstration hand makes no contact", file=sys.stderr)
    return 0


def cmd_synthesize(args):
    config = _load_config(args)
    doc, category_dir = load_category(args.category)
    robot = _resolve_hand(args.hand)
    demo, _, _ = load_demo(args.demo)
    manifest = run_category(doc, category_dir, demo, robot, config, args.out)
    ok = len(manifest["outputs"]) > 0
    print(f"category {manifest['category']}: "
          f"{len(manifest['outputs'])} outputs, "
          f"{len(manifest['failures'])} failures -> {args.out}")
    for failure in manifest["failures"]:
        print(f"failed {failure['instance']}: {failure['error']}",
              file=sys.stderr)
    return 0 if ok else 1


def _library_from_dir(path):
    path = pathlib.Path(path)
    meshes = {}
    for f in sorted(path.iterdir()):
        if f.suffix.lower() in (".obj", ".ply") and f.is_file():
            meshes[f.stem] = load_mesh(f)
    if not meshes:
        raise InvalidInputError(f"{path}: no template meshes found")
    return TemplateLibrary.from_meshes(meshes)


def cmd_fit(args):
    points, normals = load_point_cloud(args.cloud)
    if len(points) == 0:
        raise InvalidInputError("empty point cloud")
    library = _library_from_dir(args.library)
    first = next(iter(library))
    # ICP checks the point count before normals are estimated from it
    init = icp_init(points, first)
    if normals is None:
        normals = estimate_normals(points)
    state = fit_state(points, library, init, normals=normals)
    save_state(args.out, state)
    print(f"wrote {args.out}: template={state.template_id} "
          f"s={state.s:.4f} loss={state.losses['total']:.4f}")
    return 0


def estimate_normals(points):
    """16-NN plane-fit normals, oriented away from the centroid."""
    from scipy.spatial import cKDTree
    tree = cKDTree(points)
    _, idx = tree.query(points, k=min(16, len(points)))
    normals = np.zeros_like(points)
    centroid = points.mean(axis=0)
    for i in range(len(points)):
        nb = points[idx[i]]
        centered = nb - nb.mean(axis=0)
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        n = vt[-1]
        if np.dot(n, points[i] - centroid) < 0:
            n = -n
        normals[i] = n
    return normals


def cmd_eval(args):
    robot = _resolve_hand(args.hand)
    mesh = load_mesh(args.object)
    if not mesh.is_watertight():
        raise InvalidInputError(
            f"{args.object}: object mesh is not watertight")
    truth = load_bundle(args.truth) if args.truth else None
    grasps = [load_grasp(gpath) for gpath in args.grasp]
    object_sdf = MeshSDF(mesh)
    rows = []
    for gpath, grasp in zip(args.grasp, grasps):
        report = evaluate_grasp(robot, grasp, object_sdf, truth_bundle=truth)
        rows.append((pathlib.Path(args.object).name,
                     pathlib.Path(gpath).stem, report))
    write_csv(args.out, rows)
    print(f"wrote {args.out}: {len(rows)} rows")
    return 0


def cmd_export(args):
    robot = _resolve_hand(args.hand)
    grasp = load_grasp(args.grasp)
    posed = forward_kinematics(robot, grasp)
    meshes = []
    labels = []
    names = []
    for i in robot.segment_links():
        local = robot.link_meshes()[i]
        world = local.transformed(posed.rotations[i], posed.translations[i])
        meshes.append(world)
        labels.extend([len(names)] * len(world.faces))
        names.append(robot.links[i].name)
    if args.object:
        obj = load_mesh(args.object)
        meshes.append(obj)
        labels.extend([len(names)] * len(obj.faces))
        names.append("object")
    combined = merge_meshes(meshes)
    comments = [f"part {k} {name}" for k, name in enumerate(names)]
    if grasp.flags:
        comments.append("flags " + ",".join(grasp.flags))
    save_ply(args.out, combined.vertices, combined.faces,
             face_labels=np.asarray(labels), comments=comments)
    print(f"wrote {args.out}: {len(names)} parts, {len(combined.faces)} faces")
    return 0


def cmd_fixtures(args):
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    categories = args.categories or sorted(CATEGORY_TEMPLATES)
    for name in categories:
        cat_dir = out / name
        write_category(cat_dir, name, n=args.instances)
        demo, spec, grasp, template = template_demo(name)
        handspec_path = cat_dir / "demonstrator.handspec.json"
        save_handspec(handspec_path, spec)
        from .contact import save_demo
        save_demo(cat_dir / "demo.json",
                  object_path=f"{name}_0.obj",
                  handspec_path="demonstrator.handspec.json",
                  grasp=grasp, note=f"synthetic wrap demo on {name} template")
        print(f"wrote fixture category {cat_dir}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="graspsynth",
        description="Functional grasp synthesis and evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("contacts", help="extract a contact bundle from a demo")
    p.add_argument("--demo", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=int, default=2048)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tau-c", type=float, default=0.5, dest="tau_c")
    p.set_defaults(func=cmd_contacts)

    p = sub.add_parser("synthesize",
                       help="run the full pipeline over a category")
    p.add_argument("--category", required=True)
    p.add_argument("--demo", required=True)
    p.add_argument("--hand", required=True,
                   help=f"builtin ({', '.join(builtin_hand_names())}) "
                        "or a handspec/1 path")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--restarts", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--object-samples", type=int, dest="object_samples")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("fit", help="estimate object state from a point cloud")
    p.add_argument("--cloud", required=True, help="PLY point cloud")
    p.add_argument("--library", required=True,
                   help="directory of template meshes")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval", help="score grasps against an object")
    p.add_argument("--grasp", required=True, nargs="+")
    p.add_argument("--hand", required=True)
    p.add_argument("--object", required=True)
    p.add_argument("--truth", help="contacts/1 bundle for functionality P/R")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export", help="write a posed viewer mesh (PLY)")
    p.add_argument("--grasp", required=True)
    p.add_argument("--hand", required=True)
    p.add_argument("--object")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("fixtures",
                       help="write synthetic categories and demos")
    p.add_argument("--out", required=True)
    p.add_argument("--categories", nargs="*")
    p.add_argument("--instances", type=int, default=4)
    p.set_defaults(func=cmd_fixtures)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInputError, SchemaError, FileNotFoundError, KeyError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GraspSynthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
