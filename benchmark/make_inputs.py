"""Author the benchmark's stored demonstrations with the program itself.

Writes the two ``demo/1`` files the workloads load into ``inputs/``: the
wrap demo on the bottle template (``fixtures.template_demo``, as
``graspsynth fixtures`` does) and the cylinder demo
(``fixtures.cylinder_demo``). The benchmark loads these instead of
authoring them, so its set-up time measures loading; the
``author_demos`` workload authors the cylinder demo again and checks
that it still matches.

Run from the repository root:  python3 benchmark/make_inputs.py
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from graspsynth.contact import save_demo  # noqa: E402
from graspsynth.fixtures import cylinder_demo, template_demo  # noqa: E402
from workloads import HANDSPEC, INPUTS  # noqa: E402


def main():
    INPUTS.mkdir(exist_ok=True)
    _, _, grasp, _ = template_demo("bottle")
    save_demo(INPUTS / "bottle.demo.json", object_path="bottle_0.obj",
              handspec_path=HANDSPEC, grasp=grasp,
              note="template_demo('bottle')")
    _, _, grasp, _ = cylinder_demo()
    save_demo(INPUTS / "cylinder.demo.json", object_path="cylinder.obj",
              handspec_path=HANDSPEC, grasp=grasp, note="cylinder_demo()")


if __name__ == "__main__":
    main()
