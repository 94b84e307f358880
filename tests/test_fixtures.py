"""Demo authoring on the shared human hand.

``builtin_hand`` parses each shipped hand once per process, so every
authored demo poses the same ``HandSpec``. These tests pin that sharing
it changes no output, and that a repeated demo builds no hand data again.
"""

import json
from importlib import resources

import numpy as np
import pytest

from graspsynth.contact import demonstration_from_hand
from graspsynth.fixtures import (CATEGORY_TEMPLATES, author_wrap_demo,
                                 cylinder_demo, template_demo)
from graspsynth.hands import HandSpec, handspec_from_dict


def _same_grasp(a, b):
    return all(np.array_equal(getattr(a, k), getattr(b, k))
               for k in ("q", "rotation", "translation"))


def _same_demo(a, b):
    points = ("segments", "anchors", "task_points")
    return (a.q == b.q
            and np.array_equal(a.wrist_rotation, b.wrist_rotation)
            and np.array_equal(a.wrist_translation, b.wrist_translation)
            and all(getattr(a, k).keys() == getattr(b, k).keys()
                    and all(np.array_equal(v, getattr(b, k)[name])
                            for name, v in getattr(a, k).items())
                    for k in points))


def test_cylinder_demo_repeats_on_one_spec():
    demo1, spec1, grasp1, _ = cylinder_demo()
    demo2, spec2, grasp2, _ = cylinder_demo()
    assert spec1 is spec2
    assert _same_grasp(grasp1, grasp2)
    assert _same_demo(demo1, demo2)


def test_second_cylinder_demo_builds_no_sample_layout(monkeypatch):
    # counts, times nothing: the shared spec keeps its stacked sample
    # layout, so a repeated demo draws no hand samples again
    cylinder_demo()
    built = []
    layout = HandSpec._layout

    def counting(self):
        if self._sample_layout is None:
            built.append(self.name)
        return layout(self)

    monkeypatch.setattr(HandSpec, "_layout", counting)
    cylinder_demo()
    assert built == []


@pytest.mark.parametrize("category", sorted(CATEGORY_TEMPLATES))
def test_template_demo_equals_demo_on_fresh_spec(category):
    demo, _, grasp, template = template_demo(category)
    path = resources.files("graspsynth").joinpath("data/hands/human.json")
    fresh = handspec_from_dict(json.loads(path.read_text()))
    fresh_grasp = author_wrap_demo(fresh, template)
    assert _same_grasp(grasp, fresh_grasp)
    assert _same_demo(demo, demonstration_from_hand(fresh, fresh_grasp,
                                                    template))
