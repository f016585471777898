"""Driving scenario: road scenes with ego-perspective expressions.

Scenes place vehicles, pedestrians and traffic cones on a road canvas
viewed from an ego camera at the bottom-centre of the image — the
viewpoint every expression is anchored to.  The grammar composes four
ego-relative selectors on top of the category/colour attributes the
base grammar uses:

* **side** — "to my left" / "to my right" / "ahead of me", decided by
  the object centre against the ego column with a safety margin;
* **ordinal distance** — "the nearest car", "the second car", ordered
  by Euclidean distance from the ego point with a minimum gap between
  consecutive ranks so ties can never flip the referent;
* **depth relation** — "past the blue truck" (farther from the ego
  than the anchor) / "before the blue truck" (nearer), against an
  anchor that is itself unique by category+colour;
* **colour** — as in the base grammar.

Like :mod:`repro.data.expressions`, every emitted expression is
verified to denote exactly one object under
:meth:`DrivingConstraints.resolve` before it is rendered, so ground
truth stays unambiguous by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.render import render_scene
from repro.data.scenes import COLORS, Scene, SceneObject
from repro.detection.boxes import iou_matrix
from repro.lang.semantics import _apply_depth, _apply_ordinal
from repro.scenarios.registry import (
    Scenario,
    ScenarioSample,
    register_scenario,
)
from repro.text.tokenizer import tokenize

#: Categories that appear in road scenes (truck/cone glyphs live in
#: :data:`repro.data.render.GLYPHS` alongside the base categories).
DRIVING_CATEGORIES: Tuple[str, ...] = ("car", "truck", "person", "cone")

#: How each category is spoken from the driver's seat.
NOUNS: Dict[str, str] = {
    "car": "car",
    "truck": "truck",
    "person": "pedestrian",
    "cone": "cone",
}

ORDINAL_WORDS = ("nearest", "second", "third", "fourth")

#: Pixel margin for the side decision (an object straddling the ego
#: column within this margin is neither clearly left nor right).
_SIDE_MARGIN = 3.0
#: Minimum ego-distance gap between consecutive ordinal ranks.
_ORDINAL_GAP = 3.0
#: Minimum ego-distance difference for a depth ("past"/"before") claim.
_DEPTH_MARGIN = 3.0


def ego_point(scene: Scene) -> Tuple[float, float]:
    """The camera position: bottom-centre of the canvas."""
    return (scene.width / 2.0, float(scene.height))


def ego_distance(obj: SceneObject, scene: Scene) -> float:
    """Euclidean distance from the ego point to the object centre."""
    ex, ey = ego_point(scene)
    cx, cy = obj.center
    return float(np.hypot(cx - ex, cy - ey))


def ego_side(obj: SceneObject, scene: Scene) -> Optional[str]:
    """``"left"`` / ``"right"`` of the ego column, or ``None`` if too close
    to call with the safety margin."""
    ex, _ = ego_point(scene)
    cx, _ = obj.center
    if cx < ex - _SIDE_MARGIN:
        return "left"
    if cx > ex + _SIDE_MARGIN:
        return "right"
    return None


@dataclass(frozen=True)
class DrivingConstraints:
    """An ego-anchored compositional reference.

    ``resolve`` applies the filters in a fixed order: category, colour,
    side, depth relation against the anchor, and finally the ordinal
    rank by ego distance over whatever candidates remain.
    """

    category: str
    color: Optional[str] = None
    side: Optional[str] = None           # "left" | "right"
    #: 1-based rank by ego distance ("nearest" = 1) among candidates.
    ordinal: Optional[int] = None
    relation: Optional[str] = None       # "past" | "before"
    anchor_category: Optional[str] = None
    anchor_color: Optional[str] = None

    def resolve(self, scene: Scene) -> List[SceneObject]:
        candidates = [o for o in scene.objects
                      if o.category == self.category]
        if self.color is not None:
            candidates = [o for o in candidates if o.color == self.color]
        if self.side is not None:
            candidates = [o for o in candidates
                          if ego_side(o, scene) == self.side]
        if self.relation is not None and candidates:
            # The anchor must be unique by category+colour; the depth
            # rule itself is the parser-side one in ``lang.semantics``.
            anchors = [
                o for o in scene.objects
                if o.category == self.anchor_category
                and (self.anchor_color is None or o.color == self.anchor_color)
            ]
            candidates = (_apply_depth(self.relation, candidates,
                                       anchors[0], scene)
                          if len(anchors) == 1 else [])
        if self.ordinal is not None and candidates:
            candidates = _apply_ordinal(self.ordinal, candidates, scene)
        return candidates


class DrivingSceneGenerator:
    """Sample road scenes: rejection-placed driving-category objects."""

    def __init__(self, height: int = 48, width: int = 72,
                 min_objects: int = 5, max_objects: int = 8,
                 min_size: int = 8, max_size: int = 20,
                 max_overlap_iou: float = 0.08,
                 max_place_attempts: int = 60):
        self.height = height
        self.width = width
        self.min_objects = min_objects
        self.max_objects = max_objects
        self.min_size = min_size
        self.max_size = max_size
        self.max_overlap_iou = max_overlap_iou
        self.max_place_attempts = max_place_attempts

    def generate(self, rng: np.random.Generator) -> Scene:
        scene = Scene(self.height, self.width)
        count = int(rng.integers(self.min_objects, self.max_objects + 1))
        # At least two of one vehicle category, so ordinal and depth
        # references have something to rank.
        main = str(rng.choice(("car", "truck")))
        layout = [main, main]
        layout += [str(rng.choice(DRIVING_CATEGORIES))
                   for _ in range(max(0, count - 2))]
        for category in layout:
            placed = self._place(scene, category, rng)
            if placed is not None:
                scene.objects.append(placed)
        if len(scene.objects) < 3:
            return self.generate(rng)
        return scene

    def _place(self, scene: Scene, category: str,
               rng: np.random.Generator) -> Optional[SceneObject]:
        existing = scene.boxes()
        for _ in range(self.max_place_attempts):
            size = float(rng.integers(self.min_size, self.max_size + 1))
            aspect = {"car": 1.6, "truck": 1.4, "person": 0.5,
                      "cone": 0.7}[category]
            width = max(4.0, size * aspect)
            height = size
            if width >= self.width - 2 or height >= self.height - 2:
                continue
            x1 = float(rng.uniform(1.0, self.width - width - 1.0))
            y1 = float(rng.uniform(1.0, self.height - height - 1.0))
            box = np.asarray([x1, y1, x1 + width, y1 + height])
            if len(existing) \
                    and iou_matrix(box[None], existing).max() \
                    > self.max_overlap_iou:
                continue
            return SceneObject(category=category,
                               color=str(rng.choice(COLORS)), box=box)
        return None


class DrivingExpressionGenerator:
    """Verified-unique ego-perspective expressions."""

    def generate(self, scene: Scene, target: SceneObject,
                 rng: np.random.Generator) -> Optional[str]:
        constraints = self._find_unique(scene, target, rng)
        if constraints is None:
            return None
        return self._render(constraints, rng)

    # ------------------------------------------------------------------
    def _candidates(self, scene: Scene, target: SceneObject,
                    rng: np.random.Generator) -> List[DrivingConstraints]:
        base = DrivingConstraints(category=target.category)
        color = replace(base, color=target.color)
        options = [base, color]

        side = ego_side(target, scene)
        if side is not None:
            options.append(replace(base, side=side))
            options.append(replace(color, side=side))

        group = [o for o in scene.objects if o.category == target.category]
        distances = sorted(ego_distance(o, scene) for o in group)
        target_rank = distances.index(ego_distance(target, scene)) + 1
        if target_rank <= len(ORDINAL_WORDS):
            options.append(replace(base, ordinal=target_rank))
            if side is not None:
                side_group = [o for o in group
                              if ego_side(o, scene) == side]
                side_distances = sorted(
                    ego_distance(o, scene) for o in side_group)
                side_rank = side_distances.index(
                    ego_distance(target, scene)) + 1
                if side_rank <= len(ORDINAL_WORDS):
                    options.append(
                        replace(base, side=side, ordinal=side_rank))

        options.extend(self._depth_candidates(scene, target, rng))
        return options

    def _depth_candidates(self, scene: Scene, target: SceneObject,
                          rng: np.random.Generator,
                          ) -> List[DrivingConstraints]:
        results: List[DrivingConstraints] = []
        target_dist = ego_distance(target, scene)
        anchors = [o for o in scene.objects if o is not target]
        rng.shuffle(anchors)
        for anchor in anchors[:4]:
            unique = [o for o in scene.objects
                      if o.category == anchor.category
                      and o.color == anchor.color]
            if len(unique) != 1:
                continue
            gap = target_dist - ego_distance(anchor, scene)
            if gap > _DEPTH_MARGIN:
                relation = "past"
            elif gap < -_DEPTH_MARGIN:
                relation = "before"
            else:
                continue
            results.append(DrivingConstraints(
                category=target.category, relation=relation,
                anchor_category=anchor.category, anchor_color=anchor.color))
            results.append(DrivingConstraints(
                category=target.category, color=target.color,
                relation=relation, anchor_category=anchor.category,
                anchor_color=anchor.color))
        return results

    def _find_unique(self, scene: Scene, target: SceneObject,
                     rng: np.random.Generator,
                     ) -> Optional[DrivingConstraints]:
        options = [c for c in self._candidates(scene, target, rng)
                   if self._denotes(scene, c, target)]
        if not options:
            return None
        options.sort(key=self._complexity)
        simplest = self._complexity(options[0])
        pool = [c for c in options if self._complexity(c) <= simplest + 1]
        return pool[int(rng.integers(0, len(pool)))]

    @staticmethod
    def _denotes(scene: Scene, constraints: DrivingConstraints,
                 target: SceneObject) -> bool:
        resolved = constraints.resolve(scene)
        return len(resolved) == 1 and resolved[0] is target

    @staticmethod
    def _complexity(constraints: DrivingConstraints) -> int:
        return sum(attr is not None for attr in (
            constraints.color, constraints.side, constraints.ordinal,
            constraints.relation))

    # ------------------------------------------------------------------
    def _render(self, c: DrivingConstraints,
                rng: np.random.Generator) -> str:
        words = ["the"]
        if c.ordinal is not None:
            words.append(ORDINAL_WORDS[c.ordinal - 1])
        if c.color is not None:
            words.append(c.color)
        words.append(NOUNS[c.category])
        phrase = " ".join(words)
        if c.side is not None:
            phrase = f"{phrase} {self._side_phrase(c.side, rng)}"
        if c.relation is not None:
            anchor = f"the {c.anchor_color} {NOUNS[c.anchor_category]}"
            joiner = "past" if c.relation == "past" else "before"
            phrase = f"{phrase} {joiner} {anchor}"
        return phrase

    @staticmethod
    def _side_phrase(side: str, rng: np.random.Generator) -> str:
        variants = {
            "left": ("to my left", "on my left"),
            "right": ("to my right", "on my right"),
        }[side]
        return str(rng.choice(variants))


def build_driving(num_scenes: int,
                  rng: np.random.Generator,
                  ) -> Dict[str, List[ScenarioSample]]:
    """Generate the driving scenario's eval split."""
    scene_gen = DrivingSceneGenerator()
    expr_gen = DrivingExpressionGenerator()
    samples: List[ScenarioSample] = []
    guard = 0
    while len(samples) < num_scenes * 2:
        guard += 1
        if guard > max(50, num_scenes * 50):
            raise RuntimeError(
                "driving scenario generation stalled; the ego grammar "
                "cannot uniquely describe enough targets")
        scene = scene_gen.generate(rng)
        image = render_scene(scene, rng=rng)
        indices = list(range(len(scene.objects)))
        rng.shuffle(indices)
        produced = 0
        for index in indices:
            if produced >= 2:
                break
            target = scene.objects[index]
            query = expr_gen.generate(scene, target, rng)
            if query is None:
                continue
            samples.append(ScenarioSample(
                image=image, query=query, tokens=tokenize(query),
                target_box=target.box.copy(), target_index=index,
                scene=scene, split="eval", query_type="single",
                all_target_boxes=target.box.copy().reshape(1, 4),
                scenario="driving"))
            produced += 1
    return {"eval": samples[: num_scenes * 2]}


register_scenario(Scenario(
    name="driving",
    description=("road scenes with ego-perspective expressions: side, "
                 "ordinal distance and past/before depth relations"),
    build=build_driving,
))
