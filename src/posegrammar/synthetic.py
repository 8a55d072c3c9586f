"""Synthetic scenes: seeded person layouts with known pose and attributes.

Scenes are the benchmark substrate.  Each person is a jittered copy of a
canonical upright skeleton plus a full attribute assignment.  Generators
are deterministic functions of their seed, so the whole benchmark can be
regenerated byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .grammar import AttrId, AttributeDef, NodeId, default_attributes, require_atomic_joints
from .jsonio import SCHEMA_VERSION, read_json, versioned, write_json
from .jsonio import argument, array, check_fields, count, instance, mapping, nonnegative, number, optional, record, text

# Canonical joint offsets (pixels) relative to the torso center, y down.
CANONICAL_POSE: dict[NodeId, tuple[float, float]] = {
    "head": (0.0, -35.0),
    "torso": (0.0, 0.0),
    "l_shoulder": (-16.0, -22.0),
    "r_shoulder": (16.0, -22.0),
    "l_upper_arm": (-20.0, -6.0),
    "r_upper_arm": (20.0, -6.0),
    "l_lower_arm": (-22.0, 12.0),
    "r_lower_arm": (22.0, 12.0),
    "l_hip": (-10.0, 22.0),
    "r_hip": (10.0, 22.0),
    "l_upper_leg": (-11.0, 42.0),
    "r_upper_leg": (11.0, 42.0),
    "l_lower_leg": (-12.0, 62.0),
    "r_lower_leg": (12.0, 62.0),
}

# Approximate box extents per atomic part.
PART_BOX_SIZES: dict[NodeId, tuple[float, float]] = {
    "head": (24.0, 24.0),
    "torso": (34.0, 46.0),
    "l_shoulder": (18.0, 18.0),
    "r_shoulder": (18.0, 18.0),
    "l_upper_arm": (18.0, 26.0),
    "r_upper_arm": (18.0, 26.0),
    "l_lower_arm": (16.0, 24.0),
    "r_lower_arm": (16.0, 24.0),
    "l_hip": (18.0, 18.0),
    "r_hip": (18.0, 18.0),
    "l_upper_leg": (18.0, 30.0),
    "r_upper_leg": (18.0, 30.0),
    "l_lower_leg": (18.0, 30.0),
    "r_lower_leg": (18.0, 30.0),
}


@dataclass(frozen=True)
class Person:
    """Ground truth for one person: 14 joints plus attribute values."""

    joints: Mapping[NodeId, tuple[float, float]]
    attributes: Mapping[AttrId, str]

    def __post_init__(self) -> None:
        check_fields(self, _PERSON_FIELDS)
        require_atomic_joints(self.joints, "person")

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "Person":
        return cls(**_PERSON_FIELDS.present(doc))


_PERSON_FIELDS = record(joints=mapping(array(number, 2)), attributes=optional(mapping(text), {}))


@dataclass(frozen=True)
class SyntheticScene:
    """A set of persons on a blank canvas of the given size; a person may
    also be given as the JSON object a scene file holds."""

    persons: tuple[Person, ...]
    image_size: tuple[int, int]

    def __post_init__(self) -> None:
        check_fields(self, _SCENE_FIELDS)
        w, h = self.image_size
        if not self.persons:
            raise ValidationError("scene needs at least one person")
        for i, person in enumerate(self.persons):
            for part, (x, y) in person.joints.items():
                if not (0.0 <= x <= w and 0.0 <= y <= h):
                    raise ValidationError(
                        f"person {i} joint {part!r} at ({x}, {y}) outside image {(w, h)}"
                    )

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "image_size": list(self.image_size),
            "persons": [
                {
                    "joints": {p: [x, y] for p, (x, y) in person.joints.items()},
                    "attributes": dict(person.attributes),
                }
                for person in self.persons
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "SyntheticScene":
        return cls(**_SCENE_FIELDS.present(versioned(doc)))


_SCENE_FIELDS = record(image_size=array(count, 2), persons=array(instance(Person, Person.from_json_dict)))


def save_scene(scene: SyntheticScene, path: str) -> None:
    write_json(path, scene.to_json_dict())


def load_scene(path: str) -> SyntheticScene:
    return read_json(path, SyntheticScene.from_json_dict)


def person_bbox(person: Person) -> tuple[float, float, float, float]:
    """Axis-aligned joint bounding box padded by 8 pixels, as (x0, y0, w, h)."""
    pad = 8.0
    xs = [x for x, _ in person.joints.values()]
    ys = [y for _, y in person.joints.values()]
    x0, y0 = min(xs) - pad, min(ys) - pad
    return (x0, y0, max(xs) + pad - x0, max(ys) + pad - y0)


def _sample_attributes(rng: np.random.Generator, attr_defs: Sequence[AttributeDef]) -> dict[AttrId, str]:
    return {a.id: a.domain[int(rng.integers(0, len(a.domain)))] for a in attr_defs}


def _pose_sigma(value) -> float:
    """The joint jitter ``pose_sigma``: a number >= 0."""
    sigma = argument("pose_sigma", value, number)
    if sigma < 0.0:
        raise ValidationError(f"pose_sigma must be >= 0, got {sigma}")
    return sigma


def _sample_person(
    rng: np.random.Generator,
    center: tuple[float, float],
    attributes: Mapping[AttrId, str],
    image_size: tuple[int, int],
    pose_sigma: float,
) -> Person:
    w, h = image_size
    joints = {}
    for part, (ox, oy) in CANONICAL_POSE.items():
        x = center[0] + ox + float(rng.normal(0.0, pose_sigma))
        y = center[1] + oy + float(rng.normal(0.0, pose_sigma))
        joints[part] = (min(max(x, 0.0), float(w)), min(max(y, 0.0), float(h)))
    return Person(joints=joints, attributes=attributes)


def single_person_scene(
    seed: int,
    *,
    image_size: tuple[int, int] = (320, 240),
    pose_sigma: float = 6.0,
    attr_defs: Sequence[AttributeDef] | None = None,
) -> SyntheticScene:
    """One person near the canvas center, pose and attributes seeded."""
    pose_sigma = _pose_sigma(pose_sigma)
    attr_defs = default_attributes() if attr_defs is None else tuple(attr_defs)
    rng = np.random.default_rng(argument("seed", seed, nonnegative))
    w, h = image_size
    center = (
        w * 0.5 + float(rng.normal(0.0, w * 0.05)),
        h * 0.5 + float(rng.normal(0.0, h * 0.04)),
    )
    attrs = _sample_attributes(rng, attr_defs)
    person = _sample_person(rng, center, attrs, image_size, pose_sigma)
    return SyntheticScene(persons=(person,), image_size=image_size)


def two_person_scene(
    seed: int,
    *,
    image_size: tuple[int, int] = (320, 240),
    spacing: float = 24.0,
    pose_sigma: float = 6.0,
    attr_defs: Sequence[AttributeDef] | None = None,
) -> SyntheticScene:
    """Target person plus a close distractor standing beside them.

    The first person is the target.  The distractor stands ``spacing``
    pixels to the side, close enough that its limbs are geometrically
    plausible continuations of the target's, which is what makes joint
    pose-and-attribute reasoning pay off over pose alone.  When the two
    draw the same attributes, the distractor's first attribute moves to
    another value, so with any attribute the two never agree on them all.
    """
    pose_sigma = _pose_sigma(pose_sigma)
    spacing = argument("spacing", spacing, number)
    attr_defs = default_attributes() if attr_defs is None else tuple(attr_defs)
    rng = np.random.default_rng(argument("seed", seed, nonnegative))
    w, h = image_size
    center = (
        w * 0.42 + float(rng.normal(0.0, w * 0.03)),
        h * 0.5 + float(rng.normal(0.0, h * 0.03)),
    )
    side = 1.0 if rng.random() < 0.5 else -1.0
    other = (
        center[0] + side * spacing,
        center[1] + float(rng.normal(0.0, 4.0)),
    )
    attrs_a = _sample_attributes(rng, attr_defs)
    attrs_b = _sample_attributes(rng, attr_defs)
    if attrs_a == attrs_b and attr_defs:
        first = attr_defs[0]
        alternatives = [v for v in first.domain if v != attrs_a[first.id]]
        attrs_b[first.id] = alternatives[0]
    person_a = _sample_person(rng, center, attrs_a, image_size, pose_sigma)
    person_b = _sample_person(rng, other, attrs_b, image_size, pose_sigma)
    return SyntheticScene(persons=(person_a, person_b), image_size=image_size)


def generate_family(
    family: str,
    n: int,
    seed: int,
    **kwargs,
) -> list[SyntheticScene]:
    """Generate ``n`` scenes of the named family under one master seed."""
    makers = {"single": single_person_scene, "two-person": two_person_scene}
    try:
        maker = makers[family]
    except KeyError:
        raise ValidationError(
            f"unknown scene family {family!r}, expected one of {sorted(makers)}"
        ) from None
    return [maker(_child_seed(seed, i), **kwargs) for i in range(argument("n", n, count))]


def _child_seed(seed: int, index: int) -> int:
    """Derived per-item seed: stable arithmetic, no RNG state shared."""
    return argument("seed", seed, nonnegative) * 1_000_003 + index
