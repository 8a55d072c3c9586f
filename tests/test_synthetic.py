"""Synthetic scene generator tests: determinism, structure, validation."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from posegrammar.errors import ValidationError
from posegrammar.grammar import ATOMIC_PARTS, AttributeDef, part_keypoints
from posegrammar.synthetic import (
    CANONICAL_POSE,
    Person,
    SyntheticScene,
    _child_seed,
    generate_family,
    load_scene,
    padded_box,
    save_scene,
    single_person_scene,
    two_person_scene,
)


def _canonical_person(**attrs):
    joints = {p: (160.0 + ox, 120.0 + oy) for p, (ox, oy) in CANONICAL_POSE.items()}
    return Person(joints=joints, attributes=attrs)


class TestPerson:
    def test_requires_all_fourteen_joints(self):
        joints = {p: (0.0, 0.0) for p in ATOMIC_PARTS[:-1]}
        with pytest.raises(ValidationError, match="misses joints"):
            Person(joints=joints, attributes={})

    def test_rejects_unknown_joints(self):
        joints = {p: (0.0, 0.0) for p in ATOMIC_PARTS}
        joints["tail"] = (1.0, 1.0)
        with pytest.raises(ValidationError, match="unknown joints"):
            Person(joints=joints, attributes={})

    @pytest.mark.parametrize(
        "joint, problem",
        [(("1", 2), "[0] must be a finite number, got '1'"), ((0.0, True), "[1] must be a finite number, got True")],
        ids=["string", "bool"],
    )
    def test_joint_coordinates_are_not_coerced(self, joint, problem):
        with pytest.raises(ValidationError, match="^" + re.escape(f"joints.head{problem}") + "$"):
            Person({p: joint for p in ATOMIC_PARTS}, {})

    def test_integer_joint_coordinates_are_read_as_floats(self):
        person = Person({p: (1, 2) for p in ATOMIC_PARTS}, {})
        assert {type(c) for xy in person.joints.values() for c in xy} == {float}

    def test_keypoints_cover_all_seventeen_parts(self):
        person = _canonical_person()
        pts = part_keypoints(person.joints)
        assert len(pts) == 17
        # Composite keypoints are member centroids.
        ys = [CANONICAL_POSE[m][1] for m in ("l_hip", "r_hip", "l_upper_leg",
                                             "l_lower_leg", "r_upper_leg", "r_lower_leg")]
        np.testing.assert_allclose(pts["lower_body"][1], 120.0 + sum(ys) / 6.0, atol=1e-12)
        np.testing.assert_allclose(pts["lower_body"][0], 160.0 + 0.0, atol=1e-12)

    def test_bbox_covers_joints_with_padding(self):
        person = _canonical_person()
        x0, y0, w, h = padded_box(person.joints.values(), 8.0)
        assert x0 == 160.0 - 22.0 - 8.0
        assert y0 == 120.0 - 35.0 - 8.0
        assert w == 44.0 + 16.0
        assert h == 97.0 + 16.0


class TestSceneValidation:
    def test_needs_a_person(self):
        with pytest.raises(ValidationError, match="at least one person"):
            SyntheticScene(persons=(), image_size=(320, 240))

    def test_joints_must_lie_inside_image(self):
        person = _canonical_person()
        with pytest.raises(ValidationError, match="outside image"):
            SyntheticScene(persons=(person,), image_size=(100, 100))

    def test_positive_image_size(self):
        person = _canonical_person()
        with pytest.raises(ValidationError, match=r"^image_size\[0\] must be an integer >= 1, got 0$"):
            SyntheticScene(persons=(person,), image_size=(0, 240))


class TestGenerators:
    def test_single_person_scene_shape(self):
        scene = single_person_scene(seed=3)
        assert len(scene.persons) == 1
        assert set(scene.persons[0].joints) == set(ATOMIC_PARTS)
        assert len(scene.persons[0].attributes) == 9

    def test_same_seed_same_scene(self):
        a = single_person_scene(seed=12)
        b = single_person_scene(seed=12)
        assert a.to_json_dict() == b.to_json_dict()

    def test_different_seeds_differ(self):
        a = single_person_scene(seed=12)
        b = single_person_scene(seed=13)
        assert a.to_json_dict() != b.to_json_dict()

    def test_two_person_scene_distractor_offset(self):
        scene = two_person_scene(seed=5, spacing=24.0, pose_sigma=0.0)
        a, b = scene.persons
        dx = b.joints["torso"][0] - a.joints["torso"][0]
        assert abs(abs(dx) - 24.0) < 1e-9

    def test_two_person_attributes_forced_to_differ(self):
        for seed in range(30):
            scene = two_person_scene(seed=seed)
            assert scene.persons[0].attributes != scene.persons[1].attributes

    def test_two_persons_drawing_the_same_value_are_moved_apart(self):
        """With one two-valued attribute the two draws agree on about half
        the seeds; the distractor then takes the other value."""
        coin = (AttributeDef("coin", "coin", ("heads", "tails")),)
        for seed in range(20):
            target, distractor = two_person_scene(seed, attr_defs=coin).persons
            assert {target.attributes["coin"], distractor.attributes["coin"]} == {"heads", "tails"}

    def test_two_person_scene_without_attributes(self):
        """With no attributes the two persons agree on all of none; there is
        no attribute to move, and the scene is still drawn."""
        for scene in [two_person_scene(0, attr_defs=()), *generate_family("two-person", 3, 5, attr_defs=())]:
            assert [p.attributes for p in scene.persons] == [{}, {}]

    def test_family_uses_child_seeds(self):
        scenes = generate_family("single", 3, seed=9)
        assert len(scenes) == 3
        expected = single_person_scene(_child_seed(9, 1))
        assert scenes[1].to_json_dict() == expected.to_json_dict()

    def test_unknown_family(self):
        with pytest.raises(ValidationError, match="unknown scene family"):
            generate_family("crowd", 2, seed=0)

    def test_bad_count(self):
        with pytest.raises(ValidationError, match="^n must be an integer >= 1, got 0$"):
            generate_family("single", 0, seed=0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda seed: generate_family("two-person", 2, seed=seed),
            single_person_scene,
            two_person_scene,
            lambda seed: _child_seed(seed, 0),
        ],
        ids=["family", "single", "two-person", "child-seed"],
    )
    @pytest.mark.parametrize("seed, shown", [(-1, "-1"), (2.0, "2.0"), (True, "True")])
    def test_a_seed_is_an_integer_of_at_least_zero(self, make, seed, shown):
        with pytest.raises(ValidationError, match="^" + re.escape(f"seed must be an integer >= 0, got {shown}") + "$"):
            make(seed)


class TestSceneSerialization:
    def test_file_round_trip(self, tmp_path):
        scene = two_person_scene(seed=8)
        path = tmp_path / "scene.json"
        save_scene(scene, str(path))
        back = load_scene(str(path))
        assert back.to_json_dict() == scene.to_json_dict()

    def test_save_is_byte_deterministic(self, tmp_path):
        scene = single_person_scene(seed=4)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_scene(scene, str(p1))
        save_scene(scene, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_scene_document(self):
        with pytest.raises(ValidationError, match="^persons is missing$"):
            SyntheticScene.from_json_dict({"image_size": [320, 240]})

    def test_incomplete_person_reports_specific_error(self):
        doc = {"image_size": [320, 240], "persons": [{"joints": {}}]}
        with pytest.raises(ValidationError, match="misses joints"):
            SyntheticScene.from_json_dict(doc)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text("[not json")
        with pytest.raises(ValidationError, match="invalid JSON"):
            load_scene(str(path))

    def test_schema_version_written(self, tmp_path):
        scene = single_person_scene(seed=4)
        path = tmp_path / "scene.json"
        save_scene(scene, str(path))
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 1


class TestChildSeed:
    def test_distinct_and_stable(self):
        seeds = {_child_seed(7, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert _child_seed(7, 0) == 7 * 1_000_003
        assert _child_seed(7, 12) == 7 * 1_000_003 + 12
