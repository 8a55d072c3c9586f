"""Command line tests: exit codes, option merging, and pipeline runs.

Commands run in-process through ``cli_dispatch`` so exit codes and
output files can be checked without spawning interpreters.  One shared
fixture walks the full pipeline (synth, learn, parse) and the individual
tests assert on its artifacts.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import posegrammar
from posegrammar.appearance import save_proposals, synth_scores
from posegrammar.cli import cli_dispatch
from posegrammar.errors import MissingEntryError, ValidationError
from posegrammar.evaluation import default_sticks, evaluable_sticks, strict_pcp
from posegrammar.grammar import (
    ParseGraph,
    PartState,
    build_default_human_grammar,
    load_grammar,
    part_keypoints,
    save_parse_graph,
)
from posegrammar.learning import (
    Annotation,
    JointObs,
    displacement_samples,
    learn_models,
    load_annotations,
    save_annotations,
)
from posegrammar.relations import load_models
from posegrammar.synthetic import load_scene, part_box, two_person_scene


# A valid JSON integer beyond the float range.
_HUGE_INT = pytest.param("1" + "0" * 400, id="huge-int")


def _non_finite_problem(token: str, field: str) -> str:
    """The reader's refusal of ``token`` written into ``field``."""
    if token == "NaN":
        return "non-finite JSON constant 'NaN'"
    shown = "inf" if token == "1e400" else "an integer beyond the float range"
    return f": {field} must be a finite number, got {shown}"


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_json(path):
    return json.loads(_read(path))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> learn -> parse artifacts shared by the tests below."""
    root = tmp_path_factory.mktemp("pipeline")
    grammar_path = str(root / "grammar.json")
    scenes = str(root / "scenes")
    annotations = str(root / "train.jsonl")
    models_path = str(root / "models.json")
    assert cli_dispatch(["init-grammar", "--out", grammar_path]) == 0
    assert (
        cli_dispatch(
            [
                "synth",
                "--family",
                "single",
                "--n",
                "40",
                "--seed",
                "11",
                "--out",
                scenes,
                "--annotations",
                annotations,
            ]
        )
        == 0
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert (
            cli_dispatch(
                [
                    "learn",
                    "--annotations",
                    annotations,
                    "--grammar",
                    grammar_path,
                    "--components",
                    "2",
                    "--seed",
                    "5",
                    "--out",
                    models_path,
                ]
            )
            == 0
        )

    # One two-person scene scored into a proposal file for parsing.
    scene = two_person_scene(seed=4)
    pset = synth_scores(scene, noise_sigma=0.5, rng_seed=8)
    proposals = str(root / "proposals.jsonl")
    save_proposals(pset, proposals)
    return {
        "root": root,
        "grammar": grammar_path,
        "scenes": scenes,
        "annotations": annotations,
        "models": models_path,
        "proposals": proposals,
    }


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert cli_dispatch([]) == 2

    def test_unknown_command_is_usage_error(self, capsys):
        assert cli_dispatch(["transcend"]) == 2

    def test_missing_required_flag(self, capsys):
        assert cli_dispatch(["validate"]) == 2
        assert "--grammar" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, capsys):
        assert cli_dispatch(["validate", "--grammar", "/no/such/file.json"]) == 1

    def test_help_exits_cleanly(self, capsys):
        assert cli_dispatch(["--help"]) == 0
        assert "COMMAND" in capsys.readouterr().out


class TestValidate:
    def test_default_grammar_is_valid(self, pipeline, capsys):
        assert cli_dispatch(["validate", "--grammar", pipeline["grammar"]]) == 0
        assert capsys.readouterr().err == f"grammar {pipeline['grammar']} is valid\n"

    def test_violations_exit_one(self, tmp_path, capsys):
        """Every violation, in one error line naming the file."""
        doc = build_default_human_grammar().to_json_dict()
        doc["nodes"].append({"id": "tail", "label": "tail"})
        doc["dg_edges"].append(["torso", "ghost"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert cli_dispatch(["validate", "--grammar", str(bad)]) == 1
        violations = [
            "dg edge ('torso', 'ghost') references undeclared node 'ghost'",
            "nodes unreachable from root via psg edges: ['tail']",
        ]
        assert capsys.readouterr().err == f"error: {bad}: {'; '.join(violations)}\n"

    def test_malformed_json_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json", encoding="utf-8")
        assert cli_dispatch(["validate", "--grammar", str(bad)]) == 1


class TestSynth:
    def test_writes_n_scene_files(self, pipeline):
        files = sorted((pipeline["root"] / "scenes").iterdir())
        assert len(files) == 40
        assert files[0].name == "scene_00000.json"
        scene = load_scene(str(files[0]))
        assert len(scene.persons) == 1

    def test_annotation_lines_match_scenes(self, pipeline):
        lines = [l for l in _read(pipeline["annotations"]).splitlines() if l]
        assert len(lines) == 40

    def test_byte_identical_reruns(self, tmp_path):
        args = ["synth", "--family", "two-person", "--n", "3", "--seed", "5"]
        assert cli_dispatch(args + ["--out", str(tmp_path / "a")]) == 0
        assert cli_dispatch(args + ["--out", str(tmp_path / "b")]) == 0
        for i in range(3):
            name = f"scene_{i:05d}.json"
            assert _read(tmp_path / "a" / name) == _read(tmp_path / "b" / name)

    def test_bad_family_is_usage_error(self, tmp_path):
        code = cli_dispatch(
            ["synth", "--family", "crowd", "--n", "1", "--out", str(tmp_path / "x")]
        )
        assert code == 2


class TestConfigMerging:
    def test_config_file_supplies_options(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "seed": 9, "family": "single"}), encoding="utf-8")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli_dispatch(["synth", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert (
            cli_dispatch(
                ["synth", "--family", "single", "--n", "2", "--seed", "9", "--out", str(out_b)]
            )
            == 0
        )
        assert _read(out_a / "scene_00001.json") == _read(out_b / "scene_00001.json")

    def test_explicit_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "family": "single"}), encoding="utf-8")
        out = tmp_path / "out"
        assert cli_dispatch(["synth", "--config", str(cfg), "--n", "4", "--out", str(out)]) == 0
        assert len(list(out.iterdir())) == 4

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 1, "bogus": True}), encoding="utf-8")
        assert cli_dispatch(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "unknown keys" in capsys.readouterr().err

    def test_config_must_be_an_object(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]", encoding="utf-8")
        assert cli_dispatch(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_config_must_be_json(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{oops", encoding="utf-8")
        assert cli_dispatch(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_non_numeric_flag_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert cli_dispatch(["synth", "--n", "abc", "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: invalid value for --n: 'abc'"]
        assert not out.exists()

    def test_non_numeric_config_value_is_refused_naming_the_field(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": "x"}), encoding="utf-8")
        assert cli_dispatch(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {cfg}: n must be an integer >= 1, got 'x'"]


    def test_path_option_must_be_a_string_and_leaves_an_open_descriptor_alone(self, tmp_path, capsys):
        held = open(tmp_path / "held.txt", "w", encoding="utf-8")
        try:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"grammar": held.fileno()}), encoding="utf-8")
            assert cli_dispatch(["validate", "--config", str(cfg)]) == 1
            err = capsys.readouterr().err.strip().splitlines()
            assert err == [f"error: {cfg}: grammar must be a non-empty string, got {held.fileno()}"]
            held.write("still open")
            held.flush()
            os.fstat(held.fileno())
        finally:
            held.close()
        assert (tmp_path / "held.txt").read_text(encoding="utf-8") == "still open"

    @pytest.mark.parametrize(
        "command, config, problem",
        [
            ("parse", {"beam": 3.7}, "beam must be an integer >= 1, got 3.7"),
            ("parse", {"beam": True}, "beam must be an integer >= 1, got True"),
            ("parse", {"mode": 1}, "mode must be a non-empty string, got 1"),
            ("diag", {"modes": ["joint"]}, "modes must be a non-empty string, got a JSON array of length 1"),
            ("eval-pcp", {"threshold": True}, "threshold must be a finite number, got True"),
            ("eval-pcp", '{"threshold": 1e400}', "threshold must be a finite number, got inf"),
            ("synth", {"image_size": [320.5, 240]}, "image_size[0] must be an integer, got 320.5"),
        ],
        ids=["float-int", "bool-int", "int-string", "list-string", "bool-float", "inf-float", "float-pair"],
    )
    def test_config_values_keep_their_json_type(self, tmp_path, capsys, command, config, problem):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config if isinstance(config, str) else json.dumps(config), encoding="utf-8")
        assert cli_dispatch([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {cfg}: {problem}"]

    @pytest.mark.parametrize("command", ["synth", "learn", "diag"])
    def test_a_negative_seed_exits_one_naming_the_seed(self, tmp_path, capsys, command):
        assert cli_dispatch([command, "--seed", "-1"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: --seed must be an integer >= 0, got -1"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1}), encoding="utf-8")
        assert cli_dispatch([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {cfg}: seed must be an integer >= 0, got -1"]

    @pytest.mark.parametrize(
        "command, option, inputs",
        [
            ("parse", "beam", ("grammar", "models", "proposals")),
            ("diag", "beam", ("scenes", "grammar", "models")),
            ("learn", "components", ("annotations", "grammar")),
            ("synth", "n", ()),
        ],
    )
    @pytest.mark.parametrize("shown", ["0", "-1"])
    def test_a_count_below_one_is_refused_before_any_input_is_read(
        self, tmp_path, capsys, command, option, inputs, shown
    ):
        """A count option below 1 is the only error printed, with exit 1,
        though every input it would read is missing; nothing is written."""
        argv = [command, f"--{option}", shown]
        for name in inputs:
            argv += [f"--{name}", str(tmp_path / f"missing-{name}")]
        out = tmp_path / "out"
        argv += ["--report" if command == "diag" else "--out", str(out)]
        assert cli_dispatch(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: --{option} must be an integer >= 1, got {shown}"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({option: int(shown)}), encoding="utf-8")
        assert cli_dispatch([*argv[:1], "--config", str(cfg), *argv[3:]]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {cfg}: {option} must be an integer >= 1, got {shown}"]
        assert not out.exists()

    def test_config_numbers_take_the_option_type(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 1, "spacing": 20, "image_size": [300, 200]}), encoding="utf-8")
        assert cli_dispatch(["synth", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        argv = ["synth", "--n", "1", "--spacing", "20.0", "--image-size", "300", "200", "--out", str(tmp_path / "b")]
        assert cli_dispatch(argv) == 0
        assert _read(tmp_path / "a" / "scene_00000.json") == _read(tmp_path / "b" / "scene_00000.json")


class TestLearn:
    def test_models_file_loads(self, pipeline):
        models = load_models(pipeline["models"])
        assert models.part_type_count == 9
        assert len(models.kinematic.mixtures) == 13

    def test_tiny_corpus_fails_cleanly(self, pipeline, tmp_path, capsys):
        lines = _read(pipeline["annotations"]).splitlines()[:1]
        small = tmp_path / "one.jsonl"
        small.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = cli_dispatch(
                [
                    "learn",
                    "--annotations",
                    str(small),
                    "--grammar",
                    pipeline["grammar"],
                    "--out",
                    str(tmp_path / "m.json"),
                ]
            )
        assert code == 1
        assert "error:" in capsys.readouterr().err


    def test_a_corpus_beyond_the_fit_range_exits_one_naming_the_edge(self, pipeline, beyond_range, tmp_path, capsys):
        far, _types, edge = beyond_range
        annotations = tmp_path / "far.jsonl"
        save_annotations(far, str(annotations))
        argv = ["learn", "--annotations", str(annotations), "--grammar", pipeline["grammar"]]
        argv += ["--components", "3", "--seed", "1", "--out", str(tmp_path / "m.json")]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            assert cli_dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: edge {edge}: displacement samples are beyond the range")
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert not (tmp_path / "m.json").exists()

    def _learn(self, pipeline, tmp_path, *extra):
        argv = ["learn", "--annotations", pipeline["annotations"], "--grammar", pipeline["grammar"]]
        argv += ["--components", "2", "--out", str(tmp_path / "m.json"), *extra]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return cli_dispatch(argv)

    def test_zero_components_exits_one_naming_the_argument(self, pipeline, tmp_path, capsys):
        assert self._learn(pipeline, tmp_path, "--components", "0") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: --components must be an integer >= 1, got 0"]
        assert not (tmp_path / "m.json").exists()

    @staticmethod
    def _groups(pipeline) -> list[str]:
        """One proposal group per annotation: a proposal at each part's
        keypoint, boxed by the part's own box, with a type that varies by
        part and person."""
        lines = []
        for i, line in enumerate(_read(pipeline["annotations"]).splitlines()):
            ann = json.loads(line)
            keypoints = part_keypoints({p: (x, y) for p, (x, y, _v) in ann["joints"].items()})
            group = [
                {"id": f"{i}.{part}", "part": part, "x": x, "y": y,
                 "part_type": 1 + (i + k) % 9, "box": part_box(part, keypoints)}
                for k, (part, (x, y)) in enumerate(keypoints.items())
            ]
            lines.append(json.dumps(group))
        return lines

    def test_proposal_groups_give_fitted_type_tables(self, pipeline, tmp_path):
        groups = tmp_path / "groups.jsonl"
        groups.write_text("\n".join(self._groups(pipeline)) + "\n", encoding="utf-8")
        assert self._learn(pipeline, tmp_path, "--proposals", str(groups)) == 0
        syntactic = load_models(str(tmp_path / "m.json")).syntactic
        grammar = build_default_human_grammar()
        assert all(np.ptp(syntactic.logs[syntactic.row(edge)]) > 0.0 for edge in grammar.psg_edges)
        uniform = load_models(pipeline["models"]).syntactic
        assert all(np.ptp(uniform.logs[uniform.row(edge)]) == 0.0 for edge in grammar.psg_edges)

    def test_synth_proposals_fit_every_decomposition_edge(self, pipeline, tmp_path, capsys):
        """The proposals ``synth_scores`` gives each synthesised scene, one
        group per scene, type both parts of every decomposition edge: no
        edge falls back to the uniform table."""
        lines = []
        for i, name in enumerate(sorted(os.listdir(pipeline["scenes"]))):
            proposals = tmp_path / "proposals.jsonl"
            save_proposals(synth_scores(load_scene(os.path.join(pipeline["scenes"], name)), 0.7, i), str(proposals))
            lines.append(json.dumps([json.loads(line) for line in _read(proposals).splitlines()]))
        assert len(lines) == 40
        groups = tmp_path / "groups.jsonl"
        groups.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["learn", "--annotations", pipeline["annotations"], "--grammar", pipeline["grammar"]]
        argv += ["--components", "2", "--proposals", str(groups), "--out", str(tmp_path / "m.json")]
        assert cli_dispatch(argv) == 0
        assert [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")] == []
        syntactic = load_models(str(tmp_path / "m.json")).syntactic
        edges = build_default_human_grammar().psg_edges
        assert len(edges) == 16
        assert all(np.ptp(syntactic.logs[syntactic.row(edge)]) > 0.0 for edge in edges)

    def test_a_proposal_for_a_part_without_a_box_exits_one_naming_it(self, pipeline, tmp_path, capsys):
        lines = self._groups(pipeline)
        group = json.loads(lines[1])
        group[0]["part"] = "tail"
        lines[1] = json.dumps(group)
        groups = tmp_path / "groups.jsonl"
        groups.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert self._learn(pipeline, tmp_path, "--proposals", str(groups)) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: proposal {group[0]['id']!r}: part 'tail' is not one of the 17 keypoint parts"]
        assert not (tmp_path / "m.json").exists()

    def test_a_group_count_other_than_the_annotations_exits_one(self, pipeline, tmp_path, capsys):
        lines = self._groups(pipeline)
        groups = tmp_path / "groups.jsonl"
        groups.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        assert self._learn(pipeline, tmp_path, "--proposals", str(groups)) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {len(lines) - 1} proposal groups for {len(lines)} annotations"]

    def test_a_malformed_group_names_its_line(self, pipeline, tmp_path, capsys):
        lines = self._groups(pipeline)
        lines[1] = json.dumps([{"id": "p", "part": "head"}])
        groups = tmp_path / "groups.jsonl"
        groups.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert self._learn(pipeline, tmp_path, "--proposals", str(groups)) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {groups}:2: [0].x is missing"]


class TestParse:
    def test_constrained_mode(self, pipeline, tmp_path):
        out = tmp_path / "parse.json"
        code = cli_dispatch(
            [
                "parse",
                "--grammar",
                pipeline["grammar"],
                "--models",
                pipeline["models"],
                "--proposals",
                pipeline["proposals"],
                "--mode",
                "constrained:hat=yes",
                "--beam",
                "20",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = _read_json(out)
        assert len(doc["states"]) == 17
        assert doc["attributes"] == {"hat": "yes"}

    def test_joint_mode_writes_scores(self, pipeline, tmp_path):
        out = tmp_path / "parse.json"
        scores_out = tmp_path / "scores.json"
        code = cli_dispatch(
            [
                "parse",
                "--grammar",
                pipeline["grammar"],
                "--models",
                pipeline["models"],
                "--proposals",
                pipeline["proposals"],
                "--beam",
                "8",
                "--out",
                str(out),
                "--scores-out",
                str(scores_out),
            ]
        )
        assert code == 0
        scores = _read_json(scores_out)["attribute_scores"]
        assert len(scores) == 9
        assert set(scores["gender"]) == {"male", "female"}
        # The winner is the best single (attribute, value) constrained parse.
        assert len(_read_json(out)["attributes"]) == 1

    def test_joint_parse_loads_no_scipy(self, pipeline, tmp_path):
        """The learn and parse paths need numpy only; a fresh interpreter
        running a learn and a joint parse never imports scipy."""
        learn = [
            "learn", "--annotations", pipeline["annotations"], "--grammar", pipeline["grammar"],
            "--components", "2", "--seed", "5", "--out", str(tmp_path / "m.json"),
        ]
        parse = [
            "parse", "--grammar", pipeline["grammar"], "--models", pipeline["models"],
            "--proposals", pipeline["proposals"], "--beam", "8", "--out", str(tmp_path / "p.json"),
        ]
        code = (
            "import sys\n"
            "import posegrammar\n"
            "assert 'scipy' not in sys.modules, 'import'\n"
            "from posegrammar.cli import cli_dispatch\n"
            f"assert cli_dispatch({learn!r}) == 0\n"
            "assert 'scipy' not in sys.modules, 'learn'\n"
            f"assert cli_dispatch({parse!r}) == 0\n"
            "assert 'scipy' not in sys.modules, 'parse'\n"
        )
        src = os.path.dirname(os.path.dirname(posegrammar.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr

    def test_unconstrained_mode_deterministic(self, pipeline, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = cli_dispatch(
                [
                    "parse",
                    "--grammar",
                    pipeline["grammar"],
                    "--models",
                    pipeline["models"],
                    "--proposals",
                    pipeline["proposals"],
                    "--mode",
                    "unconstrained",
                    "--beam",
                    "20",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            outs.append(_read(out))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("mode", ["freestyle", "constrained:hat", "constrained:=yes"])
    def test_invalid_modes_are_usage_errors(self, pipeline, tmp_path, mode, capsys):
        code = cli_dispatch(
            [
                "parse",
                "--grammar",
                pipeline["grammar"],
                "--models",
                pipeline["models"],
                "--proposals",
                pipeline["proposals"],
                "--mode",
                mode,
                "--out",
                str(tmp_path / "p.json"),
            ]
        )
        assert code == 2
        assert "invalid --mode" in capsys.readouterr().err

    def test_the_mode_is_checked_before_the_models_are_read(self, pipeline, tmp_path, capsys):
        argv = [
            "parse", "--grammar", pipeline["grammar"], "--models", str(tmp_path / "missing.json"),
            "--proposals", pipeline["proposals"], "--mode", "bogus", "--out", str(tmp_path / "p.json"),
        ]
        assert cli_dispatch(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: invalid --mode 'bogus': expected joint, unconstrained, or constrained:ATTR=VALUE"]

    @pytest.mark.parametrize(
        "pair, message",
        [
            ("colour=red", "unknown attribute 'colour'"),
            ("gender=purple", "value 'purple' not in domain of attribute 'gender': ('male', 'female')"),
        ],
    )
    def test_a_pair_the_grammar_lacks_is_refused_before_the_inputs_are_read(
        self, pipeline, tmp_path, capsys, pair, message
    ):
        """Neither the models nor the proposal file is read: both are
        broken here, and the error is still the pair's."""
        broken = tmp_path / "broken.json"
        broken.write_text("{broken\n", encoding="utf-8")
        out = tmp_path / "p.json"
        argv = [
            "parse", "--grammar", pipeline["grammar"], "--models", str(broken), "--proposals", str(broken),
            "--mode", f"constrained:{pair}", "--out", str(out),
        ]
        assert cli_dispatch(argv) == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["unconstrained", "constrained:hat=yes"])
    def test_scores_out_outside_joint_is_a_usage_error(self, tmp_path, capsys, mode):
        """Refused before any input is read: none of the three files exists."""
        out, scores_out = tmp_path / "p.json", tmp_path / "scores.json"
        missing = str(tmp_path / "missing.json")
        argv = [
            "parse", "--grammar", missing, "--models", missing, "--proposals", missing,
            "--mode", mode, "--out", str(out), "--scores-out", str(scores_out),
        ]
        assert cli_dispatch(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: --scores-out needs --mode joint, got --mode {mode!r}"]
        assert not out.exists() and not scores_out.exists()

    def test_models_file_holding_an_array_exits_one(self, pipeline, tmp_path, capsys):
        models = tmp_path / "models.json"
        models.write_text("[]", encoding="utf-8")
        out = tmp_path / "p.json"
        argv = [
            "parse", "--grammar", pipeline["grammar"], "--models", str(models),
            "--proposals", pipeline["proposals"], "--out", str(out),
        ]
        assert cli_dispatch(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {models}: the document must be a JSON object, got a JSON array of length 0"]
        assert not out.exists()


class TestRender:
    def test_svg_has_thirteen_sticks(self, pipeline, tmp_path):
        parse_path = tmp_path / "parse.json"
        assert (
            cli_dispatch(
                [
                    "parse",
                    "--grammar",
                    pipeline["grammar"],
                    "--models",
                    pipeline["models"],
                    "--proposals",
                    pipeline["proposals"],
                    "--mode",
                    "constrained:gender=male",
                    "--beam",
                    "20",
                    "--out",
                    str(parse_path),
                ]
            )
            == 0
        )
        svg_path = tmp_path / "parse.svg"
        code = cli_dispatch(
            [
                "render",
                "--parse",
                str(parse_path),
                "--grammar",
                pipeline["grammar"],
                "--out",
                str(svg_path),
            ]
        )
        assert code == 0
        svg = _read(svg_path)
        assert svg.startswith("<svg ")
        assert svg.count('<line class="stick"') == 13
        assert 'gender: male' in svg

    def test_text_escapes_markup_but_not_quotes(self):
        grammar = build_default_human_grammar()
        pg = ParseGraph({"head": PartState("head", 5.0, 6.0, 1, "p")}, {"hat": 'a<b & "c">\'d\''}, 1.5)
        assert """hat: a&lt;b &amp; "c"&gt;'d'</text>""" in posegrammar.render_svg(pg, grammar)

    @pytest.mark.parametrize("token", ["NaN", "1e400", _HUGE_INT])
    @pytest.mark.parametrize("field", ["x", "total_score"])
    def test_non_finite_parse_exits_one_and_writes_no_svg(self, pipeline, tmp_path, capsys, field, token):
        grammar = build_default_human_grammar()
        pg = ParseGraph({"head": PartState("head", 5.0, 6.0, 1, "p")}, {}, 1.5)
        parse_path = tmp_path / "parse.json"
        save_parse_graph(pg, str(parse_path), grammar)
        text = re.sub(rf'("{field}": )[-0-9.e]+', rf"\g<1>{token}", _read(parse_path), count=1)
        parse_path.write_text(text, encoding="utf-8")
        svg_path = tmp_path / "parse.svg"
        argv = ["render", "--parse", str(parse_path), "--grammar", pipeline["grammar"], "--out", str(svg_path)]
        assert cli_dispatch(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {parse_path}: ")
        assert _non_finite_problem(token, "states[0].x" if field == "x" else field) in err[0]
        assert not svg_path.exists()

    def test_a_parse_with_no_states_exits_one_and_writes_no_svg(self, pipeline, tmp_path, capsys):
        grammar = build_default_human_grammar()
        parse_path, svg_path = tmp_path / "parse.json", tmp_path / "parse.svg"
        save_parse_graph(ParseGraph({}, {}, 0.0), str(parse_path), grammar)
        argv = ["render", "--parse", str(parse_path), "--grammar", pipeline["grammar"], "--out", str(svg_path)]
        assert cli_dispatch(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {parse_path}: parse graph has no states to render"]
        assert not svg_path.exists()
        with pytest.raises(ValidationError, match="^parse graph has no states to render$"):
            posegrammar.render_svg(ParseGraph({}, {}, 0.0), grammar)

    def test_a_parse_listing_a_part_twice_exits_one_and_writes_no_svg(self, pipeline, tmp_path, capsys):
        """Two ``head`` states with proposals ``a`` and ``b``: the file is
        refused, naming both states, rather than rendered with the last."""
        grammar = build_default_human_grammar()
        pg = ParseGraph({"head": PartState("head", 5.0, 6.0, 1, "a")}, {}, 1.5)
        doc = pg.to_json_dict(grammar)
        doc["states"].append(dict(doc["states"][0], proposal="b"))
        parse_path, svg_path = tmp_path / "parse.json", tmp_path / "parse.svg"
        parse_path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["render", "--parse", str(parse_path), "--grammar", pipeline["grammar"], "--out", str(svg_path)]
        assert cli_dispatch(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {parse_path}: states[1] repeats part 'head' of states[0]"]
        assert not svg_path.exists()

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_a_parse_too_wide_for_the_float_range_exits_one_and_writes_no_svg(
        self, pipeline, tmp_path, capsys, axis
    ):
        """Finite coordinates whose padded span overflows are refused, not
        written into the ``viewBox`` as ``inf``."""
        grammar = build_default_human_grammar()
        far = {"x": 0.0, "y": 0.0}
        states = {}
        for part, coordinate in (("head", 1e308), ("torso", -1e308)):
            at = dict(far, **{axis: coordinate})
            states[part] = PartState(part, at["x"], at["y"], 1, part)
        pg = ParseGraph(states, {}, 1.5)
        message = (
            f"parse graph spans -1e+308 to 1e+308 in {axis}, too wide to render: "
            "its padded extent leaves the float range"
        )
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            posegrammar.render_svg(pg, grammar)
        parse_path, svg_path = tmp_path / "parse.json", tmp_path / "parse.svg"
        save_parse_graph(pg, str(parse_path), grammar)
        argv = ["render", "--parse", str(parse_path), "--grammar", pipeline["grammar"], "--out", str(svg_path)]
        assert cli_dispatch(argv) == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {parse_path}: {message}"]
        assert not svg_path.exists()

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300)), min_size=1, max_size=17
        )
    )
    def test_coordinates_within_1e300_render_finite(self, points):
        grammar = build_default_human_grammar()
        parts = grammar.part_ids[: len(points)]
        pg = ParseGraph({p: PartState(p, x, y, 1, p) for p, (x, y) in zip(parts, points)}, {"hat": "yes"}, 0.5)
        svg = posegrammar.render_svg(pg, grammar)
        assert "inf" not in svg and "nan" not in svg


class TestEvalAp:
    def test_fixture_through_files(self, tmp_path, capsys):
        scores = tmp_path / "scores.json"
        labels = tmp_path / "labels.json"
        scores.write_text("[0.9, 0.8, 0.7, 0.6]", encoding="utf-8")
        labels.write_text("[1, 0, 1, 0]", encoding="utf-8")
        assert cli_dispatch(["eval-ap", "--scores", str(scores), "--labels", str(labels)]) == 0
        doc = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(doc["average_precision"], 5.0 / 6.0, atol=1e-12)
        assert doc["n"] == 4

    def test_no_positives_exits_one(self, tmp_path, capsys):
        scores = tmp_path / "scores.json"
        labels = tmp_path / "labels.json"
        scores.write_text("[0.9, 0.8]", encoding="utf-8")
        labels.write_text("[0, 0]", encoding="utf-8")
        assert cli_dispatch(["eval-ap", "--scores", str(scores), "--labels", str(labels)]) == 1

    _MALFORMED = {
        "truncated": "[0.9, 0.8",
        "object": '{"a": 1}',
        "number": "0.9",
        "string-entry": '["a", 0.8]',
        "bool-entry": "[true, 0.8]",
        "non-finite": "[1e400, 0.8]",
        "huge-int": "[1" + "0" * 400 + ", 0]",
    }

    @pytest.mark.parametrize(
        "which, bad",
        [
            pytest.param(which, bad, id=f"{which}-{name}")
            for name, bad in _MALFORMED.items()
            for which in ("scores", "labels")
        ]
        + [pytest.param("labels", "[2, 0]", id="labels-not-0-or-1")],
    )
    def test_malformed_input_file_names_it(self, tmp_path, capsys, bad, which):
        paths = {name: tmp_path / f"{name}.json" for name in ("scores", "labels")}
        paths["scores"].write_text("[0.9, 0.8]", encoding="utf-8")
        paths["labels"].write_text("[1, 0]", encoding="utf-8")
        paths[which].write_text(bad, encoding="utf-8")
        argv = ["eval-ap", "--scores", str(paths["scores"]), "--labels", str(paths["labels"])]
        assert cli_dispatch(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {paths[which]}: ")


class TestEvalPcp:
    def _write_perfect_preds(self, pipeline, out_dir, count):
        grammar = build_default_human_grammar()
        out_dir.mkdir()
        for i in range(count):
            scene = load_scene(str(pipeline["root"] / "scenes" / f"scene_{i:05d}.json"))
            pts = part_keypoints(scene.persons[0].joints)
            states = {
                part: PartState(part, x, y, 1, f"t.{part}") for part, (x, y) in pts.items()
            }
            pg = ParseGraph(states, {}, 0.0)
            save_parse_graph(pg, str(out_dir / f"pred_{i:05d}.json"), grammar)

    def test_perfect_predictions_score_one(self, pipeline, tmp_path, capsys):
        pred = tmp_path / "pred"
        self._write_perfect_preds(pipeline, pred, 40)
        report_path = tmp_path / "report.json"
        code = cli_dispatch(
            [
                "eval-pcp",
                "--pred",
                str(pred),
                "--truth",
                pipeline["annotations"],
                "--grammar",
                pipeline["grammar"],
                "--report",
                str(report_path),
            ]
        )
        assert code == 0
        report = _read_json(report_path)
        assert report["mean_pcp"] == 1.0
        assert report["n_pairs"] == 40
        assert set(report["per_stick"]) == {str(i) for i in range(1, 14)}
        assert report["threshold"] == 0.5

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_is_usage_error(self, pipeline, tmp_path, capsys, value):
        pred = tmp_path / "pred"
        self._write_perfect_preds(pipeline, pred, 40)
        report_path = tmp_path / "report.json"
        argv = [
            "eval-pcp", "--pred", str(pred), "--truth", pipeline["annotations"],
            "--grammar", pipeline["grammar"], f"--threshold={value}", "--report", str(report_path),
        ]
        assert cli_dispatch(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: invalid value for --threshold: {value!r}"]
        assert not report_path.exists()

    @pytest.mark.parametrize("value", ["-1", "0"])
    @pytest.mark.parametrize("grammar", ["default", "missing"])
    def test_a_threshold_not_above_zero_is_refused_before_any_file_is_read(
        self, pipeline, tmp_path, capsys, grammar, value
    ):
        """An empty corpus scores no parse, so only the check made up front
        sees the threshold; with the grammar file missing, the threshold is
        still what is refused.  No report is written."""
        pred, truth, report_path = tmp_path / "pred", tmp_path / "truth.jsonl", tmp_path / "report.json"
        pred.mkdir()
        truth.write_text("", encoding="utf-8")
        grammar_path = pipeline["grammar"] if grammar == "default" else str(tmp_path / "missing.json")
        argv = [
            "eval-pcp", "--pred", str(pred), "--truth", str(truth), "--grammar", grammar_path,
            "--threshold", value, "--report", str(report_path),
        ]
        assert cli_dispatch(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: threshold must be positive, got {float(value)}"]
        assert not report_path.exists()

    def test_a_parse_missing_a_stick_endpoint_is_named(self, pipeline, tmp_path, capsys):
        pred = tmp_path / "pred"
        self._write_perfect_preds(pipeline, pred, 40)
        bad = pred / "pred_00002.json"
        doc = _read_json(bad)
        doc["states"] = [s for s in doc["states"] if s["part"] != "torso"]
        bad.write_text(json.dumps(doc), encoding="utf-8")
        report_path = tmp_path / "report.json"
        argv = [
            "eval-pcp", "--pred", str(pred), "--truth", pipeline["annotations"],
            "--grammar", pipeline["grammar"], "--report", str(report_path),
        ]
        assert cli_dispatch(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {bad}: parse graph misses state for stick endpoint 'torso'"]
        assert not report_path.exists()

    @pytest.mark.parametrize("token", ["NaN", "1e400", _HUGE_INT])
    @pytest.mark.parametrize("which", ["pred", "truth"])
    def test_non_finite_coordinate_exits_one(self, pipeline, tmp_path, capsys, which, token):
        pred = tmp_path / "pred"
        self._write_perfect_preds(pipeline, pred, 40)
        truth = tmp_path / "truth.jsonl"
        truth.write_text(_read(pipeline["annotations"]), encoding="utf-8")
        if which == "pred":
            bad = where = pred / "pred_00003.json"
            pattern = r'("x": )[-0-9.e]+'
        else:
            bad, where = truth, f"{truth}:1"
            pattern = r'("head": \[)[-0-9.e]+'
        text = _read(bad)
        bad.write_text(re.sub(pattern, rf"\g<1>{token}", text, count=1), encoding="utf-8")
        report_path = tmp_path / "report.json"
        argv = [
            "eval-pcp", "--pred", str(pred), "--truth", str(truth),
            "--grammar", pipeline["grammar"], "--report", str(report_path),
        ]
        assert cli_dispatch(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {where}: ")
        assert _non_finite_problem(token, "states[0].x" if which == "pred" else "joints.head[0]") in err[0]
        assert not report_path.exists()

    def test_an_annotation_with_no_evaluable_stick_is_skipped(self, pipeline, tmp_path):
        """The second annotation's only visible joint is the torso, so none
        of its sticks has two visible endpoints: its file is skipped and the
        first one's sticks still count.  A corpus of only such annotations
        reports a null mean."""
        grammar = load_grammar(pipeline["grammar"])
        sticks = default_sticks(grammar)
        first = load_annotations(pipeline["annotations"])[0]
        joints = {p: JointObs(j.x, j.y, p == "torso") for p, j in first.joints.items()}
        torso_only = Annotation(joints, first.person_box, first.attributes)
        assert evaluable_sticks(first, sticks) and evaluable_sticks(torso_only, sticks) == []
        pred = tmp_path / "pred"
        pred.mkdir()
        pts = part_keypoints({p: (j.x, j.y) for p, j in first.joints.items()})
        pg = ParseGraph({p: PartState(p, x, y, 1, f"t.{p}") for p, (x, y) in pts.items()}, {}, 0.0)
        for name in ("a.json", "b.json"):
            save_parse_graph(pg, str(pred / name), grammar)

        def report(annotations):
            truth, out = tmp_path / "truth.jsonl", tmp_path / "report.json"
            save_annotations(annotations, str(truth))
            argv = ["eval-pcp", "--pred", str(pred), "--truth", str(truth), "--grammar", pipeline["grammar"]]
            assert cli_dispatch(argv + ["--report", str(out)]) == 0
            return _read_json(out)

        scored = strict_pcp(pg, first, sticks).per_stick
        both = report([first, torso_only])
        assert both["mean_pcp"] == 1.0 and both["n_pairs"] == 2
        assert both["per_stick"] == {str(s.index): (1.0 if s.index in scored else None) for s in sticks}
        neither = report([torso_only, torso_only])
        assert neither["mean_pcp"] is None and neither["n_pairs"] == 2
        assert set(neither["per_stick"].values()) == {None}

    def test_count_mismatch_exits_one(self, pipeline, tmp_path, capsys):
        pred = tmp_path / "pred"
        self._write_perfect_preds(pipeline, pred, 2)
        code = cli_dispatch(
            [
                "eval-pcp",
                "--pred",
                str(pred),
                "--truth",
                pipeline["annotations"],
                "--grammar",
                pipeline["grammar"],
            ]
        )
        assert code == 1


class TestDiag:
    def test_report_with_mode_alias(self, pipeline, tmp_path):
        scenes = tmp_path / "scenes"
        assert (
            cli_dispatch(
                ["synth", "--family", "two-person", "--n", "2", "--seed", "3", "--out", str(scenes)]
            )
            == 0
        )
        report_path = tmp_path / "diag.json"
        args = [
            "diag",
            "--scenes",
            str(scenes),
            "--grammar",
            pipeline["grammar"],
            "--models",
            pipeline["models"],
            "--modes",
            "no-attr,no-pose",
            "--beam",
            "8",
            "--report",
            str(report_path),
        ]
        assert cli_dispatch(args) == 0
        report = _read_json(report_path)
        assert set(report["modes"]) == {"no-attribute", "no-pose"}
        first = _read(report_path)
        assert cli_dispatch(args) == 0
        assert _read(report_path) == first

    @pytest.mark.parametrize("key", ["margin", "bonus", "coherence"])
    def test_the_synthesis_settings_are_not_options(self, tmp_path, capsys, key):
        """The diagnostic synthesizes scores with ``synth_scores``' own
        settings; neither a flag nor a config key sets them."""
        assert cli_dispatch(["diag", f"--{key}", "1.0"]) == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1.0}), encoding="utf-8")
        capsys.readouterr()
        assert cli_dispatch(["diag", "--config", str(cfg)]) == 1
        assert f"unknown keys ['{key}']" in capsys.readouterr().err

    def test_a_noise_beyond_the_float_range_exits_one_naming_it(self, pipeline, tmp_path, capsys):
        scenes = tmp_path / "scenes"
        assert cli_dispatch(["synth", "--family", "two-person", "--n", "2", "--seed", "3", "--out", str(scenes)]) == 0
        report = tmp_path / "diag.json"
        argv = ["diag", "--scenes", str(scenes), "--grammar", pipeline["grammar"], "--models", pipeline["models"]]
        capsys.readouterr()
        assert cli_dispatch(argv + ["--noise-sigma", "1e308", "--report", str(report)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        shape = r"error: noise_sigma 1e\+308 gives person \d+'s part '\w+' a score of -?inf for \w+=\w+, not a"
        assert re.fullmatch(shape + " finite number", line)
        assert not report.exists()

    def test_joint_mode_on_a_grammar_without_attributes_exits_one(self, pipeline, tmp_path, capsys):
        scenes = tmp_path / "scenes"
        assert cli_dispatch(["synth", "--family", "single", "--n", "1", "--seed", "3", "--out", str(scenes)]) == 0
        bare = json.loads(_read(pipeline["grammar"]))
        bare["attributes"] = []
        grammar = tmp_path / "bare.json"
        grammar.write_text(json.dumps(bare), encoding="utf-8")
        report = tmp_path / "diag.json"
        argv = ["diag", "--scenes", str(scenes), "--grammar", str(grammar), "--models", pipeline["models"]]
        capsys.readouterr()
        assert cli_dispatch(argv + ["--modes", "joint", "--report", str(report)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: a joint parse needs at least one (attribute, value) pair, and the grammar declares no attributes"
        ]
        assert not report.exists()

    def test_empty_scene_directory(self, pipeline, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        code = cli_dispatch(
            [
                "diag",
                "--scenes",
                str(empty),
                "--grammar",
                pipeline["grammar"],
                "--models",
                pipeline["models"],
                "--report",
                str(tmp_path / "r.json"),
            ]
        )
        assert code == 1
        assert "no scene files" in capsys.readouterr().err


class TestWarnings:
    """A library warning prints as one ``warning:`` line with no source
    path or code line, on every command that raises it."""

    @staticmethod
    def _fallback_line() -> str:
        edges = list(build_default_human_grammar().psg_edges)
        return f"warning: no part-type samples for edges {edges}; they use the uniform table"

    def test_the_uniform_fallback_is_one_line_every_time(self, pipeline, tmp_path, capsys):
        out = tmp_path / "m.json"
        argv = ["learn", "--annotations", pipeline["annotations"], "--grammar", pipeline["grammar"]]
        argv += ["--components", "2", "--out", str(out)]
        for _ in range(2):
            assert cli_dispatch(argv) == 0
            assert capsys.readouterr().err.splitlines() == [self._fallback_line(), f"wrote models to {out}"]

    def test_each_component_drop_is_one_line(self, pipeline, tmp_path, capsys):
        tiny = tmp_path / "tiny.jsonl"
        tiny.write_text("".join(_read(pipeline["annotations"]).splitlines(keepends=True)[:6]), encoding="utf-8")
        out = tmp_path / "m.json"
        argv = ["learn", "--annotations", str(tiny), "--grammar", pipeline["grammar"]]
        assert cli_dispatch(argv + ["--components", "7", "--out", str(out)]) == 0
        samples = displacement_samples(load_annotations(str(tiny)), build_default_human_grammar())
        drops = [f"warning: edge {edge}: only {len(x)} samples for 7 components; using {len(x)}" for edge, x in samples.items()]
        err = capsys.readouterr().err
        assert err.splitlines() == [self._fallback_line(), *drops, f"wrote models to {out}"]
        assert ".py:" not in err


def _edited_grammar(tmp_path, edit) -> str:
    """A file of the default grammar's document after ``edit``."""
    doc = edit(build_default_human_grammar().to_json_dict())
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _add_dg_edge(parent, child):
    return lambda doc: {**doc, "dg_edges": [*doc["dg_edges"], [parent, child]]}


def _rename_head(doc):
    return json.loads(json.dumps(doc).replace('"head"', '"skull"'))


class TestGrammarPartsTheInputsLack:
    """A grammar file with a dependency edge to an undeclared or a composite
    part is refused at load; one that renames a terminal loads, and ends in
    one error line naming the part where the library first needs it."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (_add_dg_edge("torso", "ghost"), "dg edge ('torso', 'ghost') references undeclared node 'ghost'"),
            (
                _add_dg_edge("upper_body", "head"),
                "dg edge ('upper_body', 'head') touches non-terminal node 'upper_body'; "
                "node 'head' has multiple dg parents ['torso', 'upper_body']",
            ),
        ],
        ids=["undeclared", "composite"],
    )
    def test_refused_at_load(self, pipeline, tmp_path, capsys, edit, message):
        path = _edited_grammar(tmp_path, edit)
        out = tmp_path / "out.json"
        learn = ["learn", "--annotations", pipeline["annotations"], "--components", "2"]
        parse = ["parse", "--models", pipeline["models"], "--proposals", pipeline["proposals"], "--beam", "4"]
        for argv in (learn, parse):
            assert cli_dispatch(argv + ["--grammar", path, "--out", str(out)]) == 1
            assert capsys.readouterr().err == f"error: {path}: {message}\n"
            assert not out.exists()
        with pytest.raises(ValidationError, match="^" + re.escape(f"{path}: {message}") + "$"):
            load_grammar(path)

    def test_learn_with_a_renamed_terminal(self, pipeline, tmp_path, capsys):
        path = _edited_grammar(tmp_path, _rename_head)
        out = tmp_path / "m.json"
        argv = ["learn", "--annotations", pipeline["annotations"], "--grammar", path]
        assert cli_dispatch(argv + ["--components", "2", "--out", str(out)]) == 1
        message = "the annotations carry no joint for the grammar's terminals ['skull']"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        with pytest.raises(MissingEntryError, match="^" + re.escape(message) + "$"):
            learn_models(load_annotations(pipeline["annotations"]), load_grammar(path), n_components=2)

    def test_eval_pcp_with_a_renamed_terminal(self, pipeline, tmp_path, capsys):
        path = _edited_grammar(tmp_path, _rename_head)
        grammar = load_grammar(path)
        truth = tmp_path / "truth.jsonl"
        truth.write_text(_read(pipeline["annotations"]).splitlines(keepends=True)[0], encoding="utf-8")
        pred = tmp_path / "pred"
        pred.mkdir()
        annotation = load_annotations(str(truth))[0]
        pts = part_keypoints({p: (j.x, j.y) for p, j in annotation.joints.items()})
        pg = ParseGraph({p: PartState(p, x, y, 1, f"t.{p}") for p, (x, y) in pts.items()}, {}, 0.0)
        save_parse_graph(pg, str(pred / "p.json"), grammar)
        argv = ["eval-pcp", "--pred", str(pred), "--truth", str(truth), "--grammar", path]
        assert cli_dispatch(argv) == 1
        message = "annotation misses a joint for stick endpoint 'skull'"
        assert capsys.readouterr().err == f"error: {message}\n"
        with pytest.raises(MissingEntryError, match="^" + re.escape(message) + "$"):
            strict_pcp(pg, annotation, default_sticks(grammar))
