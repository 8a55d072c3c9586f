"""The JSON file contract, checked through every reader and writer.

Readers refuse ``NaN`` tokens, truncated documents and every value their
field spec does not accept, naming ``path`` or ``path:line`` and the
field.  Writers refuse non-finite values and leave no file behind.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import inspect
import json
import math
import pkgutil
import re
import sys
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import posegrammar
from posegrammar import cli
from posegrammar.appearance import Proposal, ProposalSet, ScoreTable, load_proposals, save_proposals, synth_scores
from posegrammar.errors import PoseGrammarError, ValidationError
from posegrammar.evaluation import annotation_from_person, default_sticks, make_training_pairs, strict_pcp
from posegrammar.grammar import (
    ATOMIC_PARTS,
    AOGrammar,
    AttributeDef,
    GrammarNode,
    ParseGraph,
    PartState,
    build_default_human_grammar,
    load_grammar,
    load_parse_graph,
    save_parse_graph,
)
from posegrammar.jsonio import FieldError, array, number, number_column, read_json, read_json_lines, write_json
from posegrammar.jsonio import write_json_lines
from posegrammar.learning import Annotation, JointObs, fit_kinematic, learn_models, load_annotations, save_annotations
from posegrammar.relations import (
    AttributeAssociation,
    KinematicMoG,
    Mixture,
    RelationModels,
    SyntacticTable,
    load_models,
    save_models,
)
from posegrammar.synthetic import Person, SyntheticScene, generate_family, load_scene, single_person_scene
from posegrammar.synthetic import two_person_scene

from oracle import uniform_syntactic_table

_PROPOSAL = {"id": "p1", "part": "head", "x": 0.0, "y": 0.0, "part_type": 1, "box": [0, 0, 5, 5]}
_ANNOTATION = {"joints": {p: [1.0, 2.0, True] for p in ATOMIC_PARTS}, "person_box": [0, 0, 10, 10]}
_SYNTH_DEFAULTS = cli._COMMANDS["synth"][1]

# Document readers: one JSON value per file.
DOCUMENT_READERS = {
    "grammar": load_grammar,
    "models": load_models,
    "parse-graph": partial(load_parse_graph, grammar=build_default_human_grammar()),
    "scene": load_scene,
}
READERS = {
    **DOCUMENT_READERS,
    "number-array": partial(read_json, build=cli._number_array),
    "label-array": partial(read_json, build=cli._label_array),
    "config": lambda path: cli._merged_options(argparse.Namespace(config=path), _SYNTH_DEFAULTS),
}
# JSON-lines readers, with a valid first line.
LINE_READERS = {
    "annotations": (load_annotations, _ANNOTATION),
    "proposals": (load_proposals, _PROPOSAL),
    "proposal-groups": (partial(read_json_lines, build=cli._proposal_group), [_PROPOSAL]),
}
DEFECTS = {
    "nan": ('{"a": NaN}', "non-finite JSON constant 'NaN'"),
    "truncated": ('{"a": [1', "invalid JSON"),
    "trailing": ('{"a": 1} x', "invalid JSON: Extra data: line 1 column 10 (char 9)"),
}


@pytest.mark.parametrize("defect", sorted(DEFECTS))
@pytest.mark.parametrize("reader", sorted(READERS) + sorted(LINE_READERS))
def test_reader_refuses_nan_and_truncated_documents_naming_the_path(tmp_path, reader, defect):
    text, message = DEFECTS[defect]
    path = tmp_path / "input.json"
    if reader in LINE_READERS:
        read, first = LINE_READERS[reader]
        path.write_text(json.dumps(first) + "\n" + text + "\n", encoding="utf-8")
        where = f"{path}:2: "
    else:
        read = READERS[reader]
        path.write_text(text, encoding="utf-8")
        where = f"{path}: "
    with pytest.raises(ValidationError, match="^" + re.escape(where + message)):
        read(str(path))


def test_every_public_load_function_is_in_the_reader_tables():
    """A new reader cannot bypass the field spec unnoticed: every public
    ``load_*`` function of the package is in the tables above, and so in
    the mutation property below."""
    loaders = set()
    for info in pkgutil.iter_modules(posegrammar.__path__):
        module = importlib.import_module(f"posegrammar.{info.name}")
        loaders.update(
            f for name, f in vars(module).items()
            if name.startswith("load_") and inspect.isfunction(f) and f.__module__ == module.__name__
        )
    tabled = {getattr(r, "func", r) for r in [*READERS.values(), *(r for r, _ in LINE_READERS.values())]}
    assert len(loaders) == 6
    assert sorted(f.__qualname__ for f in loaders - tabled) == []
    assert set(DOCUMENTS) == set(READERS) | set(LINE_READERS)


# Proposal fields of the wrong type (numbers, ids, parts): none is coerced.
COERCIONS = {
    "float-type": ({"part_type": 2.7}, "part_type must be an integer >= 1, got 2.7"),
    "string-type": ({"part_type": "3"}, "part_type must be an integer >= 1, got '3'"),
    "bool-type": ({"part_type": True}, "part_type must be an integer >= 1, got True"),
    "string-x": ({"x": "1"}, "x must be a finite number, got '1'"),
    "bool-y": ({"y": True}, "y must be a finite number, got True"),
    "string-box": ({"box": ["1", 0, 5, 5]}, "box[0] must be a finite number, got '1'"),
    "bool-box": ({"box": [0, 0, True, 5]}, "box[2] must be a finite number, got True"),
    "null-id": ({"id": None}, "id must be a non-empty string, got None"),
    "number-id": ({"id": 5}, "id must be a non-empty string, got 5"),
    "bool-id": ({"id": True}, "id must be a non-empty string, got True"),
    "null-part": ({"part": None}, "part must be a non-empty string, got None"),
    "number-part": ({"part": 5}, "part must be a non-empty string, got 5"),
    "bool-part": ({"part": False}, "part must be a non-empty string, got False"),
}


@pytest.mark.parametrize("case", sorted(COERCIONS))
@pytest.mark.parametrize("reader", ["proposals", "proposal-groups"])
def test_proposal_readers_refuse_numbers_of_the_wrong_type_naming_the_line(tmp_path, reader, case):
    fields, message = COERCIONS[case]
    read, first = LINE_READERS[reader]
    bad = {**_PROPOSAL, "id": "p2", **fields}
    path = tmp_path / "input.jsonl"
    path.write_text(json.dumps(first) + "\n" + json.dumps([bad] if reader == "proposal-groups" else bad) + "\n")
    field = "[0]." if reader == "proposal-groups" else ""
    with pytest.raises(ValidationError, match="^" + re.escape(f"{path}:2: {field}{message}") + "$"):
        read(str(path))


TOPS = {"[]": "a JSON array of length 0", "3": "3", '"text"': "'text'"}


@pytest.mark.parametrize("top", list(TOPS))
@pytest.mark.parametrize("reader", sorted(DOCUMENT_READERS))
def test_document_reader_refuses_a_top_level_that_is_not_an_object(tmp_path, reader, top):
    path = tmp_path / "doc.json"
    path.write_text(top, encoding="utf-8")
    message = f"{path}: the document must be a JSON object, got {TOPS[top]}"
    with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
        DOCUMENT_READERS[reader](str(path))


# One valid document per reader; a JSON-lines reader's is a list of lines.


def _models_doc() -> dict:
    edge = ("torso", "head")
    mixture = Mixture([0.5, 0.5], [[0.0, -30.0], [2.0, -35.0]], [[[4.0, 1.0], [1.0, 9.0]], [[2.0, 0.0], [0.0, 2.0]]])
    association = AttributeAssociation({"head": ("hat",), "torso": ()}, ("hat", "gender"), mi={"head": {"hat": 0.5}})
    return RelationModels(uniform_syntactic_table([edge], 2), KinematicMoG({edge: mixture}), association).to_json_dict()


def _parse_graph_doc() -> dict:
    states = {"head": PartState("head", 1.0, 2.0, 1, "p1"), "torso": PartState("torso", 3.0, 4.5, 2, "p2")}
    return ParseGraph(states, {"gender": "male"}, -1.5).to_json_dict(build_default_human_grammar())


_SCORED = {**_PROPOSAL, "scores": {"hat": {"yes": 0.5, "no": -0.5}}}
DOCUMENTS = {
    "grammar": lambda: build_default_human_grammar().to_json_dict(),
    "models": _models_doc,
    "parse-graph": _parse_graph_doc,
    "scene": lambda: single_person_scene(3).to_json_dict(),
    "number-array": lambda: [0.9, 0.8],
    "label-array": lambda: [1, 0],
    "config": lambda: {"n": 2, "seed": 9, "family": "single", "image_size": [320, 240], "spacing": 24.0},
    "annotations": lambda: [{**_ANNOTATION, "attributes": {"gender": "male", "hat": None}}] * 2,
    "proposals": lambda: [_SCORED, {**_SCORED, "id": "p2"}, {**_SCORED, "id": "p3"}],
    "proposal-groups": lambda: [[_SCORED, {**_SCORED, "id": "p2"}]] * 2,
}

# Where the README's "File formats" section lets a mutated document load.
# A pattern is a field path in which ANY stands for one key or index.
ANY = object()
# Objects whose keys are data rather than field names: an entry of one is
# never a required key.
DATA = {
    "models": [("syntactic",), ("kinematic",), ("association", "parts"), ("association", "mi"), ("association", "mi", ANY)],
    "parse-graph": [("attributes",)],
    "scene": [("persons", ANY, "joints"), ("persons", ANY, "attributes")],
    "annotations": [("joints",), ("attributes",)],
    "proposals": [("scores",), ("scores", ANY)],
}
# Fields that may be absent, a default standing in.
OPTIONAL = {
    "grammar": [("schema_version",), ("nodes", ANY, "name"), ("nodes", ANY, "children"), ("dg_edges",),
                ("attributes",), ("attributes", ANY, "name"), ("part_type_count",)],
    "models": [("schema_version",), ("part_type_count",), ("association", "mi")],
    "parse-graph": [("schema_version",), ("attributes",)],
    "scene": [("schema_version",), ("persons", ANY, "attributes")],
    "annotations": [("attributes",)],
    "proposals": [("scores",)],
    "config": [(ANY,)],
}
# Fields that may be null or a string, and fields a reader ignores, with
# all they hold.
NULLABLE = {"annotations": [("attributes", ANY)]}
IGNORED = {"proposal-groups": [(ANY, "scores")]}


def _matches(path: tuple, patterns, prefix: bool = False) -> bool:
    return any(
        (len(path) >= len(p) if prefix else len(path) == len(p))
        and all(q is ANY or q == k for q, k in zip(p, path))
        for p in patterns
    )


def _field(path: tuple) -> str:
    """``path`` written the way errors name fields, e.g. ``nodes[3].id``."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).removeprefix(".")


def _paths(doc, path=()):
    """Every field path below ``doc``."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _kind(value) -> str:
    return "number" if isinstance(value, (int, float)) and not isinstance(value, bool) else type(value).__name__


_OF_EACH_TYPE = [None, True, 2.5, "text", [1], {"k": 1}]
DROP = object()


def _mutations(reader: str) -> list:
    """(path, replacement) pairs; a replacement of ``DROP`` drops the key."""
    doc = DOCUMENTS[reader]()
    root = doc[-1] if reader in LINE_READERS else doc
    out = []
    for path in _paths(root):
        value = _at(root, path)
        out += [(path, v) for v in _OF_EACH_TYPE if _kind(v) != _kind(value)]
        out += [(path, 10**400), (path, [value]), (path, {"k": value})]
        if isinstance(path[-1], str) and not _matches(path[:-1], DATA.get(reader, [])):
            out.append((path, DROP))
    return out


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# The lines a JSON-lines reader's mutation may fall on; the others' falls
# on the last line.
MUTATED_LINES = {"proposals": (0, 1, 2)}


def _write_mutated(tmp_dir, reader: str, path: tuple, value, line: int = -1) -> str:
    doc = json.loads(json.dumps(DOCUMENTS[reader]()))  # every line its own copy
    root = doc[line] if reader in LINE_READERS else doc
    parent = _at(root, path[:-1])
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    target = tmp_dir / "doc.json"
    lines = doc if reader in LINE_READERS else [doc]
    target.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    return str(target)


def _refused_or_lenient(tmp_dir, reader: str, path: tuple, value, line: int = -1) -> None:
    """Load ``reader``'s document with ``path`` set to ``value`` (or dropped)
    on its line ``line``: the load fails with an error naming the file and
    the field, unless the README lists the field as optional (when
    dropped), nullable (when null or a string) or ignored."""
    target = _write_mutated(tmp_dir, reader, path, value, line)
    read = LINE_READERS[reader][0] if reader in LINE_READERS else READERS[reader]
    lenient = (
        _matches(path, IGNORED.get(reader, []), prefix=True)
        or value is DROP and _matches(path, OPTIONAL.get(reader, []))
        or (value is None or isinstance(value, str)) and _matches(path, NULLABLE.get(reader, []))
    )
    try:
        read(target)
    except PoseGrammarError as exc:
        if not lenient:
            assert str(exc).startswith(f"{target}:") and _field(path) in str(exc), str(exc)
    else:
        assert lenient, f"{reader} loaded {_field(path)} = {value!r}"


@pytest.mark.parametrize("reader", sorted(DOCUMENTS))
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_a_mutated_document_is_refused_naming_the_field(tmp_path_factory, reader, data):
    """Change one field's JSON type, drop a required key, write an integer
    of 10**400 or wrap a value in an array or an object; in a proposal
    file, on its first, middle or last line."""
    path, value = data.draw(st.sampled_from(_mutations(reader)))
    line = data.draw(st.sampled_from(MUTATED_LINES.get(reader, (-1,))))
    _refused_or_lenient(tmp_path_factory.mktemp(reader), reader, path, value, line)


@pytest.mark.parametrize("reader", sorted(DOCUMENTS))
def test_every_mutation_of_a_document_is_refused_naming_the_field(tmp_path, reader):
    """The property above, over every mutation at once: a few seconds in all."""
    for line in MUTATED_LINES.get(reader, (-1,)):
        for path, value in _mutations(reader):
            _refused_or_lenient(tmp_path, reader, path, value, line)


# Coercions the readers used to apply: each such document now fails,
# naming the field.
REGRESSIONS = {
    "grammar-null-node-id": ("grammar", ("nodes", 3, "id"), None, "must be a non-empty string, got None"),
    "grammar-null-edge-end": ("grammar", ("dg_edges", 0, 1), None, "must be a non-empty string, got None"),
    "grammar-float-type-count": ("grammar", ("part_type_count",), 3.7, "must be an integer >= 1, got 3.7"),
    "models-float-type-count": ("models", ("part_type_count",), 3.7, "must be an integer >= 1, got 3.7"),
    "models-string-attr-ids": ("models", ("association", "attr_ids"), "gender", "must be a JSON array, got 'gender'"),
    "models-string-parts": ("models", ("association", "parts", "head"), "hat", "must be a JSON array, got 'hat'"),
    "models-string-syntactic": ("models", ("syntactic", "torso->head", 0, 0), "0.25", "must be a finite number, got '0.25'"),
    "parse-string-x": ("parse-graph", ("states", 0, "x"), "3", "must be a finite number, got '3'"),
    "parse-bool-y": ("parse-graph", ("states", 0, "y"), True, "must be a finite number, got True"),
    "parse-float-type": ("parse-graph", ("states", 1, "part_type"), 2.9, "must be an integer >= 1, got 2.9"),
    "parse-number-proposal": ("parse-graph", ("states", 1, "proposal"), 7, "must be a non-empty string, got 7"),
    "annotation-4-entry-joint": (
        "annotations", ("joints", "head"), [1, 2, 0, 99],
        "must be a JointObs or a JSON array of length 3, got a JSON array of length 4",
    ),
    "annotation-list-visibility": (
        "annotations", ("joints", "head", 2), [True], "must be true or false, got a JSON array of length 1"
    ),
    "scene-float-image-size": ("scene", ("image_size", 0), 320.9, "must be an integer >= 1, got 320.9"),
    "scene-string-image-size": ("scene", ("image_size", 1), "240", "must be an integer >= 1, got '240'"),
}


@pytest.mark.parametrize("case", sorted(REGRESSIONS))
def test_a_coercion_the_readers_used_to_apply_is_refused(tmp_path, case):
    reader, path, value, problem = REGRESSIONS[case]
    target = _write_mutated(tmp_path, reader, path, value)
    where = f"{target}:2" if reader in LINE_READERS else target
    read = LINE_READERS[reader][0] if reader in LINE_READERS else READERS[reader]
    with pytest.raises(ValidationError, match="^" + re.escape(f"{where}: {_field(path)} {problem}") + "$"):
        read(target)


@pytest.mark.parametrize("reader", sorted(DOCUMENT_READERS))
def test_schema_version_may_be_absent_but_is_never_another_version(tmp_path, reader):
    read = DOCUMENT_READERS[reader]
    current = read(_write_mutated(tmp_path, reader, ("schema_version",), 1))
    assert type(read(_write_mutated(tmp_path, reader, ("schema_version",), DROP))) is type(current)
    for other, shown in ((2, "2"), (1.0, "1.0"), ("1", "'1'"), (True, "True")):
        target = _write_mutated(tmp_path, reader, ("schema_version",), other)
        with pytest.raises(ValidationError, match="^" + re.escape(f"{target}: schema_version must be 1, got {shown}") + "$"):
            read(target)


# The constructors refuse non-finite values, so each writer below gets an
# object whose field is set past them, as a caller mutating a frozen
# record could.


def _nan_parse_graph(path):
    pg = ParseGraph({"head": PartState("head", 1.0, 2.0, 1, "p")}, {}, 0.0)
    object.__setattr__(pg, "total_score", math.nan)
    save_parse_graph(pg, path, build_default_human_grammar())


def _nan_proposals(path):
    table = ScoreTable({"p1": {"hat": {"yes": 0.5}}})
    prop = Proposal(id="p1", part="head", x=0.0, y=1.0, part_type=1, box=(0, 0, 2, 2))
    pset = ProposalSet.from_proposals([prop], table)
    pset.buckets["head"].xy[0, 0] = math.nan
    save_proposals(pset, path)


def _nan_models(path):
    edges = (("a", "b"),)
    assoc = AttributeAssociation({"a": ("c",)}, ("c",), mi={"a": {"c": math.nan}})
    save_models(RelationModels(uniform_syntactic_table(edges, 2), KinematicMoG({}), assoc), path)


def _nan_annotations(path):
    ann = Annotation.from_json_dict(_ANNOTATION)
    object.__setattr__(ann, "person_box", (0.0, 0.0, math.nan, 1.0))
    save_annotations([ann], path)


WRITERS = {
    "parse-graph": _nan_parse_graph,
    "proposals": _nan_proposals,
    "models": _nan_models,
    "annotations": _nan_annotations,
    "report": lambda path: write_json(path, {"mean_pcp": math.nan}),
    "stdout": lambda path: write_json(None, {"average_precision": math.inf}),
    "lines": lambda path: write_json_lines(path, [{"a": 1.0}, {"a": -math.inf}]),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_writer_refuses_non_finite_values_and_leaves_no_file(tmp_path, capsys, writer):
    path = tmp_path / "out.json"
    where = "<stdout>" if writer == "stdout" else str(path)
    with pytest.raises(ValidationError, match="^" + re.escape(where) + ": .*not JSON compliant"):
        WRITERS[writer](str(path))
    assert not path.exists()
    assert capsys.readouterr().out == ""


def test_writers_sort_keys_and_indent_documents(tmp_path):
    doc = {"b": [1, 2.5], "a": {"d": None, "c": True}}
    path = tmp_path / "doc.json"
    write_json(str(path), doc)
    assert path.read_text(encoding="utf-8") == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert read_json(str(path)) == doc
    lines = tmp_path / "docs.jsonl"
    write_json_lines(str(lines), [doc, {}])
    assert lines.read_text(encoding="utf-8") == '{"a": {"c": true, "d": null}, "b": [1, 2.5]}\n{}\n'
    assert read_json_lines(str(lines), dict) == [doc, {}]


_EDGE = int(sys.float_info.max)
_CELLS = st.one_of(
    st.floats(),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(max_size=2),
    st.sampled_from([-0.0, sys.float_info.max, -sys.float_info.max, _EDGE, _EDGE + 1, -_EDGE - 1, 2**1024, 10**400]),
)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_CELLS, max_size=6), as_tuple=st.booleans())
def test_the_column_number_rule_is_the_number_rule_at_each_index(values, as_tuple):
    """``number_column`` reads what ``number`` reads, bit for bit, and
    refuses the first value ``number`` refuses, naming its index."""
    expected = []
    for i, value in enumerate(values):
        try:
            expected.append(number(value))
        except FieldError as exc:
            with pytest.raises(FieldError) as refused:
                number_column(tuple(values) if as_tuple else values)
            assert str(refused.value) == f"[{i}] {exc.problem}"
            return
    column = number_column(tuple(values) if as_tuple else values)
    assert column.dtype == float and [float.hex(v) for v in column.tolist()] == [float.hex(v) for v in expected]


_NAN = float("nan")


def _pcp(threshold):
    grammar = build_default_human_grammar()
    truth = annotation_from_person(single_person_scene(1).persons[0])
    return strict_pcp(ParseGraph({}, {}, 0.0), truth, default_sticks(grammar), threshold=threshold)


def _synth(**kwargs):
    return synth_scores(single_person_scene(1), kwargs.pop("noise_sigma", 0.1), 0, **kwargs)


def _learn(n_components):
    grammar = build_default_human_grammar()
    annotations, types = make_training_pairs(4, seed=1, grammar=grammar)
    return learn_models(annotations, grammar, type_samples=types, n_components=n_components)


_SAMPLES = {("a", "b"): [[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]]}

# Library arguments that follow the count rule, each called with ``value``.
COUNT_ARGUMENTS = {
    "generate_family": ("n", lambda value: generate_family("single", value, 0)),
    "make_training_pairs": ("n", lambda value: make_training_pairs(value, 0, build_default_human_grammar())),
    "synth_scores": ("part_type_count", lambda value: _synth(part_type_count=value)),
    "fit_kinematic": ("n_components", lambda value: fit_kinematic(_SAMPLES, n_components=value)),
    "learn_models": ("n_components", _learn),
}


@pytest.mark.parametrize("value, shown", [(0, "0"), (2.5, "2.5"), (True, "True")])
@pytest.mark.parametrize("function", COUNT_ARGUMENTS)
def test_a_count_argument_is_refused_naming_it(function, value, shown):
    name, call = COUNT_ARGUMENTS[function]
    message = f"{name} must be an integer >= 1, got {shown}"
    with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
        call(value)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: _pcp(_NAN), "threshold must be a finite number, got nan"),
        (lambda: _pcp(math.inf), "threshold must be a finite number, got inf"),
        (lambda: _pcp("0.5"), "threshold must be a finite number, got '0.5'"),
        (lambda: _synth(noise_sigma="1"), "noise_sigma must be a finite number, got '1'"),
        (lambda: _synth(noise_sigma=_NAN), "noise_sigma must be a finite number, got nan"),
        (lambda: single_person_scene(0, pose_sigma=-1.0), "pose_sigma must be >= 0, got -1.0"),
        (lambda: single_person_scene(0, pose_sigma=_NAN), "pose_sigma must be a finite number, got nan"),
        (lambda: two_person_scene(0, pose_sigma=_NAN), "pose_sigma must be a finite number, got nan"),
        (lambda: two_person_scene(0, spacing=_NAN), "spacing must be a finite number, got nan"),
    ],
    ids=[
        "threshold-nan", "threshold-inf", "threshold-str", "noise-str", "noise-nan",
        "pose-negative", "pose-nan", "two-person-pose-nan", "spacing-nan",
    ],
)
def test_a_real_argument_is_refused_naming_it(call, message):
    """Library arguments that follow the number rule name themselves when
    refused, before any sign rule and before any value is drawn."""
    with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
        call()


def test_an_array_names_its_first_refused_entry():
    assert array(number)([1, 2.5]) == (1.0, 2.5)
    with pytest.raises(FieldError, match=r"^\[1\] must be a finite number, got 'a'$"):
        array(number)([1.0, "a", None])


_JOINT_OBS = {p: JointObs(1.0, 2.0) for p in ATOMIC_PARTS}
_XY = {p: (1.0, 2.0) for p in ATOMIC_PARTS}

# Record constructors called as a library caller may call them: each checks
# every field by its type's one spec, as the type's reader does.
CONSTRUCTOR_CASES = {
    "state-float-type": (lambda: PartState("head", 1.0, 1.0, 1.5, "p"), "part_type must be an integer >= 1, got 1.5"),
    "state-string-type": (lambda: PartState("head", 1.0, 1.0, "2", "p"), "part_type must be an integer >= 1, got '2'"),
    "state-string-x": (lambda: PartState("head", "a", 1.0, 1, "p"), "x must be a finite number, got 'a'"),
    "state-nan-y": (lambda: PartState("head", 1.0, math.nan, 1, "p"), "y must be a finite number, got nan"),
    "joint-string-x": (
        lambda: Annotation({**_JOINT_OBS, "head": JointObs("a", 1.0)}, (0, 0, 1, 1), {}),
        "x must be a finite number, got 'a'",
    ),
    "joint-string-visible": (lambda: JointObs(1.0, 1.0, visible="no"), "visible must be true or false, got 'no'"),
    "person-number-value": (lambda: Person(_XY, {"hat": 3}), "attributes.hat must be a non-empty string, got 3"),
    "annotation-number-value": (
        lambda: Annotation(_JOINT_OBS, (0, 0, 1, 1), {"hat": 3}),
        "attributes.hat must be a non-empty string, got 3",
    ),
    "parse-number-value": (
        lambda: ParseGraph({}, {"hat": 3}, 1.0), "attribute_assignment.hat must be a non-empty string, got 3"
    ),
    "parse-number-state": (lambda: ParseGraph({"head": 5}, {}, 1.0), "states.head must be a PartState, got 5"),
    "attribute-number-domain": (
        lambda: AttributeDef("a", "a", (1, 2)), "domain[0] must be a non-empty string, got 1"
    ),
    "node-number-id": (lambda: GrammarNode(5, "x"), "id must be a non-empty string, got 5"),
    "grammar-number-node": (lambda: AOGrammar("x", [5], ()), "nodes[0] must be a GrammarNode or a JSON object, got 5"),
    "grammar-string-node": (
        lambda: AOGrammar("head", ["head"], ()), "nodes[0] must be a GrammarNode or a JSON object, got 'head'"
    ),
    "scene-number-person": (
        lambda: SyntheticScene([5], (320, 240)), "persons[0] must be a Person or a JSON object, got 5"
    ),
    "annotation-number-joint": (
        lambda: Annotation({**_JOINT_OBS, "head": 5}, (0, 0, 1, 1), {}),
        "joints.head must be a JointObs or a JSON array of length 3, got 5",
    ),
    "annotation-short-joint": (
        lambda: Annotation({**_JOINT_OBS, "head": [1.0, 2.0]}, (0, 0, 1, 1), {}),
        "joints.head must be a JointObs or a JSON array of length 3, got a JSON array of length 2",
    ),
    "annotation-list-joint-visibility": (
        lambda: Annotation({**_JOINT_OBS, "head": [1.0, 2.0, "no"]}, (0, 0, 1, 1), {}),
        "joints.head[2] must be true or false, got 'no'",
    ),
    "scene-person-missing-joints": (
        lambda: SyntheticScene([{"attributes": {}}], (320, 240)), "persons[0].joints is missing"
    ),
}


@pytest.mark.parametrize("case", sorted(CONSTRUCTOR_CASES))
def test_a_record_constructor_refuses_a_field_naming_it(case):
    make, message = CONSTRUCTOR_CASES[case]
    with pytest.raises(PoseGrammarError, match="^" + re.escape(message) + "$"):
        make()


def _toy_grammar(part_type_count):
    return AOGrammar("root", [{"id": "root", "children": ["a"]}, {"id": "a"}], (), (), part_type_count)


# Library part-type counts: each is checked by the count spec, not coerced.
PART_TYPE_COUNT_CASES = {
    "syntactic-float": (lambda: SyntacticTable({}, part_type_count=2.5), "2.5"),
    "syntactic-string": (lambda: SyntacticTable({}, part_type_count="2"), "'2'"),
    "proposals-float": (lambda: ProposalSet.from_proposals([], ScoreTable({}), part_type_count=2.5), "2.5"),
    "proposals-bool": (lambda: ProposalSet.from_proposals([], ScoreTable({}), part_type_count=True), "True"),
    "proposals-string": (lambda: ProposalSet.from_proposals([], ScoreTable({}), part_type_count="3"), "'3'"),
    "grammar-float": (lambda: _toy_grammar(2.5), "2.5"),
}


@pytest.mark.parametrize("case", sorted(PART_TYPE_COUNT_CASES))
def test_a_library_part_type_count_is_checked(case):
    make, shown = PART_TYPE_COUNT_CASES[case]
    with pytest.raises(ValidationError, match="^" + re.escape(f"part_type_count must be an integer >= 1, got {shown}") + "$"):
        make()


def test_every_checked_record_is_a_frozen_slotted_dataclass():
    """Every class whose ``__post_init__`` runs ``check_fields`` is frozen
    and slotted: its instances carry no ``__dict__``, which the check
    would otherwise materialize."""
    checked = []
    for info in pkgutil.iter_modules(posegrammar.__path__):
        module = importlib.import_module(f"posegrammar.{info.name}")
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.ClassDef) and "check_fields(" in ast.unparse(node):
                checked.append(getattr(module, node.name))
    assert len(checked) == 11
    for cls in checked:
        assert cls.__dataclass_params__.frozen and "__slots__" in vars(cls), cls.__name__
        assert cls.__dictoffset__ == 0, cls.__name__
