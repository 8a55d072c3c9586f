"""The JSON file contract, checked through every reader and writer.

Readers refuse ``NaN`` tokens, truncated documents and (for document
files) tops that are not objects, naming ``path`` or ``path:line``.
Writers refuse non-finite values and leave no file behind.
"""

from __future__ import annotations

import argparse
import json
import math
import re

import pytest

from posegrammar import cli
from posegrammar.appearance import Proposal, ProposalSet, ScoreTable, load_proposals, save_proposals
from posegrammar.errors import ValidationError
from posegrammar.grammar import (
    ATOMIC_PARTS,
    ParseGraph,
    PartState,
    build_default_human_grammar,
    load_grammar,
    load_parse_graph,
    save_parse_graph,
)
from posegrammar.jsonio import read_json, read_json_lines, write_json, write_json_lines
from posegrammar.learning import Annotation, load_annotations, save_annotations
from posegrammar.relations import (
    AttributeAssociation,
    KinematicMoG,
    RelationModels,
    load_models,
    save_models,
    uniform_syntactic_table,
)
from posegrammar.synthetic import load_scene

_PROPOSAL = {"id": "p1", "part": "head", "x": 0.0, "y": 0.0, "part_type": 1, "box": [0, 0, 5, 5]}
_ANNOTATION = {"joints": {p: [1.0, 2.0, True] for p in ATOMIC_PARTS}, "person_box": [0, 0, 10, 10]}

# Document readers: one JSON value per file.
DOCUMENT_READERS = {
    "grammar": load_grammar,
    "models": load_models,
    "parse-graph": lambda path: load_parse_graph(path, build_default_human_grammar()),
    "scene": load_scene,
}
READERS = {
    **DOCUMENT_READERS,
    "number-array": lambda path: read_json(path, cli._number_array),
    "config": lambda path: cli._merged_options(argparse.Namespace(config=path), {}),
}
# JSON-lines readers, with a valid first line.
LINE_READERS = {
    "annotations": (load_annotations, _ANNOTATION),
    "proposals": (load_proposals, _PROPOSAL),
    "proposal-groups": (lambda path: read_json_lines(path, cli._proposal_group), [_PROPOSAL]),
}
DEFECTS = {"nan": ('{"a": NaN}', "non-finite JSON constant 'NaN'"), "truncated": ('{"a": [1', "invalid JSON")}


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


# Proposal fields of the wrong type (numbers, ids, parts): none is coerced.
COERCIONS = {
    "float-type": ({"part_type": 2.7}, "proposal 'p2': part_type must be an integer, got 2.7"),
    "string-type": ({"part_type": "3"}, "proposal 'p2': part_type must be an integer, got '3'"),
    "bool-type": ({"part_type": True}, "proposal 'p2': part_type must be an integer, got True"),
    "string-x": ({"x": "1"}, "proposal 'p2': x, y and box must be finite numbers"),
    "bool-y": ({"y": True}, "proposal 'p2': x, y and box must be finite numbers"),
    "string-box": ({"box": ["1", 0, 5, 5]}, "proposal 'p2': x, y and box must be finite numbers"),
    "bool-box": ({"box": [0, 0, True, 5]}, "proposal 'p2': x, y and box must be finite numbers"),
    "null-id": ({"id": None}, "proposal id must be a non-empty string, got None"),
    "number-id": ({"id": 5}, "proposal id must be a non-empty string, got 5"),
    "bool-id": ({"id": True}, "proposal id must be a non-empty string, got True"),
    "null-part": ({"part": None}, "proposal 'p2': part must be a string, got None"),
    "number-part": ({"part": 5}, "proposal 'p2': part must be a string, got 5"),
    "bool-part": ({"part": False}, "proposal 'p2': part must be a string, got False"),
}


@pytest.mark.parametrize("case", sorted(COERCIONS))
@pytest.mark.parametrize("reader", ["proposals", "proposal-groups"])
def test_proposal_readers_refuse_numbers_of_the_wrong_type_naming_the_line(tmp_path, reader, case):
    fields, message = COERCIONS[case]
    read, first = LINE_READERS[reader]
    bad = {**_PROPOSAL, "id": "p2", **fields}
    path = tmp_path / "input.jsonl"
    path.write_text(json.dumps(first) + "\n" + json.dumps([bad] if reader == "proposal-groups" else bad) + "\n")
    with pytest.raises(ValidationError, match="^" + re.escape(f"{path}:2: {message}")):
        read(str(path))


@pytest.mark.parametrize("top", ["[]", "3", '"text"'])
@pytest.mark.parametrize("reader", sorted(DOCUMENT_READERS))
def test_document_reader_refuses_a_top_level_that_is_not_an_object(tmp_path, reader, top):
    path = tmp_path / "doc.json"
    path.write_text(top, encoding="utf-8")
    with pytest.raises(ValidationError, match="^" + re.escape(f"{path}: malformed ") + ".*expected a JSON object"):
        DOCUMENT_READERS[reader](str(path))


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
    object.__setattr__(prop, "x", math.nan)
    save_proposals(ProposalSet.from_proposals([prop], table), path)


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
