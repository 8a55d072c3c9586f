"""Outputs pinned to the bit: seeded appearance scores, a seeded training
corpus, the default grammar file, a models file and a diagnostic report.
A change that moves a random draw, the order of a sum or a serialized
digit fails here, even where every other test only checks properties."""

from __future__ import annotations

import hashlib
import json
import warnings

import pytest

from posegrammar import learn_models
from posegrammar.appearance import synth_scores
from posegrammar.evaluation import DiagnosticConfig, make_training_pairs, run_diagnostic
from posegrammar.grammar import build_default_human_grammar, load_grammar, save_grammar
from posegrammar.inference import BeamConfig
from posegrammar.relations import save_models
from posegrammar.synthetic import generate_family, two_person_scene


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_synthesized_scores_of_the_target_and_the_distractor():
    """Every later draw of the distractor's parts rides on its coherence
    draw, so the grid digest moves if that draw is dropped."""
    scores = synth_scores(two_person_scene(seed=4), noise_sigma=0.9, rng_seed=8).scores
    gender = {pid: {v: s.hex() for v, s in scores.per_proposal(pid)["gender"].items()} for pid in ("p0.head", "p1.head")}
    assert gender == {
        "p0.head": {"male": "0x1.26e477b965822p+1", "female": "-0x1.f674a181b9391p+0"},
        "p1.head": {"male": "-0x1.f31536a26efa5p+1", "female": "0x1.f8f3b1a1185d5p-1"},
    }
    cells = " ".join(map(float.hex, scores.values.ravel().tolist()))
    assert _sha256(cells.encode()) == "51cd624fbc4bf26ab532686fdcbf1956cf91754118c78bf2b53e8a3f7f63c69f"


def test_training_corpus(grammar):
    annotations, types = make_training_pairs(3, seed=11, grammar=grammar)
    # JSON writes each float by its shortest round-trip repr: bit-exact.
    docs = json.dumps([ann.to_json_dict() for ann in annotations])
    assert _sha256(docs.encode()) == "df104567f0ddc634137087044d52974b06f6caf897b7f5504d50d1280f572aac"
    assert [list(per) for per in types] == [list(grammar.part_ids)] * 3
    assert [list(per.values()) for per in types] == [
        [7, 3, 7, 8, 7, 2, 3, 4, 3, 9, 1, 7, 1, 3, 5, 5, 1],
        [9, 5, 6, 5, 2, 3, 2, 6, 6, 1, 7, 3, 7, 3, 2, 2, 7],
        [9, 3, 5, 2, 2, 9, 8, 7, 2, 5, 2, 8, 1, 6, 6, 5, 2],
    ]


def test_grammar_file_bytes(tmp_path):
    path = tmp_path / "grammar.json"
    save_grammar(build_default_human_grammar(), str(path))
    data = path.read_bytes()
    assert len(data) == 3889
    assert _sha256(data) == "20df264dcd0946eb4a9a882bc80f8b75d182663f436bd5764369eb790afa11ea"


def test_an_older_grammar_file_loads_equal(tmp_path):
    """A file in the older format, with each node's ``kind`` and the
    ``psg_edges`` list, loads equal to the default grammar: both keys are
    ignored.  The digest is that of the default grammar file the older
    writer wrote."""
    grammar = build_default_human_grammar()
    doc = grammar.to_json_dict()
    for node in doc["nodes"]:
        node["kind"] = "and" if node["children"] else "terminal"
    doc["psg_edges"] = [list(edge) for edge in grammar.psg_edges]
    path = tmp_path / "older.json"
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert _sha256(text.encode()) == "321e9904f723ee59c62f84c4ba80d5b12b9534eb83d55fddc1156e81d9cc55e4"
    path.write_text(text, encoding="utf-8")
    assert load_grammar(str(path)) == grammar


def test_models_file_bytes(grammar, tmp_path):
    annotations, types = make_training_pairs(12, seed=11, grammar=grammar)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        models = learn_models(annotations, grammar, type_samples=types, n_components=2, seed=5)
    path = tmp_path / "models.json"
    save_models(models, str(path))
    data = path.read_bytes()
    assert len(data) == 59034
    assert _sha256(data) == "ddaeefe4313876fec320c1842da6ad32859b4b4f1311c304b2263dd740b0b72f"


@pytest.mark.parametrize(
    "beam, digest",
    [
        (100, "30a3500faf373e67d5eeeddec770b5154de36540497bcea9493abc5911dbca67"),
        (3, "79405591c8dd346548cd63e7363173fcd77639439ae60c061cb5a10cd80fe5b2"),
    ],
)
def test_diagnostic_report(grammar, quick_models, beam, digest):
    """The first 4 of the acceptance gate's 100 two-person scenes, all three
    modes, under its noise and seed: a change to ``synth_scores``' draws,
    the search, the attribute readout or the AP moves the digest.  Beam 3
    prunes the lattice; beam 100 nearly covers it."""
    cfg = DiagnosticConfig(grammar, quick_models, beam=BeamConfig(beam_width=beam), noise_sigma=0.9, seed=3)
    report = run_diagnostic(generate_family("two-person", 4, seed=77), cfg)
    assert _sha256(json.dumps(report, sort_keys=True).encode()) == digest
