"""The four benchmark workloads: inputs, the timed call, and output checks.

Importing this module imports numpy and posegrammar, so the runner
imports it inside the timed set-up.  Every workload draws its inputs from
a fixed pool whose outputs were recorded once (see ``record.py``); the
workload seed picks the items from that pool and their order.  The
library only ever sees the generated inputs, and is reached through
module attributes at call time so that a traced run sees its wrappers.

Coordinates stay inside a 320 x 240 image, as a detector emits them.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from posegrammar import appearance, cli, evaluation, grammar, inference, learning, relations, synthetic

TOLERANCE = 1e-9
IMAGE_W, IMAGE_H = 320.0, 240.0


@dataclass
class Item:
    key: str
    payload: object


def reject_constant(token: str):
    raise ValueError(f"non-finite JSON constant {token}")


def strict_json(text: str):
    """Parse JSON, refusing NaN and Infinity."""
    return json.loads(text, parse_constant=reject_constant)


def compare(observed, reference, path: str = "") -> list[str]:
    """Differences between two JSON-like records.

    Floats agree within ``TOLERANCE``; everything else must be equal.
    """
    if isinstance(reference, dict):
        if not isinstance(observed, dict) or set(observed) != set(reference):
            return [f"{path}: keys differ"]
        return [d for k in reference for d in compare(observed[k], reference[k], f"{path}/{k}")]
    if isinstance(reference, list):
        if not isinstance(observed, list) or len(observed) != len(reference):
            return [f"{path}: length differs"]
        return [d for i, (o, r) in enumerate(zip(observed, reference)) for d in compare(o, r, f"{path}/{i}")]
    if isinstance(reference, float) or isinstance(observed, float):
        ok = (
            isinstance(observed, (int, float))
            and not isinstance(observed, bool)
            and math.isfinite(observed)
            and abs(observed - reference) <= TOLERANCE
        )
        return [] if ok else [f"{path}: {observed!r} != {reference!r}"]
    return [] if observed == reference else [f"{path}: {observed!r} != {reference!r}"]


def trained_models(g):
    """The relation models the acceptance suite's diagnostic gate uses."""
    annotations, types = evaluation.make_training_pairs(600, seed=11, grammar=g)
    return learning.learn_models(annotations, g, type_samples=types, n_components=10, seed=5)


def dense_lattice(g, gen_seed: int, per_part: int):
    """Uniform random proposals over the image, in criterion 9's draw order.

    Returns one dict per proposal with its id, part, x, y, type and the
    full attribute x value score grid.
    """
    rng = np.random.default_rng(gen_seed)
    rows = []
    for part in g.part_ids:
        for i in range(per_part):
            row = {
                "id": f"{part}.{i}",
                "part": part,
                "x": float(rng.uniform(0.0, IMAGE_W)),
                "y": float(rng.uniform(0.0, IMAGE_H)),
                "part_type": int(rng.integers(1, 10)),
                "box": [0.0, 0.0, 40.0, 40.0],
            }
            row["scores"] = {
                a.id: {v: float(rng.normal(0.0, 1.0)) for v in a.domain} for a in g.attributes
            }
            rows.append(row)
    return rows


def proposal_set(rows, g):
    table = appearance.ScoreTable({r["id"]: r["scores"] for r in rows})
    props = [
        appearance.Proposal(r["id"], r["part"], r["x"], r["y"], r["part_type"], tuple(r["box"]))
        for r in rows
    ]
    return appearance.ProposalSet.from_proposals(props, table, part_type_count=g.part_type_count)


def beam_candidates(bucket_sizes, beam_width: int) -> int:
    """Candidates one beam search scores: sum of min(B, prefix) x bucket size."""
    total = bucket_sizes[0]
    kept = min(beam_width, total)
    for size in bucket_sizes[1:]:
        total += kept * size
        kept = min(beam_width, kept * size)
    return total


def parse_record(pg, g) -> dict:
    return {
        "ids": [pg.states[p].proposal_ref for p in g.part_ids if p in pg.states],
        "total_score": pg.total_score,
    }


def parse_problems(pg, g, models, scores) -> list[str]:
    """Non-finite output or a total score that does not recompute."""
    try:
        json.dumps(pg.to_json_dict(g), allow_nan=False)
    except ValueError as exc:
        return [f"parse graph is not valid JSON: {exc}"]
    diff = abs(grammar.recompute_score(pg, g, models, scores) - pg.total_score)
    return [] if diff <= TOLERANCE else [f"total_score differs from recompute_score by {diff}"]


def all_pairs(g):
    return [(a.id, v) for a in g.attributes for v in a.domain]


class Workload:
    name = ""
    min_items = 1
    uses_models = True

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.g = grammar.build_default_human_grammar()
        self.models = trained_models(self.g) if self.uses_models else None

    def order(self, seed: int) -> list[str]:
        """Pool keys this seed visits, in visiting order."""
        keys = self.pool()
        return [keys[i] for i in np.random.default_rng(seed).permutation(len(keys))]

    def pool(self) -> list[str]:
        raise NotImplementedError

    def prepare(self, keys: list[str]) -> list[Item]:
        raise NotImplementedError

    def run(self, item: Item):
        raise NotImplementedError

    def observe(self, item: Item, output) -> tuple[dict, list[str]]:
        """The record compared with the reference, and reference-free problems."""
        raise NotImplementedError

    def counts(self, item: Item, output) -> dict[str, int]:
        return {}

    def quality(self, records: list[dict]) -> dict[str, float]:
        """Quality numbers over one pass of records, where the workload has any."""
        return {}


class JointDense(Workload):
    """select_final, attribute_scores and parse_unconstrained on 17 x 50 lattices."""

    name = "joint-dense"
    per_part = 50
    beam = 100
    lattices = range(200, 208)

    def pool(self):
        return [str(s) for s in self.lattices]

    def prepare(self, keys):
        self.cfg = inference.BeamConfig(beam_width=self.beam)
        sizes = [self.per_part] * len(inference.default_expansion_order(self.g))
        self.candidates = (len(all_pairs(self.g)) + 1) * beam_candidates(sizes, self.beam)
        return [Item(k, proposal_set(dense_lattice(self.g, int(k), self.per_part), self.g)) for k in keys]

    def run(self, item):
        pset = item.payload
        best, per_pair = inference.select_final(self.g, self.models, pset, cfg=self.cfg)
        scores = inference.attribute_scores(per_pair, pset, self.models.association)
        free = inference.parse_unconstrained(self.g, self.models, pset, self.cfg)
        return best, per_pair, scores, free

    def observe(self, item, output):
        best, per_pair, scores, free = output
        pset = item.payload
        problems = []
        for pg in [*per_pair.values(), free]:
            problems += parse_problems(pg, self.g, self.models, pset.scores)
        record = {
            "best": parse_record(best, self.g),
            "per_pair": {f"{a}={v}": parse_record(pg, self.g) for (a, v), pg in per_pair.items()},
            "unconstrained": parse_record(free, self.g),
            "attribute_scores": scores,
        }
        return record, problems

    def counts(self, item, output):
        return {"candidates_scored": self.candidates}


class DiagTwoPerson(Workload):
    """run_diagnostic on one two-person scene, all three modes."""

    name = "diag-two-person"
    scenes = min_items = 16
    beam = 100
    noise = 0.9

    def pool(self):
        # A fixed corpus: the quality numbers average over every scene, so
        # they repeat exactly whatever the seed; the seed sets the order.
        return [str(i) for i in range(self.scenes)]

    def prepare(self, keys):
        corpus = synthetic.generate_family("two-person", self.scenes, seed=77)
        beam = inference.BeamConfig(beam_width=self.beam)
        items = []
        for k in keys:
            cfg = evaluation.DiagnosticConfig(
                grammar=self.g, models=self.models, beam=beam, noise_sigma=self.noise,
                seed=1000 + int(k),
            )
            items.append(Item(k, (corpus[int(k)], cfg)))
        parts = len(inference.default_expansion_order(self.g))
        sizes = [len(corpus[0].persons)] * parts
        self.candidates = (len(all_pairs(self.g)) + 1) * beam_candidates(sizes, self.beam)
        return items

    def run(self, item):
        scene, cfg = item.payload
        return evaluation.run_diagnostic([scene], cfg)

    def observe(self, item, output):
        try:
            doc = strict_json(json.dumps(output))
        except ValueError as exc:
            return {}, [f"report is not valid JSON: {exc}"]
        modes = doc["modes"]
        record = {
            mode: {k: modes[mode][k] for k in ("pcp", "attribute_accuracy", "mean_ap")}
            for mode in sorted(modes)
        }
        return record, []

    def counts(self, item, output):
        return {"candidates_scored": self.candidates}

    def quality(self, records):
        # fsum is exact, so the means do not depend on the visiting order.
        n = len(records)
        return {
            "pcp.joint": math.fsum(r["joint"]["pcp"] for r in records) / n,
            "pcp.margin": math.fsum(r["joint"]["pcp"] - r["no-attribute"]["pcp"] for r in records) / n,
            "accuracy.margin": math.fsum(
                r["joint"]["attribute_accuracy"] - r["no-pose"]["attribute_accuracy"] for r in records
            ) / n,
        }


class CliConstrainedWide(Workload):
    """posegrammar parse --mode constrained:A=V --beam 10 on 17 x 200 files."""

    name = "cli-constrained-wide"
    min_items = 26  # every (attribute, value) pair once
    per_part = 200
    beam = 10
    lattices = range(300, 308)
    files_per_run = 4

    def pool(self):
        return [f"{s}:{a}={v}" for s in self.lattices for a, v in all_pairs(self.g)]

    def order(self, seed):
        rng = np.random.default_rng(seed)
        files = [self.lattices[i] for i in rng.permutation(len(self.lattices))[: self.files_per_run]]
        pairs = all_pairs(self.g)
        return [
            f"{files[j % len(files)]}:{pairs[p][0]}={pairs[p][1]}"
            for j, p in enumerate(rng.permutation(len(pairs)))
        ]

    def prepare(self, keys):
        self.grammar_path = os.path.join(self.workdir, "grammar.json")
        self.models_path = os.path.join(self.workdir, "models.json")
        grammar.save_grammar(self.g, self.grammar_path)
        relations.save_models(self.models, self.models_path)
        self.scores = {}
        for lattice in sorted({k.split(":")[0] for k in keys}):
            rows = dense_lattice(self.g, int(lattice), self.per_part)
            with open(self._proposals_path(lattice), "w", encoding="utf-8") as fh:
                for row in rows:
                    fh.write(json.dumps(row, allow_nan=False) + "\n")
            self.scores[lattice] = appearance.ScoreTable({r["id"]: r["scores"] for r in rows})
        sizes = [self.per_part] * len(inference.default_expansion_order(self.g))
        self.candidates = beam_candidates(sizes, self.beam)
        return [Item(k, k) for k in keys]

    def _proposals_path(self, lattice: str) -> str:
        return os.path.join(self.workdir, f"proposals-{lattice}.jsonl")

    def _out_path(self, key: str) -> str:
        return os.path.join(self.workdir, "parse-" + key.replace(":", "-").replace("=", "-") + ".json")

    def run(self, item):
        lattice, pair = item.payload.split(":")
        argv = [
            "parse", "--grammar", self.grammar_path, "--models", self.models_path,
            "--proposals", self._proposals_path(lattice), "--mode", f"constrained:{pair}",
            "--beam", str(self.beam), "--out", self._out_path(item.key),
        ]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.cli_dispatch(argv)
        return code, stderr.getvalue()

    def observe(self, item, output):
        code, stderr = output
        if code != 0:
            return {}, [f"exit code {code}: {stderr.strip()}"]
        path = self._out_path(item.key)
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        os.remove(path)
        try:
            doc = strict_json(text)
        except ValueError as exc:
            return {}, [f"output is not valid JSON: {exc}"]
        pg = grammar.ParseGraph.from_json_dict(doc, self.g)
        scores = self.scores[item.key.split(":")[0]]
        return parse_record(pg, self.g), parse_problems(pg, self.g, self.models, scores)

    def counts(self, item, output):
        return {"candidates_scored": self.candidates, "proposal_rows": self.per_part * len(self.g.part_ids)}


class Learn600(Workload):
    """learn_models on a 600-annotation corpus, then a save/load round trip."""

    name = "learn-600"
    min_items = 3
    uses_models = False
    corpus_size = 600
    components = 10

    def pool(self):
        # Corpora differ in how many EM iterations they need, so every run
        # fits the same three; the seed sets the order.
        return [str(s) for s in range(101, 104)]

    def prepare(self, keys):
        held_out, _types = evaluation.make_training_pairs(200, seed=999, grammar=self.g)
        self.held_out = learning.displacement_samples(held_out, self.g)
        self.max_iter = inspect.signature(learning.fit_kinematic).parameters["max_iter"].default
        items = []
        for k in keys:
            annotations, types = evaluation.make_training_pairs(self.corpus_size, seed=int(k), grammar=self.g)
            items.append(Item(k, (annotations, types)))
        return items

    def run(self, item):
        annotations, types = item.payload
        models = learning.learn_models(
            annotations, self.g, type_samples=types, n_components=self.components, seed=int(item.key)
        )
        path = os.path.join(self.workdir, f"models-{item.key}.json")
        relations.save_models(models, path)
        return models, relations.load_models(path), path

    def observe(self, item, output):
        fitted, loaded, path = output
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        os.remove(path)
        try:
            strict_json(text)
        except ValueError as exc:
            return {}, [f"models file is not valid JSON: {exc}"]
        record = {
            "held_out_mean_log_density": {
                f"{p}->{c}": float(np.mean(loaded.kinematic.log_density((p, c), X)))
                for (p, c), X in self.held_out.items()
            },
            "association": {p: sorted(a) for p, a in sorted(loaded.association.parts.items())},
            "syntactic": {
                f"{p}->{c}": [[float(x) for x in row] for row in loaded.syntactic.tables[(p, c)]]
                for p, c in self.g.psg_edges
            },
        }
        return record, []

    def counts(self, item, output):
        traces = output[0].kinematic.fit_traces.values()
        return {
            "em_iterations": sum(len(t) for t in traces),
            "em_capped_edges": sum(len(t) > self.max_iter for t in traces),
        }


WORKLOADS = {w.name: w for w in (JointDense, DiagTwoPerson, CliConstrainedWide, Learn600)}

# Modules whose public functions a traced run wraps, by layer name.
MEASURED = {
    "appearance": appearance,
    "grammar": grammar,
    "relations": relations,
    "learning": learning,
    "inference": inference,
    "evaluation": evaluation,
    "cli": cli,
}


def namespaces() -> list:
    """Every loaded posegrammar module: callers resolve names through these."""
    return [m for n, m in sys.modules.items() if n == "posegrammar" or n.startswith("posegrammar.")]
