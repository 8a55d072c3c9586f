"""Evaluation: strict PCP, average precision, and joint-vs-ablation runs.

The diagnostic harness replays what the engine is for: on scenes with a
close-by distractor person, parsing under attribute constraints should
beat attribute-blind parsing on pose (strict PCP), and reading attributes
off the winning parse should beat pose-blind attribute scoring (accuracy
and AP).
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .appearance import ProposalSet, synth_scores
from .errors import MissingEntryError, ValidationError
from .grammar import AOGrammar, AttrId, NodeId, ParseGraph
from .inference import BeamConfig, attribute_pairs, attribute_scores, best_parse, search
from .jsonio import argument, count, number, number_column
from .learning import Annotation, JointObs
from .relations import AttributeAssociation, RelationModels
from .synthetic import Person, SyntheticScene, _child_seed, padded_box, single_person_scene

MODE_JOINT = "joint"
MODE_NO_ATTRIBUTE = "no-attribute"
MODE_NO_POSE = "no-pose"
ALL_MODES = (MODE_JOINT, MODE_NO_ATTRIBUTE, MODE_NO_POSE)


@dataclass(frozen=True)
class Stick(object):
    """A scored limb segment between two dependency-adjacent atomic parts."""

    index: int
    a: NodeId
    b: NodeId


def default_sticks(grammar: AOGrammar) -> tuple[Stick, ...]:
    """The grammar's dependency edges as sticks, indexed from 1; each joins
    two terminals."""
    return tuple(Stick(i, parent, child) for i, (parent, child) in enumerate(grammar.dg_edges, start=1))


@dataclass
class PcpResult:
    """Per-stick correctness plus the mean over evaluable sticks."""

    per_stick: dict[int, bool]
    mean: float


def evaluable_sticks(truth: Annotation, sticks: Sequence[Stick]) -> list[Stick]:
    """The sticks with both ground-truth endpoints visible in
    ``truth``, the ones strict PCP scores.  A stick endpoint ``truth`` has
    no joint for is refused naming it."""
    evaluable = []
    for stick in sticks:
        try:
            ja, jb = truth.joints[stick.a], truth.joints[stick.b]
        except KeyError as exc:
            raise MissingEntryError(f"annotation misses a joint for stick endpoint {exc.args[0]!r}") from None
        if ja.visible and jb.visible:
            evaluable.append(stick)
    return evaluable


def _pcp_threshold(threshold) -> float:
    """``threshold`` read as a float once it is a positive number: the
    rule :func:`strict_pcp` holds its threshold to."""
    threshold = argument("threshold", threshold, number)
    if threshold <= 0.0:
        raise ValidationError(f"threshold must be positive, got {threshold}")
    return threshold


def strict_pcp(
    pred: ParseGraph,
    truth: Annotation,
    sticks: Sequence[Stick],
    threshold: float = 0.5,
) -> PcpResult:
    """Strict percentage of correct parts.

    A stick counts as correct only if both predicted endpoints fall
    within ``threshold`` times the ground-truth stick length of their
    ground-truth positions.  Sticks with an invisible ground-truth
    endpoint are excluded from the denominator; an annotation with no
    :func:`evaluable_sticks` is refused.
    """
    threshold = _pcp_threshold(threshold)
    per_stick: dict[int, bool] = {}
    for stick in evaluable_sticks(truth, sticks):
        ja, jb = truth.joints[stick.a], truth.joints[stick.b]
        try:
            pa, pb = pred.states[stick.a], pred.states[stick.b]
        except KeyError as exc:
            raise MissingEntryError(
                f"parse graph misses state for stick endpoint {exc.args[0]!r}"
            ) from None
        length = math.hypot(ja.x - jb.x, ja.y - jb.y)
        bound = threshold * length
        ok_a = math.hypot(pa.x - ja.x, pa.y - ja.y) <= bound
        ok_b = math.hypot(pb.x - jb.x, pb.y - jb.y) <= bound
        per_stick[stick.index] = ok_a and ok_b
    if not per_stick:
        raise ValidationError("no evaluable sticks: every stick has an invisible endpoint")
    mean = sum(per_stick.values()) / len(per_stick)
    return PcpResult(per_stick=per_stick, mean=mean)


def average_precision(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Area under the precision-recall curve, all-points interpolation.

    Ranks by score descending, grouping tied scores so that equal scores
    stand or fall together, and integrates the interpolated precision
    envelope over recall.  Scores follow the number rule; a refusal names
    the score's index.
    """
    s = argument("scores", scores, number_column)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValidationError(
            f"scores and labels must be equal-length 1-d sequences, got {s.shape} vs {y.shape}"
        )
    if s.shape[0] == 0:
        raise ValidationError("average precision needs at least one sample")
    if not ((y == 0) | (y == 1)).all():
        raise ValidationError("labels must be 0 or 1")
    if not y.any():
        raise ValidationError("average precision undefined: no positive labels")

    return _average_precisions(s[None], y[None])[0]


def _average_precisions(scores: np.ndarray, labels: np.ndarray) -> list[float]:
    """:func:`average_precision` of each row of the finite ``scores`` and
    the 0/1 ``labels``, both (S, n), each row with a positive label.

    The rows are ranked, grouped and enveloped together; each row's final
    sum runs over its own boundary terms alone, so every row gets the bits
    a call of its own gives.
    """
    order = np.argsort(-scores, axis=1, kind="stable")
    s = np.take_along_axis(scores, order, axis=1)
    y = np.take_along_axis(labels, order, axis=1).astype(float)
    # A boundary is the last of a run of tied scores.
    boundary = np.ones(s.shape, dtype=bool)
    boundary[:, :-1] = np.diff(s, axis=1) != 0.0
    tp = np.cumsum(y, axis=1)
    recall = tp / tp[:, -1:]
    precision = tp / np.arange(1.0, s.shape[1] + 1.0)
    # Precision is >= 0, so a 0.0 off the boundaries moves no envelope.
    envelope = np.maximum.accumulate(np.where(boundary, precision, 0.0)[:, ::-1], axis=1)[:, ::-1]
    recall, envelope = recall[boundary], envelope[boundary]
    bounds = [0, *np.cumsum(np.count_nonzero(boundary, axis=1)).tolist()]
    prev_recall = np.concatenate(([0.0], recall[:-1]))
    prev_recall[bounds[:-1]] = 0.0
    terms = (recall - prev_recall) * envelope
    return [float(terms[start:end].sum()) for start, end in zip(bounds, bounds[1:])]


# -- synthetic annotation corpus ---------------------------------------------

# Atomic parts that, when visible, let an attribute's value be read off
# a person.  Attributes not listed fall back to all parts.
INFORMATIVE_PARTS: dict[AttrId, tuple[NodeId, ...]] = {
    "gender": ("head", "torso"),
    "age": ("head",),
    "hair_style": ("head",),
    "upper_cloth_type": ("torso", "l_shoulder", "r_shoulder"),
    "upper_cloth_length": ("l_upper_arm", "l_lower_arm", "r_upper_arm", "r_lower_arm"),
    "lower_cloth_type": ("l_upper_leg", "l_lower_leg", "r_upper_leg", "r_lower_leg"),
    "glasses": ("head",),
    "hat": ("head",),
    "backpack": ("torso", "l_shoulder", "r_shoulder"),
}

# Occlusion noise: the chance that a joint's visibility flips, that a
# visible attribute is still recorded unknown (drop), and that an occluded
# one is recorded known (leak).
JOINT_FLIP = 0.03
ATTR_DROP = 0.08
ATTR_LEAK = 0.04

# Body regions that get occluded together, with their occlusion rates.
OCCLUSION_REGIONS: tuple[tuple[tuple[NodeId, ...], float], ...] = (
    (("l_hip", "r_hip", "l_upper_leg", "l_lower_leg", "r_upper_leg", "r_lower_leg"), 0.25),
    (("l_upper_arm", "l_lower_arm", "r_upper_arm", "r_lower_arm"), 0.20),
    (("head",), 0.20),
    (("torso", "l_shoulder", "r_shoulder"), 0.15),
)


def annotation_from_person(person: Person) -> Annotation:
    """Turn a synthetic person into an annotation record with every joint
    visible and every attribute known."""
    return _annotation(person, dict.fromkeys(person.joints, True), dict(person.attributes))


def occluded_annotation(person: Person, seed: int, index: int) -> tuple[Annotation, np.random.Generator]:
    """Item ``index`` of a corpus under ``seed``: ``person`` as an occluded
    annotation drawn from the generator ``[seed, index, 1]``, and that
    generator, for the item's further draws.

    Whole body regions go invisible at their configured rates, plus
    per-joint flips, and an attribute's value is recorded only when one of
    its informative parts stayed visible, subject to small dropout (known
    value lost) and leak (value known despite occlusion) noise.
    """
    rng = np.random.default_rng([seed, index, 1])
    visible = dict.fromkeys(person.joints, True)
    for region, rate in OCCLUSION_REGIONS:
        if rng.random() < rate:
            for part in region:
                visible[part] = False
    for part in visible:
        if rng.random() < JOINT_FLIP:
            visible[part] = not visible[part]
    if not any(visible.values()):
        visible["torso"] = True
    attributes: dict[AttrId, str | None] = {}
    for attr, value in person.attributes.items():
        informative = INFORMATIVE_PARTS.get(attr, tuple(person.joints))
        known = any(visible[p] for p in informative)
        if known and rng.random() < ATTR_DROP:
            known = False
        elif not known and rng.random() < ATTR_LEAK:
            known = True
        attributes[attr] = value if known else None
    return _annotation(person, visible, attributes), rng


def _annotation(person: Person, visible: Mapping[NodeId, bool], attributes: Mapping[AttrId, str | None]) -> Annotation:
    joints = {p: JointObs(x=x, y=y, visible=visible[p]) for p, (x, y) in person.joints.items()}
    return Annotation(joints=joints, person_box=padded_box(person.joints.values(), 8.0), attributes=attributes)


def make_training_pairs(
    n: int,
    seed: int,
    grammar: AOGrammar,
) -> tuple[list[Annotation], list[dict[NodeId, int]]]:
    """Seeded single-person training corpus: annotations plus part types."""
    n = argument("n", n, count)
    parts = grammar.part_ids
    annotations = []
    type_samples = []
    for i in range(n):
        scene = single_person_scene(_child_seed(seed, i), attr_defs=grammar.attributes)
        annotation, rng = occluded_annotation(scene.persons[0], seed, i)
        annotations.append(annotation)
        # One draw per part, in part order, as many single draws would give.
        types = rng.integers(1, grammar.part_type_count + 1, size=len(parts)).tolist()
        type_samples.append(dict(zip(parts, types)))
    return annotations, type_samples


# -- diagnostic harness -------------------------------------------------------


def parse_attribute_scores(
    pg: ParseGraph,
    pset: ProposalSet,
    assoc: AttributeAssociation,
    grammar: AOGrammar,
) -> dict[AttrId, dict[str, float]]:
    """Per-value attribute scores summed over a single parse's parts."""
    return attribute_scores({(a.id, v): pg for a in grammar.attributes for v in a.domain}, pset, assoc)


def no_pose_attribute_scores(
    pset: ProposalSet, grammar: AOGrammar
) -> dict[AttrId, dict[str, float]]:
    """Pose-blind attribute scores: best proposal score per value."""
    scores = pset.scores
    if not pset.buckets:
        raise ValidationError("no proposals to score attributes from")
    rows = np.concatenate([b.rows for b in pset.buckets.values()])
    best = scores.values[rows].max(axis=0).tolist()
    return {
        attr.id: {value: best[scores.column(attr.id, value)] for value in attr.domain}
        for attr in grammar.attributes
    }


def argmax_value(per_value: Mapping[str, float], domain: Sequence[str]) -> str:
    """Highest scoring value, earliest domain entry winning ties."""
    return max(domain, key=per_value.__getitem__)


@dataclass
class DiagnosticConfig:
    """Everything a diagnostic run needs besides the scenes themselves."""

    grammar: AOGrammar
    models: RelationModels
    beam: BeamConfig = field(default_factory=BeamConfig)
    noise_sigma: float = 0.9
    seed: int = 0


def run_diagnostic(
    scenes: Sequence[SyntheticScene],
    cfg: DiagnosticConfig,
    modes: Sequence[str] = ALL_MODES,
) -> dict:
    """Score the requested modes over a scene corpus.

    Per scene, appearance scores are synthesized under a per-scene seed
    derived from ``cfg.seed``.  The joint mode parses once per
    (attribute, value) pair and keeps the best; the no-attribute mode
    parses without constraints; the no-pose mode skips parsing and takes
    the best proposal score per value.  The parses a scene needs run as
    one stacked search.  Pose is scored as strict PCP against the first
    person; attributes as accuracy and mean AP over (attribute, value)
    pairs with at least one positive scene.  ``scenes`` and ``modes`` are
    sequences; ``modes`` names each mode at most once, and at least one.
    """
    for name, value, of in (("modes", modes, "diagnostic mode names"), ("scenes", scenes, "synthetic scenes")):
        if isinstance(value, str) or not isinstance(value, Sequence):
            raise ValidationError(f"{name} must be a sequence of {of}, got {value!r}")
    for mode in modes:
        if mode not in ALL_MODES:
            raise ValidationError(f"unknown diagnostic mode {mode!r}, expected {ALL_MODES}")
    if not modes or len(set(modes)) != len(modes):
        raise ValidationError(f"diagnostic modes must be distinct and non-empty, got {tuple(modes)!r}")
    if not scenes:
        raise ValidationError("diagnostic needs at least one scene")
    grammar = cfg.grammar
    assoc = cfg.models.association
    sticks = default_sticks(grammar)
    attr_defs = tuple(grammar.attributes)
    pairs = attribute_pairs(grammar) if MODE_JOINT in modes else []
    assignments = [{attr: value} for attr, value in pairs]
    if MODE_NO_ATTRIBUTE in modes:
        assignments.append({})

    stick_hits: dict[str, list[int]] = {m: [0, 0] for m in modes}
    # Correct predictions per mode and attribute, out of len(scenes) each.
    correct: dict[str, dict[AttrId, int]] = {m: {a.id: 0 for a in attr_defs} for m in modes}
    # Per scene, the truth of every pair and each mode's score, in sorted pair order.
    ap_pairs = sorted((a.id, v) for a in attr_defs for v in a.domain)
    ap_labels: list[list[bool]] = []
    ap_scores: list[list[list[float]]] = []

    for i, scene in enumerate(scenes):
        pset = synth_scores(
            scene,
            cfg.noise_sigma,
            _child_seed(cfg.seed, i),
            attr_defs=attr_defs,
            part_type_count=grammar.part_type_count,
        )
        truth = annotation_from_person(scene.persons[0])
        truth_values = scene.persons[0].attributes
        ap_labels.append([truth_values[attr] == value for attr, value in ap_pairs])

        parses = search(grammar, cfg.models, pset, assignments, cfg.beam)
        mode_scores: dict[str, dict[AttrId, dict[str, float]]] = {}
        for mode in modes:
            pg = None  # the mode's parse, none for no-pose
            if mode == MODE_JOINT:
                per_pair = dict(zip(pairs, parses))
                mode_scores[mode], pg = attribute_scores(per_pair, pset, assoc), best_parse(per_pair)
            elif mode == MODE_NO_ATTRIBUTE:
                pg = parses[-1]
                mode_scores[mode] = parse_attribute_scores(pg, pset, assoc, grammar)
            else:
                mode_scores[mode] = no_pose_attribute_scores(pset, grammar)
            if pg is not None:
                pcp = strict_pcp(pg, truth, sticks)
                stick_hits[mode][0] += sum(pcp.per_stick.values())
                stick_hits[mode][1] += len(pcp.per_stick)
            for attr in attr_defs:
                predicted = argmax_value(mode_scores[mode][attr.id], attr.domain)
                correct[mode][attr.id] += predicted == truth_values[attr.id]
        ap_scores.append([[mode_scores[m][attr][value] for attr, value in ap_pairs] for m in modes])

    # Every mode's k AP streams, one per pair with a positive scene, in one pass.
    labels = np.array(ap_labels).T
    positive = labels.any(axis=1)
    k = np.count_nonzero(positive)
    streams = np.array(ap_scores).transpose(1, 2, 0)[:, positive].reshape(-1, len(scenes))
    every_ap = _average_precisions(streams, np.tile(labels[positive], (len(modes), 1))) if k else []
    report: dict = {"schema_version": 1, "n_scenes": len(scenes), "modes": {}}
    for mi, mode in enumerate(modes):
        aps = every_ap[mi * k : (mi + 1) * k]
        hits, evaluated = stick_hits[mode]
        report["modes"][mode] = {
            "pcp": (hits / evaluated) if evaluated else None,
            "attribute_accuracy": sum(correct[mode].values()) / (len(scenes) * len(attr_defs)) if attr_defs else None,
            "mean_ap": sum(aps) / len(aps) if aps else None,
            "per_attribute_accuracy": {a: h / len(scenes) for a, h in sorted(correct[mode].items())},
        }
    return report
