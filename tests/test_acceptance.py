"""Acceptance suite: ten end-to-end gates the package must clear.

Each test prints one ``criterion NN: PASS/FAIL`` line (collected into a
terminal section by conftest) and pins its tolerances inline.  The gates
cover exact search correctness, estimator quality, metric fixtures, the
attribute-pose coupling benchmark, speed, and pipeline determinism.
"""

from __future__ import annotations

import json
import time
import warnings

import numpy as np

from posegrammar.appearance import Proposal, ProposalSet, ScoreTable, save_proposals, synth_scores
from posegrammar.cli import cli_dispatch
from posegrammar.evaluation import (
    DiagnosticConfig,
    Stick,
    average_precision,
    run_diagnostic,
    strict_pcp,
)
from posegrammar.grammar import (
    AOGrammar,
    AttributeDef,
    GrammarNode,
    ParseGraph,
    PartState,
    recompute_score,
)
from posegrammar.inference import (
    BeamConfig,
    parse_constrained,
    parse_unconstrained,
    select_final,
)
from posegrammar.learning import (
    Annotation,
    JointObs,
    derive_associations,
    fit_kinematic,
    mutual_information,
)
from posegrammar.relations import (
    AttributeAssociation,
    KinematicMoG,
    Mixture,
    RelationModels,
    SyntacticTable,
)
from posegrammar.synthetic import generate_family, two_person_scene

from oracle import brute_force_parse

# -- shared toy world: 5 parts, up to 4 proposals each -------------------------

_TOY_PARTS = ("root", "a", "b", "c", "d")


def _toy_grammar(t=3):
    nodes = (
        GrammarNode("root", "root", ("a", "b", "c", "d")),
        GrammarNode("a", "a"),
        GrammarNode("b", "b"),
        GrammarNode("c", "c"),
        GrammarNode("d", "d"),
    )
    return AOGrammar(
        root="root",
        nodes=nodes,
        dg_edges=(("a", "b"), ("b", "c"), ("c", "d")),
        attributes=(AttributeDef("c1", "c1", ("u", "v")),),
        part_type_count=t,
    )


_TOY = _toy_grammar()


def _toy_world(seed):
    rng = np.random.default_rng(seed)
    t = _TOY.part_type_count
    syn = {}
    for e in _TOY.psg_edges:
        m = rng.uniform(0.2, 1.0, size=(t, t))
        syn[e] = m / m.sum()
    mixes = {}
    for e in _TOY.dg_edges:
        w = rng.dirichlet(np.ones(2))
        means = rng.normal(0.0, 8.0, size=(2, 2))
        covs = np.stack([np.eye(2) * rng.uniform(2.0, 5.0) for _ in range(2)])
        mixes[e] = Mixture(weights=w, means=means, covariances=covs)
    models = RelationModels(
        syntactic=SyntacticTable(syn, part_type_count=t),
        kinematic=KinematicMoG(mixes),
        association=AttributeAssociation({p: ("c1",) for p in _TOY.part_ids}, ("c1",)),
    )
    scores = {}
    props = []
    for part in _TOY_PARTS:
        for i in range(int(rng.integers(1, 5))):
            pid = f"{part}{i}"
            props.append(
                Proposal(
                    id=pid,
                    part=part,
                    x=float(rng.uniform(0.0, 30.0)),
                    y=float(rng.uniform(0.0, 30.0)),
                    part_type=int(rng.integers(1, t + 1)),
                    box=(0.0, 0.0, 4.0, 4.0),
                )
            )
            scores[pid] = {"c1": {v: float(rng.normal(0.0, 1.5)) for v in ("u", "v")}}
    return models, ProposalSet.from_proposals(props, ScoreTable(scores), part_type_count=t)


def _full_width(pset):
    n = 1
    for p in _TOY_PARTS:
        n *= len(pset.proposals_for(p))
    return n


def test_criterion_01_beam_equals_exhaustive_search(criterion):
    with criterion(1, "full-width beam equals exhaustive search on 200 instances"):
        start = time.perf_counter()
        for seed in range(200):
            models, pset = _toy_world(seed)
            width = _full_width(pset)
            if seed % 2 == 0:
                value = "u" if seed % 4 == 0 else "v"
                objective = {"c1": value}
                beam = parse_constrained(
                    _TOY, models, pset, "c1", value, BeamConfig(beam_width=width)
                )
            else:
                objective = {}
                beam = parse_unconstrained(_TOY, models, pset, BeamConfig(beam_width=width))
            oracle = brute_force_parse(_TOY, models, pset, objective)
            assert beam.total_score == oracle.total_score
            assert beam.states == oracle.states
            assert beam.attribute_assignment == oracle.attribute_assignment
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0


def test_criterion_02_score_monotone_in_beam_width(criterion):
    with criterion(2, "best score never drops as beam width grows"):
        for seed in range(1000, 1030):
            models, pset = _toy_world(seed)
            widths = [1, 2, 4, 8, 16, _full_width(pset)]
            scores = [
                parse_constrained(
                    _TOY, models, pset, "c1", "u", BeamConfig(beam_width=k)
                ).total_score
                for k in widths
            ]
            for lo, hi in zip(scores, scores[1:]):
                assert hi >= lo


def test_criterion_03_emitted_scores_survive_recomputation(criterion, grammar, quick_models):
    with criterion(3, "every emitted total score recomputes to within 1e-9"):
        for seed in range(20):
            models, pset = _toy_world(seed + 2000)
            for pg in (
                parse_constrained(_TOY, models, pset, "c1", "v", BeamConfig(beam_width=6)),
                parse_unconstrained(_TOY, models, pset, BeamConfig(beam_width=6)),
            ):
                assert abs(recompute_score(pg, _TOY, models, pset.scores) - pg.total_score) <= 1e-9
        for scene_seed in (21, 22):
            scene = two_person_scene(seed=scene_seed)
            pset = synth_scores(scene, noise_sigma=0.9, rng_seed=scene_seed)
            cfg = BeamConfig(beam_width=50)
            best, per_pair = select_final(grammar, quick_models, pset, cfg=cfg)
            emitted = [best, parse_unconstrained(grammar, quick_models, pset, cfg)]
            emitted.extend(per_pair.values())
            for pg in emitted:
                diff = abs(recompute_score(pg, grammar, quick_models, pset.scores) - pg.total_score)
                assert diff <= 1e-9


def test_criterion_04_em_recovers_held_out_density(criterion):
    with criterion(4, "EM trace is monotone and held-out fit is within 0.05 nats"):
        true_mix = Mixture(
            weights=np.array([0.5, 0.3, 0.2]),
            means=np.array([[0.0, 0.0], [8.0, 5.0], [-6.0, 7.0]]),
            covariances=np.array(
                [
                    [[2.0, 0.5], [0.5, 1.5]],
                    [[1.0, 0.0], [0.0, 1.0]],
                    [[3.0, -0.8], [-0.8, 2.0]],
                ]
            ),
        )
        rng = np.random.default_rng(37)

        def sample(n):
            comps = rng.choice(3, size=n, p=true_mix.weights)
            out = np.empty((n, 2))
            for i in range(3):
                mask = comps == i
                out[mask] = rng.multivariate_normal(
                    true_mix.means[i], true_mix.covariances[i], size=int(mask.sum())
                )
            return out

        train, held = sample(5000), sample(2000)
        start = time.perf_counter()
        fitted = fit_kinematic({("a", "b"): train}, n_components=10, seed=5)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        trace = fitted.fit_traces[("a", "b")]
        assert len(trace) >= 2
        assert np.all(np.diff(trace) >= -1e-9)
        truth = KinematicMoG({("a", "b"): true_mix})
        ll_true = float(np.mean(truth.log_density(("a", "b"), held)))
        ll_fit = float(np.mean(fitted.log_density(("a", "b"), held)))
        print(f"held-out nats/sample: true {ll_true:.4f}, fitted {ll_fit:.4f}")
        assert abs(ll_fit - ll_true) <= 0.05


def test_criterion_05_mutual_information_closed_forms(criterion):
    with criterion(5, "mutual information matches closed forms"):
        flips = [True, False, True, False]
        assert abs(mutual_information(flips, flips) - 0.6931471805599453) <= 1e-9
        attr = [False] * 5 + [True] * 5
        part = [False] * 4 + [True] + [False] + [True] * 4
        assert abs(mutual_information(attr, part) - 0.19274475702175753) <= 1e-9
        independent = mutual_information([True, True, False, False], [True, False, True, False])
        assert abs(independent) <= 1e-12


def test_criterion_06_associations_follow_information(criterion, grammar):
    legs = ("l_upper_leg", "l_lower_leg", "r_upper_leg", "r_lower_leg")
    with criterion(6, "high-information parts plus ancestors carry the attribute"):
        mi = {}
        for p in grammar.terminal_ids:
            mi[p] = {}
            for attr in grammar.attributes:
                if attr.id == "lower_cloth_type":
                    mi[p][attr.id] = 0.5 if p in legs else 0.1
                else:
                    mi[p][attr.id] = 0.2
        assoc = derive_associations(mi, grammar)
        carrying = {p for p in grammar.part_ids if "lower_cloth_type" in assoc.attrs_for(p)}
        assert carrying == set(legs) | {"lower_body", "full_body"}
        for attr in grammar.attributes:
            if attr.id == "lower_cloth_type":
                continue
            assert not any(attr.id in assoc.attrs_for(p) for p in grammar.part_ids)


def test_criterion_07_joint_parsing_beats_both_ablations(criterion, grammar, trained_models):
    with criterion(7, "joint mode beats both ablations by at least 3 points on 100 scenes"):
        scenes = generate_family("two-person", 100, seed=77)
        cfg = DiagnosticConfig(
            grammar=grammar,
            models=trained_models,
            beam=BeamConfig(beam_width=100),
            noise_sigma=0.9,
            seed=3,
        )
        report = run_diagnostic(scenes, cfg)
        joint = report["modes"]["joint"]
        no_attr = report["modes"]["no-attribute"]
        no_pose = report["modes"]["no-pose"]
        print(
            f"pcp joint {joint['pcp']:.4f} vs no-attribute {no_attr['pcp']:.4f}; "
            f"accuracy joint {joint['attribute_accuracy']:.4f} "
            f"vs no-pose {no_pose['attribute_accuracy']:.4f}"
        )
        assert joint["pcp"] >= no_attr["pcp"] + 0.03
        assert joint["attribute_accuracy"] >= no_pose["attribute_accuracy"] + 0.03


_JOINTS = {
    "head": (50.0, 10.0),
    "torso": (50.0, 40.0),
    "l_shoulder": (35.0, 30.0),
    "r_shoulder": (65.0, 30.0),
    "l_upper_arm": (30.0, 45.0),
    "l_lower_arm": (25.0, 55.0),
    "r_upper_arm": (70.0, 45.0),
    "r_lower_arm": (75.0, 55.0),
    "l_hip": (40.0, 60.0),
    "r_hip": (60.0, 60.0),
    "l_upper_leg": (40.0, 75.0),
    "l_lower_leg": (40.0, 90.0),
    "r_upper_leg": (60.0, 75.0),
    "r_lower_leg": (60.0, 90.0),
}


def _truth(scale=1.0):
    joints = {p: JointObs(x * scale, y * scale) for p, (x, y) in _JOINTS.items()}
    return Annotation(
        joints=joints, person_box=(0.0, 0.0, 100.0 * scale, 100.0 * scale), attributes={}
    )


def _parse(offsets, scale=1.0):
    states = {}
    for part, (x, y) in _JOINTS.items():
        dx, dy = offsets.get(part, (0.0, 0.0))
        states[part] = PartState(part, (x + dx) * scale, (y + dy) * scale, 1, f"p.{part}")
    return ParseGraph(states, {}, 0.0)


def test_criterion_08_metric_fixtures(criterion):
    with criterion(8, "metric fixtures are exact and scale-free"):
        assert average_precision([3.0, 2.0, 1.0], [1, 1, 0]) == 1.0
        assert abs(average_precision([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) - 5.0 / 6.0) <= 1e-9
        sticks = (
            Stick(1, "torso", "head"),
            Stick(2, "l_hip", "l_upper_leg"),
            Stick(3, "r_hip", "r_upper_leg"),
        )
        offsets = {"r_upper_leg": (8.0, 0.0)}
        base = strict_pcp(_parse(offsets), _truth(), sticks)
        assert base.per_stick == {1: True, 2: True, 3: False}
        assert abs(base.mean - 2.0 / 3.0) <= 1e-12
        scaled = strict_pcp(_parse(offsets, scale=10.0), _truth(scale=10.0), sticks)
        assert scaled.per_stick == base.per_stick
        assert scaled.mean == base.mean


def test_criterion_09_parsing_speed(criterion, grammar, quick_models):
    with criterion(9, "50-proposal parses stay under 1 s and all pairs under 15 s"):
        rng = np.random.default_rng(123)
        scores = {}
        props = []
        for part in grammar.part_ids:
            for i in range(50):
                pid = f"{part}.{i}"
                props.append(
                    Proposal(
                        id=pid,
                        part=part,
                        x=float(rng.uniform(0.0, 320.0)),
                        y=float(rng.uniform(0.0, 240.0)),
                        part_type=int(rng.integers(1, 10)),
                        box=(0.0, 0.0, 40.0, 40.0),
                    )
                )
                scores[pid] = {
                    a.id: {v: float(rng.normal(0.0, 1.0)) for v in a.domain}
                    for a in grammar.attributes
                }
        pset = ProposalSet.from_proposals(props, ScoreTable(scores), part_type_count=9)
        cfg = BeamConfig(beam_width=100)
        start = time.perf_counter()
        parse_constrained(grammar, quick_models, pset, "gender", "male", cfg)
        single = time.perf_counter() - start
        start = time.perf_counter()
        _best, per_pair = select_final(grammar, quick_models, pset, cfg=cfg)
        sweep = time.perf_counter() - start
        print(f"constrained parse {single:.3f} s, 26-pair sweep {sweep:.2f} s")
        assert len(per_pair) == 26
        assert single < 1.0
        assert sweep < 15.0


def _run_pipeline(root):
    root.mkdir()
    grammar_path = str(root / "grammar.json")
    scenes = str(root / "scenes")
    diag_scenes = str(root / "diag_scenes")
    annotations = str(root / "train.jsonl")
    models_path = str(root / "models.json")
    proposals = str(root / "proposals.jsonl")
    parse_out = str(root / "parse.json")
    report_out = str(root / "diag.json")
    assert cli_dispatch(["init-grammar", "--out", grammar_path]) == 0
    assert (
        cli_dispatch(
            [
                "synth", "--family", "single", "--n", "40", "--seed", "11",
                "--out", scenes, "--annotations", annotations,
            ]
        )
        == 0
    )
    assert (
        cli_dispatch(
            ["synth", "--family", "two-person", "--n", "2", "--seed", "3", "--out", diag_scenes]
        )
        == 0
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert (
            cli_dispatch(
                [
                    "learn", "--annotations", annotations, "--grammar", grammar_path,
                    "--components", "2", "--seed", "5", "--out", models_path,
                ]
            )
            == 0
        )
    pset = synth_scores(two_person_scene(seed=4), noise_sigma=0.5, rng_seed=8)
    save_proposals(pset, proposals)
    assert (
        cli_dispatch(
            [
                "parse", "--grammar", grammar_path, "--models", models_path,
                "--proposals", proposals, "--mode", "constrained:hat=yes",
                "--beam", "20", "--out", parse_out,
            ]
        )
        == 0
    )
    assert (
        cli_dispatch(
            [
                "diag", "--scenes", diag_scenes, "--grammar", grammar_path,
                "--models", models_path, "--modes", "no-attribute,no-pose",
                "--beam", "8", "--report", report_out,
            ]
        )
        == 0
    )
    tracked = [
        grammar_path,
        str(root / "scenes" / "scene_00000.json"),
        str(root / "scenes" / "scene_00039.json"),
        annotations,
        models_path,
        proposals,
        parse_out,
        report_out,
    ]
    out = {}
    for path in tracked:
        with open(path, "r", encoding="utf-8") as fh:
            out[path[len(str(root)):]] = fh.read()
    return out


def test_criterion_10_pipeline_is_byte_deterministic(criterion, tmp_path):
    with criterion(10, "synth-learn-parse-diag reruns are byte-identical"):
        run_a = _run_pipeline(tmp_path / "a")
        run_b = _run_pipeline(tmp_path / "b")
        assert run_a.keys() == run_b.keys()
        for key in run_a:
            assert run_a[key] == run_b[key], f"stage output differs: {key}"
        report = json.loads(run_a["/diag.json"])
        assert set(report["modes"]) == {"no-attribute", "no-pose"}
