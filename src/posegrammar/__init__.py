"""Attributed and-or grammar engine for human pose and attribute parsing.

The package models a person as a part hierarchy (an and-graph with
body parts as terminals and part types as or-alternatives),
attaches attribute variables to the nodes, and scores candidate body
configurations with three relation models:
part-type co-occurrence along decomposition edges, displacement mixture
densities along kinematic edges, and a mutual-information derived
part-attribute association.  Beam search assembles the best-scoring
parse graph from externally supplied part proposals, either under a fixed
attribute constraint or jointly over all attribute values.
"""

from .appearance import (
    Proposal,
    ProposalSet,
    ScoreTable,
    load_proposals,
    save_proposals,
    synth_scores,
)
from .errors import (
    DegenerateDataError,
    InfeasibleParseError,
    MissingEntryError,
    PoseGrammarError,
    ValidationError,
)
from .evaluation import (
    DiagnosticConfig,
    PcpResult,
    Stick,
    average_precision,
    default_sticks,
    make_training_pairs,
    run_diagnostic,
    strict_pcp,
)
from .grammar import (
    ATOMIC_PARTS,
    DEFAULT_DG_EDGES,
    AOGrammar,
    AttributeDef,
    GrammarNode,
    ParseGraph,
    PartState,
    build_default_human_grammar,
    default_attributes,
    load_grammar,
    load_parse_graph,
    recompute_score,
    save_grammar,
    save_parse_graph,
)
from .inference import (
    BeamConfig,
    attribute_scores,
    parse_constrained,
    parse_unconstrained,
    search,
    select_final,
)
from .learning import (
    Annotation,
    JointObs,
    derive_associations,
    displacement_samples,
    fit_kinematic,
    fit_syntactic,
    learn_models,
    load_annotations,
    mutual_information,
    proposal_part_types,
    save_annotations,
)
from .relations import (
    AttributeAssociation,
    KinematicMoG,
    Mixture,
    RelationModels,
    SyntacticTable,
    load_models,
    save_models,
)
from .render import render_svg, save_svg
from .synthetic import (
    Person,
    SyntheticScene,
    generate_family,
    load_scene,
    save_scene,
    single_person_scene,
    two_person_scene,
)

__version__ = "0.1.0"

__all__ = [
    "ATOMIC_PARTS",
    "AOGrammar",
    "Annotation",
    "AttributeAssociation",
    "AttributeDef",
    "BeamConfig",
    "DEFAULT_DG_EDGES",
    "DegenerateDataError",
    "DiagnosticConfig",
    "GrammarNode",
    "InfeasibleParseError",
    "JointObs",
    "KinematicMoG",
    "MissingEntryError",
    "Mixture",
    "ParseGraph",
    "PartState",
    "PcpResult",
    "PoseGrammarError",
    "Person",
    "Proposal",
    "ProposalSet",
    "RelationModels",
    "ScoreTable",
    "Stick",
    "SyntacticTable",
    "SyntheticScene",
    "ValidationError",
    "attribute_scores",
    "average_precision",
    "build_default_human_grammar",
    "default_attributes",
    "default_sticks",
    "derive_associations",
    "displacement_samples",
    "fit_kinematic",
    "fit_syntactic",
    "generate_family",
    "learn_models",
    "load_annotations",
    "load_grammar",
    "load_models",
    "load_parse_graph",
    "load_proposals",
    "load_scene",
    "make_training_pairs",
    "mutual_information",
    "parse_constrained",
    "parse_unconstrained",
    "proposal_part_types",
    "recompute_score",
    "render_svg",
    "run_diagnostic",
    "save_annotations",
    "save_grammar",
    "save_models",
    "save_parse_graph",
    "save_proposals",
    "save_scene",
    "save_svg",
    "search",
    "select_final",
    "single_person_scene",
    "strict_pcp",
    "synth_scores",
    "two_person_scene",
]
