"""Command line interface.

Subcommands cover the pipeline end to end: ``synth`` scenes, ``learn``
models, ``parse`` proposals, ``eval-pcp`` / ``eval-ap`` metrics, ``diag``
ablation reports, ``render`` SVG overlays, and ``validate`` for grammar
files.  Machine output is JSON; diagnostics go to stderr.  Exit codes:
0 success, 1 validation or data error, 2 usage error.

Every subcommand accepts ``--config FILE`` with a JSON object mirroring
its flags (dashes as underscores); explicit flags override the file.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from typing import Sequence

from . import evaluation, learning, relations, synthetic
from .appearance import Proposal, load_proposals
from .errors import PoseGrammarError, ValidationError
from .grammar import (
    SCHEMA_VERSION,
    build_default_human_grammar,
    load_grammar,
    load_parse_graph,
    save_grammar,
    save_parse_graph,
)
from .inference import BeamConfig, attribute_scores, check_assignment, parse_constrained, parse_unconstrained
from .inference import select_final
from .jsonio import argument, array, count, integer, nonnegative, number, optional, read_json, read_json_lines, record
from .jsonio import naming, text, write_json
from .render import save_svg

_UNSET = object()


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _merged_options(args: argparse.Namespace, defaults: dict) -> dict:
    """Layer defaults, then the config file, then explicit flags."""
    explicit = {k: v for k, v in vars(args).items() if v is not _UNSET}
    config_path = explicit.pop("config", None)
    explicit.pop("command", None)
    explicit.pop("func", None)
    config = {} if config_path is None else read_json(config_path, _config_reader(defaults))
    return {**defaults, **config, **{k: _typed(k, v, defaults[k]) for k, v in explicit.items()}}


# The spec of an option's value: a seed is an integer >= 0 and a count (a
# beam width, a number of mixture components or of scenes) an integer
# >= 1; any other option's spec goes by the type of its default, and an
# option without one takes a string.
_KEY_SPECS = {"seed": nonnegative, "beam": count, "components": count, "n": count}
_OPTION_SPECS = {int: integer, float: number, tuple: array(integer, 2)}


def _option_spec(key: str, default):
    return _KEY_SPECS.get(key) or _OPTION_SPECS.get(type(default), text)


def _config_reader(defaults: dict):
    spec = record(**{k: optional(_option_spec(k, d), _UNSET) for k, d in defaults.items()})

    def build(doc) -> dict:
        options = {k: v for k, v in spec(doc).items() if v is not _UNSET}
        unknown = sorted(set(doc) - set(defaults))
        if unknown:
            raise ValidationError(f"unknown keys {unknown}")
        return options

    return build


def _typed(key: str, value, default):
    """Convert a command-line option to its default's type, then check it
    by the option's spec; the parser has read a pair already.  Float
    options must be finite.
    """
    flag = "--" + key.replace("_", "-")
    if isinstance(default, tuple):
        converted = tuple(value)
    elif isinstance(default, (int, float)):
        try:
            converted = type(default)(value)
            if not math.isfinite(converted):
                raise ValueError
        except (TypeError, ValueError, OverflowError):
            raise _UsageError(f"invalid value for {flag}: {value!r}") from None
    else:
        return value
    return argument(flag, converted, _option_spec(key, default))


def _json_files(directory: str) -> list[str]:
    return sorted(os.path.join(directory, f) for f in os.listdir(directory) if f.endswith(".json"))


def _require(opts: dict, *names: str) -> None:
    missing = [n for n in names if opts.get(n) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise _UsageError(f"missing required options: {flags}")


class _UsageError(Exception):
    pass


# -- subcommand bodies --------------------------------------------------------


def _cmd_validate(opts: dict) -> int:
    _require(opts, "grammar")
    load_grammar(opts["grammar"])
    _info(f"grammar {opts['grammar']} is valid")
    return 0


def _cmd_init_grammar(opts: dict) -> int:
    _require(opts, "out")
    save_grammar(build_default_human_grammar(), opts["out"])
    _info(f"wrote default grammar to {opts['out']}")
    return 0


def _cmd_synth(opts: dict) -> int:
    _require(opts, "out")
    family = opts["family"]
    n, seed = opts["n"], opts["seed"]
    kwargs = {"image_size": opts["image_size"], "pose_sigma": opts["pose_sigma"]}
    if family == "two-person":
        kwargs["spacing"] = opts["spacing"]
    scenes = synthetic.generate_family(family, n, seed, **kwargs)
    os.makedirs(opts["out"], exist_ok=True)
    for i, scene in enumerate(scenes):
        synthetic.save_scene(scene, os.path.join(opts["out"], f"scene_{i:05d}.json"))
    _info(f"wrote {n} {family} scenes to {opts['out']}")
    if opts.get("annotations"):
        annotations = [evaluation.occluded_annotation(s.persons[0], seed, i)[0] for i, s in enumerate(scenes)]
        learning.save_annotations(annotations, opts["annotations"])
        _info(f"wrote {n} annotations to {opts['annotations']}")
    return 0


_proposal_group = array(Proposal.from_json_dict)


def _cmd_learn(opts: dict) -> int:
    _require(opts, "annotations", "grammar", "out")
    grammar = load_grammar(opts["grammar"])
    annotations = learning.load_annotations(opts["annotations"])
    type_samples = None
    if opts.get("proposals"):
        groups = read_json_lines(opts["proposals"], _proposal_group)
        if len(groups) != len(annotations):
            raise ValidationError(
                f"{len(groups)} proposal groups for {len(annotations)} annotations"
            )
        type_samples = list(map(learning.proposal_part_types, annotations, groups))
    models = learning.learn_models(
        annotations,
        grammar,
        type_samples=type_samples,
        n_components=opts["components"],
        seed=opts["seed"],
    )
    relations.save_models(models, opts["out"])
    _info(f"wrote models to {opts['out']}")
    return 0


def _parse_mode(mode: str) -> tuple[str, str | None, str | None]:
    if mode in ("joint", "unconstrained"):
        return mode, None, None
    if mode.startswith("constrained:"):
        constraint = mode.split(":", 1)[1]
        attr, sep, value = constraint.partition("=")
        if sep and attr and value:
            return "constrained", attr, value
    raise _UsageError(
        f"invalid --mode {mode!r}: expected joint, unconstrained, or constrained:ATTR=VALUE"
    )


def _cmd_parse(opts: dict) -> int:
    _require(opts, "grammar", "models", "proposals", "out")
    mode, attr, value = _parse_mode(opts["mode"])
    if mode != "joint" and opts.get("scores_out"):
        raise _UsageError(f"--scores-out needs --mode joint, got --mode {opts['mode']!r}")
    grammar = load_grammar(opts["grammar"])
    if mode == "constrained":
        check_assignment(grammar, {attr: value})
    models = relations.load_models(opts["models"])
    pset = load_proposals(opts["proposals"], part_type_count=grammar.part_type_count)
    cfg = BeamConfig(beam_width=opts["beam"])
    if mode == "joint":
        pg, per_pair = select_final(grammar, models, pset, cfg=cfg)
        if opts.get("scores_out"):
            scores = attribute_scores(per_pair, pset, models.association)
            write_json(opts["scores_out"], {"schema_version": SCHEMA_VERSION, "attribute_scores": scores})
            _info(f"wrote attribute scores to {opts['scores_out']}")
    elif mode == "unconstrained":
        pg = parse_unconstrained(grammar, models, pset, cfg=cfg)
    else:
        pg = parse_constrained(grammar, models, pset, attr, value, cfg=cfg)
    save_parse_graph(pg, opts["out"], grammar)
    _info(f"wrote parse to {opts['out']} (score {pg.total_score:.6f})")
    return 0


def _cmd_eval_pcp(opts: dict) -> int:
    _require(opts, "pred", "truth", "grammar")
    threshold = evaluation._pcp_threshold(opts["threshold"])
    grammar = load_grammar(opts["grammar"])
    annotations = learning.load_annotations(opts["truth"])
    files = _json_files(opts["pred"])
    if len(files) != len(annotations):
        raise ValidationError(
            f"{len(files)} prediction files for {len(annotations)} annotations"
        )
    sticks = evaluation.default_sticks(grammar)
    hits: dict[int, list[int]] = {s.index: [0, 0] for s in sticks}
    for path, ann in zip(files, annotations):
        pg = load_parse_graph(path, grammar)
        if not evaluation.evaluable_sticks(ann, sticks):
            continue
        with naming(path):
            result = evaluation.strict_pcp(pg, ann, sticks, threshold=threshold)
        for index, ok in result.per_stick.items():
            hits[index][0] += int(ok)
            hits[index][1] += 1
    correct, evaluated = sum(h for h, _t in hits.values()), sum(t for _h, t in hits.values())
    report = {
        "mean_pcp": correct / evaluated if evaluated else None,
        "n_pairs": len(files),
        "per_stick": {
            str(i): (h / t if t else None) for i, (h, t) in sorted(hits.items())
        },
        "threshold": threshold,
    }
    write_json(opts.get("report"), report)
    return 0


_number_array = array(number)


def _label_array(doc) -> tuple:
    """A JSON array of 0/1 labels."""
    labels = _number_array(doc)
    if not all(v in (0, 1) for v in labels):
        raise ValidationError("labels must be 0 or 1")
    return labels


def _cmd_eval_ap(opts: dict) -> int:
    _require(opts, "scores", "labels")
    scores = read_json(opts["scores"], _number_array)
    labels = read_json(opts["labels"], _label_array)
    ap = evaluation.average_precision(scores, labels)
    write_json(None, {"average_precision": ap, "n": len(scores)})
    return 0


def _cmd_diag(opts: dict) -> int:
    _require(opts, "scenes", "grammar", "models", "report")
    grammar = load_grammar(opts["grammar"])
    models = relations.load_models(opts["models"])
    files = _json_files(opts["scenes"])
    if not files:
        raise ValidationError(f"no scene files in {opts['scenes']}")
    scenes = [synthetic.load_scene(f) for f in files]
    aliases = {"no-attr": evaluation.MODE_NO_ATTRIBUTE}
    modes = [
        aliases.get(m.strip(), m.strip())
        for m in opts["modes"].split(",")
        if m.strip()
    ]
    cfg = evaluation.DiagnosticConfig(
        grammar=grammar,
        models=models,
        beam=BeamConfig(beam_width=opts["beam"]),
        noise_sigma=opts["noise_sigma"],
        seed=opts["seed"],
    )
    report = evaluation.run_diagnostic(scenes, cfg, modes)
    write_json(opts["report"], report)
    _info(f"wrote diagnostic report to {opts['report']}")
    return 0


def _cmd_render(opts: dict) -> int:
    _require(opts, "parse", "grammar", "out")
    grammar = load_grammar(opts["grammar"])
    pg = load_parse_graph(opts["parse"], grammar)
    with naming(opts["parse"]):
        save_svg(pg, grammar, opts["out"])
    _info(f"wrote {opts['out']}")
    return 0


# -- wiring ---------------------------------------------------------------

_COMMANDS = {
    "validate": (
        _cmd_validate,
        {"grammar": None},
        "check a grammar file for structural problems",
    ),
    "init-grammar": (
        _cmd_init_grammar,
        {"out": None},
        "write the default 17-part human grammar",
    ),
    "synth": (
        _cmd_synth,
        {
            "family": "two-person",
            "n": 100,
            "seed": 0,
            "out": None,
            "image_size": (320, 240),
            "spacing": 24.0,
            "pose_sigma": 6.0,
            "annotations": None,
        },
        "generate synthetic scenes (and optionally training annotations)",
    ),
    "learn": (
        _cmd_learn,
        {
            "annotations": None,
            "grammar": None,
            "proposals": None,
            "components": 10,
            "seed": 0,
            "out": None,
        },
        "fit relation models from annotations",
    ),
    "parse": (
        _cmd_parse,
        {
            "grammar": None,
            "models": None,
            "proposals": None,
            "mode": "joint",
            "beam": 100,
            "out": None,
            "scores_out": None,
        },
        "run beam-search parsing over a proposal file",
    ),
    "eval-pcp": (
        _cmd_eval_pcp,
        {"pred": None, "truth": None, "grammar": None, "threshold": 0.5, "report": None},
        "strict PCP of parse files against annotations",
    ),
    "eval-ap": (
        _cmd_eval_ap,
        {"scores": None, "labels": None},
        "average precision of a score/label pair of JSON arrays",
    ),
    "diag": (
        _cmd_diag,
        {
            "scenes": None,
            "grammar": None,
            "models": None,
            "modes": "joint,no-attribute,no-pose",
            "beam": 100,
            "noise_sigma": 0.9,
            "seed": 0,
            "report": None,
        },
        "joint-vs-ablation diagnostic over a scene directory",
    ),
    "render": (
        _cmd_render,
        {"parse": None, "grammar": None, "out": None},
        "render a parse file to SVG",
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posegrammar",
        description="attributed and-or grammar engine for pose and attribute parsing",
        epilog=f"JSON schema version {SCHEMA_VERSION}",
    )
    subparsers = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, (func, defaults, help_text) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.set_defaults(func=func, command=name)
        sub.add_argument("--config", default=_UNSET, help="JSON file mirroring the flags")
        for key, default in defaults.items():
            flag = "--" + key.replace("_", "-")
            if key == "image_size":
                sub.add_argument(flag, nargs=2, type=int, default=_UNSET, metavar=("W", "H"))
            elif key == "family":
                sub.add_argument(flag, choices=("single", "two-person"), default=_UNSET)
            else:
                sub.add_argument(flag, default=_UNSET, help=f"default: {default}")
    return parser


def cli_dispatch(argv: Sequence[str]) -> int:
    """Run one command; returns the process exit code instead of exiting.

    Each warning the library raises during the command is printed as one
    ``warning: <message>`` line on stderr.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    defaults = _COMMANDS[args.command][1]
    try:
        with warnings.catch_warnings():
            # A library warning is one line, with no source path or code line.
            warnings.showwarning = lambda message, *_where: _info(f"warning: {message}")
            opts = _merged_options(args, defaults)
            return args.func(opts)
    except _UsageError as exc:
        _info(f"error: {exc}")
        return 2
    except PoseGrammarError as exc:
        _info(f"error: {exc}")
        return 1
    except OSError as exc:
        _info(f"error: {exc}")
        return 1


def main(argv: Sequence[str] | None = None) -> int:
    return cli_dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
