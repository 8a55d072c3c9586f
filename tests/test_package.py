"""Package surface: the names ``posegrammar`` exports, and what a call
leaves behind."""

from __future__ import annotations

import ast
import re
import sys
import threading
import time
from pathlib import Path

import pytest

import posegrammar
from posegrammar import grammar as grammar_module
from posegrammar import inference, jsonio, learning, parallel
from posegrammar.appearance import ProposalSet, ScoreTable, synth_scores
from posegrammar.errors import ValidationError
from posegrammar.evaluation import DiagnosticConfig, run_diagnostic
from posegrammar.learning import Annotation, JointObs
from posegrammar.relations import KinematicMoG, SyntacticTable
from posegrammar.synthetic import generate_family, two_person_scene


def test_every_exported_name_resolves_once():
    names = posegrammar.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(posegrammar, n)]
    assert missing == []


def test_only_the_codec_encodes_or_decodes_json():
    """The file contract lives in ``posegrammar.jsonio``: no other module
    calls ``json.load``, ``json.loads``, ``json.dump`` or ``json.dumps``,
    or imports them from ``json``."""
    banned = {"load", "loads", "dump", "dumps"}
    offenders = []
    for path in sorted(Path(posegrammar.__file__).parent.glob("*.py")):
        if path.name == "jsonio.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in banned
                and isinstance(node.value, ast.Name)
                and node.value.id == "json"
            ) or (isinstance(node, ast.ImportFrom) and node.module == "json"):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_only_parallel_starts_threads():
    """Threads are started in ``posegrammar.parallel`` alone: no other
    module references ``threading.Thread`` or imports ``Thread``."""
    offenders = []
    for path in sorted(Path(posegrammar.__file__).parent.glob("*.py")):
        if path.name == "parallel.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "Thread"
                and isinstance(node.value, ast.Name)
                and node.value.id == "threading"
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "threading"
                and "Thread" in {alias.name for alias in node.names}
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def _scopes(node: ast.AST, prefix: str = ""):
    """Every function and class under ``node``, by qualified name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield prefix + child.name, child
            yield from _scopes(child, prefix + child.name + ".")
        else:
            yield from _scopes(child, prefix)


def _targets(node: ast.AST):
    """The targets ``node`` assigns, tuples and lists unpacked."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            targets.extend(target.elts)
        else:
            yield target


def test_a_set_is_refused_where_its_tables_are_filled():
    """A set is refused for the displacement scores it holds, when its
    tables are built: ``_fill_whole`` alone raises that refusal, a table's
    ``rows`` raises nothing, and only ``_Table.__init__`` writes a table's
    ``peak`` (``_Step.__init__`` writes a step's own), so nothing a search
    runs changes a bound after the plan is built."""
    refusing, writing, rows = set(), set(), None
    for path in sorted(Path(posegrammar.__file__).parent.glob("*.py")):
        for name, scope in _scopes(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(scope, ast.FunctionDef):
                continue
            rows = scope if (path.name, name) == ("inference.py", "_Table.rows") else rows
            for node in ast.walk(scope):
                if isinstance(node, ast.Constant) and "displacement score between proposals" in str(node.value):
                    refusing.add(f"{path.name}:{name}")
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    if any(isinstance(t, ast.Attribute) and t.attr == "peak" for t in _targets(node)):
                        writing.add(f"{path.name}:{name}")
    assert refusing == {"inference.py:_fill_whole"}
    assert [node.lineno for node in ast.walk(rows) if isinstance(node, ast.Raise)] == []
    assert writing == {"inference.py:_Step.__init__", "inference.py:_Table.__init__"}


def _calls_outside_appearance(method: str) -> list[str]:
    """Where a module other than ``posegrammar.appearance`` calls ``.method(``."""
    offenders = []
    for path in sorted(Path(posegrammar.__file__).parent.glob("*.py")):
        if path.name == "appearance.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == method
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    return offenders


def test_only_appearance_reads_scores_by_lookup():
    """Appearance reads go through the score grid: no module other than
    ``posegrammar.appearance`` calls ``.lookup(`` cell by cell."""
    assert _calls_outside_appearance("lookup") == []


def test_only_appearance_rebuilds_proposals():
    """A proposal set keeps columns, not ``Proposal`` objects: no module
    other than ``posegrammar.appearance`` calls ``.proposals_for(``, so the
    search never rebuilds them."""
    assert _calls_outside_appearance("proposals_for") == []


def test_only_the_readout_reads_score_cells_one_at_a_time():
    """Attribute scores have one readout, ``inference.attribute_scores``:
    outside ``posegrammar.appearance``, which owns the score grid, no other
    code reads a grid's cells one at a time (``.values.item``)."""
    readers = []
    for path in sorted(Path(posegrammar.__file__).parent.glob("*.py")):
        if path.name == "appearance.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # Outer scopes come first, so the last span holding a line is its innermost.
        spans = [(name, s.lineno, s.end_lineno) for name, s in _scopes(tree) if isinstance(s, ast.FunctionDef)]
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "item"
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "values"
            ):
                inside = [name for name, start, end in spans if start <= node.lineno <= end] or ["<module>"]
                readers.append(f"{path.name}:{inside[-1]}")
    assert readers == ["inference.py:attribute_scores"]


def test_only_the_search_results_are_built_unchecked():
    """``grammar._trusted`` builds a record without its field checks, so it
    is called only from ``inference._build_parse_graphs``, on the proposal
    set's checked columns and the search's sums: no other code of the
    package imports or reads it, and ``grammar.py`` only defines it."""
    uses = []
    for path in sorted(Path(posegrammar.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        spans = [(name, s.lineno, s.end_lineno) for name, s in _scopes(tree) if isinstance(s, ast.FunctionDef)]
        for node in ast.walk(tree):
            imported = isinstance(node, ast.ImportFrom) and "_trusted" in [alias.name for alias in node.names]
            if imported or "_trusted" in (getattr(node, "id", None), getattr(node, "attr", None)):
                inside = [name for name, start, end in spans if start <= node.lineno <= end] or ["<module>"]
                uses.append(f"{path.name}:{inside[-1]}")
    assert sorted(uses) == ["inference.py:<module>"] + ["inference.py:_build_parse_graphs"] * 2


def test_appearance_checks_proposals_once():
    """Proposals have one check, ``appearance._checked_columns``: the
    module does not import ``PartState``, whose fields a second check
    would test, and calls ``number_column`` in that check and in
    ``_Grid.values``, for score cells, alone."""
    tree = ast.parse((Path(posegrammar.__file__).parent / "appearance.py").read_text(encoding="utf-8"))
    assert "PartState" not in _references(tree)
    scopes = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    scopes |= {
        f"{cls.name}.{fn.name}": fn
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
    }

    def calls(node: ast.AST) -> int:
        return sum(
            isinstance(n, ast.Call) and "number_column" in (getattr(n.func, "id", None), getattr(n.func, "attr", None))
            for n in ast.walk(node)
        )

    callers = {name: calls(node) for name, node in scopes.items() if calls(node)}
    assert sorted(callers) == ["_Grid.values", "_checked_columns"]
    assert sum(callers.values()) == calls(tree)


def test_no_module_reaches_past_the_public_search():
    """The search has one public entry, ``inference.search``: no other
    module of ``posegrammar`` imports a private name from ``inference`` or
    reads one off it."""
    offenders = []
    for path in sorted(Path(posegrammar.__file__).parent.glob("*.py")):
        if path.name == "inference.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").rsplit(".", 1)[-1] == "inference":
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "inference":
                names = [node.attr]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}: {name}" for name in names if name.startswith("_")]
    assert offenders == []


def test_the_expansion_order_is_placed_once_per_grammar(grammar, quick_models, monkeypatch):
    """Only ``grammar.py`` calls ``parents_first``: the grammar places its
    expansion order when it is built, so a search, ``select_final`` and a
    diagnostic run on a built grammar place nothing."""
    callers = set()
    for path in sorted(Path(posegrammar.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                if "parents_first" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    callers.add(path.name)
    assert callers == {"grammar.py"}
    placed, place = [], grammar_module.parents_first
    monkeypatch.setattr(grammar_module, "parents_first", lambda *args: placed.append(args) or place(*args))
    scenes = generate_family("two-person", 2, seed=3)
    pset = synth_scores(scenes[0], 0.5, 1, attr_defs=grammar.attributes)
    inference.search(grammar, quick_models, pset, [{}, {"gender": "male"}])
    inference.select_final(grammar, quick_models, pset)
    run_diagnostic(scenes, DiagnosticConfig(grammar=grammar, models=quick_models))
    assert placed == []


def test_a_parse_is_scored_once_per_relation_model(grammar, quick_models, monkeypatch):
    """Neither relation model scores one edge at a time: neither class
    defines ``score``, and ``recompute_score`` reads a full parse's 13
    dependency edges in one ``log_densities`` call, one offset per edge."""
    assert [cls.__name__ for cls in (SyntacticTable, KinematicMoG) if hasattr(cls, "score")] == []
    pset = synth_scores(two_person_scene(seed=5), 0.9, 5)
    parses = inference.search(grammar, quick_models, pset, [{}, {"gender": "male"}])
    calls, density = [], quick_models.kinematic.log_densities
    monkeypatch.setattr(quick_models.kinematic, "log_densities", lambda e, p: calls.append(p.shape) or density(e, p))
    for pg in parses:
        assert set(pg.states) == set(grammar.part_ids)
        assert float.hex(grammar_module.recompute_score(pg, grammar, quick_models, pset.scores)) == float.hex(pg.total_score)
    assert calls == [(13, 1, 2)] * len(parses)


def test_only_synthetic_reads_the_part_box_sizes():
    """The part-box rule has one implementation, ``synthetic.part_box``:
    no other module reads ``PART_BOX_SIZES``."""
    offenders = []
    for path in sorted(Path(posegrammar.__file__).parent.glob("*.py")):
        if path.name == "synthetic.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if "PART_BOX_SIZES" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def _functions(module: str) -> dict[str, ast.FunctionDef]:
    tree = ast.parse((Path(posegrammar.__file__).parent / module).read_text(encoding="utf-8"))
    return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def test_gaussian_math_is_closed_form_and_batched():
    """The 2x2 Gaussian math has one closed-form implementation: no module
    reaches for ``numpy.linalg``, and neither its helpers, nor the mixture
    check, nor the log-sum-exp, loop over components.  The stacked EM fit
    has one loop, over iterations: no loop over edges or components runs
    inside it, and the per-edge seeding sits outside it.  It takes no
    exponential of its own: the responsibilities come from the ones
    :func:`_log_sum_exp` returns."""
    linalg = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(posegrammar.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "linalg"
    ]
    assert linalg == []
    relations, learning = _functions("relations.py"), _functions("learning.py")
    batched = [relations[name] for name in (
        "__post_init__", "_entries", "_matrices", "_determinant", "_eigenvalues",
        "_floor_covariances", "_component_constants", "_centring", "_offsets", "_quadratic",
        "_term_constants", "_mixture_terms", "_log_sum_exp",
    )] + [learning["_scatter"]]
    loops = (ast.For, ast.While, ast.comprehension)
    assert [fn.name for fn in batched if any(isinstance(n, loops) for n in ast.walk(fn))] == []
    em_loops = [ast.unparse(n) for n in ast.walk(learning["_em_fit"]) if isinstance(n, loops)]
    assert len(em_loops) == 1 and em_loops[0].startswith("for step in range(max_iter + 1):")
    assert "_kmeans_plusplus" in ast.unparse(learning["fit_kinematic"])
    assert "_kmeans_plusplus" not in ast.unparse(learning["_em_fit"])
    names = (n for n in ast.walk(learning["_em_fit"]) if isinstance(n, (ast.Attribute, ast.Name)))
    named = [n.attr if isinstance(n, ast.Attribute) else n.id for n in names]
    assert "_log_sum_exp" in named and not {"exp", "expm1", "exp2"} & set(named)


def _references(tree: ast.AST) -> set[str]:
    """Every name ``tree`` reads: loaded names, attributes, imported names,
    keyword arguments, and the words of string constants other than
    docstrings (``perfbench`` traces functions by dotted name)."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.keyword) and node.arg:
            out.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            out.update(re.findall(r"\w+", node.value))
    return out


def _definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """The module-level names ``tree`` defines and the methods of its
    classes, dunders aside."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            defined += [(n.name, n.lineno) for n in node.body if isinstance(n, ast.FunctionDef)]
    return [(name, line) for name, line in defined if not (name.startswith("__") and name.endswith("__"))]


def test_every_defined_name_is_used_somewhere_else():
    """No module-level name or method of ``posegrammar`` is dead: each is
    read somewhere in the package, the tests or the benchmark other than
    where it is defined."""
    root = Path(posegrammar.__file__).resolve().parents[2]
    package = Path(posegrammar.__file__).parent
    files = sorted(package.glob("*.py")) + sorted((root / "tests").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    used = set().union(*map(_references, trees.values()))
    dead = [
        f"{path.name}:{line}: {name}"
        for path in sorted(package.glob("*.py"))
        for name, line in _definitions(trees[path])
        if name not in used
    ]
    assert dead == []


# Read only by the tests, and kept, each for its reason.
_TEST_ONLY_ALLOWED = {
    "save_proposals": "the one writer of the documented proposal-file format, "
    "which the README's library quick start calls",
    "proposals_for": "a proposal set's per-part Proposal view, which "
    "test_only_appearance_rebuilds_proposals keeps out of the search",
}


def test_no_module_level_name_serves_only_the_tests():
    """Every module-level name and method (dunders aside) of
    ``posegrammar`` is read by the package (its re-exports in
    ``__init__.py`` aside) or by the benchmark (its own tests aside), not
    by the tests alone: code that only a test needs, such as the exhaustive
    search oracle, lives under ``tests/``.

    A name counts as read wherever it appears as a word of a string, so a
    method named like a word of an error message would pass unseen: a
    test-only ``AOGrammar.node`` would, as in "node 'x' lists duplicate
    children"."""
    root = Path(posegrammar.__file__).resolve().parents[2]
    package = Path(posegrammar.__file__).parent
    readers = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    readers += [p for p in sorted((root / "perfbench").glob("*.py")) if p.name != "test_perfbench.py"]
    used = set().union(*(_references(ast.parse(p.read_text(encoding="utf-8"))) for p in readers))
    test_only = [
        f"{path.name}:{line}: {name}"
        for path in sorted(package.glob("*.py"))
        for name, line in _definitions(ast.parse(path.read_text(encoding="utf-8")))
        if name not in used and name not in _TEST_ONLY_ALLOWED
    ]
    assert test_only == []


def _private_defaults(tree: ast.Module, module: str) -> list[tuple[str, str, str, int | None]]:
    """Per parameter default of a private function of ``tree``, or of a
    method or constructor of a private class: the name a call reaches it
    by, its label, the parameter, and the parameter's position among a
    call's positional arguments (``None`` for a keyword-only one)."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
            functions = [(node.name, f"{module}.{node.name}", node, 0)]
        elif isinstance(node, ast.ClassDef) and node.name.startswith("_"):
            functions = [
                (node.name if fn.name == "__init__" else fn.name, f"{module}.{node.name}.{fn.name}", fn, 1)
                for fn in node.body
                if isinstance(fn, ast.FunctionDef) and (fn.name == "__init__" or not fn.name.startswith("__"))
            ]
        else:
            continue
        for name, label, fn, bound in functions:
            params = (fn.args.posonlyargs + fn.args.args)[bound:]
            with_default = params[len(params) - len(fn.args.defaults):] if fn.args.defaults else []
            found += [(name, label, arg.arg, params.index(arg)) for arg in with_default]
            found += [(name, label, arg.arg, None) for arg, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d]
    return found


def test_every_private_default_is_relied_on():
    """Some call in the package omits each parameter default of a private
    function, or of a method or constructor of a private class: a default
    that only the tests omit is a second path through the code that no
    search or command takes.

    Calls are matched by name, so a call to any function or method of the
    same name counts, and one that spreads ``*args`` or ``**kwargs``
    counts as omitting every default.  A method that shares its name with
    another class's, as ``_Table.rows`` does with ``ScoreTable.rows``,
    passes whenever a call of that name omits the argument."""
    package = Path(posegrammar.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    defaults = [found for module, tree in trees.items() for found in _private_defaults(tree, module)]
    omitted = set()
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            spread = any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords)
            passed = {k.arg for k in call.keywords}
            for callee, label, param, position in defaults:
                if callee == name and (
                    spread or (param not in passed and (position is None or position >= len(call.args)))
                ):
                    omitted.add((label, param))
    assert [f"{label}({param})" for _name, label, param, _ in defaults if (label, param) not in omitted] == []


def _scene(huge: bool = False) -> ProposalSet:
    """A two-person scene's proposals; with ``huge``, every appearance score
    of the first two parts at 1e308, so that every objective's partial sum
    overflows at the second part and every group of a search is refused."""
    pset = synth_scores(two_person_scene(seed=21), noise_sigma=0.0, rng_seed=4)
    if not huge:
        return pset
    props = [p for part in pset.buckets for p in pset.proposals_for(part)]
    scores = {p.id: pset.scores.per_proposal(p.id) for p in props}
    for p in props:
        if p.part in ("full_body", "upper_body"):
            scores[p.id] = {attr: dict.fromkeys(values, 1e308) for attr, values in scores[p.id].items()}
    return ProposalSet.from_proposals(props, ScoreTable(scores), part_type_count=pset.part_type_count)


def _started_threads(monkeypatch) -> list[threading.Thread]:
    """A list that records, from now on, every ``threading.Thread`` that
    is started."""
    started = []

    class Spied(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Spied)
    return started


@pytest.mark.parametrize("refused", [False, True], ids=["succeeds", "refused"])
def test_a_search_joins_the_threads_it_starts(grammar, quick_models, monkeypatch, refused):
    """A search whose 26 groups run on four usable CPUs starts three
    threads and joins them before it returns or raises."""
    pset = _scene(huge=refused)
    monkeypatch.setattr(inference, "_GROUP_CELLS", 1)
    monkeypatch.setattr(parallel, "_WORKERS", 4)
    started = _started_threads(monkeypatch)
    before = threading.active_count()
    if refused:
        with pytest.raises(ValidationError, match="^a partial parse score at part 'upper_body' is not finite: "):
            posegrammar.select_final(grammar, quick_models, pset)
    else:
        posegrammar.select_final(grammar, quick_models, pset)
    assert len(started) == 3
    assert not any(thread.is_alive() for thread in started)
    assert threading.active_count() == before


def test_a_one_group_or_one_cpu_search_starts_no_thread(grammar, quick_models, monkeypatch):
    """A search of one group, whether of one objective or of objectives
    whose blocks fit together, or any search with one usable CPU, runs on
    the caller's thread alone."""
    pset = _scene()
    monkeypatch.setattr(parallel, "_WORKERS", 4)
    started = _started_threads(monkeypatch)
    posegrammar.select_final(grammar, quick_models, pset)
    monkeypatch.setattr(inference, "_GROUP_CELLS", 1)
    posegrammar.parse_unconstrained(grammar, quick_models, pset)
    monkeypatch.setattr(parallel, "_WORKERS", 1)
    posegrammar.select_final(grammar, quick_models, pset)
    assert started == []


@pytest.mark.parametrize("refused", [False, True], ids=["succeeds", "refused"])
def test_learning_joins_the_threads_it_starts(grammar, far_apart, monkeypatch, refused):
    """A fit whose 13 edges run as groups on four usable CPUs, every group
    worth a thread, starts three threads and joins them before it returns
    or raises; the corpus at scale 1e20 is refused after a likelihood fall.
    Each group but the caller's first sleeps, so that a thread left
    unjoined would still run when the caller's group ends."""
    annotations, types = far_apart(1e20 if refused else 1.0)
    monkeypatch.setattr(parallel, "_WORKERS", 4)
    monkeypatch.setattr(learning, "_THREAD_CELLS", 1)
    em_fit = learning._em_fit

    def slow(*args):
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.05)
        return em_fit(*args)

    monkeypatch.setattr(learning, "_em_fit", slow)
    started = _started_threads(monkeypatch)
    before = threading.active_count()
    if refused:
        with pytest.raises(ValidationError, match=r"\(EM mean log-likelihood decreased from "):
            learning.learn_models(annotations, grammar, type_samples=types, n_components=3, seed=1)
    else:
        learning.learn_models(annotations, grammar, type_samples=types, n_components=3, seed=1)
    assert len(started) == 3
    assert not any(thread.is_alive() for thread in started)
    assert threading.active_count() == before


def test_a_one_group_fit_starts_no_thread(grammar, far_apart, monkeypatch):
    """A fit whose groups would hold too few cells to be worth a thread, a
    fit of one edge, and any fit with one usable CPU run on the caller's
    thread alone."""
    annotations, types = far_apart(1.0)
    monkeypatch.setattr(parallel, "_WORKERS", 4)
    started = _started_threads(monkeypatch)
    learning.learn_models(annotations, grammar, type_samples=types, n_components=3, seed=1)
    monkeypatch.setattr(learning, "_THREAD_CELLS", 1)
    [(edge, X), *_] = learning.displacement_samples(annotations, grammar).items()
    learning.fit_kinematic({edge: X}, n_components=3, seed=1)
    monkeypatch.setattr(parallel, "_WORKERS", 1)
    learning.learn_models(annotations, grammar, type_samples=types, n_components=3, seed=1)
    assert started == []


def _checked_records(monkeypatch) -> list:
    """A list that records, from now on, every record that
    ``check_fields`` checks, through any module of ``posegrammar``."""
    checked = []
    real = jsonio.check_fields

    def spied(obj, spec):
        checked.append(obj)
        return real(obj, spec)

    for name, module in list(sys.modules.items()):
        if name.startswith("posegrammar") and getattr(module, "check_fields", None) is real:
            monkeypatch.setattr(module, "check_fields", spied)
    return checked


def test_a_search_builds_its_results_without_re_checks(grammar, quick_models, monkeypatch):
    """A search builds its part states and parse graphs from the proposal
    set's columns, which were checked when the set was built: a stacked
    ``select_final`` calls ``check_fields`` on no record at all, and a
    diagnostic only on the truth annotation it builds per scene."""
    pset = _scene()
    cfg = inference.BeamConfig(beam_width=100)
    diag = DiagnosticConfig(grammar=grammar, models=quick_models, beam=cfg, seed=3)
    scenes = generate_family("two-person", 2, seed=77)
    checked = _checked_records(monkeypatch)
    assert posegrammar.select_final(grammar, quick_models, pset, cfg)[0].states
    assert checked == []
    assert run_diagnostic(scenes, diag)["modes"]
    assert {type(obj) for obj in checked} == {Annotation, JointObs}
    assert len(checked) == len(scenes) * 15
