"""Shared fixtures: the default grammar and trained relation models.

Model fitting is the slow part of the suite, so fitted models are
session-scoped and shared.  ``quick_models`` is a small fit for
functional tests; ``trained_models`` is the larger corpus the
diagnostic checks run against.  The ``criterion`` fixture collects one
pass/fail line per acceptance criterion and replays them in a terminal
section at the end of the run.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager

import pytest

from posegrammar import build_default_human_grammar, learn_models
from posegrammar.evaluation import make_training_pairs

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def criterion():
    """Context manager recording ``criterion NN: PASS/FAIL - title``."""

    @contextmanager
    def run(number: int, title: str):
        try:
            yield
        except BaseException:
            line = f"criterion {number:02d}: FAIL - {title}"
            _ACCEPTANCE_LINES.append(line)
            print(line)
            raise
        line = f"criterion {number:02d}: PASS - {title}"
        _ACCEPTANCE_LINES.append(line)
        print(line)

    return run


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def grammar():
    return build_default_human_grammar()


@pytest.fixture(scope="session")
def quick_models(grammar):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        annotations, types = make_training_pairs(80, seed=11, grammar=grammar)
        return learn_models(
            annotations, grammar, type_samples=types, n_components=3, seed=5
        )


@pytest.fixture(scope="session")
def trained_models(grammar):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        annotations, types = make_training_pairs(600, seed=11, grammar=grammar)
        return learn_models(
            annotations, grammar, type_samples=types, n_components=10, seed=5
        )



@pytest.fixture(scope="session")
def far_apart(grammar):
    """``make_training_pairs(60, seed=3)`` with every coordinate of its
    annotations multiplied by a scale: a function of the scale returning
    the annotations and the part types."""
    from posegrammar.learning import Annotation, JointObs

    annotations, types = make_training_pairs(60, seed=3, grammar=grammar)

    def scaled(s: float):
        return [
            Annotation(
                {p: JointObs(j.x * s, j.y * s, j.visible) for p, j in ann.joints.items()},
                tuple(v * s for v in ann.person_box),
                ann.attributes,
            )
            for ann in annotations
        ], types

    return scaled


# Scales of that corpus whose fit must be refused, each with the edge the
# refusal names: a covariance eigenvalue lost below the floor, a falling
# EM likelihood, and squared distances beyond the float range.
@pytest.fixture(
    params=[(1e3, "('torso', 'r_shoulder')"), (1e20, "('r_hip', 'r_upper_leg')"), (1e153, "('torso', 'head')")],
    ids=["1e3", "1e20", "1e153"],
)
def beyond_range(request, far_apart):
    """The far-apart corpus at a scale the fit cannot represent: its
    annotations, its part types and the edge the refusal names."""
    scale, edge = request.param
    return (*far_apart(scale), edge)
