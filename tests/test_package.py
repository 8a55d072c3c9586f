"""Package surface: the names ``posegrammar`` exports."""

from __future__ import annotations

import posegrammar


def test_every_exported_name_resolves_once():
    names = posegrammar.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(posegrammar, n)]
    assert missing == []
