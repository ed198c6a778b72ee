"""The traced benchmark's entry points still exist in the program.

``perfbench/layers.py`` wraps named attributes of ``repro`` modules and
classes for its ``--trace 1`` run.  A refactor that renames or removes
one would only surface when that run fails; this check fails tier-1
instead.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("layers")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_target_is_a_callable_attribute(layers):
    targets = [
        (target, attr)
        for _, target, attr, _, _ in layers.ENTRY_POINTS + layers.COUNTERS
    ]
    assert targets
    for target, attr in targets:
        module_name, _, class_name = target.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        assert attr in owner.__dict__, f"{target}.{attr} is gone"
        assert callable(owner.__dict__[attr]), f"{target}.{attr} is not callable"
