"""The benchmark's layer list names functions that exist in initalg.

`perfbench/tracing.py` looks up every `(module, function)` in `LAYERS` by
name, both when it installs its timing wrappers and from the deadline handler
that records which layer a cut job was in.  A deleted or renamed function
there makes benchmark runs crash, even with tracing off.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import initalg  # noqa: F401  (imports every module the layer list names)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_resolves_to_a_function():
    tracing = _tracing()
    for module, func, _name in tracing.LAYERS:
        fn = getattr(importlib.import_module(f"initalg.{module}"), func, None)
        assert inspect.isfunction(fn), f"initalg.{module}.{func}"
    assert tracing.innermost_layer(inspect.currentframe()) == "none"
