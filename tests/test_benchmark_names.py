"""The benchmark's traced names still exist in the package.

perfbench/tracing.py wraps the (module, attribute) pairs in its POINTS
table; a rename in the package would break `perfbench/run.py --trace 1`
without failing any other test.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from spiketrum import encoder, fixed_point

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_points_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.POINTS
    for module, attr in tracing.POINTS:
        target = getattr(importlib.import_module(f"spiketrum.{module}"), attr, None)
        assert callable(target), f"spiketrum.{module}.{attr}"


def test_segment_encoders_take_config_third():
    # tracing reads args[2].sps of every segment call for its per-layer counts
    for encode in (encoder.encode_segment, fixed_point.encode_segment_fixed):
        params = list(inspect.signature(encode).parameters.values())
        assert params[2].name == "config", encode.__name__
        assert params[2].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
