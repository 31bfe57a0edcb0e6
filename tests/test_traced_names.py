"""The traced benchmark (bench/spans.py) reports metric groups by span name.

A group whose every member the program no longer defines makes a traced run
fail, so renaming or deleting a traced entry point must fail here first.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_metric_group_names_a_defined_function():
    spans = load_spans()
    # the same resolution the span recorder uses when it installs wrappers
    defined = {
        span
        for layer in spans.LAYERS
        for *_, span in spans._layer_callables(importlib.import_module(f"dpextrema.{layer}"), layer)
    }
    empty = sorted(group for group, members in spans.GROUPS.items() if not defined & set(members))
    assert not empty, f"metric groups with no defined member: {empty}"
