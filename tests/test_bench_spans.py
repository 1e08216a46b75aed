"""The benchmark's traced run wraps package functions by (module, attribute)
and leaves a metric out when its name is absent, so a refactor that drops a
wrapped import changes the traced metric set without failing anything else.
This test pins every wrapped name to the package."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# The baselines take lane guidance from the shared step setup.
ALLOWED_ABSENT = {("probeplan.baselines", "lane_guidance")}


def load_wraps():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPS


def test_every_wrapped_name_resolves():
    wraps = load_wraps()
    assert wraps
    absent = {
        (module, attr)
        for module, attr, _ in wraps
        if not hasattr(importlib.import_module(module), attr)
    }
    assert absent == ALLOWED_ABSENT
