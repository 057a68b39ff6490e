"""The benchmark's traced run replaces module attributes of the package
(``perfbench/spans.py``, ``CALL_SITES``); each must still exist, or the
traced run and its report break on the first refactor that drops one."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    # by path: perfbench is not a package, and spans.py needs only the
    # standard library
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_call_site_exists():
    sites = load_spans().CALL_SITES
    assert sites
    missing = [f"robust_scatter.{module}.{attr}" for module, attr, *_ in sites
               if not callable(getattr(importlib.import_module(f"robust_scatter.{module}"),
                                       attr, None))]
    assert missing == []
