"""The benchmark's tracer (``perfbench/tracing.py``) wraps functions and
methods of spincert by name and stops a traced run when one is gone.
These tests install it once, so a change that deletes or renames a
traced name fails here, and check that its metric list is the one
``BENCHMARK.json`` declares."""

import importlib.util
import json
from pathlib import Path

import spincert.cli  # noqa: F401  the tracer wraps every loaded layer
from spincert.hyperell import FieldElem

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing():
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_traced_name():
    original = vars(FieldElem)["valuation"]
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()  # raises RuntimeError if a traced name is unbound
        assert vars(FieldElem)["valuation"] is not original
    finally:
        tracer.uninstall()
    assert vars(FieldElem)["valuation"] is original


def test_metric_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert _load_tracing().METRIC_UNITS == declared
