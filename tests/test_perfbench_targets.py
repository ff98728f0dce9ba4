"""The traced benchmark run patches package names; each one must exist."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in _targets()])
def test_traced_name_resolves_in_the_package(module, attr):
    # a renamed or moved name would otherwise fail only in the benchmark
    mod = importlib.import_module(f"cstarlab.{module}")
    if "." in attr:
        cls_name, method = attr.split(".")
        assert method in vars(getattr(mod, cls_name))
    else:
        assert callable(getattr(mod, attr))


def test_sampling_module_has_public_draws_to_trace():
    # every public function defined in cstarlab.sampling is traced as a draw
    sampling = importlib.import_module("cstarlab.sampling")
    assert [
        name
        for name, value in vars(sampling).items()
        if inspect.isfunction(value)
        and value.__module__ == sampling.__name__
        and not name.startswith("_")
    ]
