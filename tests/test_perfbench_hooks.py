"""The benchmark's traced run patches rankforge functions by attribute name;
a rename or move in the package must not leave one of them dangling."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(tracing):
    targets = [(path, attr) for _, path, attr, _ in tracing.PATCHES]
    targets.append(("rankforge.cli", "_build_bank"))
    for path, attr in targets:
        owner = tracing._resolve(path)
        assert callable(getattr(owner, attr, None)), f"{path}.{attr}"
