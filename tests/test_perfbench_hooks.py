"""The benchmark's traced run patches rankforge functions by attribute name,
and its workloads call rankforge by name; a rename or move in the package
must not leave one of them dangling."""

import ast
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"


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


def rankforge_references(source: str) -> list:
    """(owner path, name) for every rankforge name the source imports with
    ``from ... import`` or reads as an attribute of such an import."""
    tree = ast.parse(source)
    imported = {}
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rankforge":
            for alias in node.names:
                refs.append((node.module, alias.name))
                imported[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in imported):
            refs.append((imported[node.value.id], node.attr))
    return refs


def test_every_workload_name_resolves(tracing):
    refs = rankforge_references(WORKLOADS.read_text())
    assert ("rankforge.cli", "run_pipeline") in refs
    for path, name in refs:
        assert hasattr(tracing._resolve(path), name), f"{path}.{name}"
