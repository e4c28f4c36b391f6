"""The benchmark's traced run patches rankforge functions by attribute name,
and its workloads call rankforge by name and run the desk config; a rename
or move in the package must not leave one of them dangling, and a config
change must not alter what the tests' and the benchmark's configs read as."""

import ast
import importlib.util
from pathlib import Path

import pytest

from rankforge import config
from rankforge.gbdt import GbdtParams
from test_cli import NO_LOSS_SYNTH, NO_SYNTH_TABLE, TINY_SYNTH

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("perfbench_tracing", TRACING)


@pytest.fixture(scope="module")
def workloads():
    return _load("perfbench_workloads", WORKLOADS)


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


TINY_GBDT = GbdtParams(num_trees=25, min_samples_leaf=8)
# Config -> (run hash, synth hash, feature schema id, gbdt params, training
# ns, (train, eval) repetitions, (train, test) matches per group).  A change
# to the config reader must leave every one of them as it is.
CONFIG_PINS = {
    "tiny": ("384e39157016", "de130f3f3923", "dca744101dc6", TINY_GBDT, (1, 3), (120, 60),
             (30, 15)),
    "no-loss": ("be09f04fc0b5", "de130f3f3923", "c50c041892b3", TINY_GBDT, (1, 3), (120, 60),
                (30, 15)),
    "no-synth": ("9823769ae0fb", None, "dca744101dc6", TINY_GBDT, (1, 3), (120, 60), None),
    "desk-101": ("1b79b1fc9363", "f2230700e6e6", "81deafc08918", GbdtParams(num_trees=60),
                 (5, 20), (150, 200), (120, 80)),
    "desk-131": ("3fccffdca394", "f2230700e6e6", "81deafc08918", GbdtParams(num_trees=60),
                 (5, 20), (150, 200), (120, 80)),
    "desk-101-warmup": ("8b87ff6ddc7b", "f2230700e6e6", "81deafc08918",
                        GbdtParams(num_trees=5), (5, 20), (20, 20), (20, 20)),
    "desk-131-warmup": ("207a1ff05fa0", "f2230700e6e6", "81deafc08918",
                        GbdtParams(num_trees=5), (5, 20), (20, 20), (20, 20)),
}


@pytest.mark.parametrize("name", CONFIG_PINS)
def test_run_configs_keep_their_hashes_and_values(workloads, name):
    full = workloads.WORKLOADS["desk-pipeline"]().sizes
    texts = {"tiny": TINY_SYNTH, "no-loss": NO_LOSS_SYNTH, "no-synth": NO_SYNTH_TABLE}
    for seed in (101, 131):
        texts[f"desk-{seed}"] = workloads.desk_toml(seed, full)
        texts[f"desk-{seed}-warmup"] = workloads.desk_toml(seed, workloads.WARMUP_SIZES)
    run = config.run_config_from(config.read_config_text(texts[name]))
    assert (
        run.hash(),
        run.synth and run.synth.config_hash(),
        run.features.schema_id(),
        run.gbdt,
        run.training.ns,
        (run.training.repetitions_per_group, run.eval.repetitions),
        run.synth and (run.train_matches_per_group, run.test_matches_per_group),
    ) == CONFIG_PINS[name]
