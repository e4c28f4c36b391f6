"""Benchmark for rankforge: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload desk-pipeline --seed 1 --seconds 30 --trace 0

Run from the root of a rankforge checkout; the program is imported from its
``src/`` directory.  The run sets the workload up three times (reporting
the median set-up time), then runs passes one after another for
``--seconds``, starting no pass that would likely end after them.  Every
pass's outputs are checked: a failed check prints the reason to stderr and
exits with code 1 without a result.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, the medians over traced passes, with
trace.overhead_s = median traced wall time - median untraced wall time.
It writes the spans to .perfbench/trace/<workload>-s<seed>.spans.jsonl.

The last line of stdout is one JSON object:
{"correct": true, "attempted": ..., "failed": 0, "metrics": {name: {"value", "unit"}}}
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
REQUIRED = ("src/rankforge/__init__.py", "tests/fixtures/synthetic_oracle.json",
            "scripts/make_corpus.py")
SETUP_REPEATS = 3

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def use_checkout() -> str | None:
    """Put the checkout's ``src/`` first on sys.path; an error message when
    this is not a rankforge checkout."""
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        return f"not a rankforge checkout: missing {', '.join(missing)}"
    sys.path.insert(0, str(ROOT / "src"))
    import rankforge

    expected = (ROOT / "src" / "rankforge").resolve()
    if Path(rankforge.__file__).resolve().parent != expected:
        return f"imported rankforge from {rankforge.__file__}, not from {expected}"
    return None


def digest_files(paths, base: Path) -> list:
    return [[str(Path(p).relative_to(base)), hashlib.sha256(Path(p).read_bytes()).hexdigest()]
            for p in paths]


def source_hash() -> str:
    """Hash of the code that determines the outputs: rankforge, the corpus
    generator, and this benchmark."""
    digest = hashlib.sha256()
    for top in ("src", "scripts", HERE.name):
        for path in sorted((ROOT / top).rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def check_digest_store(work: Path, key: str, digest: str) -> None:
    """Outputs of the same code and seed must be byte-identical across runs,
    traced or not; the first run of a key records its digest."""
    from workloads import CheckFailed

    store_path = work / "digests.json"
    work.mkdir(parents=True, exist_ok=True)
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    if store.get(key, digest) != digest:
        raise CheckFailed(f"output digest {digest[:16]} differs from an earlier run "
                          f"of the same code and seed ({store[key][:16]})")
    store[key] = digest
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, store_path)


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Set up, run passes for ``seconds``, check outputs.  Returns the
    result object plus a ``summary`` of the figures printed for people.

    Scratch files go to a directory under ``work`` that is removed at the
    end; the digest store and the spans stay in ``work``."""
    workdir = work / f"run-{workload.name}-s{seed}-{os.getpid()}"
    try:
        return _measure(workload, seed, seconds, trace, work, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(workload, seed, seconds, trace, work, workdir) -> dict:
    from tracing import PER_LAYER, NullProbe, Tracer, tail_percentile
    from workloads import CheckFailed

    setup_times, setup_digests, state = [], None, None
    walls = {False: [], True: []}
    layer_runs, traces = [], []
    attempted = failed = 0
    accuracies, query_ms, pass_digests = [], [], None
    try:
        for i in range(SETUP_REPEATS):
            if state is not None:
                workload.teardown(state)
                state = None
            setup_dir = workdir / f"setup{i}"
            start = time.perf_counter()
            state = workload.setup(seed, setup_dir)
            setup_times.append(time.perf_counter() - start)
            digests = digest_files(state["outputs"], setup_dir)
            if setup_digests not in (None, digests):
                raise CheckFailed("set-up outputs differ between set-ups of one seed")
            setup_digests = digests

        started = time.perf_counter()
        index = 0
        while True:
            tracer = Tracer() if trace and index % 2 == 1 else None
            outdir = workdir / f"pass{index}"
            if tracer is not None:
                tracer.install()
            start = time.perf_counter()
            try:
                result = workload.run_pass(state, outdir, tracer or NullProbe())
            finally:
                wall = time.perf_counter() - start
                if tracer is not None:
                    tracer.uninstall()
            walls[tracer is not None].append(wall)
            digests = digest_files(result.outputs, outdir)
            if pass_digests not in (None, digests):
                raise CheckFailed(f"pass {index} outputs differ from pass 0 of the same seed")
            pass_digests = digests
            if result.produced != result.attempted:
                raise CheckFailed(f"error_rate is not 0: {result.attempted - result.produced} "
                                  f"of {result.attempted} data points dropped or failed")
            attempted += result.attempted
            failed += result.attempted - result.produced
            if result.accuracy is not None:
                accuracies.append(result.accuracy)
            query_ms.extend(result.query_ms)
            if tracer is not None:
                layer_runs.append(tracer.metrics(wall, result.cache_bytes))
                traces.append((start, tracer.spans))
            shutil.rmtree(outdir, ignore_errors=True)
            index += 1
            # Stop before a pass that would likely end past the deadline.
            typical = statistics.median(walls[False] + walls[True])
            if (time.perf_counter() - started + typical > seconds
                    and index >= (2 if trace else 1)):
                break
    finally:
        if state is not None:
            workload.teardown(state)

    digest = hashlib.sha256(json.dumps([setup_digests, pass_digests]).encode()).hexdigest()
    check_digest_store(work, f"{workload.name}/seed{seed}/{source_hash()}", digest)

    if trace:
        metrics = {key: statistics.median(run[key] for run in layer_runs)
                   for key in PER_LAYER if key != "trace.overhead_s"}
        metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        units = PER_LAYER
        write_spans(work / "trace" / f"{workload.name}-s{seed}.spans.jsonl", traces)
    else:
        metrics = {
            "wall_s": statistics.median(walls[False]),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    summary = {
        "passes": len(walls[False]) + len(walls[True]),
        "error_rate": failed / attempted,
        "accuracy": accuracies[0] if accuracies else None,
        "output_sha256": digest,
    }
    if query_ms:
        summary["player_queries"] = len(query_ms)
        summary["player_query_p50_ms"] = statistics.median(query_ms)
        percentile, value = tail_percentile(query_ms)
        if percentile is not None:
            summary[f"player_query_p{percentile:g}_ms"] = value
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
        "summary": summary,
    }


def write_spans(path: Path, traces) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for number, (origin, spans) in enumerate(traces):
            for i, (name, layer, parent, start, end) in enumerate(spans):
                fh.write(json.dumps({"pass": number, "id": i, "parent": parent, "name": name,
                                     "layer": layer, "start": start - origin,
                                     "end": end - origin}) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("desk-pipeline", "player-eval", "records-engine"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = use_checkout()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, CheckFailed

    try:
        result = measure(WORKLOADS[args.workload](), args.seed, args.seconds,
                         bool(args.trace), WORK)
    except CheckFailed as exc:
        print(f"perfbench: check failed on {args.workload} seed {args.seed}: {exc}",
              file=sys.stderr)
        return 1
    summary = result.pop("summary")
    print(f"{args.workload} seed {args.seed}: {summary['passes']} passes, "
          f"{result['attempted']} data points, error_rate {summary['error_rate']}")
    for key, value in summary.items():
        if key not in ("passes", "error_rate") and value is not None:
            print(f"  {key} = {value}")
    for key, metric in result["metrics"].items():
        print(f"  {key} = {metric['value']} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
