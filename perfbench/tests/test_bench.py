"""The benchmark's own tests: tiny-size smoke runs of every workload, the
tracer's failure modes, and the build replica against ``build_demo_models``.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bench
import layers
import run
import stages
from speed import Stopwatch
from tracer import TraceError, Tracer

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def smoke(workload: str, trace: int) -> tuple[dict, str]:
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


def check_result(result: dict, stdout: str, workload: str, specs: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in specs}
    printed = {
        line.split(": ", 1)[0]: line for line in stdout.splitlines() if line.startswith(f"{workload} ")
    }
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float)
        assert printed[f"{workload} {m['name']}"].endswith(f" {m['unit']}"), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    result, stdout = smoke(workload, 0)
    check_result(result, stdout, workload, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_per_layer_metric_appears_in_the_traced_output(workload):
    result, stdout = smoke(workload, 1)
    check_result(result, stdout, workload, SPEC["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.self_s_coverage"] > 0.95
    bypassed = metrics["tagger.tag.calls"] == 0
    assert bypassed == (workload == "demo-gold")


def test_spec_matches_the_code():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(bench.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == layers.metric_specs()
    assert WORKLOADS == list(bench.WORKLOADS)


def test_fails_without_the_program_sources():
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_bench(bare, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# --- tracer ---------------------------------------------------------------------------


def test_a_vanished_name_breaks_the_trace_and_earlier_wraps_are_restored():
    import types

    module = types.SimpleNamespace(work=lambda x: x + 1)
    original = module.work
    tracer = Tracer()

    def install(tr):
        tr.wrap(module, "work", "m.work")
        tr.wrap(module, "gone", "m.gone")

    with pytest.raises(TraceError, match="gone"):
        with tracer.session("root", "serve", install):
            pass
    assert module.work is original


def test_spans_nest_and_wraps_are_restored_after_a_session():
    import types

    module = types.SimpleNamespace()
    module.inner = lambda x: x * 2
    module.outer = lambda x: module.inner(x) + 1
    original = module.outer
    tracer = Tracer()

    def install(tr):
        tr.wrap(module, "outer", "m.outer")
        tr.wrap(module, "inner", "m.inner")

    with tracer.session("root", "serve", install):
        assert module.outer(3) == 7
    assert module.outer is original
    names = {s.id: s for s in tracer.spans}
    inner = next(s for s in tracer.spans if s.name == "m.inner")
    assert names[inner.parent].name == "m.outer"
    assert names[names[inner.parent].parent].name == "root"
    assert sum(tracer.self_seconds()) == pytest.approx(tracer.spans[0].end - tracer.spans[0].start)


def test_a_silent_required_layer_breaks_the_trace():
    with pytest.raises(TraceError, match="recorded no calls"):
        layers.layer_metrics(Tracer(), serve_rounds=1, tagged=True)


def test_every_wrapped_name_exists_in_the_library():
    tracer = Tracer()
    try:
        layers.install(tracer)
    finally:
        tracer.restore()


# --- build replica -----------------------------------------------------------------


def test_build_demo_matches_build_demo_models():
    from vuln2rule import demo
    from vuln2rule.rules import wiring

    sizes = stages.DemoSizes(n_records=30, embedding_epochs=2, ner_epochs=2)
    reference = demo.build_demo_models(
        seed=sizes.seed, n_records=sizes.n_records, dim=sizes.dim,
        embedding_epochs=sizes.embedding_epochs, ner_epochs=sizes.ner_epochs,
    )
    work = BENCH / "out" / "replica"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        built = stages.build_demo(work, sizes, stages.Built(0.0, Stopwatch()))
        matrix = wiring.load_wiring(work / "wiring.v1.csv")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert np.array_equal(built.embedding.w_in, reference.embedding.w_in)
    for name, value in reference.tagger.params.items():
        assert np.array_equal(built.tagger.params[name], value), name
    for entity, model in reference.completion.items():
        assert np.array_equal(built.completion[entity].weights, model.weights), entity
        assert built.completion[entity].classes == model.classes
    assert np.array_equal(matrix.probs, reference.generator.wiring.probs, equal_nan=True)
