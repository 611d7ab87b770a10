"""One benchmark run: workloads, phases, correctness gates and metrics.

``run.py`` is the entry point; it puts the checkout's ``src/`` on the path
before importing this module.
"""

from __future__ import annotations

import math
import platform
import os
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy

import inputs
import layers
import stages
from speed import SpeedSampler, Stopwatch
from tracer import Tracer
from vuln2rule import demo, pipeline, tagger
from vuln2rule.corpus import tokenize
from vuln2rule.rules import datalog, synthesis
from vuln2rule.rules.synthesis import GenerationFailure

#: end-to-end metrics: name -> unit
END_TO_END = {
    "records_per_s": "1/s",
    "record_latency_p50_ms": "ms",
    "record_latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rule_yield": "ratio",
    "ner_micro_f1": "ratio",
    "train_embedding_s": "s",
    "train_ner_s": "s",
    "train_completer_s": "s",
    "learn_wiring_s": "s",
    "xval_wiring_s": "s",
}

#: records per run_pipeline call in the batch phase (one ``pipeline`` input file)
BATCH_RECORDS = 50


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: str  # "demo" or "paper"
    tagged: bool
    records: int
    load_reps: int
    #: records built to end in a GenerationFailure
    failure_share: float = 0.0
    #: gold sets with one core entity removed
    mask_share: float = 0.0
    #: descriptions longer than the tagger's max_len
    long_share: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "demo-tagged",
            "demo models, tagger path: tagger.tag dominates run_pipeline",
            "demo", True, records=300, load_reps=15, failure_share=0.10,
        ),
        Workload(
            "demo-gold",
            "demo models, gold entities: bypasses the tagger; 60% of the sets lose a core entity, so completion and wiring dominate",
            "demo", False, records=1000, load_reps=15, failure_share=0.05, mask_share=0.6,
        ),
        Workload(
            "paper",
            "paper shape (10,001 x 100, hidden 100): trainers and artifact I/O at full size, tagger arithmetic over NVD-length text",
            "paper", True, records=150, load_reps=5, long_share=0.08,
        ),
    )
}


class Ops:
    """Operations attempted and failed; a failed gate counts as a failed
    operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


@dataclass
class Result:
    ops: Ops
    metrics: dict[str, float]
    detail: dict


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest of a fixed ladder of percentiles
    that still has at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p, float(np.percentile(samples, p))
    return 50.0, float(np.percentile(samples, 50.0))


# --- inputs -------------------------------------------------------------------------


def make_inputs(workload: Workload, seed: int, tiny: bool):
    """(served inputs, build sizes, tagger max_len), from the seed only."""
    n_records = 12 if tiny else workload.records
    if workload.shape == "demo":
        sizes = stages.DemoSizes(n_records=40, embedding_epochs=2, ner_epochs=20) if tiny else stages.DemoSizes()
        if workload.tagged:
            inp = inputs.demo_tagged_inputs(seed, n_records, workload.failure_share)
        else:
            inp = inputs.demo_gold_inputs(seed, n_records, workload.mask_share, workload.failure_share)
        return inp, sizes, 60
    sizes = stages.PaperSizes()
    if tiny:
        sizes = replace(
            sizes, vocab=600, dim=16, hidden=16, max_len=30, pool=8,
            embedding_sentences=4, ner_sentences=8, completer_records=60,
            wiring_rules=40, wiring_predicates=24,
        )
    vocab = inputs.paper_vocabulary(sizes.vocab, sizes.pool)
    records = inputs.paper_records(vocab, n_records, seed, workload.long_share, sizes.max_len)
    return inputs.paper_inputs(records), sizes, sizes.max_len


# --- phases ---------------------------------------------------------------------------


@dataclass
class Served:
    """Timings of the serve phase, as measured and scaled, per batch file
    and per record, plus the first round's outcomes."""

    rounds: int = 0
    #: (records, timing) per batch file, traced or not
    files: list = field(default_factory=list)
    untraced_files: list = field(default_factory=list)
    #: one timing per record of the single phase
    records: list = field(default_factory=list)
    outcomes: list | None = None
    rules: list | None = None


def serve(inp, models, seconds, watch: Stopwatch, phase, tracer, ops, work_dir) -> Served:
    """Rounds of one batch pass and one single pass until ``seconds`` is
    spent (at least one round), with the gates that compare them."""
    out_path = work_dir / "rules.P"
    gold = inp.gold_entities
    chunks = [inp.records[i : i + BATCH_RECORDS] for i in range(0, len(inp.records), BATCH_RECORDS)]

    def batch_pass():
        """One run_pipeline call per file of BATCH_RECORDS records."""
        files, outcomes, rules, texts = [], [], [], []
        for chunk in chunks:
            timing, (report, chunk_rules) = watch.time(
                lambda: pipeline.run_pipeline(models, chunk, gold_entities=gold, out_path=out_path)
            )
            files.append((len(chunk), timing))
            if chunk_rules:
                texts.append(out_path.read_text("utf-8"))
                out_path.unlink()
            outcomes += report.outcomes
            rules += chunk_rules
            ops.check(report.counts.get("rules") == len(chunk_rules), "report rule count differs")
        ops.attempted += len(inp.records)
        return files, outcomes, rules, "\n".join(texts)

    def genrule(record):
        result = synthesis.generate(
            record.description,
            models,
            gold_entities=gold.get(record.id) if gold else None,
            cve_id=record.id,
        )
        return result, None if isinstance(result, GenerationFailure) else datalog.emit_rule(result)

    def single_pass():
        timings, texts, outcomes = [], [], []
        for record in inp.records:
            timing, (result, text) = watch.time(lambda: genrule(record))
            timings.append(timing)
            texts.append(text)
            outcomes.append(result.kind.value if text is None else "rule")
        ops.attempted += len(inp.records)
        return timings, texts, outcomes

    # warm-up outside the timed window: first calls into numpy and the models
    for record in inp.records[:5]:
        genrule(record)

    out = Served()
    reference: list[str] = []  # the first batch pass's rule file

    def same_as_first(text: str, what: str) -> None:
        if not reference:
            reference.append(text)
        ops.check(text == reference[0], what)

    deadline = time.perf_counter() + seconds
    while out.rounds == 0 or time.perf_counter() < deadline:
        if tracer is not None:
            # an untraced batch pass before each traced round, for the overhead
            files, _, _, text = batch_pass()
            out.untraced_files += files
            same_as_first(text, "untraced batch rules differ between rounds")
        with phase("bench.serve", layers.SERVE):
            with tracer.span("bench.serve.batch") if tracer else nullcontext():
                files, outcomes, rules, text = batch_pass()
            with tracer.span("bench.serve.single") if tracer else nullcontext():
                timings, texts, single_outcomes = single_pass()
        out.files += files
        out.records += timings
        out.rounds += 1
        if out.outcomes is None:
            out.outcomes, out.rules = outcomes, rules
            check_rules(ops, outcomes, rules, text, len(inp.records))
        same_as_first(text, "batch rules differ between rounds or from the untraced pass")
        kept = [t for t in texts if t is not None]
        single_text = "\n\n".join(kept) + "\n" if kept else ""
        ops.check(single_text == text, "single-phase rules differ from batch-phase rules")
        ops.check(
            single_outcomes == [o for _, o in outcomes],
            "single-phase outcomes differ from batch-phase outcomes",
        )
    return out


def run(workload: Workload, seed: int, seconds: float, trace: bool, tiny: bool, work_dir: Path, out_dir: Path) -> Result:
    ops = Ops()
    tracer = Tracer() if trace else None
    load_reps = 1 if tiny or trace else workload.load_reps
    min_step_s = 0.0 if tiny or trace else 2.0
    inp, sizes, max_len = make_inputs(workload, seed, tiny)

    def phase(name, ph):
        return nullcontext() if tracer is None else tracer.session(name, ph, layers.install)

    # untraced runs rescale every timing by the host's speed while it ran
    with nullcontext() if trace else SpeedSampler() as sampler:
        watch = Stopwatch(sampler)

        # build: every trainer, each with its save
        built = stages.Built(min_step_s, watch)
        with phase("bench.build", layers.BUILD):
            if workload.shape == "demo":
                stages.build_demo(work_dir, sizes, built)
            else:
                stages.build_paper(work_dir, sizes, built)
        ops.attempted += len(stages.STEPS)
        check_trainers(ops, built)

        # set-up: load_models, several times
        def load():
            with phase("bench.setup", layers.SETUP):
                return stages.load(work_dir, need_tagger=workload.tagged)

        load_timings, models = stages.timed(load, math.inf, watch, reps=load_reps)
        ops.attempted += load_reps
        if workload.shape == "demo":
            check_golden(ops, models)

        served = serve(inp, models, seconds, watch, phase, tracer, ops, work_dir)

    # quality, outside the timed region
    predictions = [
        [t for t, _ in tagger.tag(built.tagger, built.embedding, list(s.tokens))] for s in inp.labeled
    ]
    f1 = tagger.evaluate_f1(predictions, [list(s.tags) for s in inp.labeled]).micro.f1

    def timings(scaled: bool) -> dict[str, float]:
        seconds = watch.scaled if scaled else (lambda t: t.seconds)
        latencies = [seconds(t) for t in served.records]
        return {
            "records_per_s": statistics.median(k / seconds(t) for k, t in served.files),
            "record_latency_p50_ms": statistics.median(latencies) * 1e3,
            "record_latency_tail_ms": tail_percentile(latencies)[1] * 1e3,
            "setup_s": statistics.median(seconds(t) for t in load_timings),
            **{
                step: statistics.median(seconds(t) for t in built.timings[step])
                for step in stages.STEPS
            },
        }

    n = len(inp.records)
    metrics = {
        **timings(scaled=True),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rule_yield": len(served.rules) / n,
        "ner_micro_f1": f1,
    }
    lengths = [len(tokenize(r.description)) for r in inp.records]
    completed = sum(
        1 for r in served.rules if any(v.startswith("completed") for v in r.trace.values())
    )
    detail = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "serve_rounds": served.rounds,
        "batch_records": BATCH_RECORDS,
        "closed_loop": "one caller; the next record is sent when the previous one returns",
        "latency_samples": len(served.records),
        "record_latency_tail_percentile": tail_percentile([t.seconds for t in served.records])[0],
        "failed_share": ops.failed / max(ops.attempted, 1),
        "problems": ops.problems,
        "inputs": {
            "records": n,
            "token_length_min": min(lengths),
            "token_length_median": statistics.median(lengths),
            "token_length_max": max(lengths),
            "tagger_max_len": max_len,
            "share_over_max_len": sum(1 for x in lengths if x > max_len) / n,
            "share_built_to_fail": inp.built_to_fail / n,
            "share_masked_core_entity": inp.masked / n,
            "share_completed_core_entity": completed / n,
            "failure_kind_shares": {
                kind: sum(1 for _, o in served.outcomes if o == kind) / n
                for kind in sorted({o for _, o in served.outcomes} - {"rule"})
            },
            "wiring_slots": built.wiring_slots,
            "wiring_unknown_share": built.wiring_unknown_share,
        },
        "env": environment(),
    }
    if sampler is not None:
        detail["speed"] = sampler.summary()
        detail["as_measured"] = timings(scaled=False)
    if tracer is not None:
        metrics = layers.layer_metrics(tracer, served.rounds, workload.tagged)
        untraced = statistics.median(k / t.seconds for k, t in served.untraced_files)
        traced = statistics.median(k / t.seconds for k, t in served.files)
        metrics["trace.records_per_s_untraced"] = untraced
        metrics["trace.records_per_s_traced"] = traced
        metrics["trace.overhead_share"] = 1.0 - traced / untraced
        detail["wait_s"] = "not measured: one caller, nothing queues or runs concurrently"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{workload.name}-seed{seed}.jsonl.gz"
        tracer.write(spans_path)
        detail["spans_file"] = spans_path.name
    return Result(ops, metrics, detail)


# --- gates --------------------------------------------------------------------------


def check_trainers(ops: Ops, built) -> None:
    emb = built.embedding
    ops.check(
        bool(np.isfinite(emb.w_in).all() and np.isfinite(emb.w_out).all()),
        "embedding weights are not finite",
    )
    ops.check(emb.final_loss < emb.initial_loss, "embedding final_loss >= initial_loss")
    ops.check(
        all(np.isfinite(p).all() for p in built.tagger.params.values()),
        "tagger weights are not finite",
    )
    for entity, model in sorted(built.completion.items()):
        ops.check(
            bool(np.isfinite(model.weights).all() and np.isfinite(model.biases).all()),
            f"{entity} completion weights are not finite",
        )
        ops.check(model.final_loss < model.initial_loss, f"{entity} completion final_loss >= initial_loss")


def check_golden(ops: Ops, models) -> None:
    """CVE-2010-2212 from its gold entities: same head, body multiset and
    variable partition as the packaged golden rule."""
    rule = synthesis.generate("", models, gold_entities=demo.golden_entity_set())
    golden = datalog.parse_rule_file(demo.golden_rule_text())[0]
    if not ops.check(not isinstance(rule, GenerationFailure), f"golden rule failed: {rule}"):
        return

    def partition(r):
        groups: dict[str, set] = {}
        for pred in r.predicates():
            for pos, term in enumerate(pred.args):
                if term.kind == datalog.VARIABLE:
                    groups.setdefault(term.text, set()).add((pred.name, pos))
        return {frozenset(g) for g in groups.values()}

    ops.check(rule.head.name == golden.head.name, "golden rule head differs")
    ops.check(
        sorted((p.name, p.arity) for p in rule.body) == sorted((p.name, p.arity) for p in golden.body),
        "golden rule body differs",
    )
    ops.check(partition(rule) == partition(golden), "golden rule variable partition differs")


def check_rules(ops: Ops, outcomes, rules, text: str, n_records: int) -> None:
    """Emitted rules re-parse and re-emit to the same bytes; counts agree."""
    ops.check(len(outcomes) == n_records, "outcome count differs from record count")
    n_rule = sum(1 for _, outcome in outcomes if outcome == "rule")
    ops.check(n_rule == len(rules), "rule count differs from 'rule' outcomes")
    try:
        parsed = datalog.parse_rule_file(text) if text else []
    except Exception as exc:  # any parse error is a failed gate, reported by name
        ops.check(False, f"emitted rules do not parse: {exc!r}")
        return
    ops.check(len(parsed) == len(rules), "re-parsed rule count differs")
    ops.check(not parsed or datalog.emit_rules(parsed) == text, "emit_rule(parse(x)) != x")


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "processes": 1,
    }
