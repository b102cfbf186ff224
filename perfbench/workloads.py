"""The benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` and then runs
one fixed ``unit`` of work, which the runner repeats until its time is up.
Every repeat of a unit starts from the same inputs and the same state, so
its outputs and its chart counts must repeat exactly.  README.md says why
each workload exists.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import io
import json
import random
import statistics
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import spansem.cli as cli
import spansem.trainer as trainer
from spansem.cky import Grammar
from spansem.core import Utterance
from spansem.data.geo import exec_funql, geo_lexicon_entries, geo_schema, mini_geo_corpus, mini_kb
from spansem.data.scan import exec_scan, generate_scan_sp, scan_lexicon_entries, scan_schema
from spansem.data.splits import split_iid
from spansem.scorer import Lexicon, save_checkpoint
from spansem.trainer import Domain, TrainConfig, TrainExample
from spansem.typesys import CompositionFailure, parse_program, program_of_tree, save_schema

K = 5  # TrainConfig's default beam, used by every workload
EM_SAMPLE = 60  # scan-em: training examples per unit
GOLD_SAMPLE = 300  # gold-tree checkpoint: one epoch on this many examples
EVAL_SAMPLE = 300  # scan-eval: test utterances per unit
MIN_EVAL_ACCURACY = 0.95
GEO_CONFIG = TrainConfig(lr=0.0005, momentum=0.0, ternary=True)  # README's geo settings


@dataclass
class Unit:
    items: int  # examples or utterances the unit processed
    seconds: float  # time of the measured calls
    outputs: object  # compared between repeats
    latencies: dict = field(default_factory=dict)  # label -> [ms per item]
    predictions: list = field(default_factory=list)  # (program or None, gold)
    estep: list = field(default_factory=list)  # (constrained_parse result, gold)
    counts: dict = field(default_factory=dict)  # workload-specific numbers
    times: dict = field(default_factory=dict)  # workload-specific durations, s


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def length_bucket(ex):
    """Utterance length, with the rare lengths under 4 (94 of the 20,910
    scan commands) pooled so that every split has some of each bucket."""
    return max(len(ex.utterance), 4)


def length_sample(examples, k, rng, corpus_mix):
    """``k`` examples drawn by ``rng`` with a fixed number per length
    bucket: the corpus's mix, rounded by largest remainder.  Chart work
    grows as n^3, so a plain sample of 60 moved the cost of a unit by a
    fifth from seed to seed; this keeps every seed's mix the same."""
    total = sum(corpus_mix.values())
    quotas = {n: k * c / total for n, c in corpus_mix.items()}
    counts = {n: int(q) for n, q in quotas.items()}
    for n in sorted(quotas, key=lambda n: (counts[n] - quotas[n], n))[:k - sum(counts.values())]:
        counts[n] += 1
    by_bucket = {}
    for ex in examples:
        by_bucket.setdefault(length_bucket(ex), []).append(ex)
    sample = [ex for n in sorted(counts) for ex in rng.sample(by_bucket[n], counts[n])]
    rng.shuffle(sample)
    return sample


def lexicon_for(schema, pairs):
    """The lexicon ``cli.load_domain`` builds: entity names plus the manual list."""
    lexicon = Lexicon.from_entity_lexicon(schema.entity_lexicon)
    return lexicon.merged_with(Lexicon.from_pairs(pairs))


def scan_inputs(seed, tracer):
    """The scan domain, the iid split under ``seed``, and the corpus's
    count of utterances per length bucket."""
    with tracer.span("data.corpus"):
        schema = scan_schema()
        examples = [TrainExample(e.utterance, e.program, e.tree, e.actions)
                    for e in generate_scan_sp(schema)]
        train, _, test = split_iid(examples, seed=seed)
    lengths = collections.Counter(length_bucket(ex) for ex in examples)
    domain = Domain("scan", schema, lexicon_for(schema, scan_lexicon_entries()), exec_scan)
    return domain, train, test, lengths


def gold_tree_scorer(train, domain, seed):
    """A checkpoint trained on gold trees (no E-step), one epoch."""
    sample = random.Random(seed).sample(train, GOLD_SAMPLE)
    config = TrainConfig(use_gold_trees=True, max_epochs=1)
    return trainer.train(sample, [], domain, config).scorer


def params_digest(scorer):
    return sorted((k, float(v.sum())) for k, v in scorer.params.items())


def outcomes(unit, domain):
    """No-parse, executor-error and correct counts of a unit's predictions,
    executed after the unit and outside any timing."""
    no_parse = exec_errors = correct = 0
    for program, gold in unit.predictions:
        if program is None:
            no_parse += 1
            continue
        try:
            denotation = domain.execute(program)
        except ValueError:
            exec_errors += 1
            continue
        correct += denotation == domain.execute(gold)
    return {"no_parse": no_parse, "exec_errors": exec_errors, "correct": correct}


def record_predictions(state, patches):
    """Times every ``trainer.predict`` call and keeps its result."""
    state.predicted = []
    inner = trainer.predict

    def recorded(*args, **kwargs):
        start = time.perf_counter()
        result = inner(*args, **kwargs)
        state.predicted.append((1000.0 * (time.perf_counter() - start), result))
        return result

    patches.set(trainer, "predict", recorded)


def predicted_programs(state, examples):
    """(predicted program or None, gold program) per recorded predict call."""
    return [(None if r is None else r.program, ex.program)
            for (_, r), ex in zip(state.predicted, examples)]


def record_estep(state, patches):
    """Keeps every ``constrained_parse`` result with its gold program."""
    state.estep = []
    inner = trainer.constrained_parse

    def recorded(table, grammar, gold, *args, **kwargs):
        result = inner(table, grammar, gold, *args, **kwargs)
        state.estep.append((result, gold))
        return result

    patches.set(trainer, "constrained_parse", recorded)


def check_estep(state, units):
    for u in units:
        if not u.estep:
            yield "estep_observed", "train made no call through spansem.trainer.constrained_parse"
            return
        for result, gold in u.estep:
            if result is None:
                continue
            try:
                program = program_of_tree(result.tree, state.domain.schema)
            except CompositionFailure as exc:
                program = exc
            if program != gold:
                yield "estep_trees_map_to_gold", f"tree for {gold} maps to {program}"
                return


def check_evaluate(state, units, reports):
    """Every prediction counted correct by ``evaluate`` executes to the gold
    denotation; the rest are a no-parse, an executor error or a wrong
    denotation, and ``outcomes`` counts which."""
    for u, report in zip(units, reports):
        if len(u.predictions) != len(report["per_example"]):
            yield "predictions_observed", "evaluate made no call through spansem.trainer.predict"
            return
        counted = sum(r["correct"] for r in report["per_example"])
        executed = outcomes(u, state.domain)["correct"]
        if executed != counted:
            yield ("predictions_execute",
                   f"evaluate counts {counted} correct, executing its predictions gives {executed}")
            return


def training_summary(units):
    rates = [u.items / u.seconds for u in units]
    per_example = [1000.0 * u.seconds / u.items for u in units]
    skipped = units[0].counts["skipped"]
    named = {"train_ex_per_s": (rates, "1/s"),
             "estep_miss_share": ([skipped / units[0].items], "share")}
    return statistics.median(rates), statistics.median(per_example), named


class ScanEM:
    name = "scan-em"
    why = ("hard-EM training from random init: the constrained E-step chart "
           "and the M-step; no unconstrained chart, no executor")

    def setup(self, seed, work_dir, tracer):
        domain, train, _, lengths = scan_inputs(seed, tracer)
        return SimpleNamespace(domain=domain, sample=length_sample(
            train, EM_SAMPLE, random.Random(seed), lengths))

    def probe(self, state, patches):
        record_estep(state, patches)

    def unit(self, state):
        state.estep = []
        start = time.perf_counter()
        result = trainer.train(state.sample, [], state.domain, TrainConfig(max_epochs=1))
        seconds = time.perf_counter() - start
        (epoch,) = result.history
        return Unit(epoch["used"] + epoch["skipped"], seconds,
                    (result.history, params_digest(result.scorer)),
                    estep=state.estep, counts={"skipped": epoch["skipped"]})

    def checks(self, state, units):
        return check_estep(state, units)

    def summary(self, state, units):
        return training_summary(units)


class ScanEval:
    name = "scan-eval"
    why = ("evaluation at short n, serial and through `spansem eval --jobs 2`: "
           "scoring, K-best chart, validity retry and executor")

    def setup(self, seed, work_dir, tracer):
        domain, train, test, lengths = scan_inputs(seed, tracer)
        scorer = gold_tree_scorer(train, domain, seed)
        data_dir = work_dir / "scan-iid"
        data_dir.mkdir(parents=True, exist_ok=True)
        save_schema(domain.schema, data_dir / "schema.json")
        Lexicon.from_pairs(scan_lexicon_entries()).save_tsv(data_dir / "lexicon.tsv")
        test_path = data_dir / "test.jsonl"
        cli.write_jsonl(test_path, [
            cli.example_record(ex.utterance, ex.program, ex.tree, list(ex.denotation))
            for ex in length_sample(test, EVAL_SAMPLE, random.Random(seed), lengths)])
        checkpoint = work_dir / "model.npz"
        save_checkpoint(scorer, checkpoint, extra={
            "domain": "scan", "data_dir": str(data_dir), "ternary": False,
            "no_lexicon": False, "K": K})
        scorer, extra = cli.load_checkpoint(checkpoint)
        domain = cli.load_domain(data_dir, no_lexicon=extra["no_lexicon"])
        return SimpleNamespace(scorer=scorer, domain=domain, checkpoint=checkpoint,
                               test_path=test_path, report_path=work_dir / "report.json",
                               examples=cli.read_examples(test_path, domain.schema))

    def probe(self, state, patches):
        record_predictions(state, patches)

    def unit(self, state):
        state.predicted = []
        start = time.perf_counter()
        serial = trainer.evaluate(state.scorer, state.examples, state.domain, Grammar(), K)
        middle = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["eval", "--checkpoint", str(state.checkpoint),
                             "--data", str(state.test_path),
                             "--out", str(state.report_path), "--jobs", "2"])
        end = time.perf_counter()
        with open(state.report_path) as fh:
            pooled = json.load(fh)
        return Unit(2 * len(state.examples), end - start, serial,
                    latencies={"parse": [ms for ms, _ in state.predicted]},
                    predictions=predicted_programs(state, state.examples),
                    counts={"exit_code": code, "pooled": pooled},
                    times={"serial": middle - start, "jobs2": end - middle})

    def checks(self, state, units):
        yield from check_evaluate(state, units, [u.outputs for u in units])
        for u in units:
            pooled, serial = u.counts["pooled"], u.outputs
            if u.counts["exit_code"] != 0:
                yield "jobs2_exit_code", f"spansem eval --jobs 2 exited {u.counts['exit_code']}"
            elif (pooled["per_example"] != serial["per_example"]
                  or pooled["accuracy"] != serial["accuracy"]):
                yield "jobs2_matches_serial", "spansem eval --jobs 2 differs from serial evaluate"
            if serial["accuracy"] < MIN_EVAL_ACCURACY:
                yield ("scan_eval_accuracy",
                       f"accuracy {serial['accuracy']:.4f} is below {MIN_EVAL_ACCURACY}")

    def summary(self, state, units):
        n = len(state.examples)
        latencies = [ms for u in units for ms in u.latencies["parse"]]
        named = {"eval_utt_per_s": ([n / u.times["serial"] for u in units], "1/s"),
                 "eval_jobs2_utt_per_s": ([n / u.times["jobs2"] for u in units], "1/s"),
                 "parse_ms_p50": ([statistics.median(latencies)], "ms"),
                 "parse_ms_p99": ([percentile(latencies, 0.99)], "ms"),
                 "parse_samples": ([len(latencies)], "count"),
                 "no_parse_share": ([outcomes(units[0], state.domain)["no_parse"] / n], "share"),
                 "accuracy": ([units[0].outputs["accuracy"]], "share")}
        rates = [u.items / u.seconds for u in units]
        return statistics.median(rates), statistics.median(latencies), named


class GeoTernary:
    name = "geo-ternary"
    why = ("geo with the ternary grammar: ternary constrained E-step with real "
           "misses, dev-set early stopping, FunQL executor")

    def setup(self, seed, work_dir, tracer):
        with tracer.span("data.corpus"):
            kb = mini_kb()
            schema = geo_schema(kb)
            examples = [TrainExample(Utterance.from_text(text), parse_program(program, schema))
                        for text, program in mini_geo_corpus(kb)]
            # The split is the dataset's own (gen-data --seed 0): on 52
            # examples another split is another task.  The seed orders each
            # part, which reorders the training batches.
            parts = split_iid(examples, seed=0)
        rng = random.Random(seed)
        for part in parts:
            rng.shuffle(part)
        domain = Domain("geo", schema, lexicon_for(schema, geo_lexicon_entries()),
                        functools.partial(exec_funql, kb=kb))
        return SimpleNamespace(domain=domain, parts=parts)

    def probe(self, state, patches):
        record_estep(state, patches)
        record_predictions(state, patches)

    def unit(self, state):
        state.estep = []
        train, dev, test = state.parts
        start = time.perf_counter()
        result = trainer.train(train, dev, state.domain, GEO_CONFIG)
        seconds = time.perf_counter() - start
        state.predicted = []
        report = trainer.evaluate(result.scorer, test, state.domain, Grammar(ternary=True), K)
        return Unit(sum(h["used"] + h["skipped"] for h in result.history), seconds,
                    (result.history, report),
                    predictions=predicted_programs(state, test), estep=state.estep,
                    counts={"skipped": sum(h["skipped"] for h in result.history)})

    def checks(self, state, units):
        yield from check_estep(state, units)
        yield from check_evaluate(state, units, [u.outputs[1] for u in units])

    def summary(self, state, units):
        rate, per_example, named = training_summary(units)
        report = units[0].outputs[1]
        named.update(no_parse_share=([report["failures"] / len(report["per_example"])], "share"),
                     accuracy=([report["accuracy"]], "share"))
        return rate, per_example, named


WORKLOADS = {w.name: w for w in (ScanEM(), ScanEval(), GeoTernary())}
