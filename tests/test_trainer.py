"""Hard-EM trainer: configuration checks, E-step behavior, evaluation
reports, and small end-to-end training runs on both domains."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from spansem import scorer as scorer_module, trainer
from spansem.cky import Grammar, ParseResult
from spansem.core import JOIN, SpanTree, Utterance, labeled_spans
from spansem.data.geo import (
    exec_funql,
    geo_lexicon_entries,
    geo_schema,
    mini_geo_corpus,
    mini_kb,
)
from spansem.data.scan import (
    exec_scan,
    generate_scan_sp,
    scan_lexicon_entries,
    scan_schema,
)
from spansem.data.splits import split_iid
from spansem.scorer import Lexicon, SpanScorer, tree_from_labels
from spansem.trainer import (
    ConfigError,
    Domain,
    TrainConfig,
    TrainExample,
    evaluate,
    hard_em_step,
    predict,
    target_labels,
    train,
    vocabulary,
)
from spansem.typesys import parse_program, program_of_tree


@pytest.fixture(scope="module")
def scan_domain():
    return Domain("scan", scan_schema(),
                  Lexicon.from_pairs(scan_lexicon_entries()), exec_scan)


@pytest.fixture(scope="module")
def scan_corpus(scan_domain):
    return [TrainExample(e.utterance, e.program, e.tree, e.actions)
            for e in generate_scan_sp(scan_domain.schema)]


@pytest.fixture(scope="module")
def short_examples(scan_corpus):
    """Commands of at most four tokens, shuffled with a fixed seed."""
    pool = [ex for ex in scan_corpus if len(ex.utterance) <= 4]
    random.Random(0).shuffle(pool)
    return pool


# --- configuration ----------------------------------------------------------


@pytest.mark.parametrize("bad", [
    dict(lr=0.0), dict(lr=-1.0), dict(batch_size=0), dict(max_epochs=0),
    dict(patience=0), dict(K=0), dict(lam=-0.5), dict(momentum=1.0),
    dict(momentum=-0.1), dict(curriculum_epochs=-1),
    dict(lr="fast"), dict(max_epochs=2.5), dict(batch_size=True),
    dict(ternary=1), dict(lam=float("nan")), dict(lam=float("inf")),
    dict(lr=float("nan")), dict(lr=float("inf")), dict(lam=10 ** 400),
    dict(seed=-1),
])
def test_config_rejects_bad_values(bad):
    with pytest.raises(ConfigError):
        TrainConfig(**bad).validate()


def test_config_defaults_are_valid():
    TrainConfig().validate()


def test_train_rejects_empty_training_set(scan_domain):
    with pytest.raises(ConfigError):
        train([], [], scan_domain, TrainConfig())


def test_vocabulary_is_sorted_union(short_examples):
    vocab = vocabulary(short_examples[:50])
    assert vocab == sorted(set(vocab))
    assert all(t in vocab for t in short_examples[0].utterance.tokens)


# --- domain wrapper ---------------------------------------------------------


def test_domain_run_swallows_executor_errors(scan_domain):
    assert scan_domain.run(None) is None
    assert scan_domain.run(scan_domain.schema.atom("turn")) is None  # ExecError
    walk = scan_domain.schema.atom("walk")
    assert scan_domain.run(walk) == ("WALK",)


# --- E-step -----------------------------------------------------------------


def fresh_scorer(examples, domain, config):
    return SpanScorer(vocabulary(examples), domain.schema.categories(),
                      lam=config.lam, seed=config.seed)


def test_target_labels_are_the_gold_trees_row_when_configured(scan_domain,
                                                              short_examples):
    config = TrainConfig(use_gold_trees=True)
    scorer = fresh_scorer(short_examples, scan_domain, config)
    ex = short_examples[0]
    table, = scorer.score_spans([ex.utterance], scan_domain.lexicon)
    assert np.array_equal(target_labels(scorer, table, ex, scan_domain, Grammar(), config),
                          scorer.labels_for_tree(ex.tree, table.n))


def test_target_labels_of_the_estep_rebuild_a_tree_of_the_gold_program(
        scan_domain, short_examples):
    config = TrainConfig()
    scorer = fresh_scorer(short_examples, scan_domain, config)
    for ex in short_examples[:10]:
        table, = scorer.score_spans([ex.utterance], scan_domain.lexicon)
        labels = target_labels(scorer, table, ex, scan_domain, Grammar(), config)
        assert labels is not None
        tree = tree_from_labels(labels, scorer.categories)
        assert program_of_tree(tree, scan_domain.schema) == ex.program
        assert np.array_equal(scorer.labels_for_tree(tree, table.n), labels)


def test_the_estep_path_builds_no_tree(scan_domain, scan_corpus, monkeypatch):
    """A hard-EM step hands the M-step the rows the E-step writes: no
    ``SpanTree`` is built for 60 commands, and reading an E-step result's
    ``tree`` is what builds one."""
    sample = random.Random(0).sample(scan_corpus, 60)
    config = TrainConfig()
    scorer = fresh_scorer(sample, scan_domain, config)
    built, results = [], []
    init, parse = SpanTree.__init__, trainer.constrained_parse

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def recorded(*args, **kwargs):
        results.append(parse(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(SpanTree, "__init__", counted)
    monkeypatch.setattr(trainer, "constrained_parse", recorded)
    for lo in range(0, 60, 5):
        _, used, _, _ = hard_em_step(scorer, sample[lo:lo + 5], scan_domain,
                                     Grammar(), config)
        assert used
    assert len(results) == 60 and built == []
    tree = next(r for r in results if r is not None).tree
    assert len(built) == sum(1 for _ in tree.nodes())


def test_evaluation_builds_no_tree(scan_domain, scan_corpus, monkeypatch):
    """Decoding returns label rows and the F1 counts compare rows: a model
    trained for one epoch on 300 gold trees evaluates 300 held-out commands
    of at most 9 tokens, with their gold trees, and no ``SpanTree`` is
    built, by ``predict`` or by anything else ``evaluate`` calls."""
    train_set, _, test_set = split_iid(scan_corpus, seed=1)
    rng = random.Random(1)
    config = TrainConfig(use_gold_trees=True, max_epochs=1)
    scorer = train(rng.sample(train_set, 300), [], scan_domain, config).scorer
    sample = rng.sample([ex for ex in test_set if len(ex.utterance) <= 9], 300)
    built, results = [], []
    init, inner = SpanTree.__init__, trainer.predict

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def recorded(*args, **kwargs):
        results.append(inner(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(SpanTree, "__init__", counted)
    monkeypatch.setattr(trainer, "predict", recorded)
    report = evaluate(scorer, sample, scan_domain, Grammar(), config.K)
    assert len(results) == 300 and built == []
    assert sum(r is not None for r in results) > 250 and report["f1"] > 0.5


def test_hard_em_step_skips_unparseable_examples(scan_domain, short_examples):
    # a one-token utterance cannot host the three constants of this program
    program = parse_program("and(walk, jump)", scan_domain.schema)
    impossible = TrainExample(Utterance.from_text("walk"), program)
    config = TrainConfig()
    scorer = fresh_scorer(short_examples, scan_domain, config)
    batch = [short_examples[0], impossible]
    loss, used, skipped, grads = hard_em_step(scorer, batch, scan_domain,
                                              Grammar(), config)
    assert (used, skipped) == (1, 1)
    assert loss > 0.0
    assert any(abs(g).sum() > 0 for g in grads.values())


def test_hard_em_step_gradients_are_averaged(scan_domain, short_examples):
    config = TrainConfig()
    scorer = fresh_scorer(short_examples, scan_domain, config)
    ex = short_examples[0]
    _, _, _, g1 = hard_em_step(scorer, [ex], scan_domain, Grammar(), config)
    _, _, _, g2 = hard_em_step(scorer, [ex, ex], scan_domain, Grammar(),
                               config)
    for key in g1:
        assert g1[key] == pytest.approx(g2[key])


@pytest.mark.skipif(not scorer_module.HEAP_KEPT_MAPPED,
                    reason="glibc's mallopt is not available")
def test_warm_hard_em_batches_fault_in_no_new_pages(scan_domain, scan_corpus):
    """With freed heap kept mapped, a batch's arrays reuse the pages of the
    batches before it: once 12 batches have warmed the process up, 36 more
    over the same 60 commands fault in fewer pages than there are batches
    (0 to 4 measured; about 420 per batch under glibc's dynamic
    thresholds)."""
    import resource

    sample = random.Random(0).sample(scan_corpus, 60)
    config = TrainConfig()
    scorer = fresh_scorer(sample, scan_domain, config)
    batches = [sample[lo:lo + 5] for lo in range(0, 60, 5)]
    for batch in batches:
        hard_em_step(scorer, batch, scan_domain, Grammar(), config)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for batch in batches * 3:
        hard_em_step(scorer, batch, scan_domain, Grammar(), config)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults <= len(batches) * 3  # under one per batch


# --- evaluation -------------------------------------------------------------


def test_momentum_steps_match_the_reference_update(scan_domain, short_examples,
                                                   monkeypatch):
    """Each step of ``train`` moves the parameters bit-identically to
    ``v = m * v + g`` and ``p = p - lr * v``, computed from the recorded
    batch gradients over new arrays."""
    config = TrainConfig(max_epochs=2, batch_size=4, momentum=0.5, lr=0.01)
    grads, params = [], []
    inner_step, inner_sgd = trainer.hard_em_step, trainer.sgd_step

    def recorded_step(*args):
        out = inner_step(*args)
        grads.append({k: g.copy() for k, g in out[3].items()} if out[1] else None)
        return out

    def recorded_sgd(p, v, lr):
        out = inner_sgd(p, v, lr)
        params.append({k: a.copy() for k, a in out.items()})
        return out

    monkeypatch.setattr(trainer, "hard_em_step", recorded_step)
    monkeypatch.setattr(trainer, "sgd_step", recorded_sgd)
    start = fresh_scorer(short_examples[:12], scan_domain, config).params
    train(short_examples[:12], [], scan_domain, config)
    steps = [g for g in grads if g is not None]
    assert len(steps) == len(params) >= 5
    want = {k: p.copy() for k, p in start.items()}
    velocity = {k: np.zeros_like(p) for k, p in start.items()}
    for g, got in zip(steps, params):
        velocity = {k: config.momentum * velocity[k] + g[k] for k in velocity}
        want = {k: want[k] - config.lr * velocity[k] for k in want}
        for key in want:
            assert got[key].tobytes() == want[key].tobytes(), key


def test_evaluate_report_shape(scan_domain, short_examples):
    config = TrainConfig()
    scorer = fresh_scorer(short_examples, scan_domain, config)
    report = evaluate(scorer, short_examples[:6], scan_domain, Grammar(),
                      config.K)
    assert set(report) == {"accuracy", "failures", "per_example", "f1"}
    assert 0.0 <= report["accuracy"] <= 1.0
    assert len(report["per_example"]) == 6
    record = report["per_example"][0]
    assert set(record) == {"utterance", "gold_program", "predicted_program",
                           "correct"}


def test_evaluate_counts_a_no_parse_as_a_miss(scan_domain, short_examples,
                                              monkeypatch):
    """A None prediction is a failure that stays in the accuracy
    denominator, and its gold spans count as F1 misses."""
    examples = short_examples[:3]
    scorer = fresh_scorer(short_examples, scan_domain, TrainConfig())

    def gold_except_first(scorer, utt, domain, grammar, K):
        ex = next(ex for ex in examples if ex.utterance == utt)
        row = tuple(scorer.labels_for_tree(ex.tree, len(utt)).tolist())
        return None if ex is examples[0] else ParseResult(
            row, 0.0, ex.program, scorer.categories)

    monkeypatch.setattr(trainer, "predict", gold_except_first)
    report = evaluate(scorer, examples, scan_domain, Grammar(), TrainConfig.K)
    assert report["accuracy"] == pytest.approx(2 / 3)
    assert report["failures"] == 1
    hits = sum(len(labeled_spans(ex.tree)) for ex in examples[1:])
    missed = len(labeled_spans(examples[0].tree))
    assert report["f1"] == pytest.approx(2 * hits / (2 * hits + missed))
    with pytest.raises(ValueError):
        evaluate(None, [], scan_domain, Grammar(), TrainConfig.K)


def test_evaluate_omits_f1_without_gold_trees(scan_domain, short_examples):
    config = TrainConfig()
    scorer = fresh_scorer(short_examples, scan_domain, config)
    stripped = [TrainExample(ex.utterance, ex.program, None, ex.denotation)
                for ex in short_examples[:4]]
    report = evaluate(scorer, stripped, scan_domain, Grammar(), config.K)
    assert "f1" not in report


# --- end-to-end training ----------------------------------------------------


def test_hard_em_training_fits_short_commands(scan_domain, short_examples):
    train_set, dev_set = short_examples[:80], short_examples[80:110]
    result = train(train_set, dev_set, scan_domain,
                   TrainConfig(max_epochs=10, patience=5, seed=0))
    assert result.best_dev_accuracy == 1.0
    assert result.history[-1]["dev_accuracy"] == 1.0
    assert result.history[0]["epoch"] == 0
    # the returned scorer generalizes to unseen short commands
    held_out = short_examples[110:130]
    report = evaluate(result.scorer, held_out, scan_domain, Grammar(),
                      TrainConfig.K)
    assert report["accuracy"] >= 0.9


def test_gold_tree_training_matches_hard_em_on_short_commands(
        scan_domain, short_examples):
    train_set, dev_set = short_examples[:80], short_examples[80:110]
    result = train(train_set, dev_set, scan_domain,
                   TrainConfig(max_epochs=10, patience=5, seed=0,
                               use_gold_trees=True))
    assert result.best_dev_accuracy == 1.0
    assert all(h["skipped"] == 0 for h in result.history)


def test_training_writes_jsonl_log(tmp_path, scan_domain, short_examples):
    import json

    log = tmp_path / "log.jsonl"
    result = train(short_examples[:30], short_examples[30:40], scan_domain,
                   TrainConfig(max_epochs=2, patience=5, seed=0),
                   log_path=log)
    lines = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(lines) == len(result.history)
    assert set(lines[0]) == {"epoch", "train_loss", "used", "skipped",
                             "dev_accuracy"}


def test_dev_gold_programs_execute_once_per_run(scan_domain, short_examples,
                                                monkeypatch):
    """Dev examples without a denotation get it once, before the first
    epoch: with every prediction a no-parse, the executor runs only on gold
    programs, once each however many epochs run."""
    calls = []

    def execute(program):
        calls.append(program)
        return exec_scan(program)

    domain = Domain("scan", scan_domain.schema, scan_domain.lexicon, execute)
    dev = [TrainExample(ex.utterance, ex.program)
           for ex in short_examples[20:26]]
    monkeypatch.setattr(trainer, "predict", lambda *args: None)
    result = train(short_examples[:20], dev, domain,
                   TrainConfig(max_epochs=3, patience=5, seed=0))
    assert len(result.history) == 3
    assert calls == [ex.program for ex in dev]


def test_early_stopping_keeps_best_parameters(scan_domain, short_examples):
    train_set, dev_set = short_examples[:60], short_examples[60:80]
    result = train(train_set, dev_set, scan_domain,
                   TrainConfig(max_epochs=10, patience=5, seed=0))
    report = evaluate(result.scorer, dev_set, scan_domain, Grammar(),
                      TrainConfig.K)
    assert report["accuracy"] == pytest.approx(result.best_dev_accuracy)


def test_training_without_a_dev_set_keeps_the_last_epoch(scan_domain,
                                                         short_examples):
    """With no dev examples nothing stops training early, and the scorer
    carries the last epoch's parameters, not the first's."""
    config = TrainConfig(max_epochs=4, patience=1, seed=0)
    result = train(short_examples[:20], [], scan_domain, config)
    assert [h["epoch"] for h in result.history] == [0, 1, 2, 3]
    assert result.best_epoch == 3
    first = train(short_examples[:20], [], scan_domain,
                  TrainConfig(max_epochs=1, patience=1, seed=0))
    assert any((result.scorer.params[k] != first.scorer.params[k]).any()
               for k in first.scorer.params)


def test_training_without_a_dev_set_reports_no_dev_accuracy(
        tmp_path, scan_domain, short_examples):
    """A run with no dev examples has no dev accuracy: the history and the
    log record null, not 0.0, and so does the result."""
    import json

    log = tmp_path / "log.jsonl"
    result = train(short_examples[:20], [], scan_domain,
                   TrainConfig(max_epochs=2, seed=0), log_path=log)
    assert result.best_dev_accuracy is None
    assert [h["dev_accuracy"] for h in result.history] == [None, None]
    lines = [json.loads(line) for line in log.read_text().splitlines()]
    assert [line["dev_accuracy"] for line in lines] == [None, None]


def test_train_stops_when_a_parameter_norm_overflows(scan_domain,
                                                     short_examples):
    """A step size of 1e308 on 80 commands of at most four tokens leaves
    every parameter finite, each array peaking near 1e307, and every batch
    loss finite, but no squared norm fits in a double: train refuses the
    run after the epoch instead of returning it."""
    with np.errstate(all="ignore"), pytest.raises(ConfigError) as raised:
        train(short_examples[:80], [], scan_domain,
              TrainConfig(lr=1e308, max_epochs=1))
    assert str(raised.value) == (
        "parameter emb, mix0_W, mix0_b, mix1_W, mix1_b, W1, W2 diverged (its "
        "norm overflows) after epoch 0; lower lr")


class NaNJoinScorer(SpanScorer):
    """A fresh scorer whose Join row of ``W2`` is NaN: every span's Join
    score is NaN and every other score is finite."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.params["W2"][self.cat_index[JOIN]] = np.nan


def test_a_nan_join_column_stops_training_on_the_batch_loss(
        scan_domain, short_examples, monkeypatch):
    """A NaN Join column makes E-step scores NaN but removes no item: the
    E-step still finds a tree for each of 5 commands, their batch loss is
    NaN, and train stops on it before the first step is taken."""
    config = TrainConfig()
    batch = short_examples[:5]
    scorer = NaNJoinScorer(vocabulary(batch), scan_domain.schema.categories(),
                           lam=config.lam, seed=config.seed)
    with np.errstate(all="ignore"):
        loss, used, skipped, _ = hard_em_step(scorer, batch, scan_domain,
                                              Grammar(), config)
    assert math.isnan(loss) and (used, skipped) == (5, 0)
    monkeypatch.setattr(trainer, "SpanScorer", NaNJoinScorer)
    with np.errstate(all="ignore"), pytest.raises(ConfigError) as raised:
        train(batch, [], scan_domain, config)
    assert str(raised.value) == "non-finite loss at epoch 0, batch 0; lower lr"


def test_geo_training_on_simple_questions():
    kb = mini_kb()
    schema = geo_schema(kb)
    lexicon = Lexicon.from_pairs(geo_lexicon_entries()).merged_with(
        Lexicon.from_entity_lexicon(schema.entity_lexicon))
    domain = Domain("geo", schema, lexicon, lambda z: exec_funql(z, kb))
    simple = [it for it in mini_geo_corpus(kb) if it[1].count("(") <= 2][:20]
    examples = []
    for text, program_text in simple:
        program = parse_program(program_text, schema)
        examples.append(TrainExample(Utterance.from_text(text), program,
                                     denotation=exec_funql(program, kb)))
    result = train(examples, examples[:8], domain,
                   TrainConfig(lr=0.0005, momentum=0.0, max_epochs=25,
                               patience=20, seed=0))
    assert result.best_dev_accuracy == 1.0
    ex = examples[0]
    parsed = predict(result.scorer, ex.utterance, domain, Grammar(), 5)
    assert parsed is not None
    assert domain.run(parsed.program) == ex.denotation


def test_compiled_charts_are_invisible_and_live_on_the_schema(monkeypatch):
    """The E-step's compiled charts live on the schema's composition table
    and change nothing: a 3-epoch geo run with the ternary grammar gives
    the same history, parameters and E-step results (tree ``repr`` and
    score ``repr``) from a cold schema, from the same schema warm and with
    every chart compiled afresh for its call, and its first epoch is a
    one-epoch run's.  Each (length, gold
    template, grammar) is compiled once per schema, the first time an
    example needs it, and never again by later epochs or runs, and
    ``DomainSchema.add`` clears the charts."""
    import numpy as np

    from spansem import cky
    from spansem.typesys import DomainConstant

    kb = mini_kb()
    schema = geo_schema(kb)
    lexicon = Lexicon.from_pairs(geo_lexicon_entries()).merged_with(
        Lexicon.from_entity_lexicon(schema.entity_lexicon))
    domain = Domain("geo", schema, lexicon, lambda z: exec_funql(z, kb))
    examples = [TrainExample(Utterance.from_text(text), parse_program(p, schema))
                for text, p in mini_geo_corpus(kb)][:24]
    config = TrainConfig(lr=0.0005, momentum=0.0, ternary=True, max_epochs=3,
                         seed=0)
    parse, compile_ = trainer.constrained_parse, cky._compile
    esteps, compiled = [], []

    def recorded(table, grammar, gold, schema, *args, **kwargs):
        if afresh:
            schema.table.charts.clear()
        result = parse(table, grammar, gold, schema, *args, **kwargs)
        esteps.append(None if result is None else
                      (repr(result.tree), repr(result.score)))
        return result

    def counted(n, grammar, template, schema):
        compiled.append((n, schema.table.intern(template), grammar.ternary))
        return compile_(n, grammar, template, schema)

    monkeypatch.setattr(trainer, "constrained_parse", recorded)
    monkeypatch.setattr(cky, "_compile", counted)
    afresh, runs = False, []
    for run in ("cold", "warm", "afresh", "one epoch"):
        afresh, esteps, compiled = run == "afresh", [], []
        result = train(examples, [], domain,
                       replace(config, max_epochs=1) if run == "one epoch" else config)
        runs.append((result.history,
                     {k: v.copy() for k, v in result.scorer.params.items()},
                     esteps, compiled))
        if run == "cold":
            table = schema.table
            keys = {(len(ex.utterance), table.template(table.intern(ex.program))[0],
                     True) for ex in examples}
            # once per (length, template, grammar), however many epochs read it
            assert sorted(compiled) == sorted(keys) == sorted(table.charts)
            assert len(keys) < len({(len(ex.utterance), str(ex.program))
                                    for ex in examples})
    (history, params, cold_esteps, _), warm, fresh, one = runs
    assert len(history) == 3 and history[0]["used"]
    assert len(cold_esteps) == 3 * len(examples) and any(cold_esteps)
    for run in (warm, fresh):
        assert run[0] == history and run[2] == cold_esteps
        assert run[1].keys() == params.keys()
        assert all(np.array_equal(run[1][k], params[k]) for k in params)
    assert warm[3] == []
    assert one[0] == history[:1] and one[2] == cold_esteps[:len(examples)]
    assert schema.table.charts
    schema.add(DomainConstant("riverid('test')", "entity", "river"))
    assert schema.table.charts == {}
