"""Acceptance gate: end-to-end quality bars for the whole package.

Each test prints a single [PASS]/[FAIL] line (bypassing output capture)
naming the bar and the measured values.  The training runs are CPU-only
and take roughly fifteen minutes in total.
"""

import random
import time

import numpy as np
import pytest

from test_cky import anchored_table, oracle_best_score, random_table

from spansem.cky import Grammar, constrained_parse, parse_kbest
from spansem.core import JOIN, NOSEM, Utterance, all_spans
from spansem.data.geo import geo_schema
from spansem.data.scan import (
    exec_scan,
    generate_scan_sp,
    scan_lexicon_entries,
    scan_schema,
)
from spansem.data.splits import (
    program_template,
    program_token_length,
    split_iid,
    split_length,
    split_scan_primitive,
    split_template,
)
from spansem import scorer as scorer_module
from spansem.scorer import Lexicon, ScoreTable, SpanScorer, span_probability
from spansem.trainer import Domain, TrainConfig, TrainExample, evaluate, train
from spansem.typesys import parse_program
from test_data import reference_actions


@pytest.fixture
def announce(capsys):
    def _announce(name, ok, detail):
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        assert ok, f"{name}: {detail}"

    return _announce


@pytest.fixture(scope="module")
def corpus():
    return generate_scan_sp()


@pytest.fixture(scope="module")
def scan_domain():
    return Domain("scan", scan_schema(),
                  Lexicon.from_pairs(scan_lexicon_entries()), exec_scan)


@pytest.fixture(scope="module")
def scan_examples(corpus):
    return [TrainExample(e.utterance, e.program, e.tree, e.actions)
            for e in corpus]


@pytest.fixture(scope="module")
def iid_split(scan_examples):
    return split_iid(scan_examples, seed=0)


@pytest.fixture(scope="module")
def iid_run(iid_split, scan_domain):
    """Default-config training on the random split; shared by the accuracy
    and F1 bars."""
    tr, dv, te = iid_split
    result = train(tr, dv, scan_domain, TrainConfig(seed=0))
    report = evaluate(result.scorer, te, scan_domain, Grammar(), 5)
    return result, report


def run_split(examples, domain, kind):
    tr, dv, te = split_scan_primitive(
        examples, lambda ex: ex.utterance.tokens, kind, seed=0)
    result = train(tr, dv, domain, TrainConfig(seed=0))
    return evaluate(result.scorer, te, domain, Grammar(), 5)


def test_navigation_training_accuracy(announce, scan_examples, scan_domain,
                                      iid_split, iid_run):
    """Five training runs, each held to >= 0.95 test denotation accuracy:
    the random split, both compositional splits, gold-tree supervision,
    and training without any manual lexicon."""
    tr, dv, te = iid_split
    scores = {"iid": iid_run[1]["accuracy"]}
    scores["right"] = run_split(scan_examples, scan_domain, "right")["accuracy"]
    scores["aroundRight"] = run_split(scan_examples, scan_domain,
                                      "aroundRight")["accuracy"]

    gold = train(tr, dv, scan_domain,
                 TrainConfig(seed=0, use_gold_trees=True))
    scores["gold-trees"] = evaluate(gold.scorer, te, scan_domain,
                                    Grammar(), 5)["accuracy"]

    # Without the lexicon bonus the E-step only succeeds on short commands
    # at first, so train on a short-skewed subsample with a length
    # curriculum and no momentum; evaluation stays on the full test set.
    rng = random.Random(0)
    short = [e for e in tr if len(e.utterance) <= 5]
    longer = rng.sample([e for e in tr if len(e.utterance) > 5], 400)
    dev_small = rng.sample(dv, 150)
    bare = Domain(scan_domain.name, scan_domain.schema, None,
                  scan_domain.execute)
    no_lex = train(short + longer, dev_small, bare,
                   TrainConfig(lr=0.002, momentum=0.0, curriculum_epochs=4,
                               max_epochs=40, patience=30, seed=0))
    scores["no-lexicon"] = evaluate(no_lex.scorer, te, bare,
                                    Grammar(), 5)["accuracy"]

    detail = "  ".join(f"{k}={v:.4f}" for k, v in scores.items())
    announce("test denotation accuracy >= 0.95 on five training runs",
             all(v >= 0.95 for v in scores.values()), detail)


def test_gold_tree_span_f1(announce, iid_run):
    """Labeled-span F1 against generator gold trees on the held-out set."""
    f1 = iid_run[1]["f1"]
    announce("labeled-span F1 >= 0.98 on the random-split test set",
             f1 >= 0.98, f"f1={f1:.4f}")


def test_parser_matches_brute_force(announce):
    """Top-1 chart score equals exhaustive enumeration on 100 random
    tables with up to 7 tokens and 5 constants, for both grammars, in
    under a minute."""
    start = time.time()
    checked = 0
    for ternary in (False, True):
        rng = random.Random(5 if ternary else 4)
        for trial in range(100):
            n = rng.randint(1, 7)
            table = random_table(rng, n, n_constants=5)
            got = list(parse_kbest(table, Grammar(ternary=ternary), 5))[0].score
            want = oracle_best_score(table, ternary)
            assert got == pytest.approx(want), (ternary, trial)
            checked += 1
    elapsed = time.time() - start
    announce("K-best parser matches brute-force optimum",
             checked == 200 and elapsed < 60.0,
             f"{checked} trials in {elapsed:.1f}s")


def test_discontinuous_composition_needs_ternary(announce):
    """'State that has the most people ?' composes only when the
    three-child rule is available: the subject constant sits left of the
    predicate chain that consumes it."""
    schema = geo_schema()
    gold = parse_program("largest_one(pop_1(state(all)))", schema)
    anchors = {1: "state", 5: "largest_one", 6: "pop_1"}
    table = anchored_table(schema, 7, anchors)
    with_ternary = constrained_parse(table, Grammar(ternary=True), gold,
                                     schema)
    without = constrained_parse(table, Grammar(ternary=False), gold,
                                schema)
    ok = (with_ternary is not None and with_ternary.program == gold
          and any(len(node.children) == 3
                  for node in with_ternary.tree.nodes())
          and without is None)
    announce("discontinuous example parses only with the ternary rule",
             ok,
             f"ternary={'found' if with_ternary else 'none'} "
             f"binary={'found' if without else 'none'}")


def test_gradients_match_finite_differences(announce, monkeypatch):
    """Analytic gradients vs central differences, 1e-4 relative, at 10
    random coordinates for each of 5 random inputs, with the scorer's token
    and hidden widths patched to 6 and 10."""
    monkeypatch.setattr(scorer_module, "H_DIM", 6)
    monkeypatch.setattr(scorer_module, "HIDDEN", 10)
    cats = [NOSEM, JOIN, "walk", "r"]
    worst = 0.0
    for seed in range(5):
        scorer = SpanScorer(["walk", "right", "twice"], cats, lam=2.0, seed=seed)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        utt_tokens = rng.choice(["walk", "right", "twice", "zzz"], size=n)
        utt = Utterance.from_text(" ".join(utt_tokens))
        lex = Lexicon.from_pairs([("walk", "walk")])
        labels = rng.integers(0, len(cats), size=len(all_spans(n)))
        _, grads = scorer.loss_and_grads(scorer.score_spans([utt], lex), [labels])
        eps = 1e-5

        def probe(key, idx, delta):
            orig = scorer.params[key][idx]
            scorer.params[key][idx] = orig + delta
            table, = scorer.score_spans([utt], lex)
            loss, _ = scorer.loss_and_grads([table], [labels])
            scorer.params[key][idx] = orig
            return loss, table.cache["R"] > 0

        checked = 0
        while checked < 10:
            key = rng.choice(list(scorer.params))
            idx = tuple(rng.integers(0, d) for d in scorer.params[key].shape)
            up, mask_up = probe(key, idx, eps)
            down, mask_down = probe(key, idx, -eps)
            if not np.array_equal(mask_up, mask_down):
                # the perturbation crosses a rectifier kink, where the loss
                # is not differentiable and central differences are
                # meaningless; pick another coordinate
                continue
            checked += 1
            numeric = (up - down) / (2 * eps)
            analytic = grads[key][idx]
            if abs(numeric - analytic) < 1e-8:
                # near-zero gradients agree to absolute roundoff precision;
                # a relative comparison there only measures FD noise
                continue
            rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic))
            worst = max(worst, rel)
    announce("gradients match finite differences within 1e-4",
             worst < 1e-4, f"worst relative error {worst:.2e}")


def test_invariance_suite(announce, corpus, scan_examples):
    """Bundle of exact structural properties: probability normalization,
    score shifting, shift invariance of the ranking, split membership
    rules, and executor agreement with an independent interpreter."""
    failures = []

    cats = [NOSEM, JOIN, "a", "b"]
    rng = np.random.default_rng(0)
    raw = rng.normal(scale=20.0, size=(len(all_spans(4)), len(cats)))
    table = ScoreTable(4, cats, raw)

    nosem_col = table.cat_index[NOSEM]
    if not np.all(table.shifted[:, nosem_col] == 0.0):
        failures.append("shifted NoSem scores not identically zero")

    for span in table.spans:
        total = sum(span_probability(table, span, c) for c in cats)
        if abs(total - 1.0) >= 1e-9:
            failures.append(f"probabilities sum to {total} at {span}")
            break

    shifted_raw = raw + rng.normal(size=(raw.shape[0], 1))
    other = ScoreTable(4, cats, shifted_raw)
    before = list(parse_kbest(table, Grammar(), 5))
    after = list(parse_kbest(other, Grammar(), 5))
    if [r.tree for r in before] != [r.tree for r in after]:
        failures.append("per-span shifts changed the tree ranking")
    if not all(a.score == pytest.approx(b.score)
               for a, b in zip(before, after)):
        failures.append("per-span shifts changed tree scores")

    items = [(f"q{i}", prog) for i, prog in enumerate(
        ["capital(stateid('utah'))", "capital(stateid('ohio'))",
         "next_to_1(stateid('utah'))", "largest(state(all))",
         "count(next_to_1(stateid('ohio')))",
         "capital(loc_2(state(next_to_1(stateid('utah')))))"] * 4)]
    parts = split_template(items, lambda it: it[1], seed=0)
    templates = [{program_template(p) for _, p in part} for part in parts]
    if (templates[0] & templates[1]) or (templates[0] & templates[2]) \
            or (templates[1] & templates[2]):
        failures.append("template split leaks a template across sets")

    tr, dv, te = split_length(items, lambda it: it[1], seed=0)
    if te and (tr + dv) and max(program_token_length(p) for _, p in tr + dv) \
            > min(program_token_length(p) for _, p in te):
        failures.append("length split keeps a longest program out of test")

    for kind in ("right", "aroundRight"):
        a, b, c = split_scan_primitive(
            scan_examples, lambda ex: ex.utterance.tokens, kind, seed=0)
        for ex in a + b:
            toks = list(ex.utterance.tokens)
            if kind == "right" and "right" in toks \
                    and toks != ["turn", "right"]:
                failures.append("right split leaks a right command")
                break
            if kind == "aroundRight" and any(
                    x == "around" and y == "right"
                    for x, y in zip(toks, toks[1:])):
                failures.append("aroundRight split leaks the bigram")
                break

    agreed = sum(1 for ex in corpus
                 if exec_scan(ex.program) == reference_actions(
                     ex.utterance.tokens) == ex.actions)
    if agreed != len(corpus):
        failures.append(f"executor agreement {agreed}/{len(corpus)}")

    announce("invariance suite (normalization, shifting, splits, executor)",
             not failures, "; ".join(failures) or
             f"all checks hold, executor agreement {agreed}/{len(corpus)}")


def test_chart_work_scales_with_length(announce):
    """Seeded combination counts grow ~n^3 (binary) and ~n^4 (ternary):
    the 20-vs-10 token ratio must sit in [6, 10] and [12, 20], averaged
    over 20 random tables."""

    def mean_ratio(ternary):
        ratios = []
        for seed in range(20):
            counts = {}
            for n in (10, 20):
                rng = random.Random(seed * 100 + n)
                stats = {}
                parse_kbest(random_table(rng, n), Grammar(ternary=ternary),
                            5, stats)
                counts[n] = stats["combinations"]
            ratios.append(counts[20] / counts[10])
        return sum(ratios) / len(ratios)

    off, on = mean_ratio(False), mean_ratio(True)
    announce("chart combination growth matches the expected complexity",
             6.0 <= off <= 10.0 and 12.0 <= on <= 20.0,
             f"binary ratio {off:.2f} (band [6, 10]), "
             f"ternary ratio {on:.2f} (band [12, 20])")
