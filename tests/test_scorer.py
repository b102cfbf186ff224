"""Span scorer: forward behavior, invariances, and gradient correctness."""

import random
import re
import types

import numpy as np
import pytest

from spansem.cky import Grammar, constrained_parse
from spansem.core import (
    JOIN,
    NOSEM,
    Span,
    SpanTree,
    Utterance,
    all_spans,
    span_map,
    validate_tree,
)
from spansem.data.geo import geo_lexicon_entries, geo_schema, mini_geo_corpus, mini_kb
from spansem.data.scan import generate_scan_sp, scan_lexicon_entries, scan_schema
from spansem import scorer as scorer_module
from spansem.scorer import (
    DimensionMismatch,
    Lexicon,
    ScoreTable,
    SpanScorer,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    span_probability,
    tree_from_labels,
    tree_loss,
)
from spansem.typesys import parse_program

CATS = [NOSEM, JOIN, "walk", "r"]


@pytest.fixture
def tiny_scorer(monkeypatch):
    """Scorers over a three-word vocabulary at small sizes: the module's
    token width and hidden width are 6 and 10 for the test."""
    monkeypatch.setattr(scorer_module, "H_DIM", 6)
    monkeypatch.setattr(scorer_module, "HIDDEN", 10)
    return lambda **kw: SpanScorer(["walk", "right", "twice"], CATS, **kw)


def test_score_table_shapes_and_shift():
    rng = np.random.default_rng(0)
    raw = rng.normal(size=(6, 4))
    table = ScoreTable(3, CATS, raw)
    nosem_idx = table.cat_index[NOSEM]
    assert np.allclose(table.shifted[:, nosem_idx], 0.0)
    assert table.shifted[table.row_of[1][2], table.cat_index[JOIN]] == \
        pytest.approx(raw[table.row_of[1][2], 1] - raw[table.row_of[1][2], 0])


def test_score_table_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        ScoreTable(3, CATS, np.zeros((5, 4)))


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(1)
    table = ScoreTable(3, CATS, rng.normal(scale=30.0, size=(6, 4)))
    for span in table.spans:
        total = sum(span_probability(table, span, c) for c in CATS)
        assert abs(total - 1.0) < 1e-9


def test_probability_shift_invariance():
    rng = np.random.default_rng(2)
    raw = rng.normal(size=(6, 4))
    shifted = raw + rng.normal(size=(6, 1))  # per-span constant shift
    t1, t2 = ScoreTable(3, CATS, raw), ScoreTable(3, CATS, shifted)
    for span in t1.spans:
        for c in CATS:
            assert span_probability(t1, span, c) == \
                pytest.approx(span_probability(t2, span, c))
    assert np.allclose(t1.shifted, t2.shifted)


def test_scorer_is_deterministic_per_seed(tiny_scorer):
    a = tiny_scorer(seed=3)
    b = tiny_scorer(seed=3)
    utt = Utterance.from_text("walk right")
    assert np.array_equal(a.score_spans([utt])[0].raw, b.score_spans([utt])[0].raw)
    c = tiny_scorer(seed=4)
    assert not np.array_equal(a.score_spans([utt])[0].raw, c.score_spans([utt])[0].raw)


def test_encoder_is_context_sensitive(tiny_scorer):
    scorer = tiny_scorer()
    h1, _ = scorer.encode([Utterance.from_text("walk right")])
    h2, _ = scorer.encode([Utterance.from_text("walk twice")])
    # same first token, different context vector
    assert not np.allclose(h1[0], h2[0])


def test_unknown_tokens_map_to_unk(tiny_scorer):
    scorer = tiny_scorer()
    ids = scorer.token_ids(Utterance.from_text("walk sideways"))
    assert ids[1] == 0 and ids[0] != 0


def test_lexicon_bonus_is_additive(tiny_scorer):
    lam = 5.0
    scorer = tiny_scorer(lam=lam)
    utt = Utterance.from_text("walk right")
    lex = Lexicon.from_pairs([("walk", "walk"), ("right", "r")])
    plain, = scorer.score_spans([utt], None)
    boosted, = scorer.score_spans([utt], lex)
    w = plain.cat_index["walk"]
    r = plain.cat_index["r"]
    s11 = plain.row_of[1][1]
    s22 = plain.row_of[2][2]
    assert boosted.raw[s11, w] == pytest.approx(plain.raw[s11, w] + lam)
    assert boosted.raw[s22, r] == pytest.approx(plain.raw[s22, r] + lam)
    # no bonus elsewhere
    assert boosted.raw[s11, r] == pytest.approx(plain.raw[s11, r])


def test_lexicon_round_trip(tmp_path):
    lex = Lexicon.from_pairs([("new york", "stateid('new york')"),
                              ("walk", "walk")])
    path = tmp_path / "lex.tsv"
    lex.save_tsv(path)
    again = Lexicon.load_tsv(path)
    assert again.entries == lex.entries
    merged = lex.merged_with(Lexicon.from_pairs([("walk", "run")]))
    assert merged.entries["walk"] == {"walk", "run"}


def test_lexicon_builders_agree_with_from_pairs():
    """``from_entity_lexicon`` and ``merged_with`` give the entries that
    ``from_pairs`` gives over the same pairs."""
    entity = {"new york": {"stateid('new york')", "cityid('new york')"},
              "utah": {"stateid('utah')"}}
    pairs = [(phrase, name) for phrase, names in entity.items() for name in names]
    assert Lexicon.from_entity_lexicon(entity).entries == Lexicon.from_pairs(pairs).entries
    manual = [("Walk", "run"), ("walk", "walk"), ("utah", "stateid('utah')")]
    merged = Lexicon.from_pairs(pairs).merged_with(Lexicon.from_pairs(manual))
    assert merged.entries == Lexicon.from_pairs(pairs + manual).entries
    assert merged.entries["walk"] == {"walk", "run"}  # phrases are lowercased


def gold_tree():
    return SpanTree(Span(1, 2), JOIN, (
        SpanTree(Span(1, 1), "walk"),
        SpanTree(Span(2, 2), "r"),
    ))


def test_uniform_tree_loss_value():
    """With all-equal scores the NLL is (#spans) * log |C|."""
    table = ScoreTable(2, CATS, np.zeros((3, 4)))
    expected = 3 * np.log(len(CATS))
    assert tree_loss(table, gold_tree()) == pytest.approx(expected)


def test_loss_and_grads_matches_tree_loss(tiny_scorer):
    scorer = tiny_scorer()
    utt = Utterance.from_text("walk right")
    labels = scorer.labels_for_tree(gold_tree(), 2)
    table, = scorer.score_spans([utt])
    loss, _ = scorer.loss_and_grads([table], [labels])
    assert loss == pytest.approx(tree_loss(table, gold_tree()))


@pytest.mark.parametrize("seed", range(5))
def test_gradients_match_finite_differences(seed, tiny_scorer):
    """Central differences at random coordinates, 1e-4 relative error."""
    scorer = tiny_scorer(seed=seed, lam=2.0)
    utt = Utterance.from_text("walk right twice")
    lex = Lexicon.from_pairs([("walk", "walk")])
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, len(CATS), size=len(all_spans(3)))

    _, grads = scorer.loss_and_grads(scorer.score_spans([utt], lex), [labels])
    eps = 1e-5  # large enough that roundoff stays below the 1e-4 gate
    for _ in range(10):
        key = rng.choice(list(scorer.params))
        idx = tuple(rng.integers(0, d) for d in scorer.params[key].shape)
        orig = scorer.params[key][idx]
        scorer.params[key][idx] = orig + eps
        up, _ = scorer.loss_and_grads(scorer.score_spans([utt], lex), [labels])
        scorer.params[key][idx] = orig - eps
        down, _ = scorer.loss_and_grads(scorer.score_spans([utt], lex), [labels])
        scorer.params[key][idx] = orig
        numeric = (up - down) / (2 * eps)
        analytic = grads[key][idx]
        denom = max(abs(numeric), abs(analytic), 1e-8)
        assert abs(numeric - analytic) / denom < 1e-4, (key, idx)


def test_sgd_step_moves_against_gradient(tiny_scorer):
    scorer = tiny_scorer()
    utt = Utterance.from_text("walk right")
    labels = scorer.labels_for_tree(gold_tree(), 2)
    loss0, grads = scorer.loss_and_grads(scorer.score_spans([utt]), [labels])
    scorer.params = sgd_step(scorer.params, grads, 0.01)
    loss1, _ = scorer.loss_and_grads(scorer.score_spans([utt]), [labels])
    assert loss1 < loss0


def test_sgd_step_in_place_matches_the_reference_update(tiny_scorer):
    """Over several steps, ``sgd_step`` leaves each parameter bit-identical
    to ``p - lr * g``, updating the arrays it was given; the dict it
    returns is new, and a table scored before the step is refused."""
    scorer = tiny_scorer(seed=5)
    utt = Utterance.from_text("walk right")
    labels = scorer.labels_for_tree(gold_tree(), 2)
    want = {k: v.copy() for k, v in scorer.params.items()}
    for _ in range(4):
        table, = scorer.score_spans([utt])
        _, grads = scorer.loss_and_grads([table], [labels])
        want = {k: want[k] - 0.05 * grads[k] for k in want}
        arrays = dict(scorer.params)
        params = sgd_step(scorer.params, grads, 0.05)
        assert params is not scorer.params
        assert all(params[k] is arrays[k] for k in arrays)
        scorer.params = params
        for key in want:
            assert params[key].tobytes() == want[key].tobytes(), key
        with pytest.raises(ValueError, match="not scored with"):
            scorer.loss_and_grads([table], [labels])


def test_loss_and_grads_reads_the_scored_table(tiny_scorer):
    """The table carries the forward it was scored with: its raw scores and
    activations equal a fresh ``score_spans`` under the same parameters,
    and so do its loss and gradients, bit for bit, though another utterance
    was scored in between."""
    scorer = tiny_scorer(seed=3, lam=2.0)
    utt = Utterance.from_text("walk right twice")
    lex = Lexicon.from_pairs([("walk", "walk"), ("right twice", "r")])
    labels = np.random.default_rng(3).integers(0, len(CATS), len(all_spans(3)))
    table, = scorer.score_spans([utt], lex)
    scorer.score_spans([Utterance.from_text("twice walk")], lex)
    fresh, = scorer.score_spans([utt], lex)
    assert np.array_equal(table.raw, fresh.raw)
    assert np.array_equal(table.cache["R"], fresh.cache["R"])
    loss, grads = scorer.loss_and_grads([table], [labels])
    fresh_loss, fresh_grads = scorer.loss_and_grads([fresh], [labels])
    assert loss == fresh_loss
    for key in grads:
        assert np.array_equal(grads[key], fresh_grads[key]), key


def test_loss_and_grads_rejects_a_table_of_other_parameters(tiny_scorer):
    scorer = tiny_scorer()
    utt = Utterance.from_text("walk right")
    labels = scorer.labels_for_tree(gold_tree(), 2)
    table, = scorer.score_spans([utt])
    _, grads = scorer.loss_and_grads([table], [labels])
    scorer.params = sgd_step(scorer.params, grads, 0.01)
    with pytest.raises(ValueError, match="not scored with"):
        scorer.loss_and_grads([table], [labels])
    with pytest.raises(ValueError, match="not scored with"):
        scorer.loss_and_grads([ScoreTable(2, CATS, table.raw)], [labels])


def test_lexicon_matches_are_memoized_and_add_clears_them(tiny_scorer):
    scorer = tiny_scorer()
    lex = Lexicon.from_pairs([("walk", "walk"), ("Right twice", "r")])
    utt = Utterance.from_text("walk right twice walk")
    hits = lex.matches(utt.tokens)
    assert lex.matches(utt.tokens) is hits
    lex.add("walk", "r")
    assert lex.matches(utt.tokens) is not hits
    delta = scorer.lexicon_delta(utt, lex)
    want = np.zeros_like(delta)
    for row, span in enumerate(all_spans(len(utt))):
        for name in lex.entries.get(utt.phrase(span).lower(), ()):
            want[row, CATS.index(name)] = 1.0
    assert np.array_equal(delta, want) and want.sum() == 5


def test_checkpoint_round_trip(tmp_path, tiny_scorer):
    scorer = tiny_scorer(seed=9, lam=3.0)
    path = tmp_path / "model.npz"
    save_checkpoint(scorer, path, extra={"note": "x"})
    again, extra = load_checkpoint(path)
    assert extra == {"note": "x"}
    utt = Utterance.from_text("walk right twice")
    assert np.array_equal(scorer.score_spans([utt])[0].raw,
                          again.score_spans([utt])[0].raw)


@pytest.mark.parametrize("lam, message", [
    ("x", "lam must be a float, not 'x'"), (None, "lam must be a float, not None"),
    (True, "lam must be a float, not True"),
    (float("nan"), "lam must be finite, not nan"),
    (float("-inf"), "lam must be finite, not -inf"), (10 ** 400, "lam must be finite"),
    (-0.5, "lam must be nonnegative")])
def test_checkpoint_with_a_bad_lam_is_refused(tmp_path, tiny_scorer, lam, message):
    """``load_checkpoint`` checks the recorded ``lam`` as
    ``TrainConfig.validate`` does, so no caller gets an unchecked one."""
    scorer = tiny_scorer()
    scorer.lam = lam
    path = tmp_path / "model.npz"
    save_checkpoint(scorer, path)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        load_checkpoint(path)
    scorer.lam = 0
    save_checkpoint(scorer, path)
    assert load_checkpoint(path)[0].lam == 0


def test_heap_tuning_sets_both_thresholds(monkeypatch):
    calls = []
    libc = types.SimpleNamespace(mallopt=lambda *args: calls.append(args) or 1)
    monkeypatch.setattr(scorer_module.ctypes, "CDLL", lambda name: libc)
    assert scorer_module._keep_freed_heap_mapped() is True
    assert calls == [(-3, 4 << 20), (-1, 64 << 20)]


@pytest.mark.parametrize("libc", ["unloadable", "without mallopt"])
def test_heap_tuning_is_a_no_op_without_mallopt(monkeypatch, libc):
    """Where libc cannot be loaded or has no ``mallopt`` (not glibc), the
    tuning raises nothing and reports that it tuned nothing."""
    def cdll(name):
        if libc == "unloadable":
            raise OSError("no libc")
        return types.SimpleNamespace()

    monkeypatch.setattr(scorer_module.ctypes, "CDLL", cdll)
    assert scorer_module._keep_freed_heap_mapped() is False


@pytest.mark.parametrize("label", [JOIN, NOSEM])
def test_a_lexicon_match_naming_a_reserved_label_is_refused(label, tiny_scorer):
    scorer = tiny_scorer()
    lex = Lexicon.from_pairs([("walk", "walk"), ("Right twice", label)])
    with pytest.raises(ValueError, match=f"'right twice' names the reserved "
                                         f"label '{label}'"):
        scorer.score_spans([Utterance.from_text("walk right twice")], lex)


# --- batches ----------------------------------------------------------------


@pytest.fixture(scope="module")
def domains():
    """Per domain: a full-size scorer over its vocabulary, its lexicon, its
    utterances and its schema."""
    out = {}
    schema = scan_schema()
    utts = [e.utterance for e in generate_scan_sp(schema)]
    out["scan"] = (schema, Lexicon.from_pairs(scan_lexicon_entries()), utts)
    kb = mini_kb()
    schema = geo_schema(kb)
    lexicon = Lexicon.from_entity_lexicon(schema.entity_lexicon).merged_with(
        Lexicon.from_pairs(geo_lexicon_entries()))
    out["geo"] = (schema, lexicon,
                  [Utterance.from_text(text) for text, _ in mini_geo_corpus(kb)])
    return {name: (SpanScorer(sorted({t for u in utts for t in u.tokens}),
                              schema.categories(), seed=5), lexicon, utts, schema)
            for name, (schema, lexicon, utts) in out.items()}


def mixed_batch(utts, seed):
    """One utterance per length 1..9, each a prefix of a corpus utterance."""
    rng = random.Random(seed)
    batch = [Utterance("", rng.choice([u for u in utts if len(u) >= n]).tokens[:n])
             for n in range(1, 10)]
    rng.shuffle(batch)
    return batch


@pytest.mark.parametrize("name", ["scan", "geo"])
def test_a_batch_scores_and_backpropagates_as_its_members_alone(domains, name):
    """The tables share the scorer's category list and index.  Scores match
    each member scored alone up to GEMM rounding, with the same argmax per
    span; the loss and gradients are those of the labelled members alone,
    summed, and a member labelled None adds nothing."""
    scorer, lexicon, utts, _ = domains[name]
    batch = mixed_batch(utts, seed=1)
    rng = np.random.default_rng(1)
    labels = [rng.integers(0, len(scorer.categories), len(all_spans(len(u))))
              for u in batch]
    labels[4] = None
    tables = scorer.score_spans(batch, lexicon)
    assert all(t.categories is scorer.categories and t.cat_index is scorer.cat_index
               for t in tables)
    loss, grads = scorer.loss_and_grads(tables, labels)
    members = []
    for utt, table, rows in zip(batch, tables, labels):
        alone, = scorer.score_spans([utt], lexicon)
        assert table.n == len(utt)
        assert np.allclose(table.raw, alone.raw, rtol=0.0, atol=1e-12)
        assert np.array_equal(table.raw.argmax(axis=1), alone.raw.argmax(axis=1))
        if rows is not None:
            members.append(scorer.loss_and_grads([alone], [rows]))
    want_loss = sum(member_loss for member_loss, _ in members)
    assert loss == pytest.approx(want_loss, rel=1e-12, abs=0.0)
    assert grads.keys() == scorer.params.keys()
    for key in grads:
        want = sum(member_grads[key] for _, member_grads in members)
        assert np.allclose(grads[key], want, rtol=1e-10, atol=1e-13), key
    none_loss, none_grads = scorer.loss_and_grads(tables, [None] * len(tables))
    assert none_loss == 0.0
    assert not any(g.any() for g in none_grads.values())


def test_batch_gradients_match_finite_differences(tiny_scorer):
    """Central differences of a 3-example batch loss, one example labelled
    None, at random coordinates; 1e-4 relative error."""
    scorer = tiny_scorer(seed=2, lam=2.0)
    lex = Lexicon.from_pairs([("walk", "walk")])
    batch = [Utterance.from_text(t) for t in ("walk right twice", "twice", "right walk")]
    rng = np.random.default_rng(2)
    labels = [rng.integers(0, len(CATS), size=len(all_spans(len(u)))) for u in batch]
    labels[1] = None

    _, grads = scorer.loss_and_grads(scorer.score_spans(batch, lex), labels)
    eps = 1e-5  # large enough that roundoff stays below the 1e-4 gate
    for _ in range(10):
        key = rng.choice(list(scorer.params))
        idx = tuple(rng.integers(0, d) for d in scorer.params[key].shape)
        orig = scorer.params[key][idx]
        scorer.params[key][idx] = orig + eps
        up, _ = scorer.loss_and_grads(scorer.score_spans(batch, lex), labels)
        scorer.params[key][idx] = orig - eps
        down, _ = scorer.loss_and_grads(scorer.score_spans(batch, lex), labels)
        scorer.params[key][idx] = orig
        numeric = (up - down) / (2 * eps)
        analytic = grads[key][idx]
        denom = max(abs(numeric), abs(analytic), 1e-8)
        assert abs(numeric - analytic) / denom < 1e-4, (key, idx)


def test_loss_and_grads_takes_the_tables_of_one_call_in_order(tiny_scorer):
    scorer = tiny_scorer()
    batch = [Utterance.from_text(t) for t in ("walk right", "twice walk right")]
    labels = [np.zeros(len(all_spans(len(u))), dtype=int) for u in batch]
    tables = scorer.score_spans(batch)
    other = scorer.score_spans(batch)
    for mixed in ([tables[0], other[1]], tables[::-1], tables[:1], []):
        with pytest.raises(ValueError, match="one score_spans call"):
            scorer.loss_and_grads(mixed, labels[:len(mixed)])
    _, grads = scorer.loss_and_grads(tables, labels)
    scorer.params = sgd_step(scorer.params, grads, 0.01)
    with pytest.raises(ValueError, match="not scored with"):
        scorer.loss_and_grads(tables, labels)


@pytest.mark.parametrize("name", ["scan", "geo"])
def test_labels_for_tree_matches_the_span_map(domains, name):
    """On a 300-example scan sample with its gold trees, and on the geo
    corpus with the ternary E-step's trees over random scores."""
    scorer, _, _, schema = domains[name]
    if name == "scan":
        trees = [(e.tree, len(e.utterance)) for e in
                 random.Random(0).sample(generate_scan_sp(schema), 300)]
    else:
        rng = np.random.default_rng(0)
        trees = []
        for text, program in mini_geo_corpus(mini_kb()):
            n = len(Utterance.from_text(text))
            table = ScoreTable(n, scorer.categories, rng.normal(
                0, 2, (len(all_spans(n)), len(scorer.categories))))
            result = constrained_parse(table, Grammar(ternary=True),
                                       parse_program(program, schema), schema)
            if result is not None:
                trees.append((result.tree, n))
        assert len(trees) > 40
    for tree, n in trees:
        mapping = span_map(tree, n)
        want = [scorer.cat_index[mapping[s]] for s in all_spans(n)]
        assert scorer.labels_for_tree(tree, n).tolist() == want


def legal_trees(n, ternary, constant):
    """Every grammar-legal tree over ``n`` tokens, by literal enumeration,
    each leaf's constant drawn by ``constant()``."""
    def join(i, j):
        out = [SpanTree(Span(i, j), constant())]
        for k in range(i, j):
            for a in join(i, k):
                out.append(SpanTree(Span(i, j), JOIN, (a, SpanTree(Span(k + 1, j), NOSEM))))
                out.extend(SpanTree(Span(i, j), JOIN, (a, b)) for b in join(k + 1, j))
        if ternary:
            for s1 in range(i, j - 1):
                for s2 in range(s1 + 1, j):
                    out.extend(SpanTree(Span(i, j), JOIN, (a, b, c))
                               for a in join(i, s1) for b in join(s1 + 1, s2)
                               for c in join(s2 + 1, j))
        return out

    return join(1, n) + [SpanTree(Span(1, n), JOIN, (SpanTree(Span(1, k), NOSEM), b))
                         for k in range(1, n) for b in join(k + 1, n)]


@pytest.mark.parametrize("ternary, longest", [(False, 5), (True, 4)])
def test_every_legal_tree_is_rebuilt_from_its_label_row(tiny_scorer, ternary, longest):
    """``tree_from_labels`` inverts ``labels_for_tree`` on every
    grammar-legal tree with random constants: 285 binary trees at n = 5."""
    scorer = tiny_scorer()
    rng = random.Random(41)
    counts = []
    for n in range(1, longest + 1):
        trees = legal_trees(n, ternary, lambda: rng.choice(["walk", "r"]))
        counts.append(len(trees))
        for tree in trees:
            validate_tree(tree, n, ternary=ternary)
            assert tree_from_labels(scorer.labels_for_tree(tree, n), CATS) == tree
    assert counts == ([1, 4, 15, 62, 285] if not ternary else [1, 4, 16, 75])


def test_an_empty_utterance_scores_to_an_empty_table(tiny_scorer):
    scorer = tiny_scorer()
    batch = [Utterance.from_text("walk right"), Utterance("", ())]
    labels = [np.zeros(3, dtype=int), np.zeros(0, dtype=int)]
    tables = scorer.score_spans(batch)
    assert tables[1].raw.shape == (0, len(CATS))
    loss, grads = scorer.loss_and_grads(tables, labels)
    alone = scorer.loss_and_grads(scorer.score_spans(batch[:1]), labels[:1])
    assert loss == pytest.approx(alone[0])
    for key in grads:
        assert np.allclose(grads[key], alone[1][key], rtol=1e-10, atol=1e-13), key
