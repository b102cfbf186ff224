"""Span scorer: forward behavior, invariances, and gradient correctness."""

import numpy as np
import pytest

from spansem.core import Category, Span, SpanTree, Utterance, all_spans
from spansem.scorer import (
    DimensionMismatch,
    Lexicon,
    ScoreTable,
    SpanScorer,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    span_probability,
    tree_loss,
)

CATS = [Category.nosem(), Category.join(),
        Category.constant("walk"), Category.constant("r")]


def tiny_scorer(**kw):
    kw.setdefault("h_dim", 6)
    kw.setdefault("hidden", 10)
    return SpanScorer(["walk", "right", "twice"], CATS, **kw)


def test_score_table_shapes_and_shift():
    rng = np.random.default_rng(0)
    raw = rng.normal(size=(6, 4))
    table = ScoreTable(3, CATS, raw)
    nosem_idx = table.cat_index[Category.nosem()]
    assert np.allclose(table.shifted[:, nosem_idx], 0.0)
    assert table.shifted[table.span_index[Span(1, 2)],
                         table.cat_index[Category.join()]] == \
        pytest.approx(raw[table.span_index[Span(1, 2)], 1] -
                      raw[table.span_index[Span(1, 2)], 0])


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


def test_scorer_is_deterministic_per_seed():
    a = tiny_scorer(seed=3)
    b = tiny_scorer(seed=3)
    utt = Utterance.from_text("walk right")
    assert np.array_equal(a.score_spans(utt).raw, b.score_spans(utt).raw)
    c = tiny_scorer(seed=4)
    assert not np.array_equal(a.score_spans(utt).raw, c.score_spans(utt).raw)


def test_encoder_is_context_sensitive():
    scorer = tiny_scorer()
    h1, _ = scorer.encode(Utterance.from_text("walk right"))
    h2, _ = scorer.encode(Utterance.from_text("walk twice"))
    # same first token, different context vector
    assert not np.allclose(h1[0], h2[0])


def test_unknown_tokens_map_to_unk():
    scorer = tiny_scorer()
    ids = scorer.token_ids(Utterance.from_text("walk sideways"))
    assert ids[1] == 0 and ids[0] != 0


def test_lexicon_bonus_is_additive():
    lam = 5.0
    scorer = tiny_scorer(lam=lam)
    utt = Utterance.from_text("walk right")
    lex = Lexicon.from_pairs([("walk", "walk"), ("right", "r")])
    plain = scorer.score_spans(utt, None)
    boosted = scorer.score_spans(utt, lex)
    w = plain.cat_index[Category.constant("walk")]
    r = plain.cat_index[Category.constant("r")]
    s11 = plain.span_index[Span(1, 1)]
    s22 = plain.span_index[Span(2, 2)]
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
    assert merged.lookup("walk") == {"walk", "run"}


def gold_tree():
    return SpanTree(Span(1, 2), Category.join(), (
        SpanTree(Span(1, 1), Category.constant("walk")),
        SpanTree(Span(2, 2), Category.constant("r")),
    ), is_root=True)


def test_uniform_tree_loss_value():
    """With all-equal scores the NLL is (#spans) * log |C|."""
    table = ScoreTable(2, CATS, np.zeros((3, 4)))
    expected = 3 * np.log(len(CATS))
    assert tree_loss(table, gold_tree()) == pytest.approx(expected)


def test_loss_and_grads_matches_tree_loss():
    scorer = tiny_scorer()
    utt = Utterance.from_text("walk right")
    labels = scorer.labels_for_tree(gold_tree(), 2)
    loss, _ = scorer.loss_and_grads(utt, labels)
    assert loss == pytest.approx(tree_loss(scorer.score_spans(utt),
                                           gold_tree()))


@pytest.mark.parametrize("seed", range(5))
def test_gradients_match_finite_differences(seed):
    """Central differences at random coordinates, 1e-4 relative error."""
    scorer = tiny_scorer(seed=seed, lam=2.0)
    utt = Utterance.from_text("walk right twice")
    lex = Lexicon.from_pairs([("walk", "walk")])
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, len(CATS), size=len(all_spans(3)))

    _, grads = scorer.loss_and_grads(utt, labels, lex)
    eps = 1e-5  # large enough that roundoff stays below the 1e-4 gate
    for _ in range(10):
        key = rng.choice(list(scorer.params))
        idx = tuple(rng.integers(0, d) for d in scorer.params[key].shape)
        orig = scorer.params[key][idx]
        scorer.params[key][idx] = orig + eps
        up, _ = scorer.loss_and_grads(utt, labels, lex)
        scorer.params[key][idx] = orig - eps
        down, _ = scorer.loss_and_grads(utt, labels, lex)
        scorer.params[key][idx] = orig
        numeric = (up - down) / (2 * eps)
        analytic = grads[key][idx]
        denom = max(abs(numeric), abs(analytic), 1e-8)
        assert abs(numeric - analytic) / denom < 1e-4, (key, idx)


def test_sgd_step_moves_against_gradient():
    scorer = tiny_scorer()
    utt = Utterance.from_text("walk right")
    labels = scorer.labels_for_tree(gold_tree(), 2)
    loss0, grads = scorer.loss_and_grads(utt, labels)
    scorer.params = sgd_step(scorer.params, grads, 0.01)
    loss1, _ = scorer.loss_and_grads(utt, labels)
    assert loss1 < loss0


def test_checkpoint_round_trip(tmp_path):
    scorer = tiny_scorer(seed=9, lam=3.0)
    path = tmp_path / "model.npz"
    save_checkpoint(scorer, path, extra={"note": "x"})
    again, extra = load_checkpoint(path)
    assert extra == {"note": "x"}
    utt = Utterance.from_text("walk right twice")
    assert np.array_equal(scorer.score_spans(utt).raw,
                          again.score_spans(utt).raw)
