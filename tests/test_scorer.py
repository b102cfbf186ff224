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
    ids = scorer.token_ids([Utterance.from_text("walk sideways")])
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


def lexicon_bonus(lex, utt, categories=CATS):
    """1.0 at each (span row, category) where ``lex`` maps the span's
    phrase to the category, by ``Lexicon.entries`` alone."""
    want = np.zeros((len(all_spans(len(utt))), len(categories)))
    for row, span in enumerate(all_spans(len(utt))):
        for name in lex.entries.get(utt.phrase(span).lower(), ()):
            want[row, categories.index(name)] = 1.0
    return want


def reference_matches(lex, tokens):
    """Every span's phrase joined and lowercased, looked up in turn."""
    return [(row, name) for row, span in enumerate(all_spans(len(tokens)))
            for name in lex.entries.get(" ".join(tokens[span.start - 1:span.end]).lower(), ())]


def test_lexicon_matches_equal_the_all_spans_reference():
    """On random mixed-case tokens, empty ones among them, and lexicons of
    one- to three-word phrases, an empty phrase and phrases with a double
    or trailing space, ``matches`` gives the reference's ``(row, name)``
    list, order included, before and after ``add`` grows the lexicon."""
    rng = random.Random(67)
    words = ["walk", "Walk", "LEFT", "left", "twice", "İ", "ΑΣ", "ας", "", "a"]
    hits = 0
    for _ in range(200):
        phrases = [" ".join(rng.choice(words) for _ in range(rng.randint(1, 3)))
                   for _ in range(rng.randint(0, 6))]
        phrases += rng.sample(["", "walk  left", "walk ", " left", "a  a"], 2)
        lex = Lexicon.from_pairs((p, rng.choice(["walk", "l", "twice"])) for p in phrases)
        for _ in range(3):
            tokens = tuple(rng.choice(words) for _ in range(rng.randint(1, 8)))
            want = reference_matches(lex, tokens)
            assert lex.matches(tokens) == want, (phrases, tokens)
            hits += len(want)
        lex.add(" ".join(tokens[-2:]).upper(), "op")  # at times a new longest phrase
        assert lex.matches(tokens) == reference_matches(lex, tokens)
    assert hits > 200


def test_lexicon_matches_are_memoized_and_add_clears_them(tiny_scorer):
    """Matches and the bonus cells are memoized per token tuple; after
    ``add`` the scores carry the new entry's bonus, one scorer gets each of
    two lexicons' own bonus, whichever it scored with last, and two
    scorers whose categories are in other orders each get their own
    columns from one lexicon."""
    scorer = tiny_scorer(lam=3.0)
    lex = Lexicon.from_pairs([("walk", "walk"), ("Right twice", "r")])
    utt = Utterance.from_text("walk right twice walk")
    plain, = scorer.score_spans([utt])
    hits = lex.matches(utt.tokens)
    assert lex.matches(utt.tokens) is hits
    cells = lex.bonus_cells(utt.tokens, scorer.cat_index)
    assert lex.bonus_cells(utt.tokens, scorer.cat_index) is cells
    assert np.array_equal(scorer.score_spans([utt], lex)[0].raw,
                          plain.raw + 3.0 * lexicon_bonus(lex, utt))
    lex.add("walk", "r")
    assert lex.matches(utt.tokens) is not hits
    assert lex.bonus_cells(utt.tokens, scorer.cat_index) is not cells
    want = lexicon_bonus(lex, utt)
    assert want.sum() == 5
    assert np.array_equal(scorer.score_spans([utt], lex)[0].raw, plain.raw + 3.0 * want)
    other = Lexicon.from_pairs([("twice walk", "walk"), ("right", "r")])
    for _ in range(2):
        for lexicon in (lex, other):
            table, = scorer.score_spans([utt], lexicon)
            assert np.array_equal(table.raw, plain.raw + 3.0 * lexicon_bonus(lexicon, utt))
    flipped = SpanScorer(["walk", "right", "twice"], CATS[::-1], lam=3.0)
    flipped_plain, = flipped.score_spans([utt])
    for _ in range(2):
        for s, base, cats in ((scorer, plain, CATS), (flipped, flipped_plain, CATS[::-1])):
            table, = s.score_spans([utt], lex)
            assert np.array_equal(table.raw, base.raw + 3.0 * lexicon_bonus(lex, utt, cats))


def test_checkpoint_round_trip(tmp_path, tiny_scorer):
    scorer = tiny_scorer(seed=9, lam=3.0)
    path = tmp_path / "model.npz"
    save_checkpoint(scorer, path, extra={"note": "x"})
    again, extra = load_checkpoint(path)
    assert extra == {"note": "x"}
    utt = Utterance.from_text("walk right twice")
    assert np.array_equal(scorer.score_spans([utt])[0].raw,
                          again.score_spans([utt])[0].raw)


def reference_params(scorer, seed):
    """The parameters a scorer of ``scorer``'s sizes draws from ``seed``,
    written out draw by draw."""
    rng = np.random.default_rng(seed)
    d, taps = scorer_module.H_DIM, scorer_module.TAPS
    params = {"emb": rng.normal(0.0, 0.5, size=(len(scorer.vocab), d))}
    for layer in range(scorer_module.N_LAYERS):
        params[f"mix{layer}_W"] = rng.normal(0.0, 1.0 / np.sqrt(d) / np.sqrt(taps),
                                             size=(taps, d, d))
        params[f"mix{layer}_b"] = np.zeros(d)
    params["W1"] = rng.normal(0.0, 1.0 / np.sqrt(2 * d),
                              size=(scorer_module.HIDDEN, 2 * d))
    params["W2"] = rng.normal(0.0, 1.0 / np.sqrt(scorer_module.HIDDEN),
                              size=(len(scorer.categories), scorer_module.HIDDEN))
    return params


def same_arrays(got: dict, want: dict) -> bool:
    return list(got) == list(want) and all(
        got[k].dtype == want[k].dtype and got[k].shape == want[k].shape
        and got[k].tobytes() == want[k].tobytes() for k in want)


@pytest.mark.parametrize("seed", [0, 9])
def test_scorer_draws_its_parameters_in_a_fixed_order(tiny_scorer, seed):
    scorer = tiny_scorer(seed=seed)
    assert same_arrays(scorer.params, reference_params(scorer, seed))


def test_checkpoint_loads_its_stored_arrays_without_drawing(tmp_path, tiny_scorer,
                                                           monkeypatch):
    """``load_checkpoint`` takes every parameter from the file, with the
    shape the sizes give: it draws none, so it loads with the generator
    gone, and still refuses a seed no generator takes."""
    scorer = tiny_scorer(seed=9, lam=3.0)
    scorer.params["W2"] += 1.0  # no longer what the seed draws
    path = tmp_path / "model.npz"
    save_checkpoint(scorer, path)

    def no_generator(*args, **kwargs):
        raise AssertionError("a parameter was drawn")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    again, _ = load_checkpoint(path)
    with np.load(path) as blob:
        stored = {key: blob[f"param_{key}"] for key in scorer.params}
    assert same_arrays(again.params, stored)
    assert (again.vocab, again.categories, again.lam, again.seed) == \
        (scorer.vocab, scorer.categories, 3.0, 9)
    scorer.seed = -1
    save_checkpoint(scorer, path)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        load_checkpoint(path)


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
    """Every time, alone and in a batch, with the phrase as the utterance
    spells it."""
    scorer = tiny_scorer()
    lex = Lexicon.from_pairs([("walk", "walk"), ("Right twice", label)])
    utt = Utterance.from_text("walk Right twice")
    for batch in ([utt], [utt], [Utterance.from_text("walk"), utt]):
        with pytest.raises(ValueError, match=f"^lexicon phrase 'Right twice' names "
                                             f"the reserved label '{label}'$"):
            scorer.score_spans(batch, lex)


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


def reference_forward(scorer, utterances, lexicon):
    """The forward pass as it was written before the per-length layouts:
    each call builds the padded layout and the span indices, a dense
    (rows x categories) 0/1 lexicon matrix, and ``lam`` times it is added.
    The raw and shifted scores of each utterance."""
    w, d = scorer_module.WINDOW, scorer_module.H_DIM
    lengths = [len(u) for u in utterances]
    ids = np.concatenate([np.array([scorer.vocab.get(t, 0) for t in u.tokens], dtype=int)
                          for u in utterances])
    pos = np.arange(len(ids)) + w * np.repeat(np.arange(1, len(lengths) + 1), lengths)
    window = pos[:, None] + np.arange(-w, w + 1)
    size = len(ids) + w * (len(lengths) + 1)

    def im2col(x):
        padded = np.zeros((size, x.shape[1]))
        padded[pos] = x
        return padded[window].reshape(len(window), window.shape[1] * x.shape[1])

    x = scorer.params["emb"][ids]
    for layer in range(scorer_module.N_LAYERS):
        x = np.tanh(im2col(x) @ scorer.params[f"mix{layer}_W"].reshape(-1, d)
                    + scorer.params[f"mix{layer}_b"])
    first = np.cumsum([0] + lengths)
    spans = [(s, t) for n, t in zip(lengths, first) for s in all_spans(n)]
    ii = np.array([s.start - 1 + t for s, t in spans], dtype=np.intp)
    jj = np.array([s.end - 1 + t for s, t in spans], dtype=np.intp)
    W1 = scorer.params["W1"]
    R = (x @ W1[:, :d].T)[ii]
    R += (x @ W1[:, d:].T)[jj]
    np.maximum(R, 0.0, out=R)
    deltas = []
    for u in utterances:
        delta = np.zeros((len(all_spans(len(u))), len(scorer.categories)))
        for row, span in enumerate(all_spans(len(u)) if lexicon is not None else ()):
            for name in lexicon.entries.get(u.phrase(span).lower(), ()):
                if name in scorer.cat_index:
                    delta[row, scorer.cat_index[name]] = 1.0
        deltas.append(delta)
    raw = R @ scorer.params["W2"].T + scorer.lam * np.concatenate(deltas)
    nosem = scorer.cat_index[NOSEM]
    out, lo = [], 0
    for delta in deltas:
        rows = raw[lo:lo + len(delta)]
        out.append((rows, rows - rows[:, nosem:nosem + 1]))
        lo += len(delta)
    return out


def padded_im2col(x, lengths):
    """Every token's window of ``x`` (one row per token of utterances of
    ``lengths``, stacked) as the encoder gathered it before it read the
    layer below directly: ``WINDOW`` zero rows before each utterance and
    after the last, each token placed at its padded row, and each token's
    window of padded rows taken."""
    w = scorer_module.WINDOW
    pos = np.arange(len(x)) + w * np.repeat(np.arange(1, len(lengths) + 1), lengths)
    window = pos[:, None] + np.arange(-w, w + 1)
    padded = np.zeros((len(x) + w * (len(lengths) + 1), x.shape[1]))
    padded[pos] = x
    return padded[window].reshape(len(window), window.shape[1] * x.shape[1])


def reference_pass(scorer, utterances, lexicon):
    """``reference_forward``, keeping what the backward pass reads: the
    token ids, each layer's rows, the span network's hidden rows ``R`` and
    the raw scores."""
    d = scorer_module.H_DIM
    lengths = [len(u) for u in utterances]
    ids = np.concatenate([np.array([scorer.vocab.get(t, 0) for t in u.tokens], dtype=int)
                          for u in utterances])
    layers = [scorer.params["emb"][ids]]
    for layer in range(scorer_module.N_LAYERS):
        layers.append(np.tanh(padded_im2col(layers[-1], lengths)
                              @ scorer.params[f"mix{layer}_W"].reshape(-1, d)
                              + scorer.params[f"mix{layer}_b"]))
    first = np.cumsum([0] + lengths)
    spans = [(s, t) for n, t in zip(lengths, first) for s in all_spans(n)]
    ii = np.array([s.start - 1 + t for s, t in spans], dtype=np.intp)
    jj = np.array([s.end - 1 + t for s, t in spans], dtype=np.intp)
    W1 = scorer.params["W1"]
    R = (layers[-1] @ W1[:, :d].T)[ii]
    R += (layers[-1] @ W1[:, d:].T)[jj]
    np.maximum(R, 0.0, out=R)
    deltas = []
    for u in utterances:
        delta = np.zeros((len(all_spans(len(u))), len(scorer.categories)))
        for row, span in enumerate(all_spans(len(u)) if lexicon is not None else ()):
            for name in lexicon.entries.get(u.phrase(span).lower(), ()):
                if name in scorer.cat_index:
                    delta[row, scorer.cat_index[name]] = 1.0
        deltas.append(delta)
    raw = R @ scorer.params["W2"].T + scorer.lam * np.concatenate(deltas)
    return ids, layers, R, raw


def reference_loss_and_grads(scorer, utterances, labels, lexicon):
    """``loss_and_grads`` of the scored batch as it was written before the
    encoder gathered from each layer directly: the same arithmetic in the
    same order over ``reference_pass``, its backward gathering through
    ``padded_im2col``, and each utterance's start and end sums taken
    through a 0/1 matrix built here."""
    d = scorer_module.H_DIM
    lengths = [len(u) for u in utterances]
    ids, layers, R, raw = reference_pass(scorer, utterances, lexicon)
    target = np.concatenate([np.full(len(all_spans(n)), -1) if rows is None else rows
                             for n, rows in zip(lengths, labels)])
    peak = raw.max(axis=1, keepdims=True)
    expd = np.exp(raw - peak)
    total = expd.sum(axis=1, keepdims=True)
    rows = np.flatnonzero(target >= 0)
    cols = target[rows]
    loss = float((np.log(total[rows, 0]) + peak[rows, 0] - raw[rows, cols]).sum())
    draw = expd / total
    draw[rows, cols] -= 1.0
    draw[target < 0] = 0.0
    W1, W2 = scorer.params["W1"], scorer.params["W2"]
    grads = {"W2": draw.T @ R}
    dA = draw @ W2
    dA *= R > 0
    G, t0, lo = np.empty((2, sum(lengths), dA.shape[1])), 0, 0
    for n in lengths:
        spans = all_spans(n)
        by_token = np.zeros((2 * n, len(spans)))
        for k, span in enumerate(spans):
            by_token[span.start - 1, k] = by_token[n + span.end - 1, k] = 1.0
        G[:, t0:t0 + n] = (by_token @ dA[lo:lo + len(spans)]).reshape(2, n, dA.shape[1])
        t0, lo = t0 + n, lo + len(spans)
    grads["W1"] = np.empty_like(W1)
    np.matmul(G[0].T, layers[-1], out=grads["W1"][:, :d])
    np.matmul(G[1].T, layers[-1], out=grads["W1"][:, d:])
    dx = G[0] @ W1[:, :d] + G[1] @ W1[:, d:]
    for layer in reversed(range(scorer_module.N_LAYERS)):
        W = scorer.params[f"mix{layer}_W"]
        dpre = dx * (1.0 - layers[layer + 1] ** 2)
        grads[f"mix{layer}_b"] = dpre.sum(axis=0)
        grads[f"mix{layer}_W"] = (padded_im2col(layers[layer], lengths).T @ dpre).reshape(W.shape)
        dx = padded_im2col(dpre, lengths) @ W[::-1].transpose(0, 2, 1).reshape(-1, d)
    grads["emb"] = np.zeros_like(scorer.params["emb"])
    np.add.at(grads["emb"], ids, dx)
    return loss, grads


def gather_batches(utts, seed):
    """Lone utterances of every length 1..12 (prefixes of the corpus's
    utterances joined end to end), a batch of one, mixed-length batches of
    lengths 1..9 and one holding an empty utterance."""
    rng = random.Random(seed)
    tokens = [t for u in rng.sample(utts, 40) for t in u.tokens]
    lone = [[Utterance("", tuple(tokens[k:k + n]))] for k, n in
            ((rng.randrange(len(tokens) - n), n) for n in range(1, 13))]
    return lone + [[rng.choice(utts)]] + [mixed_batch(utts, s) for s in range(3)] + [
        [Utterance("", tuple(tokens[:4])), Utterance("", ()), Utterance("", tuple(tokens[4:7]))]]


@pytest.mark.parametrize("name", ["scan", "geo"])
def test_the_gather_takes_the_padded_windows(domains, name):
    """One gather through a batch's taps, from rows with one zero row
    after them, gives the columns of the padded layout's gather, byte for
    byte: a tap off its utterance reads zeros and no window reaches a
    neighbour."""
    _, _, utts, _ = domains[name]
    rng = np.random.default_rng(3)
    for batch in gather_batches(utts, seed=3):
        lengths = [len(u) for u in batch]
        x = rng.normal(size=(sum(lengths), 5))
        geometries = [scorer_module._geometry(n) for n in lengths]
        taps = scorer_module._stacked_taps(geometries, np.cumsum([0] + lengths).tolist())
        got = scorer_module._im2col(np.vstack([x, np.zeros((1, 5))]), taps)
        assert got.tobytes() == padded_im2col(x, lengths).tobytes(), lengths


@pytest.mark.parametrize("lam", [0.0, 10.0])
@pytest.mark.parametrize("name", ["scan", "geo"])
def test_the_backward_pass_keeps_the_reference_bytes(domains, name, lam):
    """The loss and every gradient of ``loss_and_grads`` are byte for byte
    those of the reference backward over the padded gather, on the batches
    of ``test_the_gather_takes_the_padded_windows``, some members
    labelled None."""
    scorer, lexicon, utts, _ = domains[name]
    scorer = SpanScorer([t for t in scorer.vocab if t != scorer_module.UNK],
                        scorer.categories, lam=lam, seed=7)
    rng = np.random.default_rng(int(lam))
    for batch in gather_batches(utts, seed=4):
        labels = [None if len(batch) > 1 and rng.random() < 0.25 else
                  rng.integers(0, len(scorer.categories), len(all_spans(len(u))))
                  for u in batch]
        loss, grads = scorer.loss_and_grads(scorer.score_spans(batch, lexicon), labels)
        want_loss, want = reference_loss_and_grads(scorer, batch, labels, lexicon)
        assert repr(loss) == repr(want_loss), [len(u) for u in batch]
        assert grads.keys() == want.keys()
        for key in grads:
            assert grads[key].tobytes() == want[key].tobytes(), (key, [len(u) for u in batch])


@pytest.mark.parametrize("lam", [0.0, 10.0])
@pytest.mark.parametrize("name", ["scan", "geo"])
def test_the_forward_pass_keeps_the_reference_bytes(domains, name, lam):
    """The raw and shifted scores are byte for byte those of the reference
    forward pass: lone utterances of every length 1..12 (prefixes of the
    corpus's utterances joined end to end) and mixed-length batches, with
    no lexicon, the scorer's own domain's lexicon and the other domain's
    (whose names are mostly not among the categories)."""
    scorer, _, utts, _ = domains[name]
    scorer = SpanScorer([t for t in scorer.vocab if t != scorer_module.UNK],
                        scorer.categories, lam=lam, seed=5)
    rng = random.Random(lam)
    tokens = [t for u in rng.sample(utts, 40) for t in u.tokens]
    lone = [[Utterance("", tuple(tokens[k:k + n]))] for k, n in
            ((rng.randrange(len(tokens) - n), n) for n in range(1, 13))]
    batches = [mixed_batch(utts, seed) for seed in range(3)] + [
        [u for batch in lone[:6] for u in batch]]
    for lexicon in (None, domains["scan"][1], domains["geo"][1]):
        for batch in lone + batches:
            tables = scorer.score_spans(batch, lexicon)
            for table, (raw, shifted) in zip(tables, reference_forward(
                    scorer, batch, lexicon), strict=True):
                assert table.raw.tobytes() == raw.tobytes(), (len(batch), table.n)
                assert table.shifted.tobytes() == shifted.tobytes()


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
