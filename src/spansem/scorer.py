"""Per-span category scoring.

The encoder contract is tokens -> one contextual vector per token.  The
reference encoder is learned token embeddings followed by two layers of
window-based context mixing (each position is an affine mix of the
previous layer at offsets -3..+3, through tanh).  Span (i, j) is scored by
a 1-hidden-layer network over the concatenation [h_i ; h_j], with hidden
width 250, plus an exact-match lexicon bonus of lambda per matching
category.  All arithmetic is float64 numpy; gradients are hand-derived
and checked against finite differences in the test suite.

One forward serves both steps of hard EM: ``score_spans`` returns a
``ScoreTable`` that carries its forward cache and the parameter dict that
produced it, and ``loss_and_grads`` backpropagates from that table rather
than running the forward again.  A table scored with another parameter
dict (``sgd_step`` returns a new one) is refused.  The lexicon memoizes
its matches per token tuple, so the bonus of a seen utterance is a
scatter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .core import NOSEM, Span, SpanTree, Utterance, all_spans, span_map

UNK = "<unk>"

HIDDEN = 250  # classifier hidden width
H_DIM = 64
N_LAYERS = 2
WINDOW = 3


class DimensionMismatch(ValueError):
    """Encoder output width disagrees with the classifier input width."""


@dataclass
class Lexicon:
    """Exact-match phrase -> constant-name lookup; lookup is exact on the
    token-joined, lowercased span string."""

    entries: dict = field(default_factory=dict)
    _matches: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)  # tokens -> [(span row, name)]

    def add(self, phrase: str, constant: str) -> None:
        self.entries.setdefault(phrase.lower(), set()).add(constant)
        self._matches.clear()

    def lookup(self, phrase: str) -> set:
        return self.entries.get(phrase.lower(), set())

    def matches(self, tokens: tuple) -> list:
        """``(row, name)`` for every span of ``tokens``, by its row in
        ``all_spans`` order, whose phrase the lexicon maps to ``name``;
        memoized per token tuple."""
        hits = self._matches.get(tokens)
        if hits is None:
            n = len(tokens)
            hits = self._matches[tokens] = [
                (row, name)
                for row, span in enumerate(all_spans(n))
                for name in self.lookup(" ".join(tokens[span.start - 1:span.end]))]
        return hits

    def merged_with(self, other: "Lexicon") -> "Lexicon":
        out = Lexicon()
        for lex in (self, other):
            for phrase, names in lex.entries.items():
                for name in names:
                    out.add(phrase, name)
        return out

    @classmethod
    def from_pairs(cls, pairs) -> "Lexicon":
        lex = cls()
        for phrase, constant in pairs:
            lex.add(phrase, constant)
        return lex

    @classmethod
    def from_entity_lexicon(cls, entity_lexicon: dict) -> "Lexicon":
        lex = cls()
        for phrase, names in entity_lexicon.items():
            for name in names:
                lex.add(phrase, name)
        return lex

    def save_tsv(self, path) -> None:
        with open(path, "w") as fh:
            for phrase in sorted(self.entries):
                for name in sorted(self.entries[phrase]):
                    fh.write(f"{phrase}\t{name}\n")

    @classmethod
    def load_tsv(cls, path) -> "Lexicon":
        lex = cls()
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                fields = line.split("\t")
                if len(fields) != 2:
                    raise ValueError(f"line {lineno}: needs a phrase and a "
                                     f"constant separated by one tab")
                lex.add(*fields)
        return lex


class ScoreTable:
    """Raw scores s(x_{i:j}, c) for every span and category, plus the
    shifted scores s' with the NoSem column pinned to zero.

    A table from ``SpanScorer.score_spans`` also keeps the parameter dict
    that scored it (``params``) and its forward activations (``cache``),
    which ``loss_and_grads`` backpropagates from; a table built from raw
    scores has neither.
    """

    def __init__(self, n: int, categories: list, raw: np.ndarray,
                 params: dict | None = None, cache: dict | None = None):
        self.n = n
        self.categories = list(categories)
        self.cat_index = {c: k for k, c in enumerate(self.categories)}
        self.spans = all_spans(n)
        self.span_index = {s: k for k, s in enumerate(self.spans)}
        if raw.shape != (len(self.spans), len(self.categories)):
            raise DimensionMismatch(
                f"raw table shape {raw.shape}, expected "
                f"({len(self.spans)}, {len(self.categories)})")
        self.raw = raw
        nosem_col = self.cat_index[NOSEM]
        self.shifted = raw - raw[:, nosem_col:nosem_col + 1]
        self.params = params
        self.cache = cache


def span_probability(table: ScoreTable, span: Span, category: str) -> float:
    """Softmax probability over categories at one span (shift-invariant)."""
    row = table.raw[table.span_index[span]]
    row = row - row.max()
    probs = np.exp(row)
    probs /= probs.sum()
    return float(probs[table.cat_index[category]])


class SpanScorer:
    """Reference encoder + span classifier with explicit parameters."""

    def __init__(self, vocab_tokens, categories, h_dim: int = H_DIM,
                 n_layers: int = N_LAYERS, window: int = WINDOW,
                 hidden: int = HIDDEN, lam: float = 10.0, seed: int = 0):
        self.vocab = {UNK: 0}
        for tok in vocab_tokens:
            self.vocab.setdefault(tok, len(self.vocab))
        self.categories = list(categories)
        self.cat_index = {c: k for k, c in enumerate(self.categories)}
        self.h_dim = h_dim
        self.n_layers = n_layers
        self.window = window
        self.hidden = hidden
        self.lam = lam
        self.seed = seed
        rng = np.random.default_rng(seed)
        d, taps = h_dim, 2 * window + 1
        scale = 1.0 / np.sqrt(d)
        self.params = {"emb": rng.normal(0.0, 0.5, size=(len(self.vocab), d))}
        for layer in range(n_layers):
            self.params[f"mix{layer}_W"] = rng.normal(
                0.0, scale / np.sqrt(taps), size=(taps, d, d))
            self.params[f"mix{layer}_b"] = np.zeros(d)
        self.params["W1"] = rng.normal(0.0, 1.0 / np.sqrt(2 * d),
                                       size=(hidden, 2 * d))
        self.params["W2"] = rng.normal(0.0, 1.0 / np.sqrt(hidden),
                                       size=(len(self.categories), hidden))

    # -- encoding ----------------------------------------------------------

    def token_ids(self, utt: Utterance) -> np.ndarray:
        return np.array([self.vocab.get(t, 0) for t in utt.tokens], dtype=int)

    def encode(self, utt: Utterance):
        """Contextual vectors h_1..h_n; returns (H, cache) with the cache
        holding per-layer activations for the backward pass."""
        ids = self.token_ids(utt)
        n, w = len(ids), self.window
        x = self.params["emb"][ids]
        layers = [x]
        for layer in range(self.n_layers):
            W = self.params[f"mix{layer}_W"]
            b = self.params[f"mix{layer}_b"]
            if n == 0:
                x = x.reshape(0, self.h_dim)
                layers.append(x)
                continue
            padded = np.zeros((n + 2 * w, self.h_dim))
            padded[w:w + n] = x
            pre = np.tile(b, (n, 1))
            for o in range(2 * w + 1):
                pre += padded[o:o + n] @ W[o]
            x = np.tanh(pre)
            layers.append(x)
        return x, {"ids": ids, "layers": layers}

    def _encode_backward(self, cache, dH, grads) -> None:
        ids, layers = cache["ids"], cache["layers"]
        n, w = len(ids), self.window
        dx = dH
        for layer in reversed(range(self.n_layers)):
            x_in, x_out = layers[layer], layers[layer + 1]
            dpre = dx * (1.0 - x_out ** 2)
            W = self.params[f"mix{layer}_W"]
            grads[f"mix{layer}_b"] += dpre.sum(axis=0)
            padded = np.zeros((n + 2 * w, self.h_dim))
            padded[w:w + n] = x_in
            dpadded = np.zeros_like(padded)
            dW = grads[f"mix{layer}_W"]
            for o in range(2 * w + 1):
                dW[o] += padded[o:o + n].T @ dpre
                dpadded[o:o + n] += dpre @ W[o].T
            dx = dpadded[w:w + n]
        np.add.at(grads["emb"], ids, dx)

    # -- scoring -----------------------------------------------------------

    def _span_indices(self, n: int):
        spans = all_spans(n)
        ii = np.array([s.start - 1 for s in spans], dtype=int)
        jj = np.array([s.end - 1 for s in spans], dtype=int)
        return spans, ii, jj

    def lexicon_delta(self, utt: Utterance, lexicon: Lexicon | None) -> np.ndarray:
        n = len(utt)
        delta = np.zeros((n * (n + 1) // 2, len(self.categories)))
        if lexicon is None:
            return delta
        hits = [(row, col) for row, name in lexicon.matches(utt.tokens)
                if (col := self.cat_index.get(name)) is not None]
        if hits:
            rows, cols = zip(*hits)
            delta[rows, cols] = 1.0
        return delta

    def _forward(self, utt: Utterance, lexicon: Lexicon | None):
        H, enc_cache = self.encode(utt)
        if H.shape[1] != self.params["W1"].shape[1] // 2:
            raise DimensionMismatch("encoder width disagrees with W1")
        spans, ii, jj = self._span_indices(len(utt))
        F = np.concatenate([H[ii], H[jj]], axis=1)
        A = F @ self.params["W1"].T
        R = np.maximum(A, 0.0)
        logits = R @ self.params["W2"].T
        delta = self.lexicon_delta(utt, lexicon)
        raw = logits + self.lam * delta
        cache = {"enc": enc_cache, "ii": ii, "jj": jj, "F": F, "A": A, "R": R}
        return raw, cache

    def score_spans(self, utt: Utterance, lexicon: Lexicon | None = None) -> ScoreTable:
        raw, cache = self._forward(utt, lexicon)
        return ScoreTable(len(utt), self.categories, raw, self.params, cache)

    # -- training ----------------------------------------------------------

    def zero_grads(self) -> dict:
        return {k: np.zeros_like(v) for k, v in self.params.items()}

    def loss_and_grads(self, table: ScoreTable, labels: np.ndarray,
                       grads: dict | None = None):
        """Summed cross-entropy over all spans of a scored table and its
        parameter gradients, backpropagated from the table's forward cache.

        ``table`` must come from ``score_spans`` under the current parameter
        dict, else ValueError.  ``labels`` holds one category index per
        span, in all_spans order.  Gradients are accumulated into ``grads``
        when given.
        """
        if table.params is not self.params:
            raise ValueError("the table was not scored with this scorer's "
                             "current parameters")
        raw, cache = table.raw, table.cache
        shift = raw - raw.max(axis=1, keepdims=True)
        expd = np.exp(shift)
        logz = np.log(expd.sum(axis=1)) + raw.max(axis=1)
        rows = np.arange(len(labels))
        loss = float((logz - raw[rows, labels]).sum())

        if grads is None:
            grads = self.zero_grads()
        draw = expd / expd.sum(axis=1, keepdims=True)
        draw[rows, labels] -= 1.0
        grads["W2"] += draw.T @ cache["R"]
        dR = draw @ self.params["W2"]
        dA = dR * (cache["A"] > 0)
        grads["W1"] += dA.T @ cache["F"]
        dF = dA @ self.params["W1"]
        h = self.h_dim
        dH = np.zeros((table.n, h))
        np.add.at(dH, cache["ii"], dF[:, :h])
        np.add.at(dH, cache["jj"], dF[:, h:])
        self._encode_backward(cache["enc"], dH, grads)
        return loss, grads

    def labels_for_tree(self, tree: SpanTree, n: int) -> np.ndarray:
        mapping = span_map(tree, n)
        return np.array([self.cat_index[mapping[s]] for s in all_spans(n)],
                        dtype=int)


def tree_loss(table: ScoreTable, gold: SpanTree) -> float:
    """Summed negative log-likelihood of the gold labels over all spans."""
    mapping = span_map(gold, table.n)
    total = 0.0
    for span in table.spans:
        total -= np.log(span_probability(table, span, mapping[span]))
    return float(total)


def sgd_step(params: dict, grads: dict, lr: float) -> dict:
    """One gradient-descent update; returns a new parameter dict."""
    return {k: params[k] - lr * grads[k] for k in params}


# -- checkpoints -------------------------------------------------------------

CHECKPOINT_VERSION = 1


def save_checkpoint(scorer: SpanScorer, path, extra: dict | None = None) -> None:
    vocab_tokens = [t for t, _ in sorted(scorer.vocab.items(), key=lambda kv: kv[1])]
    meta = {
        "version": CHECKPOINT_VERSION,
        "vocab": vocab_tokens,
        "categories": scorer.categories,
        "h_dim": scorer.h_dim,
        "n_layers": scorer.n_layers,
        "window": scorer.window,
        "hidden": scorer.hidden,
        "lam": scorer.lam,
        "seed": scorer.seed,
        "extra": extra or {},
    }
    arrays = {f"param_{k}": v for k, v in scorer.params.items()}
    np.savez(path, meta=json.dumps(meta, sort_keys=True), **arrays)


def load_checkpoint(path):
    """Returns (scorer, extra); a ValueError when a stored parameter's shape
    differs from the one the stored sizes build."""
    blob = np.load(path, allow_pickle=False)
    meta = json.loads(str(blob["meta"]))
    if meta["version"] != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {meta['version']}")
    scorer = SpanScorer(
        vocab_tokens=[t for t in meta["vocab"] if t != UNK],
        categories=meta["categories"],
        h_dim=meta["h_dim"],
        n_layers=meta["n_layers"],
        window=meta["window"],
        hidden=meta["hidden"],
        lam=meta["lam"],
        seed=meta["seed"],
    )
    for key, built in scorer.params.items():
        stored = blob[f"param_{key}"]
        if stored.shape != built.shape:
            raise ValueError(f"checkpoint parameter {key} has shape "
                             f"{stored.shape}, its sizes give {built.shape}")
        scorer.params[key] = stored
    return scorer, meta["extra"]
