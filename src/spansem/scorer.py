"""Per-span category scoring.

The encoder contract is tokens -> one contextual vector per token.  The
reference encoder is learned token embeddings followed by two layers of
window-based context mixing (each position is an affine mix of the
previous layer at offsets -3..+3, through tanh).  Span (i, j) is scored by
a 1-hidden-layer network over the concatenation [h_i ; h_j], with hidden
width 250, plus an exact-match lexicon bonus of lambda per matching
category.  These sizes are fixed: ``H_DIM``, ``N_LAYERS``, ``WINDOW`` and
``HIDDEN`` are the one architecture, a checkpoint records them, and
``load_checkpoint`` refuses one that records other sizes.  All arithmetic
is float64 numpy; gradients are hand-derived and checked against finite
differences in the test suite.

Scoring and backpropagation run on a batch.  ``score_spans`` scores a
list of utterances in one forward pass: their tokens share one padded
layout, each window-mix layer is one im2col gather and one GEMM, and
``W1`` meets the token vectors by halves before the spans gather them,
A = (H W1a^T)[ii] + (H W1b^T)[jj], so the (spans x 2d) input of the span
network is never built.  It returns one ``ScoreTable`` per utterance, each
a row slice of one raw matrix, all sharing the batch's forward cache and
the parameter dict that produced it.  ``loss_and_grads`` backpropagates
the tables of one call in one pass from that cache; a table scored with
another parameter dict is refused.  ``sgd_step`` updates the arrays in
place and returns a new dict over them, so a table scored before a step
is refused too.  GEMM rounding depends on the row count, so an
utterance's scores in a batch and scored alone can differ in the last
bits (about 1e-15).

What depends on the utterance length alone (the span list, the row of
each (i, j), the start and end token of each row) is built once per
length by ``_geometry`` and shared by every table and chart.  The lexicon
memoizes its matches per token tuple, so the bonus of a seen utterance is
a scatter.

Loading the module tunes glibc's allocator for the process, forked
``eval --jobs`` workers included, through ``mallopt``: freed heap stays
mapped rather than going back to the kernel, so the arrays of one batch
reuse the pages of the last instead of faulting in new ones.  Only where
memory comes from changes, not what is computed; the process's resident
size stays at its high-water mark.  Where libc has no ``mallopt``,
nothing is tuned.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import sys
import tokenize
import zipfile
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .core import JOIN, NOSEM, Span, SpanTree, Utterance, all_spans, span_map

UNK = "<unk>"

HIDDEN = 250  # classifier hidden width
H_DIM = 64
N_LAYERS = 2
WINDOW = 3


M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters


def _keep_freed_heap_mapped() -> bool:
    """Fix glibc's mmap threshold at 4 MiB and its trim threshold at 64 MiB;
    whether libc has a ``mallopt`` that took both.

    A backward pass frees arrays of 130-340 KB (the reversed taps, the
    ``mix*_W`` and ``W1`` gradients, the im2col columns).  Under glibc's
    dynamic thresholds such arrays are mmapped, or the heap top holding
    them is trimmed, so their pages go back to the kernel and the next
    batch faults them in again: about 420 minor faults per warm hard-EM
    batch of 5 scan commands, 1,100-1,900 per ``scan-em`` benchmark unit
    (1,000-1,200 of them in ``_encode_backward``) and 2,800-3,900 per
    ``geo-ternary`` unit.  With fixed thresholds a warm batch faults in
    no page."""
    # OSError: nothing to load; TypeError: a platform whose CDLL needs a
    # file name (Windows); AttributeError: a libc without mallopt.
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # Both calls run; each returns 1 when glibc takes the value.
    return bool(mallopt(M_MMAP_THRESHOLD, 4 << 20) & mallopt(M_TRIM_THRESHOLD, 64 << 20))


HEAP_KEPT_MAPPED = _keep_freed_heap_mapped()


class DimensionMismatch(ValueError):
    """A raw score matrix's shape disagrees with its spans and categories."""


class _Geometry(NamedTuple):
    """Span bookkeeping of every utterance of one length n.  Every table
    and chart of that length shares it, so nothing in it is mutable."""

    spans: tuple  # all_spans(n): row k of a table scores spans[k]
    row_of: tuple  # row_of[i][j]: the row of span (i, j), 1 <= i <= j <= n
    ii: np.ndarray  # the 0-based start token of each row
    jj: np.ndarray  # the 0-based end token of each row
    # (2n, rows) of 0/1: times per-row values, row t sums those of the
    # spans that start at token t and row n + t those that end there.
    by_token: np.ndarray


@functools.lru_cache(maxsize=None)
def _geometry(n: int) -> _Geometry:
    spans = tuple(all_spans(n))
    row_of = [[None] * (n + 1) for _ in range(n + 1)]
    for row, span in enumerate(spans):
        row_of[span.start][span.end] = row
    ii = np.array([s.start - 1 for s in spans], dtype=np.intp)
    jj = np.array([s.end - 1 for s in spans], dtype=np.intp)
    by_token = np.zeros((2 * n, len(spans)))
    by_token[ii, np.arange(len(spans))] = 1.0
    by_token[n + jj, np.arange(len(spans))] = 1.0
    for array in (ii, jj, by_token):
        array.flags.writeable = False
    return _Geometry(spans, tuple(map(tuple, row_of)), ii, jj, by_token)


def _im2col(x: np.ndarray, layout: dict) -> np.ndarray:
    """Every token's window of ``x`` as one row: ``x`` is placed at rows
    ``pos`` of a zero padded layout and rows ``window`` are gathered."""
    padded = np.zeros((layout["size"], x.shape[1]))
    padded[layout["pos"]] = x
    window = layout["window"]
    return padded[window].reshape(len(window), window.shape[1] * x.shape[1])


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

    def matches(self, tokens: tuple) -> list:
        """``(row, name)`` for every span of ``tokens``, by its row in
        ``all_spans`` order, whose phrase the lexicon maps to ``name``;
        memoized per token tuple."""
        hits = self._matches.get(tokens)
        if hits is None:
            hits = self._matches[tokens] = [
                (row, name)
                for row, span in enumerate(_geometry(len(tokens)).spans)
                for name in self.entries.get(
                    " ".join(tokens[span.start - 1:span.end]).lower(), ())]
        return hits

    def merged_with(self, other: "Lexicon") -> "Lexicon":
        return Lexicon.from_pairs(_pairs(self.entries) + _pairs(other.entries))

    @classmethod
    def from_pairs(cls, pairs) -> "Lexicon":
        """The one builder: ``add`` over ``(phrase, constant)`` pairs."""
        lex = cls()
        for phrase, constant in pairs:
            lex.add(phrase, constant)
        return lex

    @classmethod
    def from_entity_lexicon(cls, entity_lexicon: dict) -> "Lexicon":
        return cls.from_pairs(_pairs(entity_lexicon))

    def save_tsv(self, path) -> None:
        with open(path, "w") as fh:
            for phrase in sorted(self.entries):
                for name in sorted(self.entries[phrase]):
                    fh.write(f"{phrase}\t{name}\n")

    @classmethod
    def load_tsv(cls, path) -> "Lexicon":
        with open(path) as fh:
            return cls.from_pairs(_tsv_pairs(fh))


def _pairs(entries: dict) -> list:
    """The ``(phrase, name)`` pairs of a phrase -> set of names mapping."""
    return [(phrase, name) for phrase, names in entries.items() for name in names]


def _tsv_pairs(lines):
    """The ``(phrase, constant)`` pairs of lexicon.tsv lines, blank lines
    skipped; a ValueError names a line that is not two tab-separated
    fields."""
    for lineno, line in enumerate(lines, 1):
        line = line.rstrip("\n")
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: needs a phrase and a "
                             f"constant separated by one tab")
        yield fields


class ScoreTable:
    """Raw scores s(x_{i:j}, c) for every span and category, plus the
    shifted scores s' with the NoSem column pinned to zero.

    A table from ``SpanScorer.score_spans`` also keeps the parameter dict
    that scored it (``params``), the forward cache of its batch (``cache``,
    shared by every table of one call) and its place in the batch
    (``position``), which ``loss_and_grads`` backpropagates from, and it
    shares the scorer's category list and index.  A table built from raw
    scores has no parameters and no cache, and indexes its own copy of
    ``categories``.
    """

    def __init__(self, n: int, categories: list, raw: np.ndarray,
                 params: dict | None = None, cache: dict | None = None,
                 position: int = 0):
        geometry = _geometry(n)
        self.n = n
        if cache is None:
            self.categories = list(categories)
            self.cat_index = {c: k for k, c in enumerate(self.categories)}
        else:  # the scorer's list and index, shared by the batch's tables
            self.categories, self.cat_index = categories, cache["cat_index"]
        self.spans = geometry.spans
        self.row_of = geometry.row_of
        if raw.shape != (len(self.spans), len(self.categories)):
            raise DimensionMismatch(
                f"raw table shape {raw.shape}, expected "
                f"({len(self.spans)}, {len(self.categories)})")
        self.raw = raw
        nosem_col = self.cat_index[NOSEM]
        self.shifted = raw - raw[:, nosem_col:nosem_col + 1]
        self.params = params
        self.cache = cache
        self.position = position


def span_probability(table: ScoreTable, span: Span, category: str) -> float:
    """Softmax probability over categories at one span (shift-invariant)."""
    row = table.raw[table.row_of[span.start][span.end]]
    row = row - row.max()
    probs = np.exp(row)
    probs /= probs.sum()
    return float(probs[table.cat_index[category]])


class SpanScorer:
    """Reference encoder + span classifier with explicit parameters."""

    def __init__(self, vocab_tokens, categories, lam: float = 10.0, seed: int = 0):
        self.vocab = {UNK: 0}
        for tok in vocab_tokens:
            self.vocab.setdefault(tok, len(self.vocab))
        self.categories = list(categories)
        self.cat_index = {c: k for k, c in enumerate(self.categories)}
        self.lam = lam
        self.seed = seed
        rng = np.random.default_rng(seed)
        d, taps = H_DIM, 2 * WINDOW + 1
        scale = 1.0 / np.sqrt(d)
        self.params = {"emb": rng.normal(0.0, 0.5, size=(len(self.vocab), d))}
        for layer in range(N_LAYERS):
            self.params[f"mix{layer}_W"] = rng.normal(
                0.0, scale / np.sqrt(taps), size=(taps, d, d))
            self.params[f"mix{layer}_b"] = np.zeros(d)
        self.params["W1"] = rng.normal(0.0, 1.0 / np.sqrt(2 * d),
                                       size=(HIDDEN, 2 * d))
        self.params["W2"] = rng.normal(0.0, 1.0 / np.sqrt(HIDDEN),
                                       size=(len(self.categories), HIDDEN))

    # -- encoding ----------------------------------------------------------

    def token_ids(self, utt: Utterance) -> np.ndarray:
        return np.array([self.vocab.get(t, 0) for t in utt.tokens], dtype=int)

    def encode(self, utterances: list):
        """Contextual vectors of every token of ``utterances``, stacked in
        order; returns (H, cache) with the cache holding the batch layout
        and each layer's activations for the backward pass.

        The tokens sit in one padded layout with ``WINDOW`` zero rows
        before each utterance and after the last, so that no window reaches
        a neighbour.  Each layer gathers every token's window from that
        layout and mixes it in one GEMM with its taps stacked, (taps * d, d).
        """
        w, d = WINDOW, H_DIM
        lengths = [len(u) for u in utterances]
        ids = np.concatenate([self.token_ids(u) for u in utterances])
        pos = np.arange(len(ids)) + w * np.repeat(np.arange(1, len(lengths) + 1),
                                                  lengths)
        cache = {"ids": ids, "pos": pos,
                 "window": pos[:, None] + np.arange(-w, w + 1),
                 "size": len(ids) + w * (len(lengths) + 1),
                 "layers": [self.params["emb"][ids]]}
        for layer in range(N_LAYERS):
            cache["layers"].append(np.tanh(
                _im2col(cache["layers"][-1], cache)
                @ self.params[f"mix{layer}_W"].reshape(-1, d)
                + self.params[f"mix{layer}_b"]))
        return cache["layers"][-1], cache

    def _encode_backward(self, cache, dH, grads) -> None:
        dx = dH
        for layer in reversed(range(N_LAYERS)):
            W = self.params[f"mix{layer}_W"]
            dpre = dx * (1.0 - cache["layers"][layer + 1] ** 2)
            grads[f"mix{layer}_b"] = dpre.sum(axis=0)
            # The gathered windows are gathered again rather than kept:
            # they are (taps * d) wide per token.
            columns = _im2col(cache["layers"][layer], cache)
            grads[f"mix{layer}_W"] = (columns.T @ dpre).reshape(W.shape)
            # The gather's adjoint is the same gather with the taps
            # reversed: tap o of the token at offset o - w reads this one.
            dx = _im2col(dpre, cache) @ W[::-1].transpose(0, 2, 1).reshape(-1, H_DIM)
        grads["emb"] = np.zeros_like(self.params["emb"])
        np.add.at(grads["emb"], cache["ids"], dx)

    # -- scoring -----------------------------------------------------------

    def lexicon_delta(self, utt: Utterance, lexicon: Lexicon | None) -> np.ndarray:
        """1.0 at each (span row, category) the lexicon matches; a ValueError
        when a match names a reserved label, since the bonus would raise a
        NoSem or Join column."""
        n = len(utt)
        delta = np.zeros((n * (n + 1) // 2, len(self.categories)))
        if lexicon is None:
            return delta
        for row, name in lexicon.matches(utt.tokens):
            if name in (NOSEM, JOIN):
                raise ValueError(
                    f"lexicon phrase {utt.phrase(_geometry(n).spans[row])!r} "
                    f"names the reserved label {name!r}")
            col = self.cat_index.get(name)
            if col is not None:
                delta[row, col] = 1.0
        return delta

    def score_spans(self, utterances: list, lexicon: Lexicon | None = None) -> list:
        """One ScoreTable per utterance, from one forward pass over them
        all.  Each table is a row slice of one raw matrix and carries the
        batch's forward cache, which ``loss_and_grads`` reads.  GEMM
        rounding depends on the batch, so a table's scores may differ from
        those of the same utterance scored alone in the last bits."""
        H, cache = self.encode(utterances)
        W1, d = self.params["W1"], H_DIM
        geometries = [_geometry(len(u)) for u in utterances]
        first = list(accumulate((len(u) for u in utterances), initial=0))  # tokens
        offsets = list(accumulate((len(g.spans) for g in geometries), initial=0))  # rows
        ii = np.concatenate([g.ii + t for g, t in zip(geometries, first)])
        jj = np.concatenate([g.jj + t for g, t in zip(geometries, first)])
        R = (H @ W1[:, :d].T)[ii]
        R += (H @ W1[:, d:].T)[jj]
        np.maximum(R, 0.0, out=R)  # in place: R > 0 is the ReLU's mask
        delta = np.concatenate([self.lexicon_delta(u, lexicon) for u in utterances])
        raw = R @ self.params["W2"].T + self.lam * delta
        cache.update(geometries=geometries, first=first, offsets=offsets,
                     R=R, raw=raw, cat_index=self.cat_index)
        return [ScoreTable(len(u), self.categories, raw[lo:hi], self.params,
                           cache, k)
                for k, (u, lo, hi) in enumerate(zip(utterances, offsets,
                                                    offsets[1:]))]

    # -- training ----------------------------------------------------------

    def zero_grads(self) -> dict:
        return {k: np.zeros_like(v) for k, v in self.params.items()}

    def loss_and_grads(self, tables: list, labels: list):
        """Summed cross-entropy over every span of a scored batch and its
        parameter gradients, backpropagated in one pass from the batch's
        forward cache.

        ``tables`` must be the tables of one ``score_spans`` call, in the
        order it returned them, under the current parameter dict; else
        ValueError.  ``labels[k]`` holds one category index per span of
        ``tables[k]``, in all_spans order (an array, or a tuple as the
        E-step writes it), or is None: then that example adds no loss and
        no gradient.
        """
        if any(t.params is not self.params for t in tables):
            raise ValueError("the table was not scored with this scorer's "
                             "current parameters")
        cache = tables[0].cache if tables else None
        if (cache is None or len(tables) != len(cache["geometries"])
                or any(t.cache is not cache or t.position != k
                       for k, t in enumerate(tables))):
            raise ValueError("loss_and_grads takes the tables of one "
                             "score_spans call, in the order it returned them")
        raw, offsets = cache["raw"], cache["offsets"]
        target = np.concatenate([
            np.full(hi - lo, -1) if rows is None else rows
            for lo, hi, rows in zip(offsets[:-1], offsets[1:], labels, strict=True)])
        if len(target) != len(raw):
            raise ValueError("a label row's length differs from its table's span count")
        peak = raw.max(axis=1, keepdims=True)
        expd = np.exp(raw - peak)
        total = expd.sum(axis=1, keepdims=True)
        rows = np.flatnonzero(target >= 0)
        cols = target[rows]
        loss = float((np.log(total[rows, 0]) + peak[rows, 0]
                      - raw[rows, cols]).sum())

        draw = expd / total
        draw[rows, cols] -= 1.0
        draw[target < 0] = 0.0
        grads = {"W2": draw.T @ cache["R"]}
        dA = draw @ self.params["W2"]
        dA *= cache["R"] > 0
        # Scatter-add dA by start token into G[0] and by end token into
        # G[1], one table at a time through its geometry's 0/1 matrix.
        first = cache["first"]
        G = np.empty((2, first[-1], dA.shape[1]))
        for g, t0, t1, lo, hi in zip(cache["geometries"], first, first[1:],
                                     offsets, offsets[1:]):
            G[:, t0:t1] = (g.by_token @ dA[lo:hi]).reshape(2, t1 - t0, dA.shape[1])
        H, W1, d = cache["layers"][-1], self.params["W1"], H_DIM
        grads["W1"] = np.empty_like(W1)
        np.matmul(G[0].T, H, out=grads["W1"][:, :d])
        np.matmul(G[1].T, H, out=grads["W1"][:, d:])
        dH = G[0] @ W1[:, :d] + G[1] @ W1[:, d:]
        self._encode_backward(cache, dH, grads)
        return loss, grads

    def labels_for_tree(self, tree: SpanTree, n: int) -> np.ndarray:
        """One category index per span of an n-token utterance, in
        all_spans order: NoSem, then each node's category at its row."""
        geometry = _geometry(n)
        labels = np.full(len(geometry.spans), self.cat_index[NOSEM])
        for node in tree.nodes():
            labels[geometry.row_of[node.span.start][node.span.end]] = \
                self.cat_index[node.category]
        return labels


def tree_from_labels(labels, categories: list) -> SpanTree:
    """The grammar-legal tree whose ``labels_for_tree`` row is ``labels``,
    one index into ``categories`` per span of an n-token utterance, in
    all_spans order.

    In this grammar the row fixes the tree.  A span labelled Join is an
    internal node, and one labelled with a constant a leaf.  A Join node's
    children are its largest labelled proper sub-spans, left to right, and
    each gap between them is one NoSem leaf: no rule has two NoSem
    children side by side, and a NoSem child is always a leaf."""
    names = [categories[k] for k in labels]
    n = (math.isqrt(8 * len(names) + 1) - 1) // 2
    geometry = _geometry(n)
    spans, row_of = geometry.spans, geometry.row_of

    def node(i: int, j: int) -> SpanTree:
        span = spans[row_of[i][j]]
        if names[row_of[i][j]] != JOIN:
            return SpanTree(span, names[row_of[i][j]])

        def child_end(p: int) -> int | None:
            """The end of the largest labelled proper sub-span of (i, j)
            that starts at token p, or None."""
            return next((e for e in range(j if p > i else j - 1, p - 1, -1)
                         if names[row_of[p][e]] != NOSEM), None)

        children, p = [], i
        while p <= j:
            e = child_end(p)
            if e is None:  # one NoSem leaf, up to the next labelled child
                e = next((q - 1 for q in range(p + 1, j + 1)
                          if child_end(q) is not None), j)
                children.append(SpanTree(spans[row_of[p][e]], NOSEM))
            else:
                children.append(node(p, e))
            p = e + 1
        return SpanTree(span, JOIN, tuple(children))

    return node(1, n)


def tree_loss(table: ScoreTable, gold: SpanTree) -> float:
    """Summed negative log-likelihood of the gold labels over all spans."""
    mapping = span_map(gold, table.n)
    total = 0.0
    for span in table.spans:
        total -= np.log(span_probability(table, span, mapping[span]))
    return float(total)


def sgd_step(params: dict, grads: dict, lr: float) -> dict:
    """One gradient-descent update, in place: subtracts ``lr * grads[k]``
    from each array of ``params``.  Returns a new dict over the same
    arrays, so that ``loss_and_grads`` refuses a table scored before the
    step."""
    for k, p in params.items():
        p -= lr * grads[k]
    return dict(params)


# -- checkpoints -------------------------------------------------------------

CHECKPOINT_VERSION = 1


def _sizes() -> dict:
    """The architecture's sizes, by the meta keys a checkpoint records."""
    return {"h_dim": H_DIM, "n_layers": N_LAYERS, "window": WINDOW, "hidden": HIDDEN}


def save_checkpoint(scorer: SpanScorer, path, extra: dict | None = None) -> None:
    vocab_tokens = [t for t, _ in sorted(scorer.vocab.items(), key=lambda kv: kv[1])]
    meta = {
        "version": CHECKPOINT_VERSION,
        "vocab": vocab_tokens,
        "categories": scorer.categories,
        **_sizes(),
        "lam": scorer.lam,
        "seed": scorer.seed,
        "extra": extra or {},
    }
    arrays = {f"param_{k}": v for k, v in scorer.params.items()}
    np.savez(path, meta=json.dumps(meta, sort_keys=True), **arrays)


def load_checkpoint(path):
    """Returns (scorer, extra).  A ValueError when the file is not an intact
    ``.npz`` archive, when it records sizes other than the scorer's or a
    ``lam`` that is no finite nonnegative number, or when a stored
    parameter's shape differs from the one the sizes build or it holds a
    NaN or an infinity."""
    try:
        # np.load sniffs the first bytes and reads a file that does not open
        # with a zip header as a .npy array or a pickle; NpzFile opens every
        # file as a zip archive.
        with np.lib.npyio.NpzFile(path, allow_pickle=False) as blob:
            meta = json.loads(str(blob["meta"]))
            if meta["version"] != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {meta['version']}")
            for key, size in _sizes().items():
                if meta.get(key) != size:
                    raise ValueError(f"checkpoint records {key} {meta.get(key)!r}, "
                                     f"the scorer's is {size}")
            lam = meta["lam"]
            if isinstance(lam, bool) or not isinstance(lam, (int, float)):
                raise ValueError(f"lam must be a float, not {lam!r}")
            # Exact for an int of any size; False for NaN and the infinities.
            if not abs(lam) <= sys.float_info.max:
                raise ValueError(f"lam must be finite, not {lam!r}")
            if lam < 0:
                raise ValueError("lam must be nonnegative")
            scorer = SpanScorer(
                vocab_tokens=[t for t in meta["vocab"] if t != UNK],
                categories=meta["categories"],
                lam=lam,
                seed=meta["seed"],
            )
            for key, built in scorer.params.items():
                stored = blob[f"param_{key}"]
                if stored.shape != built.shape:
                    raise ValueError(f"checkpoint parameter {key} has shape "
                                     f"{stored.shape}, its sizes give {built.shape}")
                if not np.isfinite(stored).all():
                    raise ValueError(f"checkpoint parameter {key} is not finite")
                scorer.params[key] = stored
    # What zipfile raises for a damaged archive (an encryption flag is a
    # RuntimeError), and what NumPy's .npy header parser lets out.
    except (zipfile.BadZipFile, EOFError, NotImplementedError, RuntimeError,
            SyntaxError, tokenize.TokenError) as exc:
        raise ValueError(f"not an intact .npz checkpoint ({exc})") from None
    return scorer, meta["extra"]
