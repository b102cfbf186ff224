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
list of utterances in one forward pass.  Each window-mix layer is one
gather and one GEMM: every token's window is taken straight from the rows
of the layer below (one row per token of the batch, then one zero row)
through one index array, and ``W1`` meets the token vectors by halves
before the spans gather them, A = (H W1a^T)[ii] + (H W1b^T)[jj], so the
(spans x 2d) input of the span network is never built.  It returns one
``ScoreTable`` per utterance, each a row slice of one raw matrix, all
sharing the batch's forward cache and the parameter dict that produced
it.  ``loss_and_grads`` backpropagates the tables of one call in one pass
from that cache; a table scored with another parameter dict is refused.
``sgd_step`` updates the arrays in place and returns a new dict over
them, so a table scored before a step is refused too.  GEMM rounding
depends on the row count, so an utterance's scores in a batch and scored
alone can differ in the last bits (about 1e-15).

What depends on the utterance length alone is built once per length by
``_geometry`` and shared by every table, chart and forward pass: the span
list, the row of each (i, j), the start and end token of each row, and the
encoder's taps, for each token and window offset the row it reads, -1 (the
zero row) for an offset off the utterance.  A batch's taps are its
members', each shifted past the tokens before it with -1 kept, so no
window reaches a neighbour; a lone utterance's are its geometry's array as
it is, so one code path serves both, and the backward pass gathers through
the same array.  The lexicon memoizes, per token tuple, the flat (row,
column) index of every cell its bonus raises, so the bonus of a seen
utterance is one scatter of lambda into the raw scores; a new token tuple
is matched by looking up its spans' lowercased tokens, up to the longest
phrase's word count, in an index of the phrases built on the first match.

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

from .core import JOIN, NOSEM, Span, SpanTree, all_spans, span_map

UNK = "<unk>"

HIDDEN = 250  # classifier hidden width
H_DIM = 64
N_LAYERS = 2
WINDOW = 3
TAPS = 2 * WINDOW + 1  # an encoder window's width in tokens


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
    """Span bookkeeping and the encoder's gather of every utterance of one
    length n: each layer takes every token's window through ``taps``, one
    index array, in one gather.  Every table, chart and forward pass of
    that length shares it, so nothing in it is mutable."""

    spans: tuple  # all_spans(n): row k of a table scores spans[k]
    row_of: tuple  # row_of[i][j]: the row of span (i, j), 1 <= i <= j <= n
    ii: np.ndarray  # the 0-based start token of each row
    jj: np.ndarray  # the 0-based end token of each row
    # (2n, rows) of 0/1: times per-row values, row t sums those of the
    # spans that start at token t and row n + t those that end there.
    by_token: np.ndarray
    # The rows an encoder layer gathers, flat: entries t * TAPS up to
    # (t + 1) * TAPS are token t's window, tokens t - WINDOW .. t + WINDOW,
    # with -1 (the zero row after the layer's rows) for a tap off the
    # utterance.
    taps: np.ndarray


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
    taps = (np.arange(n)[:, None] + np.arange(-WINDOW, WINDOW + 1)).reshape(-1)
    taps[(taps < 0) | (taps >= n)] = -1
    for array in (ii, jj, by_token, taps):
        array.flags.writeable = False
    return _Geometry(spans, tuple(map(tuple, row_of)), ii, jj, by_token, taps)


def _stacked(arrays: list, shifts: list) -> np.ndarray:
    """``arrays[k] + shifts[k]``, concatenated.  The first shift is 0, so
    a lone array is returned as it is."""
    if len(arrays) == 1:
        return arrays[0]
    return np.concatenate([a + s for a, s in zip(arrays, shifts)])


def _stacked_taps(geometries: list, first: list) -> np.ndarray:
    """The batch's taps: each member's shifted by the tokens before it,
    with -1, the zero row after the whole batch's rows, kept as it is."""
    if len(geometries) == 1:
        return geometries[0].taps
    return np.concatenate([np.where(g.taps < 0, -1, g.taps + t)
                           for g, t in zip(geometries, first)])


def _with_zero_row(rows: int, width: int) -> np.ndarray:
    """A (rows + 1, width) array whose last row is zero and the rest not
    yet written: a layer's rows with the row that off-utterance taps
    read."""
    out = np.empty((rows + 1, width))
    out[rows] = 0.0
    return out


def _im2col(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Every token's window of ``x`` as one row: ``x`` holds one row per
    token and a zero row last, and ``taps`` names the rows to gather."""
    return x.take(taps, axis=0).reshape(-1, TAPS * x.shape[1])


@dataclass
class Lexicon:
    """Exact-match phrase -> constant-name lookup; lookup is exact on the
    token-joined, lowercased span string."""

    entries: dict = field(default_factory=dict)
    # The entries keyed by their phrase's words, and the most words of a
    # phrase; built on the first ``matches``.
    _index: tuple | None = field(default=None, init=False, repr=False,
                                 compare=False)
    _matches: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)  # tokens -> [(span row, name)]
    # tokens -> (cat_index, flat cells), for the last category index asked
    _cells: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def add(self, phrase: str, constant: str) -> None:
        self.entries.setdefault(phrase.lower(), set()).add(constant)
        self._index = None
        self._matches.clear()
        self._cells.clear()

    def matches(self, tokens: tuple) -> list:
        """``(row, name)`` for every span of ``tokens``, by its row in
        ``all_spans`` order, whose phrase, its tokens joined by spaces and
        lowercased, the lexicon maps to ``name``; memoized per token tuple.
        Tokens hold no space, as ``core.tokenize`` makes them: a span is
        looked up as its lowercased tokens among the phrases split at each
        space, and only spans of at most the longest phrase's words are."""
        hits = self._matches.get(tokens)
        if hits is None:
            if self._index is None:
                index = {tuple(phrase.split(" ")): names
                         for phrase, names in self.entries.items()}
                self._index = index, max(map(len, index), default=0)
            index, longest = self._index
            words = [t.lower() for t in tokens]
            row_of = _geometry(len(tokens)).row_of
            hits = self._matches[tokens] = [
                (row_of[i + 1][j], name)
                for i in range(len(words))
                for j in range(i + 1, min(i + longest, len(words)) + 1)
                for name in index.get(tuple(words[i:j]), ())]
        return hits

    def bonus_cells(self, tokens: tuple, cat_index: dict) -> np.ndarray:
        """The flat index ``row * len(cat_index) + column`` of every match
        of ``tokens`` whose name ``cat_index`` gives a column, in a raw
        score matrix of ``tokens``'s spans; memoized per token tuple for
        the category index last asked with.  A ValueError when a match
        names a reserved label, since the bonus would raise a NoSem or
        Join column."""
        memo = self._cells.get(tokens)
        if memo is not None and memo[0] is cat_index:
            return memo[1]
        cells = []
        for row, name in self.matches(tokens):
            if name in (NOSEM, JOIN):
                span = _geometry(len(tokens)).spans[row]
                raise ValueError(
                    f"lexicon phrase {' '.join(tokens[span.start - 1:span.end])!r} "
                    f"names the reserved label {name!r}")
            col = cat_index.get(name)
            if col is not None:
                cells.append(row * len(cat_index) + col)
        cells = np.array(cells, dtype=np.intp)
        cells.flags.writeable = False
        self._cells[tokens] = cat_index, cells
        return cells

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
        self._init_sizes(vocab_tokens, categories, lam, seed)
        rng = np.random.default_rng(seed)
        self.params = {key: np.zeros(shape) if std is None
                       else rng.normal(0.0, std, size=shape)
                       for key, (shape, std) in self._param_specs().items()}

    @classmethod
    def _with_params(cls, vocab_tokens, categories, lam, seed, stored) -> "SpanScorer":
        """A scorer whose parameter ``key`` is ``stored(key, shape)``, with
        ``shape`` the one ``__init__`` builds: no parameter is drawn."""
        scorer = cls.__new__(cls)
        scorer._init_sizes(vocab_tokens, categories, lam, seed)
        scorer.params = {key: stored(key, shape)
                         for key, (shape, _) in scorer._param_specs().items()}
        return scorer

    def _init_sizes(self, vocab_tokens, categories, lam, seed) -> None:
        self.vocab = {UNK: 0}
        for tok in vocab_tokens:
            self.vocab.setdefault(tok, len(self.vocab))
        self.categories = list(categories)
        self.cat_index = {c: k for k, c in enumerate(self.categories)}
        self.lam = lam
        self.seed = seed

    def _param_specs(self) -> dict:
        """Each parameter's shape and the standard deviation of its normal
        initialization (None: zeros), in the order ``__init__`` draws them."""
        d, taps = H_DIM, TAPS
        scale = 1.0 / np.sqrt(d)
        specs = {"emb": ((len(self.vocab), d), 0.5)}
        for layer in range(N_LAYERS):
            specs[f"mix{layer}_W"] = ((taps, d, d), scale / np.sqrt(taps))
            specs[f"mix{layer}_b"] = ((d,), None)
        specs["W1"] = ((HIDDEN, 2 * d), 1.0 / np.sqrt(2 * d))
        specs["W2"] = ((len(self.categories), HIDDEN), 1.0 / np.sqrt(HIDDEN))
        return specs

    # -- encoding ----------------------------------------------------------

    def token_ids(self, utterances: list) -> np.ndarray:
        """The vocabulary id of every token of ``utterances``, in order."""
        get = self.vocab.get
        return np.array([get(t, 0) for u in utterances for t in u.tokens], dtype=int)

    def encode(self, utterances: list):
        """Contextual vectors of every token of ``utterances``, stacked in
        order; returns (H, cache) with the cache holding the batch's taps
        and each layer's activations for the backward pass.

        Each layer's rows are the batch's tokens in order and then one zero
        row.  The next layer gathers every token's window from them
        through the batch's taps (``_stacked_taps``), a tap off its
        utterance reading the zero row, so that no window reaches a
        neighbour, and mixes it in one GEMM with its taps stacked,
        (taps * d, d).
        """
        geometries = [_geometry(len(u)) for u in utterances]
        first = list(accumulate((len(u) for u in utterances), initial=0))  # tokens
        ids = self.token_ids(utterances)
        emb = self.params["emb"]
        x = _with_zero_row(len(ids), emb.shape[1])
        emb.take(ids, axis=0, out=x[:-1])
        cache = {"ids": ids, "geometries": geometries, "first": first,
                 "taps": _stacked_taps(geometries, first), "layers": [x]}
        for layer in range(N_LAYERS):
            W, b = self.params[f"mix{layer}_W"], self.params[f"mix{layer}_b"]
            x = _with_zero_row(len(ids), W.shape[2])
            h = x[:-1]
            np.matmul(_im2col(cache["layers"][-1], cache["taps"]),
                      W.reshape(-1, W.shape[2]), out=h)
            h += b  # the bias and tanh in place: the same sums as tanh(xW + b)
            np.tanh(h, out=h)
            cache["layers"].append(x)
        return cache["layers"][-1][:-1], cache

    def _encode_backward(self, cache, dH, grads) -> None:
        dx, taps = dH, cache["taps"]
        for layer in reversed(range(N_LAYERS)):
            W = self.params[f"mix{layer}_W"]
            dpre = _with_zero_row(len(dx), dx.shape[1])
            rows = dpre[:-1]
            np.multiply(dx, 1.0 - cache["layers"][layer + 1][:-1] ** 2, out=rows)
            grads[f"mix{layer}_b"] = rows.sum(axis=0)
            # The gathered windows are gathered again rather than kept:
            # they are (taps * d) wide per token.
            columns = _im2col(cache["layers"][layer], taps)
            grads[f"mix{layer}_W"] = (columns.T @ rows).reshape(W.shape)
            # The gather's adjoint is the same gather with the taps
            # reversed: tap o of the token at offset o - w reads this one.
            dx = _im2col(dpre, taps) @ W[::-1].transpose(0, 2, 1).reshape(-1, W.shape[1])
        grads["emb"] = np.zeros_like(self.params["emb"])
        np.add.at(grads["emb"], cache["ids"], dx)

    # -- scoring -----------------------------------------------------------

    def score_spans(self, utterances: list, lexicon: Lexicon | None = None) -> list:
        """One ScoreTable per utterance, from one forward pass over them
        all.  Each table is a row slice of one raw matrix and carries the
        batch's forward cache, which ``loss_and_grads`` reads.  GEMM
        rounding depends on the batch, so a table's scores may differ from
        those of the same utterance scored alone in the last bits.  The
        lexicon adds ``lam`` at each cell of ``Lexicon.bonus_cells``."""
        H, cache = self.encode(utterances)
        W1, d = self.params["W1"], H_DIM
        geometries, first = cache["geometries"], cache["first"]
        offsets = list(accumulate((len(g.spans) for g in geometries), initial=0))  # rows
        ii = _stacked([g.ii for g in geometries], first)
        jj = _stacked([g.jj for g in geometries], first)
        R = (H @ W1[:, :d].T).take(ii, axis=0)
        R += (H @ W1[:, d:].T).take(jj, axis=0)
        np.maximum(R, 0.0, out=R)  # in place: R > 0 is the ReLU's mask
        raw = R @ self.params["W2"].T
        if lexicon is not None:
            width = len(self.cat_index)
            raw.reshape(-1)[_stacked(
                [lexicon.bonus_cells(u.tokens, self.cat_index) for u in utterances],
                [lo * width for lo in offsets])] += self.lam
        cache.update(offsets=offsets, R=R, raw=raw, cat_index=self.cat_index)
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
        H, W1, d = cache["layers"][-1][:-1], self.params["W1"], H_DIM
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
    children side by side, and a NoSem child is always a leaf.  It is the
    package's one tree builder: a parse result and a K-best candidate
    carry a label row, and their ``tree`` is this over it."""
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
            # No parameter is drawn, but the seed must still be one that
            # SpanScorer could draw them from.
            np.random.SeedSequence(meta["seed"])

            def stored(key, shape):
                array = blob[f"param_{key}"]
                if array.shape != shape:
                    raise ValueError(f"checkpoint parameter {key} has shape "
                                     f"{array.shape}, its sizes give {shape}")
                if not np.isfinite(array).all():
                    raise ValueError(f"checkpoint parameter {key} is not finite")
                return array

            scorer = SpanScorer._with_params(
                [t for t in meta["vocab"] if t != UNK], meta["categories"],
                lam, meta["seed"], stored)
    # What zipfile raises for a damaged archive (an encryption flag is a
    # RuntimeError), and what NumPy's .npy header parser lets out.
    except (zipfile.BadZipFile, EOFError, NotImplementedError, RuntimeError,
            SyntaxError, tokenize.TokenError) as exc:
        raise ValueError(f"not an intact .npz checkpoint ({exc})") from None
    return scorer, meta["extra"]
