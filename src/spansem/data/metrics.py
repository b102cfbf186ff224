"""Evaluation metrics: labeled-span F1 counts over label rows."""

from __future__ import annotations


def row_f1_counts(pred: tuple | None, gold: tuple, nosem: int):
    """(true positives, predicted, gold) labeled spans of two label rows of
    one utterance (tuples of one category index per span row, as
    ``SpanScorer.labels_for_tree`` and the charts write them), NoSem
    excluded; a None prediction has no spans.  Each node of a grammar-legal
    tree has a span of its own, so a row holds one entry per labeled node
    and these are the counts over the trees' (span, category) sets."""
    n_gold = len(gold) - gold.count(nosem)
    if pred is None:
        return 0, 0, n_gold
    tp = sum(p == g != nosem for p, g in zip(pred, gold, strict=True))
    return tp, len(pred) - pred.count(nosem), n_gold


def f1_from_counts(tp: int, n_pred: int, n_gold: int) -> float:
    if n_pred == 0 and n_gold == 0:
        return 1.0
    if tp == 0:
        return 0.0
    precision = tp / n_pred
    recall = tp / n_gold
    return 2 * precision * recall / (precision + recall)
