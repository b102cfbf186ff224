"""Evaluation metrics: labeled-span F1 counts."""

from __future__ import annotations

from ..core import SpanTree, labeled_spans


def span_f1_counts(pred_tree: SpanTree | None, gold_tree: SpanTree):
    """(true positives, predicted, gold) over labeled spans, NoSem excluded;
    a None prediction has no spans."""
    pred = set() if pred_tree is None else labeled_spans(pred_tree)
    gold = labeled_spans(gold_tree)
    return len(pred & gold), len(pred), len(gold)


def f1_from_counts(tp: int, n_pred: int, n_gold: int) -> float:
    if n_pred == 0 and n_gold == 0:
        return 1.0
    if tp == 0:
        return 0.0
    precision = tp / n_pred
    recall = tp / n_gold
    return 2 * precision * recall / (precision + recall)
