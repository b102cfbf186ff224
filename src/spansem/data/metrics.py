"""Evaluation metrics: denotation accuracy and labeled-span F1."""

from __future__ import annotations

from ..core import SpanTree, labeled_spans


def denotation_accuracy(pred_denotations: list, gold_denotations: list) -> float:
    """Fraction of examples whose predicted denotation equals the gold one.

    A None prediction (parse failure) counts as incorrect but stays in the
    denominator.
    """
    if len(pred_denotations) != len(gold_denotations):
        raise ValueError("prediction/gold length mismatch")
    if not gold_denotations:
        raise ValueError("empty evaluation set")
    hits = sum(1 for p, g in zip(pred_denotations, gold_denotations)
               if p is not None and p == g)
    return hits / len(gold_denotations)


def span_f1_counts(pred_tree: SpanTree | None, gold_tree: SpanTree):
    """(true positives, predicted, gold) over labeled spans, NoSem excluded;
    a None prediction has no spans."""
    pred = set() if pred_tree is None else labeled_spans(pred_tree)
    gold = labeled_spans(gold_tree)
    return len(pred & gold), len(pred), len(gold)


def labeled_span_f1(pred_tree: SpanTree, gold_tree: SpanTree) -> float:
    tp, n_pred, n_gold = span_f1_counts(pred_tree, gold_tree)
    return f1_from_counts(tp, n_pred, n_gold)


def f1_from_counts(tp: int, n_pred: int, n_gold: int) -> float:
    if n_pred == 0 and n_gold == 0:
        return 1.0
    if tp == 0:
        return 0.0
    precision = tp / n_pred
    recall = tp / n_gold
    return 2 * precision * recall / (precision + recall)


def corpus_labeled_span_f1(pairs: list) -> float:
    """Micro-averaged F1 over (pred_tree, gold_tree) pairs; a None
    prediction contributes its gold spans as misses."""
    tp = n_pred = n_gold = 0
    for pred, gold in pairs:
        a, b, c = span_f1_counts(pred, gold)
        tp, n_pred, n_gold = tp + a, n_pred + b, n_gold + c
    return f1_from_counts(tp, n_pred, n_gold)
