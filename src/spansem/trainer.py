"""Hard-EM training of the span scorer from (utterance, program) pairs.

Each batch runs an E-step: for every example, the constrained parser finds
the highest-scoring tree under the current model whose program equals the
gold program.  The search is exact, so an example is skipped for that
batch only when no grammar-legal tree over its utterance maps to the gold
program.  Its chart structure is compiled once per (utterance length,
gold template, grammar), a template being the gold program with its
constants renamed within their signature classes, and kept in the
schema's composition table; every later example of that length and
template, in any epoch or ``train`` call on the schema, only evaluates it
over new scores.  The M-step reads a tree only as its label row, one
category index per span (NoSem where no node is), so the E-step builds no
tree and hands over the row it writes from its chart; ``target_labels`` is
the one place that picks an example's row.  The M-step treats the rows as
supervision and takes one momentum-SGD step on the summed per-span
cross-entropy.  When gold trees are available the E-step is bypassed and
their rows are used directly.  A batch takes one forward and one backward
pass: its examples are scored together, each E-step reads its own table,
and the M-step backpropagates the whole batch from the forward cache the
tables share.
"""

from __future__ import annotations

import functools
import json
import math
import random
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .cky import Grammar, best_valid_tree, constrained_parse, parse_kbest
from .core import SpanTree, Utterance
from .data.metrics import f1_from_counts, span_f1_counts
from .scorer import Lexicon, ScoreTable, SpanScorer, sgd_step
from .typesys import DomainSchema, Program


class ConfigError(ValueError):
    """Invalid training configuration."""


@dataclass(frozen=True)
class TrainExample:
    utterance: Utterance
    program: Program
    tree: SpanTree | None = None
    denotation: object = None


@dataclass(frozen=True)
class Domain:
    """Everything the trainer needs to know about a target language:
    the schema, the lexicon fed to the scorer, and the executor."""

    name: str
    schema: DomainSchema
    lexicon: Lexicon | None
    execute: object  # fn(Program) -> denotation, raises ValueError

    def run(self, program: Program | None):
        if program is None:
            return None
        try:
            return self.execute(program)
        except ValueError:
            return None


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.002
    batch_size: int = 5
    max_epochs: int = 30
    patience: int = 3
    K: int = 5
    lam: float = 10.0
    momentum: float = 0.5
    seed: int = 0
    ternary: bool = False
    use_gold_trees: bool = False
    curriculum_epochs: int = 0

    def validate(self) -> None:
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            accepted = (int, float) if kind is float else kind
            if (isinstance(value, bool) != (kind is bool)
                    or not isinstance(value, accepted)):
                raise ConfigError(f"{f.name} must be a {kind.__name__}, not {value!r}")
            # Exact for an int of any size; False for NaN and the infinities.
            if kind is float and not abs(value) <= sys.float_info.max:
                raise ConfigError(f"{f.name} must be finite, not {value!r}")
        for name in ("lr", "batch_size", "max_epochs", "patience", "K"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("lam", "seed", "curriculum_epochs"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must be in [0, 1)")


@dataclass
class TrainResult:
    scorer: SpanScorer
    history: list
    best_epoch: int
    best_dev_accuracy: float | None  # None without dev examples


def vocabulary(examples) -> list:
    tokens = set()
    for ex in examples:
        tokens.update(ex.utterance.tokens)
    return sorted(tokens)


def target_labels(scorer: SpanScorer, table: ScoreTable, ex: TrainExample,
                  domain: Domain, grammar: Grammar,
                  config: TrainConfig) -> np.ndarray | tuple | None:
    """Supervision for one example scored as ``table``, one category index
    per span row: the gold tree's row when configured and present,
    otherwise the row the constrained parse writes for its best tree (None
    when no tree over the utterance composes to the gold program)."""
    if config.use_gold_trees and ex.tree is not None:
        return scorer.labels_for_tree(ex.tree, table.n)
    result = constrained_parse(table, grammar, ex.program, domain.schema)
    return None if result is None else result.labels


def hard_em_step(scorer: SpanScorer, batch: list, domain: Domain,
                 grammar: Grammar, config: TrainConfig):
    """One E+M step on a batch; returns (loss, used, skipped, grads), the
    gradients averaged over the examples used."""
    tables = scorer.score_spans([ex.utterance for ex in batch], domain.lexicon)
    labels = [target_labels(scorer, table, ex, domain, grammar, config)
              for table, ex in zip(tables, batch)]
    used = sum(rows is not None for rows in labels)
    skipped = len(batch) - used
    loss, grads = scorer.loss_and_grads(tables, labels)
    if used:
        for g in grads.values():
            g /= used
    return loss, used, skipped, grads


def predict(scorer: SpanScorer, utt: Utterance, domain: Domain,
            grammar: Grammar, K: int):
    """Best semantically valid tree for an utterance, or None."""
    table, = scorer.score_spans([utt], domain.lexicon)
    return best_valid_tree(parse_kbest(table, grammar, K), domain.schema)


def evaluate_example(scorer: SpanScorer, domain: Domain, grammar: Grammar,
                     K: int, ex: TrainExample):
    """One example's report record, whether its prediction has no
    denotation (no valid tree, or an executor error), and its labeled-span
    counts (None without a gold tree)."""
    result = predict(scorer, ex.utterance, domain, grammar, K)
    denotation = domain.run(None if result is None else result.program)
    gold = ex.denotation if ex.denotation is not None else domain.run(ex.program)
    record = {
        "utterance": ex.utterance.raw_text,
        "gold_program": str(ex.program),
        "predicted_program": None if result is None else str(result.program),
        "correct": denotation is not None and denotation == gold,
    }
    counts = None
    if ex.tree is not None:
        counts = span_f1_counts(None if result is None else result.tree, ex.tree)
    return record, denotation is None, counts


def evaluate(scorer: SpanScorer, examples: list, domain: Domain,
             grammar: Grammar, K: int) -> dict:
    """Denotation accuracy, failures, labeled-span F1 (examples with gold
    trees), and per-example records, from ``evaluate_example`` applied to
    each example in order."""
    if not examples:
        raise ValueError("empty evaluation set")
    step = functools.partial(evaluate_example, scorer, domain, grammar, K)
    return evaluation_report([step(ex) for ex in examples])


def evaluation_report(results: list) -> dict:
    """The report of ``evaluate``, built from the ``evaluate_example``
    results of a nonempty evaluation set given in file order."""
    records, failed, counts = zip(*results)
    report = {
        "accuracy": sum(r["correct"] for r in records) / len(records),
        "failures": sum(failed),
        "per_example": list(records),
    }
    counts = [c for c in counts if c is not None]
    if counts:
        report["f1"] = f1_from_counts(*(sum(col) for col in zip(*counts)))
    return report


def train(train_examples: list, dev_examples: list, domain: Domain,
          config: TrainConfig, log_path=None) -> TrainResult:
    """Hard-EM training with early stopping on dev denotation accuracy.

    The returned scorer carries the parameters of the best dev epoch.
    Without dev examples nothing stops training early: all ``max_epochs``
    run, the scorer carries the last epoch's parameters, and there is no
    dev accuracy: each history entry's ``dev_accuracy`` and the result's
    ``best_dev_accuracy`` are None.  A NaN or infinite batch loss stops
    training with a ConfigError before the step is taken, and so does an
    epoch whose steps leave a parameter NaN or infinite, or finite but so
    large that its squared norm overflows, before the dev set is evaluated
    (one check per epoch, not per batch).
    """
    config.validate()
    if not train_examples:
        raise ConfigError("empty training set")
    grammar = Grammar(ternary=config.ternary)
    scorer = SpanScorer(vocabulary(train_examples),
                        domain.schema.categories(),
                        lam=config.lam, seed=config.seed)
    velocity = scorer.zero_grads()
    # Execute each dev gold program once, not on every dev pass.
    dev_examples = [ex if ex.denotation is not None
                    else replace(ex, denotation=domain.run(ex.program))
                    for ex in dev_examples]
    rng = random.Random(config.seed)
    history = []
    best_params, best_acc, best_epoch, stale = None, None, -1, 0
    try:
        log = open(log_path, "w") if log_path is not None else None
    except OSError as exc:
        raise ConfigError(f"{log_path}: {exc.strerror or exc}") from None
    try:
        for epoch in range(config.max_epochs):
            order = list(train_examples)
            rng.shuffle(order)
            if epoch < config.curriculum_epochs:
                # Without a lexicon the E-step only succeeds on short
                # utterances at first; presenting them first lets the model
                # anchor single constants before tackling compounds.
                order.sort(key=lambda ex: len(ex.utterance))
            epoch_loss, epoch_used, epoch_skipped = 0.0, 0, 0
            for lo in range(0, len(order), config.batch_size):
                batch = order[lo:lo + config.batch_size]
                loss, used, skipped, grads = hard_em_step(
                    scorer, batch, domain, grammar, config)
                if not math.isfinite(loss):
                    raise ConfigError(f"non-finite loss at epoch {epoch}, "
                                      f"batch {lo // config.batch_size}; lower lr")
                epoch_loss += loss
                epoch_used += used
                epoch_skipped += skipped
                if not used:
                    continue
                for key, v in velocity.items():
                    v *= config.momentum
                    v += grads[key]
                scorer.params = sgd_step(scorer.params, velocity, config.lr)
            broken = [k for k, v in scorer.params.items() if not np.isfinite(v).all()]
            if broken:
                raise ConfigError(f"non-finite parameter {', '.join(broken)} after "
                                  f"epoch {epoch}; lower lr")
            huge = [k for k, v in scorer.params.items()
                    if not math.isfinite(np.vdot(v, v))]
            if huge:
                raise ConfigError(f"parameter {', '.join(huge)} diverged (its norm "
                                  f"overflows) after epoch {epoch}; lower lr")
            dev_acc = (evaluate(scorer, dev_examples, domain, grammar,
                                config.K)["accuracy"]
                       if dev_examples else None)
            entry = {
                "epoch": epoch,
                "train_loss": epoch_loss / max(epoch_used, 1),
                "used": epoch_used,
                "skipped": epoch_skipped,
                "dev_accuracy": dev_acc,
            }
            history.append(entry)
            if log is not None:
                log.write(json.dumps(entry, sort_keys=True) + "\n")
                log.flush()
            if dev_acc is None:
                best_epoch = epoch
            elif best_acc is None or dev_acc > best_acc:
                best_acc, best_epoch, stale = dev_acc, epoch, 0
                best_params = {k: v.copy() for k, v in scorer.params.items()}
            else:
                stale += 1
            if dev_acc == 1.0 or stale > config.patience:
                break
    finally:
        if log is not None:
            log.close()
    if best_params is not None:
        scorer.params = best_params
    return TrainResult(scorer, history, best_epoch, best_acc)
