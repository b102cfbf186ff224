"""Spans and counters recorded around calls into spansem, from outside.

Nothing under ``src/`` is edited: the benchmark replaces module attributes
with timing wrappers for the duration of a traced unit and puts the
originals back afterwards.  A name bound with ``from .x import y`` is
patched in the module that uses it (``spansem.trainer.constrained_parse``,
``spansem.cky.program_of_tree``, ...), because rebinding it in its home
module would not reach those callers.

Spans stay in memory (id, parent id, phase, name, start, end) and are
written as JSON lines when the run ends.  Calls that happen thousands of
times per parse (``compose_candidates``) are counted and timed without a
span of their own.
"""

from __future__ import annotations

import json
import multiprocessing
import time
import types
from collections import defaultdict
from contextlib import contextmanager


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, phase, name, start, end)
        self.phase = "setup"
        self._stack = []
        self.totals = defaultdict(lambda: defaultdict(float))  # phase -> key -> value

    def add(self, key, value=1):
        self.totals[self.phase][key] += value

    @contextmanager
    def span(self, name, record=True):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)  # a span's id is its position in the list
        if record:
            self.spans.append(None)  # reserved here, filled on exit
            self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        except Exception:
            self.add(name + ".errors")
            raise
        finally:
            end = time.perf_counter()
            self.add(name + ".calls")
            self.add(name + ".ms", 1000.0 * (end - start))
            if record:
                self._stack.pop()
                self.spans[sid] = (sid, parent, self.phase, name, start, end)

    def wrap(self, name, fn, record=True):
        def traced(*args, **kwargs):
            with self.span(name, record):
                return fn(*args, **kwargs)

        return traced

    def self_ms(self, phase, name):
        """Summed duration of ``name`` spans in ``phase`` minus the time
        covered by their direct child spans."""
        child_ms = defaultdict(float)
        for s in self.spans:
            if s[2] == phase and s[1] is not None:
                child_ms[s[1]] += 1000.0 * (s[5] - s[4])
        return sum(1000.0 * (s[5] - s[4]) - child_ms[s[0]]
                   for s in self.spans if s[2] == phase and s[3] == name)

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, phase, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "phase": phase, "name": name,
                                     "start": start, "end": end}) + "\n")


def install(tracer: Tracer, patches: Patches, spansem) -> None:
    """Wrap each layer's entry points; ``spansem`` is the imported package
    with its submodules loaded.  Executors are bound into each ``Domain``
    when it is built, so the runner wraps ``domain.execute`` itself."""
    trainer, cky, typesys, scorer, cli = (spansem.trainer, spansem.cky,
                                          spansem.typesys, spansem.scorer,
                                          spansem.cli)

    def chart(key, fn):
        """Passes the chart a fresh ``stats`` dict and records its
        combination count in total and per call, keyed by length and grammar."""

        def counted(table, grammar, *args, **kwargs):
            stats = {}
            start = time.perf_counter()
            result = fn(table, grammar, *args, stats=stats, **kwargs)
            size = f"n{table.n}" + ("_ternary" if grammar.ternary else "")
            tracer.add(f"cky.{key}.{size}.ms", 1000.0 * (time.perf_counter() - start))
            tracer.add(f"cky.{key}.{size}.calls")
            combos = stats["combinations"]
            tracer.add("cky.combinations", combos)
            tracer.add(f"cky.{key}.combinations", combos)
            tracer.add(f"cky.{key}.{size}.combinations", combos)
            if key == "constrained_parse" and result is None:
                tracer.add("cky.constrained_parse.misses")
            return result

        return tracer.wrap(f"cky.{key}", counted)

    for key in ("constrained_parse", "parse_kbest"):
        patches.set(trainer, key, chart(key, getattr(trainer, key)))

    # program_of_tree calls made inside best_valid_tree are its tries.
    bvt, pot = trainer.best_valid_tree, cky.program_of_tree
    inside_bvt = [0]

    def best_valid_tree(candidates, schema):
        inside_bvt[0] += 1
        try:
            result = bvt(candidates, schema)
        finally:
            inside_bvt[0] -= 1
        if result is not None:
            tracer.add("cky.best_valid_tree.valid")
        return result

    def program_of_tree(tree, schema):
        if inside_bvt[0]:
            tracer.add("cky.best_valid_tree.tries")
        try:
            return pot(tree, schema)
        except typesys.CompositionFailure:
            tracer.add("typesys.program_of_tree.failures")
            raise

    patches.set(trainer, "best_valid_tree",
                tracer.wrap("cky.best_valid_tree", best_valid_tree))
    patches.set(cky, "program_of_tree",
                tracer.wrap("typesys.program_of_tree", program_of_tree))
    for module in (cky, typesys):
        patches.set(module, "compose_candidates",
                    tracer.wrap("typesys.compose_candidates",
                                module.compose_candidates, record=False))

    cls = scorer.SpanScorer
    patches.set(cls, "score_spans", tracer.wrap("scorer.score_spans", cls.score_spans))
    patches.set(cls, "loss_and_grads",
                tracer.wrap("scorer.loss_and_grads", cls.loss_and_grads))
    patches.set(cls, "labels_for_tree",
                tracer.wrap("core.labels_for_tree", cls.labels_for_tree))
    patches.set(trainer, "sgd_step", tracer.wrap("scorer.sgd_step", trainer.sgd_step))
    for name in ("train", "hard_em_step", "evaluate", "predict"):
        patches.set(trainer, name, tracer.wrap(f"trainer.{name}", getattr(trainer, name)))

    for name in ("load_checkpoint", "load_domain", "read_examples"):
        patches.set(cli, name, tracer.wrap(f"cli.{name}", getattr(cli, name)))
    # cmd_eval builds its pool as multiprocessing.get_context(m).Pool(...);
    # the stand-in times that constructor and nothing else.
    patches.set(cli, "multiprocessing", types.SimpleNamespace(
        get_context=lambda method: types.SimpleNamespace(
            Pool=tracer.wrap("cli.pool_start",
                             multiprocessing.get_context(method).Pool))))
