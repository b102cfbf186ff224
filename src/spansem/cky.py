"""Approximate K-best CKY inference and its program-constrained variant.

The chart keeps, per span, a ranked list of up to K derivations for the
Join nonterminal (which also hosts bare constant leaves) and a fixed
zero-score NoSem entry.  Cells are filled by lazy pairwise merging of the
children's rank lists through a priority queue, so the K-best frontier is
explored without materializing K^2 candidates per split.

Binary rules: root -> Join Join | NoSem Join; Join -> Join Join
| Join NoSem.  With the non-projective extension on, Join -> Join Join
Join is added: the two outer children compose first, then the middle.

The constrained variant composes every node as ``program_of_tree`` does
(``typesys.compose_children``) and keeps it only while its program is
admissible against the gold program, so every tree it returns maps to gold.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass

from .core import Category, Span, SpanTree
from .scorer import ScoreTable
from .typesys import (
    CompositionFailure,
    DomainSchema,
    Program,
    compose_children,
    program_of_tree,
)
# Unused here; bound so that perfbench/tracing.py can patch it in this module.
from .typesys import compose_candidates  # noqa: F401

NEG_INF = -1e9  # -infinity sentinel immune to NaN propagation


class EmptyInput(ValueError):
    """Cannot parse an empty utterance."""


@dataclass(frozen=True)
class Grammar:
    """Rule set switch: the fixed binary grammar, optionally extended with
    the ternary non-projective rule."""

    ternary: bool = False


@dataclass
class Derivation:
    score: float
    span: Span
    category: Category
    children: tuple = ()
    program: Program | None = None

    def to_tree(self, is_root: bool = False) -> SpanTree:
        return SpanTree(
            self.span,
            self.category,
            tuple(c.to_tree() for c in self.children),
            is_root=is_root,
        )


@dataclass
class ParseResult:
    tree: SpanTree
    score: float
    program: Program | None = None


@dataclass
class _Source:
    """One combination (rule + split points) feeding a cell's k-best merge.

    A source with one child list (leaf constants, or the root's whole-span
    Join) passes its derivations through; a rule source adds ``base``, the
    span's Join score, to its children's scores.
    """

    order: tuple  # deterministic tie-break key (kind, splits)
    child_lists: list
    base: float = 0.0


class _Constraint:
    """Pruning data for the hard-EM search: the gold program's constant
    names (the leaf mask), and the partial-program admissibility test
    against its subterms."""

    def __init__(self, gold: Program, schema: DomainSchema):
        self.gold = gold
        self.schema = schema
        self.by_head: dict = {}
        for sub in gold.subterms():
            self.by_head.setdefault(sub.head.name, []).append(sub)
        self.names = set(self.by_head)

    def admissible(self, program: Program) -> bool:
        for sub in self.by_head.get(program.head.name, ()):
            if all(pa is None or pa == ga
                   for pa, ga in zip(program.args, sub.args)):
                return True
        return False

    def compose(self, programs: list):
        """The node's program as ``program_of_tree`` composes it, or None
        when it does not compose or is not admissible."""
        program = compose_children(programs, self.schema)
        if program is None or not self.admissible(program):
            return None
        return program


class _Chart:
    def __init__(self, table: ScoreTable, grammar: Grammar, K: int,
                 constraint: _Constraint | None = None, stats: dict | None = None):
        if table.n < 1:
            raise EmptyInput("empty utterance")
        self.table = table
        self.grammar = grammar
        self.K = K
        self.constraint = constraint
        self.stats = stats if stats is not None else {}
        self.stats.setdefault("combinations", 0)
        self.join_col = table.cat_index[Category.join()]
        self.cells: dict = {}
        self._leaf_order = self._rank_constants()
        for length in range(1, table.n + 1):
            for i in range(1, table.n - length + 2):
                j = i + length - 1
                self.cells[(i, j)] = self._fill_join_cell(i, j)
        self.root = self._fill_root_cell()

    # -- leaf constants ----------------------------------------------------

    def _rank_constants(self) -> dict:
        """Per span: constant categories sorted by shifted score, best first."""
        table = self.table
        names = self.constraint.names if self.constraint else None
        ranked = {}
        for span in table.spans:
            row = table.shifted[table.span_index[span]]
            cats = [
                (float(row[table.cat_index[c]]), c)
                for c in table.categories
                if c.is_constant and (names is None or c.label in names)
            ]
            cats.sort(key=lambda sc: (-sc[0], sc[1].label))
            ranked[span] = cats
        return ranked

    def _leaf_derivs(self, i: int, j: int) -> list:
        span = Span(i, j)
        out = []
        for score, cat in self._leaf_order[span][: self.K]:
            if score <= NEG_INF / 2:
                continue
            program = None
            if self.constraint is not None:
                program = self.constraint.schema.atom(cat.label)
            out.append(Derivation(score, span, cat, (), program))
        return out

    def _nosem_leaf(self, i: int, j: int) -> Derivation:
        return Derivation(0.0, Span(i, j), Category.nosem())

    # -- combination ------------------------------------------------------

    def _derive(self, span: Span, source: _Source, children: tuple):
        """The derivation a source builds from one choice of children, or
        None when the constraint rejects the node's program."""
        if len(children) == 1:
            return children[0]
        # base + c1 + c2 (+ c3), in this order: sum() rounds differently.
        score = source.base
        for child in children:
            score += child.score
        program = None
        if self.constraint is not None:
            program = self.constraint.compose([c.program for c in children])
            if program is None:
                return None
        return Derivation(score, span, Category.join(), children, program)

    # -- k-best cell fill --------------------------------------------------

    def _merge(self, span: Span, sources: list) -> list:
        """Lazy k-best merge over combination sources via a priority queue."""
        heap = []
        seen = set()
        seq = 0

        def push(si: int, ranks: tuple):
            nonlocal seq
            if (si, ranks) in seen:
                return
            source = sources[si]
            children = []
            for lst, r in zip(source.child_lists, ranks):
                if r >= len(lst):
                    return
                children.append(lst[r])
            seen.add((si, ranks))
            score = source.base + sum(c.score for c in children)
            heapq.heappush(heap, (-score, source.order, ranks, seq, si, tuple(children)))
            seq += 1

        for si in range(len(sources)):
            push(si, (0,) * len(sources[si].child_lists))

        out = []
        while heap and len(out) < self.K:
            _, _, ranks, _, si, children = heapq.heappop(heap)
            deriv = self._derive(span, sources[si], children)
            if deriv is not None:
                out.append(deriv)
            for pos in range(len(ranks)):
                nxt = list(ranks)
                nxt[pos] += 1
                push(si, tuple(nxt))
        return out

    def _fill_join_cell(self, i: int, j: int) -> list:
        span = Span(i, j)
        base = float(self.table.shifted[self.table.span_index[span], self.join_col])
        sources = [_Source((0, ()), [self._leaf_derivs(i, j)])]
        for s in range(i, j):
            self.stats["combinations"] += 1
            sources.append(_Source((1, (s,)),
                                   [self.cells[(i, s)], self.cells[(s + 1, j)]],
                                   base))
            self.stats["combinations"] += 1
            sources.append(_Source((2, (s,)),
                                   [self.cells[(i, s)], [self._nosem_leaf(s + 1, j)]],
                                   base))

        if self.grammar.ternary and j - i >= 2:
            for s1 in range(i, j - 1):
                for s2 in range(s1 + 1, j):
                    self.stats["combinations"] += 1
                    sources.append(_Source(
                        (3, (s1, s2)),
                        [self.cells[(i, s1)], self.cells[(s1 + 1, s2)],
                         self.cells[(s2 + 1, j)]],
                        base))
        return self._merge(span, sources)

    def _fill_root_cell(self) -> list:
        i, j = 1, self.table.n
        span = Span(i, j)
        base = float(self.table.shifted[self.table.span_index[span], self.join_col])
        sources = [_Source((0, ()), [self.cells[(i, j)]])]
        for s in range(i, j):
            self.stats["combinations"] += 1
            sources.append(_Source((2, (s,)),
                                   [[self._nosem_leaf(i, s)], self.cells[(s + 1, j)]],
                                   base))
        return self._merge(span, sources)

    def to_json(self) -> dict:
        def entry(deriv: Derivation) -> dict:
            out = {"score": deriv.score, "category": deriv.category.label,
                   "span": [deriv.span.start, deriv.span.end]}
            if deriv.children:
                out["children"] = [[c.span.start, c.span.end,
                                    c.category.label] for c in deriv.children]
            if deriv.program is not None:
                out["program"] = str(deriv.program)
            return out

        cells = {f"{i},{j}": [entry(d) for d in derivs]
                 for (i, j), derivs in sorted(self.cells.items())}
        return {"n": self.table.n, "K": self.K, "cells": cells,
                "root": [entry(d) for d in self.root]}


def parse_kbest(table: ScoreTable, grammar: Grammar, K: int,
                stats: dict | None = None, return_chart: bool = False):
    """Top-K grammar-legal trees for the whole utterance, best first."""
    chart = _Chart(table, grammar, K, constraint=None, stats=stats)
    results = [ParseResult(d.to_tree(is_root=True), d.score) for d in chart.root]
    if return_chart:
        return results, chart
    return results


def best_valid_tree(candidates: list, schema: DomainSchema):
    """First candidate (descending score) whose tree composes to a program;
    None when all of them are semantically invalid."""
    for cand in candidates:
        try:
            program = program_of_tree(cand.tree, schema)
        except CompositionFailure:
            continue
        return ParseResult(cand.tree, cand.score, program)
    return None


def constrained_parse(table: ScoreTable, grammar: Grammar, gold: Program,
                      schema: DomainSchema, K: int,
                      stats: dict | None = None):
    """Highest-scoring tree whose program equals ``gold``, or None.

    Constants absent from the gold program are masked out, and every node
    composes as ``program_of_tree`` composes it, kept only while its
    program stays within the gold program's subterms (partial applications
    included).  So every returned tree maps to ``gold``.
    """
    constraint = _Constraint(gold, schema)
    chart = _Chart(table, grammar, K, constraint=constraint, stats=stats)
    for deriv in chart.root:
        if deriv.program == gold:
            return ParseResult(deriv.to_tree(is_root=True), deriv.score, gold)
    return None


def dump_chart(chart: _Chart, path) -> None:
    with open(path, "w") as fh:
        json.dump(chart.to_json(), fh, indent=2, sort_keys=True)
