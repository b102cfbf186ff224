"""Approximate K-best CKY inference and its program-constrained variant.

The chart keeps, per span, a ranked list of up to K derivations for the
Join nonterminal (which also hosts bare constant leaves) and a fixed
zero-score NoSem entry.  Cells are filled by lazy pairwise merging of the
children's rank lists through a priority queue, so the K-best frontier is
explored without materializing K^2 candidates per split.

Binary rules: root -> Join Join | NoSem Join; Join -> Join Join
| Join NoSem.  With the non-projective extension on, Join -> Join Join
Join is added: the two outer children compose first, then the middle.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter
from dataclasses import dataclass

from .core import Category, Span, SpanTree
from .scorer import ScoreTable
from .typesys import (
    CompositionFailure,
    DomainSchema,
    Program,
    compose_candidates,
    constants_of,
    program_of_tree,
)

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
    counts: Counter | None = None

    def to_tree(self, is_root: bool = False) -> SpanTree:
        return SpanTree(
            self.span,
            self.category,
            tuple(c.to_tree() for c in self.children),
            is_root=is_root,
            sub_program=self.program,
        )


@dataclass
class ParseResult:
    tree: SpanTree
    score: float
    program: Program | None = None


@dataclass
class _Source:
    """One combination (rule + split points) feeding a cell's k-best merge.

    ``base`` is the root-label score added on top of the child scores
    (zero for leaf and pass-through sources, whose derivations already
    carry complete scores).
    """

    order: tuple  # deterministic tie-break key (kind, splits)
    child_lists: list
    make: object  # fn(children) -> list[Derivation]
    base: float = 0.0


class _Constraint:
    """Pruning data for the hard-EM search: constants of the gold program,
    and the partial-program admissibility test against its subterms."""

    def __init__(self, gold: Program, schema: DomainSchema):
        self.gold = gold
        self.schema = schema
        self.allowed = Counter(c.name for c in constants_of(gold).elements())
        self.by_head: dict = {}
        for sub in gold.subterms():
            self.by_head.setdefault(sub.head.name, []).append(sub)

    def admissible(self, program: Program) -> bool:
        for sub in self.by_head.get(program.head.name, ()):
            if all(pa is None or pa == ga
                   for pa, ga in zip(program.args, sub.args)):
                return True
        return False

    def within_budget(self, counts: Counter) -> bool:
        return all(v <= self.allowed.get(k, 0) for k, v in counts.items())


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
        allowed = self.constraint.allowed if self.constraint else None
        ranked = {}
        for span in table.spans:
            row = table.shifted[table.span_index[span]]
            cats = [
                (float(row[table.cat_index[c]]), c)
                for c in table.categories
                if c.is_constant and (allowed is None or allowed.get(c.label))
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
            program = counts = None
            if self.constraint is not None:
                program = self.constraint.schema.atom(cat.label)
                counts = Counter({cat.label: 1})
            out.append(Derivation(score, span, cat, (), program, counts))
        return out

    def _nosem_leaf(self, i: int, j: int) -> Derivation:
        counts = Counter() if self.constraint is not None else None
        return Derivation(0.0, Span(i, j), Category.nosem(), (), None, counts)

    # -- combination builders ---------------------------------------------

    def _combine_binary(self, span: Span, base: float, left: Derivation,
                        right: Derivation) -> list:
        children = (left, right)
        score = base + left.score + right.score
        if self.constraint is None:
            return [Derivation(score, span, Category.join(), children)]
        counts = (left.counts or Counter()) + (right.counts or Counter())
        if not self.constraint.within_budget(counts):
            return []
        if left.program is None or right.program is None:
            program = left.program if right.program is None else right.program
            if program is None:
                return []
            return [Derivation(score, span, Category.join(), children,
                               program, counts)]
        out = []
        for program in compose_candidates(left.program, right.program,
                                          self.constraint.schema):
            if self.constraint.admissible(program):
                out.append(Derivation(score, span, Category.join(), children,
                                      program, counts))
        return out

    def _combine_ternary(self, span: Span, base: float, a: Derivation,
                         b: Derivation, c: Derivation) -> list:
        children = (a, b, c)
        score = base + a.score + b.score + c.score
        if self.constraint is None:
            return [Derivation(score, span, Category.join(), children)]
        counts = a.counts + b.counts + c.counts
        if not self.constraint.within_budget(counts):
            return []
        out = []
        schema = self.constraint.schema
        for outer in compose_candidates(a.program, c.program, schema):
            if not self.constraint.admissible(outer):
                continue
            for program in compose_candidates(outer, b.program, schema):
                if self.constraint.admissible(program):
                    out.append(Derivation(score, span, Category.join(),
                                          children, program, counts))
        return out

    # -- k-best cell fill --------------------------------------------------

    def _merge(self, sources: list) -> list:
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
            for deriv in sources[si].make(children):
                if len(out) < self.K:
                    out.append(deriv)
            for pos in range(len(ranks)):
                nxt = list(ranks)
                nxt[pos] += 1
                push(si, tuple(nxt))
        return out

    def _fill_join_cell(self, i: int, j: int) -> list:
        span = Span(i, j)
        base = float(self.table.shifted[self.table.span_index[span], self.join_col])
        sources = [
            _Source((0, ()), [self._leaf_derivs(i, j)], lambda ch: list(ch))
        ]

        def binary_make(ch, span=span, base=base):
            return self._combine_binary(span, base, ch[0], ch[1])

        for s in range(i, j):
            self.stats["combinations"] += 1
            sources.append(_Source((1, (s,)),
                                   [self.cells[(i, s)], self.cells[(s + 1, j)]],
                                   binary_make, base))
            self.stats["combinations"] += 1
            sources.append(_Source((2, (s,)),
                                   [self.cells[(i, s)], [self._nosem_leaf(s + 1, j)]],
                                   binary_make, base))

        if self.grammar.ternary and j - i >= 2:
            def ternary_make(ch, span=span, base=base):
                return self._combine_ternary(span, base, ch[0], ch[1], ch[2])

            for s1 in range(i, j - 1):
                for s2 in range(s1 + 1, j):
                    self.stats["combinations"] += 1
                    sources.append(_Source(
                        (3, (s1, s2)),
                        [self.cells[(i, s1)], self.cells[(s1 + 1, s2)],
                         self.cells[(s2 + 1, j)]],
                        ternary_make, base))
        return self._merge(sources)

    def _fill_root_cell(self) -> list:
        i, j = 1, self.table.n
        span = Span(i, j)
        base = float(self.table.shifted[self.table.span_index[span], self.join_col])
        sources = [
            _Source((0, ()), [self.cells[(i, j)]], lambda ch: list(ch))
        ]

        def binary_make(ch, span=span, base=base):
            return self._combine_binary(span, base, ch[0], ch[1])

        for s in range(i, j):
            self.stats["combinations"] += 1
            sources.append(_Source((2, (s,)),
                                   [[self._nosem_leaf(i, s)], self.cells[(s + 1, j)]],
                                   binary_make, base))
        return self._merge(sources)

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

    Constants absent from the gold program are masked out, compositions
    must stay within the gold program's subterms (partial applications
    included), and each constant may be used at most as often as it occurs
    in the gold program.
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
