"""CKY inference: an approximate K-best chart, and an exact chart
constrained to a gold program.

Both parse the same grammar.  Binary rules: root -> Join | NoSem Join;
Join -> Join Join | Join NoSem.  With the non-projective extension on,
Join -> Join Join Join is added: the two outer children compose first,
then the middle.  Join also hosts bare constant leaves.

``parse_kbest`` keeps, per span, a ranked list of up to K derivations for
Join and a fixed zero-score NoSem entry.  Cells are filled by lazy pairwise
merging of the children's rank lists through a priority queue, so the
K-best frontier is explored without materializing K^2 candidates per split.
It is approximate: a derivation outside some cell's top K is lost.

``constrained_parse`` is an exact Viterbi whose nonterminals are program
states: each cell keeps the best derivation per program its span can
compose to, which is a subterm of the gold program or a partial
application of one.  It composes every node as ``program_of_tree`` does
(``typesys.compose_children``) and keeps it only while its program is
admissible against the gold program, so every tree it returns maps to gold
and it returns None only when no tree does.
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
_JOIN, _NOSEM = Category.join(), Category.nosem()  # shared by every tree built here


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

    def to_tree(self, is_root: bool = False) -> SpanTree:
        return SpanTree(
            self.span,
            self.category,
            tuple(c.to_tree() for c in self.children),
            is_root=is_root,
        )


@dataclass(slots=True)
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


class _Chart:
    def __init__(self, table: ScoreTable, grammar: Grammar, K: int,
                 stats: dict | None = None):
        if table.n < 1:
            raise EmptyInput("empty utterance")
        self.table = table
        self.grammar = grammar
        self.K = K
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
        ranked = {}
        for span in table.spans:
            row = table.shifted[table.span_index[span]]
            cats = [
                (float(row[table.cat_index[c]]), c)
                for c in table.categories
                if c.is_constant
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
            out.append(Derivation(score, span, cat))
        return out

    def _nosem_leaf(self, i: int, j: int) -> Derivation:
        return Derivation(0.0, Span(i, j), Category.nosem())

    # -- combination ------------------------------------------------------

    def _derive(self, span: Span, source: _Source, children: tuple):
        """The derivation a source builds from one choice of children."""
        if len(children) == 1:
            return children[0]
        # base + c1 + c2 (+ c3), in this order: sum() rounds differently.
        score = source.base
        for child in children:
            score += child.score
        return Derivation(score, span, Category.join(), children)

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
            out.append(self._derive(span, sources[si], children))
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
            return out

        cells = {f"{i},{j}": [entry(d) for d in derivs]
                 for (i, j), derivs in sorted(self.cells.items())}
        return {"n": self.table.n, "K": self.K, "cells": cells,
                "root": [entry(d) for d in self.root]}


def parse_kbest(table: ScoreTable, grammar: Grammar, K: int,
                stats: dict | None = None, return_chart: bool = False):
    """Top-K grammar-legal trees for the whole utterance, best first."""
    chart = _Chart(table, grammar, K, stats=stats)
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


class _States:
    """The program states of one constrained parse, interned to ints, and
    their admissible compositions, memoized per pair of ids.

    A state is a subterm of the gold program or a partial application of
    one.  ``tried[x]`` maps every state ``y`` composed with ``x`` so far to
    the id of the program ``compose_children([x, y])`` gives when it is
    admissible, else -1; ``found[x]`` keeps the admissible ones.
    """

    def __init__(self, gold: Program, schema: DomainSchema):
        self.schema = schema
        self.by_head: dict = {}
        for sub in gold.subterms():
            self.by_head.setdefault(sub.head.name, []).append(sub)
        self.programs: list = []
        self.ids: dict = {}
        self.tried: dict = {}
        self.found: dict = {}

    def intern(self, program: Program) -> int:
        sid = self.ids.get(program)
        if sid is None:
            sid = self.ids[program] = len(self.programs)
            self.programs.append(program)
            self.tried[sid], self.found[sid] = {}, {}
        return sid

    def admissible(self, program: Program) -> bool:
        """Some gold subterm has the head and every filled argument of
        ``program``."""
        for sub in self.by_head.get(program.head.name, ()):
            if all(pa is None or pa == ga
                   for pa, ga in zip(program.args, sub.args)):
                return True
        return False

    def meet(self, x: int, cell: dict) -> None:
        """Composes ``x`` with the states of ``cell`` not yet tried with it."""
        tried, found = self.tried[x], self.found[x]
        for y in cell:
            if y in tried:
                continue
            program = compose_children([self.programs[x], self.programs[y]],
                                       self.schema)
            if program is None or not self.admissible(program):
                tried[y] = -1
            else:
                tried[y] = found[y] = self.intern(program)


def constrained_parse(table: ScoreTable, grammar: Grammar, gold: Program,
                      schema: DomainSchema, stats: dict | None = None):
    """Highest-scoring tree whose program equals ``gold``, or None when no
    grammar-legal tree maps to it.

    An exact Viterbi over (span, program state).  A span's state is the
    program its subtree composes to, as ``program_of_tree`` composes it:
    constants absent from ``gold`` are masked out, and a node is kept only
    while its program is admissible.  So the returned tree maps to
    ``gold``.  Scores are summed as in ``parse_kbest``, and exact ties
    mostly resolve as its merge pops them: rule sources are tried in its
    order (leaf, Join Join by split, Join NoSem by split, ternary by
    splits), cells are kept best first, and only a strictly greater score
    replaces an entry.
    """
    n = table.n
    if n < 1:
        raise EmptyInput("empty utterance")
    if stats is None:
        stats = {}
    stats.setdefault("combinations", 0)
    states = _States(gold, schema)
    gold_id = states.intern(gold)
    tried, found = states.tried, states.found
    leaves = [(states.intern(schema.atom(c.label)), table.cat_index[c], c)
              for c in sorted(table.categories, key=lambda c: c.label)
              if c.is_constant and c.label in states.by_head]
    rows = table.shifted.tolist()
    row_of = {(s.start, s.end): k for k, s in enumerate(table.spans)}
    join_col = table.cat_index[_JOIN]
    ternary = grammar.ternary
    # chart[i][j]: state id -> (score, back), best score first; back is the
    # leaf's Category or (splits, child ids) with None for a NoSem child.
    chart = [[None] * (n + 1) for _ in range(n + 2)]
    for length in range(1, n + 1):
        for i in range(1, n - length + 2):
            j = i + length - 1
            row = rows[row_of[(i, j)]]
            base = row[join_col]
            cell = {}
            for sid, col, cat in leaves:
                if row[col] > NEG_INF / 2:
                    cell[sid] = (row[col], cat)
            for s in range(i, j):
                right = chart[s + 1][j]
                for a, (sa, _) in chart[i][s].items():
                    if not right.keys() <= tried[a].keys():
                        states.meet(a, right)
                    for b, r in found[a].items():
                        entry = right.get(b)
                        if entry is not None:
                            score = base + sa + entry[0]
                            old = cell.get(r)
                            if old is None or score > old[0]:
                                cell[r] = (score, ((s,), (a, b)))
            for s in range(i, j):
                for a, (sa, _) in chart[i][s].items():
                    score = base + sa + 0.0  # + NoSem, as parse_kbest sums
                    old = cell.get(a)
                    if old is None or score > old[0]:
                        cell[a] = (score, ((s,), (a, None)))
            m = j - i
            stats["combinations"] += 2 * m + (m * (m - 1) // 2 if ternary else 0)
            if ternary:
                # The outer pair composes first and must be admissible as
                # well: the middle child either fills more of its slots or
                # takes it, completed by defaults, as an argument, and
                # neither makes an inadmissible program admissible.
                for s1 in range(i, j - 1):
                    left = chart[i][s1]
                    for s2 in range(s1 + 1, j):
                        mid, right = chart[s1 + 1][s2], chart[s2 + 1][j]
                        for a, (sa, _) in left.items():
                            if not right.keys() <= tried[a].keys():
                                states.meet(a, right)
                            for c, o in found[a].items():
                                entry = right.get(c)
                                if entry is None:
                                    continue
                                sc = entry[0]
                                if not mid.keys() <= tried[o].keys():
                                    states.meet(o, mid)
                                for b, r in found[o].items():
                                    entry = mid.get(b)
                                    if entry is not None:
                                        score = base + sa + entry[0] + sc
                                        old = cell.get(r)
                                        if old is None or score > old[0]:
                                            cell[r] = (score, ((s1, s2), (a, b, c)))
            chart[i][j] = dict(sorted(cell.items(), key=lambda kv: -kv[1][0]))

    # Root: the whole-span Join, or NoSem(1, s) Join(s + 1, n).
    best = chart[1][n].get(gold_id)
    base = rows[row_of[(1, n)]][join_col]
    for s in range(1, n):
        stats["combinations"] += 1
        entry = chart[s + 1][n].get(gold_id)
        if entry is not None:
            score = base + 0.0 + entry[0]
            if best is None or score > best[0]:
                best = (score, ((s,), (None, gold_id)))
    if best is None:
        return None

    def node(i: int, j: int, back, is_root: bool = False) -> SpanTree:
        if isinstance(back, Category):
            return SpanTree(Span(i, j), back, is_root=is_root)
        splits, kids = back
        bounds = (i - 1, *splits, j)
        children = tuple(
            SpanTree(Span(lo + 1, hi), _NOSEM) if k is None
            else node(lo + 1, hi, chart[lo + 1][hi][k][1])
            for lo, hi, k in zip(bounds, bounds[1:], kids))
        return SpanTree(Span(i, j), _JOIN, children, is_root=is_root)

    return ParseResult(node(1, n, best[1], is_root=True), best[0], gold)


def dump_chart(chart: _Chart, path) -> None:
    with open(path, "w") as fh:
        json.dump(chart.to_json(), fh, indent=2, sort_keys=True)
