"""CKY inference: a lazy K-best chart, and an exact chart constrained to a
gold program.

Both parse the same grammar.  Binary rules: root -> Join | NoSem Join;
Join -> Join Join | Join NoSem.  With the non-projective extension on,
Join -> Join Join Join is added: the two outer children compose first,
then the middle.  Join also hosts bare constant leaves.

``parse_kbest`` ranks, per span, up to K derivations for Join (a span's
NoSem entry is fixed at zero), lazily, after Huang & Chiang 2005 (*Better
k-best parsing*, Algorithm 3).  One Viterbi pass keeps each cell's best
derivation.  A cell's deeper ranks are computed only when a consumer asks
for them: its rule sources' best combinations go into a priority queue,
and each pop pushes the successors that take one child one rank deeper,
extending the child cells only as far as that needs.  A caller that keeps
the first candidate, as ``best_valid_tree`` does when it is valid, pays
for the Viterbi pass alone.  The chart is approximate: a derivation
outside some cell's top K is lost.

``constrained_parse`` is an exact Viterbi whose nonterminals are program
states: each cell keeps the best derivation per program its span can
compose to, which is a subterm of the gold program or a partial
application of one.  It composes every node as ``program_of_tree`` does
(``typesys.compose_children``) and keeps it only while its program is
admissible against the gold program, so every tree it returns maps to gold
and it returns None only when no tree does.

Both Viterbi loops visit cells by increasing length, then start, and try a
cell's rule sources in one order: the leaf constants, Join Join by split,
Join NoSem by split, then the ternary rule by split pair.  Scores are
summed ``base + c1 + c2 (+ c3)`` left to right, with ``+ 0.0`` for NoSem.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field

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
_ROOT = "root"  # the root's key in a _Chart; a Join cell's key is (i, j)


class EmptyInput(ValueError):
    """Cannot parse an empty utterance."""


@dataclass(frozen=True)
class Grammar:
    """Rule set switch: the fixed binary grammar, optionally extended with
    the ternary non-projective rule."""

    ternary: bool = False


@dataclass(slots=True)
class ParseResult:
    tree: SpanTree
    score: float
    program: Program | None = None


@dataclass(slots=True)
class _Frontier:
    """The merge state of one list: its rule sources, the queued
    combinations, every ``(source, ranks)`` queued so far, and the last pop,
    whose successors are queued just before the next pop."""

    sources: list
    heap: list = field(default_factory=list)
    seen: set = field(default_factory=set)
    last: tuple | None = None


class _Chart:
    """Best-first lists of up to K derivations for every Join cell and for
    the root, each extended only as far as it is read.

    A derivation is a tuple ``(score, i, j, category, children)`` whose
    children are derivations.  The constructor runs the Viterbi pass, which
    keeps each list's best derivation; ``at`` ranks deeper ones on demand.
    A list's merge order is the key ``(-(base + (c1 + c2)), order, ranks)``:
    its sum, then the rule source's ``(kind, splits)``, then the children's
    ranks.
    """

    def __init__(self, table: ScoreTable, grammar: Grammar, K: int,
                 stats: dict | None = None):
        if table.n < 1:
            raise EmptyInput("empty utterance")
        self.table = table
        self.grammar = grammar
        self.K = K
        self.stats = stats if stats is not None else {}
        self.stats.setdefault("combinations", 0)
        self.row_of = {(s.start, s.end): k for k, s in enumerate(table.spans)}
        self.join_col = table.cat_index[_JOIN]
        self.constants = sorted((c for c in table.categories if c.is_constant),
                                key=lambda c: c.label)
        self.cells: dict = {}  # (i, j) -> ranked derivations, best first
        self.frontiers: dict = {}  # key -> _Frontier, once rank 1 is asked for
        self.root = self._viterbi()

    def _viterbi(self) -> list:
        """Keeps the best derivation of every cell; returns the root's list."""
        table, n, row_of = self.table, self.table.n, self.row_of
        bases = table.shifted[:, self.join_col].tolist()
        cols = [table.cat_index[c] for c in self.constants]
        leaves = [None] * len(table.spans)
        if cols:
            # argmax keeps the first best column: ties go to the lower label.
            consts = table.shifted[:, cols]
            for k, (score, c) in enumerate(zip(consts.max(axis=1).tolist(),
                                               consts.argmax(axis=1).tolist())):
                if score > NEG_INF / 2:
                    leaves[k] = (score, self.constants[c])
        ternary = self.grammar.ternary
        best = [[None] * (n + 2) for _ in range(n + 2)]
        combinations = 0
        for length in range(1, n + 1):
            for i in range(1, n - length + 2):
                j = i + length - 1
                k = row_of[(i, j)]
                base = bases[k]
                top = key = None
                if leaves[k] is not None:
                    key = leaves[k][0]
                    top = (key, i, j, leaves[k][1], ())
                # Sources in merge order; only a greater key replaces.
                for s in range(i, j):
                    a, b = best[i][s], best[s + 1][j]
                    if a is not None and b is not None:
                        score = base + (a[0] + b[0])
                        if top is None or score > key:
                            key = score
                            top = (base + a[0] + b[0], i, j, _JOIN, (a, b))
                for s in range(i, j):
                    a = best[i][s]
                    if a is not None and (top is None or base + a[0] > key):
                        key = base + a[0]
                        top = (base + a[0] + 0.0, i, j, _JOIN,
                               (a, (0.0, s + 1, j, _NOSEM, ())))
                m = j - i
                combinations += 2 * m
                if ternary:
                    combinations += m * (m - 1) // 2
                    for s1 in range(i, j - 1):
                        a = best[i][s1]
                        if a is None:
                            continue
                        for s2 in range(s1 + 1, j):
                            b, c = best[s1 + 1][s2], best[s2 + 1][j]
                            if b is not None and c is not None:
                                score = base + (a[0] + b[0] + c[0])
                                if top is None or score > key:
                                    key = score
                                    top = (base + a[0] + b[0] + c[0], i, j,
                                           _JOIN, (a, b, c))
                best[i][j] = top
                self.cells[(i, j)] = [] if top is None else [top]

        # Root: the whole-span Join, or NoSem(1, s) Join(s + 1, n).
        base = bases[row_of[(1, n)]]
        top = best[1][n]
        key = None if top is None else top[0]
        for s in range(1, n):
            b = best[s + 1][n]
            if b is not None and (top is None or base + b[0] > key):
                key = base + b[0]
                top = (base + 0.0 + b[0], 1, n, _JOIN,
                       ((0.0, 1, s, _NOSEM, ()), b))
        self.stats["combinations"] += combinations + n - 1
        return [] if top is None else [top]

    def at(self, key, r: int):
        """Rank ``r`` (0 is the best) of a list, or None past its end or K."""
        if r >= self.K:
            return None
        entries = self.root if key is _ROOT else self.cells[key]
        while len(entries) <= r:
            if not self._extend(key, entries):
                return None
        return entries[r]

    def ranked(self, key):
        """A list's derivations, best first, each ranked when it is read."""
        r = 0
        while (entry := self.at(key, r)) is not None:
            yield entry
            r += 1

    def _sources(self, key) -> list:
        """A list's rule sources, ``(order, base, children)``.  A child is
        ``(derivations, key)``: a cell's list with its key, extended on
        demand, or a complete list (leaf constants, one NoSem) with None."""
        if key is _ROOT:
            i, j = 1, self.table.n
        else:
            i, j = key
        row = self.table.shifted[self.row_of[(i, j)]].tolist()
        base = row[self.join_col]

        def cell(a, b):
            return self.cells[(a, b)], (a, b)

        def nosem(a, b):
            return [(0.0, a, b, _NOSEM, ())], None

        if key is _ROOT:
            return [((0, ()), 0.0, [cell(1, j)])] + [
                ((2, (s,)), base, [nosem(1, s), cell(s + 1, j)])
                for s in range(1, j)]
        # A stable sort of the label-ordered constants: ties go to the
        # lower label, as in the Viterbi pass.
        consts = sorted(((row[self.table.cat_index[c]], i, j, c, ())
                         for c in self.constants), key=lambda d: -d[0])
        sources = [((0, ()), 0.0, [([d for d in consts[: self.K]
                                     if d[0] > NEG_INF / 2], None)])]
        for s in range(i, j):
            sources.append(((1, (s,)), base, [cell(i, s), cell(s + 1, j)]))
            sources.append(((2, (s,)), base, [cell(i, s), nosem(s + 1, j)]))
        if self.grammar.ternary:
            sources.extend(
                ((3, (s1, s2)), base,
                 [cell(i, s1), cell(s1 + 1, s2), cell(s2 + 1, j)])
                for s1 in range(i, j - 1) for s2 in range(s1 + 1, j))
        return sources

    def _push(self, frontier: _Frontier, si: int, ranks: tuple) -> None:
        """Queues source ``si`` with its children at ``ranks``, once, when
        each of those ranks exists."""
        if (si, ranks) in frontier.seen:
            return
        order, base, refs = frontier.sources[si]
        children = []
        for (entries, key), r in zip(refs, ranks):
            if key is None:
                child = entries[r] if r < len(entries) else None
            else:
                child = self.at(key, r)
            if child is None:
                return
            children.append(child)
        frontier.seen.add((si, ranks))
        heapq.heappush(frontier.heap, (-(base + sum(c[0] for c in children)), order,
                              ranks, si, tuple(children)))

    def _extend(self, key, entries: list) -> bool:
        """Appends a list's next derivation; False when it has no more."""
        frontier = self.frontiers.get(key)
        if frontier is None:
            # Every source's best combination; the first pop is the rank 0
            # that the Viterbi pass kept.
            frontier = self.frontiers[key] = _Frontier(self._sources(key))
            for si, (_, _, refs) in enumerate(frontier.sources):
                self._push(frontier, si, (0,) * len(refs))
            if frontier.heap:
                frontier.last = heapq.heappop(frontier.heap)
        if frontier.last is not None:
            _, _, ranks, si, _ = frontier.last
            frontier.last = None
            for pos in range(len(ranks)):
                self._push(frontier, si,
                           ranks[:pos] + (ranks[pos] + 1,) + ranks[pos + 1:])
        if not frontier.heap:
            return False
        frontier.last = heapq.heappop(frontier.heap)
        _, _, _, si, children = frontier.last
        if len(children) == 1:
            entries.append(children[0])
            return True
        score = frontier.sources[si][1]
        for child in children:  # base + c1 + c2 (+ c3), left to right
            score += child[0]
        i, j = (1, self.table.n) if key is _ROOT else key
        entries.append((score, i, j, _JOIN, children))
        return True

    def to_json(self) -> dict:
        """Every list ranked out to K."""
        def entry(deriv: tuple) -> dict:
            score, i, j, category, children = deriv
            out = {"score": score, "category": category.label, "span": [i, j]}
            if children:
                out["children"] = [[c[1], c[2], c[3].label] for c in children]
            return out

        cells = {f"{i},{j}": [entry(d) for d in self.ranked((i, j))]
                 for i, j in sorted(self.cells)}
        return {"n": self.table.n, "K": self.K, "cells": cells,
                "root": [entry(d) for d in self.ranked(_ROOT)]}


def _tree(deriv: tuple, is_root: bool = False) -> SpanTree:
    _, i, j, category, children = deriv
    return SpanTree(Span(i, j), category, tuple(_tree(c) for c in children),
                    is_root=is_root)


def parse_kbest(table: ScoreTable, grammar: Grammar, K: int,
                stats: dict | None = None, return_chart: bool = False):
    """An iterator over the top-K grammar-legal trees for the whole
    utterance, best first.  The Viterbi pass runs in this call; each later
    candidate is ranked, and its tree built, when it is asked for."""
    chart = _Chart(table, grammar, K, stats=stats)
    results = (ParseResult(_tree(d, is_root=True), d[0])
               for d in chart.ranked(_ROOT))
    if return_chart:
        return results, chart
    return results


def best_valid_tree(candidates, schema: DomainSchema):
    """First candidate (descending score) whose tree composes to a program;
    None when all of them are semantically invalid.  Reads no candidate
    past the first valid one."""
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
