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
outside some cell's top K is lost.  A candidate carries its derivation,
and its tree is built when first read.  ``best_valid_tree`` judges each
candidate by composing program ids over its derivation, with the leaf and
node rule of ``program_of_tree`` (``typesys.program_id``), so only the
candidate it returns becomes a tree.

``constrained_parse`` is an exact Viterbi whose nonterminals are program
states: each cell keeps the best derivation per program its span can
compose to, which is a subterm of the gold program or a partial
application of one.  It composes every node as ``program_of_tree`` does,
through the schema's composition table (``typesys.CompositionTable``), so
a pair of programs is composed once per schema.  A node is kept only
while its program is admissible against the gold program, so its best
tree maps to gold and it returns None only when no tree does.  It builds
no tree: it walks the winner's backpointers once and returns its label
row, the per-span targets the M-step reads (``GoldParse``); the row fixes
the tree, which ``GoldParse.tree`` rebuilds only when it is read.
Cells also drop every item that no tree with the gold program at its root
contains, by an exact outside bound in the spirit of A* parsing (Klein &
Manning 2003).  A program's ``weight`` counts its constants that are no
type default.  Composition adds weights, so a gold tree holds
``weight(gold) - weight(x)`` weighted leaves outside a node of state
``x``, each over tokens of its own; an item whose span leaves fewer tokens
outside is dropped, and no gold tree is lost.

Which items can exist and which rule edges join them depend only on the
utterance length, the gold program and the grammar, not on the scores; a
leaf scored at ``NEG_INF`` only removes items.  This is the split of a
hypergraph from its weights (Goodman 1999, *Semiring Parsing*; Huang
2008).  Nor do they depend on the names of the gold program's constants:
composition reads only their signatures, so a gold program and its
template, its constants renamed within their signature classes
(``CompositionTable.template``; the factoring of Kwiatkowski et al. 2011,
*Lexical generalization in CCG grammar induction*), have the same chart
with the leaves relabelled.  So ``constrained_parse`` compiles that
structure once per length, template and grammar into a flat form, in which
every item (a state of one cell) has one index and every rule edge lists
the indices of its children and its target (``_Compiled``).  It keeps the
compiled chart in the schema's composition table for every later call, and
takes the Viterbi max in one list of scores, reading only the table's Join
column and, for each leaf slot, the gold constant's column.

The K-best chart keeps derivations, the tuple ``(score, i, j, category,
children)`` whose children are derivations (a NoSem child is ``(0.0, i,
j, NoSem, ())``).  The constrained chart keeps a score per item and a
backpointer to the edge that won it.  Both choose the root by ``_root``'s
rule over the scores of the entries that end at the last token.  Both
Viterbi loops visit cells by increasing length, then start, and try a
cell's rule sources in one order: the leaf constants, Join Join by split,
Join NoSem by split, then the ternary rule by split pair; only a strictly
greater score replaces, so an exact tie goes to the first source tried.
The K-best chart's pass follows a fill plan built once per length and
grammar (``_plan``): each cell in that order with its table row and, per
split and split pair, the table rows of its children, so a call does no
index arithmetic; it keeps each cell's best score and derivation by table
row.  The constrained chart scores every leaf before the first edge, which
keeps that order, as a leaf depends on nothing; it tries its leaves in
the order of the gold constants' first occurrence in the gold program's
preorder, and within one split its edges by child state index (see
``_compile``), a cell's states being indexed in the order the compiler
first met them.  Scores are summed ``base + c1 + c2 (+ c3)`` left to
right, with ``+ 0.0`` for NoSem.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import json
import math
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter

import numpy as np

from .core import JOIN, NOSEM, Span, SpanTree, all_spans
from .scorer import ScoreTable, _geometry, tree_from_labels
from .typesys import (
    CompositionFailure,
    DomainSchema,
    Program,
    program_id,
)
# Unused here; bound so that perfbench/tracing.py can patch them in this module.
from .typesys import compose_candidates, program_of_tree  # noqa: F401

NEG_INF = -1e9  # -infinity sentinel immune to NaN propagation
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
class GoldParse:
    """The E-step's result: the label row of the best tree that composes to
    ``program`` (``labels``, one index into ``categories`` per span row, as
    ``SpanScorer.labels_for_tree`` writes it), and its score.  It keeps
    nothing of the chart or the score table.  ``tree`` rebuilds the tree
    from the row on every read (``scorer.tree_from_labels``).

    The row is a tuple of ints, not an array: a caller may keep many
    results (the benchmark keeps every one), and small objects reuse the
    interpreter's freed memory where an array's buffer would grow the
    heap."""

    labels: tuple
    score: float
    program: Program
    categories: list

    @property
    def tree(self) -> SpanTree:
        return tree_from_labels(self.labels, self.categories)


@dataclass(slots=True)
class _Frontier:
    """The merge state of one list: its rule sources, the queued
    combinations, every ``(source, ranks)`` queued so far, and the last pop,
    whose successors are queued just before the next pop."""

    sources: list
    heap: list = field(default_factory=list)
    seen: set = field(default_factory=set)
    last: tuple | None = None


@dataclass(frozen=True, slots=True)
class _Plan:
    """The Viterbi pass's fill order over ``n`` tokens with one grammar, in
    table rows, shared by every chart of that length and grammar.

    ``cells`` lists each cell in the order it is filled (by increasing
    length, then start) as ``(row, (i, j), lefts, rights, triples)``: the
    rows of the left and the right child of each split ``s``, ``(i, s)``
    and ``(s + 1, j)``, by increasing ``s``, and ``triples``, which repeats
    ``a, m, c``, the rows of the children of each ternary split pair in
    the order they are tried (empty without the ternary rule).
    ``nosems[r]`` is the NoSem derivation over the span of row ``r``, and
    ``ends[s - 1]`` the row of ``(s, n)``.  Every row is the int object of
    the table's ``row_of``, so a slot costs a pointer."""

    cells: tuple
    nosems: tuple
    ends: tuple


@functools.lru_cache(maxsize=None)
def _plan(n: int, ternary: bool) -> _Plan:
    geometry = _geometry(n)
    row_of = geometry.row_of
    cells = []
    for length in range(1, n + 1):
        for i in range(1, n - length + 2):
            j = i + length - 1
            triples = () if not ternary else tuple(
                r for s1 in range(i, j - 1) for s2 in range(s1 + 1, j)
                for r in (row_of[i][s1], row_of[s1 + 1][s2], row_of[s2 + 1][j]))
            cells.append((row_of[i][j], (i, j),
                          tuple(row_of[i][s] for s in range(i, j)),
                          tuple(row_of[s + 1][j] for s in range(i, j)), triples))
    nosems = tuple((0.0, span.start, span.end, NOSEM, ()) for span in geometry.spans)
    return _Plan(tuple(cells), nosems, tuple(row_of[s][n] for s in range(1, n + 1)))


@functools.lru_cache(maxsize=None)
def _constants(categories: tuple) -> tuple:
    """The constant labels of ``categories`` in label order, their columns
    by a table's ``cat_index``, and those columns as an index array."""
    column = {c: k for k, c in enumerate(categories)}
    constants = sorted(c for c in categories if c not in (NOSEM, JOIN))
    cols = tuple(column[c] for c in constants)
    return constants, cols, np.array(cols, dtype=np.intp)


class _Chart:
    """Best-first lists of up to K derivations for every Join cell and for
    the root, each extended only as far as it is read.

    The constructor runs the Viterbi pass, which keeps each list's best
    derivation; ``at`` ranks deeper ones on demand.
    A list's merge order is the key ``(-(base + (c1 + c2)), order, ranks)``:
    its sum, then the rule source's ``(kind, splits)``, then the children's
    ranks.
    """

    def __init__(self, table: ScoreTable, grammar: Grammar, K: int):
        if table.n < 1:
            raise EmptyInput("empty utterance")
        self.table = table
        self.grammar = grammar
        self.K = K
        self.row_of = table.row_of
        self.join_col = table.cat_index[JOIN]
        self.constants, self.const_cols, self.const_index = _constants(
            tuple(table.categories))
        self.cells: dict = {}  # (i, j) -> ranked derivations, best first
        self.frontiers: dict = {}  # key -> _Frontier, once rank 1 is asked for
        self.root = self._viterbi()

    def _viterbi(self) -> list:
        """Keeps the best derivation of every cell; returns the root's list.
        ``score[r]`` is the score of ``best[r]``, the best derivation of the
        cell at table row ``r``, or None while it has none; until its cell
        is filled, they hold its best leaf's score and label."""
        table, n = self.table, self.table.n
        plan = _plan(n, self.grammar.ternary)
        bases = table.shifted[:, self.join_col].tolist()
        score, best = [None] * len(bases), [None] * len(bases)
        if self.constants:
            # argmax keeps the first best column: ties go to the lower label.
            consts = table.shifted[:, self.const_index]
            for k, (leaf, c) in enumerate(zip(consts.max(axis=1).tolist(),
                                              consts.argmax(axis=1).tolist())):
                if leaf > NEG_INF / 2:
                    score[k], best[k] = leaf, self.constants[c]
        nosems, cells = plan.nosems, self.cells
        for k, cell, lefts, rights, triples in plan.cells:
            i, j = cell
            base = bases[k]
            top = key = score[k]
            if top is not None:
                top = (key, i, j, best[k], ())
            # Sources in merge order; only a greater key replaces.
            for a, b in zip(lefts, rights):
                sa, sb = score[a], score[b]
                if sa is not None and sb is not None:
                    total = base + (sa + sb)
                    if top is None or total > key:
                        key = total
                        top = (base + sa + sb, i, j, JOIN, (best[a], best[b]))
            for a, b in zip(lefts, rights):
                sa = score[a]
                if sa is not None and (top is None or base + sa > key):
                    key = base + sa
                    top = (base + sa + 0.0, i, j, JOIN, (best[a], nosems[b]))
            if triples:
                rows = iter(triples)
                for a, m, c in zip(rows, rows, rows):
                    sa, sm, sc = score[a], score[m], score[c]
                    if sa is not None and sm is not None and sc is not None:
                        total = base + (sa + sm + sc)
                        if top is None or total > key:
                            key = total
                            top = (base + sa + sm + sc, i, j, JOIN,
                                   (best[a], best[m], best[c]))
            if top is None:
                cells[cell] = []
            else:
                score[k], best[k] = top[0], top
                cells[cell] = [top]
        ends = [best[r] for r in plan.ends]  # the Joins over (s, n)
        top = _root(bases[plan.ends[0]], [score[r] for r in plan.ends])
        if top is None:
            return []
        total, s = top
        if s == 0:
            return [ends[0]]
        return [(total, 1, n, JOIN, (plan.nosems[self.row_of[1][s]], ends[s]))]

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
        row = self.table.shifted[self.row_of[i][j]].tolist()
        base = row[self.join_col]

        def cell(a, b):
            return self.cells[(a, b)], (a, b)

        def nosem(a, b):
            return [(0.0, a, b, NOSEM, ())], None

        if key is _ROOT:
            return [((0, ()), 0.0, [cell(1, j)])] + [
                ((2, (s,)), base, [nosem(1, s), cell(s + 1, j)])
                for s in range(1, j)]
        # A stable sort of the label-ordered constants (``reverse`` keeps
        # ties in order): ties go to the lower label, as in the Viterbi pass.
        scores = [row[c] for c in self.const_cols]
        top = sorted(range(len(scores)), key=scores.__getitem__,
                     reverse=True)[: self.K]
        sources = [((0, ()), 0.0, [([(scores[k], i, j, self.constants[k], ())
                                     for k in top if scores[k] > NEG_INF / 2],
                                    None)])]
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
        total = 0  # sum() of the children's scores
        for (entries, key), r in zip(refs, ranks):
            if r < len(entries):
                child = entries[r]
            elif key is None or (child := self.at(key, r)) is None:
                return
            total += child[0]
            children.append(child)
        frontier.seen.add((si, ranks))
        heapq.heappush(frontier.heap, (-(base + total), order, ranks, si,
                                       tuple(children)))

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
        entries.append((score, i, j, JOIN, children))
        return True

    def to_json(self) -> dict:
        """Every list ranked out to K."""
        def entry(deriv: tuple) -> dict:
            score, i, j, category, children = deriv
            out = {"score": score, "category": category, "span": [i, j]}
            if children:
                out["children"] = [[c[1], c[2], c[3]] for c in children]
            return out

        cells = {f"{i},{j}": [entry(d) for d in self.ranked((i, j))]
                 for i, j in sorted(self.cells)}
        return {"n": self.table.n, "K": self.K, "cells": cells,
                "root": [entry(d) for d in self.ranked(_ROOT)]}


def _root(base: float, ends: list):
    """The root's best ``(score, s)``, or None, from ``ends[s]``, the score
    of the entry over (s + 1, n) or None when it is absent: the whole
    span's entry (``s`` is 0), or NoSem(1, s) Join(s + 1, n), tried by
    increasing s; only a greater score replaces."""
    top, split = ends[0], 0
    for s in range(1, len(ends)):
        b = ends[s]
        if b is not None:
            score = base + 0.0 + b
            if top is None or score > top:
                top, split = score, s
    return None if top is None else (top, split)


def _count(stats: dict | None, n: int, grammar: Grammar) -> None:
    """Adds to ``stats["combinations"]`` the rule sources that either chart
    tries over ``n`` tokens: ``2 (L - 1)`` binary splits in a cell of length
    ``L``, ``C(L - 1, 2)`` ternary split pairs with the ternary rule, and
    the root's ``n - 1`` NoSem splits.  Summed over the cells, that is
    ``2 C(n + 1, 3)`` (+ ``C(n + 1, 4)``) + ``n - 1``."""
    if stats is not None:
        stats["combinations"] = stats.get("combinations", 0) + (
            2 * math.comb(n + 1, 3) + n - 1
            + (math.comb(n + 1, 4) if grammar.ternary else 0))


def _tree(deriv: tuple, table: ScoreTable) -> SpanTree:
    """The derivation's tree, whose spans are the table's shared ones."""
    _, i, j, category, children = deriv
    return SpanTree(table.spans[table.row_of[i][j]], category,
                    tuple([_tree(c, table) for c in children]) if children else ())


class Candidate:
    """One K-best candidate: its derivation and score, and its tree, built
    on the first read of ``tree``."""

    __slots__ = ("derivation", "score", "_table", "_tree")

    def __init__(self, derivation: tuple, table: ScoreTable):
        self.derivation = derivation
        self.score = derivation[0]
        self._table = table
        self._tree = None

    @property
    def tree(self) -> SpanTree:
        if self._tree is None:
            self._tree = _tree(self.derivation, self._table)
        return self._tree


def parse_kbest(table: ScoreTable, grammar: Grammar, K: int,
                stats: dict | None = None):
    """An iterator over the top-K grammar-legal candidates for the whole
    utterance, best first.  The Viterbi pass runs in this call; each later
    candidate is ranked when it is asked for, and its tree built when its
    ``tree`` is read."""
    chart = _Chart(table, grammar, K)
    _count(stats, table.n, grammar)
    return (Candidate(d, table) for d in chart.ranked(_ROOT))


_derivation_parts = itemgetter(3, 4)  # (category, children)


def _derivation_span(deriv: tuple) -> Span:
    return Span(deriv[1], deriv[2])


def best_valid_tree(candidates, schema: DomainSchema):
    """First candidate (descending score) whose derivation composes to a
    program, by ``program_of_tree``'s rule over its derivation; None when
    all of them are semantically invalid.  Reads no candidate past the
    first valid one, and builds the tree of that one alone."""
    table = schema.table
    for cand in candidates:
        try:
            pid = program_id(cand.derivation, table, _derivation_parts,
                             _derivation_span)
        except CompositionFailure:
            continue
        return ParseResult(cand.tree, cand.score, table.programs[pid])
    return None


def weight(program: Program, schema: DomainSchema) -> int:
    """The constant occurrences in ``program`` whose constant is no type
    default of ``schema``.  Composition adds weights, since default
    completion adds only defaults, so a tree composing to ``program`` has
    exactly this many leaves labelled with a constant that is no default."""
    defaults = schema.table.defaults
    return sum(sub.head.name not in defaults for sub in program.subterms())


@dataclass(slots=True)
class _Compiled:
    """The structure of the constrained chart for one utterance length,
    gold template and grammar, in flat form; ``_evaluate`` runs it over a
    table's scores for any gold program of that template.

    Every item, one state of one cell, has one index into a list of
    scores.  The items of the cell at table row ``r`` are ``offsets[r]``
    up to ``offsets[r + 1]``, its states indexed as ``_compile`` meets
    them, and one more item, ``nosem``, stands for every NoSem child and
    scores 0.0.  ``leaves[k]`` repeats ``row, t``: the leaf of the
    template's ``k``-th distinct constant over the span of table row
    ``row`` is item ``t``.  The rule edges are flat tuples of item
    indices: ``binaries`` repeats ``a, b, t``, the left child ``a`` and
    the right one ``b`` composing to ``t`` (``b`` is ``nosem`` for Join
    NoSem), and ``ternaries`` repeats ``a, m, c, t`` for the left child,
    the middle one and the right one.  ``cells`` repeats ``row, binaries,
    ternaries``: the cells with edges, in the order they are filled (by
    increasing length, then start), each with the number of edges of
    either kind that it takes next.  A cell's edges are listed in the
    order they are tried.  Flat tuples keep a cached chart small, and an
    index above 256 is one shared int object, so a slot costs a pointer.
    ``golds[s - 1]`` is the gold program's item in the cell ``(s, n)``,
    or None.
    """

    nosem: int
    offsets: tuple
    leaves: tuple
    cells: tuple
    binaries: tuple
    ternaries: tuple
    golds: tuple


def _compile(n: int, grammar: Grammar, template: Program,
             schema: DomainSchema) -> _Compiled:
    """The constrained chart's structure over ``n`` tokens for the gold
    program ``template``, with every one of its constants assumed present
    on every span.

    A state is the id in the schema's composition table of a subterm of
    the gold program or of a partial application of one: a program is
    admissible when some gold subterm has its head and every argument it
    has filled.  An admissible state ``x``'s need is ``weight(template) -
    weight(x)``, the leaves that a tree with the gold program at its root
    holds outside a node of state ``x``; ``need`` memoizes it per id, and
    is None for an inadmissible program.

    Its leaves are the template's distinct constants, numbered as slots in
    the order of their first occurrence in its preorder, so that the chart
    serves every gold program of the template: slot ``k`` stands for that
    program's ``k``-th distinct constant (see
    ``CompositionTable.template``).  A cell of length ``L`` keeps a state
    only when it is admissible and, if ``L`` exceeds ``n -
    weight(template)``, when its need is at most the ``n - L`` tokens
    outside the span.  Those states depend only on ``L``, so the loop
    compiles one length at a time, its edges by child lengths and state
    indices, and then lays every cell of that length out in the flat form
    of ``_Compiled``.  Edges are listed in the order the chart tries them,
    which is its tie order: leaves by slot, Join Join by split, Join NoSem
    by split, then the ternary rule by split pair; within a split, by the
    index of the left child, then of the right one, then of the middle one
    (the outer pair composes first).  A cell's states are indexed in the
    order this loop first meets them, never by id, so the tie order never
    depends on ids or on what the table already holds.
    """
    table = schema.table
    compose = table.compose
    by_head = {}  # constant name -> the gold subterms it heads
    for sub in template.subterms():
        by_head.setdefault(sub.head.name, []).append(sub)
    budget = weight(template, schema)

    @functools.cache
    def need(pid: int) -> int | None:
        program = table.programs[pid]
        admissible = any(
            all(pa is None or pa == ga for pa, ga in zip(program.args, sub.args))
            for sub in by_head.get(program.head.name, ()))
        return budget - weight(program, schema) if admissible else None

    atoms = [(table.atom(name), slot) for slot, name in enumerate(by_head)]
    slack = n - budget
    gold_id = table.intern(template)
    members = []  # members[L - 1]: the state ids of a cell of length L
    partners = {}  # (x, L) -> [(q, compose(x, members[L - 1][q])), ...]

    def partners_of(x: int, length: int) -> list:
        """The admissible compositions of ``x`` with a cell of ``length``'s
        states, by index."""
        row = partners.get((x, length))
        if row is None:
            row = partners[x, length] = [
                (q, r) for q, y in enumerate(members[length - 1])
                if (r := compose(x, y)) >= 0 and need(r) is not None]
        return row

    # Per length L, by state index: its leaves as (t, slot), and its edges:
    # joins (d, p, q, t), the left child of length d at index p and the
    # right one at q; nosems (d, p, t); triples (d1, d2, p, m, q, t), the
    # left child of length d1 and the middle one of length d2.
    lengths, gold_at = [], []
    for length in range(1, n + 1):
        room = n - length
        index, ids = {}, []

        def slot(sid: int) -> int:
            """The state's index in this length's cells, assigned on first
            sight, or -1 when the token bound drops it."""
            t = index.get(sid)
            if t is None:
                t = index[sid] = (-1 if length > slack and need(sid) > room
                                  else len(ids))
                if t >= 0:
                    ids.append(sid)
            return t

        slots = [(t, k) for sid, k in atoms if (t := slot(sid)) >= 0]
        joins = [(d, p, q, t)
                 for d in range(1, length)
                 for p, a in enumerate(members[d - 1])
                 for q, r in partners_of(a, length - d)
                 if (t := slot(r)) >= 0]
        nosems = [(d, p, t)
                  for d in range(1, length)
                  for p, a in enumerate(members[d - 1])
                  if (t := slot(a)) >= 0]
        triples = []
        if grammar.ternary:
            # The outer pair composes first and must be admissible as well:
            # the middle child either fills more of its slots or takes it,
            # completed by defaults, as an argument, and neither makes an
            # inadmissible program admissible.
            triples = [(d1, d2, p, m, q, t)
                       for d1 in range(1, length - 1)
                       for d2 in range(1, length - d1)
                       for p, a in enumerate(members[d1 - 1])
                       for q, o in partners_of(a, length - d1 - d2)
                       for m, r in partners_of(o, d2)
                       if (t := slot(r)) >= 0]
        members.append(ids)
        lengths.append((slots, joins, nosems, triples))
        gold_at.append(index.get(gold_id, -1))

    rows = {(span.start, span.end): r for r, span in enumerate(all_spans(n))}
    offsets = [0]
    for i, j in rows:  # in table row order
        offsets.append(offsets[-1] + len(members[j - i]))
    shared = list(range(offsets[-1] + 1))  # one int object per index
    nosem = shared[-1]

    def item(i: int, j: int, t: int) -> int:
        """State ``t`` of the cell ``(i, j)``."""
        return shared[offsets[rows[i, j]] + t]

    leaves = [[] for _ in by_head]
    cells, binaries, ternaries = [], [], []
    for length, (slots, joins, nosems, triples) in enumerate(lengths, 1):
        edges = len(joins) + len(nosems), len(triples)
        for i in range(1, n - length + 2):
            j = i + length - 1
            for t, k in slots:
                leaves[k] += rows[i, j], item(i, j, t)
            if any(edges):
                cells += rows[i, j], *edges
            for d, p, q, t in joins:
                binaries += item(i, i + d - 1, p), item(i + d, j, q), item(i, j, t)
            for d, p, t in nosems:
                binaries += item(i, i + d - 1, p), nosem, item(i, j, t)
            for d1, d2, p, m, q, t in triples:
                ternaries += (item(i, i + d1 - 1, p), item(i + d1, i + d1 + d2 - 1, m),
                              item(i + d1 + d2, j, q), item(i, j, t))
    golds = tuple(None if (t := gold_at[n - s]) < 0 else item(s, n, t)
                  for s in range(1, n + 1))
    return _Compiled(nosem, tuple(shared[x] for x in offsets),
                     tuple(map(tuple, leaves)), tuple(cells), tuple(binaries),
                     tuple(ternaries), golds)


def _evaluate(compiled: _Compiled, table: ScoreTable, labels: tuple):
    """The score and the label row of the best tree of the gold program
    over ``table``, or None; ``labels[k]`` is the gold program's constant
    in slot ``k``.

    It reads the table's Join column and the gold constants' columns
    alone.  Leaves come first: a masked leaf, or one whose constant is not
    among the table's categories, leaves its item absent (None), and so
    every edge built on it is skipped.  Then every item takes its best
    edge whose children are present, summed ``base + a + b`` (``b`` is the
    NoSem item, 0.0, in Join NoSem) and ``base + a + m + c``; only a
    strictly greater score replaces, and each replacement records a
    backpointer: ``~slot`` for a leaf, the children for a rule.  The row
    is written by walking the backpointers down from the root that
    ``_root`` chooses; every span off the tree is NoSem."""
    cat_index, shifted = table.cat_index, table.shifted
    bases = shifted[:, cat_index[JOIN]].tolist()
    size = compiled.nosem
    score = [None] * size + [0.0]
    back = [None] * (size + 1)
    floor = NEG_INF / 2
    for k, label in enumerate(labels):
        c = cat_index.get(label)
        if c is None:
            continue
        column = shifted[:, c].tolist()
        pairs = iter(compiled.leaves[k])
        for row, t in zip(pairs, pairs):
            if column[row] > floor:
                score[t] = column[row]
                back[t] = ~k
    binaries = iter(compiled.binaries)
    binaries = zip(binaries, binaries, binaries)
    ternaries = iter(compiled.ternaries)
    ternaries = zip(ternaries, ternaries, ternaries, ternaries)
    cells = iter(compiled.cells)
    for row, n_binaries, n_ternaries in zip(cells, cells, cells):
        base = bases[row]
        for a, b, t in islice(binaries, n_binaries):
            sa, sb = score[a], score[b]
            if sa is not None and sb is not None:
                s = base + sa + sb
                old = score[t]
                if old is None or s > old:
                    score[t] = s
                    back[t] = (a, b)
        if n_ternaries:
            for a, m, c, t in islice(ternaries, n_ternaries):
                sa, sm, sc = score[a], score[m], score[c]
                if sa is not None and sm is not None and sc is not None:
                    s = base + sa + sm + sc
                    old = score[t]
                    if old is None or s > old:
                        score[t] = s
                        back[t] = (a, m, c)

    top_row = table.row_of[1][table.n]
    top = _root(bases[top_row], [None if t is None else score[t]
                                 for t in compiled.golds])
    if top is None:
        return None
    best, split = top
    join = cat_index[JOIN]
    row = [cat_index[NOSEM]] * len(table.spans)
    row[top_row] = join  # the root, whether or not it is the whole-span item
    offsets = compiled.offsets
    stack = [compiled.golds[split]]
    while stack:
        pointer = back[t := stack.pop()]
        if pointer is None:  # the NoSem item
            continue
        r = bisect.bisect_right(offsets, t) - 1
        if pointer.__class__ is tuple:
            row[r] = join
            stack += pointer
        else:
            row[r] = cat_index[labels[~pointer]]
    return best, tuple(row)


def constrained_parse(table: ScoreTable, grammar: Grammar, gold: Program,
                      schema: DomainSchema, stats: dict | None = None):
    """The label row and score of the highest-scoring tree whose program
    equals ``gold`` (a ``GoldParse``), or None when no grammar-legal tree
    maps to it.

    An exact Viterbi over (span, program state), in two steps.
    ``_compile`` lays out the items, every state a cell can hold, and the
    rule edges between them; ``_evaluate`` takes each item's best edge
    over the table's scores and walks the winner's backpointers into its
    label row.  A span's state is the program its subtree composes to, as
    ``program_of_tree`` composes it: constants absent from ``gold`` are
    masked out, and a node is kept only while its program is admissible.
    So the best tree maps to ``gold``.  A cell also drops every state whose
    need (see ``_compile``) exceeds the tokens outside its span: each leaf
    covers tokens of its own, so no tree composing to ``gold`` holds such
    an item, and no item built on one is kept either.  Only cells longer
    than ``n - weight(gold)`` can drop anything.  Scores are summed as in
    ``parse_kbest``.

    The chart is compiled for ``gold``'s template (see
    ``CompositionTable.template``), which renames its constants within
    their signature classes; renaming maps the template's chart onto the
    gold's, leaf for leaf.  It is compiled once per ``(n, template id,
    ternary)`` and kept in the schema table's ``charts``, which
    ``DomainSchema.add`` clears with the rest of the table, and it serves
    every gold program of the template and every category list: a gold
    constant that is not among the table's categories is a masked leaf.
    An exact tie between derivations of one state goes to the first edge
    in ``_compile``'s order, whose leaves follow ``gold``'s constants in
    the order of their first occurrence in its preorder.  The leaf order
    moves state indices and so decides only such ties, never a score.
    """
    n = table.n
    if n < 1:
        raise EmptyInput("empty utterance")
    composition = schema.table
    template, labels = composition.template(composition.intern(gold))
    key = (n, template, grammar.ternary)
    compiled = composition.charts.get(key)
    if compiled is None:
        compiled = composition.charts[key] = _compile(
            n, grammar, composition.programs[template], schema)
    _count(stats, n, grammar)
    best = _evaluate(compiled, table, labels)
    if best is None:
        return None
    return GoldParse(best[1], best[0], gold, table.categories)


def dump_chart(table: ScoreTable, grammar: Grammar, K: int, path) -> None:
    """Writes the K-best chart of ``table``, every list ranked out to K."""
    with open(path, "w") as fh:
        json.dump(_Chart(table, grammar, K).to_json(), fh, indent=2,
                  sort_keys=True)
