"""CKY inference: a lazy K-best chart, and an exact chart constrained to a
gold program.

Both parse the same grammar.  Binary rules: root -> Join | NoSem Join;
Join -> Join Join | Join NoSem.  With the non-projective extension on,
Join -> Join Join Join is added: the two outer children compose first,
then the middle.  Join also hosts bare constant leaves.

``parse_kbest`` ranks, per span, up to K derivations for Join (a span's
NoSem entry is fixed at zero), lazily, after Huang & Chiang 2005 (*Better
k-best parsing*, Algorithm 3).  One Viterbi pass keeps each cell's best
derivation.  A cell's ranked list, and its deeper ranks, are built only
when a consumer asks for them: its rule sources' best combinations go
into a priority queue, and each pop pushes the successors that take one
child one rank deeper, extending the child cells only as far as that
needs.  A caller that keeps the first candidate, as ``best_valid_tree``
does when it is valid, pays for the Viterbi pass alone and builds no
list.  The chart is approximate: a derivation outside some cell's top K
is lost.  A candidate carries its derivation; its label row and tree are
built when read.  ``best_valid_tree`` judges each candidate by composing
program ids over its derivation, with the leaf and node rule of
``program_of_tree`` (``typesys.program_id``), and walks the one it
accepts into its label row: decoding returns a row, as the E-step does,
and builds no tree.

``constrained_parse`` is an exact Viterbi whose nonterminals are program
states: each cell keeps the best derivation per program its span can
compose to, which is a subterm of the gold program or a partial
application of one.  It composes every node as ``program_of_tree`` does,
through the schema's composition table (``typesys.CompositionTable``), so
a pair of programs is composed once per schema.  A node is kept only
while its program is admissible against the gold program, so its best
tree maps to gold and it returns None only when no tree does.  It builds
no tree: it walks the winner's backpointers once and returns its label
row, the per-span targets the M-step reads.  Both searches return a
``ParseResult``: in this grammar the row fixes the tree, which
``ParseResult.tree`` rebuilds only when it is read, through
``scorer.tree_from_labels``, the package's one tree builder.
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

Both charts index a cell by its table row alone.  The K-best chart keeps
derivations, the tuple ``(score, row, category, children)`` whose children
are derivations (a NoSem child is ``(0.0, row, NoSem, ())``); only
``_Chart.to_json`` and the failure span in ``best_valid_tree`` turn a row
into its span, the table's shared ``Span``.  The constrained chart keeps a
score per item and a backpointer to the edge that won it.  Both choose the
root by ``_root``'s rule over the scores of the entries that end at the
last token.  Both Viterbi loops visit cells by increasing length, then
start, and try a cell's rule sources in one order: the leaf constants,
Join Join by split, Join NoSem by split, then the ternary rule by split
pair; only a strictly greater score replaces, so an exact tie goes to the
first source tried.
The K-best chart reads a plan built once per length and grammar
(``_plan``): the fill order, and for each cell, by row, the rows of its
children per split and split pair.  The Viterbi pass follows it, keeping
each cell's best score and derivation by row, and the deeper ranks take
every cell's rule sources from it, so neither does index arithmetic.  The
constrained chart scores every leaf before the first edge, which
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

from .core import JOIN, NOSEM, SpanTree
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


class EmptyInput(ValueError):
    """Cannot parse an empty utterance."""


@dataclass(frozen=True)
class Grammar:
    """Rule set switch: the fixed binary grammar, optionally extended with
    the ternary non-projective rule."""

    ternary: bool = False


@dataclass(slots=True)
class ParseResult:
    """A parse: the label row of its tree (``labels``, one index into
    ``categories`` per span row, as ``SpanScorer.labels_for_tree`` writes
    it), its score and its program.  Decoding (``best_valid_tree``) and the
    E-step (``constrained_parse``) both return one.  It keeps nothing of
    the chart or the score table.  ``tree`` rebuilds the tree from the row
    on every read (``scorer.tree_from_labels``), the one tree builder.

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
    """The merge state of one list: the table row its derivations span, its
    rule sources, the queued combinations, every ``(source, ranks)`` queued
    so far, and the last pop, whose successors are queued just before the
    next pop."""

    row: int
    sources: list
    heap: list = field(default_factory=list)
    seen: set = field(default_factory=set)
    last: tuple | None = None


@dataclass(frozen=True, slots=True)
class _Plan:
    """The K-best chart's cells over ``n`` tokens with one grammar, in
    table rows, shared by every chart of that length and grammar.

    ``order`` lists the rows in the order the Viterbi pass fills them (by
    increasing length, then start).  ``cells[r]`` is ``(lefts, rights,
    triples)`` for the cell at row ``r``, ``(i, j)``: the rows of the left
    and the right child of each split ``s``, ``(i, s)`` and ``(s + 1, j)``,
    by increasing ``s``, and ``triples``, which repeats ``a, m, c``, the
    rows of the children of each ternary split pair in the order they are
    tried (empty without the ternary rule).  The whole span's ``lefts`` and
    ``rights`` are the root's NoSem and Join children.  ``nosems[r]`` is
    the NoSem derivation over the span of row ``r``."""

    order: tuple
    cells: tuple
    nosems: tuple


@functools.lru_cache(maxsize=None)
def _plan(n: int, ternary: bool) -> _Plan:
    geometry = _geometry(n)
    row_of, spans = geometry.row_of, geometry.spans

    def cell(i: int, j: int) -> tuple:
        triples = () if not ternary else tuple(
            r for s1 in range(i, j - 1) for s2 in range(s1 + 1, j)
            for r in (row_of[i][s1], row_of[s1 + 1][s2], row_of[s2 + 1][j]))
        return (tuple(row_of[i][s] for s in range(i, j)),
                tuple(row_of[s + 1][j] for s in range(i, j)), triples)

    rows = range(len(spans))
    return _Plan(tuple(sorted(rows, key=lambda r: (len(spans[r]), spans[r].start))),
                 tuple(cell(span.start, span.end) for span in spans),
                 tuple((0.0, r, NOSEM, ()) for r in rows))


@functools.lru_cache(maxsize=None)
def _constants(categories: tuple) -> tuple:
    """The constant labels of ``categories`` in label order, and their
    columns by a table's ``cat_index``: a slice when they are contiguous,
    as in every schema's category list (``[NoSem, Join]`` and the sorted
    constants), so that a table's constant columns are a view; else an
    index array."""
    column = {c: k for k, c in enumerate(categories)}
    constants = sorted(c for c in categories if c not in (NOSEM, JOIN))
    columns = [column[c] for c in constants]
    if columns and columns == list(range(columns[0], columns[0] + len(columns))):
        return constants, slice(columns[0], columns[0] + len(columns))
    return constants, np.array(columns, dtype=np.intp)


class _Chart:
    """Best-first lists of up to K derivations for every Join cell and for
    the root, each built and extended only as far as it is read.

    ``best[r]`` is the best derivation of the cell at table row ``r``, or
    None, and the root's is ``best[root]``, the slot after the last row.
    The constructor runs the Viterbi pass, which fills ``best``; ``at``
    reads rank 0 there and ranks deeper ones on demand.  ``lists[key]`` is
    None until a rank past 0 is read from it or from a list whose rule
    sources it feeds; then it holds its derivations ranked so far, best
    first.  A caller that keeps the root's rank 0 builds no list.  A list's rule sources take
    their children from the plan, and their Join base and leaf scores from
    the arrays the Viterbi pass read.  A list's merge key is ``(-(base +
    (c1 + c2)), order, ranks)``: its sum, then the source's ``(kind, split
    index)``, then the children's ranks.  The kinds are 0 for the leaf
    constants (the root's: the whole span's Join), 1 for Join Join, 2 for
    Join NoSem (the root's: NoSem Join) and 3 for the ternary rule, whose
    split index counts its split pairs in the order they are tried.
    """

    def __init__(self, table: ScoreTable, grammar: Grammar, K: int):
        if table.n < 1:
            raise EmptyInput("empty utterance")
        self.table = table
        self.K = K
        self.plan = _plan(table.n, grammar.ternary)
        self.bases = table.shifted[:, table.cat_index[JOIN]].tolist()
        self.constants, columns = _constants(tuple(table.categories))
        self.consts = table.shifted[:, columns]
        self.root = len(table.spans)
        self.best = self._viterbi()  # by row, then the root's
        self.lists = [None] * len(self.best)  # each built on demand
        self.frontiers = [None] * len(self.best)  # once rank 1 is asked for

    def _viterbi(self) -> list:
        """The best derivation of every cell by row, then the root's, each
        None when there is none.  ``score[r]`` is the score of ``best[r]``,
        or None while it has none; until its cell is filled, they hold its
        best leaf's score and label, the first of ``_live_leaves``: a NaN
        constant is no leaf, in this pass as in the merge."""
        plan, bases = self.plan, self.bases
        score, best = [None] * len(bases), [None] * len(bases)
        if self.constants:
            # argmax keeps the first best column: ties go to the lower label.
            cols = self.consts.argmax(axis=1)
            leaves = self.consts[np.arange(len(cols)), cols]
            for k, (leaf, c) in enumerate(zip(leaves.tolist(), cols.tolist())):
                if leaf > NEG_INF / 2:
                    score[k], best[k] = leaf, self.constants[c]
                elif leaf != leaf:  # argmax stops at a NaN: the best live leaf
                    row = self.consts[k].tolist()
                    if live := _live_leaves(row):
                        score[k], best[k] = row[live[0]], self.constants[live[0]]
        nosems = plan.nosems
        for k in plan.order:
            lefts, rights, triples = plan.cells[k]
            base = bases[k]
            top = key = score[k]
            if top is not None:
                top = (key, k, best[k], ())
            # Sources in merge order; only a greater key replaces.
            for a, b in zip(lefts, rights):
                sa, sb = score[a], score[b]
                if sa is not None and sb is not None:
                    total = base + (sa + sb)
                    if top is None or total > key:
                        key = total
                        top = (base + sa + sb, k, JOIN, (best[a], best[b]))
            for a, b in zip(lefts, rights):
                sa = score[a]
                if sa is not None and (top is None or base + sa > key):
                    key = base + sa
                    top = (base + sa + 0.0, k, JOIN, (best[a], nosems[b]))
            if triples:
                rows = iter(triples)
                for a, m, c in zip(rows, rows, rows):
                    sa, sm, sc = score[a], score[m], score[c]
                    if sa is not None and sm is not None and sc is not None:
                        total = base + (sa + sm + sc)
                        if top is None or total > key:
                            key = total
                            top = (base + sa + sm + sc, k, JOIN,
                                   (best[a], best[m], best[c]))
            if top is not None:
                score[k], best[k] = top[0], top
        whole = plan.order[-1]
        lefts, rights, _ = plan.cells[whole]
        top = _root(bases[whole], [score[whole]] + [score[r] for r in rights])
        root = None
        if top is not None:
            total, s = top
            root = best[whole] if s == 0 else (
                total, whole, JOIN, (nosems[lefts[s - 1]], best[rights[s - 1]]))
        best.append(root)
        return best

    def at(self, key: int, r: int):
        """Rank ``r`` (0 is the best) of a list, or None past its end or K."""
        if r >= self.K:
            return None
        entries = self.lists[key]
        if entries is None:
            if r == 0:
                return self.best[key]
            entries = self._list(key)
        while len(entries) <= r:
            if not self._extend(key, entries):
                return None
        return entries[r]

    def _list(self, key: int) -> list:
        """A list's derivations ranked so far, built from its best one on
        first use."""
        entries = self.lists[key]
        if entries is None:
            best = self.best[key]
            entries = self.lists[key] = [] if best is None else [best]
        return entries

    def ranked(self, key: int):
        """A list's derivations, best first, each ranked when it is read."""
        r = 0
        while (entry := self.at(key, r)) is not None:
            yield entry
            r += 1

    def _sources(self, key: int) -> _Frontier:
        """A list's frontier with its rule sources, ``(order, base,
        children)``, where ``order`` is ``(kind, split index)``.  A child is
        ``(derivations, key)``: a cell's list with its key, built here if
        it was not and extended on demand, or a complete list (leaf
        constants, one NoSem) with None."""
        plan, lists = self.plan, self._list
        if key == self.root:
            whole = plan.order[-1]
            lefts, rights, _ = plan.cells[whole]
            base = self.bases[whole]
            return _Frontier(whole, [((0, 0), 0.0, [(lists(whole), whole)])] + [
                ((2, x), base, [([plan.nosems[a]], None), (lists(b), b)])
                for x, (a, b) in enumerate(zip(lefts, rights))])
        lefts, rights, triples = plan.cells[key]
        base = self.bases[key]
        scores = self.consts[key].tolist()
        sources = [((0, 0), 0.0, [([(scores[k], key, self.constants[k], ())
                                    for k in _live_leaves(scores)[: self.K]],
                                   None)])]
        for x, (a, b) in enumerate(zip(lefts, rights)):
            sources.append(((1, x), base, [(lists(a), a), (lists(b), b)]))
            sources.append(((2, x), base, [(lists(a), a), ([plan.nosems[b]], None)]))
        rows = iter(triples)
        sources += [((3, x), base, [(lists(a), a), (lists(m), m), (lists(c), c)])
                    for x, (a, m, c) in enumerate(zip(rows, rows, rows))]
        return _Frontier(key, sources)

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

    def _extend(self, key: int, entries: list) -> bool:
        """Appends a list's next derivation; False when it has no more."""
        frontier = self.frontiers[key]
        if frontier is None:
            # Every source's best combination; the first pop is the rank 0
            # that the Viterbi pass kept.
            frontier = self.frontiers[key] = self._sources(key)
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
        entries.append((score, frontier.row, JOIN, children))
        return True

    def to_json(self) -> dict:
        """Every list ranked out to K."""
        spans = self.table.spans

        def entry(deriv: tuple) -> dict:
            score, row, category, children = deriv
            out = {"score": score, "category": category,
                   "span": [spans[row].start, spans[row].end]}
            if children:
                out["children"] = [[spans[c[1]].start, spans[c[1]].end, c[2]]
                                   for c in children]
            return out

        cells = {f"{span.start},{span.end}": [entry(d) for d in self.ranked(r)]
                 for r, span in enumerate(spans)}
        return {"n": self.table.n, "K": self.K, "cells": cells,
                "root": [entry(d) for d in self.ranked(self.root)]}


def _live_leaves(scores: list) -> list:
    """The constants whose leaf scores lie above ``NEG_INF / 2``, NaN
    excluded, best first, by their index in ``scores``, the label order: a
    stable sort (``reverse`` keeps ties in order), so ties go to the lower
    label, as ``argmax`` breaks them in the Viterbi pass."""
    floor = NEG_INF / 2
    live = [k for k, s in enumerate(scores) if s > floor]
    live.sort(key=scores.__getitem__, reverse=True)
    return live


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


def _label_row(deriv: tuple, table: ScoreTable) -> tuple:
    """The derivation's label row: each node's category index at its row,
    NoSem at every other span."""
    cat_index = table.cat_index
    row = [cat_index[NOSEM]] * len(table.spans)
    stack = [deriv]
    while stack:
        _, r, category, children = stack.pop()
        row[r] = cat_index[category]
        stack += children
    return tuple(row)


class Candidate:
    """One K-best candidate: its derivation and score.  Its label row and
    its tree are built when they are read."""

    __slots__ = ("derivation", "score", "_table")

    def __init__(self, derivation: tuple, table: ScoreTable):
        self.derivation = derivation
        self.score = derivation[0]
        self._table = table

    @property
    def labels(self) -> tuple:
        return _label_row(self.derivation, self._table)

    @property
    def tree(self) -> SpanTree:
        return tree_from_labels(self.labels, self._table.categories)


def parse_kbest(table: ScoreTable, grammar: Grammar, K: int,
                stats: dict | None = None):
    """An iterator over the top-K grammar-legal candidates for the whole
    utterance, best first.  The Viterbi pass runs in this call; each later
    candidate is ranked when it is asked for, and its label row and tree
    built when they are read."""
    chart = _Chart(table, grammar, K)
    _count(stats, table.n, grammar)
    return (Candidate(d, table) for d in chart.ranked(chart.root))


_derivation_parts = itemgetter(2, 3)  # (category, children)


def best_valid_tree(candidates, schema: DomainSchema):
    """The ``ParseResult`` of the first candidate (descending score) whose
    derivation composes to a program, by ``program_of_tree``'s rule over
    its derivation; None when all of them are semantically invalid.  Reads
    no candidate past the first valid one, and walks that one's derivation
    into its label row; it builds no tree."""
    table = schema.table
    for cand in candidates:
        spans = cand._table.spans
        try:
            pid = program_id(cand.derivation, table, _derivation_parts,
                             lambda deriv: spans[deriv[1]])
        except CompositionFailure:
            continue
        return ParseResult(cand.labels, cand.score, table.programs[pid],
                           cand._table.categories)
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
                if (r := compose(x, y)) is not None and need(r) is not None]
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

    geometry = _geometry(n)
    row_of = geometry.row_of
    offsets = [0]
    for span in geometry.spans:  # in table row order
        offsets.append(offsets[-1] + len(members[len(span) - 1]))
    shared = list(range(offsets[-1] + 1))  # one int object per index
    nosem = shared[-1]

    def item(i: int, j: int, t: int) -> int:
        """State ``t`` of the cell ``(i, j)``."""
        return shared[offsets[row_of[i][j]] + t]

    leaves = [[] for _ in by_head]
    cells, binaries, ternaries = [], [], []
    for length, (slots, joins, nosems, triples) in enumerate(lengths, 1):
        edges = len(joins) + len(nosems), len(triples)
        for i in range(1, n - length + 2):
            j = i + length - 1
            for t, k in slots:
                leaves[k] += row_of[i][j], item(i, j, t)
            if any(edges):
                cells += row_of[i][j], *edges
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
    equals ``gold`` (a ``ParseResult``), or None when no grammar-legal tree
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
    return ParseResult(best[1], best[0], gold, table.categories)


def dump_chart(table: ScoreTable, grammar: Grammar, K: int, path) -> None:
    """Writes the K-best chart of ``table``, every list ranked out to K."""
    with open(path, "w") as fh:
        json.dump(_Chart(table, grammar, K).to_json(), fh, indent=2,
                  sort_keys=True)
