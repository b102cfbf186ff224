"""K-best chart parsing against brute-force oracles, plus the constrained
variant used during training."""

import collections
import hashlib
import heapq
import itertools
import json
import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spansem import cky
from spansem.cky import (
    EmptyInput,
    Grammar,
    NEG_INF,
    best_valid_tree,
    constrained_parse,
    dump_chart,
    parse_kbest,
    weight,
)
from spansem.core import (
    JOIN,
    NOSEM,
    Span,
    SpanTree,
    all_spans,
    labeled_spans,
    validate_tree,
)
from spansem.data.geo import geo_schema, mini_geo_corpus, mini_kb
from spansem.data.metrics import row_f1_counts
from spansem.data.scan import generate_scan_sp, scan_schema
from spansem.scorer import ScoreTable, SpanScorer
from spansem.typesys import (
    CompositionFailure,
    Program,
    compose_children,
    parse_program,
    program_of_tree,
)


def toy_categories(n_constants):
    return [NOSEM, JOIN] + [f"c{k}" for k in range(n_constants)]


def random_table(rng, n, n_constants=3):
    cats = toy_categories(n_constants)
    raw = np.array([[rng.gauss(0, 2) for _ in cats] for _ in all_spans(n)])
    return ScoreTable(n, cats, raw)


# -- independent oracles -----------------------------------------------------


def oracle_best_score(table, ternary):
    """Maximum tree score by memoized recursion over the same grammar,
    written independently of the chart code."""
    consts = [c for c in table.categories if c not in (NOSEM, JOIN)]
    jc = table.cat_index[JOIN]

    def shifted(i, j, col):
        return float(table.shifted[table.row_of[i][j], col])

    @lru_cache(None)
    def join(i, j):
        best = max((shifted(i, j, table.cat_index[c]) for c in consts),
                   default=float("-inf"))
        base = shifted(i, j, jc)
        for k in range(i, j):
            best = max(best, base + join(i, k) + join(k + 1, j))
            best = max(best, base + join(i, k))  # Join -> Join NoSem
        if ternary and j - i >= 2:
            for s1 in range(i, j - 1):
                for s2 in range(s1 + 1, j):
                    best = max(best, base + join(i, s1) + join(s1 + 1, s2)
                               + join(s2 + 1, j))
        return best

    n = table.n
    base = shifted(1, n, jc)
    best = join(1, n)  # whole-span Join at the root
    for k in range(1, n):
        best = max(best, base + join(k + 1, n))  # root -> NoSem Join
    return best


def oracle_all_scores(table, ternary):
    """Literal enumeration of every legal tree's score (small n only)."""
    consts = [c for c in table.categories if c not in (NOSEM, JOIN)]
    jc = table.cat_index[JOIN]

    def shifted(i, j, col):
        return float(table.shifted[table.row_of[i][j], col])

    @lru_cache(None)
    def join(i, j):
        out = [shifted(i, j, table.cat_index[c]) for c in consts]
        base = shifted(i, j, jc)
        for k in range(i, j):
            rights = join(k + 1, j)
            for a in join(i, k):
                out.extend(base + a + b for b in rights)
                out.append(base + a)
        if ternary and j - i >= 2:
            for s1 in range(i, j - 1):
                for s2 in range(s1 + 1, j):
                    for a in join(i, s1):
                        for b in join(s1 + 1, s2):
                            out.extend(base + a + b + c
                                       for c in join(s2 + 1, j))
        return tuple(out)

    n = table.n
    base = shifted(1, n, jc)
    scores = list(join(1, n))
    for k in range(1, n):
        scores.extend(base + b for b in join(k + 1, n))
    return sorted(scores, reverse=True)


# -- unconstrained parsing ---------------------------------------------------


def test_single_token_leaf():
    cats = toy_categories(2)
    raw = np.array([[0.0, -5.0, 2.0, 1.0]])
    results = list(parse_kbest(ScoreTable(1, cats, raw), Grammar(), 5))
    assert results[0].tree.category == "c0"
    assert results[0].score == pytest.approx(2.0)
    assert [r.score for r in results] == pytest.approx([2.0, 1.0])


def test_empty_input_rejected():
    cats = toy_categories(1)
    with pytest.raises(EmptyInput):
        parse_kbest(ScoreTable(0, cats, np.zeros((0, 3))), Grammar(), 5)


@pytest.mark.parametrize("ternary", [False, True])
def test_top1_equals_oracle_max(ternary):
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 7)
        table = random_table(rng, n, rng.randint(1, 4))
        got = list(parse_kbest(table, Grammar(ternary=ternary), 5))[0].score
        assert got == pytest.approx(oracle_best_score(table, ternary))


@pytest.mark.parametrize("ternary", [False, True])
def test_kbest_list_equals_enumeration(ternary):
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 4)
        K = rng.randint(1, 6)
        table = random_table(rng, n, rng.randint(1, 3))
        got = [r.score for r in parse_kbest(table, Grammar(ternary=ternary), K)]
        want = oracle_all_scores(table, ternary)
        assert len(got) == min(K, len(want))
        assert got == pytest.approx(want[: len(got)])


def test_returned_trees_are_grammar_legal():
    rng = random.Random(13)
    for ternary in (False, True):
        for _ in range(20):
            n = rng.randint(1, 6)
            table = random_table(rng, n)
            for result in parse_kbest(table, Grammar(ternary=ternary), 5):
                validate_tree(result.tree, n, ternary=ternary)


def tie_heavy_table(rng, n, n_constants=3):
    """Small integer scores, so that many trees tie, with about a third of
    the constant leaves masked to NEG_INF."""
    cats = toy_categories(n_constants)
    raw = np.array([[NEG_INF if c not in (NOSEM, JOIN) and rng.random() < 0.3
                     else float(rng.randint(-2, 2)) for c in cats]
                    for _ in all_spans(n)])
    return ScoreTable(n, cats, raw)


def ranked(table, ternary, K):
    return [(r.tree, r.score)
            for r in parse_kbest(table, Grammar(ternary=ternary), K)]


def test_beams_are_prefix_stable():
    """A narrower beam ranks the same trees with the same scores first, on
    both grammars, with real and with tie-heavy scores."""
    rng = random.Random(17)
    for trial in range(120):
        ternary = trial % 4 >= 2
        n = rng.randint(1, 6)
        make = random_table if trial % 2 else tie_heavy_table
        table = make(rng, n)
        wide = ranked(table, ternary, 8)
        narrow = ranked(table, ternary, 3)
        assert wide[: len(narrow)] == narrow


@pytest.mark.parametrize("ternary", [False, True])
def test_taking_a_prefix_of_candidates_matches_the_list(ternary):
    """Reading only the first k candidates ranks exactly the first k of
    the full list, whatever k is."""
    rng = random.Random(37)
    for trial in range(60):
        n = rng.randint(1, 7)
        K = rng.choice([1, 3, 5, 8])
        make = random_table if trial % 2 else tie_heavy_table
        table = make(rng, n)
        full = ranked(table, ternary, K)
        for k in range(len(full) + 1):
            candidates = parse_kbest(table, Grammar(ternary=ternary), K)
            head = [(r.tree, r.score) for r in itertools.islice(candidates, k)]
            assert head == full[:k]


def reference_viterbi(table, ternary):
    """The K-best chart's Viterbi pass as it was written before its fill
    plan, over ``best[i][j]`` and with the constants sorted per call:
    ``(root list, cells)``."""
    n, row_of = table.n, table.row_of
    constants = sorted(c for c in table.categories if c not in (NOSEM, JOIN))
    cols = [table.cat_index[c] for c in constants]
    bases = table.shifted[:, table.cat_index[JOIN]].tolist()
    leaves = [None] * len(table.spans)
    if cols:
        consts = table.shifted[:, cols]
        for k, (score, c) in enumerate(zip(consts.max(axis=1).tolist(),
                                           consts.argmax(axis=1).tolist())):
            if score > NEG_INF / 2:
                leaves[k] = (score, constants[c])
    best = [[None] * (n + 2) for _ in range(n + 2)]
    cells = {}
    for length in range(1, n + 1):
        for i in range(1, n - length + 2):
            j = i + length - 1
            k = row_of[i][j]
            base = bases[k]
            top = key = None
            if leaves[k] is not None:
                key = leaves[k][0]
                top = (key, i, j, leaves[k][1], ())
            for s in range(i, j):
                a, b = best[i][s], best[s + 1][j]
                if a is not None and b is not None:
                    score = base + (a[0] + b[0])
                    if top is None or score > key:
                        key = score
                        top = (base + a[0] + b[0], i, j, JOIN, (a, b))
            for s in range(i, j):
                a = best[i][s]
                if a is not None and (top is None or base + a[0] > key):
                    key = base + a[0]
                    top = (base + a[0] + 0.0, i, j, JOIN,
                           (a, (0.0, s + 1, j, NOSEM, ())))
            if ternary:
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
                                       JOIN, (a, b, c))
            best[i][j] = top
            cells[(i, j)] = [] if top is None else [top]
    ends = [best[s][n] for s in range(1, n + 1)]
    top = cky._root(bases[row_of[1][n]],
                    [None if d is None else d[0] for d in ends])
    if top is None:
        return [], cells
    score, s = top
    if s == 0:
        return [ends[0]], cells
    return [(score, 1, n, JOIN, ((0.0, 1, s, NOSEM, ()), ends[s]))], cells


def mixed_table(rng, kind, n):
    """A table of one kind: random, tie-heavy ("ties"), of tenths (whose
    sums round differently in another order, so that near ties turn on the
    order of summation), "masked" (most constant leaves at NEG_INF, so that
    whole cells have no leaf and some none at all), "non-finite" (NaN, +inf
    or -inf in the Join column or a constant's column) or with "no
    constants"."""
    if kind == "ties":
        return tie_heavy_table(rng, n)
    cats = toy_categories(0 if kind == "no constants" else 3)
    bad = (float("nan"), float("inf"), -float("inf"))

    def score(c):
        if kind == "tenths":
            return rng.randint(-9, 9) / 10
        if kind == "masked" and c not in (NOSEM, JOIN) and rng.random() < 0.7:
            return NEG_INF
        if kind == "non-finite" and c != NOSEM and rng.random() < 0.1:
            return rng.choice(bad)
        return rng.gauss(0, 2)

    return ScoreTable(n, cats, np.array([[score(c) for c in cats]
                                         for _ in all_spans(n)]))


TABLE_KINDS = ("random", "ties", "tenths", "masked", "non-finite", "no constants")


def span_derivation(deriv, spans):
    """A chart derivation, ``(score, row, category, children)``, written as
    the reference writes it: ``(score, i, j, category, children)``."""
    score, row, category, children = deriv
    return (score, spans[row].start, spans[row].end, category,
            tuple(span_derivation(c, spans) for c in children))


@pytest.mark.parametrize("ternary", [False, True])
def test_the_planned_viterbi_matches_the_reference(ternary):
    """After the Viterbi pass, the root's best derivation and every cell's
    (``_Chart.best``, None for none), each as a list of at most one, with
    their rows turned back into spans, have the ``repr`` of the reference's
    lists, up to 12 tokens with the binary grammar and 8 with the ternary
    one, on every kind of ``mixed_table``."""
    rng = random.Random(53)
    absent = collections.Counter()
    for n in range(1, (8 if ternary else 12) + 1):
        for kind in TABLE_KINDS:
            for _ in range(3):
                t = mixed_table(rng, kind, n)
                chart = cky._Chart(t, Grammar(ternary=ternary), 5)
                root, cells = reference_viterbi(t, ternary)
                lists = [[] if d is None else [span_derivation(d, t.spans)]
                         for d in chart.best]
                assert repr(lists[chart.root]) == repr(root), (kind, n)
                assert len(lists) == len(cells) + 1 == chart.root + 1
                for (i, j), entries in cells.items():
                    assert repr(lists[t.row_of[i][j]]) == repr(entries), (kind, n, i, j)
                absent[kind] += sum(not entries for entries in cells.values())
    # the masked tables have cells without a derivation, the random ones none
    assert absent["masked"] and not absent["random"], absent


class ReferenceChart:
    """The K-best chart as it was written before it indexed its cells by
    table row: its Viterbi pass is ``reference_viterbi``, its lists are
    keyed by ``(i, j)`` and "root", each list's rule sources enumerate its
    splits and read its table row, and a derivation is ``(score, i, j,
    category, children)``."""

    def __init__(self, table, ternary, K):
        self.table, self.ternary, self.K = table, ternary, K
        self.root, self.cells = reference_viterbi(table, ternary)
        self.frontiers = {}

    def at(self, key, r):
        if r >= self.K:
            return None
        entries = self.root if key == "root" else self.cells[key]
        while len(entries) <= r:
            if not self._extend(key, entries):
                return None
        return entries[r]

    def ranked(self, key):
        r = 0
        while (entry := self.at(key, r)) is not None:
            yield entry
            r += 1

    def _sources(self, key):
        table = self.table
        i, j = (1, table.n) if key == "root" else key
        row = table.shifted[table.row_of[i][j]].tolist()
        base = row[table.cat_index[JOIN]]

        def cell(a, b):
            return self.cells[(a, b)], (a, b)

        def nosem(a, b):
            return [(0.0, a, b, NOSEM, ())], None

        if key == "root":
            return [((0, ()), 0.0, [cell(1, j)])] + [
                ((2, (s,)), base, [nosem(1, s), cell(s + 1, j)])
                for s in range(1, j)]
        constants = sorted(c for c in table.categories if c not in (NOSEM, JOIN))
        scores = [row[table.cat_index[c]] for c in constants]
        top = sorted(range(len(scores)), key=scores.__getitem__,
                     reverse=True)[: self.K]
        sources = [((0, ()), 0.0, [([(scores[k], i, j, constants[k], ())
                                     for k in top if scores[k] > NEG_INF / 2],
                                    None)])]
        for s in range(i, j):
            sources.append(((1, (s,)), base, [cell(i, s), cell(s + 1, j)]))
            sources.append(((2, (s,)), base, [cell(i, s), nosem(s + 1, j)]))
        if self.ternary:
            sources.extend(
                ((3, (s1, s2)), base,
                 [cell(i, s1), cell(s1 + 1, s2), cell(s2 + 1, j)])
                for s1 in range(i, j - 1) for s2 in range(s1 + 1, j))
        return sources

    def _push(self, frontier, si, ranks):
        if (si, ranks) in frontier["seen"]:
            return
        order, base, refs = frontier["sources"][si]
        children = []
        total = 0
        for (entries, key), r in zip(refs, ranks):
            if r < len(entries):
                child = entries[r]
            elif key is None or (child := self.at(key, r)) is None:
                return
            total += child[0]
            children.append(child)
        frontier["seen"].add((si, ranks))
        heapq.heappush(frontier["heap"], (-(base + total), order, ranks, si,
                                          tuple(children)))

    def _extend(self, key, entries):
        frontier = self.frontiers.get(key)
        if frontier is None:
            frontier = self.frontiers[key] = {
                "sources": self._sources(key), "heap": [], "seen": set(), "last": None}
            for si, (_, _, refs) in enumerate(frontier["sources"]):
                self._push(frontier, si, (0,) * len(refs))
            if frontier["heap"]:
                frontier["last"] = heapq.heappop(frontier["heap"])
        if frontier["last"] is not None:
            _, _, ranks, si, _ = frontier["last"]
            frontier["last"] = None
            for pos in range(len(ranks)):
                self._push(frontier, si,
                           ranks[:pos] + (ranks[pos] + 1,) + ranks[pos + 1:])
        if not frontier["heap"]:
            return False
        frontier["last"] = heapq.heappop(frontier["heap"])
        _, _, _, si, children = frontier["last"]
        if len(children) == 1:
            entries.append(children[0])
            return True
        score = frontier["sources"][si][1]
        for child in children:
            score += child[0]
        i, j = (1, self.table.n) if key == "root" else key
        entries.append((score, i, j, JOIN, children))
        return True

    def to_json(self):
        def entry(deriv):
            score, i, j, category, children = deriv
            out = {"score": score, "category": category, "span": [i, j]}
            if children:
                out["children"] = [[c[1], c[2], c[3]] for c in children]
            return out

        cells = {f"{i},{j}": [entry(d) for d in self.ranked((i, j))]
                 for i, j in sorted(self.cells)}
        return {"n": self.table.n, "K": self.K, "cells": cells,
                "root": [entry(d) for d in self.ranked("root")]}


def reference_chart(table, ternary, K):
    """The reference's chart, every list ranked out to K, as ``dump_chart``
    writes it."""
    return json.dumps(ReferenceChart(table, ternary, K).to_json(), indent=2,
                      sort_keys=True)


@pytest.mark.parametrize("ternary", [False, True])
def test_the_deeper_ranks_match_the_reference_chart(ternary):
    """Every list ranked out to K, the root's included, is what the
    reference ranks, byte for byte as ``dump_chart`` writes it, up to 10
    tokens with the binary grammar and 7 with the ternary one, on every
    kind of ``mixed_table`` and for K in {1, 5, 12}.  The tenths, masked
    and non-finite tables put near ties, missing children and NaN sums into
    the merge queues, where only the merge key's order and the queue's
    push order decide.  The chart builds a list only when a rank past its
    Viterbi entry is read, where the reference builds every list up front;
    each table is ranked twice, once list by list and once with the root
    ranked out to K first, as ``best_valid_tree`` reads it, so that the
    cells' lists are built in the order its merge asks for them."""
    rng = random.Random(59)
    deep = built = 0
    for n in range(1, (7 if ternary else 10) + 1):
        for kind in TABLE_KINDS:
            for K in (1, 5, 12):
                t = mixed_table(rng, kind, n)
                want = reference_chart(t, ternary, K)
                for root_first in (False, True):
                    chart = cky._Chart(t, Grammar(ternary=ternary), K)
                    assert chart.lists == [None] * (chart.root + 1)
                    if root_first:
                        list(chart.ranked(chart.root))
                        built += sum(entries is not None for entries in chart.lists)
                    got = chart.to_json()
                    assert json.dumps(got, indent=2, sort_keys=True) == want, \
                        (kind, n, K, root_first)
                deep += sum(len(entries) > 1 for entries in got["cells"].values())
    assert deep, "no list was ranked past its Viterbi entry"
    assert built, "ranking the roots built no list"


def test_dump_chart_bytes_are_pinned(tmp_path):
    """The dumped K = 5 chart of seeded tie-heavy tables, n <= 6, on both
    grammars: a change to tie order, to summation order or to the file's
    layout shows here.  The scores are integers, so every sum is exact."""
    rng = random.Random(43)
    path = tmp_path / "chart.json"
    digest = hashlib.sha256()
    for trial in range(40):
        table = tie_heavy_table(rng, rng.randint(1, 6))
        dump_chart(table, Grammar(ternary=trial % 2 == 1), 5, path)
        digest.update(path.read_bytes())
    assert digest.hexdigest() == (
        "a1b0cdb7772d38aa047c944a0b2519843f167d1c5af811eafb3ce8fae0c14a96")


def test_nosem_neutrality():
    """Raising raw NoSem scores on one span rescales that span's shifted
    row but leaves every complete-tree ranking unchanged in shifted terms
    of other spans; rankings computed from other spans agree."""
    rng = random.Random(19)
    cats = toy_categories(3)
    n = 4
    raw = np.array([[rng.gauss(0, 2) for _ in cats] for _ in all_spans(n)])
    t1 = ScoreTable(n, cats, raw)
    bumped = raw.copy()
    row = t1.row_of[2][3]
    bumped[row] += 7.5  # uniform shift on one span, NoSem included
    t2 = ScoreTable(n, cats, bumped)
    s1 = [r.score for r in parse_kbest(t1, Grammar(), 5)]
    s2 = [r.score for r in parse_kbest(t2, Grammar(), 5)]
    assert s1 == pytest.approx(s2)


def reference_tree(deriv, table):
    """The derivation's tree, built node by node as the K-best chart built
    it before candidates carried label rows; its spans are the table's."""
    _, row, category, children = deriv
    return SpanTree(table.spans[row], category,
                    tuple([reference_tree(c, table) for c in children]) if children else ())


def span_f1_counts(pred_tree, gold_tree):
    """Reference: (true positives, predicted, gold) over the trees'
    labeled-span sets, NoSem excluded; a None prediction has no spans."""
    pred = set() if pred_tree is None else labeled_spans(pred_tree)
    gold = labeled_spans(gold_tree)
    return len(pred & gold), len(pred), len(gold)


@pytest.mark.parametrize("ternary", [False, True])
def test_candidate_rows_give_the_reference_trees_and_f1_counts(ternary):
    """Every candidate's tree, read on demand from its label row, has the
    ``repr`` of the tree built node by node from its derivation, on every
    kind of ``mixed_table`` up to 8 tokens with the binary grammar and 6
    with the ternary one, for K in {1, 5}.  On the same tables the row F1
    counts of every pair of candidates, each taken once as the gold, are
    the reference's over labeled-span sets, and a None prediction counts
    every gold span as a miss."""
    rng = random.Random(61)
    nosem = toy_categories(3).index(NOSEM)
    seen = collections.Counter()
    for n in range(1, (6 if ternary else 8) + 1):
        for kind in TABLE_KINDS:
            for K in (1, 5):
                t = mixed_table(rng, kind, n)
                candidates = list(parse_kbest(t, Grammar(ternary=ternary), K))
                trees = [reference_tree(c.derivation, t) for c in candidates]
                for cand, tree in zip(candidates, trees):
                    assert repr(cand.tree) == repr(tree), (kind, n, K)
                for gold_cand, gold_tree in zip(candidates, trees):
                    gold = list(gold_cand.labels)
                    assert row_f1_counts(None, gold, nosem) == \
                        (0, 0, len(labeled_spans(gold_tree)))
                    for cand, tree in zip(candidates, trees):
                        got = row_f1_counts(cand.labels, gold, nosem)
                        assert got == span_f1_counts(tree, gold_tree), (kind, n, K)
                        seen["partial" if 0 < got[0] < got[2] else "other"] += 1
    assert seen["partial"] > 100, seen


# -- semantic-validity filter ------------------------------------------------


def test_best_valid_tree_skips_invalid(monkeypatch):
    schema = scan_schema()
    cats = schema.categories()
    ci = {c: k for k, c in enumerate(cats)}
    raw = np.full((3, len(cats)), -8.0)
    raw[:, ci[NOSEM]] = 0.0
    # two direction entities side by side cannot compose; "l r" beats
    # "walk r" in score but only the latter is valid
    s11, s22 = 0, 2  # span rows for (1,1) and (2,2) with n=2
    raw[s11, ci["l"]] = 6.0
    raw[s11, ci["walk"]] = 5.0
    raw[s22, ci["r"]] = 6.0
    raw[:, ci[JOIN]] = 1.0
    table = ScoreTable(2, cats, raw)
    candidates = list(parse_kbest(table, Grammar(), 5))
    top_program = lambda r: program_of_tree(r.tree, schema)
    with pytest.raises(Exception):
        top_program(candidates[0])
    # the skipped candidate fails with the span of its node that composes
    # to nothing, the whole utterance
    failures = []
    inner = cky.program_id

    def recorded(*args):
        try:
            return inner(*args)
        except CompositionFailure as failure:
            failures.append(failure)
            raise

    monkeypatch.setattr(cky, "program_id", recorded)
    result = best_valid_tree(candidates, schema)
    assert result is not None
    assert str(result.program) == "walk(r)"
    assert failures and all(f.span is table.spans[table.row_of[1][2]]
                            for f in failures)


def test_best_valid_tree_none_when_all_invalid():
    schema = scan_schema()
    cats = schema.categories()
    ci = {c: k for k, c in enumerate(cats)}
    raw = np.full((3, len(cats)), NEG_INF)
    raw[:, ci[NOSEM]] = 0.0
    # two direction entities on both tokens: every two-leaf combination
    # fails to compose, and K=4 keeps the valid single-leaf trees out
    raw[0, ci["l"]] = 50.0
    raw[0, ci["r"]] = 40.0
    raw[2, ci["r"]] = 50.0
    raw[2, ci["l"]] = 40.0
    raw[1, ci[JOIN]] = 1.0
    table = ScoreTable(2, cats, raw)
    assert best_valid_tree(parse_kbest(table, Grammar(), 4), schema) is None


def reference_best_valid_tree(candidates, schema):
    """The first candidate whose tree composes by ``program_of_tree``, as
    (tree, score, program), or None."""
    for cand in candidates:
        try:
            program = program_of_tree(cand.tree, schema)
        except CompositionFailure:
            continue
        return cand.tree, cand.score, program
    return None


def schema_table(rng, schema, n, tie_heavy):
    """Scores over the schema's categories and, at times, one constant the
    schema does not have; every constant but one to four of them is
    masked, so that many candidates compose and many do not."""
    constants = [c for c in schema.categories() if c not in (NOSEM, JOIN)]
    cats = schema.categories() + (["unknown"] if rng.random() < 0.25 else [])
    live = set(rng.sample(constants, rng.randint(1, 4))) | set(cats[len(constants) + 2:])
    raw = np.array([[float(rng.randint(-2, 2)) if tie_heavy else rng.gauss(0, 2)
                     for _ in cats] for _ in all_spans(n)])
    for k, c in enumerate(cats):
        if c not in (NOSEM, JOIN) and c not in live:
            raw[:, k] = NEG_INF
        elif c not in (NOSEM, JOIN) and tie_heavy:
            raw[[rng.random() < 0.3 for _ in range(len(raw))], k] = NEG_INF
    return ScoreTable(n, cats, raw)


@pytest.mark.parametrize("ternary", [False, True])
def test_best_valid_tree_matches_the_tree_reference(ternary, monkeypatch):
    """``best_valid_tree``, which judges each candidate on its derivation,
    returns what the first candidate whose tree composes gives, on random
    and tie-heavy tables of the scan and geo schemas, n <= 6 and K in
    {1, 3, 5, 8}; it builds no tree, and walks the derivation of the
    returned candidate alone into its label row.  When it accepts the first
    candidate, the chart has built no list: rank 0 of the root is its
    Viterbi entry."""
    built = set()
    charts, make = [], cky._Chart

    def chart(*args):
        charts.append(make(*args))
        return charts[-1]

    inner = cky._label_row

    def recorded(deriv, table):
        built.add(id(deriv))
        return inner(deriv, table)

    def no_tree(*args):
        raise AssertionError("best_valid_tree built a tree")

    rng = random.Random(53)
    outcomes = collections.Counter()
    for schema in (scan_schema(), geo_schema(mini_kb())):
        for trial in range(120):
            table = schema_table(rng, schema, rng.randint(1, 6), trial % 2 == 0)
            K = rng.choice([1, 3, 5, 8])
            want = reference_best_valid_tree(
                parse_kbest(table, Grammar(ternary=ternary), K), schema)
            read = []

            def reading(candidates):
                for cand in candidates:
                    read.append(cand)
                    yield cand

            built.clear()
            charts.clear()
            monkeypatch.setattr(cky, "_Chart", chart)
            monkeypatch.setattr(cky, "_label_row", recorded)
            monkeypatch.setattr(cky, "tree_from_labels", no_tree)
            got = best_valid_tree(
                reading(parse_kbest(table, Grammar(ternary=ternary), K)), schema)
            monkeypatch.undo()
            skipped = read if got is None else read[:-1]
            assert not any(id(c.derivation) in built for c in skipped)
            if want is None:
                assert got is None
                outcomes["none"] += 1
            else:
                assert id(read[-1].derivation) in built
                assert (got.tree, got.score, got.program) == want
                assert got.labels == read[-1].labels
                assert repr(got.tree) == repr(reference_tree(read[-1].derivation, table))
                outcomes["after a skip" if len(read) > 1 else "first"] += 1
                if len(read) == 1:
                    assert charts[0].lists == [None] * (charts[0].root + 1)
    assert min(outcomes[k] for k in ("none", "first", "after a skip")) >= 10, outcomes


# -- constrained parsing -----------------------------------------------------


def anchored_table(schema, n, anchors, bonus=5.0):
    """NEG_INF for constants everywhere except the anchored single-token
    spans; Join and NoSem at zero."""
    cats = schema.categories()
    ci = {c: k for k, c in enumerate(cats)}
    spans = all_spans(n)
    raw = np.zeros((len(spans), len(cats)))
    for k, c in enumerate(cats):
        if c not in (NOSEM, JOIN):
            raw[:, k] = NEG_INF
    for row, span in enumerate(spans):
        name = anchors.get(span.start)
        if name is not None and span.start == span.end:
            raw[row, ci[name]] = bonus
    return ScoreTable(n, cats, raw)


def test_constrained_parse_recovers_gold_scan():
    schema = scan_schema()
    gold = parse_program("after(walk(r),twice(turn(l,op)))", schema)
    anchors = {1: "walk", 2: "r", 3: "after", 4: "turn", 5: "op",
               6: "l", 7: "twice"}
    table = anchored_table(schema, 7, anchors)
    result = constrained_parse(table, Grammar(), gold, schema)
    assert result is not None
    assert result.program == gold
    assert program_of_tree(result.tree, schema) == gold


def test_constrained_parse_geo_entity_span():
    schema = geo_schema()
    gold = parse_program(
        "capital(loc_2(state(next_to_1(stateid('new york')))))", schema)
    cats = schema.categories()
    ci = {c: k for k, c in enumerate(cats)}
    n = 11  # "What is the capital of states that border new york ?"
    spans = all_spans(n)
    raw = np.zeros((len(spans), len(cats)))
    for k, c in enumerate(cats):
        if c not in (NOSEM, JOIN):
            raw[:, k] = NEG_INF
    anchors = {Span(4, 4): "capital", Span(6, 6): "state",
               Span(8, 8): "next_to_1", Span(9, 10): "stateid('new york')",
               Span(5, 5): "loc_2"}
    for row, span in enumerate(spans):
        if span in anchors:
            raw[row, ci[anchors[span]]] = 5.0
    result = constrained_parse(ScoreTable(n, cats, raw), Grammar(), gold,
                               schema)
    assert result is not None and result.program == gold
    # the two-token entity span is a leaf of the returned tree
    leaves = {(node.span, node.category)
              for node in result.tree.nodes() if node.is_leaf}
    assert (Span(9, 10), "stateid('new york')") in leaves


def test_constrained_parse_masks_other_constants():
    schema = scan_schema()
    gold = parse_program("twice(jump)", schema)
    # "walk" scores high everywhere but is not in the gold program
    anchors = {1: "jump", 2: "twice"}
    table = anchored_table(schema, 2, anchors)
    walk_col = [k for k, c in enumerate(schema.categories())
                if c == "walk"][0]
    table.raw[:, walk_col] = 50.0
    boosted = ScoreTable(2, schema.categories(), table.raw)
    result = constrained_parse(boosted, Grammar(), gold, schema)
    assert result is not None and result.program == gold
    assert all(node.category != "walk" for node in result.tree.nodes())


def test_constrained_parse_none_when_unreachable():
    schema = scan_schema()
    gold = parse_program("twice(jump)", schema)
    # jump is forced onto both tokens; no tree yields twice(jump)
    anchors = {1: "jump", 2: "jump"}
    table = anchored_table(schema, 2, anchors)
    assert constrained_parse(table, Grammar(), gold, schema) is None


def test_nonprojective_case_needs_ternary_rule():
    schema = geo_schema()
    gold = parse_program("largest_one(pop_1(state(all)))", schema)
    # "State that has the most people ?"
    anchors = {1: "state", 5: "largest_one", 6: "pop_1"}
    table = anchored_table(schema, 7, anchors)
    with_t = constrained_parse(table, Grammar(ternary=True), gold, schema)
    without = constrained_parse(table, Grammar(ternary=False), gold, schema)
    assert with_t is not None and with_t.program == gold
    assert any(len(node.children) == 3 for node in with_t.tree.nodes())
    assert without is None


def test_constrained_trees_always_map_to_gold():
    schema = scan_schema()
    rng = random.Random(23)
    cats = schema.categories()
    gold = parse_program("and(walk(l),run)", schema)
    for _ in range(20):
        raw = np.array([[rng.gauss(0, 2) for _ in cats]
                        for _ in all_spans(5)])
        result = constrained_parse(ScoreTable(5, cats, raw), Grammar(),
                                   gold, schema)
        if result is not None:
            assert program_of_tree(result.tree, schema) == gold


def oracle_composing_trees(table, ternary, schema):
    """Every grammar-legal tree that composes to a program, with its score
    and program, by literal enumeration (small n only).  A leaf scored at
    NEG_INF is absent, as in the chart.  Each node composes its children's
    programs as ``program_of_tree`` does, and a subtree that fails is
    dropped, since every tree containing it fails too."""
    consts = [c for c in table.categories if c not in (NOSEM, JOIN)]
    jc = table.cat_index[JOIN]

    def shifted(i, j, col):
        return float(table.shifted[table.row_of[i][j], col])

    def node(i, j, score, children, programs):
        program = compose_children(programs, schema)
        if program is None:
            return None
        return score, program, SpanTree(Span(i, j), JOIN, tuple(children))

    @lru_cache(None)
    def join(i, j):
        out = []
        for c in consts:
            score = shifted(i, j, table.cat_index[c])
            if score > NEG_INF / 2:
                out.append((score, schema.atom(c), SpanTree(Span(i, j), c)))
        base = shifted(i, j, jc)
        for k in range(i, j):
            nosem = SpanTree(Span(k + 1, j), NOSEM)
            for a, pa, ta in join(i, k):
                out.append(node(i, j, base + a, (ta, nosem), (pa, None)))
                for b, pb, tb in join(k + 1, j):
                    out.append(node(i, j, base + a + b, (ta, tb), (pa, pb)))
        if ternary and j - i >= 2:
            for s1 in range(i, j - 1):
                for s2 in range(s1 + 1, j):
                    for a, pa, ta in join(i, s1):
                        for b, pb, tb in join(s1 + 1, s2):
                            for c, pc, tc in join(s2 + 1, j):
                                out.append(node(i, j, base + a + b + c,
                                                (ta, tb, tc), (pa, pb, pc)))
        return tuple(t for t in out if t is not None)

    n = table.n
    base = shifted(1, n, jc)
    trees = list(join(1, n))
    for k in range(1, n):
        nosem = SpanTree(Span(1, k), NOSEM)
        trees.extend((base + b, pb, SpanTree(Span(1, n), JOIN, (nosem, tb)))
                     for b, pb, tb in join(k + 1, n))
    return trees


def oracle_best_gold_score(table, ternary, gold, schema):
    """Best score among trees whose program is ``gold``, or None."""
    best = None
    for score, program, tree in oracle_composing_trees(table, ternary, schema):
        if program == gold:
            assert program_of_tree(tree, schema) == gold
            if best is None or score > best:
                best = score
    return best


def small_gold_programs(schema, texts, max_constants=4):
    programs = {str(p): p for p in (parse_program(t, schema) for t in texts)
                if sum(1 for _ in p.subterms()) <= max_constants}
    return [programs[k] for k in sorted(programs)]


def assert_constrained_matches_oracle(table, gold, schema, ternary):
    grammar = Grammar(ternary=ternary)
    result = constrained_parse(table, grammar, gold, schema)
    want = oracle_best_gold_score(table, ternary, gold, schema)
    if want is None:
        assert result is None
        return False
    assert result is not None and result.program == gold
    assert program_of_tree(result.tree, schema) == gold
    validate_tree(result.tree, table.n, ternary=ternary)
    assert result.score == want
    return True


@pytest.mark.parametrize("ternary", [False, True])
def test_constrained_parse_matches_gold_oracle(ternary):
    """The E-step finds the best tree that maps to gold, with the score
    summed in the same order, and finds none exactly when no tree does.
    Gold constants and one or two others score on every span, except that
    each table masks each of their leaves with a probability drawn from 0,
    0.25 and 0.5 (0.25 and 0.5 at the largest length, which bounds the
    oracle's enumeration); a masked leaf leaves the compiled chart a
    superset of the table's.  Utterances have up to 6 tokens with the
    binary grammar and up to 5 with the ternary one."""
    rng = random.Random(29)
    longest = 5 if ternary else 6
    scan = scan_schema()
    geo = geo_schema()
    cases = [
        (scan, small_gold_programs(
            scan, [str(e.program) for e in generate_scan_sp(scan)
                   if len(e.utterance) <= 4])),
        (geo, small_gold_programs(
            geo, [p for _, p in mini_geo_corpus(mini_kb())])),
    ]
    found = {True: 0, False: 0}
    for schema, golds in cases:
        cats = schema.categories()
        for _ in range(40):
            gold = rng.choice(golds)
            names = {s.head.name for s in gold.subterms()}
            others = sorted(c.name for c in schema.sigma if c.name not in names)
            names.update(rng.sample(others, rng.randint(1, 2)))
            n = rng.randint(1, longest)
            mask = rng.choice((0.25, 0.5) if n == longest else (0.0, 0.25, 0.5))
            raw = np.array([[rng.gauss(0, 2) if c in (NOSEM, JOIN)
                             or c in names and rng.random() >= mask
                             else NEG_INF for c in cats]
                            for _ in all_spans(n)])
            table = ScoreTable(n, cats, raw)
            found[assert_constrained_matches_oracle(table, gold, schema,
                                                    ternary)] += 1
    assert found[True] and found[False]


@pytest.mark.parametrize("ternary", [False, True])
def test_estep_row_is_the_best_gold_trees_label_row(ternary):
    """The E-step's label row is ``labels_for_tree`` of a best tree that
    maps to gold, by the oracle's enumeration, and its ``tree`` is that
    tree.  Half the tables score in small integers, so that several trees
    often tie for the best score; the row is then one of theirs, and with
    a single best tree it is that tree's.  Scan and geo programs, up to 5
    tokens with the binary grammar and 4 with the ternary one."""
    rng = random.Random(43)
    longest = 4 if ternary else 5
    scan, geo = scan_schema(), geo_schema()
    cases = [
        (scan, small_gold_programs(
            scan, [str(e.program) for e in generate_scan_sp(scan)
                   if len(e.utterance) <= 4])),
        (geo, small_gold_programs(
            geo, [p for _, p in mini_geo_corpus(mini_kb())])),
    ]
    found, tied = 0, 0
    for schema, golds in cases:
        cats = schema.categories()
        scorer = SpanScorer([], cats)
        for k in range(60):
            gold = rng.choice(golds)
            names = {s.head.name for s in gold.subterms()}
            n = rng.randint(1, longest)
            draw = (lambda: float(rng.randint(-1, 1))) if k % 2 else (
                lambda: rng.gauss(0, 2))
            raw = np.array([[draw() if c in (NOSEM, JOIN) or c in names
                             else NEG_INF for c in cats] for _ in all_spans(n)])
            table = ScoreTable(n, cats, raw)
            result = constrained_parse(table, Grammar(ternary=ternary), gold, schema)
            trees = [(score, tree) for score, program, tree
                     in oracle_composing_trees(table, ternary, schema) if program == gold]
            if not trees:
                assert result is None
                continue
            top = max(score for score, _ in trees)
            best = [tree for score, tree in trees if score == top]
            rows = [scorer.labels_for_tree(tree, n).tolist() for tree in best]
            assert result.score == top
            assert list(result.labels) in rows
            assert result.tree in best
            assert scorer.labels_for_tree(result.tree, n).tolist() == list(result.labels)
            found += 1
            tied += len(set(map(tuple, rows))) > 1
    assert found > 40 and tied > 5


def weighted_constants(program, schema):
    """The constants of ``program`` that are no type default, repeated as
    often as they occur."""
    defaults = set(schema.type_defaults.values())
    return [s.head.name for s in program.subterms()
            if s.head.name not in defaults]


def tight_table(rng, schema, gold, n):
    """Scores for an utterance of ``n`` tokens whose ``weight(gold)``
    single-token spans each carry one weighted constant of ``gold``, in a
    random order; the other tokens carry a gold constant, a default or
    another constant, or nothing.  Join and NoSem score on every span."""
    cats = schema.categories()
    col = {c: k for k, c in enumerate(cats)}
    spans = all_spans(n)
    raw = np.full((len(spans), len(cats)), NEG_INF)
    for k in (col[NOSEM], col[JOIN]):
        raw[:, k] = [rng.gauss(0, 2) for _ in spans]
    leaves = weighted_constants(gold, schema)
    rng.shuffle(leaves)
    tokens = sorted(rng.sample(range(1, n + 1), len(leaves)))
    spares = sorted({s.head.name for s in gold.subterms()}
                    | set(schema.type_defaults.values())
                    | set(rng.sample(sorted(schema.constants), 2)))
    names = dict(zip(tokens, leaves))
    for t in range(1, n + 1):
        if t not in names and rng.random() < 0.7:
            names[t] = rng.choice(spares)
    for row, span in enumerate(spans):
        if span.start == span.end and span.start in names:
            raw[row, col[names[span.start]]] = rng.gauss(0, 2)
    return ScoreTable(n, cats, raw)


@pytest.mark.parametrize("ternary", [False, True])
def test_constrained_parse_matches_gold_oracle_where_the_bound_bites(ternary):
    """With ``weight(gold)`` at n - 1 or n, the token bound filters every
    cell longer than ``n - weight(gold)`` (0 or 1), and the E-step still
    finds the oracle's best tree that maps to gold, or none exactly when
    the oracle finds none.  Scan and geo corpus programs, up to 6 tokens
    with the binary grammar and 5 with the ternary one."""
    rng = random.Random(37)
    scan, geo = scan_schema(), geo_schema()
    cases = [(scan, [e.program for e in generate_scan_sp(scan)
                     if len(e.utterance) <= 6]),
             (geo, [parse_program(p, geo) for _, p in mini_geo_corpus(mini_kb())])]
    found = {True: 0, False: 0}
    for schema, programs in cases:
        by_weight = {}
        for program in sorted(set(programs), key=str):
            by_weight.setdefault(weight(program, schema), []).append(program)
        for n in range(1, (5 if ternary else 6) + 1):
            for w in (n - 1, n):
                if w not in by_weight:
                    continue
                for _ in range(2):
                    gold = rng.choice(by_weight[w])
                    table = tight_table(rng, schema, gold, n)
                    found[assert_constrained_matches_oracle(table, gold, schema,
                                                            ternary)] += 1
    assert found[True] and found[False]


@pytest.mark.parametrize("ternary", [False, True])
def test_constrained_parse_finds_a_default_argument(ternary):
    """The utterance "largest state" composes to largest(state(all)):
    ``all`` comes from default completion, not from a token, so it adds
    no weight and the two tokens are enough."""
    schema = geo_schema()
    gold = parse_program("largest(state(all))", schema)
    assert weight(gold, schema) == 2
    table = anchored_table(schema, 2, {1: "largest", 2: "state"})
    result = constrained_parse(table, Grammar(ternary=ternary), gold, schema)
    assert result is not None and result.program == gold
    assert [(node.span, node.category) for node in result.tree.nodes()
            if node.is_leaf] == [(Span(1, 1), "largest"), (Span(2, 2), "state")]


def test_composition_adds_weights():
    """``weight(compose(x, y)) == weight(x) + weight(y)`` for every pair
    that the scan corpus trees compose, and for every pair of subterms,
    partial applications and constants of a geo corpus program that
    composes, default completions among them.  The E-step's token bound
    is exact because of this."""
    def size(program):
        return 1 + sum(size(a) for a in program.args if a is not None)

    def check(schema, x, y):
        table = schema.table
        r = table.compose(x, y)
        if r < 0:
            return False
        px, py, pr = table.programs[x], table.programs[y], table.programs[r]
        assert weight(pr, schema) == weight(px, schema) + weight(py, schema)
        return size(pr) > size(px) + size(py)  # a default was added

    scan = scan_schema()
    pairs = set()

    def visit(node):
        if node.is_leaf:
            return None if node.category == NOSEM else scan.table.atom(node.category)
        ids = [visit(c) for c in node.children]
        semantic = [x for x in ids if x is not None]
        if len(semantic) == 2:
            pairs.add(tuple(semantic))
        return scan.table.compose_children(ids)

    for example in generate_scan_sp(scan):
        visit(example.tree)
    assert len(pairs) > 1000
    for x, y in pairs:
        check(scan, x, y)

    geo = geo_schema()
    completed = 0
    for _, text in mini_geo_corpus(mini_kb()):
        states = set()
        for sub in parse_program(text, geo).subterms():
            args = [None] * len(sub.args)
            states.add(geo.table.intern(Program(sub.head, tuple(args))))
            for slot in sub.filled:
                args[slot] = sub.args[slot]
                states.add(geo.table.intern(Program(sub.head, tuple(args))))
        completed += sum(check(geo, x, y) for x in states for y in states)
    assert completed


@pytest.mark.parametrize("ternary", [False, True])
def test_constrained_parse_composes_like_program_of_tree(ternary):
    """[state largest] composes to state(largest(all)) under
    program_of_tree, so it is no E-step target for largest(state(all))."""
    schema = geo_schema()
    gold = parse_program("largest(state(all))", schema)
    table = anchored_table(schema, 2, {1: "state", 2: "largest"})
    assert constrained_parse(table, Grammar(ternary=ternary), gold, schema) is None
    assert not assert_constrained_matches_oracle(table, gold, schema, ternary)


@pytest.mark.parametrize("ternary", [False, True])
def test_constrained_parse_same_on_cold_and_warm_tables(ternary):
    """Program ids follow the history of the schema's composition table,
    and nothing the chart returns depends on them: on random tie-heavy
    tables with corpus gold programs, a fresh schema gives the same tree ``repr``,
    score ``repr`` and combination count as one whose table was warmed,
    in another order, by corpus trees and every earlier example."""
    scan, geo = scan_schema(), geo_schema()
    scan_examples = [e for e in generate_scan_sp(scan) if len(e.utterance) <= 5]
    for e in reversed(scan_examples[::7]):
        program_of_tree(e.tree, scan)
    geo_texts = [p for _, p in mini_geo_corpus(mini_kb())]
    for text in reversed(geo_texts):
        geo.table.intern(parse_program(text, geo))
    cases = {"scan": (scan, scan_schema, sorted({str(e.program) for e in scan_examples})),
             "geo": (geo, geo_schema, geo_texts)}
    found = []

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(cases)), st.integers(1, 5 if ternary else 6),
           st.integers(0, 2**32 - 1))
    def check(name, n, seed):
        warm, fresh, texts = cases[name]
        rng = random.Random(seed)
        text = rng.choice(texts)
        gold = parse_program(text, warm)
        names = {s.head.name for s in gold.subterms()}
        names.update(rng.sample(sorted(c.name for c in warm.sigma), 2))
        cats = warm.categories()
        # Scores of 0 or 1: exact ties are common.
        raw = np.array([[float(rng.randint(0, 1)) if c in (NOSEM, JOIN)
                         or c in names else NEG_INF for c in cats]
                        for _ in all_spans(n)])
        results = []
        for schema in (fresh(), warm):
            stats = {}
            result = constrained_parse(ScoreTable(n, cats, raw), Grammar(ternary=ternary),
                                       parse_program(text, schema), schema, stats)
            results.append((None if result is None else
                            (repr(result.tree), repr(result.score), str(result.program)),
                            stats["combinations"]))
        assert results[0] == results[1]
        found.append(results[0][0] is not None)

    check()
    assert any(found) and not all(found)


def corpus_golds(schema):
    """Scan programs of commands up to 5 tokens, or every geo program."""
    if schema.name == "scan":
        texts = {str(e.program) for e in generate_scan_sp(schema)
                 if len(e.utterance) <= 5}
    else:
        texts = {p for _, p in mini_geo_corpus(mini_kb())}
    return [parse_program(t, schema) for t in sorted(texts)]


def outcome(result, stats):
    return (None if result is None else
            (repr(result.tree), repr(result.score), str(result.program)),
            stats["combinations"])


@pytest.mark.parametrize("ternary", [False, True])
def test_a_compiled_chart_serves_every_table(ternary, monkeypatch):
    """One chart per (length, gold template, grammar), kept on the schema's
    table, serves every gold program of its template and every table: it
    gives the tree ``repr``, score ``repr`` and combination count that a
    chart compiled afresh for the call gives, and each key is compiled
    once per schema.  A table whose category list lacks a gold constant
    reads as one whose column for it is masked.  Scan and geo corpus
    golds, several of one template, up to 6 tokens with the binary grammar
    and 5 with the ternary one; random tables, tables of exact ties and
    masked ones."""
    rng = random.Random(41)
    grammar = Grammar(ternary=ternary)
    compiled = []
    compile_ = cky._compile

    def counted(n, grammar, template, schema):
        compiled.append((schema, n, schema.table.intern(template), grammar.ternary))
        return compile_(n, grammar, template, schema)

    monkeypatch.setattr(cky, "_compile", counted)

    def table_of(kind, n, cats, names):
        def score(c):
            if kind == "ties":
                return float(rng.randint(0, 1))
            if kind == "masked" and c in names and rng.random() < 0.5:
                return NEG_INF
            return rng.gauss(0, 2)
        return ScoreTable(n, cats, np.array([[score(c) for c in cats]
                                             for _ in all_spans(n)]))

    found, shared = [], 0
    for make in (scan_schema, geo_schema):
        schema, cold = make(), make()
        by_template = {}
        for gold in corpus_golds(schema):
            if sum(1 for _ in gold.subterms()) <= 4:
                template, _ = schema.table.template(schema.table.intern(gold))
                by_template.setdefault(template, []).append(gold)
        groups = sorted(by_template.values(), key=lambda g: (-len(g), str(g[0])))
        cats = schema.categories()
        for golds in groups[:2] + rng.sample(groups[2:], 2):
            shared += len(golds) > 1
            for gold in rng.sample(golds, min(3, len(golds))):
                names = sorted({s.head.name for s in gold.subterms()})
                for n in range(1, (5 if ternary else 6) + 1):
                    for kind in ("masked", "random", "ties") * 2:
                        table = table_of(kind, n, cats, names)
                        cold.table.charts.clear()
                        fresh, kept = {}, {}
                        want = outcome(constrained_parse(
                            table, grammar, parse_program(str(gold), cold), cold,
                            fresh), fresh)
                        got = outcome(constrained_parse(table, grammar, gold, schema,
                                                        kept), kept)
                        assert got == want
                        found.append(want[0] is not None)
                    # Drop one gold constant's column: it reads as masked.
                    dropped = rng.choice(names)
                    table = table_of("random", n, cats, names)
                    keep = [k for k, c in enumerate(cats) if c != dropped]
                    narrow = ScoreTable(n, [cats[k] for k in keep], table.raw[:, keep])
                    raw = table.raw.copy()
                    raw[:, cats.index(dropped)] = NEG_INF
                    masked = ScoreTable(n, cats, raw)
                    a, b = {}, {}
                    assert (outcome(constrained_parse(narrow, grammar, gold, schema, a), a)
                            == outcome(constrained_parse(masked, grammar, gold, schema, b), b))
        # once per key of the schema that keeps its charts
        assert (sorted(k[1:] for k in compiled if k[0] is schema)
                == sorted(schema.table.charts))
    assert shared and any(found) and not all(found)


# -- the per-length E-step, kept as a reference -------------------------------
#
# The constrained chart as it was evaluated before it was compiled to flat
# item indices: one structure per cell length, cells of derivation tuples
# ``(score, i, j, category, children)``, and a label row written by walking
# the winning derivation.  The flat chart must give the same label row and
# score on every table, ties and non-finite scores included.


def reference_compile(n, grammar, template, schema):
    """Per length ``L``: ``(size, leaves, joins, nosems, ternaries)`` by
    state index, and the gold program's index in a cell of length ``L``."""
    table = schema.table
    compose = table.compose
    by_head = {}
    for sub in template.subterms():
        by_head.setdefault(sub.head.name, []).append(sub)
    budget = weight(template, schema)
    needs = {}

    def need(pid):
        if pid not in needs:
            program = table.programs[pid]
            admissible = any(
                all(pa is None or pa == ga for pa, ga in zip(program.args, sub.args))
                for sub in by_head.get(program.head.name, ()))
            needs[pid] = budget - weight(program, schema) if admissible else None
        return needs[pid]

    atoms = [(table.atom(name), slot) for slot, name in enumerate(by_head)]
    slack = n - budget
    gold_id = table.intern(template)
    members, partners = [], {}

    def partners_of(x, length):
        row = partners.get((x, length))
        if row is None:
            row = partners[x, length] = [
                (q, r) for q, y in enumerate(members[length - 1])
                if (r := compose(x, y)) >= 0 and need(r) is not None]
        return row

    lengths, gold_at = [], []
    for length in range(1, n + 1):
        room = n - length
        index, ids = {}, []

        def slot(sid):
            t = index.get(sid)
            if t is None:
                t = index[sid] = (-1 if length > slack and need(sid) > room
                                  else len(ids))
                if t >= 0:
                    ids.append(sid)
            return t

        leaves = tuple((t, k) for sid, k in atoms if (t := slot(sid)) >= 0)
        joins = []
        for d in range(1, length):
            for p, a in enumerate(members[d - 1]):
                for q, r in partners_of(a, length - d):
                    if (t := slot(r)) >= 0:
                        joins += d, p, q, t
        nosems = []
        for d in range(1, length):
            for p, a in enumerate(members[d - 1]):
                if (t := slot(a)) >= 0:
                    nosems += d, p, t
        ternaries = []
        if grammar.ternary:
            for d1 in range(1, length - 1):
                for d2 in range(1, length - d1):
                    for p, a in enumerate(members[d1 - 1]):
                        for q, o in partners_of(a, length - d1 - d2):
                            for m, r in partners_of(o, d2):
                                if (t := slot(r)) >= 0:
                                    ternaries += d1, d2, p, m, q, t
        members.append(ids)
        lengths.append((len(ids), leaves, tuple(joins), tuple(nosems),
                        tuple(ternaries)))
        t = index.get(gold_id, -1)
        gold_at.append(t if t >= 0 else None)
    return lengths, gold_at


def reference_root(base, whole, suffixes):
    top = whole
    for s, b in enumerate(suffixes, 1):
        if b is not None:
            score = base + 0.0 + b[0]
            if top is None or score > top[0]:
                top = (score, 1, b[2], JOIN, ((0.0, 1, s, NOSEM, ()), b))
    return top


def reference_evaluate(compiled, table, labels):
    """The best derivation of the gold program over ``table``, or None."""
    lengths, gold_at = compiled
    n = table.n
    rows = table.shifted.tolist()
    row_of = table.row_of
    join_col = table.cat_index[JOIN]
    columns = [table.cat_index.get(label) for label in labels]
    chart = [[None] * (n + 1) for _ in range(n + 2)]
    for length, (size, slots, joins, nosems, ternaries) in enumerate(lengths, 1):
        leaves = [(t, columns[k], labels[k]) for t, k in slots
                  if columns[k] is not None]
        for i in range(1, n - length + 2):
            j = i + length - 1
            row = rows[row_of[i][j]]
            base = row[join_col]
            cell = [None] * size
            for t, col, label in leaves:
                if row[col] > NEG_INF / 2:
                    cell[t] = (row[col], i, j, label, ())
            row_i = chart[i]
            edges = iter(joins)
            for d, p, q, t in zip(edges, edges, edges, edges):
                da, db = row_i[i + d - 1][p], chart[i + d][j][q]
                if da is not None and db is not None:
                    score = base + da[0] + db[0]
                    old = cell[t]
                    if old is None or score > old[0]:
                        cell[t] = (score, i, j, JOIN, (da, db))
            edges = iter(nosems)
            for d, p, t in zip(edges, edges, edges):
                da = row_i[i + d - 1][p]
                if da is not None:
                    score = base + da[0] + 0.0
                    old = cell[t]
                    if old is None or score > old[0]:
                        cell[t] = (score, i, j, JOIN,
                                   (da, (0.0, i + d, j, NOSEM, ())))
            edges = iter(ternaries)
            for d1, d2, p, m, q, t in zip(edges, edges, edges, edges, edges,
                                          edges):
                s1, s2 = i + d1, i + d1 + d2
                da, db, dc = row_i[s1 - 1][p], chart[s1][s2 - 1][m], chart[s2][j][q]
                if da is not None and db is not None and dc is not None:
                    score = base + da[0] + db[0] + dc[0]
                    old = cell[t]
                    if old is None or score > old[0]:
                        cell[t] = (score, i, j, JOIN, (da, db, dc))
            row_i[j] = cell

    def gold_in(i, length):
        t = gold_at[length - 1]
        return None if t is None else chart[i][i + length - 1][t]

    return reference_root(rows[row_of[1][n]][join_col], gold_in(1, n),
                          [gold_in(s + 1, n - s) for s in range(1, n)])


def reference_label_row(deriv, table):
    row_of, cat_index = table.row_of, table.cat_index
    row = [cat_index[NOSEM]] * len(table.spans)
    stack = [deriv]
    while stack:
        _, i, j, category, children = stack.pop()
        row[row_of[i][j]] = cat_index[category]
        stack += children
    return tuple(row)


def reference_estep(table, grammar, gold, schema):
    """``(label row, score repr)`` of the reference E-step, or None."""
    composition = schema.table
    template, labels = composition.template(composition.intern(gold))
    compiled = reference_compile(table.n, grammar, composition.programs[template],
                                 schema)
    best = reference_evaluate(compiled, table, labels)
    return None if best is None else (reference_label_row(best, table), repr(best[0]))


@pytest.mark.parametrize("ternary", [False, True])
def test_the_flat_estep_matches_the_per_length_reference(ternary):
    """The compiled E-step gives the reference's label row and score
    ``repr``, and finds no tree exactly where it finds none: scan and geo
    corpus golds, up to 6 tokens with the binary grammar and 5 with the
    ternary one, on random tables, tables of exact ties (scores 0 or 1),
    masked ones, and ones with NaN, +inf or -inf in the Join column or in
    a gold constant's column, through a schema that keeps its charts
    (warm) and through one whose charts are cleared before each call
    (cold)."""
    rng = random.Random(7)
    grammar = Grammar(ternary=ternary)
    bad = (float("nan"), float("inf"), -float("inf"))

    def score(kind, c, names):
        if kind == "ties":
            return float(rng.randint(0, 1))
        if kind == "masked" and c in names and rng.random() < 0.3:
            return NEG_INF
        if kind == "join" and c == JOIN and rng.random() < 0.2:
            return rng.choice(bad)
        if kind == "gold" and c in names and rng.random() < 0.2:
            return rng.choice(bad)
        return rng.gauss(0, 2)

    outcomes = collections.Counter()
    for make in (scan_schema, geo_schema):
        warm, cold = make(), make()
        golds = [g for g in corpus_golds(warm) if sum(1 for _ in g.subterms()) <= 4]
        cats = warm.categories()
        for gold in rng.sample(golds, 12):
            names = {s.head.name for s in gold.subterms()}
            for n in range(1, (5 if ternary else 6) + 1):
                for kind in ("random", "ties", "masked", "join", "gold"):
                    raw = np.array([[score(kind, c, names) for c in cats]
                                    for _ in all_spans(n)])
                    table = ScoreTable(n, cats, raw)
                    want = reference_estep(table, grammar, gold, warm)
                    cold.table.charts.clear()
                    for schema in (warm, cold):
                        result = constrained_parse(
                            table, grammar, parse_program(str(gold), schema), schema)
                        got = (None if result is None
                               else (result.labels, repr(result.score)))
                        assert got == want, (str(gold), n, kind)
                    outcomes[kind, want is None,
                             want is not None and want[1] in ("nan", "inf", "-inf")] += 1
    # every kind of table both parses and fails somewhere, and the
    # non-finite ones give non-finite scores
    assert all(outcomes[kind, False, False] and outcomes[kind, True, False]
               for kind in ("random", "ties", "masked")), outcomes
    assert all(outcomes[kind, False, True] for kind in ("join", "gold")), outcomes


def rename_program(program, sigma, schema):
    return Program(schema.constant(sigma.get(program.head.name, program.head.name)),
                   tuple(None if a is None else rename_program(a, sigma, schema)
                         for a in program.args))


def rename_tree(tree, sigma):
    return SpanTree(tree.span, sigma.get(tree.category, tree.category),
                    tuple(rename_tree(c, sigma) for c in tree.children))


@pytest.mark.parametrize("ternary", [False, True])
def test_constrained_parse_commutes_with_renaming(ternary):
    """For a random renaming sigma of constants within their signature
    classes (kind, result type, argument types, ``min_args``), the type
    defaults fixed, parsing sigma(gold) on a table whose constant columns
    are permuted by sigma gives the score of parsing gold and the sigma
    image of its tree, or None exactly when gold gets None.  The image
    holds even on exact ties, since the chart tries its leaves in the
    order of the gold constants' first occurrence, which sigma keeps.
    Scan and geo corpus golds, up to 6 tokens with the binary grammar and
    5 with the ternary one, random, tie-heavy and masked tables."""
    schemas = {"scan": scan_schema(), "geo": geo_schema()}
    golds = {name: corpus_golds(schema) for name, schema in schemas.items()}
    found = []

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(schemas)), st.integers(1, 5 if ternary else 6),
           st.sampled_from(["random", "ties", "masked"]), st.integers(0, 2**32 - 1))
    def check(name, n, kind, seed):
        rng = random.Random(seed)
        schema = schemas[name]
        gold = rng.choice(golds[name])
        defaults = set(schema.type_defaults.values())
        classes = {}
        for c in schema.sigma:
            if c.name not in defaults:
                classes.setdefault((c.kind, c.result_type, c.arg_types, c.min_args),
                                   []).append(c.name)
        sigma = {}
        for members in classes.values():
            sigma.update(zip(members, rng.sample(members, len(members))))
        renamed = rename_program(gold, sigma, schema)
        cats = schema.categories()
        names = {s.head.name for s in gold.subterms()}

        def score(c):
            if kind == "ties":
                return float(rng.randint(0, 1))
            if kind == "masked" and c in names and rng.random() < 0.4:
                return NEG_INF
            return rng.gauss(0, 2)

        raw = np.array([[score(c) for c in cats] for _ in all_spans(n)])
        permuted = raw[:, [cats.index(sigma_inverse) for sigma_inverse in (
            {v: k for k, v in sigma.items()}.get(c, c) for c in cats)]]
        grammar = Grammar(ternary=ternary)
        want = constrained_parse(ScoreTable(n, cats, raw), grammar, gold, schema)
        got = constrained_parse(ScoreTable(n, cats, permuted), grammar, renamed, schema)
        if want is None:
            assert got is None
        else:
            assert got is not None and got.program == renamed
            assert got.score == want.score
            assert repr(got.tree) == repr(rename_tree(want.tree, sigma))
            assert program_of_tree(got.tree, schema) == renamed
        found.append(want is not None and renamed != gold)

    check()
    assert any(found) and not all(found)


# -- complexity counter ------------------------------------------------------


def combination_count(n, ternary, seed=0):
    rng = random.Random(seed)
    table = random_table(rng, n)
    stats = {}
    parse_kbest(table, Grammar(ternary=ternary), 5, stats)
    return stats["combinations"]


@pytest.mark.parametrize("ternary", [False, True])
def test_constrained_parse_counts_combinations_like_parse_kbest(ternary):
    """Both charts count one combination per rule source per cell."""
    rng = random.Random(31)
    schema = scan_schema()
    cats = schema.categories()
    gold = parse_program("after(walk(r),twice(turn(l,op)))", schema)
    for n in range(1, 9):
        raw = np.array([[rng.gauss(0, 2) for _ in cats] for _ in all_spans(n)])
        table = ScoreTable(n, cats, raw)
        kbest, exact = {}, {}
        parse_kbest(table, Grammar(ternary=ternary), 5, kbest)
        constrained_parse(table, Grammar(ternary=ternary), gold, schema, exact)
        assert exact["combinations"] == kbest["combinations"]


@pytest.mark.parametrize("ternary", [False, True])
def test_combination_count_is_one_per_rule_source(ternary):
    """The count both charts report is the number of rule sources a chart
    tries, enumerated cell by cell: every split of a cell for Join Join
    and for Join NoSem, every split pair for the ternary rule, and every
    NoSem split of the root."""
    schema = scan_schema()
    gold = parse_program("twice(walk(l))", schema)
    for n in range(1, 13):
        sources = n - 1
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                splits = range(i, j)
                sources += 2 * len(splits)
                if ternary:
                    sources += sum(1 for s1 in splits for s2 in splits if s1 < s2)
        table = random_table(random.Random(n), n)
        kbest, exact = {"combinations": 1}, {}
        parse_kbest(table, Grammar(ternary=ternary), 5, kbest)
        constrained_parse(ScoreTable(n, schema.categories(), np.zeros(
            (len(all_spans(n)), len(schema.categories())))),
            Grammar(ternary=ternary), gold, schema, exact)
        assert (kbest["combinations"] - 1, exact["combinations"]) == (sources, sources)


def test_combination_growth_matches_complexity():
    off = combination_count(20, False) / combination_count(10, False)
    on = combination_count(20, True) / combination_count(10, True)
    assert 6 <= off <= 10   # ~n^3 doubling ratio 8
    assert 12 <= on <= 20   # ~n^4 doubling ratio 16
