"""K-best chart parsing against brute-force oracles, plus the constrained
variant used during training."""

import itertools
import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spansem.cky import (
    EmptyInput,
    Grammar,
    NEG_INF,
    best_valid_tree,
    constrained_parse,
    parse_kbest,
)
from spansem.core import (
    Category,
    Span,
    SpanTree,
    all_spans,
    span_map,
    tree_from_span_map,
    validate_tree,
)
from spansem.data.geo import geo_schema, mini_geo_corpus, mini_kb
from spansem.data.scan import generate_scan_sp, scan_schema
from spansem.scorer import ScoreTable
from spansem.typesys import (
    compose_children,
    parse_program,
    program_of_tree,
)


def toy_categories(n_constants):
    return [Category.nosem(), Category.join()] + [
        Category.constant(f"c{k}") for k in range(n_constants)]


def random_table(rng, n, n_constants=3):
    cats = toy_categories(n_constants)
    raw = np.array([[rng.gauss(0, 2) for _ in cats] for _ in all_spans(n)])
    return ScoreTable(n, cats, raw)


# -- independent oracles -----------------------------------------------------


def oracle_best_score(table, ternary):
    """Maximum tree score by memoized recursion over the same grammar,
    written independently of the chart code."""
    consts = [c for c in table.categories if c.is_constant]
    jc = table.cat_index[Category.join()]

    def shifted(i, j, col):
        return float(table.shifted[table.span_index[Span(i, j)], col])

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
    consts = [c for c in table.categories if c.is_constant]
    jc = table.cat_index[Category.join()]

    def shifted(i, j, col):
        return float(table.shifted[table.span_index[Span(i, j)], col])

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
    assert results[0].tree.category == Category("c0")
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
    raw = np.array([[NEG_INF if c.is_constant and rng.random() < 0.3
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



@st.composite
def score_tables(draw):
    """Tables of up to 6 tokens whose scores are small integers (many
    ties), masked leaves, or arbitrary floats."""
    n = draw(st.integers(1, 6))
    cats = toy_categories(draw(st.integers(1, 3)))
    score = st.one_of(st.integers(-2, 2).map(float),
                      st.floats(-5.0, 5.0, allow_nan=False),
                      st.just(NEG_INF))
    rows = draw(st.lists(st.lists(score, min_size=len(cats),
                                  max_size=len(cats)),
                         min_size=len(all_spans(n)), max_size=len(all_spans(n))))
    return ScoreTable(n, cats, np.array(rows))


@settings(max_examples=150, deadline=None)
@given(table=score_tables(), ternary=st.booleans(), K=st.integers(1, 5))
def test_span_map_round_trips_parsed_trees(table, ternary, K):
    """tree_from_span_map inverts span_map on every tree the chart returns."""
    for result in parse_kbest(table, Grammar(ternary=ternary), K):
        n = table.n
        assert tree_from_span_map(span_map(result.tree, n), n) == result.tree

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
    row = t1.span_index[Span(2, 3)]
    bumped[row] += 7.5  # uniform shift on one span, NoSem included
    t2 = ScoreTable(n, cats, bumped)
    s1 = [r.score for r in parse_kbest(t1, Grammar(), 5)]
    s2 = [r.score for r in parse_kbest(t2, Grammar(), 5)]
    assert s1 == pytest.approx(s2)


# -- semantic-validity filter ------------------------------------------------


def test_best_valid_tree_skips_invalid():
    schema = scan_schema()
    cats = schema.categories()
    ci = {c: k for k, c in enumerate(cats)}
    raw = np.full((3, len(cats)), -8.0)
    raw[:, ci[Category.nosem()]] = 0.0
    # two direction entities side by side cannot compose; "l r" beats
    # "walk r" in score but only the latter is valid
    s11, s22 = 0, 2  # span rows for (1,1) and (2,2) with n=2
    raw[s11, ci[Category.constant("l")]] = 6.0
    raw[s11, ci[Category.constant("walk")]] = 5.0
    raw[s22, ci[Category.constant("r")]] = 6.0
    raw[:, ci[Category.join()]] = 1.0
    table = ScoreTable(2, cats, raw)
    candidates = list(parse_kbest(table, Grammar(), 5))
    top_program = lambda r: program_of_tree(r.tree, schema)
    with pytest.raises(Exception):
        top_program(candidates[0])
    result = best_valid_tree(candidates, schema)
    assert result is not None
    assert str(result.program) == "walk(r)"


def test_best_valid_tree_none_when_all_invalid():
    schema = scan_schema()
    cats = schema.categories()
    ci = {c: k for k, c in enumerate(cats)}
    raw = np.full((3, len(cats)), NEG_INF)
    raw[:, ci[Category.nosem()]] = 0.0
    # two direction entities on both tokens: every two-leaf combination
    # fails to compose, and K=4 keeps the valid single-leaf trees out
    raw[0, ci[Category.constant("l")]] = 50.0
    raw[0, ci[Category.constant("r")]] = 40.0
    raw[2, ci[Category.constant("r")]] = 50.0
    raw[2, ci[Category.constant("l")]] = 40.0
    raw[1, ci[Category.join()]] = 1.0
    table = ScoreTable(2, cats, raw)
    assert best_valid_tree(parse_kbest(table, Grammar(), 4), schema) is None


# -- constrained parsing -----------------------------------------------------


def anchored_table(schema, n, anchors, bonus=5.0):
    """NEG_INF for constants everywhere except the anchored single-token
    spans; Join and NoSem at zero."""
    cats = schema.categories()
    ci = {c: k for k, c in enumerate(cats)}
    spans = all_spans(n)
    raw = np.zeros((len(spans), len(cats)))
    for k, c in enumerate(cats):
        if c.is_constant:
            raw[:, k] = NEG_INF
    for row, span in enumerate(spans):
        name = anchors.get(span.start)
        if name is not None and span.start == span.end:
            raw[row, ci[Category.constant(name)]] = bonus
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
        if c.is_constant:
            raw[:, k] = NEG_INF
    anchors = {Span(4, 4): "capital", Span(6, 6): "state",
               Span(8, 8): "next_to_1", Span(9, 10): "stateid('new york')",
               Span(5, 5): "loc_2"}
    for row, span in enumerate(spans):
        if span in anchors:
            raw[row, ci[Category.constant(anchors[span])]] = 5.0
    result = constrained_parse(ScoreTable(n, cats, raw), Grammar(), gold,
                               schema)
    assert result is not None and result.program == gold
    # the two-token entity span is a leaf of the returned tree
    leaves = {(node.span, node.category.label)
              for node in result.tree.nodes() if node.is_leaf}
    assert (Span(9, 10), "stateid('new york')") in leaves


def test_constrained_parse_masks_other_constants():
    schema = scan_schema()
    gold = parse_program("twice(jump)", schema)
    # "walk" scores high everywhere but is not in the gold program
    anchors = {1: "jump", 2: "twice"}
    table = anchored_table(schema, 2, anchors)
    walk_col = [k for k, c in enumerate(schema.categories())
                if c.label == "walk"][0]
    table.raw[:, walk_col] = 50.0
    boosted = ScoreTable(2, schema.categories(), table.raw)
    result = constrained_parse(boosted, Grammar(), gold, schema)
    assert result is not None and result.program == gold
    assert all(node.category.label != "walk" for node in result.tree.nodes())


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
    consts = [c for c in table.categories if c.is_constant]
    jc = table.cat_index[Category.join()]
    join_cat, nosem_cat = Category.join(), Category.nosem()

    def shifted(i, j, col):
        return float(table.shifted[table.span_index[Span(i, j)], col])

    def node(i, j, score, children, programs):
        program = compose_children(programs, schema)
        if program is None:
            return None
        return score, program, SpanTree(Span(i, j), join_cat, tuple(children))

    @lru_cache(None)
    def join(i, j):
        out = []
        for c in consts:
            score = shifted(i, j, table.cat_index[c])
            if score > NEG_INF / 2:
                out.append((score, schema.atom(c.label), SpanTree(Span(i, j), c)))
        base = shifted(i, j, jc)
        for k in range(i, j):
            nosem = SpanTree(Span(k + 1, j), nosem_cat)
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
        nosem = SpanTree(Span(1, k), nosem_cat)
        trees.extend((base + b, pb, SpanTree(Span(1, n), join_cat, (nosem, tb)))
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
    Gold constants and one or two others score finitely on every span;
    utterances have up to 5 tokens with the binary grammar and up to 4
    with the ternary one."""
    rng = random.Random(29)
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
        for _ in range(25):
            gold = rng.choice(golds)
            names = {s.head.name for s in gold.subterms()}
            others = sorted(c.name for c in schema.sigma if c.name not in names)
            names.update(rng.sample(others, rng.randint(1, 2)))
            n = rng.randint(1, 4 if ternary else 5)
            raw = np.array([[rng.gauss(0, 2) if not c.is_constant
                             or c.label in names else NEG_INF for c in cats]
                            for _ in all_spans(n)])
            table = ScoreTable(n, cats, raw)
            found[assert_constrained_matches_oracle(table, gold, schema,
                                                    ternary)] += 1
    assert found[True] and found[False]


@pytest.mark.parametrize("ternary", [False, True])
def test_constrained_parse_composes_like_program_of_tree(ternary):
    """[state largest] composes to state(largest(all)) under
    program_of_tree, so it is no E-step target for largest(state(all))."""
    schema = geo_schema()
    gold = parse_program("largest(state(all))", schema)
    table = anchored_table(schema, 2, {1: "state", 2: "largest"})
    assert constrained_parse(table, Grammar(ternary=ternary), gold, schema) is None
    assert not assert_constrained_matches_oracle(table, gold, schema, ternary)


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


def test_combination_growth_matches_complexity():
    off = combination_count(20, False) / combination_count(10, False)
    on = combination_count(20, True) / combination_count(10, True)
    assert 6 <= off <= 10   # ~n^3 doubling ratio 8
    assert 12 <= on <= 20   # ~n^4 doubling ratio 16
