"""Typed program composition and schema behavior."""

import itertools
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spansem.cky import Grammar, parse_kbest
from spansem.core import JOIN, NOSEM, Span, SpanTree, all_spans
from spansem.scorer import ScoreTable
from spansem.typesys import (
    CompositionFailure,
    DomainConstant,
    DomainSchema,
    Program,
    _apply,
    compose,
    compose_candidates,
    compose_children,
    entity_name_parts,
    parse_program,
    program_of_tree,
    schema_from_json,
    schema_to_json,
)
from spansem.data.scan import generate_scan_sp, scan_schema
from spansem.data.geo import geo_schema, mini_geo_corpus, mini_kb


@pytest.fixture
def scan():
    return scan_schema()


@pytest.fixture
def geo():
    return geo_schema()


def test_entity_cannot_take_arguments():
    with pytest.raises(ValueError):
        DomainConstant("l", "entity", "dir", arg_types=("act",))
    with pytest.raises(ValueError):
        DomainConstant("f", "predicate", "act")


def test_min_args_defaults_to_arity():
    walk = DomainConstant("walk", "predicate", "act", ("dir", "man"), min_args=0)
    assert walk.arity == 2 and walk.min_args == 0
    twice = DomainConstant("twice", "predicate", "act", ("act",))
    assert twice.min_args == 1


def test_completeness_requires_prefix_fill(scan):
    assert scan.atom("walk").is_complete  # both slots optional
    assert not scan.atom("twice").is_complete
    assert scan.atom("twice").fill(0, scan.atom("walk")).is_complete
    # a hole before a filled slot is not a value
    gappy = scan.atom("walk").fill(1, scan.atom("op"))
    assert not gappy.is_complete


def test_fill_first_open_matching_slot(scan):
    walk = scan.atom("walk")
    with_dir = compose(walk, scan.atom("r"), scan)
    assert str(with_dir) == "walk(r)"
    both = compose(with_dir, scan.atom("op"), scan)
    assert str(both) == "walk(r,op)"


def test_compose_prefers_left_as_function(scan):
    # twice(walk) vs nothing the other way round
    assert str(compose(scan.atom("twice"), scan.atom("walk"), scan)) == \
        "twice(walk)"
    # argument side: right child is the function when only that works
    assert str(compose(scan.atom("walk"), scan.atom("twice"), scan)) == \
        "twice(walk)"


def test_compose_candidates_builds_one_orientation(geo, scan):
    # Both orientations type-check: only the left-as-function one is built.
    cands = compose_candidates(geo.atom("largest"), geo.atom("smallest"), geo)
    assert [str(c) for c in cands] == ["largest(smallest(all))"]
    # The left one fails: the right child is the function.
    cands = compose_candidates(scan.atom("walk"), scan.atom("twice"), scan)
    assert [str(c) for c in cands] == ["twice(walk)"]
    assert compose_candidates(scan.atom("l"), scan.atom("r"), scan) == []


def two_orientation_compose(a, b, schema):
    """The reference rule: build both orientations of function application
    and keep the left-as-function one when it type-checks."""
    out = [p for p in (_apply(a, b, schema), _apply(b, a, schema))
           if p is not None]
    return out[0] if out else None


def subterms_and_partials(programs):
    """Every subterm of ``programs``, and every partial application of one
    (any subset of its filled slots kept), sorted by surface form."""
    pool = set()
    for sub in {s for p in programs for s in p.subterms()}:
        filled = sub.filled
        for r in range(len(filled) + 1):
            for keep in itertools.combinations(filled, r):
                pool.add(Program(sub.head, tuple(
                    a if k in keep else None for k, a in enumerate(sub.args))))
    return sorted(pool, key=str)


@pytest.fixture(scope="module")
def corpora():
    """(schema, corpus programs, utterance lengths) for scan and geo."""
    scan = scan_schema()
    scan_examples = generate_scan_sp(scan)
    kb = mini_kb()
    geo = geo_schema(kb)
    return {
        "scan": (scan, [e.program for e in scan_examples],
                 [len(e.utterance) for e in scan_examples]),
        "geo": (geo, [parse_program(p, geo) for _, p in mini_geo_corpus(kb)],
                [len(t.split()) for t, _ in mini_geo_corpus(kb)]),
    }


def test_compose_matches_two_orientation_rule(corpora):
    """On every pair of geo subterms and partial applications, and of scan
    ones from commands of at most 4 tokens (529 programs), ``compose``
    gives the program that building both orientations and keeping the
    first one gives."""
    for name, (schema, programs, lengths) in corpora.items():
        pool = subterms_and_partials(
            [p for p, n in zip(programs, lengths) if name == "geo" or n <= 4])
        composed = 0
        for a in pool:
            for b in pool:
                got = compose(a, b, schema)
                assert got == two_orientation_compose(a, b, schema), (a, b)
                composed += got is not None
        assert composed


def test_compose_matches_two_orientation_rule_on_all_scan(corpora):
    schema, programs, _ = corpora["scan"]
    pool = subterms_and_partials(programs)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.sampled_from(pool), st.sampled_from(pool))
    def check(a, b):
        assert compose(a, b, schema) == two_orientation_compose(a, b, schema)

    check()


@pytest.mark.parametrize("name", ["scan", "geo"])
def test_table_compose_matches_compose_children(corpora, name):
    """The schema table's id-level composition gives the program
    ``compose_children`` builds, on pairs and triples of corpus subterms
    and partial applications (None for a NoSem child), on a first call and
    on a memoized one."""
    schema, programs, lengths = corpora[name]
    pool = subterms_and_partials(
        [p for p, n in zip(programs, lengths) if name == "geo" or n <= 5])
    table = schema.table
    children = st.one_of(st.none(), st.sampled_from(pool))
    # Triples whose outer pair composes, so that the middle child is tried.
    sample = random.Random(0).sample(pool, min(len(pool), 150))
    outer = [(a, c) for a in sample for c in sample
             if compose(a, c, schema) is not None]
    triples = st.builds(lambda ac, b: [ac[0], b, ac[1]],
                        st.sampled_from(outer), st.sampled_from(pool))

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(st.one_of(st.lists(children, min_size=2, max_size=3), triples))
    def check(kids):
        want = compose_children(kids, schema)
        ids = [None if p is None else table.intern(p) for p in kids]
        for _ in range(2):
            got = table.compose_children(ids)
            assert (got is None) == (want is None), kids
            if want is not None:
                assert table.programs[got] == want, kids
                assert table.intern(want) == got

    check()


def reference_program_of_tree(tree, schema):
    """``program_of_tree`` composed program by program, without the table."""

    def visit(node):
        if node.is_leaf:
            if node.category == NOSEM:
                return None
            if node.category == JOIN:
                raise CompositionFailure(node.span)
            return schema.atom(node.category)
        program = compose_children([visit(c) for c in node.children], schema)
        if program is None:
            raise CompositionFailure(node.span)
        return program

    program = visit(tree)
    if program is None:
        raise CompositionFailure(tree.span)
    return program


@pytest.mark.parametrize("name", ["scan", "geo"])
def test_program_of_tree_through_table_matches_reference(corpora, name):
    """On the K-best candidates of random score tables over the schema's
    categories, both grammars, ``program_of_tree`` gives the reference's
    program, or fails at the same span."""
    schema = corpora[name][0]
    cats = schema.categories()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 6), st.booleans(), st.integers(0, 2**32 - 1))
    def check(n, ternary, seed):
        rng = np.random.default_rng(seed)
        table = ScoreTable(n, cats, rng.normal(0, 2, (len(all_spans(n)), len(cats))))
        for cand in parse_kbest(table, Grammar(ternary=ternary), 8):
            try:
                want = reference_program_of_tree(cand.tree, schema)
            except CompositionFailure as exc:
                with pytest.raises(CompositionFailure) as got:
                    program_of_tree(cand.tree, schema)
                assert got.value.span == exc.span
                continue
            assert program_of_tree(cand.tree, schema) == want

    check()


def test_schema_add_clears_its_table(scan):
    walk = scan.table.atom("walk")
    assert scan.table.compose(walk, scan.table.atom("l")) >= 0
    assert len(scan.table.programs) >= 2
    table = scan.table
    scan.add(DomainConstant("hop", "predicate", "act", ("dir", "man"), min_args=0))
    assert scan.table is not table and scan.table.programs == []


@pytest.mark.parametrize("name", ["scan", "geo"])
def test_template_renames_constants_within_signature_classes(corpora, name):
    """A corpus program's template has its shape and its type defaults, and
    in place of each other constant one of the same signature: distinct
    constants stay distinct, and the k-th distinct constant of a signature
    class, in preorder, becomes the class's k-th member by name.  The slot
    names are the program's distinct constants in preorder, a template is
    its own template, and templates are few: scan's 20,910 commands have
    156 (length, template) pairs and geo's 52 questions 14."""
    schema, programs, lengths = corpora[name]
    table = schema.table
    defaults = set(schema.type_defaults.values())
    classes = {}
    for c in schema.sigma:
        if c.name not in defaults:
            classes.setdefault((c.kind, c.result_type, c.arg_types, c.min_args),
                               []).append(c.name)

    def heads(program):
        return [s.head for s in program.subterms()]

    def shape(program):
        return tuple(None if a is None else shape(a) for a in program.args)

    pairs = set()
    for program, n in zip(programs, lengths):
        tid, names = table.template(table.intern(program))
        template = table.programs[tid]
        assert names == tuple(dict.fromkeys(h.name for h in heads(program)))
        assert shape(template) == shape(program)
        sigma, taken = {}, Counter()
        for a, b in zip(heads(program), heads(template)):
            sig = (a.kind, a.result_type, a.arg_types, a.min_args)
            assert (b.kind, b.result_type, b.arg_types, b.min_args) == sig
            if a.name not in sigma:
                if a.name in defaults:
                    assert b.name == a.name
                else:
                    assert b.name == classes[sig][taken[sig]]
                    taken[sig] += 1
            assert sigma.setdefault(a.name, b.name) == b.name
        assert len(set(sigma.values())) == len(sigma)
        assert table.template(tid) == (tid, tuple(dict.fromkeys(sigma.values())))
        pairs.add((n, tid))
    assert len(pairs) == {"scan": 156, "geo": 14}[name]


@pytest.mark.parametrize("name", ["scan", "geo"])
def test_corpus_programs_round_trip_through_text(corpora, name):
    schema, programs, _ = corpora[name]
    for program in programs:
        assert parse_program(str(program), schema) == program


def test_default_coercion_geo(geo):
    # bare `state` used as an argument becomes state(all)
    got = compose(geo.atom("state"), geo.atom("pop_1"), geo)
    assert str(got) == "pop_1(state(all))"


def test_no_default_for_num_type(geo):
    # largest_one needs a num argument; bare predicates of type num cannot
    # coerce because num declares no default
    assert compose(geo.atom("largest_one"), geo.atom("state"), geo) is None


def test_ill_typed_application_rejected(geo):
    assert compose(geo.atom("capital"),
                   geo.atom("placeid('mount mckinley')"), geo) is None


def leaf(i, j, label):
    return SpanTree(Span(i, j), label)


def test_program_of_tree_binary(scan):
    tree = SpanTree(Span(1, 3), JOIN, (
        SpanTree(Span(1, 2), JOIN,
                 (leaf(1, 1, "walk"), leaf(2, 2, "r"))),
        leaf(3, 3, "twice"),
    ))
    assert str(program_of_tree(tree, scan)) == "twice(walk(r))"


def test_program_of_tree_skips_nosem(scan):
    tree = SpanTree(Span(1, 3), JOIN, (
        SpanTree(Span(1, 2), JOIN,
                 (leaf(1, 1, "jump"),
                  SpanTree(Span(2, 2), NOSEM))),
        leaf(3, 3, "twice"),
    ))
    assert str(program_of_tree(tree, scan)) == "twice(jump)"


def test_program_of_tree_ternary_outer_first(geo):
    tree = SpanTree(Span(1, 3), JOIN, (
        leaf(1, 1, "state"),
        leaf(2, 2, "largest_one"),
        leaf(3, 3, "pop_1"),
    ))
    assert str(program_of_tree(tree, geo)) == "largest_one(pop_1(state(all)))"


def test_program_of_tree_failure_carries_span(scan):
    inner = SpanTree(Span(1, 2), JOIN,
                     (leaf(1, 1, "NoSem"), leaf(2, 2, "NoSem")))
    for children in [(leaf(1, 1, "l"), leaf(2, 2, "r")),
                     (inner, leaf(3, 3, "walk"))]:
        tree = SpanTree(Span(1, children[-1].span.end), JOIN, children)
        with pytest.raises(CompositionFailure) as err:
            program_of_tree(tree, scan)
        assert err.value.span == Span(1, 2)


def test_subterm_heads_are_the_constant_multiset(scan):
    z = parse_program("after(walk(r),twice(turn(l,op)))", scan)
    counts = Counter(s.head.name for s in z.subterms())
    assert counts == {"after": 1, "walk": 1, "r": 1, "twice": 1,
                      "turn": 1, "l": 1, "op": 1}
    z = parse_program("and(walk,walk)", scan)
    assert Counter(s.head.name for s in z.subterms()) == {"and": 1, "walk": 2}


@pytest.mark.parametrize("name", ["scan", "geo"])
def test_a_memo_reads_every_corpus_program_as_a_plain_parse(corpora, name):
    """Reading the whole corpus with one memo gives the programs, and their
    text, of a parse without it; the subterms the programs share are then
    one object each."""
    schema, programs, _ = corpora[name]
    texts = [str(p) for p in programs]
    memo = {}
    read = [parse_program(t, schema, memo) for t in texts]
    plain = [parse_program(t, schema) for t in texts]
    assert read == plain == programs
    assert [str(p) for p in read] == texts
    shared = {}
    for program in read:
        for sub in program.subterms():
            assert shared.setdefault(str(sub), sub) is sub


def test_parse_program_round_trip(geo):
    text = "capital(loc_2(state(next_to_1(stateid('new york')))))"
    assert str(parse_program(text, geo)) == text
    with pytest.raises(ValueError):
        parse_program("capital(placeid('mount mckinley'))", geo)
    with pytest.raises(KeyError):
        parse_program("nonsense(all)", geo)
    for truncated in ("capital(", "capital(stateid('maine')", "count(", ""):
        with pytest.raises(ValueError):
            parse_program(truncated, geo)


def test_subterms_of_parsed_program(geo):
    z = parse_program("capital(loc_2(state(all)))", geo)
    assert sorted(str(s) for s in z.subterms()) == \
        ["all", "capital(loc_2(state(all)))", "loc_2(state(all))",
         "state(all)"]


def test_schema_json_round_trip(geo):
    rebuilt = schema_from_json(schema_to_json(geo))
    assert sorted(rebuilt.constants) == sorted(geo.constants)
    assert rebuilt.type_defaults == geo.type_defaults
    assert rebuilt.entity_lexicon == geo.entity_lexicon
    assert str(parse_program("capital(stateid('maine'))", rebuilt)) == \
        "capital(stateid('maine'))"


def test_entity_lexicon_payload_phrases(geo):
    assert "stateid('new york')" in geo.entity_lexicon["new york"]


def test_entity_name_parts():
    assert entity_name_parts("stateid('new york')") == ("stateid", "new york")
    assert entity_name_parts("all") is None
    assert entity_name_parts("capital(stateid('utah'))") is None


def test_subtype_lattice(geo):
    assert geo.is_subtype("state", "any")
    assert not geo.is_subtype("num", "any")
    assert geo.is_subtype("num", "num")


def test_subtype_cycle_rejected():
    with pytest.raises(ValueError):
        DomainSchema("bad", ("a", "b"), subtypes={"a": "b", "b": "a"})
