"""Typed program composition and schema behavior."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from spansem.core import Category, Span, SpanTree
from spansem.typesys import (
    CompositionFailure,
    DomainConstant,
    DomainSchema,
    Program,
    _apply,
    compose,
    compose_candidates,
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
    return SpanTree(Span(i, j), Category(label))


def test_program_of_tree_binary(scan):
    tree = SpanTree(Span(1, 3), Category.join(), (
        SpanTree(Span(1, 2), Category.join(),
                 (leaf(1, 1, "walk"), leaf(2, 2, "r"))),
        leaf(3, 3, "twice"),
    ), is_root=True)
    assert str(program_of_tree(tree, scan)) == "twice(walk(r))"


def test_program_of_tree_skips_nosem(scan):
    tree = SpanTree(Span(1, 3), Category.join(), (
        SpanTree(Span(1, 2), Category.join(),
                 (leaf(1, 1, "jump"),
                  SpanTree(Span(2, 2), Category.nosem()))),
        leaf(3, 3, "twice"),
    ), is_root=True)
    assert str(program_of_tree(tree, scan)) == "twice(jump)"


def test_program_of_tree_ternary_outer_first(geo):
    tree = SpanTree(Span(1, 3), Category.join(), (
        leaf(1, 1, "state"),
        leaf(2, 2, "largest_one"),
        leaf(3, 3, "pop_1"),
    ), is_root=True)
    assert str(program_of_tree(tree, geo)) == "largest_one(pop_1(state(all)))"


def test_program_of_tree_failure_carries_span(scan):
    inner = SpanTree(Span(1, 2), Category.join(),
                     (leaf(1, 1, "NoSem"), leaf(2, 2, "NoSem")))
    for children in [(leaf(1, 1, "l"), leaf(2, 2, "r")),
                     (inner, leaf(3, 3, "walk"))]:
        tree = SpanTree(Span(1, children[-1].span.end), Category.join(),
                        children, is_root=True)
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


def test_subtype_lattice(geo):
    assert geo.is_subtype("state", "any")
    assert not geo.is_subtype("num", "any")
    assert geo.is_subtype("num", "num")


def test_subtype_cycle_rejected():
    with pytest.raises(ValueError):
        DomainSchema("bad", ("a", "b"), subtypes={"a": "b", "b": "a"})
