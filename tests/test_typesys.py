"""Typed program composition and schema behavior."""

import pytest

from spansem.core import Category, Span, SpanTree
from spansem.typesys import (
    CompositionFailure,
    DomainConstant,
    DomainSchema,
    Program,
    compose,
    compose_candidates,
    constants_of,
    parse_program,
    program_of_tree,
    schema_from_json,
    schema_to_json,
)
from spansem.data.scan import scan_schema
from spansem.data.geo import geo_schema


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


def test_compose_candidates_keeps_both_orientations(geo):
    cands = compose_candidates(geo.atom("largest"), geo.atom("smallest"), geo)
    assert [str(c) for c in cands] == \
        ["largest(smallest(all))", "smallest(largest(all))"]


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


def test_constants_of_multiset(scan):
    z = parse_program("after(walk(r),twice(turn(l,op)))", scan)
    counts = {c.name: k for c, k in constants_of(z).items()}
    assert counts == {"after": 1, "walk": 1, "r": 1, "twice": 1,
                      "turn": 1, "l": 1, "op": 1}


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
