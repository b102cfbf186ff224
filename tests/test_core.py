"""Span trees, the span <-> category map, and serialization."""

import json

import pytest

from spansem.core import (
    JOIN,
    NOSEM,
    Span,
    SpanTree,
    Utterance,
    all_spans,
    labeled_spans,
    span_map,
    tokenize,
    tree_from_json,
    tree_to_json,
    validate_tree,
)
from spansem.typesys import ENTITY, DomainConstant, DomainSchema


def leaf(i, j, label):
    return SpanTree(Span(i, j), label)


def test_tokenize_splits_terminal_punctuation():
    assert tokenize("What states border Utah?") == \
        ["What", "states", "border", "Utah", "?"]
    assert tokenize("walk twice") == ["walk", "twice"]


def test_span_length_and_validation():
    assert len(Span(2, 5)) == 4
    with pytest.raises(ValueError):
        Span(3, 2)


def test_all_spans_count():
    # n(n+1)/2 spans
    assert len(all_spans(4)) == 10
    assert len(all_spans(1)) == 1


def test_children_must_tile_parent():
    with pytest.raises(ValueError):
        SpanTree(Span(1, 3), JOIN,
                 (leaf(1, 1, "a"), leaf(3, 3, "b")))
    with pytest.raises(ValueError):
        SpanTree(Span(1, 3), JOIN,
                 (leaf(1, 1, "a"), leaf(2, 2, "b")))


def test_span_map_round_trip():
    """The total map: every tree node's span carries its category, and every
    other span, the NoSem gap's own included, carries NoSem."""
    tree = SpanTree(Span(1, 3), JOIN, (
        SpanTree(Span(1, 2), JOIN,
                 (leaf(1, 1, "walk"), SpanTree(Span(2, 2), NOSEM))),
        leaf(3, 3, "twice"),
    ))
    assert span_map(tree, 3) == {
        Span(1, 1): "walk", Span(1, 2): JOIN,
        Span(1, 3): JOIN, Span(2, 2): NOSEM, Span(2, 3): NOSEM,
        Span(3, 3): "twice",
    }


def test_validate_tree_nosem_position():
    # non-root Join may absorb NoSem only on the right
    bad = SpanTree(Span(1, 3), JOIN, (
        SpanTree(Span(1, 2), JOIN,
                 (SpanTree(Span(1, 1), NOSEM),
                  leaf(2, 2, "walk"))),
        leaf(3, 3, "twice"),
    ))
    with pytest.raises(ValueError):
        validate_tree(bad, 3)
    good = SpanTree(Span(1, 3), JOIN, (
        SpanTree(Span(1, 1), NOSEM),
        SpanTree(Span(2, 3), JOIN,
                 (leaf(2, 2, "walk"), leaf(3, 3, "twice"))),
    ))
    validate_tree(good, 3)


def test_validate_tree_ternary_gate():
    tern = SpanTree(Span(1, 3), JOIN,
                    (leaf(1, 1, "a"), leaf(2, 2, "b"), leaf(3, 3, "c")))
    validate_tree(tern, 3, ternary=True)
    with pytest.raises(ValueError):
        validate_tree(tern, 3, ternary=False)


def test_labeled_spans_excludes_nosem():
    tree = SpanTree(Span(1, 2), JOIN,
                    (leaf(1, 1, "walk"),
                     SpanTree(Span(2, 2), NOSEM)))
    got = labeled_spans(tree)
    assert (Span(1, 1), "walk") in got
    assert all(c != NOSEM for _, c in got)


def test_json_round_trip():
    tree = SpanTree(Span(1, 2), JOIN,
                    (leaf(1, 1, "walk"), leaf(2, 2, "r")))
    assert tree_from_json(tree_to_json(tree)) == tree
    assert tree_from_json(json.loads(json.dumps(tree_to_json(tree)))) == tree


def test_utterance_phrase():
    utt = Utterance.from_text("what is the capital of utah ?")
    assert len(utt) == 7
    assert utt.phrase(Span(4, 6)) == "capital of utah"


def test_reserved_category_names():
    """NoSem and Join label spans, so no schema constant may take either
    name."""
    schema = DomainSchema("toy", ("e",))
    for name in (NOSEM, JOIN):
        with pytest.raises(ValueError, match="reserved"):
            schema.add(DomainConstant(name, ENTITY, "e"))
    assert schema.constants == {}
