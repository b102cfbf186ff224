"""Span trees, the span <-> category map, and serialization."""

import json

import pytest

from spansem.core import (
    ArityError,
    Category,
    OverlapError,
    Span,
    SpanTree,
    Utterance,
    all_spans,
    labeled_spans,
    span_map,
    tokenize,
    tree_from_json,
    tree_from_span_map,
    tree_to_json,
    validate_tree,
)


def leaf(i, j, label):
    return SpanTree(Span(i, j), Category(label))


def test_tokenize_splits_terminal_punctuation():
    assert tokenize("What states border Utah?") == \
        ["What", "states", "border", "Utah", "?"]
    assert tokenize("walk twice") == ["walk", "twice"]


def test_span_ordering_and_containment():
    assert len(Span(2, 5)) == 4
    assert Span(1, 5).contains(Span(2, 3))
    assert Span(1, 3).crosses(Span(2, 5))
    assert not Span(1, 3).crosses(Span(4, 5))
    with pytest.raises(ValueError):
        Span(3, 2)


def test_all_spans_count():
    # n(n+1)/2 spans
    assert len(all_spans(4)) == 10
    assert len(all_spans(1)) == 1


def test_children_must_tile_parent():
    with pytest.raises(ValueError):
        SpanTree(Span(1, 3), Category.join(),
                 (leaf(1, 1, "a"), leaf(3, 3, "b")))
    with pytest.raises(ValueError):
        SpanTree(Span(1, 3), Category.join(),
                 (leaf(1, 1, "a"), leaf(2, 2, "b")))


def test_span_map_round_trip():
    tree = SpanTree(Span(1, 3), Category.join(), (
        SpanTree(Span(1, 2), Category.join(),
                 (leaf(1, 1, "walk"), leaf(2, 2, "r"))),
        leaf(3, 3, "twice"),
    ), is_root=True)
    mapping = span_map(tree, 3)
    assert mapping[Span(1, 2)] == Category.join()
    assert mapping[Span(2, 3)] == Category.nosem()
    rebuilt = tree_from_span_map(mapping, 3)
    assert rebuilt == tree


def test_tree_from_span_map_rejects_crossing_spans():
    mapping = {s: Category.nosem() for s in all_spans(3)}
    mapping[Span(1, 2)] = Category.join()
    mapping[Span(2, 3)] = Category.join()
    mapping[Span(1, 3)] = Category.join()
    with pytest.raises(OverlapError):
        tree_from_span_map(mapping, 3)


def test_tree_from_span_map_rejects_constant_with_children():
    mapping = {s: Category.nosem() for s in all_spans(2)}
    mapping[Span(1, 2)] = Category("walk")
    mapping[Span(1, 1)] = Category("r")
    with pytest.raises(ArityError):
        tree_from_span_map(mapping, 2)


def test_validate_tree_nosem_position():
    # non-root Join may absorb NoSem only on the right
    bad = SpanTree(Span(1, 3), Category.join(), (
        SpanTree(Span(1, 2), Category.join(),
                 (SpanTree(Span(1, 1), Category.nosem()),
                  leaf(2, 2, "walk"))),
        leaf(3, 3, "twice"),
    ), is_root=True)
    with pytest.raises(ValueError):
        validate_tree(bad, 3)
    good = SpanTree(Span(1, 3), Category.join(), (
        SpanTree(Span(1, 1), Category.nosem()),
        SpanTree(Span(2, 3), Category.join(),
                 (leaf(2, 2, "walk"), leaf(3, 3, "twice"))),
    ), is_root=True)
    validate_tree(good, 3)


def test_validate_tree_ternary_gate():
    tern = SpanTree(Span(1, 3), Category.join(),
                    (leaf(1, 1, "a"), leaf(2, 2, "b"), leaf(3, 3, "c")),
                    is_root=True)
    validate_tree(tern, 3, ternary=True)
    with pytest.raises(ValueError):
        validate_tree(tern, 3, ternary=False)


def test_labeled_spans_excludes_nosem():
    tree = SpanTree(Span(1, 2), Category.join(),
                    (leaf(1, 1, "walk"),
                     SpanTree(Span(2, 2), Category.nosem())), is_root=True)
    got = labeled_spans(tree)
    assert (Span(1, 1), Category("walk")) in got
    assert all(not c.is_nosem for _, c in got)


def test_json_round_trip():
    tree = SpanTree(Span(1, 2), Category.join(),
                    (leaf(1, 1, "walk"), leaf(2, 2, "r")), is_root=True)
    assert tree_from_json(tree_to_json(tree)) == tree
    assert tree_from_json(json.loads(json.dumps(tree_to_json(tree)))) == tree


def test_utterance_phrase():
    utt = Utterance.from_text("what is the capital of utah ?")
    assert len(utt) == 7
    assert utt.phrase(Span(4, 6)) == "capital of utah"


def test_reserved_category_names():
    with pytest.raises(ValueError):
        Category.constant("NoSem")
    with pytest.raises(ValueError):
        Category.constant("Join")
