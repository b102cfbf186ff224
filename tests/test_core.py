"""Span trees, the span <-> category map, and serialization."""

import json
import re

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
    """``validate_tree`` checks tiling, children before their parent and
    before any grammar rule; the constructor does not."""
    gap = SpanTree(Span(1, 3), JOIN, (leaf(1, 1, "a"), leaf(3, 3, "b")))
    with pytest.raises(ValueError, match="^children are not contiguous$"):
        validate_tree(gap, 3)
    short = SpanTree(Span(1, 3), JOIN, (leaf(1, 1, "a"), leaf(2, 2, "b")))
    with pytest.raises(ValueError, match="^children do not cover the parent span$"):
        validate_tree(short, 3)
    # The inner node's fault is found before the root's, and before the
    # root is found not to cover the 4-token utterance.
    nested = SpanTree(Span(1, 3), JOIN, (
        SpanTree(Span(1, 2), JOIN, (leaf(1, 1, "a"), leaf(1, 2, "b"))),
        leaf(2, 2, "c")))
    with pytest.raises(ValueError, match="^children are not contiguous$"):
        validate_tree(nested, 4)
    root_only = SpanTree(Span(1, 3), JOIN, (leaf(1, 1, "a"), leaf(2, 2, "c")))
    with pytest.raises(ValueError, match="^children do not cover the parent span$"):
        validate_tree(root_only, 4)


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


@pytest.mark.parametrize("tree, n, message", [
    (SpanTree(Span(1, 2), JOIN, (leaf(1, 1, JOIN), leaf(2, 2, "walk"))), 2,
     "leaf at Span(start=1, end=1) carries Join"),
    (leaf(1, 3, NOSEM), 3, "root is a NoSem leaf")])
def test_validate_tree_refuses_a_join_leaf_and_a_nosem_root(tree, n, message):
    """A Join leaf below the root and a root that is a NoSem leaf derive
    from no rule."""
    for ternary in (False, True):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            validate_tree(tree, n, ternary=ternary)


# The grammar as data: each symbol's right-hand sides.  A one-symbol side
# is a unary rule that adds no node; a constant leaf stands for Join.
RULES = {"root": [(JOIN,), (NOSEM, JOIN)],
         JOIN: [(JOIN, JOIN), (JOIN, NOSEM)]}
TERNARY_RULE = (JOIN, JOIN, JOIN)
CONSTANT = "walk"


def tilings(i, j, parts):
    """Every way to cut span (i, j) into ``parts`` contiguous spans."""
    if parts == 1:
        return [[(i, j)]]
    return [[(i, k)] + rest for k in range(i, j)
            for rest in tilings(k + 1, j, parts - 1)]


def derived(symbol, i, j, ternary):
    """Every tree over (i, j) that the rules derive from ``symbol``."""
    if symbol == NOSEM:
        return [leaf(i, j, NOSEM)]
    out = [leaf(i, j, CONSTANT)] if symbol == JOIN else []
    for rhs in RULES[symbol] + ([TERNARY_RULE] if symbol == JOIN and ternary else []):
        if len(rhs) == 1:
            out += derived(rhs[0], i, j, ternary)
            continue
        for parts in tilings(i, j, len(rhs)):
            choices = [[]]
            for sym, (a, b) in zip(rhs, parts):
                choices = [c + [t] for c in choices for t in derived(sym, a, b, ternary)]
            out += [SpanTree(Span(i, j), JOIN, tuple(c)) for c in choices]
    return out


def every_tree(i, j):
    """Every tree over (i, j) whose nodes tile their parents, split in two
    or more children, labelled NoSem, Join or the constant."""
    out = [leaf(i, j, label) for label in (NOSEM, JOIN, CONSTANT)]
    for parts in range(2, j - i + 2):
        for cut in tilings(i, j, parts):
            choices = [[]]
            for a, b in cut:
                choices = [c + [t] for c in choices for t in every_tree(a, b)]
            out += [SpanTree(Span(i, j), label, tuple(c))
                    for label in (NOSEM, JOIN, CONSTANT) for c in choices]
    return out


@pytest.mark.parametrize("ternary", [False, True])
def test_validate_tree_accepts_exactly_the_derived_trees(ternary):
    """Brute force over n <= 4 (16,608 trees at n = 4): ``validate_tree``
    accepts a tree exactly when the rules derive it from the root."""
    for n in range(1, 5):
        legal = derived("root", 1, n, ternary)
        assert len(set(legal)) == len(legal)
        accepted = []
        for tree in every_tree(1, n):
            try:
                validate_tree(tree, n, ternary=ternary)
            except ValueError:
                continue
            accepted.append(tree)
        assert set(accepted) == set(legal), n
