"""Span-tree and category data model shared by the parser, scorer and trainer.

Conventions used throughout the package:
  - a category is its label, a plain string: a domain constant's name, or
    one of the two reserved labels ``NOSEM`` and ``JOIN``, which no
    constant may take (``typesys.DomainSchema.add`` refuses them);
  - token indices are 1-based and inclusive on both ends;
  - a span tree determines a total map from every span (i, j) with i <= j
    to a category, where spans that are not tree nodes map to NoSem
    (``span_map``; ``scorer.labels_for_tree`` writes the same map as one
    label per span row, and ``scorer.tree_from_labels`` reads the tree
    back from it);
  - the root is the node whose span covers the whole utterance, (1, n).
"""

from __future__ import annotations

from dataclasses import dataclass

NOSEM = "NoSem"
JOIN = "Join"

_TERMINAL_PUNCT = ("?", ".", ",")


@dataclass(frozen=True, slots=True)
class Span:
    """A token span, 1-based and inclusive on both ends."""

    start: int
    end: int

    def __post_init__(self):
        if not (1 <= self.start <= self.end):
            raise ValueError(f"invalid span ({self.start}, {self.end})")

    def __len__(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True, slots=True)
class SpanTree:
    """A tree assigning categories to spans.

    Leaves carry a constant or NoSem category; internal nodes carry Join.
    Children tile their parent's span, left to right.  The constructor does
    not check that: the charts build trees that tile, and ``validate_tree``
    checks a tree that comes from outside.
    """

    span: Span
    category: str
    children: tuple = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def nodes(self):
        """Yield every node of the tree, top-down."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def pretty(self) -> str:
        """Bracketed rendering with categories, one node per bracket."""
        if self.is_leaf:
            return f"[{self.category} {self.span.start}:{self.span.end}]"
        inner = " ".join(c.pretty() for c in self.children)
        return f"[{self.category} {inner}]"


@dataclass(frozen=True)
class Utterance:
    raw_text: str
    tokens: tuple

    @classmethod
    def from_text(cls, text: str) -> "Utterance":
        return cls(raw_text=text, tokens=tuple(tokenize(text)))

    def __len__(self) -> int:
        return len(self.tokens)

    def phrase(self, span: Span) -> str:
        return " ".join(self.tokens[span.start - 1 : span.end])


def tokenize(text: str) -> list:
    """Whitespace tokenizer that splits terminal punctuation (? . ,) off."""
    tokens = []
    for chunk in text.split():
        tail = []
        while len(chunk) > 1 and chunk.endswith(_TERMINAL_PUNCT):
            tail.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.append(chunk)
        tokens.extend(reversed(tail))
    return tokens


def all_spans(n: int):
    """All spans (i, j) with 1 <= i <= j <= n, in a fixed order."""
    return [Span(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]


def span_map(tree: SpanTree, n: int) -> dict:
    """Flatten a tree into the total span -> category map of length n."""
    mapping = {s: NOSEM for s in all_spans(n)}
    for node in tree.nodes():
        mapping[node.span] = node.category
    return mapping


def labeled_spans(tree: SpanTree) -> set:
    """All (span, category) pairs of nodes whose category is not NoSem."""
    return {(n.span, n.category) for n in tree.nodes() if n.category != NOSEM}


def validate_tree(tree: SpanTree, n: int, ternary: bool = False) -> None:
    """Check grammar legality; raises ValueError with a description if not.

    Rules: root -> Join Join | NoSem Join; Join -> Join Join | Join NoSem;
    plus Join -> Join Join Join when the ternary extension is on.  A bare
    constant leaf may stand for a whole cell at any level; no leaf carries
    Join, and the root is no NoSem leaf.  Every node's children must tile
    its span, left to right; that is checked first, children before their
    parent, and the leaves last.
    """
    _check_tiling(tree)
    if tree.span != Span(1, n):
        raise ValueError("root does not cover the utterance")

    def check(node: SpanTree, at_root: bool) -> None:
        if node.category != JOIN:
            raise ValueError(f"internal node at {node.span} is not Join")
        cats = [c.category for c in node.children]
        if len(cats) == 2:
            left, right = cats
            # NoSem may sit on the left only at the root (S -> NoSem Join).
            ok = left != NOSEM if not at_root else True
            if not ok or left == right == NOSEM:
                raise ValueError(f"illegal NoSem placement at {node.span}")
        elif len(cats) == 3:
            if not ternary:
                raise ValueError(f"ternary node at {node.span} but extension is off")
            if NOSEM in cats:
                raise ValueError(f"ternary node at {node.span} has a NoSem child")
        else:
            raise ValueError(f"node at {node.span} has arity {len(cats)}")
        for child in node.children:
            if child.category == NOSEM and child.children:
                raise ValueError("NoSem nodes must be leaves")
            if not child.is_leaf:
                check(child, at_root=False)

    if not tree.is_leaf:
        check(tree, at_root=True)
    for node in tree.nodes():
        if not node.children and node.category == JOIN:
            raise ValueError(f"leaf at {node.span} carries Join")
    if tree.is_leaf and tree.category == NOSEM:
        raise ValueError("root is a NoSem leaf")


def _check_tiling(node: SpanTree) -> None:
    for child in node.children:
        _check_tiling(child)
    if node.children:
        starts = [c.span.start for c in node.children]
        ends = [c.span.end for c in node.children]
        if starts[0] != node.span.start or ends[-1] != node.span.end:
            raise ValueError("children do not cover the parent span")
        for a, b in zip(ends, starts[1:]):
            if b != a + 1:
                raise ValueError("children are not contiguous")


def tree_to_json(tree: SpanTree) -> dict:
    out = {
        "span": [tree.span.start, tree.span.end],
        "category": tree.category,
    }
    if tree.children:
        out["children"] = [tree_to_json(c) for c in tree.children]
    return out


def tree_from_json(obj: dict) -> SpanTree:
    """The tree of a JSON object; a ValueError when a span end is not an
    int: a float or a bool (an int to Python) compares as a token index
    but cannot index the utterance's tokens."""
    children = tuple(tree_from_json(c) for c in obj.get("children", []))
    span = Span(*obj["span"])
    if type(span.start) is not int or type(span.end) is not int:
        raise ValueError(f"span ends must be integers, not {obj['span']!r}")
    return SpanTree(span, obj["category"], children)

