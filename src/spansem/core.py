"""Span-tree and category data model shared by the parser, scorer and trainer.

Conventions used throughout the package:
  - token indices are 1-based and inclusive on both ends;
  - a span tree is equivalent to a total map from every span (i, j) with
    i <= j to a category, where spans that are not tree nodes map to NoSem;
  - the root sentinel is an ordinary Join node with ``is_root`` set.
"""

from __future__ import annotations

from dataclasses import dataclass

NOSEM = "NoSem"
JOIN = "Join"

_TERMINAL_PUNCT = ("?", ".", ",")


class OverlapError(ValueError):
    """Two non-NoSem spans cross without nesting."""


class ArityError(ValueError):
    """A node of the span map cannot be binarized under the tree grammar."""


@dataclass(frozen=True, slots=True)
class Category:
    """A span label: a domain constant name, Join, or NoSem."""

    label: str

    @classmethod
    def nosem(cls) -> "Category":
        return cls(NOSEM)

    @classmethod
    def join(cls) -> "Category":
        return cls(JOIN)

    @classmethod
    def constant(cls, name: str) -> "Category":
        if name in (NOSEM, JOIN):
            raise ValueError(f"{name!r} is reserved and cannot name a constant")
        return cls(name)

    @property
    def is_nosem(self) -> bool:
        return self.label == NOSEM

    @property
    def is_join(self) -> bool:
        return self.label == JOIN

    @property
    def is_constant(self) -> bool:
        return self.label not in (NOSEM, JOIN)

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True, order=True, slots=True)
class Span:
    """A token span, 1-based and inclusive on both ends."""

    start: int
    end: int

    def __post_init__(self):
        if not (1 <= self.start <= self.end):
            raise ValueError(f"invalid span ({self.start}, {self.end})")

    def __len__(self) -> int:
        return self.end - self.start + 1

    def contains(self, other: "Span") -> bool:
        return self.start <= other.start and other.end <= self.end

    def crosses(self, other: "Span") -> bool:
        """True if the spans overlap without one nesting inside the other."""
        if self.end < other.start or other.end < self.start:
            return False
        return not (self.contains(other) or other.contains(self))


@dataclass(frozen=True, slots=True)
class SpanTree:
    """A tree assigning categories to spans.

    Leaves carry a constant or NoSem category; internal nodes carry Join.
    """

    span: Span
    category: Category
    children: tuple = ()
    is_root: bool = False

    def __post_init__(self):
        if self.children:
            starts = [c.span.start for c in self.children]
            ends = [c.span.end for c in self.children]
            if starts[0] != self.span.start or ends[-1] != self.span.end:
                raise ValueError("children do not cover the parent span")
            for a, b in zip(ends, starts[1:]):
                if b != a + 1:
                    raise ValueError("children are not contiguous")

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
    mapping = {s: Category.nosem() for s in all_spans(n)}
    for node in tree.nodes():
        mapping[node.span] = node.category
    return mapping


def tree_from_span_map(span_to_category: dict, n: int) -> SpanTree:
    """Rebuild the unique tree whose node labels match the given span map.

    Inverse of :func:`span_map` for every grammar-legal tree.  Raises
    OverlapError on crossing non-NoSem spans and ArityError when a node
    cannot be expressed with binary or ternary children.
    """
    if n < 1:
        raise ValueError("empty utterance")
    labeled = [(s, c) for s, c in span_to_category.items() if not c.is_nosem]
    for idx, (s, _) in enumerate(labeled):
        for t, _ in labeled[idx + 1 :]:
            if s.crosses(t):
                raise OverlapError(f"spans {s} and {t} cross")

    root_span = Span(1, n)
    root_cat = span_to_category.get(root_span, Category.nosem())
    if root_cat.is_nosem:
        raise ArityError("the full span (1, n) must carry a non-NoSem category")

    by_start = sorted(labeled, key=lambda sc: (sc[0].start, -sc[0].end))

    def build(span: Span, category: Category, is_root: bool = False) -> SpanTree:
        # Maximal labeled spans strictly inside `span`.
        parts = []
        pos = span.start
        while pos <= span.end:
            child = None
            for s, c in by_start:
                if s.start == pos and s.end <= span.end and s != span:
                    child = (s, c)
                    break
            if child is None:
                # NoSem gap runs until the next labeled start.
                nxt = min(
                    (s.start for s, _ in by_start if span.start < s.start <= span.end
                     and s.start > pos and span.contains(s)),
                    default=span.end + 1,
                )
                gap = Span(pos, nxt - 1)
                parts.append(SpanTree(gap, Category.nosem()))
                pos = nxt
            else:
                s, c = child
                parts.append(build(s, c))
                pos = s.end + 1
        if len(parts) == 1 and parts[0].span == span:
            # No labeled span strictly inside: a leaf.
            return SpanTree(span, category, is_root=is_root)
        if category.is_constant:
            raise ArityError(f"constant-labeled span {span} has labeled sub-spans")
        if len(parts) not in (2, 3):
            raise ArityError(f"span {span} has {len(parts)} parts; expected 2 or 3")
        if sum(1 for p in parts if p.is_leaf and p.category.is_nosem) > 1:
            raise ArityError(f"span {span} has more than one NoSem child")
        return SpanTree(span, category, tuple(parts), is_root=is_root)

    return build(root_span, root_cat, is_root=True)


def labeled_spans(tree: SpanTree) -> set:
    """All (span, category) pairs of nodes whose category is not NoSem."""
    return {(n.span, n.category) for n in tree.nodes() if not n.category.is_nosem}


def validate_tree(tree: SpanTree, n: int, ternary: bool = False) -> None:
    """Check grammar legality; raises ValueError with a description if not.

    Rules: root -> Join Join | NoSem Join; Join -> Join Join | Join NoSem;
    plus Join -> Join Join Join when the ternary extension is on.  A bare
    constant leaf may stand for a whole cell at any level.
    """
    if tree.span != Span(1, n):
        raise ValueError("root does not cover the utterance")

    def check(node: SpanTree, at_root: bool) -> None:
        if node.is_leaf:
            if node.category.is_join:
                raise ValueError(f"leaf at {node.span} carries Join")
            return
        if not node.category.is_join:
            raise ValueError(f"internal node at {node.span} is not Join")
        cats = [c.category for c in node.children]
        if len(cats) == 2:
            left, right = cats
            # NoSem may sit on the left only at the root (S -> NoSem Join).
            ok = not left.is_nosem if not at_root else True
            if not ok or (left.is_nosem and right.is_nosem):
                raise ValueError(f"illegal NoSem placement at {node.span}")
        elif len(cats) == 3:
            if not ternary:
                raise ValueError(f"ternary node at {node.span} but extension is off")
            if any(c.is_nosem for c in cats):
                raise ValueError(f"ternary node at {node.span} has a NoSem child")
        else:
            raise ValueError(f"node at {node.span} has arity {len(cats)}")
        for child in node.children:
            if child.category.is_nosem and child.children:
                raise ValueError("NoSem nodes must be leaves")
            if not child.is_leaf:
                check(child, at_root=False)

    check(tree, at_root=True)


def tree_to_json(tree: SpanTree) -> dict:
    out = {
        "span": [tree.span.start, tree.span.end],
        "category": tree.category.label,
    }
    if tree.children:
        out["children"] = [tree_to_json(c) for c in tree.children]
    return out


def tree_from_json(obj: dict, is_root: bool = True) -> SpanTree:
    children = tuple(tree_from_json(c, is_root=False) for c in obj.get("children", []))
    return SpanTree(
        span=Span(*obj["span"]),
        category=Category(obj["category"]),
        children=children,
        is_root=is_root,
    )

