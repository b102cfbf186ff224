"""Domain schemas, typed programs and function-application composition.

A program is an applicative term over domain constants.  Predicates may be
partially applied: argument slots are filled one at a time, each argument
going to the first open slot whose type accepts it.  Composition of two
programs applies the left one as function to the right one, and only when
that fails to type-check the right one to the left one.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from .core import Category, Span, SpanTree

ENTITY = "entity"
PREDICATE = "predicate"

_ENTITY_NAME_RE = re.compile(r"^(?P<fn>\w+)\('(?P<payload>[^']*)'\)$")


class CompositionFailure(ValueError):
    """program(T) failed: no type-legal combination at some node."""

    def __init__(self, span: Span, message: str = ""):
        self.span = span
        super().__init__(message or f"no valid composition at span {span}")


@dataclass(frozen=True)
class DomainConstant:
    """A domain constant: an entity or a predicate with typed arg slots.

    ``min_args`` is the number of slots that must be filled before the
    program counts as a complete value (SCAN verbs take optional direction
    and manner arguments, so their minimum is zero).
    """

    name: str
    kind: str
    result_type: str
    arg_types: tuple = ()
    min_args: int = -1

    def __post_init__(self):
        if self.kind == PREDICATE and not self.arg_types:
            raise ValueError(f"predicate {self.name} needs at least one arg type")
        if self.kind == ENTITY and self.arg_types:
            raise ValueError(f"entity {self.name} cannot take arguments")
        if self.min_args < 0:
            object.__setattr__(self, "min_args", len(self.arg_types))

    @property
    def arity(self) -> int:
        return len(self.arg_types)


@dataclass(frozen=True)
class Program:
    """A typed applicative term; ``args`` has one slot per arg type, with
    None marking an open slot."""

    head: DomainConstant
    args: tuple = ()

    def __post_init__(self):
        if not self.args and self.head.arity:
            object.__setattr__(self, "args", (None,) * self.head.arity)
        if len(self.args) != self.head.arity:
            raise ValueError(f"{self.head.name} takes {self.head.arity} args")

    @property
    def result_type(self) -> str:
        return self.head.result_type

    @property
    def filled(self) -> tuple:
        return tuple(i for i, a in enumerate(self.args) if a is not None)

    @property
    def is_complete(self) -> bool:
        """A complete value: required slots filled, no interior holes."""
        filled = self.filled
        return len(filled) >= self.head.min_args and filled == tuple(range(len(filled)))

    def fill(self, slot: int, arg: "Program") -> "Program":
        args = list(self.args)
        if args[slot] is not None:
            raise ValueError(f"slot {slot} of {self.head.name} already filled")
        args[slot] = arg
        return Program(self.head, tuple(args))

    def subterms(self):
        """Yield this program and all complete argument subterms."""
        yield self
        for a in self.args:
            if a is not None:
                yield from a.subterms()

    def __str__(self) -> str:
        if self.head.kind == ENTITY:
            return self.head.name
        filled = self.filled
        if not filled:
            return self.head.name
        last = filled[-1]
        parts = ["·" if a is None else str(a) for a in self.args[: last + 1]]
        return f"{self.head.name}({','.join(parts)})"


@dataclass
class DomainSchema:
    """Constants, the type lattice, and the auto-built entity lexicon."""

    name: str
    types: tuple
    constants: dict = field(default_factory=dict)
    subtypes: dict = field(default_factory=dict)  # type -> parent type
    type_defaults: dict = field(default_factory=dict)  # type -> constant name
    entity_lexicon: dict = field(default_factory=dict)  # phrase -> set of names

    def __post_init__(self):
        self._check_acyclic()

    def _check_acyclic(self):
        for t in self.subtypes:
            seen = set()
            cur = t
            while cur in self.subtypes:
                if cur in seen:
                    raise ValueError(f"subtype cycle through {t}")
                seen.add(cur)
                cur = self.subtypes[cur]

    def add(self, const: DomainConstant) -> DomainConstant:
        if const.name in self.constants:
            raise ValueError(f"duplicate constant {const.name}")
        self.constants[const.name] = const
        if const.kind == ENTITY:
            m = _ENTITY_NAME_RE.match(const.name)
            phrase = m.group("payload") if m else const.name
            self.entity_lexicon.setdefault(phrase.lower(), set()).add(const.name)
        return const

    def constant(self, name: str) -> DomainConstant:
        return self.constants[name]

    def atom(self, name: str) -> Program:
        return Program(self.constant(name))

    def is_subtype(self, sub: str, sup: str) -> bool:
        cur = sub
        while True:
            if cur == sup:
                return True
            if cur not in self.subtypes:
                return False
            cur = self.subtypes[cur]

    @property
    def sigma(self) -> list:
        """All domain constants, in a stable order."""
        return [self.constants[k] for k in sorted(self.constants)]

    def categories(self) -> list:
        """NoSem, Join, then constants: the full category set."""
        return [Category.nosem(), Category.join()] + [
            Category.constant(c.name) for c in self.sigma
        ]

    def default_completion(self, prog: Program):
        """Fill every open slot with its type's default constant, if all
        open slot types declare one; otherwise None."""
        args = list(prog.args)
        for i, a in enumerate(args):
            if a is None:
                default = self.type_defaults.get(prog.head.arg_types[i])
                if default is None:
                    return None
                args[i] = Program(self.constant(default))
        return Program(prog.head, tuple(args))


def _as_argument(prog: Program, schema: DomainSchema):
    """The value form of ``prog`` when used as an argument, or None.

    Complete programs stand for themselves; programs with open slots can be
    coerced by filling the open slots with type defaults (e.g. a bare
    ``state`` predicate becoming ``state(all)``).
    """
    if prog.is_complete:
        return prog
    return schema.default_completion(prog)


def _apply(fn: Program, arg: Program, schema: DomainSchema):
    """Apply ``arg`` to the first open slot of ``fn`` whose type accepts it."""
    value = _as_argument(arg, schema)
    if value is None:
        return None
    for slot, existing in enumerate(fn.args):
        if existing is None and schema.is_subtype(
            value.result_type, fn.head.arg_types[slot]
        ):
            return fn.fill(slot, value)
    return None


def compose_candidates(a: Program, b: Program, schema: DomainSchema) -> list:
    """Function application as a list of at most one program: the left
    child as function, or the right one, built only when the left fails."""
    program = _apply(a, b, schema)
    if program is None:
        program = _apply(b, a, schema)
    return [] if program is None else [program]


def compose(a: Program, b: Program, schema: DomainSchema):
    """Deterministic composition: the program ``compose_candidates``
    builds, or None when neither orientation type-checks."""
    candidates = compose_candidates(a, b, schema)
    return candidates[0] if candidates else None


def compose_children(programs, schema: DomainSchema):
    """An internal node's program from its children's (None for NoSem), or
    None: one semantic child passes through, two compose by ``compose``, and
    three compose the outer pair first, then the middle one."""
    if len(programs) == 3:
        if any(p is None for p in programs):
            return None
        outer = compose(programs[0], programs[2], schema)
        return None if outer is None else compose(outer, programs[1], schema)
    semantic = [p for p in programs if p is not None]
    if len(semantic) == 1:
        return semantic[0]
    if len(semantic) == 2:
        return compose(semantic[0], semantic[1], schema)
    return None


def program_of_tree(tree: SpanTree, schema: DomainSchema) -> Program:
    """Deterministic bottom-up mapping from a span tree to its program.

    Raises CompositionFailure (carrying the offending span) when some node
    admits no type-legal combination; that failure is the semantic-validity
    signal used during CKY inference.
    """

    def visit(node: SpanTree):
        if node.is_leaf:
            if node.category.is_nosem:
                return None
            if node.category.is_join:
                raise CompositionFailure(node.span, "Join leaf has no program")
            try:
                return schema.atom(node.category.label)
            except KeyError:
                raise CompositionFailure(
                    node.span, f"unknown constant {node.category.label}"
                ) from None
        program = compose_children([visit(c) for c in node.children], schema)
        if program is None:
            raise CompositionFailure(node.span)
        return program

    program = visit(tree)
    if program is None:
        raise CompositionFailure(tree.span, "tree carries no semantics")
    return program


# --- program surface syntax -------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(?P<quoted>'[^']*')|(?P<name>\w+)|(?P<punct>[(),]))")


def parse_program(text: str, schema: DomainSchema) -> Program:
    """Parse the FunQL-style surface syntax, e.g. capital(stateid('utah'))."""
    tokens = []
    pos = 0
    while pos < len(text.rstrip()):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ValueError(f"cannot tokenize program at {text[pos:]!r}")
        tokens.append(m.group("quoted") or m.group("name") or m.group("punct"))
        pos = m.end()

    def parse(idx: int):
        name = tokens[idx]
        idx += 1
        if idx < len(tokens) and tokens[idx] == "(":
            # Entity with quoted payload, e.g. stateid('new york').
            if idx + 2 < len(tokens) and tokens[idx + 1].startswith("'"):
                full = f"{name}({tokens[idx + 1]})"
                if tokens[idx + 2] != ")":
                    raise ValueError(f"malformed entity {full}")
                return schema.atom(full), idx + 3
            idx += 1
            args = []
            if tokens[idx] == ")":
                return schema.atom(name), idx + 1
            while True:
                arg, idx = parse(idx)
                args.append(arg)
                if tokens[idx] == ",":
                    idx += 1
                    continue
                if tokens[idx] == ")":
                    idx += 1
                    break
                raise ValueError(f"expected ',' or ')' at token {idx}")
            prog = schema.atom(name)
            for arg in args:
                prog = _apply(prog, arg, schema)
                if prog is None:
                    raise ValueError(f"ill-typed application in {text!r}")
            return prog, idx
        return schema.atom(name), idx

    try:
        program, end = parse(0)
    except IndexError:
        raise ValueError(f"truncated program {text!r}") from None
    if end != len(tokens):
        raise ValueError(f"trailing input in program {text!r}")
    return program


# --- schema files -----------------------------------------------------------


def schema_to_json(schema: DomainSchema) -> dict:
    return {
        "name": schema.name,
        "types": list(schema.types),
        "subtypes": [[k, v] for k, v in sorted(schema.subtypes.items())],
        "defaults": dict(sorted(schema.type_defaults.items())),
        "constants": [
            {
                "name": c.name,
                "kind": c.kind,
                "result": c.result_type,
                "args": list(c.arg_types),
                "min_args": c.min_args,
            }
            for c in schema.sigma
        ],
    }


def schema_from_json(obj: dict) -> DomainSchema:
    schema = DomainSchema(
        name=obj["name"],
        types=tuple(obj["types"]),
        subtypes={k: v for k, v in obj.get("subtypes", [])},
        type_defaults=dict(obj.get("defaults", {})),
    )
    for c in obj["constants"]:
        schema.add(
            DomainConstant(
                name=c["name"],
                kind=c["kind"],
                result_type=c["result"],
                arg_types=tuple(c["args"]),
                min_args=c.get("min_args", -1),
            )
        )
    return schema


def load_schema(path) -> DomainSchema:
    with open(path) as fh:
        return schema_from_json(json.load(fh))


def save_schema(schema: DomainSchema, path) -> None:
    with open(path, "w") as fh:
        json.dump(schema_to_json(schema), fh, indent=2, sort_keys=True)
