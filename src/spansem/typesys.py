"""Domain schemas, typed programs and function-application composition.

A program is an applicative term over domain constants.  Predicates may be
partially applied: argument slots are filled one at a time, each argument
going to the first open slot whose type accepts it.  Composition of two
programs applies the left one as function to the right one, and only when
that fails to type-check the right one to the left one.

Each schema owns one ``CompositionTable``, built on first use: programs are
hash-consed to ints (Filliâtre & Conchon 2006, *Type-safe modular
hash-consing*) and composition is memoized over id pairs, so a pair of
programs is composed once per schema however many parses, examples and
epochs meet it.  A failed composition is None, over programs and ids
alike, and a miss composes through the module-level ``compose``.  The
table also keeps each program's template and the E-step charts compiled
for it.  ``DomainSchema.add`` clears the table.

The module also owns the programs' surface syntax: ``program_tokens`` is
its one tokenizer, reading an entity ``fn('payload')`` as one token, and
``parse_program`` and ``data.splits`` read programs through it.  A reader
of many programs passes ``parse_program`` one memo for all of them, so
each distinct subterm is parsed once and its program object shared.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from operator import attrgetter

from .core import JOIN, NOSEM, Span, SpanTree

ENTITY = "entity"
PREDICATE = "predicate"


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

    def __hash__(self) -> int:
        # The dataclass's value, hash((head, args)), computed once per
        # object: a lookup of a deep program no longer rehashes every
        # subterm, and no set or dict order moves.
        try:
            return self._hash
        except AttributeError:
            value = hash((self.head, self.args))
            object.__setattr__(self, "_hash", value)
            return value

    def __reduce__(self):
        # Rebuilt from its fields, so that no cached value, the hash, which
        # depends on the process's string hashing, or the text, crosses into
        # another process.
        return Program, (self.head, self.args)

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
        # Computed once per object, as the hash is: a subterm shared by
        # many programs is written once.
        try:
            return self._str
        except AttributeError:
            pass
        filled = () if self.head.kind == ENTITY else self.filled
        if not filled:
            value = self.head.name
        else:
            parts = ["·" if a is None else str(a) for a in self.args[: filled[-1] + 1]]
            value = f"{self.head.name}({','.join(parts)})"
        object.__setattr__(self, "_str", value)
        return value


@dataclass
class DomainSchema:
    """Constants, the type lattice, and the auto-built entity lexicon."""

    name: str
    types: tuple
    constants: dict = field(default_factory=dict)
    subtypes: dict = field(default_factory=dict)  # type -> parent type
    type_defaults: dict = field(default_factory=dict)  # type -> constant name
    entity_lexicon: dict = field(default_factory=dict)  # phrase -> set of names
    _table: "CompositionTable | None" = field(default=None, init=False,
                                              repr=False, compare=False)

    def __post_init__(self):
        self._check_acyclic()

    @property
    def table(self) -> "CompositionTable":
        """The schema's composition table, built on first use."""
        if self._table is None:
            self._table = CompositionTable(self)
        return self._table

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
        if const.name in (NOSEM, JOIN):
            raise ValueError(f"{const.name!r} is reserved and cannot name a constant")
        if const.name in self.constants:
            raise ValueError(f"duplicate constant {const.name}")
        self.constants[const.name] = const
        self._table = None
        if const.kind == ENTITY:
            parts = entity_name_parts(const.name)
            phrase = parts[1] if parts else const.name
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
        return [NOSEM, JOIN] + sorted(self.constants)


def _as_argument(prog: Program, schema: DomainSchema):
    """The value form of ``prog`` when used as an argument, or None.

    Complete programs stand for themselves; programs with open slots can be
    coerced by filling every open slot with its type's default constant
    (e.g. a bare ``state`` predicate becoming ``state(all)``), when each
    open slot's type declares one.
    """
    if prog.is_complete:
        return prog
    args = list(prog.args)
    for i, a in enumerate(args):
        if a is None:
            default = schema.type_defaults.get(prog.head.arg_types[i])
            if default is None:
                return None
            args[i] = Program(schema.constant(default))
    return Program(prog.head, tuple(args))


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


def _node(children, compose_pair):
    """The internal-node rule over programs or their ids (None for NoSem):
    of two children, a NoSem one passes the other through and two semantic
    ones compose by ``compose_pair``; three compose the outer pair first,
    then the middle one.  None for any other arity, as no rule has one, and
    when the rule or ``compose_pair`` fails."""
    if len(children) == 2:  # the binary rules, tried first as the commonest
        left, right = children
        if left is None:
            return right
        if right is None:
            return left
        return compose_pair(left, right)
    if len(children) == 3:
        if any(c is None for c in children):
            return None
        outer = compose_pair(children[0], children[2])
        return None if outer is None else compose_pair(outer, children[1])
    return None


def compose_children(programs, schema: DomainSchema):
    """An internal node's program from its children's (None for NoSem), or
    None, by ``_node``'s rule with ``compose``."""
    return _node(programs, lambda a, b: compose(a, b, schema))


_MISSING = object()  # a pair the table has not composed yet


class CompositionTable:
    """One schema's programs interned to ints, with composition memoized
    over pairs of ids.

    ``programs[x]`` is the program of id ``x``.  ``compose(x, y)`` is the
    id of ``compose(programs[x], programs[y], schema)``, or None when that
    is None; the first call for a pair composes, later ones look it up.
    Ids follow first use, so they differ between a cold table and a warm
    one: nothing may be ordered by them.

    ``template(x)`` renames program ``x``'s constants to a canonical
    representative that composes as ``x`` does, and ``charts`` holds what
    is compiled per template: ``cky.constrained_parse`` keeps its E-step
    charts there, keyed on ``(n, template id, ternary)``.
    """

    def __init__(self, schema: DomainSchema):
        self.schema = schema
        self.programs: list = []
        self.ids: dict = {}  # program -> id
        self.atoms: dict = {}  # constant name -> id of its bare program
        self.composed: list = []  # x -> {y: compose(x, y), None if failed}
        self.templates: dict = {}  # x -> (template id, slot names)
        self.charts: dict = {}
        self.defaults = set(schema.type_defaults.values())
        self.classes: dict = {}  # signature -> its constants but defaults, by name
        for c in schema.sigma:
            if c.name not in self.defaults:
                self.classes.setdefault(_signature(c), []).append(c.name)

    def intern(self, program: Program) -> int:
        pid = self.ids.get(program)
        if pid is None:
            pid = self.ids[program] = len(self.programs)
            self.programs.append(program)
            self.composed.append({})
        return pid

    def atom(self, name: str) -> int:
        """The id of constant ``name``'s bare program; KeyError when the
        schema has no such constant."""
        pid = self.atoms.get(name)
        if pid is None:
            pid = self.atoms[name] = self.intern(self.schema.atom(name))
        return pid

    def compose(self, x: int, y: int) -> int | None:
        memo = self.composed[x]
        pid = memo.get(y, _MISSING)
        if pid is _MISSING:
            program = compose(self.programs[x], self.programs[y], self.schema)
            pid = memo[y] = None if program is None else self.intern(program)
        return pid

    def compose_children(self, ids):
        """``compose_children`` over ids (None for NoSem): an id, or None."""
        return _node(ids, self.compose)

    def template(self, pid: int) -> tuple:
        """``(template id, slot names)`` of program ``pid``.

        Composition reads a constant's kind, result type, argument types
        and ``min_args`` (its signature) and the schema's type defaults,
        never its name.  So renaming constants within a signature class,
        defaults fixed, maps compositions to compositions, admissible
        programs to admissible ones, and keeps every weight.  The template
        renames the k-th distinct constant of a class in ``pid``'s preorder
        to the class's k-th member by name, the type defaults excluded from
        every class, and leaves defaults as they are.  The slot names are
        ``pid``'s distinct constants in preorder; the template's, in the
        same order, are their images."""
        entry = self.templates.get(pid)
        if entry is None:
            program = self.programs[pid]
            renamed, taken = {}, {}
            for sub in program.subterms():
                head = sub.head
                if head.name not in renamed:
                    if head.name in self.defaults:
                        renamed[head.name] = head
                    else:
                        sig = _signature(head)
                        k = taken[sig] = taken.get(sig, -1) + 1
                        renamed[head.name] = self.schema.constant(self.classes[sig][k])

            def rename(p: Program) -> Program:
                return Program(renamed[p.head.name],
                               tuple(None if a is None else rename(a) for a in p.args))

            entry = self.templates[pid] = (self.intern(rename(program)),
                                           tuple(renamed))
        return entry


def _signature(const: DomainConstant) -> tuple:
    """What composition reads of a constant: all but its name."""
    return const.kind, const.result_type, const.arg_types, const.min_args


def program_id(root, table: CompositionTable, parts, span_of) -> int:
    """The id in ``table`` of the program a tree composes to, for a tree in
    any encoding: ``parts(node)`` is a node's ``(category, children)``, and
    ``span_of(node)`` its span, read only for the failure.

    The leaf and node rule: a NoSem leaf carries no program, a constant
    leaf its bare program, and an internal node composes its children by
    ``CompositionTable.compose_children``.  Raises CompositionFailure
    (carrying the offending span) when some node admits no type-legal
    combination, or when the root carries no program."""

    def visit(node):
        category, children = parts(node)
        if not children:
            if category == NOSEM:
                return None
            if category == JOIN:
                raise CompositionFailure(span_of(node), "Join leaf has no program")
            try:
                return table.atom(category)
            except KeyError:
                raise CompositionFailure(
                    span_of(node), f"unknown constant {category}"
                ) from None
        pid = table.compose_children([visit(c) for c in children])
        if pid is None:
            raise CompositionFailure(span_of(node))
        return pid

    pid = visit(root)
    if pid is None:
        raise CompositionFailure(span_of(root), "tree carries no semantics")
    return pid


_tree_parts = attrgetter("category", "children")
_tree_span = attrgetter("span")


def program_of_tree(tree: SpanTree, schema: DomainSchema) -> Program:
    """Deterministic bottom-up mapping from a span tree to its program,
    composed through the schema's table by ``program_id``.

    Raises CompositionFailure (carrying the offending span) when some node
    admits no type-legal combination; that failure is the semantic-validity
    signal, which ``cky.best_valid_tree`` reads by the same rule over
    derivations.
    """
    table = schema.table
    return table.programs[program_id(tree, table, _tree_parts, _tree_span)]


# --- program surface syntax -------------------------------------------------

# An entity fn('payload'), whitespace allowed around its parentheses; a
# name, a parenthesis or a comma; or any other character but whitespace.
_TOKEN_RE = re.compile(r"(\w+)\s*\(\s*'([^']*)'\s*\)|(\w+|[(),])|(\S)")


def entity_name(function: str, payload: str) -> str:
    """The canonical entity name, e.g. ``stateid('utah')``."""
    return f"{function}('{payload}')"


def entity_name_parts(name: str):
    """``(function, payload)`` of a canonical entity name such as
    ``stateid('utah')``, or None for a name of another form."""
    m = _TOKEN_RE.fullmatch(name)
    return m.groups()[:2] if m and m[1] and entity_name(m[1], m[2]) == name else None


def program_tokens(text: str) -> list:
    """The tokens of a program's surface syntax: names, parentheses and
    commas, with each entity one token in its canonical form.  Whitespace
    between tokens and inside an entity is skipped; any other character is
    a ValueError."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        function, payload, token, bad = m.groups()
        if bad:
            raise ValueError(f"cannot tokenize program at {text[m.start():]!r}")
        tokens.append(token or entity_name(function, payload))
    return tokens


def _closing(tokens: list) -> dict:
    """The index of the ``)`` that matches each ``(``, by the ``(``'s."""
    closing, opened = {}, []
    for k, token in enumerate(tokens):
        if token == "(":
            opened.append(k)
        elif token == ")" and opened:
            closing[opened.pop()] = k
    return closing


def parse_program(text: str, schema: DomainSchema, memo: dict | None = None) -> Program:
    """Parse the FunQL-style surface syntax, e.g. capital(stateid('utah')).

    ``memo``, when given, maps the tokens of every subterm parsed so far to
    its program, and a subterm found there is not parsed again: a reader
    passes one dict per file, so the subterms its lines share are parsed
    once and their programs are shared objects (hash-consing, as in
    ``CompositionTable``).  A subterm's tokens are a name alone, when the
    token after it is no ``(``, or a name up to the ``)`` that matches the
    ``(`` after it: a subterm that parses is balanced, and parsing it reads
    only its own tokens and the one after it.  So a stored program is what
    parsing would give again.  Only subterms that parse are stored, so
    every error, its message and its token index are those of a parse
    without the memo."""
    tokens = program_tokens(text)

    def read(idx: int):
        name = tokens[idx]
        idx += 1
        if idx < len(tokens) and tokens[idx] == "(":
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

    parse = read
    if memo is not None:
        closing = _closing(tokens)

        def parse(idx: int):
            end = idx + 1
            if end < len(tokens) and tokens[end] == "(":
                end = closing.get(end, -2) + 1
            if 0 < end <= len(tokens):  # else: an unclosed ``(``, or no token
                key = tuple(tokens[idx:end])
                program = memo.get(key)
                if program is None:
                    program, _ = read(idx)  # ends at ``end``, as it parsed
                    memo[key] = program
                return program, end
            return read(idx)

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


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def schema_from_json(obj: dict) -> DomainSchema:
    """The schema of a schema.json object.  A ValueError names the first
    field that is not of its type, or a default that names no constant."""
    _check(isinstance(obj, dict), "needs a JSON object")
    name, types, constants = obj["name"], obj["types"], obj["constants"]
    subtypes, defaults = obj.get("subtypes", []), obj.get("defaults", {})
    _check(isinstance(name, str), "name must be a string")
    _check(_strings(types), "types must be a list of strings")
    _check(isinstance(subtypes, list) and all(_strings(p) and len(p) == 2
                                              for p in subtypes),
           "subtypes must be a list of [type, parent type] pairs")
    _check(isinstance(defaults, dict) and _strings(list(defaults.values())),
           "defaults must map types to constant names")
    _check(isinstance(constants, list), "constants must be a list")
    schema = DomainSchema(name=name, types=tuple(types), subtypes=dict(subtypes),
                          type_defaults=dict(defaults))
    for c in constants:
        _check(isinstance(c, dict) and isinstance(c.get("name"), str)
               and c.get("kind") in (ENTITY, PREDICATE)
               and isinstance(c.get("result"), str) and _strings(c.get("args"))
               and type(c.get("min_args", -1)) is int,
               f"constant {c!r} needs a string name and result, kind "
               f"{ENTITY!r} or {PREDICATE!r}, a list of string args and an "
               f"integer min_args")
        schema.add(DomainConstant(name=c["name"], kind=c["kind"],
                                  result_type=c["result"],
                                  arg_types=tuple(c["args"]),
                                  min_args=c.get("min_args", -1)))
    for default in defaults.values():
        _check(default in schema.constants, f"default {default!r} is not a constant")
    return schema


def load_schema(path) -> DomainSchema:
    with open(path) as fh:
        return schema_from_json(json.load(fh))


def save_schema(schema: DomainSchema, path) -> None:
    with open(path, "w") as fh:
        json.dump(schema_to_json(schema), fh, indent=2, sort_keys=True)
