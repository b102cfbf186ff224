"""SCAN-SP: navigation-command corpus generated from a synchronous CFG.

Each generated item pairs a command with its DSL program, the span tree
induced by the grammar derivation, and the executed action sequence.  The
DSL uses predicates and/after (sequencing), walk/jump/run/look/turn
(actions with optional direction and manner slots), twice/thrice
(repetition) and the constants l, r (directions), op, ar (manners).

Programs are composed with ``typesys.compose_children``, the one rule the
parser and ``program_of_tree`` use, and trees and programs are immutable,
so each clause's subtree is built once and shared by the commands that
contain it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import JOIN, Span, SpanTree, Utterance
from ..typesys import (DomainConstant, DomainSchema, ENTITY, PREDICATE, Program,
                       compose_children)

ACT, DIR, MAN = "act", "dir", "man"

_VERBS = ("walk", "jump", "run", "look", "turn")
_ACTION_WORDS = {"walk": "WALK", "jump": "JUMP", "run": "RUN", "look": "LOOK"}
_TURN = {"l": "LTURN", "r": "RTURN"}


class ExecError(ValueError):
    """Program cannot be executed (unsaturated or ill-formed)."""


def scan_schema() -> DomainSchema:
    schema = DomainSchema(name="scan", types=(ACT, DIR, MAN))
    for name in ("l", "r"):
        schema.add(DomainConstant(name, ENTITY, DIR))
    for name in ("op", "ar"):
        schema.add(DomainConstant(name, ENTITY, MAN))
    for name in _VERBS:
        schema.add(DomainConstant(name, PREDICATE, ACT, (DIR, MAN), min_args=0))
    for name in ("twice", "thrice"):
        schema.add(DomainConstant(name, PREDICATE, ACT, (ACT,)))
    for name in ("and", "after"):
        schema.add(DomainConstant(name, PREDICATE, ACT, (ACT, ACT)))
    return schema


def scan_lexicon_entries() -> list:
    """Manual lexicon: one phrase per constant (word identity)."""
    pairs = [(w, w) for w in ("walk", "jump", "run", "look", "turn",
                              "twice", "thrice", "and", "after")]
    pairs += [("left", "l"), ("right", "r"), ("opposite", "op"), ("around", "ar")]
    return pairs


@dataclass(frozen=True)
class ScanExample:
    utterance: Utterance
    program: Program
    tree: SpanTree
    actions: tuple


# --- generation -------------------------------------------------------------

# A phrase is a word or a (left, right) pair of phrases; each pair is a Join
# node of the span tree.


def _clauses() -> list:
    """The 102 clauses: each of the 34 verb phrases bare, twice and thrice."""
    vps = [verb for verb in _VERBS if verb != "turn"]  # bare actions
    for verb in _VERBS:
        for direction in ("left", "right"):
            vps.append((verb, direction))
            for manner in ("opposite", "around"):
                vps.append(((verb, manner), direction))
    return [c for vp in vps for c in (vp, (vp, "twice"), (vp, "thrice"))]


def generate_scan_sp(schema: DomainSchema | None = None) -> list:
    """Exhaustively enumerate the command grammar (20,910 commands).

    Each Join node's program is ``compose_children`` of its children's, the
    step ``program_of_tree`` takes, so every gold program is its tree's
    program by construction.  A phrase's tree, program and tokens are built
    once per start index and shared by every command that contains it there.
    """
    schema = schema or scan_schema()
    constant_of = dict(scan_lexicon_entries())
    built = {}

    def build(phrase, start: int):
        key = (phrase, start)
        if key not in built:
            if isinstance(phrase, str):
                name = constant_of[phrase]
                tree = SpanTree(Span(start, start), name)
                built[key] = tree, schema.atom(name), (phrase,)
            else:
                ltree, lprog, ltoks = build(phrase[0], start)
                rtree, rprog, rtoks = build(phrase[1], start + len(ltoks))
                tree = SpanTree(Span(start, rtree.span.end), JOIN,
                                (ltree, rtree))
                built[key] = (tree, compose_children([lprog, rprog], schema),
                              ltoks + rtoks)
        return built[key]

    clauses = _clauses()
    phrases = clauses + [((left, conj), right) for conj in ("and", "after")
                         for left in clauses for right in clauses]
    examples = []
    for phrase in phrases:
        tree, program, tokens = build(phrase, 1)
        utt = Utterance(raw_text=" ".join(tokens), tokens=tokens)
        examples.append(
            ScanExample(utt, program, tree, actions=exec_scan(program))
        )
    return examples


# --- execution --------------------------------------------------------------


def exec_scan(z: Program) -> tuple:
    """Denotation of a SCAN-SP program: the action-token sequence."""
    name = z.head.name
    if name in ("and", "after"):
        a, b = z.args
        if a is None or b is None:
            raise ExecError(f"unsaturated {name}")
        first, second = (a, b) if name == "and" else (b, a)
        return exec_scan(first) + exec_scan(second)
    if name in ("twice", "thrice"):
        if z.args[0] is None:
            raise ExecError(f"unsaturated {name}")
        return exec_scan(z.args[0]) * (2 if name == "twice" else 3)
    if name in _VERBS:
        direction, manner = z.args
        if direction is None and manner is not None:
            raise ExecError(f"{name} has a manner but no direction")
        base = (_ACTION_WORDS[name],) if name != "turn" else ()
        if direction is None:
            if name == "turn":
                raise ExecError("bare turn has no denotation")
            return base
        if direction.head.name not in _TURN:
            raise ExecError(f"{direction.head.name} is no direction")
        turn = (_TURN[direction.head.name],)
        if manner is None:
            return turn + base
        if manner.head.name == "op":
            return turn + turn + base
        if manner.head.name == "ar":
            return (turn + base) * 4
        raise ExecError(f"{manner.head.name} is no manner")
    raise ExecError(f"cannot execute constant {name}")
