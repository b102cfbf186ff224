"""Span-driven semantic parsing: span categories (a constant's name, NOSEM or
JOIN), K-best tree assembly, type-directed program composition, and hard-EM
training from denotationless (utterance, program) supervision."""

from .core import JOIN, NOSEM, Span, SpanTree, Utterance, tokenize
from .typesys import DomainConstant, DomainSchema, Program, program_of_tree
from .scorer import Lexicon, ScoreTable, SpanScorer
from .cky import Grammar, best_valid_tree, constrained_parse, parse_kbest

__all__ = [
    "JOIN",
    "NOSEM",
    "Span",
    "SpanTree",
    "Utterance",
    "tokenize",
    "DomainConstant",
    "DomainSchema",
    "Program",
    "program_of_tree",
    "Lexicon",
    "ScoreTable",
    "SpanScorer",
    "Grammar",
    "best_valid_tree",
    "constrained_parse",
    "parse_kbest",
]

__version__ = "0.1.0"
