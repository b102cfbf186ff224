"""Corpus generation, executors, splits, and evaluation metrics."""

import hashlib
import json
import re

import pytest

from spansem import cli
from spansem.core import JOIN, NOSEM, Span, labeled_spans, validate_tree
from spansem.data.geo import (
    GeoKb,
    exec_funql,
    geo_lexicon_entries,
    geo_schema,
    load_kb,
    mini_geo_corpus,
    mini_kb,
    render_denotation,
    save_kb,
)
from spansem.data.metrics import f1_from_counts, row_f1_counts
from spansem.data.scan import (
    ExecError,
    exec_scan,
    generate_scan_sp,
    scan_lexicon_entries,
    scan_schema,
)
from spansem.data.splits import (
    program_template,
    program_token_length,
    split_iid,
    split_length,
    split_scan_primitive,
    split_template,
)
from spansem.scorer import SpanScorer
from spansem.typesys import (
    ENTITY,
    DomainConstant,
    Program,
    parse_program,
    program_of_tree,
    program_tokens,
)


@pytest.fixture(scope="module")
def corpus():
    return generate_scan_sp()


# --- navigation-command corpus ----------------------------------------------


def test_corpus_size_and_uniqueness(corpus):
    assert len(corpus) == 20910
    assert len({ex.utterance.raw_text for ex in corpus}) == 20910


# Reference interpreter working on the command *strings*, written against
# the surface grammar directly so it shares no code with the generator or
# the program executor.

_REF_TURN = {"left": ("LTURN",), "right": ("RTURN",)}
_REF_ACT = {"walk": ("WALK",), "jump": ("JUMP",), "run": ("RUN",),
            "look": ("LOOK",), "turn": ()}


def reference_actions(tokens):
    tokens = list(tokens)
    for i, tok in enumerate(tokens):
        if tok == "and":
            return reference_actions(tokens[:i]) + reference_actions(tokens[i + 1:])
        if tok == "after":
            return reference_actions(tokens[i + 1:]) + reference_actions(tokens[:i])
    if tokens[-1] in ("twice", "thrice"):
        reps = 2 if tokens[-1] == "twice" else 3
        return reference_actions(tokens[:-1]) * reps
    verb = _REF_ACT[tokens[0]]
    if len(tokens) == 1:
        return verb
    turn = _REF_TURN[tokens[-1]]
    if len(tokens) == 2:
        return turn + verb
    if tokens[1] == "opposite":
        return turn + turn + verb
    assert tokens[1] == "around"
    return (turn + verb) * 4


def test_executor_agrees_with_reference_interpreter(corpus):
    for ex in corpus:
        assert exec_scan(ex.program) == reference_actions(ex.utterance.tokens), \
            ex.utterance.raw_text
        assert ex.actions == reference_actions(ex.utterance.tokens)


def test_generated_trees_are_legal_and_match_programs(corpus):
    schema = scan_schema()
    word_of = {c: w for w, c in scan_lexicon_entries()}
    for ex in corpus:
        n = len(ex.utterance)
        validate_tree(ex.tree, n)
        composed = program_of_tree(ex.tree, schema)
        assert composed == ex.program
        # every leaf constant names a token that the manual lexicon maps to it
        for node in ex.tree.nodes():
            if node.category not in (NOSEM, JOIN):
                assert len(node.span) == 1
                token = ex.utterance.tokens[node.span.start - 1]
                assert word_of[node.category] == token


def test_corpus_digest_is_pinned(corpus):
    """The corpus, in order, as the dataset files record it plus each tree's
    repr: a change to the generator that shifts any example shows here."""
    digest = hashlib.sha256()
    for e in corpus:
        record = cli.example_record(e.utterance, e.program, e.tree,
                                    list(e.actions))
        digest.update(json.dumps(record, sort_keys=True).encode())
        digest.update(repr(e.tree).encode())
    assert digest.hexdigest() == (
        "2b7ee1009e9610cf5453c3d897193daf85e32954ed73cdf81b7e56a295dfb88e")


def test_exec_scan_sample_values(corpus):
    by_text = {ex.utterance.raw_text: ex for ex in corpus}
    cases = {
        "jump": ("JUMP",),
        "turn left": ("LTURN",),
        "walk opposite right": ("RTURN", "RTURN", "WALK"),
        "look around left": ("LTURN", "LOOK") * 4,
        "run twice": ("RUN", "RUN"),
        "turn around right thrice": ("RTURN",) * 12,
        "walk left and jump": ("LTURN", "WALK", "JUMP"),
        "walk left after jump": ("JUMP", "LTURN", "WALK"),
    }
    for text, actions in cases.items():
        assert exec_scan(by_text[text].program) == actions


def test_exec_scan_rejects_unsaturated_programs():
    schema = scan_schema()
    with pytest.raises(ExecError):
        exec_scan(schema.atom("turn"))  # bare turn: type-complete, no meaning
    with pytest.raises(ExecError):
        exec_scan(schema.atom("twice"))
    with pytest.raises(ExecError):
        exec_scan(schema.atom("and"))
    with pytest.raises(ExecError):
        exec_scan(schema.atom("l"))  # a direction alone is not a command
    # a manner without a direction is ill-formed even when slots allow it
    walk = schema.atom("walk").fill(1, schema.atom("ar"))
    with pytest.raises(ExecError):
        exec_scan(walk)


def test_exec_scan_names_a_direction_that_is_no_direction():
    """A schema that types ``op`` as a direction lets ``walk(op)`` compose;
    executing it is an ExecError naming ``op``, not a KeyError."""
    schema = scan_schema()
    walk = Program(schema.constant("walk"), (schema.atom("op"), None))
    with pytest.raises(ExecError, match="op is no direction"):
        exec_scan(walk)


def test_exec_scan_names_a_manner_that_is_no_manner():
    """Only ``op`` and ``ar`` are manners; another constant in the manner
    slot is an ExecError, not a silent ``around``."""
    schema = scan_schema()
    walk = Program(schema.constant("walk"), (schema.atom("l"), schema.atom("r")))
    with pytest.raises(ExecError, match="r is no manner"):
        exec_scan(walk)
    around = Program(schema.constant("walk"), (schema.atom("l"), schema.atom("ar")))
    assert exec_scan(around) == ("LTURN", "WALK") * 4


def test_lexicon_covers_every_scan_constant():
    schema = scan_schema()
    mapped = {c for _, c in scan_lexicon_entries()}
    assert mapped == set(schema.constants)


# --- splits -----------------------------------------------------------------


def as_triplet_sets(train, dev, test):
    return [{ex.utterance.raw_text for ex in part} for part in (train, dev, test)]


def test_split_iid_sizes_and_partition(corpus):
    train, dev, test = split_iid(corpus, seed=0)
    assert (len(train), len(dev), len(test)) == (13383, 3345, 4182)
    a, b, c = as_triplet_sets(train, dev, test)
    assert not (a & b) and not (a & c) and not (b & c)
    assert len(a | b | c) == len(corpus)


def test_split_iid_is_seed_deterministic(corpus):
    first = split_iid(corpus, seed=7)
    second = split_iid(corpus, seed=7)
    assert [e.utterance for e in first[2]] == [e.utterance for e in second[2]]
    other = split_iid(corpus, seed=8)
    assert [e.utterance for e in first[2]] != [e.utterance for e in other[2]]


def test_split_right_membership(corpus):
    train, dev, test = split_scan_primitive(
        corpus, lambda ex: ex.utterance.tokens, "right", seed=0)
    assert (len(train), len(dev), len(test)) == (5245, 1311, 14354)
    for ex in train + dev:
        toks = list(ex.utterance.tokens)
        assert "right" not in toks or toks == ["turn", "right"]
    assert any(list(ex.utterance.tokens) == ["turn", "right"] for ex in train)
    for ex in test:
        toks = list(ex.utterance.tokens)
        assert "right" in toks and toks != ["turn", "right"]


def test_split_around_right_membership(corpus):
    train, dev, test = split_scan_primitive(
        corpus, lambda ex: ex.utterance.tokens, "aroundRight", seed=0)
    assert (len(train), len(dev), len(test)) == (12180, 3045, 5685)

    def has_bigram(toks):
        return any(a == "around" and b == "right"
                   for a, b in zip(toks, toks[1:]))

    assert all(not has_bigram(ex.utterance.tokens) for ex in train + dev)
    assert all(has_bigram(ex.utterance.tokens) for ex in test)
    # plain "right" commands stay on the training side
    assert any("right" in ex.utterance.tokens for ex in train)


def test_split_unknown_kind(corpus):
    with pytest.raises(ValueError):
        split_scan_primitive(corpus[:5], lambda ex: ex.utterance.tokens, "left")


def test_program_template_anonymizes_entities():
    text = "capital(loc_2(state(next_to_1(stateid('utah')))))"
    assert program_template(text) == "capital(loc_2(state(next_to_1(STATE))))"
    assert program_template("cityid('springfield')") == "CITY"
    assert program_template("largest(state(all))") == "largest(state(all))"


# The entity and token patterns that program_template and
# program_token_length used before typesys.program_tokens, kept as the
# reference they must still agree with on every corpus program.
_REF_ENTITY_RE = re.compile(r"(\w+)\('[^']*'\)")
_REF_TOKEN_RE = re.compile(r"\w+\('[^']*'\)|\w+|[(),]")
_REF_TEMPLATE_TOKENS = {"stateid": "STATE", "cityid": "CITY",
                        "riverid": "RIVER", "placeid": "PLACE"}


def test_program_syntax_matches_the_reference_on_every_corpus_program(corpus):
    scan, geo = scan_schema(), geo_schema()
    programs = ([(str(ex.program), scan) for ex in corpus]
                + [(text, geo) for _, text in mini_geo_corpus()])
    assert len(programs) == 20910 + 52
    for text, schema in programs:
        assert program_token_length(text) == len(_REF_TOKEN_RE.findall(text)), text
        assert program_template(text) == _REF_ENTITY_RE.sub(
            lambda m: _REF_TEMPLATE_TOKENS.get(m.group(1), "ENTITY"), text), text
        program = parse_program(text, schema)
        assert parse_program(str(program), schema) == program


def test_entity_tokens_allow_whitespace_inside():
    geo = geo_schema()
    spaced = parse_program("capital(stateid ( 'new york' ))", geo)
    assert spaced == parse_program("capital(stateid('new york'))", geo)
    assert program_tokens("capital(stateid ( 'new york' ))") == [
        "capital", "(", "stateid('new york')", ")"]
    assert program_token_length("capital(stateid ( 'new york' ))") == 4
    with pytest.raises(ValueError, match="cannot tokenize"):
        program_tokens("capital(stateid('new york', x))")


def test_split_template_keeps_templates_together():
    items = mini_geo_corpus()
    train, dev, test = split_template(items, lambda it: it[1], seed=0)
    parts = [
        {program_template(prog) for _, prog in part}
        for part in (train, dev, test)
    ]
    assert not (parts[0] & parts[2]) and not (parts[1] & parts[2])
    assert not (parts[0] & parts[1])
    assert len(train) + len(dev) + len(test) == len(items)
    assert test  # the held-out set is nonempty


def test_split_length_puts_longest_programs_in_test():
    items = mini_geo_corpus()
    train, dev, test = split_length(items, lambda it: it[1], seed=0)
    assert len(test) == round(len(items) * 280 / 880)
    longest_seen = max(program_token_length(p) for _, p in train + dev)
    shortest_held_out = min(program_token_length(p) for _, p in test)
    assert longest_seen <= shortest_held_out


# --- geography KB and executor ----------------------------------------------


@pytest.fixture(scope="module")
def kb():
    return mini_kb()


@pytest.fixture(scope="module")
def geo(kb):
    return geo_schema(kb)


def run_geo(text, schema, kb):
    return exec_funql(parse_program(text, schema), kb)


def test_kb_border_symmetry_is_enforced():
    with pytest.raises(ValueError, match="borders not symmetric: a/b"):
        GeoKb(states={
            "a": dict(capital="x", population=1, area=1, borders=["b"]),
            "b": dict(capital="y", population=1, area=1, borders=[]),
        }, cities={"x": dict(state="a", population=1),
                   "y": dict(state="b", population=1)})


@pytest.mark.parametrize("table, name, key, value", [
    ("states", "vermont", "capital", None), ("states", "vermont", "capital", "x"),
    ("states", "vermont", "population", "645000"),
    ("states", "vermont", "area", True), ("states", "vermont", "borders", "maine"),
    ("cities", "albany", "state", None), ("cities", "albany", "state", ["new york"]),
    ("cities", "albany", "population", None),
    ("rivers", "hudson", "states", ["new york", "utah"]),
    ("rivers", "hudson", "length", [507]),
    ("places", "mount marcy", "state", 1), ("places", "mount marcy", "elevation", "x"),
])
def test_kb_fields_the_executor_reads_are_checked(table, name, key, value):
    """A field that is missing, of another type, or naming what the KB does
    not hold is refused; None stands for a missing field."""
    obj = json.loads(json.dumps(mini_kb().to_json()))
    if value is None:
        del obj[table][name][key]
    else:
        obj[table][name][key] = value
    with pytest.raises(ValueError, match=f"{table} {name!r} needs {key!r}"):
        GeoKb.from_json(obj)
    obj[table] = [obj[table]]
    with pytest.raises(ValueError, match=f"{table} must map each name to a record"):
        GeoKb.from_json(obj)


def test_kb_round_trip(tmp_path, kb):
    path = tmp_path / "kb.json"
    save_kb(kb, path)
    assert load_kb(path).atoms() == kb.atoms()


def test_exec_funql_hand_computed_values(geo, kb):
    assert run_geo("capital(stateid('new york'))", geo, kb) == \
        frozenset({("city", "albany")})
    assert run_geo("next_to_1(stateid('maine'))", geo, kb) == \
        frozenset({("state", "new hampshire")})
    assert run_geo("count(next_to_1(stateid('new york')))", geo, kb) == \
        frozenset({5})
    assert run_geo("largest(state(all))", geo, kb) == \
        frozenset({("state", "new york")})
    assert run_geo("smallest_one(pop_1(state(all)))", geo, kb) == \
        frozenset({("state", "vermont")})
    assert run_geo("loc_1(riverid('hudson'))", geo, kb) == \
        frozenset({("state", "new york"), ("state", "new jersey")})
    # nested query: capitals of the states bordering new york
    nested = run_geo("capital(loc_2(state(next_to_1(stateid('new york')))))",
                     geo, kb)
    assert nested == frozenset({
        ("city", "montpelier"), ("city", "boston"), ("city", "hartford"),
        ("city", "trenton"), ("city", "harrisburg"),
    })
    assert run_geo("count(state(cityid('albany')))", geo, kb) == frozenset({0})
    assert run_geo("pop_1(stateid('vermont'))", geo, kb) == frozenset({645_000})


def test_next_to_relations_are_symmetric_on_this_kb(geo, kb):
    for state in kb.states:
        one = run_geo(f"next_to_1(stateid('{state}'))", geo, kb)
        two = run_geo(f"next_to_2(stateid('{state}'))", geo, kb)
        assert one == two


def test_exec_funql_rejects_type_errors(geo, kb):
    # superlative over a plain entity set instead of a keyed mapping
    with pytest.raises(ValueError):
        run_geo("largest_one(state(all))", geo, kb)
    with pytest.raises(ValueError):
        exec_funql(geo.atom("capital"), kb)  # unsaturated predicate
    usa = Program(DomainConstant("usa", ENTITY, "country"))
    with pytest.raises(ValueError, match=r"^not an entity constant: usa$"):
        exec_funql(usa, kb)
    usa = Program(DomainConstant("countryid('usa')", ENTITY, "country"))
    with pytest.raises(ValueError, match=r"^not an entity constant: countryid\('usa'\)$"):
        exec_funql(usa, kb)


def test_mini_corpus_parses_and_executes(geo, kb):
    items = mini_geo_corpus(kb)
    assert len(items) == 52
    for text, program_text in items:
        program = parse_program(program_text, geo)
        denotation = exec_funql(program, kb)
        assert denotation is not None
        # entity constants in the program have lexicon entries via the schema
        for sub in program.subterms():
            assert sub.head.name in geo.constants
    assert len({t for t, _ in items}) == len(items)


def test_geo_lexicon_points_at_real_constants(geo):
    names = set(geo.constants)
    for _, const in geo_lexicon_entries():
        assert const in names


def test_render_denotation_sorts_and_unwraps():
    value = frozenset({("city", "boston"), ("city", "albany")})
    assert render_denotation(value) == ["albany", "boston"]
    assert render_denotation(frozenset({3})) == [3]


# --- metrics ----------------------------------------------------------------


def test_f1_from_counts_cases():
    assert f1_from_counts(8, 9, 9) == pytest.approx(8 / 9)
    assert f1_from_counts(0, 0, 0) == 1.0
    assert f1_from_counts(0, 3, 3) == 0.0
    assert f1_from_counts(2, 4, 2) == pytest.approx(2 * (0.5 * 1.0) / 1.5)


def test_span_f1_counts_on_trees(corpus):
    """A tree's label row against itself is all hits; a None prediction has
    no spans, so its gold spans count as misses."""
    scorer = SpanScorer([], scan_schema().categories())
    nosem = scorer.cat_index[NOSEM]
    ex = corpus[40]
    n = len(labeled_spans(ex.tree))
    assert n > 0
    gold = scorer.labels_for_tree(ex.tree, len(ex.utterance)).tolist()
    assert row_f1_counts(tuple(gold), gold, nosem) == (n, n, n)
    assert row_f1_counts(None, gold, nosem) == (0, 0, n)
    assert f1_from_counts(n, n, 2 * n) < 1.0
