"""Geo-FunQL subset: schema, a bundled mini knowledge base, and the
set-semantics executor used to compute denotations.

The constant inventory covers the predicates needed for the classic
geography questions at desk scale (capital / borders / location /
superlatives / counting) plus per-entity constants generated from the KB.
Atoms in denotations are (type, name) pairs; numeric results are plain
numbers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..typesys import (DomainConstant, DomainSchema, ENTITY, PREDICATE, Program,
                       entity_name, entity_name_parts)

STATE, CITY, RIVER, PLACE, NUM, ANY = "state", "city", "river", "place", "num", "any"


class ExecError(ValueError):
    """Program cannot be evaluated against the knowledge base."""


# Each field the executor reads, by table, and what its value must be.
_FIELDS = (
    ("states", "capital", "city"), ("states", "population", "number"),
    ("states", "area", "number"), ("states", "borders", "states"),
    ("cities", "state", "state"), ("cities", "population", "number"),
    ("rivers", "states", "states"), ("rivers", "length", "number"),
    ("places", "state", "state or null"), ("places", "elevation", "number"),
)


@dataclass
class GeoKb:
    """Mini geography KB: states with capitals/population/area/borders,
    plus cities, rivers and places.

    Every field the executor reads must be present with a value of its
    type, and every name it holds must be in the KB (a place may lie in no
    state); else a ValueError names the first record that breaks this."""

    states: dict = field(default_factory=dict)
    cities: dict = field(default_factory=dict)
    rivers: dict = field(default_factory=dict)
    places: dict = field(default_factory=dict)

    def __post_init__(self):
        for table in ("states", "cities", "rivers", "places"):
            records = getattr(self, table)
            if not (isinstance(records, dict)
                    and all(isinstance(r, dict) for r in records.values())):
                raise ValueError(f"{table} must map each name to a record")
        for table, key, kind in _FIELDS:
            for name, rec in getattr(self, table).items():
                if key not in rec or not self._is(kind, rec[key]):
                    raise ValueError(f"{table} {name!r} needs {key!r}: a {kind} "
                                     f"(got {rec.get(key)!r})")
        for name, rec in self.states.items():
            for other in rec["borders"]:
                if name not in self.states[other]["borders"]:
                    raise ValueError(f"borders not symmetric: {name}/{other}")
            if rec["population"] <= 0 or rec["area"] <= 0:
                raise ValueError(f"non-positive population/area for {name}")

    def _is(self, kind: str, value) -> bool:
        """Whether ``value`` is a ``kind`` of ``_FIELDS`` in this KB."""
        if kind == "number":
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if kind == "states":
            return isinstance(value, list) and all(self._is("state", v) for v in value)
        if kind == "state or null":
            return value is None or self._is("state", value)
        names = self.states if kind == "state" else self.cities
        return isinstance(value, str) and value in names

    def atoms(self) -> set:
        out = {(STATE, s) for s in self.states}
        out |= {(CITY, c) for c in self.cities}
        out |= {(RIVER, r) for r in self.rivers}
        out |= {(PLACE, p) for p in self.places}
        return out

    def to_json(self) -> dict:
        return {
            "states": self.states,
            "cities": self.cities,
            "rivers": self.rivers,
            "places": self.places,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GeoKb":
        return cls(
            states=obj["states"],
            cities=obj["cities"],
            rivers=obj["rivers"],
            places=obj["places"],
        )


def mini_kb() -> GeoKb:
    """Ten northeastern states with symmetric borders."""
    states = {
        "new york": dict(capital="albany", population=19_500_000, area=54_555,
                         borders=["vermont", "massachusetts", "connecticut",
                                  "new jersey", "pennsylvania"]),
        "vermont": dict(capital="montpelier", population=645_000, area=9_616,
                        borders=["new york", "new hampshire", "massachusetts"]),
        "massachusetts": dict(capital="boston", population=7_000_000, area=10_554,
                              borders=["new york", "vermont", "new hampshire",
                                       "connecticut", "rhode island"]),
        "connecticut": dict(capital="hartford", population=3_600_000, area=5_543,
                            borders=["new york", "massachusetts", "rhode island"]),
        "new jersey": dict(capital="trenton", population=9_300_000, area=8_723,
                           borders=["new york", "pennsylvania", "delaware"]),
        "pennsylvania": dict(capital="harrisburg", population=13_000_000,
                             area=46_054,
                             borders=["new york", "new jersey", "delaware"]),
        "new hampshire": dict(capital="concord", population=1_400_000, area=9_349,
                              borders=["vermont", "massachusetts", "maine"]),
        "maine": dict(capital="augusta", population=1_360_000, area=35_380,
                      borders=["new hampshire"]),
        "rhode island": dict(capital="providence", population=1_100_000, area=1_545,
                             borders=["massachusetts", "connecticut"]),
        "delaware": dict(capital="dover", population=1_000_000, area=2_489,
                         borders=["new jersey", "pennsylvania"]),
    }
    cities = {rec["capital"]: dict(state=name, population=pop)
              for name, rec in states.items()
              for pop in [max(40_000, rec["population"] // 20)]}
    cities["new york city"] = dict(state="new york", population=8_500_000)
    rivers = {
        "hudson": dict(states=["new york", "new jersey"], length=507),
        "connecticut river": dict(
            states=["vermont", "new hampshire", "massachusetts", "connecticut"],
            length=650),
        "delaware river": dict(
            states=["new york", "pennsylvania", "new jersey", "delaware"],
            length=530),
    }
    places = {
        "mount washington": dict(state="new hampshire", elevation=6288),
        "mount marcy": dict(state="new york", elevation=5344),
        "mount mckinley": dict(state=None, elevation=20310),
    }
    return GeoKb(states=states, cities=cities, rivers=rivers, places=places)


def geo_schema(kb: GeoKb | None = None) -> DomainSchema:
    kb = kb or mini_kb()
    schema = DomainSchema(
        name="geo",
        types=(STATE, CITY, RIVER, PLACE, NUM, ANY),
        subtypes={STATE: ANY, CITY: ANY, RIVER: ANY, PLACE: ANY},
        type_defaults={ANY: "all"},
    )
    schema.add(DomainConstant("all", ENTITY, ANY))
    unary = [
        ("state", ANY, STATE), ("city", ANY, CITY), ("river", ANY, RIVER),
        ("capital", STATE, CITY),
        ("loc_1", ANY, STATE), ("loc_2", STATE, STATE),
        ("next_to_1", STATE, STATE), ("next_to_2", STATE, STATE),
        ("largest", ANY, ANY), ("smallest", ANY, ANY),
        ("largest_one", NUM, ANY), ("smallest_one", NUM, ANY),
        ("pop_1", ANY, NUM), ("area_1", ANY, NUM), ("count", ANY, NUM),
    ]
    for name, arg, result in unary:
        schema.add(DomainConstant(name, PREDICATE, result, (arg,)))
    for function, kind, names in (("stateid", STATE, kb.states),
                                  ("cityid", CITY, kb.cities),
                                  ("riverid", RIVER, kb.rivers),
                                  ("placeid", PLACE, kb.places)):
        for name in names:
            schema.add(DomainConstant(entity_name(function, name), ENTITY, kind))
    return schema


def geo_lexicon_entries() -> list:
    """Manual lexicon phrases for the Geo predicates (at most two each)."""
    return [
        ("capital", "capital"), ("capitals", "capital"),
        ("state", "state"), ("states", "state"),
        ("city", "city"), ("cities", "city"),
        ("river", "river"), ("rivers", "river"),
        ("border", "next_to_1"), ("borders", "next_to_1"),
        ("in", "loc_2"), ("of", "loc_2"),
        ("largest", "largest"), ("biggest", "largest"),
        ("smallest", "smallest"),
        ("most", "largest_one"), ("fewest", "smallest_one"),
        ("people", "pop_1"), ("population", "pop_1"),
        ("area", "area_1"),
        ("how many", "count"),
    ]


# --- execution --------------------------------------------------------------


class _Keyed(dict):
    """Atom -> number mapping produced by pop_1/area_1; the superlative
    predicates pick an argmax/argmin key out of it."""


def _entity_atom(name: str):
    function, payload = entity_name_parts(name) or (None, None)
    kind = {"stateid": STATE, "cityid": CITY, "riverid": RIVER,
            "placeid": PLACE}.get(function)
    if kind is None:
        raise ExecError(f"not an entity constant: {name}")
    return (kind, payload)


def exec_funql(z: Program, kb: GeoKb):
    """Evaluate a FunQL program to a denotation (a frozenset)."""
    return finalize(_eval(z, kb))


def finalize(value):
    if isinstance(value, _Keyed):
        return frozenset(value.values())
    return frozenset(value)


def _arg(z: Program, kb: GeoKb):
    if z.args[0] is None:
        raise ExecError(f"unsaturated {z.head.name}")
    return _eval(z.args[0], kb)


def _atoms(value) -> set:
    if isinstance(value, _Keyed):
        raise ExecError("expected a set of entities, got a keyed mapping")
    return value


def _eval(z: Program, kb: GeoKb):
    name = z.head.name
    if z.head.kind == ENTITY:
        if name == "all":
            return kb.atoms()
        atom = _entity_atom(name)
        return {atom} if atom in kb.atoms() else set()

    if name in ("state", "city", "river"):
        kind = {"state": STATE, "city": CITY, "river": RIVER}[name]
        return {a for a in _atoms(_arg(z, kb)) if a[0] == kind}

    if name == "capital":
        xs = _atoms(_arg(z, kb))
        capitals = {rec["capital"] for rec in kb.states.values()}
        out = {(CITY, rec["capital"]) for s, rec in kb.states.items()
               if (STATE, s) in xs}
        out |= {a for a in xs if a[0] == CITY and a[1] in capitals}
        return out

    if name in ("next_to_1", "next_to_2"):
        xs = _atoms(_arg(z, kb))
        out = set()
        for kind, s in xs:
            if kind != STATE or s not in kb.states:
                continue
            if name == "next_to_1":
                out |= {(STATE, b) for b in kb.states[s]["borders"]}
            else:
                out |= {(STATE, b) for b, rec in kb.states.items()
                        if s in rec["borders"]}
        return out

    if name == "loc_2":  # things located in members of the argument
        xs = _atoms(_arg(z, kb))
        out = set()
        for kind, s in xs:
            if kind != STATE:
                continue
            out |= {(CITY, c) for c, rec in kb.cities.items() if rec["state"] == s}
            out |= {(RIVER, r) for r, rec in kb.rivers.items() if s in rec["states"]}
            out |= {(PLACE, p) for p, rec in kb.places.items() if rec["state"] == s}
        return out

    if name == "loc_1":  # states containing members of the argument
        xs = _atoms(_arg(z, kb))
        out = set()
        for kind, n in xs:
            if kind == CITY:
                out.add((STATE, kb.cities[n]["state"]))
            elif kind == RIVER:
                out |= {(STATE, s) for s in kb.rivers[n]["states"]}
            elif kind == PLACE and kb.places[n]["state"]:
                out.add((STATE, kb.places[n]["state"]))
        return out

    if name in ("pop_1", "area_1"):
        xs = _atoms(_arg(z, kb))
        keyed = _Keyed()
        for kind, n in xs:
            if kind == STATE:
                keyed[(kind, n)] = kb.states[n][
                    "population" if name == "pop_1" else "area"]
            elif kind == CITY and name == "pop_1":
                keyed[(kind, n)] = kb.cities[n]["population"]
        return keyed

    if name in ("largest_one", "smallest_one"):
        keyed = _arg(z, kb)
        if not isinstance(keyed, _Keyed):
            raise ExecError(f"{name} needs a keyed argument")
        if not keyed:
            return set()
        pick = max if name == "largest_one" else min
        return {pick(sorted(keyed), key=lambda k: (keyed[k], k))}

    if name in ("largest", "smallest"):
        xs = _atoms(_arg(z, kb))
        size = {}
        for kind, n in xs:
            if kind == STATE:
                size[(kind, n)] = kb.states[n]["area"]
            elif kind == CITY:
                size[(kind, n)] = kb.cities[n]["population"]
            elif kind == RIVER:
                size[(kind, n)] = kb.rivers[n]["length"]
            elif kind == PLACE:
                size[(kind, n)] = kb.places[n]["elevation"]
        if not size:
            return set()
        pick = max if name == "largest" else min
        return {pick(sorted(size), key=lambda k: (size[k], k))}

    if name == "count":
        value = _arg(z, kb)
        return {len(value)}

    raise ExecError(f"unknown predicate {name}")


def render_denotation(value: frozenset) -> list:
    """Human-readable, sorted rendering for reports and the CLI."""
    out = []
    for item in value:
        if isinstance(item, tuple):
            out.append(item[1])
        else:
            out.append(item)
    return sorted(out, key=str)


# --- bundled mini corpus ----------------------------------------------------


def mini_geo_corpus(kb: GeoKb | None = None) -> list:
    """(utterance text, program text) pairs over the mini KB."""
    kb = kb or mini_kb()
    items = []
    for s in kb.states:
        items.append((f"what is the capital of {s} ?",
                      f"capital(stateid('{s}'))"))
        items.append((f"what states border {s} ?",
                      f"next_to_1(stateid('{s}'))"))
        items.append((f"how many states border {s} ?",
                      f"count(next_to_1(stateid('{s}')))"))
        items.append((f"what is the population of {s} ?",
                      f"pop_1(stateid('{s}'))"))
    for s in ("new york", "pennsylvania", "massachusetts", "vermont"):
        items.append((f"what is the capital of states that border {s} ?",
                      f"capital(loc_2(state(next_to_1(stateid('{s}')))))"))
        items.append((f"what rivers are in {s} ?",
                      f"river(loc_2(stateid('{s}')))"))
    items.append(("what is the largest state ?", "largest(state(all))"))
    items.append(("what is the smallest state ?", "smallest(state(all))"))
    items.append(("state that has the most people ?",
                  "largest_one(pop_1(state(all)))"))
    items.append(("state that has the fewest people ?",
                  "smallest_one(pop_1(state(all)))"))
    return items


def save_kb(kb: GeoKb, path) -> None:
    with open(path, "w") as fh:
        json.dump(kb.to_json(), fh, indent=2, sort_keys=True)


def load_kb(path) -> GeoKb:
    with open(path) as fh:
        return GeoKb.from_json(json.load(fh))
