"""Train/dev/test split construction: iid, template, length, and the SCAN
primitive compositional splits."""

from __future__ import annotations

import random

from ..typesys import entity_name_parts, program_tokens

TEMPLATE_TOKENS = {"stateid": "STATE", "cityid": "CITY",
                   "riverid": "RIVER", "placeid": "PLACE"}


def program_template(program_text: str) -> str:
    """Anonymize entities to their type, e.g. stateid('utah') -> STATE."""
    return "".join(TEMPLATE_TOKENS.get(parts[0], "ENTITY")
                   if (parts := entity_name_parts(token)) else token
                   for token in program_tokens(program_text))


def program_token_length(program_text: str) -> int:
    """The number of ``typesys.program_tokens``, an entity counting one."""
    return len(program_tokens(program_text))


def _iid_sizes(n: int):
    test = int(n * 0.2)
    dev = int((n - test) * 0.2)
    return n - test - dev, dev, test


def split_iid(examples: list, seed: int = 0):
    """Random 64/16/20 partition (20% test, then 20% of the rest as dev)."""
    order = list(examples)
    random.Random(seed).shuffle(order)
    n_train, n_dev, n_test = _iid_sizes(len(order))
    return (order[:n_train],
            order[n_train:n_train + n_dev],
            order[n_train + n_dev:])


def split_template(examples: list, program_of, seed: int = 0):
    """Partition such that all examples sharing an anonymized program
    template land in the same set, with sizes close to the iid ratios."""
    groups: dict = {}
    for ex in examples:
        groups.setdefault(program_template(program_of(ex)), []).append(ex)
    keys = sorted(groups)
    random.Random(seed).shuffle(keys)
    n_train, n_dev, n_test = _iid_sizes(len(examples))
    train, dev, test = [], [], []
    for key in keys:
        bucket = groups[key]
        # Fill the set furthest (proportionally) from its target size.
        deficits = [
            (len(test) / max(n_test, 1), test),
            (len(dev) / max(n_dev, 1), dev),
            (len(train) / max(n_train, 1), train),
        ]
        deficits.sort(key=lambda d: d[0])
        deficits[0][1].extend(bucket)
    return train, dev, test


def split_length(examples: list, program_of, seed: int = 0):
    """Longest programs (by token length) go to test; the remainder splits
    90/10 train/dev at random.  The test size follows the 280-of-880
    proportion."""
    n = len(examples)
    test_size = round(n * 280 / 880)
    order = sorted(range(n), key=lambda i: (program_token_length(
        program_of(examples[i])), i))
    test = [examples[i] for i in order[n - test_size:]]
    rest = [examples[i] for i in order[: n - test_size]]
    random.Random(seed).shuffle(rest)
    n_dev = int(len(rest) * 0.1)
    return rest[n_dev:], rest[:n_dev], test


def split_scan_primitive(examples: list, tokens_of, kind: str, seed: int = 0):
    """Compositional SCAN splits.

    RIGHT: every command containing the token "right" goes to test, except
    the bare primitive "turn right" which stays in train.  AROUNDRIGHT:
    every command containing the bigram "around right" goes to test.  Dev
    is a random 20% of the training pool.
    """
    if kind not in ("right", "aroundRight"):
        raise ValueError(f"unknown SCAN split {kind!r}")
    train_pool, test = [], []
    for ex in examples:
        toks = list(tokens_of(ex))
        if kind == "right":
            in_test = "right" in toks and toks != ["turn", "right"]
        else:
            in_test = any(a == "around" and b == "right"
                          for a, b in zip(toks, toks[1:]))
        (test if in_test else train_pool).append(ex)
    random.Random(seed).shuffle(train_pool)
    n_dev = int(len(train_pool) * 0.2)
    return train_pool[n_dev:], train_pool[:n_dev], test
