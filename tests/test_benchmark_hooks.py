"""The benchmark's tracing hooks install on, and restore, the current
package: a refactor that drops or renames a name the benchmark wraps fails
here rather than in a benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np

import spansem
import spansem.cli
from spansem.cky import Grammar
from spansem.core import all_spans
from spansem.data.scan import scan_schema
from spansem.scorer import ScoreTable
from spansem.typesys import parse_program

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

WRAPPED = [
    ("cli", ("multiprocessing", "load_checkpoint", "load_domain",
             "read_examples")),
    ("trainer", ("constrained_parse", "parse_kbest", "best_valid_tree",
                 "sgd_step", "train", "hard_em_step", "evaluate", "predict")),
    ("cky", ("program_of_tree", "compose_candidates")),
    ("typesys", ("compose_candidates",)),
]


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_hooks_install_and_restore():
    tracing = load_tracing()
    originals = {(mod, name): getattr(getattr(spansem, mod), name)
                 for mod, names in WRAPPED for name in names}
    patches = tracing.Patches()
    try:
        tracing.install(tracing.Tracer(), patches, spansem)
        for (mod, name), original in originals.items():
            assert getattr(getattr(spansem, mod), name) is not original, \
                f"{mod}.{name} not wrapped"
    finally:
        patches.restore()
    for (mod, name), original in originals.items():
        assert getattr(getattr(spansem, mod), name) is original, \
            f"{mod}.{name} not restored"


def test_traced_estep_counts_compositions():
    """The per-layer counts see the E-step's compositions, however the chart
    reaches ``compose_candidates``."""
    tracing = load_tracing()
    tracer, patches = tracing.Tracer(), tracing.Patches()
    schema = scan_schema()
    cats = schema.categories()
    raw = np.random.default_rng(0).normal(size=(len(all_spans(2)), len(cats)))
    gold = parse_program("twice(jump)", schema)
    try:
        tracing.install(tracer, patches, spansem)
        spansem.trainer.constrained_parse(ScoreTable(2, cats, raw), Grammar(),
                                          gold, schema, 5)
    finally:
        patches.restore()
    totals = tracer.totals[tracer.phase]
    assert totals["typesys.compose_candidates.calls"] > 0
    assert totals["cky.combinations"] > 0
