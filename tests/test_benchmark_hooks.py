"""The benchmark's tracing hooks install on, and restore, the current
package: a refactor that drops or renames a name the benchmark wraps fails
here rather than in a benchmark run."""

import importlib.util
from pathlib import Path

import spansem
import spansem.cli

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
