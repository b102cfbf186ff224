"""Command-line interface: dataset generation, training, evaluation,
parsing, exit codes, and environment-variable overrides."""

import json
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from spansem import cli
from spansem.cky import Grammar, parse_kbest
from spansem.core import Utterance
from spansem.data.scan import generate_scan_sp, scan_lexicon_entries, scan_schema
from spansem.data.splits import program_token_length
from spansem.scorer import Lexicon, SpanScorer, load_checkpoint, save_checkpoint
from spansem.typesys import parse_program, save_schema


@pytest.fixture(scope="module")
def tiny_scan_dir(tmp_path_factory):
    """A dataset directory with 110 short commands, written with the same
    helpers the gen-data command uses."""
    out = tmp_path_factory.mktemp("scan-tiny")
    schema = scan_schema()
    pool = [e for e in generate_scan_sp(schema) if len(e.utterance) <= 4]
    random.Random(0).shuffle(pool)
    records = [cli.example_record(e.utterance, e.program, e.tree,
                                  list(e.actions)) for e in pool[:110]]
    cli.write_jsonl(out / "train.jsonl", records[:80])
    cli.write_jsonl(out / "dev.jsonl", records[80:95])
    cli.write_jsonl(out / "test.jsonl", records[95:110])
    save_schema(schema, out / "schema.json")
    Lexicon.from_pairs(scan_lexicon_entries()).save_tsv(out / "lexicon.tsv")
    return out


@pytest.fixture(scope="module")
def trained_run(tiny_scan_dir, tmp_path_factory):
    run = tmp_path_factory.mktemp("run")
    code = cli.main(["train", "--data", str(tiny_scan_dir), "--out", str(run),
                     "--max-epochs", "10", "--patience", "5", "--seed", "0"])
    assert code == cli.EXIT_OK
    return run


@pytest.fixture(scope="module")
def exec_error_run(tmp_path_factory):
    """A random-init checkpoint whose lexicon maps "turn" to the bare
    ``turn``: that prediction composes but does not execute."""
    out = tmp_path_factory.mktemp("exec-error")
    schema = scan_schema()
    save_schema(schema, out / "schema.json")
    Lexicon.from_pairs([("turn", "turn"), ("left", "l"),
                        ("walk", "walk")]).save_tsv(out / "lexicon.tsv")
    pool = {e.utterance.raw_text: e for e in generate_scan_sp(schema)
            if len(e.utterance) <= 2}
    records = [cli.example_record(e.utterance, e.program, e.tree,
                                  list(e.actions))
               for e in (pool["walk"], pool["turn left"], pool["walk left"])]
    records.append(cli.example_record(Utterance.from_text("turn"),
                                      parse_program("turn(l)", schema),
                                      None, ["LTURN"]))
    cli.write_jsonl(out / "test.jsonl", records)
    scorer = SpanScorer(["turn", "left", "walk"], schema.categories(), seed=0)
    save_checkpoint(scorer, out / "model.npz",
                    extra={"domain": "scan", "data_dir": str(out), "K": 5})
    return out


# --- gen-data ---------------------------------------------------------------


def test_gen_data_geo_layout(tmp_path):
    out = tmp_path / "geo"
    assert cli.main(["gen-data", "--domain", "geo", "--split", "iid",
                     "--out", str(out)]) == cli.EXIT_OK
    for name in ("train.jsonl", "dev.jsonl", "test.jsonl", "schema.json",
                 "lexicon.tsv", "kb.json", "config.json"):
        assert (out / name).exists(), name
    sizes = [len((out / f"{p}.jsonl").read_text().splitlines())
             for p in ("train", "dev", "test")]
    assert sum(sizes) == 52 and all(s > 0 for s in sizes)
    record = json.loads((out / "train.jsonl").read_text().splitlines()[0])
    assert set(record) == {"utterance", "program", "tree", "denotation"}
    assert record["tree"] is None  # geo ships no gold trees
    assert json.loads((out / "config.json").read_text())["seed"] == 0


def test_gen_data_geo_length_split_holds_out_longest(tmp_path):
    out = tmp_path / "geo-len"
    assert cli.main(["gen-data", "--domain", "geo", "--split", "length",
                     "--out", str(out)]) == cli.EXIT_OK

    def lengths(part):
        return [program_token_length(json.loads(line)["program"])
                for line in (out / f"{part}.jsonl").read_text().splitlines()]

    assert max(lengths("train") + lengths("dev")) <= min(lengths("test"))


def test_gen_data_scan_split_sizes(tmp_path):
    out = tmp_path / "scan"
    assert cli.main(["gen-data", "--domain", "scan", "--split", "iid",
                     "--out", str(out)]) == cli.EXIT_OK
    sizes = [len((out / f"{p}.jsonl").read_text().splitlines())
             for p in ("train", "dev", "test")]
    assert sizes == [13383, 3345, 4182]
    record = json.loads((out / "test.jsonl").read_text().splitlines()[0])
    assert record["tree"] is not None  # the generator provides gold trees


def test_gen_data_rejects_unknown_split(tmp_path):
    code = cli.main(["gen-data", "--domain", "geo", "--split", "right",
                     "--out", str(tmp_path / "x")])
    assert code == cli.EXIT_CONFIG


def test_gen_data_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("SPANSEM_SEED", "7")
    out = tmp_path / "geo7"
    assert cli.main(["gen-data", "--domain", "geo", "--out", str(out)]) \
        == cli.EXIT_OK
    assert json.loads((out / "config.json").read_text())["seed"] == 7


# --- train ------------------------------------------------------------------


def test_train_outputs(trained_run, tiny_scan_dir):
    assert (trained_run / "model.npz").exists()
    assert (trained_run / "log.jsonl").exists()
    config = json.loads((trained_run / "config.json").read_text())
    assert config["lam"] == 10.0 and config["seed"] == 0
    _, extra = load_checkpoint(trained_run / "model.npz")
    assert extra["domain"] == "scan"
    assert extra["data_dir"] == str(tiny_scan_dir)
    entries = [json.loads(line)
               for line in (trained_run / "log.jsonl").read_text().splitlines()]
    assert entries[-1]["dev_accuracy"] == 1.0


def test_train_rejects_invalid_flag_values(tiny_scan_dir, tmp_path):
    code = cli.main(["train", "--data", str(tiny_scan_dir),
                     "--out", str(tmp_path / "bad"), "--lr", "0"])
    assert code == cli.EXIT_CONFIG


def test_train_config_file_merges_under_flags(tiny_scan_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_epochs": 1, "lr": 0.5}))
    out = tmp_path / "merged"
    assert cli.main(["train", "--data", str(tiny_scan_dir), "--out", str(out),
                     "--config", str(cfg), "--lr", "0.002"]) == cli.EXIT_OK
    resolved = json.loads((out / "config.json").read_text())
    assert resolved["max_epochs"] == 1  # from the file
    assert resolved["lr"] == 0.002  # flag wins


def test_train_no_lexicon_forces_zero_bonus(tiny_scan_dir, tmp_path):
    out = tmp_path / "nolex"
    assert cli.main(["train", "--data", str(tiny_scan_dir), "--out", str(out),
                     "--max-epochs", "1", "--no-lexicon"]) == cli.EXIT_OK
    assert json.loads((out / "config.json").read_text())["lam"] == 0.0
    _, extra = load_checkpoint(out / "model.npz")
    assert extra["no_lexicon"] is True


def test_train_gold_trees_requires_trees(tmp_path):
    geo = tmp_path / "geo"
    cli.main(["gen-data", "--domain", "geo", "--out", str(geo)])
    code = cli.main(["train", "--data", str(geo), "--out", str(tmp_path / "g"),
                     "--max-epochs", "1", "--gold-trees"])
    assert code == cli.EXIT_CONFIG


# --- eval -------------------------------------------------------------------


def test_eval_report(trained_run, tiny_scan_dir, tmp_path, capsys):
    report_path = tmp_path / "missing" / "report.json"  # --out makes the directory
    code = cli.main(["eval", "--checkpoint", str(trained_run / "model.npz"),
                     "--data", str(tiny_scan_dir / "test.jsonl"),
                     "--out", str(report_path)])
    assert code == cli.EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["accuracy"] >= 0.9
    assert len(report["per_example"]) == 15
    assert "f1" in report
    assert "accuracy" in capsys.readouterr().out
    config = json.loads((report_path.parent / "config.json").read_text())
    assert config["command"] == "eval"


def test_eval_is_deterministic(trained_run, tiny_scan_dir, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        cli.main(["eval", "--checkpoint", str(trained_run / "model.npz"),
                  "--data", str(tiny_scan_dir / "dev.jsonl"),
                  "--out", str(path)])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_eval_parallel_matches_serial(trained_run, tiny_scan_dir,
                                      exec_error_run, tmp_path):
    cases = [(trained_run / "model.npz", tiny_scan_dir / "test.jsonl"),
             (exec_error_run / "model.npz", exec_error_run / "test.jsonl")]
    for i, (checkpoint, data) in enumerate(cases):
        paths = [tmp_path / f"{i}-jobs{jobs}.json" for jobs in (1, 2)]
        for jobs, path in zip((1, 2), paths):
            assert cli.main(["eval", "--checkpoint", str(checkpoint),
                             "--data", str(data), "--out", str(path),
                             "--jobs", str(jobs)]) == cli.EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()
    # An executor error counts as a failure, whatever the number of jobs.
    report = json.loads(paths[1].read_text())
    assert report["per_example"][-1]["predicted_program"] == "turn"
    assert report["failures"] == 1


def test_eval_rejects_jobs_below_one(exec_error_run, capsys):
    for jobs in ("0", "-2"):
        code = cli.main(["eval",
                         "--checkpoint", str(exec_error_run / "model.npz"),
                         "--data", str(exec_error_run / "test.jsonl"),
                         "--jobs", jobs])
        assert code == cli.EXIT_CONFIG
    assert "configuration error: --jobs" in capsys.readouterr().err


def test_eval_rejects_whitespace_utterance(exec_error_run, capsys):
    blank = exec_error_run / "blank.jsonl"
    blank.write_text(json.dumps({"utterance": " \t", "program": "walk",
                                 "tree": None, "denotation": ["WALK"]}) + "\n")
    code = cli.main(["eval", "--checkpoint", str(exec_error_run / "model.npz"),
                     "--data", str(blank)])
    assert code == cli.EXIT_CONFIG
    assert "empty utterance" in capsys.readouterr().err


def test_eval_rejects_malformed_lines(exec_error_run, capsys):
    good = json.dumps({"utterance": "walk", "program": "walk", "tree": None,
                       "denotation": ["WALK"]})
    bad_lines = ["", "{not json",
                 json.dumps({"utterance": "walk", "denotation": ["WALK"]}),
                 json.dumps({"utterance": "walk", "program": "walk(",
                             "tree": None, "denotation": ["WALK"]}),
                 json.dumps({"utterance": "walk", "program": "walk",
                             "tree": 5, "denotation": ["WALK"]}),
                 json.dumps({"utterance": "walk", "program": "walk",
                             "tree": {"span": "x"}, "denotation": ["WALK"]}),
                 json.dumps({"utterance": "walk", "program": "walk",
                             "tree": {"span": [1, 3], "category": "walk"},
                             "denotation": ["WALK"]})]
    bad = exec_error_run / "bad.jsonl"
    for line in bad_lines:
        bad.write_text(good + "\n" + line + "\n")
        code = cli.main(["eval",
                         "--checkpoint", str(exec_error_run / "model.npz"),
                         "--data", str(bad)])
        assert code == cli.EXIT_CONFIG, line
        assert f"configuration error: {bad}:2:" in capsys.readouterr().err


def test_checkpoint_must_match_dataset_schema(exec_error_run, tmp_path,
                                              capsys):
    geo = tmp_path / "geo"
    assert cli.main(["gen-data", "--domain", "geo", "--out", str(geo)]) \
        == cli.EXIT_OK
    scan_checkpoint = str(exec_error_run / "model.npz")
    assert cli.main(["eval", "--checkpoint", scan_checkpoint,
                     "--data", str(geo / "test.jsonl")]) == cli.EXIT_CONFIG
    assert cli.main(["parse", "texas", "--checkpoint", scan_checkpoint,
                     "--data", str(geo)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.count(
        "checkpoint categories do not match the geo schema") == 2


def test_checkpoint_parameter_shapes_are_checked(exec_error_run, tmp_path,
                                                 capsys):
    """A stored parameter whose shape differs from the one the checkpoint's
    sizes build is a configuration error for eval and parse."""
    with np.load(exec_error_run / "model.npz") as blob:
        arrays = dict(blob)
    arrays["param_W2"] = arrays["param_W2"][:, :-1]
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    with pytest.raises(ValueError, match=r"W2 has shape \(\d+, \d+\)"):
        load_checkpoint(bad)
    assert cli.main(["eval", "--checkpoint", str(bad),
                     "--data", str(exec_error_run / "test.jsonl")]) \
        == cli.EXIT_CONFIG
    assert cli.main(["parse", "walk", "--checkpoint", str(bad),
                     "--data", str(exec_error_run)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.count(
        "configuration error: " + str(bad) + ": checkpoint parameter W2") == 2


def test_train_stops_on_non_finite_loss(tiny_scan_dir, tmp_path, monkeypatch,
                                        capsys):
    monkeypatch.setattr(SpanScorer, "loss_and_grads",
                        lambda self, *args, **kwargs: (float("nan"), None))
    code = cli.main(["train", "--data", str(tiny_scan_dir),
                     "--out", str(tmp_path / "nan"), "--max-epochs", "1"])
    assert code == cli.EXIT_CONFIG
    assert ("configuration error: non-finite loss at epoch 0, batch 0; "
            "lower lr") in capsys.readouterr().err


def test_eval_rejects_empty_file(trained_run, tmp_path, tiny_scan_dir):
    empty = tiny_scan_dir / "empty.jsonl"
    empty.write_text("")
    code = cli.main(["eval", "--checkpoint", str(trained_run / "model.npz"),
                     "--data", str(empty)])
    assert code == cli.EXIT_CONFIG


# --- parse ------------------------------------------------------------------


def test_parse_prints_tree_program_denotation(trained_run, tiny_scan_dir,
                                              capsys):
    code = cli.main(["parse", "jump left twice",
                     "--checkpoint", str(trained_run / "model.npz"),
                     "--data", str(tiny_scan_dir)])
    assert code == cli.EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("[Join")
    assert lines[1] == "twice(jump(l))"
    assert json.loads(lines[2]) == ["LTURN", "JUMP", "LTURN", "JUMP"]


def test_parse_dump_chart(trained_run, tiny_scan_dir, tmp_path):
    chart_path = tmp_path / "chart.json"
    code = cli.main(["parse", "walk right",
                     "--checkpoint", str(trained_run / "model.npz"),
                     "--data", str(tiny_scan_dir),
                     "--dump-chart", str(chart_path)])
    assert code == cli.EXIT_OK
    chart = json.loads(chart_path.read_text())
    assert chart["n"] == 2 and chart["K"] == 5
    # Every list is ranked out to at most K, best first.
    for entries in [*chart["cells"].values(), chart["root"]]:
        scores = [e["score"] for e in entries]
        assert len(scores) <= 5 and scores == sorted(scores, reverse=True)
    assert chart["cells"]["1,1"] and chart["cells"]["1,2"]
    scorer, extra = load_checkpoint(trained_run / "model.npz")
    domain = cli.load_domain(tiny_scan_dir)
    table = scorer.score_spans(Utterance.from_text("walk right"), domain.lexicon)
    candidates = parse_kbest(table, Grammar(), extra["K"])
    assert [e["score"] for e in chart["root"]] == [c.score for c in candidates]


def test_parse_exit_code_when_nothing_valid(tmp_path, capsys):
    """Boost both tokens toward the two direction entities only: every
    beam candidate pairs two entities, and no pair composes."""
    trap = tmp_path / "trap"
    trap.mkdir()
    schema = scan_schema()
    save_schema(schema, trap / "schema.json")
    Lexicon.from_pairs([("foo", "l"), ("foo", "r"),
                        ("bar", "l"), ("bar", "r")]).save_tsv(
        trap / "lexicon.tsv")
    scorer = SpanScorer(["foo", "bar"], schema.categories(), seed=0)
    save_checkpoint(scorer, tmp_path / "trap.npz",
                    extra={"domain": "scan", "data_dir": str(trap), "K": 4})
    code = cli.main(["parse", "foo bar",
                     "--checkpoint", str(tmp_path / "trap.npz"),
                     "--data", str(trap)])
    assert code == cli.EXIT_NO_PARSE
    assert "no semantically valid tree" in capsys.readouterr().err


def test_parse_empty_utterance_is_config_error(exec_error_run, capsys):
    for text in ("", "   "):
        code = cli.main(["parse", text,
                         "--checkpoint", str(exec_error_run / "model.npz"),
                         "--data", str(exec_error_run)])
        assert code == cli.EXIT_CONFIG
    assert "configuration error: empty utterance" in capsys.readouterr().err


PARSE_TOKENS = st.one_of(
    st.sampled_from(["walk", "jump", "left", "right", "twice", "and",
                     "after", "around", "opposite", "thrice", "?", ",", "."]),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz'(", min_size=1, max_size=6))


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tokens=st.lists(PARSE_TOKENS, max_size=12), ternary=st.booleans())
def test_parse_exits_with_a_documented_code(trained_run, tiny_scan_dir,
                                            tokens, ternary):
    """Any string of at most 12 tokens, known or not, parses to exit 0, 2
    or 3 and never raises."""
    code = cli.main(["parse", " ".join(tokens),
                     "--checkpoint", str(trained_run / "model.npz"),
                     "--data", str(tiny_scan_dir)]
                    + (["--ternary"] if ternary else []))
    assert code in (cli.EXIT_OK, cli.EXIT_NO_PARSE, cli.EXIT_CONFIG)
