"""Command-line interface: dataset generation, training, evaluation,
parsing, exit codes, and environment-variable overrides."""

import json
import multiprocessing
import pickle
import random
import shutil
import struct
import tempfile
import types
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from spansem import cli, trainer
from spansem.cky import Grammar, parse_kbest
from spansem.core import Utterance
from spansem.data.scan import generate_scan_sp, scan_lexicon_entries, scan_schema
from spansem.data.splits import program_token_length
from spansem.scorer import Lexicon, SpanScorer, load_checkpoint, save_checkpoint
from spansem.trainer import TrainConfig, TrainExample
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


def test_gen_data_ignores_the_environment(tmp_path, monkeypatch):
    """Flag defaults are the parser's own: no variable changes them, and a
    malformed one is not read."""
    monkeypatch.setenv("SPANSEM_SEED", "7")
    monkeypatch.setenv("SPANSEM_JOBS", "abc")
    out = tmp_path / "geo"
    assert cli.main(["gen-data", "--domain", "geo", "--out", str(out)]) \
        == cli.EXIT_OK
    assert json.loads((out / "config.json").read_text())["seed"] == 0


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


def test_train_without_a_dev_set_says_so(tiny_scan_dir, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(tiny_scan_dir, data)
    (data / "dev.jsonl").write_text("")
    run = tmp_path / "run"
    assert cli.main(["train", "--data", str(data), "--out", str(run),
                     "--max-epochs", "1"]) == cli.EXIT_OK
    assert "kept the last epoch 0: no dev set" in capsys.readouterr().out
    entry, = [json.loads(line) for line in (run / "log.jsonl").read_text().splitlines()]
    assert entry["dev_accuracy"] is None


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


def test_train_config_file_settings_hold_without_flags(tiny_scan_dir, tmp_path):
    """A setting of the file that no flag gives reaches the run: a file
    asking for the ternary rule and gold trees gets both, as config.json
    and the checkpoint record."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ternary": True, "use_gold_trees": True,
                               "max_epochs": 1}))
    out = tmp_path / "ternary-gold"
    assert cli.main(["train", "--data", str(tiny_scan_dir), "--out", str(out),
                     "--config", str(cfg)]) == cli.EXIT_OK
    resolved = json.loads((out / "config.json").read_text())
    assert set(resolved) == ({"command", "data", "no_lexicon"}
                             | {f.name for f in fields(TrainConfig)})
    assert resolved["ternary"] is True and resolved["use_gold_trees"] is True
    _, extra = load_checkpoint(out / "model.npz")
    assert extra["ternary"] is True


def test_train_flags_are_the_settings_by_name_and_type():
    """One flag per TrainConfig field, parsed to the type of its default;
    an absent flag is None, so it leaves the --config file's value."""
    base = ["train", "--data", "d", "--out", "o"]
    parser = cli.build_parser()
    args = parser.parse_args(base + [
        "--lr", "1", "--batch-size", "2", "--max-epochs", "3",
        "--patience", "4", "--k", "6", "--lam", "7", "--momentum", "0.25",
        "--seed", "8", "--curriculum-epochs", "9", "--ternary",
        "--gold-trees"])
    assert {f.name: type(getattr(args, f.name)) for f in fields(TrainConfig)} \
        == {f.name: type(f.default) for f in fields(TrainConfig)}
    assert cli.train_config_from(args) == TrainConfig(
        lr=1.0, batch_size=2, max_epochs=3, patience=4, K=6, lam=7.0,
        momentum=0.25, seed=8, curriculum_epochs=9, ternary=True,
        use_gold_trees=True)
    args = parser.parse_args(base)
    assert all(getattr(args, f.name) is None for f in fields(TrainConfig))
    assert cli.train_config_from(args) == TrainConfig()


def test_train_no_lexicon_trains_with_no_lexicon(geo_run, tmp_path):
    """--no-lexicon is one switch: the domain has no lexicon at all, manual
    or automatic, the run trains to the parameters of ``train`` on such a
    domain, and ``lam`` stays as given."""
    assert cli.load_domain(geo_run, no_lexicon=False).lexicon.entries
    bare = cli.load_domain(geo_run, no_lexicon=True)
    assert bare.lexicon is None
    out = tmp_path / "nolex"
    assert cli.main(["train", "--data", str(geo_run), "--out", str(out),
                     "--max-epochs", "1", "--no-lexicon"]) == cli.EXIT_OK
    config = TrainConfig(max_epochs=1)
    expected = trainer.train(cli.read_examples(geo_run / "train.jsonl", bare.schema),
                             cli.read_examples(geo_run / "dev.jsonl", bare.schema),
                             bare, config).scorer.params
    scorer, extra = load_checkpoint(out / "model.npz")
    assert extra["no_lexicon"] is True
    assert scorer.lam == config.lam
    assert json.loads((out / "config.json").read_text())["lam"] == config.lam
    assert scorer.params.keys() == expected.keys()
    assert all(np.array_equal(scorer.params[k], expected[k]) for k in expected)


def test_train_gold_trees_requires_trees(tmp_path):
    geo = tmp_path / "geo"
    cli.main(["gen-data", "--domain", "geo", "--out", str(geo)])
    code = cli.main(["train", "--data", str(geo), "--out", str(tmp_path / "g"),
                     "--max-epochs", "1", "--gold-trees"])
    assert code == cli.EXIT_CONFIG
    cfg = tmp_path / "gold.json"
    cfg.write_text(json.dumps({"use_gold_trees": True, "max_epochs": 1}))
    code = cli.main(["train", "--data", str(geo), "--out", str(tmp_path / "g"),
                     "--config", str(cfg)])
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


def eval_report_bytes(checkpoint, data, out, jobs):
    assert cli.main(["eval", "--checkpoint", str(checkpoint), "--data", str(data),
                     "--out", str(out), "--jobs", str(jobs)]) == cli.EXIT_OK
    return out.read_bytes()


def test_eval_pool_pickles_no_example_or_scorer(trained_run, tiny_scan_dir,
                                                tmp_path, monkeypatch, capsys):
    """Workers are forked with the scorer and the file's lines: neither a
    scorer nor an example is pickled, an uneven split (chunks of 3, 3 and
    1) keeps file order, and a worker's bad line comes back as its
    error."""
    def unpicklable(self, protocol):
        raise pickle.PicklingError(f"{type(self).__name__} was pickled")

    monkeypatch.setattr(TrainExample, "__reduce_ex__", unpicklable)
    monkeypatch.setattr(SpanScorer, "__reduce_ex__", unpicklable)
    checkpoint = trained_run / "model.npz"
    lines = (tiny_scan_dir / "test.jsonl").read_text().splitlines(keepends=True)
    seven = tiny_scan_dir / "seven.jsonl"  # eval reads the schema beside it
    seven.write_text("".join(lines[:7]))
    for data, jobs in ((tiny_scan_dir / "test.jsonl", 2), (seven, 3)):
        serial = eval_report_bytes(checkpoint, data, tmp_path / "serial.json", 1)
        pooled = eval_report_bytes(checkpoint, data, tmp_path / "pooled.json", jobs)
        assert pooled == serial
    utterances = [json.loads(line)["utterance"] for line in lines[:7]]
    per_example = json.loads(pooled)["per_example"]
    assert [r["utterance"] for r in per_example] == utterances
    # A bad line comes back from its worker as the error alone.
    seven.write_text("".join(lines[:6]) + "{not json\n")
    for jobs in ("1", "3"):
        assert cli.main(["eval", "--checkpoint", str(checkpoint), "--data", str(seven),
                         "--jobs", jobs]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.count(f"configuration error: {seven}:7: invalid JSON") == 2


def test_eval_forks_one_worker_per_chunk(exec_error_run, tmp_path, monkeypatch):
    """The pool never outnumbers its chunks: --jobs 4 over 3 lines forks 3
    workers, --jobs 3 over 4 lines (chunks of 2) forks 2, and a single
    chunk is evaluated without a pool."""
    forked = []

    def get_context(method):
        def pool(processes, **kwargs):
            forked.append(processes)
            return multiprocessing.get_context(method).Pool(processes, **kwargs)
        return types.SimpleNamespace(Pool=pool)

    monkeypatch.setattr(cli, "multiprocessing",
                        types.SimpleNamespace(get_context=get_context))
    checkpoint = exec_error_run / "model.npz"
    lines = (exec_error_run / "test.jsonl").read_text().splitlines(keepends=True)
    for count, jobs in ((3, 4), (4, 3), (1, 2)):
        data = exec_error_run / f"first-{count}.jsonl"
        data.write_text("".join(lines[:count]))
        assert (eval_report_bytes(checkpoint, data, tmp_path / "pooled.json", jobs)
                == eval_report_bytes(checkpoint, data, tmp_path / "serial.json", 1))
    assert forked == [3, 2]


def test_eval_report_bytes_at_every_jobs_count(exec_error_run, tmp_path):
    """Each chunk reads its own lines as file iteration splits them: CRLF
    line ends, a last line without a newline, and a file of one line, so
    more jobs than lines, give the report bytes of --jobs 1 at --jobs 2, 3
    and 4, and the bytes of the same records with plain line ends."""
    checkpoint = exec_error_run / "model.npz"
    records = (exec_error_run / "test.jsonl").read_text().splitlines()
    cases = {"crlf": (records * 2)[:7], "unended": records + records[:1],
             "one": records[:1]}
    for name, lines in cases.items():
        plain = exec_error_run / f"{name}-plain.jsonl"
        plain.write_text("".join(line + "\n" for line in lines))
        data = exec_error_run / f"{name}.jsonl"
        if name == "crlf":
            data.write_bytes(b"".join(line.encode() + b"\r\n" for line in lines))
        elif name == "unended":
            data.write_text("\n".join(lines))
        else:
            data = plain
        want = eval_report_bytes(checkpoint, plain, tmp_path / "plain.json", 1)
        for jobs in (1, 2, 3, 4):
            assert eval_report_bytes(checkpoint, data, tmp_path / "got.json",
                                     jobs) == want, (name, jobs)


@pytest.mark.parametrize("bad", [(1,), (5,), (9,), (2, 8), (4, 9), (3, 7)])
def test_eval_names_the_first_bad_line_at_every_jobs_count(exec_error_run, capsys,
                                                           bad):
    """A bad line in the first, a middle or the last chunk, or two in
    different chunks, exits 3 at --jobs 1 to 4 with the message of --jobs 1,
    which names the first bad line in file order."""
    checkpoint = exec_error_run / "model.npz"
    records = (exec_error_run / "test.jsonl").read_text().splitlines()
    lines = (records * 3)[:9]
    for lineno in bad:
        lines[lineno - 1] = json.dumps({"utterance": "walk", "program": f"bad{lineno}("})
    data = exec_error_run / "nine.jsonl"
    data.write_text("".join(line + "\n" for line in lines))
    errors = []
    for jobs in ("1", "2", "3", "4"):
        assert cli.main(["eval", "--checkpoint", str(checkpoint), "--data", str(data),
                         "--jobs", jobs]) == cli.EXIT_CONFIG
        errors.append(capsys.readouterr().err)
    assert f"configuration error: {data}:{bad[0]}: bad program" in errors[0]
    assert errors == errors[:1] * 4


def test_eval_checks_a_chunk_before_evaluating_it(exec_error_run, monkeypatch):
    """A chunk reads and checks all its lines before it evaluates any: with
    a bad line in every chunk, nothing is evaluated, in-process or in the
    workers."""
    def evaluated(*args):
        raise AssertionError("a line was evaluated")

    monkeypatch.setattr(cli, "evaluate_example", evaluated)
    records = (exec_error_run / "test.jsonl").read_text().splitlines()
    data = exec_error_run / "bad-ends.jsonl"
    data.write_text(f"{records[0]}\n{{\n{records[1]}\n{{\n")
    for jobs in ("1", "2"):  # one chunk of 4, then two of 2: each ends badly
        assert cli.main(["eval", "--checkpoint", str(exec_error_run / "model.npz"),
                         "--data", str(data), "--jobs", jobs]) == cli.EXIT_CONFIG


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
                             "denotation": ["WALK"]})] + [
        # span ends that are not ints, though they compare as token indices
        json.dumps({"utterance": "walk", "program": "walk",
                    "tree": {"span": span, "category": "walk"},
                    "denotation": ["WALK"]}) for span in ([1.0, 1.0], [True, True])] + [
        # labels other than NoSem, Join and the schema's constants
        json.dumps({"utterance": "walk", "program": "walk",
                    "tree": {"span": [1, 1], "category": label},
                    "denotation": ["WALK"]}) for label in ("foo", 5)] + [
        # trees that no rule derives: a Join leaf below the root, and a
        # root that is a NoSem leaf
        json.dumps({"utterance": "walk walk", "program": "walk",
                    "tree": {"span": [1, 2], "category": "Join", "children": [
                        {"span": [1, 1], "category": "Join"},
                        {"span": [2, 2], "category": "walk"}]},
                    "denotation": ["WALK"]}),
        json.dumps({"utterance": "walk walk walk", "program": "walk",
                    "tree": {"span": [1, 3], "category": "NoSem"},
                    "denotation": ["WALK"]})]
    bad = exec_error_run / "bad.jsonl"
    for line in bad_lines:
        bad.write_text(good + "\n" + line + "\n")
        errors = []
        for jobs in ("1", "2"):  # at --jobs 2 the second worker finds it
            code = cli.main(["eval",
                             "--checkpoint", str(exec_error_run / "model.npz"),
                             "--data", str(bad), "--jobs", jobs])
            assert code == cli.EXIT_CONFIG, line
            errors.append(capsys.readouterr().err)
        assert f"configuration error: {bad}:2:" in errors[0]
        assert errors[1] == errors[0]
    assert "bad tree (ValueError('root is a NoSem leaf'))" in errors[0]


def test_an_utterance_past_the_length_limit_is_config_error(
        exec_error_run, tiny_scan_dir, tmp_path, capsys):
    """``eval`` at ``--jobs 1`` and ``2``, ``train`` and ``parse`` refuse an
    utterance of ``MAX_TOKENS + 1`` tokens with exit 3, and read one of
    ``MAX_TOKENS``; a line's earlier faults keep their own message."""
    checkpoint = str(exec_error_run / "model.npz")
    longest = " ".join(["walk"] * cli.MAX_TOKENS)
    refused = f"utterance of {cli.MAX_TOKENS + 1} tokens, more than {cli.MAX_TOKENS}"

    def line(text, **fields):
        return json.dumps({"utterance": text, "program": "walk", "tree": None,
                           "denotation": ["WALK"], **fields})

    data = exec_error_run / "long.jsonl"
    data.write_text(line("walk") + "\n" + line(longest) + "\n")
    assert run_all([["eval", "--checkpoint", checkpoint, "--data", str(data),
                     "--jobs", jobs] for jobs in ("1", "2")], capsys)[0] == [0, 0]
    data.write_text(line("walk") + "\n" + line(longest + " walk") + "\n")
    errors = []
    for jobs in ("1", "2"):
        codes, err = run_all([["eval", "--checkpoint", checkpoint,
                               "--data", str(data), "--jobs", jobs]], capsys)
        assert codes == [cli.EXIT_CONFIG]
        errors.append(err)
    assert f"configuration error: {data}:2: {refused}" in errors[0]
    assert errors[1] == errors[0]
    data.write_text(line(longest + " walk", program=5) + "\n")
    codes, err = run_all([["eval", "--checkpoint", checkpoint, "--data", str(data)]],
                         capsys)
    assert codes == [cli.EXIT_CONFIG] and 'needs string "utterance"' in err

    train_dir = copy_without(tiny_scan_dir, tmp_path / "data")
    with open(train_dir / "train.jsonl", "a") as fh:
        fh.write(line(longest + " walk") + "\n")
    codes, err = run_all([["train", "--data", str(train_dir),
                           "--out", str(tmp_path / "run")]], capsys)
    assert codes == [cli.EXIT_CONFIG]
    assert f"{train_dir / 'train.jsonl'}:81: {refused}" in err
    assert not (tmp_path / "run" / "log.jsonl").exists()

    codes, err = run_all([["parse", text, "--checkpoint", checkpoint]
                          for text in (longest, longest + " walk")], capsys)
    assert codes[0] in (cli.EXIT_OK, cli.EXIT_NO_PARSE)
    assert codes[1] == cli.EXIT_CONFIG
    assert f"configuration error: {refused}" in err


@pytest.mark.parametrize("children, message", [
    ([[1, 1], [3, 3]], "children are not contiguous"),
    ([[1, 1], [2, 2]], "children do not cover the parent span")])
def test_dataset_tree_whose_children_do_not_tile_is_config_error(
        exec_error_run, capsys, children, message):
    """``validate_tree`` finds the gap or the short cover, with the message
    the tree constructor used to give."""
    tree = {"span": [1, 3], "category": "Join",
            "children": [{"span": span, "category": "walk"} for span in children]}
    bad = exec_error_run / "untiled.jsonl"
    bad.write_text(json.dumps({"utterance": "walk walk walk", "program": "walk",
                               "tree": tree, "denotation": ["WALK"]}) + "\n")
    code = cli.main(["eval", "--checkpoint", str(exec_error_run / "model.npz"),
                     "--data", str(bad)])
    assert code == cli.EXIT_CONFIG
    assert (f"configuration error: {bad}:1: bad tree (ValueError('{message}'))"
            in capsys.readouterr().err)


def test_train_gold_trees_refuses_float_span_ends(tiny_scan_dir, tmp_path, capsys):
    """A tree whose span ends are JSON floats compares as token indices
    but cannot index them: ``train --gold-trees`` refuses the line where
    it is read, exit 3, before it trains (``eval`` reads data lines the
    same way; ``test_eval_rejects_malformed_lines`` has the case)."""
    tree = {"span": [1, 2], "category": "Join",
            "children": [{"span": [1.0, 1.0], "category": "walk"},
                         {"span": [2, 2], "category": "l"}]}
    data = tmp_path / "data"
    shutil.copytree(tiny_scan_dir, data)
    train = data / "train.jsonl"
    train.write_text(json.dumps({"utterance": "walk left", "program": "walk(l)",
                                 "tree": tree, "denotation": ["LTURN", "WALK"]})
                     + "\n" + train.read_text())
    code = cli.main(["train", "--data", str(data), "--out", str(tmp_path / "run"),
                     "--max-epochs", "1", "--gold-trees"])
    assert code == cli.EXIT_CONFIG
    assert (f"configuration error: {train}:1: bad tree (ValueError('span ends "
            f"must be integers, not [1.0, 1.0]'))") in capsys.readouterr().err


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


def test_checkpoint_of_other_sizes_is_config_error(exec_error_run, tmp_path,
                                                  capsys):
    """The scorer's sizes are fixed: a checkpoint that records three mixing
    layers, and holds their parameters, is refused for eval and parse,
    naming the size, instead of loading two layers and dropping the
    third."""
    with np.load(exec_error_run / "model.npz") as blob:
        arrays = dict(blob)
    meta = json.loads(str(arrays["meta"]))
    meta["n_layers"] = 3
    arrays["meta"] = json.dumps(meta, sort_keys=True)
    arrays["param_mix2_W"] = arrays["param_mix1_W"]
    arrays["param_mix2_b"] = arrays["param_mix1_b"]
    bad = tmp_path / "deep.npz"
    np.savez(bad, **arrays)
    codes, err = run_all([
        ["eval", "--checkpoint", str(bad), "--data", str(exec_error_run / "test.jsonl")],
        ["parse", "walk", "--checkpoint", str(bad), "--data", str(exec_error_run)]],
        capsys)
    assert codes == [cli.EXIT_CONFIG] * 2
    assert err.count(f"configuration error: {bad}: checkpoint records n_layers 3, "
                     f"the scorer's is 2") == 2


def test_train_stops_on_non_finite_loss(tiny_scan_dir, tmp_path, monkeypatch,
                                        capsys):
    monkeypatch.setattr(SpanScorer, "loss_and_grads",
                        lambda self, *args: (float("nan"), self.zero_grads()))
    code = cli.main(["train", "--data", str(tiny_scan_dir),
                     "--out", str(tmp_path / "nan"), "--max-epochs", "1"])
    assert code == cli.EXIT_CONFIG
    assert ("configuration error: non-finite loss at epoch 0, batch 0; "
            "lower lr") in capsys.readouterr().err


def test_train_stops_on_non_finite_parameters(tmp_path, capsys):
    """On the geo dataset a step size of 1e308 overflows W2 and the mixing
    biases in the first epoch while every batch loss stays finite: train
    exits 3 naming them and writes no checkpoint."""
    assert cli.main(["gen-data", "--domain", "geo", "--out", str(tmp_path / "geo")]) == 0
    settings = tmp_path / "settings.json"
    settings.write_text(json.dumps({"lr": 1e308, "max_epochs": 1}))
    out = tmp_path / "overflow"
    with np.errstate(all="ignore"):
        code = cli.main(["train", "--data", str(tmp_path / "geo"), "--out", str(out),
                         "--config", str(settings)])
    assert code == cli.EXIT_CONFIG
    assert ("configuration error: non-finite parameter mix0_b, mix1_b, W2 after "
            "epoch 0; lower lr") in capsys.readouterr().err
    assert not (out / "model.npz").exists()


def test_train_stops_when_a_parameter_norm_overflows(tiny_scan_dir, tmp_path,
                                                     capsys):
    """On 80 short scan commands a step size of 1e308 leaves every
    parameter finite but too large for its squared norm: train exits 3
    naming them and writes no checkpoint."""
    settings = tmp_path / "settings.json"
    settings.write_text(json.dumps({"lr": 1e308, "max_epochs": 1}))
    out = tmp_path / "diverged"
    with np.errstate(all="ignore"):
        code = cli.main(["train", "--data", str(tiny_scan_dir), "--out", str(out),
                         "--config", str(settings)])
    assert code == cli.EXIT_CONFIG
    assert ("configuration error: parameter emb, mix0_W, mix0_b, mix1_W, mix1_b, "
            "W1, W2 diverged (its norm overflows) after epoch 0; lower lr"
            ) in capsys.readouterr().err
    assert not (out / "model.npz").exists()


@pytest.mark.parametrize("size", [0, 300, 1000, -10, "text", "npy"])
def test_truncated_checkpoint_is_config_error(exec_error_run, tmp_path, capsys,
                                              size):
    """A model.npz cut short (empty, its first 300 or 1,000 bytes, or all
    but its last 10), a text file, or a bare .npy array under the
    checkpoint's name is a configuration error naming the file, and says
    that it is not an intact .npz checkpoint."""
    bad = tmp_path / "cut.npz"
    if size == "text":
        bad.write_text("not a checkpoint\n")
    elif size == "npy":
        with open(bad, "wb") as fh:
            np.save(fh, np.zeros(3))
    else:
        bad.write_bytes((exec_error_run / "model.npz").read_bytes()[:size])
    assert cli.main(["eval", "--checkpoint", str(bad),
                     "--data", str(exec_error_run / "test.jsonl")]) == cli.EXIT_CONFIG
    assert cli.main(["parse", "walk", "--checkpoint", str(bad),
                     "--data", str(exec_error_run)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.count(
        f"configuration error: {bad}: not an intact .npz checkpoint") == 2


def damaged(data: bytes, where: str) -> bytes:
    """A checkpoint's bytes with its first byte changed (the archive's
    central directory at its end still reads), its first central directory
    entry marked encrypted, given compression method 1 or version 9.9 to
    extract, or the .npy header of W1 made unbalanced (W1 is large enough
    that its header is parsed before its CRC is checked)."""
    if where == "first":
        return b"Q" + data[1:]
    if where == "header":
        at = data.index(b"{'descr'", data.index(b"param_W1.npy"))
        return data[:at + 1] + b"(" + data[at + 2:]
    end = data.rfind(b"PK\x05\x06")
    entry = struct.unpack("<I", data[end + 16:end + 20])[0]
    at, value = {"encrypted": (entry + 8, 1), "method": (entry + 10, 1),
                 "version": (entry + 6, 99)}[where]
    return data[:at] + bytes([value]) + data[at + 1:]


@pytest.mark.parametrize("where", ["first", "encrypted", "method", "version",
                                   "header"])
def test_damaged_checkpoint_archive_is_config_error(exec_error_run, tmp_path,
                                                    capsys, where):
    """zipfile raises BadZipFile, RuntimeError or NotImplementedError for
    these, and NumPy's header parser a TokenError: each is a damaged
    archive.  A damaged first byte must not send the file down np.load's
    pickle branch."""
    bad = tmp_path / "damaged.npz"
    bad.write_bytes(damaged((exec_error_run / "model.npz").read_bytes(), where))
    codes, err = run_all([
        ["eval", "--checkpoint", str(bad), "--data", str(exec_error_run / "test.jsonl")],
        ["parse", "walk", "--checkpoint", str(bad), "--data", str(exec_error_run)]],
        capsys)
    assert codes == [cli.EXIT_CONFIG] * 2
    assert err.count(f"configuration error: {bad}: not an intact .npz checkpoint") == 2


def test_non_finite_checkpoint_parameter_is_config_error(exec_error_run, tmp_path,
                                                         capsys):
    """A checkpoint whose emb is all NaN does not load: eval and parse exit 3
    naming the array, instead of blaming the decoder."""
    with np.load(exec_error_run / "model.npz") as blob:
        arrays = dict(blob)
    arrays["param_emb"] = np.full_like(arrays["param_emb"], np.nan)
    bad = tmp_path / "nan.npz"
    np.savez(bad, **arrays)
    with pytest.raises(ValueError, match="checkpoint parameter emb is not finite"):
        load_checkpoint(bad)
    assert cli.main(["eval", "--checkpoint", str(bad),
                     "--data", str(exec_error_run / "test.jsonl")]) == cli.EXIT_CONFIG
    assert cli.main(["parse", "walk", "--checkpoint", str(bad),
                     "--data", str(exec_error_run)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.count(
        f"configuration error: {bad}: checkpoint parameter emb is not finite") == 2


def test_non_utf8_dataset_line_is_config_error(exec_error_run, tiny_scan_dir,
                                               tmp_path, capsys):
    """A byte that is not UTF-8 is a configuration error naming the file and
    line, for eval's file and for train's."""
    data = tmp_path / "data"
    shutil.copytree(exec_error_run, data)
    lines = (data / "test.jsonl").read_bytes().splitlines(keepends=True)
    (data / "test.jsonl").write_bytes(lines[0] + b"\xff\n" + b"".join(lines[1:]))
    assert cli.main(["eval", "--checkpoint", str(data / "model.npz"),
                     "--data", str(data / "test.jsonl")]) == cli.EXIT_CONFIG
    assert (f"configuration error: {data / 'test.jsonl'}:2: not UTF-8"
            in capsys.readouterr().err)
    scan = tmp_path / "scan"
    shutil.copytree(tiny_scan_dir, scan)
    (scan / "dev.jsonl").write_bytes(b'{"utterance": "walk \xe9"}\n')
    assert cli.main(["train", "--data", str(scan), "--out", str(tmp_path / "run"),
                     "--max-epochs", "1"]) == cli.EXIT_CONFIG
    assert (f"configuration error: {scan / 'dev.jsonl'}:1: not UTF-8"
            in capsys.readouterr().err)


@pytest.mark.parametrize("bad, message", [
    ("after(walk(r),twice(turn(l,op))", "truncated program"),
    ("twice(turn(l,op)))", "trailing input in program"),
    ("after(walk(r) twice(turn(l,op)))", "expected ',' or ')' at token 6"),
    ("after(walk(r),walk(twice(turn(l,op))))", "ill-typed application in"),
    ("after(walk(r),twice(fly(l)))", "'fly'"),
    ("after(walk(r),twice(turn(l,op)))!", "cannot tokenize program at '!'"),
])
def test_a_bad_program_after_lines_that_share_its_subterms(tmp_path, bad, message):
    """``read_examples`` parses every file with one subterm memo; a bad
    program placed after lines that share its subterms gets the error of a
    parse without the memo, its message and token index included."""
    schema = scan_schema()
    path = tmp_path / "data.jsonl"
    good = ["after(walk(r),twice(turn(l,op)))", "twice(turn(l,op))", "walk(r)",
            "and(walk(r),twice(turn(l,op)))"]
    path.write_text("".join(json.dumps({"utterance": "walk", "program": p}) + "\n"
                            for p in good + [bad]))
    with pytest.raises((KeyError, ValueError)) as plain:
        parse_program(bad, schema)
    assert message in str(plain.value)
    with pytest.raises(cli.ConfigError) as got:
        cli.read_examples(path, schema)
    assert str(got.value) == f"{path}:{len(good) + 1}: bad program ({plain.value})"


def test_eval_rejects_empty_file(trained_run, tmp_path, tiny_scan_dir):
    empty = tiny_scan_dir / "empty.jsonl"
    empty.write_text("")
    code = cli.main(["eval", "--checkpoint", str(trained_run / "model.npz"),
                     "--data", str(empty)])
    assert code == cli.EXIT_CONFIG


# --- files the CLI reads ----------------------------------------------------


def copy_without(src, dst, *dropped):
    """A copy of dataset directory ``src`` without the files named."""
    shutil.copytree(src, dst, ignore=lambda _, names: [n for n in names
                                                       if n in dropped])
    return dst


def run_all(commands, capsys):
    """Exit codes of ``cli.main`` on each argv, and the stderr they wrote."""
    codes = [cli.main(argv) for argv in commands]
    return codes, capsys.readouterr().err


def test_missing_checkpoint_is_config_error(exec_error_run, tmp_path, capsys):
    missing = tmp_path / "missing.npz"
    codes, err = run_all([
        ["eval", "--checkpoint", str(missing),
         "--data", str(exec_error_run / "test.jsonl")],
        ["parse", "walk", "--checkpoint", str(missing),
         "--data", str(exec_error_run)]], capsys)
    assert codes == [cli.EXIT_CONFIG] * 2
    assert err.count(f"configuration error: {missing}: No such file") == 2


@pytest.mark.parametrize("dropped", ["directory", "schema.json"])
def test_missing_dataset_schema_is_config_error(tiny_scan_dir, exec_error_run,
                                                tmp_path, capsys, dropped):
    """A dataset directory, or its schema.json, that does not exist."""
    data = tmp_path / "data"
    if dropped != "directory":
        copy_without(tiny_scan_dir, data, dropped)
    checkpoint = str(exec_error_run / "model.npz")
    codes, err = run_all([
        ["train", "--data", str(data), "--out", str(tmp_path / "run")],
        ["eval", "--checkpoint", checkpoint, "--data", str(data / "test.jsonl")],
        ["parse", "walk", "--checkpoint", checkpoint, "--data", str(data)]],
        capsys)
    assert codes == [cli.EXIT_CONFIG] * 3
    assert err.count(
        f"configuration error: {data / 'schema.json'}: No such file") == 3


def test_missing_jsonl_file_is_config_error(tiny_scan_dir, exec_error_run,
                                            tmp_path, capsys):
    data = copy_without(tiny_scan_dir, tmp_path / "data", "train.jsonl",
                        "test.jsonl")
    codes, err = run_all([
        ["train", "--data", str(data), "--out", str(tmp_path / "run")],
        ["eval", "--checkpoint", str(exec_error_run / "model.npz"),
         "--data", str(data / "test.jsonl")]], capsys)
    assert codes == [cli.EXIT_CONFIG] * 2
    for name in ("train.jsonl", "test.jsonl"):
        assert f"configuration error: {data / name}: No such file" in err


def test_lexicon_line_without_tab_is_config_error(tiny_scan_dir,
                                                  exec_error_run, tmp_path,
                                                  capsys):
    data = copy_without(tiny_scan_dir, tmp_path / "data")
    lexicon = data / "lexicon.tsv"
    lexicon.write_text("walk\twalk\nleft l\n")
    checkpoint = str(exec_error_run / "model.npz")
    codes, err = run_all([
        ["train", "--data", str(data), "--out", str(tmp_path / "run")],
        ["eval", "--checkpoint", checkpoint, "--data", str(data / "test.jsonl")],
        ["parse", "walk", "--checkpoint", checkpoint, "--data", str(data)]],
        capsys)
    assert codes == [cli.EXIT_CONFIG] * 3
    assert err.count(f"configuration error: {lexicon}: line 2: needs a phrase "
                     f"and a constant separated by one tab") == 3


@pytest.mark.parametrize("constant", ["Join", "NoSem", "sprint"])
def test_lexicon_constant_outside_the_schema_is_config_error(
        tiny_scan_dir, exec_error_run, tmp_path, capsys, constant):
    """A lexicon.tsv constant must be one the schema defines: NoSem and
    Join are labels, not constants, and an unknown name matches nothing."""
    data = copy_without(tiny_scan_dir, tmp_path / "data")
    lexicon = data / "lexicon.tsv"
    lexicon.write_text(f"walk\twalk\nwhat\t{constant}\n")
    checkpoint = str(exec_error_run / "model.npz")
    codes, err = run_all([
        ["train", "--data", str(data), "--out", str(tmp_path / "run"),
         "--max-epochs", "1"],
        ["eval", "--checkpoint", checkpoint, "--data", str(data / "test.jsonl")],
        ["parse", "walk", "--checkpoint", checkpoint, "--data", str(data)]],
        capsys)
    assert codes == [cli.EXIT_CONFIG] * 3
    assert err.count(f"configuration error: {lexicon}: {constant!r} is not "
                     f"a constant of the schema") == 3


def test_schema_constant_with_a_reserved_name_is_config_error(
        tiny_scan_dir, exec_error_run, tmp_path, capsys):
    data = copy_without(tiny_scan_dir, tmp_path / "data")
    schema_path = data / "schema.json"
    schema = json.loads(schema_path.read_text())
    schema["constants"].append({"name": "Join", "kind": "entity",
                                "result": "dir", "args": [], "min_args": 0})
    schema_path.write_text(json.dumps(schema))
    checkpoint = str(exec_error_run / "model.npz")
    codes, err = run_all([
        ["train", "--data", str(data), "--out", str(tmp_path / "run"),
         "--max-epochs", "1"],
        ["eval", "--checkpoint", checkpoint, "--data", str(data / "test.jsonl")],
        ["parse", "walk", "--checkpoint", checkpoint, "--data", str(data)]],
        capsys)
    assert codes == [cli.EXIT_CONFIG] * 3
    assert err.count(f"configuration error: {schema_path}: 'Join' is "
                     f"reserved") == 3


@pytest.mark.parametrize("edit", ["result", "default"])
def test_schema_field_of_another_type_is_config_error(tiny_scan_dir, exec_error_run,
                                                      tmp_path, capsys, edit):
    """A constant whose result type is a list, or a type default that names
    no constant, used to load and raise while composing."""
    data = copy_without(tiny_scan_dir, tmp_path / "data")
    schema_path = data / "schema.json"
    schema = json.loads(schema_path.read_text())
    if edit == "result":
        schema["constants"][0]["result"] = ["dir"]
        message = f"constant {schema['constants'][0]!r} needs a string name and result"
    else:
        schema["defaults"] = {"dir": "left"}
        message = "default 'left' is not a constant"
    schema_path.write_text(json.dumps(schema, sort_keys=True))
    checkpoint = str(exec_error_run / "model.npz")
    codes, err = run_all([
        ["train", "--data", str(data), "--out", str(tmp_path / "run"),
         "--max-epochs", "1"],
        ["eval", "--checkpoint", checkpoint, "--data", str(data / "test.jsonl")],
        ["parse", "walk", "--checkpoint", checkpoint, "--data", str(data)]],
        capsys)
    assert codes == [cli.EXIT_CONFIG] * 3
    assert err.count(f"configuration error: {schema_path}: {message}") == 3


@pytest.mark.parametrize("settings", [[1, 2], {"lr": "fast"}],
                         ids=["list", "string-lr"])
def test_train_config_file_of_wrong_shape_is_config_error(
        tiny_scan_dir, tmp_path, capsys, settings):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(settings))
    code = cli.main(["train", "--data", str(tiny_scan_dir),
                     "--out", str(tmp_path / "run"), "--config", str(cfg)])
    assert code == cli.EXIT_CONFIG
    assert f"configuration error: {cfg}: " in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--lam", "nan", "lam must be finite, not nan"),
    ("--lam", "inf", "lam must be finite, not inf"),
    ("--lr", "nan", "lr must be finite, not nan"),
    ("--seed", "-1", "seed must be nonnegative")])
def test_train_setting_out_of_range_is_config_error(tiny_scan_dir, tmp_path, capsys,
                                                    flag, value, message):
    """A NaN or infinite setting, or a negative seed, stops train before
    its first epoch."""
    out = tmp_path / "run"
    code = cli.main(["train", "--data", str(tiny_scan_dir), "--out", str(out),
                     flag, value])
    assert code == cli.EXIT_CONFIG
    assert f"configuration error: {message}" in capsys.readouterr().err
    assert not (out / "log.jsonl").exists() and not (out / "model.npz").exists()


@pytest.mark.parametrize("field, value", [
    ("lam", "x"), ("lam", None), ("lam", float("nan")), ("K", "5"), ("K", 0),
    ("ternary", "no"), ("data_dir", 5), ("no_lexicon", "yes"), ("extra", [5])])
def test_checkpoint_run_setting_of_wrong_value_is_config_error(
        exec_error_run, tmp_path, capsys, field, value):
    """A checkpoint whose ``lam`` or run record (``extra``) holds a setting
    that ``TrainConfig.validate`` refuses, a ``data_dir`` or ``no_lexicon``
    of another type, or a run record that is no JSON object makes eval and
    parse exit 3 naming the field."""
    scorer, extra = load_checkpoint(exec_error_run / "model.npz")
    if field == "lam":
        scorer.lam = value
    elif field == "extra":
        extra = value
    else:
        extra[field] = value
    bad = tmp_path / "bad.npz"
    save_checkpoint(scorer, bad, extra=extra)
    codes, err = run_all([
        ["eval", "--checkpoint", str(bad), "--data", str(exec_error_run / "test.jsonl")],
        ["parse", "walk", "--checkpoint", str(bad)]], capsys)
    assert codes == [cli.EXIT_CONFIG] * 2
    assert err.count(f"configuration error: {bad}: {field} must be") == 2


WRITTEN = [("gen-data", name) for name in ("train.jsonl", "dev.jsonl", "test.jsonl",
                                           "schema.json", "kb.json", "lexicon.tsv",
                                           "config.json")] + [
    ("train", "log.jsonl"), ("train", "model.npz"), ("train", "config.json"),
    ("eval", "report.json"), ("eval", "config.json"), ("parse", "chart.json")]


@pytest.mark.parametrize("command, name", WRITTEN)
def test_output_file_that_cannot_be_written_is_config_error(
        tiny_scan_dir, exec_error_run, tmp_path, capsys, command, name):
    """Every file the command line writes: a directory in its place makes
    the command exit 3 naming the path.  ``train`` finds it before its
    first epoch, so it logs no epoch."""
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    argv = {
        "gen-data": ["gen-data", "--domain", "geo", "--out", str(out)],
        "train": ["train", "--data", str(tiny_scan_dir), "--out", str(out),
                  "--max-epochs", "1"],
        "eval": ["eval", "--checkpoint", str(exec_error_run / "model.npz"),
                 "--data", str(exec_error_run / "test.jsonl"),
                 "--out", str(out / "report.json")],
        "parse": ["parse", "walk", "--checkpoint", str(exec_error_run / "model.npz"),
                  "--dump-chart", str(out / "chart.json")],
    }[command]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert f"configuration error: {out / name}: Is a directory" in capsys.readouterr().err
    log = out / "log.jsonl"
    assert not log.is_file() or log.read_text() == ""
    # The probes of train's outputs leave no empty file behind.
    assert not any((out / other).is_file() for other in ("model.npz", "config.json"))


def test_train_out_naming_a_file_is_config_error(tiny_scan_dir, tmp_path,
                                                 capsys):
    out = tmp_path / "run"
    out.write_text("")
    code = cli.main(["train", "--data", str(tiny_scan_dir), "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert f"configuration error: {out}: File exists" in capsys.readouterr().err


def test_parse_without_data_needs_a_recorded_dataset(exec_error_run, tmp_path,
                                                     capsys):
    """A checkpoint saved without ``data_dir`` in its extra needs --data."""
    scorer, _ = load_checkpoint(exec_error_run / "model.npz")
    checkpoint = tmp_path / "bare.npz"
    save_checkpoint(scorer, checkpoint, extra={"domain": "scan", "K": 5})
    code = cli.main(["parse", "walk", "--checkpoint", str(checkpoint)])
    assert code == cli.EXIT_CONFIG
    assert (f"configuration error: {checkpoint}: the checkpoint records no "
            f"dataset directory; pass --data") in capsys.readouterr().err
    assert cli.main(["parse", "walk", "--checkpoint", str(checkpoint),
                     "--data", str(exec_error_run)]) == cli.EXIT_OK


# --- parse ------------------------------------------------------------------


def test_parse_exec_error_exits_no_parse(exec_error_run, capsys):
    """A bare "turn" composes but does not execute: the tree and program
    are printed, and the exit code is 2."""
    code = cli.main(["parse", "turn",
                     "--checkpoint", str(exec_error_run / "model.npz"),
                     "--data", str(exec_error_run)])
    assert code == cli.EXIT_NO_PARSE
    out, err = capsys.readouterr()
    assert out.splitlines() == ["[turn 1:1]", "turn"]
    assert "no denotation: the executor rejects the composed program" in err


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
    domain = cli.load_domain(tiny_scan_dir, no_lexicon=extra["no_lexicon"])
    table, = scorer.score_spans([Utterance.from_text("walk right")], domain.lexicon)
    candidates = parse_kbest(table, Grammar(), extra["K"])
    assert [e["score"] for e in chart["root"]] == [c.score for c in candidates]


def test_parse_dump_chart_creates_its_directory(exec_error_run, tmp_path):
    chart_path = tmp_path / "missing" / "charts" / "chart.json"
    code = cli.main(["parse", "walk", "--checkpoint",
                     str(exec_error_run / "model.npz"),
                     "--data", str(exec_error_run),
                     "--dump-chart", str(chart_path)])
    assert code == cli.EXIT_OK
    assert json.loads(chart_path.read_text())["n"] == 1


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
@given(tokens=st.lists(PARSE_TOKENS, max_size=12))
def test_parse_exits_with_a_documented_code(trained_run, tiny_scan_dir, tokens):
    """Any string of at most 12 tokens, known or not, parses to exit 0, 2
    or 3 and never raises."""
    code = cli.main(["parse", " ".join(tokens),
                     "--checkpoint", str(trained_run / "model.npz"),
                     "--data", str(tiny_scan_dir)])
    assert code in (cli.EXIT_OK, cli.EXIT_NO_PARSE, cli.EXIT_CONFIG)


# --- every file the command line reads, mutated -------------------------------

# The files of a geo dataset directory that train and eval read, the
# checkpoint placed beside them, and a --config file.
GEO_INPUTS = ("train.jsonl", "test.jsonl", "schema.json", "kb.json", "lexicon.tsv",
              "model.npz", "settings.json")
OTHER_JSON = (None, True, 0, 1.5, "x", [], {})


@pytest.fixture(scope="module")
def geo_run(tmp_path_factory):
    """A geo dataset directory holding a --config file and the one-epoch
    ternary checkpoint trained with it."""
    data = tmp_path_factory.mktemp("geo")
    assert cli.main(["gen-data", "--domain", "geo", "--out", str(data)]) == cli.EXIT_OK
    (data / "settings.json").write_text('{"ternary": true, "max_epochs": 1}')
    run = tmp_path_factory.mktemp("geo-run")
    assert cli.main(["train", "--data", str(data), "--out", str(run),
                     "--config", str(data / "settings.json")]) == cli.EXIT_OK
    shutil.copy(run / "model.npz", data / "model.npz")
    return data


def json_paths(value, path=()):
    """The path of ``value`` and of every value inside it."""
    yield path
    if isinstance(value, (dict, list)):
        for key, item in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from json_paths(item, path + (key,))


def swap_a_value(value, draw):
    """``value`` with one value in it, or itself, replaced by a value of
    another JSON type."""
    path = draw(st.sampled_from(list(json_paths(value))))
    parent, old = None, value
    for key in path:
        parent, old = old, old[key]
    new = draw(st.sampled_from([v for v in OTHER_JSON if type(v) is not type(old)]))
    if parent is None:
        return new
    parent[path[-1]] = new
    return value


def mutated(data: bytes, name: str, draw) -> bytes:
    """``data`` cut at an offset, with one byte flipped or a 0xff byte
    inserted, or, for JSON, with a value of one line swapped for another
    type."""
    kinds = ("truncate", "flip", "insert") + (("swap",) if "json" in name else ())
    kind = draw(st.sampled_from(kinds))
    if kind == "swap":
        lines = data.decode().splitlines()
        k = draw(st.integers(0, len(lines) - 1)) if name.endswith(".jsonl") else None
        if k is None:
            return json.dumps(swap_a_value(json.loads(data), draw)).encode()
        lines[k] = json.dumps(swap_a_value(json.loads(lines[k]), draw))
        return ("\n".join(lines) + "\n").encode()
    at = draw(st.integers(0, len(data) - (kind == "flip")))
    if kind == "truncate":
        return data[:at]
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
    return data[:at] + b"\xff" + data[at:]


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(GEO_INPUTS), data=st.data())
def test_every_input_file_gets_a_documented_exit_code(geo_run, name, data):
    """One file mutated: train reads it (train.jsonl, the --config file)
    or eval does (the rest); either exits 0, 2 or 3 and never raises."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "geo"
        shutil.copytree(geo_run, work)
        path = work / name
        path.write_bytes(mutated(path.read_bytes(), name, data.draw))
        if name in ("train.jsonl", "settings.json"):
            argv = ["train", "--data", str(work), "--out", str(work / "run"),
                    "--config", str(work / "settings.json")]
        else:
            argv = ["eval", "--checkpoint", str(work / "model.npz"),
                    "--data", str(work / "test.jsonl")]
        assert cli.main(argv) in (cli.EXIT_OK, cli.EXIT_NO_PARSE, cli.EXIT_CONFIG)


def test_kb_without_a_field_the_executor_reads_is_config_error(geo_run, tmp_path,
                                                               capsys):
    """A city without its state used to load, and eval then raised a
    KeyError in the executor; now eval and parse exit 3 naming kb.json."""
    data = tmp_path / "geo"
    shutil.copytree(geo_run, data)
    kb = json.loads((data / "kb.json").read_text())
    del kb["cities"]["albany"]["state"]
    (data / "kb.json").write_text(json.dumps(kb))
    codes, err = run_all([
        ["eval", "--checkpoint", str(data / "model.npz"),
         "--data", str(data / "train.jsonl")],
        ["parse", "what is the capital of vermont ?",
         "--checkpoint", str(data / "model.npz"), "--data", str(data)]], capsys)
    assert codes == [cli.EXIT_CONFIG] * 2
    assert err.count(f"configuration error: {data / 'kb.json'}: cities 'albany' "
                     f"needs 'state': a state (got None)") == 2
