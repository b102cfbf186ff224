"""Command-line entry point: dataset generation, training, parsing, and
evaluation as reproducible runs.

Dataset directory layout:
    <dir>/train.jsonl  <dir>/dev.jsonl  <dir>/test.jsonl
    <dir>/schema.json  <dir>/lexicon.tsv  [<dir>/kb.json for geo]

Each JSONL record is {"utterance", "program", "tree", "denotation"}; the
tree is null when no gold tree is available.

Every setting comes from a flag or, for train, a --config file of
TrainConfig settings that the flags given override; no environment
variable changes a default.  Exit codes: 0 success, 2 no valid parse or,
for parse, a composed program the executor rejects, and 3 a configuration
error, printed as ``configuration error: ...``: an input, setting or
output path that the run cannot use.  README.md lists every case of exit 3.
Output directories (gen-data and train --out, the directories of eval
--out and parse --dump-chart) are created when missing.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import multiprocessing
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .cky import Grammar, dump_chart
from .core import Utterance, tree_from_json, tree_to_json, validate_tree
from .data.geo import (
    exec_funql,
    geo_lexicon_entries,
    geo_schema,
    load_kb,
    mini_geo_corpus,
    mini_kb,
    render_denotation,
    save_kb,
)
from .data.scan import (
    exec_scan,
    generate_scan_sp,
    scan_lexicon_entries,
    scan_schema,
)
from .data.splits import split_iid, split_length, split_scan_primitive, split_template
from .scorer import Lexicon, load_checkpoint, save_checkpoint
from .trainer import (
    ConfigError,
    Domain,
    TrainConfig,
    TrainExample,
    evaluate,
    evaluate_example,
    evaluation_report,
    predict,
    train,
)
from .typesys import load_schema, parse_program, save_schema

EXIT_OK = 0
EXIT_NO_PARSE = 2
EXIT_CONFIG = 3

SCAN_SPLITS = ("iid", "right", "aroundRight")
GEO_SPLITS = ("iid", "template", "length")


# -- dataset files -----------------------------------------------------------


def example_record(utt: Utterance, program, tree, denotation) -> dict:
    return {
        "utterance": utt.raw_text,
        "program": str(program),
        "tree": None if tree is None else tree_to_json(tree),
        "denotation": denotation,
    }


def write_jsonl(path: Path, records) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_examples(path: Path, schema) -> list:
    """The examples of a JSONL file.  A malformed line, one that is not
    UTF-8 among them, is a ConfigError naming the file and line; so is a tree
    that is not grammar-legal over its utterance (the ternary rule
    allowed), such as one whose spans run past it, or that carries a label
    other than NoSem, Join and the schema's constants."""
    labels = set(schema.categories())
    out = []
    with read_file(path, functools.partial(open, mode="rb")) as fh:
        for lineno, line in enumerate(fh, 1):
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line.decode("utf-8"))
            except UnicodeDecodeError:
                raise ConfigError(f"{where}: not UTF-8") from None
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{where}: invalid JSON ({exc.msg})") from None
            if not isinstance(obj, dict) or not all(
                    isinstance(obj.get(k), str) for k in ("utterance", "program")):
                raise ConfigError(f'{where}: needs string "utterance" and "program"')
            utt = Utterance.from_text(obj["utterance"])
            if not utt.tokens:
                raise ConfigError(f"{where}: empty utterance")
            try:
                program = parse_program(obj["program"], schema)
            except (KeyError, ValueError) as exc:
                raise ConfigError(f"{where}: bad program ({exc})") from None
            tree = obj.get("tree")
            if tree is not None:
                try:
                    tree = tree_from_json(tree)
                    validate_tree(tree, len(utt), ternary=True)
                    for node in tree.nodes():
                        if node.category not in labels:
                            raise ValueError(f"unknown category {node.category!r}")
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    raise ConfigError(f"{where}: bad tree ({exc!r})") from None
            out.append(TrainExample(utt, program, tree))
    return out


def load_domain(data_dir: Path, no_lexicon: bool) -> Domain:
    """Rebuild the Domain from a dataset directory.

    Its lexicon joins the schema's entity names and lexicon.tsv, if any;
    with ``no_lexicon`` (--no-lexicon) it has no lexicon at all.
    """
    schema = read_file(data_dir / "schema.json", load_schema)
    if schema.name == "scan":
        execute = exec_scan
    elif schema.name == "geo":
        kb = read_file(data_dir / "kb.json", load_kb)
        execute = functools.partial(exec_funql, kb=kb)
    else:
        raise ConfigError(f"unknown domain {schema.name!r}")
    if no_lexicon:
        return Domain(schema.name, schema, None, execute)
    lexicon = Lexicon.from_entity_lexicon(schema.entity_lexicon)
    lex_path = data_dir / "lexicon.tsv"
    if lex_path.exists():
        manual = read_file(lex_path, Lexicon.load_tsv)
        unknown = set().union(*manual.entries.values()) - schema.constants.keys()
        if unknown:
            raise ConfigError(f"{lex_path}: {min(unknown)!r} is not a "
                              f"constant of the schema")
        lexicon = lexicon.merged_with(manual)
    if not lexicon.entries:
        lexicon = None
    return Domain(schema.name, schema, lexicon, execute)


def read_file(path, load):
    """``load(path)``, with a missing, unreadable or malformed file a
    ConfigError naming it."""
    try:
        return load(path)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def write_file(path, save) -> None:
    """``save(path)``, with an OSError from opening or writing the file, as
    from a directory at ``path``, a ConfigError naming it."""
    try:
        save(path)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from None


def probe_file(path: Path) -> None:
    """Opens ``path`` for appending, by ``write_file``, and removes it again
    when the probe created it: a run that could not write the file at its
    end is a ConfigError before it starts, and one that fails leaves no
    empty file behind."""
    existed = path.exists()
    write_file(path, lambda p: open(p, "ab").close())
    if not existed:
        path.unlink()


def write_json(path: Path, obj) -> None:
    """``obj`` as indented JSON with sorted keys, by ``write_file``."""
    write_file(path, lambda p: p.write_text(
        json.dumps(obj, indent=2, sort_keys=True)))


def make_dir(path: Path) -> None:
    """Creates directory ``path`` and its missing parents, by
    ``write_file``: a file already at ``path`` is a ConfigError."""
    write_file(path, lambda p: p.mkdir(parents=True, exist_ok=True))


def run_record(domain: Domain, data_dir: Path, config: TrainConfig,
               no_lexicon: bool) -> dict:
    """What a checkpoint records of its training run; ``load_run`` reads
    it back."""
    return {"domain": domain.name, "data_dir": str(data_dir),
            "ternary": config.ternary, "no_lexicon": no_lexicon,
            "K": config.K}


def load_run(checkpoint, data_dir):
    """The scorer of a checkpoint, the domain of ``data_dir`` (when None,
    of the dataset directory the checkpoint records), and the grammar and
    K the run was trained with.  A setting the checkpoint does not record
    takes TrainConfig's default; an unrecorded --no-lexicon is off.
    ``load_checkpoint`` checks the recorded ``lam``.  The recorded
    ``ternary`` and ``K`` must pass ``TrainConfig.validate``,
    ``no_lexicon`` must be a bool and ``data_dir`` a string, or a
    ConfigError names the field."""
    scorer, extra = read_file(checkpoint, load_checkpoint)
    try:
        if not isinstance(extra, dict):
            raise ConfigError(f"extra must be a JSON object, not {extra!r}")
        config = TrainConfig(K=extra.get("K", TrainConfig.K),
                             ternary=extra.get("ternary", TrainConfig.ternary))
        config.validate()
        for name, kind in (("no_lexicon", bool), ("data_dir", str)):
            if name in extra and not isinstance(extra[name], kind):
                raise ConfigError(f"{name} must be a {kind.__name__}, "
                                  f"not {extra[name]!r}")
    except ConfigError as exc:
        raise ConfigError(f"{checkpoint}: {exc}") from None
    data_dir = data_dir or extra.get("data_dir")
    if data_dir is None:
        raise ConfigError(f"{checkpoint}: the checkpoint records no "
                          f"dataset directory; pass --data")
    domain = load_domain(Path(data_dir), no_lexicon=extra.get("no_lexicon", False))
    if scorer.categories != domain.schema.categories():
        raise ConfigError(f"checkpoint categories do not match the "
                          f"{domain.name} schema of the dataset")
    return scorer, domain, Grammar(ternary=config.ternary), config.K


# -- gen-data ----------------------------------------------------------------


def cmd_gen_data(args) -> int:
    out_dir = Path(args.out)
    make_dir(out_dir)
    if args.domain == "scan":
        if args.split not in SCAN_SPLITS:
            raise ConfigError(f"scan supports splits {SCAN_SPLITS}")
        schema = scan_schema()
        examples = generate_scan_sp(schema)
        records = [example_record(e.utterance, e.program, e.tree,
                                  list(e.actions)) for e in examples]
        if args.split == "iid":
            parts = split_iid(records, seed=args.seed)
        else:
            parts = split_scan_primitive(
                records, lambda r: r["utterance"].split(), args.split,
                seed=args.seed)
        lexicon = Lexicon.from_pairs(scan_lexicon_entries())
    else:
        if args.split not in GEO_SPLITS:
            raise ConfigError(f"geo supports splits {GEO_SPLITS}")
        kb = mini_kb()
        schema = geo_schema(kb)
        records = []
        for text, prog_text in mini_geo_corpus(kb):
            program = parse_program(prog_text, schema)
            denotation = render_denotation(exec_funql(program, kb))
            records.append(example_record(Utterance.from_text(text),
                                          program, None, denotation))
        if args.split == "iid":
            parts = split_iid(records, seed=args.seed)
        elif args.split == "template":
            parts = split_template(records, lambda r: r["program"],
                                   seed=args.seed)
        else:
            parts = split_length(records, lambda r: r["program"],
                                 seed=args.seed)
        write_file(out_dir / "kb.json", functools.partial(save_kb, kb))
        lexicon = Lexicon.from_pairs(geo_lexicon_entries())
    write_file(out_dir / "schema.json", functools.partial(save_schema, schema))
    write_file(out_dir / "lexicon.tsv", lexicon.save_tsv)
    for name, part in zip(("train", "dev", "test"), parts):
        write_file(out_dir / f"{name}.jsonl",
                   functools.partial(write_jsonl, records=part))
        print(f"{name}: {len(part)} examples")
    write_json(out_dir / "config.json",
               {"command": "gen-data", "domain": args.domain,
                "split": args.split, "seed": args.seed})
    return EXIT_OK


# -- train -------------------------------------------------------------------


def read_config_file(path) -> dict:
    """The settings of a --config file: a JSON object that is a valid
    TrainConfig on its own, before flags are merged over it."""
    with open(path) as fh:
        settings = json.load(fh)
    if not isinstance(settings, dict):
        raise ValueError("needs a JSON object of training settings")
    TrainConfig(**settings).validate()
    return settings


def train_config_from(args) -> TrainConfig:
    """The --config file's settings, then every setting flag given; an
    absent flag leaves the file's value."""
    settings = read_file(args.config, read_config_file) if args.config else {}
    for f in fields(TrainConfig):
        if (value := getattr(args, f.name)) is not None:
            settings[f.name] = value
    return TrainConfig(**settings)


def cmd_train(args) -> int:
    data_dir = Path(args.data)
    out_dir = Path(args.out)
    make_dir(out_dir)
    config = train_config_from(args)
    config.validate()
    domain = load_domain(data_dir, no_lexicon=args.no_lexicon)
    train_ex = read_examples(data_dir / "train.jsonl", domain.schema)
    dev_ex = read_examples(data_dir / "dev.jsonl", domain.schema)
    if config.use_gold_trees and any(ex.tree is None for ex in train_ex):
        raise ConfigError("--gold-trees requires trees in the training data")
    for name in ("model.npz", "config.json"):
        probe_file(out_dir / name)
    result = train(train_ex, dev_ex, domain, config,
                   log_path=out_dir / "log.jsonl")
    write_file(out_dir / "model.npz", functools.partial(
        save_checkpoint, result.scorer,
        extra=run_record(domain, data_dir, config, args.no_lexicon)))
    write_json(out_dir / "config.json",
               {"command": "train", "data": str(data_dir),
                "no_lexicon": args.no_lexicon, **asdict(config)})
    if result.best_dev_accuracy is None:
        print(f"kept the last epoch {result.best_epoch}: no dev set")
    else:
        print(f"best epoch {result.best_epoch}: "
              f"dev accuracy {result.best_dev_accuracy:.4f}")
    return EXIT_OK


# -- eval --------------------------------------------------------------------

_worker_inputs = None  # (step, examples, size), set in each forked eval worker


def _start_worker(step, examples, size) -> None:
    global _worker_inputs
    _worker_inputs = step, examples, size


def _evaluate_chunk(lo: int) -> list:
    step, examples, size = _worker_inputs
    return [step(ex) for ex in examples[lo:lo + size]]


def cmd_eval(args) -> int:
    if args.jobs < 1:
        raise ConfigError("--jobs must be at least 1")
    data_path = Path(args.data)
    scorer, domain, grammar, K = load_run(args.checkpoint, data_path.parent)
    examples = read_examples(data_path, domain.schema)
    if not examples:
        raise ConfigError(f"empty evaluation file {data_path}")
    size = math.ceil(len(examples) / args.jobs)
    starts = range(0, len(examples), size)
    if len(starts) > 1:
        # One contiguous chunk per worker.  Forked workers inherit the
        # initargs, so only chunk starts and result records are pickled.
        step = functools.partial(evaluate_example, scorer, domain, grammar, K)
        with multiprocessing.get_context("fork").Pool(
                len(starts), initializer=_start_worker,
                initargs=(step, examples, size)) as pool:
            chunks = pool.map(_evaluate_chunk, starts)
        report = evaluation_report([r for chunk in chunks for r in chunk])
    else:
        report = evaluate(scorer, examples, domain, grammar, K)
    if args.out:
        out = Path(args.out)
        make_dir(out.parent)
        write_json(out, report)
        write_json(out.parent / "config.json",
                   {"command": "eval", "checkpoint": str(args.checkpoint),
                    "data": str(data_path), "jobs": args.jobs})
    print(f"accuracy {report['accuracy']:.4f}  failures {report['failures']}"
          + (f"  f1 {report['f1']:.4f}" if "f1" in report else ""))
    return EXIT_OK


# -- parse -------------------------------------------------------------------


def cmd_parse(args) -> int:
    scorer, domain, grammar, K = load_run(args.checkpoint, args.data)
    utt = Utterance.from_text(args.utterance)
    if not utt.tokens:
        raise ConfigError("empty utterance")
    if args.dump_chart:
        make_dir(Path(args.dump_chart).parent)
        table, = scorer.score_spans([utt], domain.lexicon)
        write_file(args.dump_chart, functools.partial(dump_chart, table, grammar, K))
    result = predict(scorer, utt, domain, grammar, K)
    if result is None:
        print("no semantically valid tree in the beam", file=sys.stderr)
        return EXIT_NO_PARSE
    denotation = domain.run(result.program)
    print(result.tree.pretty())
    print(str(result.program))
    if denotation is None:
        print("no denotation: the executor rejects the composed program",
              file=sys.stderr)
        return EXIT_NO_PARSE
    if domain.name == "geo":
        print(json.dumps(render_denotation(denotation)))
    else:
        print(json.dumps(list(denotation)))
    return EXIT_OK


# -- argument parsing --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spansem",
        description="Span-driven semantic parsing toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="generate a dataset directory")
    gen.add_argument("--domain", choices=("scan", "geo"), default="scan")
    gen.add_argument("--split", default="iid")
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=cmd_gen_data)

    tr = sub.add_parser("train", help="train a model on a dataset directory")
    tr.add_argument("--data", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--config", default=None,
                    help="JSON config file; CLI flags override its values")
    for f in fields(TrainConfig):
        # Every setting defaults to None, "not given", so that only a
        # given flag overrides the --config file.
        if f.name == "use_gold_trees":
            flag = "--gold-trees"
        else:
            flag = "--" + f.name.lower().replace("_", "-")
        if isinstance(f.default, bool):
            tr.add_argument(flag, dest=f.name, action="store_const", const=True)
        else:
            tr.add_argument(flag, dest=f.name, type=type(f.default))
    tr.add_argument("--no-lexicon", action="store_true", dest="no_lexicon")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a JSONL file")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True,
                    help="JSONL file inside a dataset directory")
    ev.add_argument("--out", default=None, help="report JSON path")
    ev.add_argument("--jobs", type=int, default=1)
    ev.set_defaults(func=cmd_eval)

    pa = sub.add_parser("parse", help="parse one utterance")
    pa.add_argument("utterance")
    pa.add_argument("--checkpoint", required=True)
    pa.add_argument("--data", default=None,
                    help="dataset directory (defaults to the training one)")
    pa.add_argument("--dump-chart", dest="dump_chart", default=None)
    pa.set_defaults(func=cmd_parse)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
