"""Command-line entry point: dataset generation, training, parsing, and
evaluation as reproducible runs.

Dataset directory layout:
    <dir>/train.jsonl  <dir>/dev.jsonl  <dir>/test.jsonl
    <dir>/schema.json  <dir>/lexicon.tsv  [<dir>/kb.json for geo]

Each JSONL record is {"utterance", "program", "tree", "denotation"}; the
tree is null when no gold tree is available.

Every flag default can be overridden through an environment variable with
the SPANSEM_ prefix, e.g. SPANSEM_SEED=7.  Exit codes: 0 success, 2 no
valid parse, 3 configuration error (including an empty utterance to parse,
a malformed dataset line, a gold tree that is malformed or runs past its
utterance, a checkpoint whose categories differ from the dataset's schema
or whose parameter shapes differ from its sizes, a non-finite training
loss, and eval --jobs below 1).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import multiprocessing
import os
import sys
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
    predict,
    train,
)
from .typesys import load_schema, parse_program, save_schema

ENV_PREFIX = "SPANSEM_"

EXIT_OK = 0
EXIT_NO_PARSE = 2
EXIT_CONFIG = 3

SCAN_SPLITS = ("iid", "right", "aroundRight")
GEO_SPLITS = ("iid", "template", "length")


def env_default(name: str, fallback):
    """Environment override for a flag: SPANSEM_<NAME>."""
    raw = os.environ.get(ENV_PREFIX + name.upper().replace("-", "_"))
    if raw is None:
        return fallback
    if isinstance(fallback, bool):
        return raw.lower() in ("1", "true", "yes")
    if fallback is None:
        return raw
    return type(fallback)(raw)


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
    """The examples of a JSONL file.  A malformed line is a ConfigError
    naming the file and line; so is a tree that is not grammar-legal over
    its utterance (the ternary rule allowed), such as one whose spans run
    past it."""
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
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
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    raise ConfigError(f"{where}: bad tree ({exc!r})") from None
            out.append(TrainExample(utt, program, tree))
    return out


def load_domain(data_dir: Path, no_lexicon: bool = False) -> Domain:
    """Rebuild the Domain from a dataset directory.

    --no-lexicon drops the manual lexicon but keeps the automatic
    entity-name entries, which require no annotation effort.
    """
    schema = load_schema(data_dir / "schema.json")
    if schema.name == "scan":
        execute = exec_scan
    elif schema.name == "geo":
        kb = load_kb(data_dir / "kb.json")
        execute = functools.partial(exec_funql, kb=kb)
    else:
        raise ConfigError(f"unknown domain {schema.name!r}")
    lexicon = Lexicon.from_entity_lexicon(schema.entity_lexicon)
    lex_path = data_dir / "lexicon.tsv"
    if not no_lexicon and lex_path.exists():
        lexicon = lexicon.merged_with(Lexicon.load_tsv(lex_path))
    if not lexicon.entries:
        lexicon = None
    return Domain(schema.name, schema, lexicon, execute)


def read_checkpoint(path):
    """``load_checkpoint``, with an unreadable or mis-shaped checkpoint a
    ConfigError."""
    try:
        return load_checkpoint(path)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def check_checkpoint_domain(scorer, domain: Domain) -> None:
    if scorer.categories != domain.schema.categories():
        raise ConfigError(f"checkpoint categories do not match the "
                          f"{domain.name} schema of the dataset")


def write_config(out_dir: Path, resolved: dict) -> None:
    with open(out_dir / "config.json", "w") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)


# -- gen-data ----------------------------------------------------------------


def cmd_gen_data(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
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
        save_schema(schema, out_dir / "schema.json")
        Lexicon.from_pairs(scan_lexicon_entries()).save_tsv(
            out_dir / "lexicon.tsv")
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
        save_schema(schema, out_dir / "schema.json")
        save_kb(kb, out_dir / "kb.json")
        Lexicon.from_pairs(geo_lexicon_entries()).save_tsv(
            out_dir / "lexicon.tsv")
    for name, part in zip(("train", "dev", "test"), parts):
        write_jsonl(out_dir / f"{name}.jsonl", part)
        print(f"{name}: {len(part)} examples")
    write_config(out_dir, {"command": "gen-data", "domain": args.domain,
                           "split": args.split, "seed": args.seed})
    return EXIT_OK


# -- train -------------------------------------------------------------------


def train_config_from(args) -> TrainConfig:
    file_cfg = {}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
    merged = dict(file_cfg)
    for key in ("lr", "batch_size", "max_epochs", "patience", "K", "lam",
                "momentum", "seed", "curriculum_epochs"):
        value = getattr(args, key.lower())
        if value is not None:
            merged[key] = value
    merged["ternary"] = args.ternary
    merged["use_gold_trees"] = args.gold_trees
    if args.no_lexicon:
        merged["lam"] = 0.0
    try:
        return TrainConfig(**merged)
    except TypeError as exc:
        raise ConfigError(str(exc))


def cmd_train(args) -> int:
    data_dir = Path(args.data)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = train_config_from(args)
    config.validate()
    domain = load_domain(data_dir, no_lexicon=args.no_lexicon)
    train_ex = read_examples(data_dir / "train.jsonl", domain.schema)
    dev_ex = read_examples(data_dir / "dev.jsonl", domain.schema)
    if args.gold_trees and any(ex.tree is None for ex in train_ex):
        raise ConfigError("--gold-trees requires trees in the training data")
    result = train(train_ex, dev_ex, domain, config,
                   log_path=out_dir / "log.jsonl")
    save_checkpoint(result.scorer, out_dir / "model.npz", extra={
        "domain": domain.name,
        "data_dir": str(data_dir),
        "ternary": config.ternary,
        "no_lexicon": args.no_lexicon,
        "K": config.K,
    })
    resolved = {"command": "train", "data": str(data_dir),
                "no_lexicon": args.no_lexicon,
                "gold_trees": args.gold_trees,
                **{k: getattr(config, k) for k in (
                    "lr", "batch_size", "max_epochs", "patience", "K", "lam",
                    "momentum", "seed", "ternary", "curriculum_epochs")}}
    write_config(out_dir, resolved)
    print(f"best epoch {result.best_epoch}: "
          f"dev accuracy {result.best_dev_accuracy:.4f}")
    return EXIT_OK


# -- eval --------------------------------------------------------------------

def cmd_eval(args) -> int:
    if args.jobs < 1:
        raise ConfigError("--jobs must be at least 1")
    scorer, extra = read_checkpoint(args.checkpoint)
    data_path = Path(args.data)
    domain = load_domain(data_path.parent,
                         no_lexicon=extra.get("no_lexicon", False))
    check_checkpoint_domain(scorer, domain)
    examples = read_examples(data_path, domain.schema)
    if not examples:
        raise ConfigError(f"empty evaluation file {data_path}")
    grammar = Grammar(ternary=extra.get("ternary", False))
    K = extra.get("K", 5)
    if args.jobs > 1:
        # One chunk per worker, so the scorer is pickled once per worker.
        chunksize = math.ceil(len(examples) / args.jobs)
        with multiprocessing.get_context("fork").Pool(args.jobs) as pool:
            report = evaluate(scorer, examples, domain, grammar, K,
                              map=functools.partial(pool.map,
                                                    chunksize=chunksize))
    else:
        report = evaluate(scorer, examples, domain, grammar, K)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        write_config(out.parent,
                     {"command": "eval", "checkpoint": str(args.checkpoint),
                      "data": str(data_path), "jobs": args.jobs})
    print(f"accuracy {report['accuracy']:.4f}  failures {report['failures']}"
          + (f"  f1 {report['f1']:.4f}" if "f1" in report else ""))
    return EXIT_OK


# -- parse -------------------------------------------------------------------


def cmd_parse(args) -> int:
    scorer, extra = read_checkpoint(args.checkpoint)
    data_dir = Path(args.data) if args.data else Path(extra["data_dir"])
    domain = load_domain(data_dir, no_lexicon=extra.get("no_lexicon", False))
    check_checkpoint_domain(scorer, domain)
    ternary = args.ternary or extra.get("ternary", False)
    grammar = Grammar(ternary=ternary)
    K = extra.get("K", 5)
    utt = Utterance.from_text(args.utterance)
    if not utt.tokens:
        raise ConfigError("empty utterance")
    if args.dump_chart:
        dump_chart(scorer.score_spans(utt, domain.lexicon), grammar, K,
                   args.dump_chart)
    result = predict(scorer, utt, domain, grammar, K)
    if result is None:
        print("no semantically valid tree in the beam", file=sys.stderr)
        return EXIT_NO_PARSE
    denotation = domain.run(result.program)
    print(result.tree.pretty())
    print(str(result.program))
    if denotation is None:
        printable = None
    elif domain.name == "geo":
        printable = render_denotation(denotation)
    else:
        printable = list(denotation)
    print(json.dumps(printable))
    return EXIT_OK


# -- argument parsing --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spansem",
        description="Span-driven semantic parsing toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="generate a dataset directory")
    gen.add_argument("--domain", choices=("scan", "geo"),
                     default=env_default("domain", "scan"))
    gen.add_argument("--split", default=env_default("split", "iid"))
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, default=env_default("seed", 0))
    gen.set_defaults(func=cmd_gen_data)

    tr = sub.add_parser("train", help="train a model on a dataset directory")
    tr.add_argument("--data", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--config", default=env_default("config", None),
                    help="JSON config file; CLI flags override its values")
    tr.add_argument("--lr", type=float, default=None)
    tr.add_argument("--batch-size", type=int, dest="batch_size", default=None)
    tr.add_argument("--max-epochs", type=int, dest="max_epochs", default=None)
    tr.add_argument("--patience", type=int, default=None)
    tr.add_argument("--k", type=int, default=None)
    tr.add_argument("--lam", type=float, default=None)
    tr.add_argument("--momentum", type=float, default=None)
    tr.add_argument("--seed", type=int, default=env_default("seed", None))
    tr.add_argument("--curriculum-epochs", type=int,
                    dest="curriculum_epochs", default=None)
    tr.add_argument("--ternary", action="store_true",
                    default=env_default("ternary", False))
    tr.add_argument("--no-lexicon", action="store_true", dest="no_lexicon",
                    default=env_default("no_lexicon", False))
    tr.add_argument("--gold-trees", action="store_true", dest="gold_trees",
                    default=env_default("gold_trees", False))
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a JSONL file")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True,
                    help="JSONL file inside a dataset directory")
    ev.add_argument("--out", default=None, help="report JSON path")
    ev.add_argument("--jobs", type=int, default=env_default("jobs", 1))
    ev.set_defaults(func=cmd_eval)

    pa = sub.add_parser("parse", help="parse one utterance")
    pa.add_argument("utterance")
    pa.add_argument("--checkpoint", required=True)
    pa.add_argument("--data", default=None,
                    help="dataset directory (defaults to the training one)")
    pa.add_argument("--ternary", action="store_true",
                    default=env_default("ternary", False))
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
