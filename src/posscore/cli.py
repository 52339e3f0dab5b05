"""Command-line front end: parses flags and config files, runs each command
on the library pipeline (`posmetrics.prepare_corpus`, then `score_corpus` for
score, evaluate and correlate) and writes its output. Identical inputs give
identical bytes; no score goes through BLAS, and only libm's exp, log and
lgamma (BLEU, POSSCORE's w, p-values) stay platform-dependent, as measured on
glibc only. Exit codes: 0 success, 1 internal error, 2 invalid config or input.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import traceback
from pathlib import Path
from typing import Callable, Sequence

# perfbench/test_perfbench.py::test_instruments_restore_every_binding checks
# that the benchmark's instruments rebind these names here and restore them
from .basemetrics import bleu_n, meteor  # noqa: F401
from .core import DEFAULT_TAG_SET, FULL_TAG_SET, TAG_DISPLAY_ORDER, EvaluationSet, TagSet, open_text
from .ingest import (
    build_forum_sets, build_usr_sets, load_forum_json, load_jsonl, load_usr_json,
    reservoir_sample, vote_gt_curve, write_jsonl,
)
from .metaeval import bonferroni, kendall_tau, paired_ttest, pos_distribution, predictive_power
from .posmetrics import Metric, Response, Row, prepare_corpus, score_corpus
from .postag import load_tagged, save_model, train, write_tagged

ENV_DATA_DIR = "POSSCORE_DATA_DIR"

DEFAULT_METRICS = "bleu1,bleu2,bleu3,bleu4,meteor"
DEFAULT_GROUPS = "reference,good,bad"

# ---------------------------------------------------------------------------
# flag values: argparse converts each once, from the command line and from a
# config file alike, and reports a bad one as "argument --flag: ..."


def _input_path(raw: str) -> Path:
    """An input file. A relative path that does not exist as given falls back
    to POSSCORE_DATA_DIR.
    """
    path = Path(raw)
    if not path.is_absolute() and not path.exists():
        root = os.environ.get(ENV_DATA_DIR)
        if root and (Path(root) / path).exists():
            path = Path(root) / path
    if not path.exists():
        raise argparse.ArgumentTypeError(f"file not found: {raw}")
    if path.is_dir():
        raise argparse.ArgumentTypeError(f"is a directory: {raw}")
    return path


def _on_off(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("on", "true", "yes", "1"):
        return True
    if lowered in ("off", "false", "no", "0"):
        return False
    raise argparse.ArgumentTypeError(f"expected on/off, got {value!r}")


def _positive_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}") from None
    if number < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {number}")
    return number


def _parse_tagset(name: str) -> TagSet:
    # argparse reports a ValueError as "invalid value"; keep TagSet.parse's reason
    try:
        return TagSet.parse(name)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _list(value: str) -> list[str]:
    items = [item.strip() for item in value.split(",") if item.strip()]
    if not items:
        raise argparse.ArgumentTypeError(f"empty list {value!r}")
    return items


_GROUP_NAMES = ("reference", "good", "bad")


def _groups(value: str) -> list[str]:
    groups = _list(value)
    for g in groups:
        if g not in _GROUP_NAMES:
            raise argparse.ArgumentTypeError(
                f"unknown group {g!r}; expected a subset of {','.join(_GROUP_NAMES)}"
            )
    return groups


def resolve_metrics(specs: Sequence[str], default_tagset: TagSet) -> list[Metric]:
    resolved: dict[str, Metric] = {}
    for spec in specs:
        try:
            m = Metric.parse(spec, default_tagset)
        except ValueError as exc:
            raise ValueError(f"--metrics: {exc}") from None
        if m.metric_id in resolved:
            raise ValueError(f"--metrics: duplicate metric id {m.metric_id!r}")
        resolved[m.metric_id] = m
    return list(resolved.values())


# ---------------------------------------------------------------------------
# the pipeline keywords a command passes on, each the name of one of its flags

_PREPARE_KEYWORDS = ("tags", "tagger_model", "aux_as_verb", "sample", "seed")
_SCORE_KEYWORDS = ("embeddings", "synonyms", "external_scores", "count_punct", "duplicate_bad")


def _score_corpus(args: argparse.Namespace) -> tuple[list[EvaluationSet], dict]:
    corpus = load_jsonl(args.corpus)
    metrics = resolve_metrics(args.metrics, args.tagset)
    rows = prepare_corpus(corpus, **{k: getattr(args, k) for k in _PREPARE_KEYWORDS})
    return score_corpus(rows, metrics, **{k: getattr(args, k) for k in _SCORE_KEYWORDS})


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# commands


def cmd_score(args: argparse.Namespace) -> int:
    corpus, table = _score_corpus(args)
    rows = [
        [ev.id, slot, mid, tagset, repr(scores[ev.id][k])]
        for ev in corpus
        for k, slot in enumerate(("a", "b"))
        for mid, (tagset, scores) in table.items()
    ]
    _write_csv(args.out, ["set_id", "slot", "metric_id", "tagset", "score"], rows)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    corpus, table = _score_corpus(args)
    powers = {mid: predictive_power(corpus, scores, mid) for mid, (_, scores) in table.items()}
    baseline = args.baseline
    if baseline is None:
        # the best-powered id without a tag set; max keeps the first id on a tie
        baseline = max((mid for mid, (tagset, _) in table.items() if not tagset),
                       key=lambda mid: powers[mid][0].power, default=None)
    elif baseline not in table:
        raise ValueError(f"--baseline: metric {baseline!r} is not among the computed metrics")
    if baseline is not None and len(corpus) < 2:
        sample = f" with --sample {args.sample}" if args.sample is not None else ""
        raise ValueError(f"--corpus {args.corpus}{sample} gives {len(corpus)} evaluation set; "
                         f"the paired t-test against baseline {baseline!r} needs at least 2")
    n_comparisons = max(len(table) - 1, 1)
    header = ["metric_id", "tagset", "power", "correct", "total", "p_vs_baseline"]
    header += ["p_bonferroni"] if args.bonferroni else []
    rows = []
    for mid, (tagset, _) in table.items():
        r, vector = powers[mid]
        p = paired_ttest(vector, powers[baseline][1]) if baseline is not None else None
        row = [mid, tagset, repr(r.power), r.correct, r.total, "" if p is None else repr(p)]
        if args.bonferroni:
            row.append("" if p is None else repr(bonferroni(p, n_comparisons)))
        rows.append(row)
    _write_csv(args.out, header, rows)
    return 0


def cmd_correlate(args: argparse.Namespace) -> int:
    corpus, table = _score_corpus(args)
    ids = list(table)
    vectors = {mid: [s for ev in corpus for s in scores[ev.id]]
               for mid, (_, scores) in table.items()}
    taus: dict[tuple[str, str], str] = {}
    for i, mid in enumerate(ids):  # tau-b is exactly symmetric: compute each pair once
        for o in ids[i:]:
            taus[mid, o] = taus[o, mid] = repr(kendall_tau(vectors[mid], vectors[o]))
    rows = [[mid] + [taus[mid, o] for o in ids] for mid in ids]
    _write_csv(args.out, ["metric_id"] + ids, rows)
    return 0


def _group_response(row: Row, group: str) -> Response:
    ev, ref, a, b = row
    if group == "reference":
        return ref
    slot = ev.good_slot if group == "good" else ev.bad_slot
    return a if slot == "a" else b


def cmd_analyze(args: argparse.Namespace) -> int:
    corpus = load_jsonl(args.corpus)
    if args.tags is None and args.tagger_model is None:
        raise ValueError("analyze requires a tag source (--tags or --tagger-model)")
    rows = prepare_corpus(corpus, **{k: getattr(args, k) for k in _PREPARE_KEYWORDS})
    args.out.mkdir(parents=True, exist_ok=True)
    table = []
    for group in args.groups:
        dist = pos_distribution([_group_response(row, group) for row in rows], args.tagset)
        for t in TAG_DISPLAY_ORDER:
            if t in dist:
                table.append([group, t.value, repr(dist[t])])
    _write_csv(args.out / "pos_distribution.csv", ["group", "tag", "mean_count"], table)

    if args.forum_json is not None:
        dialogues = load_forum_json(args.forum_json)
        curve = vote_gt_curve(dialogues)
        _write_csv(
            args.out / "vote_curve.csv",
            ["bin_low", "proportion"],
            [[repr(low), repr(p)] for low, p in curve],
        )
    return 0


def cmd_tag(args: argparse.Namespace) -> int:
    if args.train is not None and args.tagger_model is not None:
        raise ValueError("give --train or --tagger-model, not both")
    if (args.train is None) == (args.corpus is None):
        raise ValueError("tag needs exactly one of --train (fit a model) or --corpus (apply one)")
    if args.train is not None:
        corpus = load_tagged(args.train)
        if not corpus:
            raise ValueError(f"{args.train}: empty training corpus")
        model = train(corpus, epochs=args.epochs, seed=args.seed)
        save_model(model, args.out)
        return 0
    if args.tagger_model is None:
        raise ValueError("tag --corpus requires --tagger-model")
    rows = prepare_corpus(load_jsonl(args.corpus), tagger_model=args.tagger_model,
                          aux_as_verb=False)
    write_tagged([sentence for row in rows for sentence in row[1:]], args.out)
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    if args.format not in ("usr", "forum"):  # argparse skips `choices` for a config value
        raise ValueError(f"--config {args.config}: --format must be 'usr' or 'forum'")
    if args.format == "usr":
        sets = build_usr_sets(load_usr_json(args.input))
    else:
        sets = build_forum_sets(load_forum_json(args.input))
    if args.sample is not None:
        sets = reservoir_sample(sets, args.sample, args.seed)
    if not sets:
        raise ValueError(f"{args.input}: no evaluation sets")
    write_jsonl(sets, args.out)
    return 0


COMMANDS: dict[str, Callable[[argparse.Namespace], int]] = {
    "score": cmd_score,
    "evaluate": cmd_evaluate,
    "analyze": cmd_analyze,
    "correlate": cmd_correlate,
    "tag": cmd_tag,
    "convert": cmd_convert,
}


# ---------------------------------------------------------------------------
# argument parsing; a config file only supplies the command's defaults

#: An on/off flag, off unless given; given bare, it means on.
_ON_OFF = dict(type=_on_off, nargs="?", const=True, default=False, metavar="{on,off}")

#: Every flag by its long name. A config key is that name.
_FLAGS: dict[str, dict] = {
    "corpus": {"type": _input_path, "help": "canonical JSONL corpus"},
    "embeddings": {"type": _input_path, "help": "fastText-style .vec or .vec.gz file"},
    "tags": {"type": _input_path, "help": "pre-tagged file, 3 sentences per set"},
    "tagger-model": {"type": _input_path, "help": "trained tagger model file"},
    "tagset": {
        "type": _parse_tagset, "default": DEFAULT_TAG_SET.name,
        "help": "'+'-separated tags, e.g. adj+verb+noun (default %(default)s)",
    },
    "synonyms": {"type": _input_path, "help": "lemma<TAB>synonym lexicon for METEOR"},
    "count-punct": {
        **_ON_OFF, "default": True,
        "help": "count punctuation tokens in POS-fraction denominators (default on)",
    },
    "aux-as-verb": {
        **_ON_OFF, "default": True,
        "help": "collapse AUX tags into VERB (default on)",
    },
    "metrics": {
        "type": _list, "default": DEFAULT_METRICS,
        "help": "comma-separated metric ids (default %(default)s)",
    },
    "external-scores": {"type": _input_path, "help": "set_id,slot,score CSV"},
    "duplicate-bad": {
        **_ON_OFF,
        "help": "double the bad candidate's text before scoring (length-bias probe)",
    },
    "baseline": {"help": "baseline metric id for significance tests"},
    "bonferroni": {**_ON_OFF, "help": "add a Bonferroni-corrected p-value column"},
    "groups": {
        "type": _groups, "default": DEFAULT_GROUPS,
        "help": "comma-separated groups (default %(default)s)",
    },
    "forum-json": {"type": _input_path, "help": "forum JSON for the vote curve"},
    "train": {"type": _input_path, "help": "tagged training file"},
    "epochs": {"type": _positive_int, "default": 5, "help": "training epochs (default %(default)s)"},
    "format": {"choices": ["usr", "forum"], "help": "input format"},
    "input": {"type": _input_path, "help": "source JSON file"},
    "sample": {"type": _positive_int, "help": "deterministic subsample size"},
    "seed": {"type": int, "default": 0, "help": "seed for all sampling (default %(default)s)"},
    "out": {"type": Path, "help": "output path"},
    "config": {"type": _input_path, "help": "key=value config file; flags override it"},
}

_SCORING_FLAGS = (
    "corpus", "embeddings", "tags", "tagger-model", "tagset", "synonyms", "count-punct",
    "aux-as-verb", "metrics", "external-scores", "duplicate-bad", "sample", "seed", "out",
    "config",
)
_OUT_AND_CORPUS = ("out", "corpus")

#: (help, flags it reads, flags it requires) of each command; a config file may supply any.
_COMMAND_FLAGS: dict[str, tuple[str, tuple[str, ...], tuple[str, ...]]] = {
    "score": ("per-candidate metric scores", _SCORING_FLAGS, _OUT_AND_CORPUS),
    "evaluate": (
        "predictive power report", _SCORING_FLAGS + ("baseline", "bonferroni"), _OUT_AND_CORPUS
    ),
    "analyze": (
        "POS distribution and vote curve",
        ("corpus", "tags", "tagger-model", "tagset", "aux-as-verb", "groups", "forum-json",
         "sample", "seed", "out", "config"),
        _OUT_AND_CORPUS,
    ),
    "correlate": ("metric-vs-metric Kendall tau matrix", _SCORING_FLAGS, _OUT_AND_CORPUS),
    "tag": (
        "train a tagger or tag a corpus",
        ("train", "epochs", "corpus", "tagger-model", "seed", "out", "config"),
        ("out",),
    ),
    "convert": (
        "convert USR/forum JSON to canonical JSONL",
        ("format", "input", "sample", "seed", "out", "config"),
        ("out", "format", "input"),
    ),
}


class _Parser(argparse.ArgumentParser):
    """Raises ValueError in place of exiting: `main` returns 2 for any bad flag or value."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and the subparser of each command."""
    parser = _Parser(
        prog="posscore",
        description="POS-aware evaluation metrics and meta-evaluation for "
        "conversational search responses",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags, _) in _COMMAND_FLAGS.items():
        p = sub.add_parser(command, help=help_text)
        for name in flags:
            p.add_argument(f"--{name}", **_FLAGS[name])
    sub.choices["analyze"].set_defaults(tagset=FULL_TAG_SET.name)
    return parser, sub.choices


def load_config_file(path: Path) -> dict[str, str]:
    """Parse a flat key=value manifest; '#' starts a comment line. Keys are
    long flag names; underscores read as dashes. A key may appear once.
    """
    values, lines = {}, {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip().replace("_", "-")
            if key in lines:
                raise ValueError(f"{path}: line {lineno}: key {key!r} repeats line {lines[key]}")
            values[key], lines[key] = value.strip(), lineno
    return values


def parse_args(argv: Sequence[str] | None = None) -> argparse.Namespace:
    """Parse the flags. With --config, the file's values become the command's
    defaults and the flags are parsed again, so that flags win and each
    value goes through its flag's converter. Then check the required flags.
    """
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    _, flags, required = _COMMAND_FLAGS[args.command]
    if args.config is not None:
        defaults = {}
        for key, value in load_config_file(args.config).items():
            if key not in flags or key == "config":
                raise ValueError(f"--config {args.config}: unknown key {key!r}")
            defaults[key.replace("-", "_")] = value
        commands[args.command].set_defaults(**defaults)
        try:
            args = parser.parse_args(argv)
        except ValueError as exc:
            raise ValueError(f"--config {args.config}: {exc}") from None
    for name in required:
        if getattr(args, name) is None:
            raise ValueError(f"--{name} is required")
    return args


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = parse_args(argv)
        return COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not of its input
        # an exception from a scoring child of score_corpus brings its own innermost frame
        where = getattr(exc, "posscore_frame", None) or traceback.extract_tb(exc.__traceback__)[-1]
        place = f"{Path(where.filename).name}:{where.lineno} in {where.name}"
        print(f"internal error: {type(exc).__name__}: {exc} ({place})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
