"""Command-line front end for scoring, meta-evaluation, analysis, tagging,
and corpus conversion.

Every command is a pure function of its flags and input files: identical
inputs produce byte-identical outputs. Exit codes: 0 success, 1 internal
error, 2 invalid config or input.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .basemetrics import SynonymLexicon, load_external_scores
# the benchmark's tests check that its instruments rebind these names here
from .basemetrics import bleu_n, meteor  # noqa: F401
from .core import (
    DEFAULT_TAG_SET,
    FULL_TAG_SET,
    TAG_DISPLAY_ORDER,
    EvaluationSet,
    TaggedSentence,
    TagSet,
    tokenize,
)
from .embed import load_vec
from .ingest import (
    build_forum_sets,
    build_usr_sets,
    load_forum_json,
    load_jsonl,
    load_usr_json,
    reservoir_sample,
    vote_gt_curve,
    write_jsonl,
)
from .metaeval import (
    PowerResult,
    bonferroni,
    kendall_tau,
    paired_ttest,
    pos_distribution,
    predictive_power,
)
from .posmetrics import Metric, Response, score_sets
from .postag import (
    load_model,
    load_tagged,
    remap_aux_to_verb,
    save_model,
    tag as run_tagger,
    train,
    write_tagged,
)

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
# scoring pipeline shared by score / evaluate / correlate

#: One evaluation set with what the metrics score for its reference and its
#: two candidates: tagged sentences when the run has a tag source, else the
#: tokenized texts.
Row = tuple[EvaluationSet, Response, Response, Response]


def _texts(corpus: Iterable[EvaluationSet]) -> Iterator[str]:
    """Reference, candidate a and candidate b of each set, in corpus order."""
    for ev in corpus:
        yield from (ev.reference, ev.candidate_a, ev.candidate_b)


def _has_tag_source(args: argparse.Namespace) -> bool:
    return args.tags is not None or args.tagger_model is not None


def _rows(args: argparse.Namespace, corpus: list[EvaluationSet]) -> list[Row]:
    """One row per sampled set, each response tagged or tokenized once.

    A tags file carries three sentences per evaluation set of the whole
    corpus, in corpus order: reference, candidate a, candidate b. Its
    tokenization is authoritative for all metrics in the run.
    """
    # the sample depends on positions and the seed only: draw it first, and
    # tag or tokenize only the picked sets
    picked = _subsample(args, range(len(corpus)))
    sampled = [corpus[i] for i in picked]
    if args.tags is not None:
        sentences = load_tagged(args.tags)
        if len(sentences) != 3 * len(corpus):
            raise ValueError(
                f"--tags: expected {3 * len(corpus)} sentences "
                f"(3 per evaluation set), found {len(sentences)}"
            )
        sentences = [sentences[3 * i + k] for i in picked for k in range(3)]
    elif args.tagger_model is not None:
        model = load_model(args.tagger_model)
        pairs = {}  # one (token, tag) pair per distinct pair of the run
        sentences = [run_tagger(model, tokenize(text), pairs) for text in _texts(sampled)]
    else:
        sentences = [tokenize(text) for text in _texts(sampled)]
    if _has_tag_source(args) and args.aux_as_verb:
        # in place, so that a sentence and its folded copy are not both kept
        for j, sentence in enumerate(sentences):
            sentences[j] = remap_aux_to_verb(sentence)
    it = iter(sentences)
    return list(zip(sampled, it, it, it))


def _duplicate_bad(row: Row) -> Row:
    """The bad candidate said twice, as tokenize(f"{text} {text}") would give it."""
    ev, *responses = row
    i = 1 if ev.bad_slot == "a" else 2
    bad = responses[i]
    responses[i] = TaggedSentence(bad.items * 2) if isinstance(bad, TaggedSentence) else bad * 2
    return (ev, *responses)


@dataclass
class ScoringRun:
    corpus: list[EvaluationSet]
    metric_ids: list[str]
    tagset_names: dict[str, str]
    scores: dict[str, dict[str, tuple[float, float]]]


def _subsample(args: argparse.Namespace, items: Iterable) -> list:
    if args.sample is None:
        return list(items)
    return reservoir_sample(items, args.sample, args.seed)


def _run_scoring(args: argparse.Namespace) -> ScoringRun:
    corpus = load_jsonl(args.corpus)
    metrics = resolve_metrics(args.metrics, args.tagset)
    for m in metrics:
        if m.needs_embeddings and args.embeddings is None:
            raise ValueError(f"metric {m.metric_id!r} requires --embeddings")
        if m.needs_tags and not _has_tag_source(args):
            raise ValueError(
                f"metric {m.metric_id!r} requires a tag source (--tags or --tagger-model)"
            )
    synonyms = SynonymLexicon.load(args.synonyms) if args.synonyms is not None else None
    rows = _rows(args, corpus)
    table = None
    if args.embeddings is not None and any(m.needs_embeddings for m in metrics):
        # load only the `.vec` rows the run's tokens can look up
        vocab = {tok.norm for row in rows for r in row[1:]
                 for tok in (r.tokens if isinstance(r, TaggedSentence) else r)}
        table = load_vec(args.embeddings, vocab_filter=vocab)
        if not table.index:
            raise ValueError(f"{args.embeddings}: no token of the run has a vector in this file")
    if args.duplicate_bad:
        rows = [_duplicate_bad(row) for row in rows]
    sets = ((ev.id, ref, a, b) for ev, ref, a, b in rows)
    scores = score_sets(metrics, sets, table, synonyms, args.count_punct)
    tagset_names = {m.metric_id: m.tagset.name if m.tagset else "" for m in metrics}
    corpus = [row[0] for row in rows]
    if args.external_scores is not None:
        # an external score file joins the run as metric id ext:<file stem>
        ext = load_external_scores(args.external_scores)
        ext_id = f"ext:{args.external_scores.stem}"
        try:
            scores[ext_id] = {ev.id: ext.pair(ev.id) for ev in corpus}
        except KeyError as exc:
            raise ValueError(f"--external-scores: {exc.args[0]}") from None
        tagset_names[ext_id] = ""
    return ScoringRun(
        corpus=corpus,
        metric_ids=sorted(scores),
        tagset_names=tagset_names,
        scores=scores,
    )


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# commands


def cmd_score(args: argparse.Namespace) -> int:
    run = _run_scoring(args)
    rows = []
    for ev in sorted(run.corpus, key=lambda e: e.id):
        for slot_idx, slot in enumerate(("a", "b")):
            for mid in run.metric_ids:
                value = run.scores[mid][ev.id][slot_idx]
                rows.append([ev.id, slot, mid, run.tagset_names[mid], repr(value)])
    _write_csv(args.out, ["set_id", "slot", "metric_id", "tagset", "score"], rows)
    return 0


def _pick_baseline(
    run: ScoringRun, args: argparse.Namespace, results: dict[str, PowerResult]
) -> str | None:
    """Explicit --baseline wins; otherwise the best-powered classic baseline."""
    if args.baseline is not None:
        if args.baseline not in run.scores:
            raise ValueError(
                f"--baseline: metric {args.baseline!r} is not among the computed metrics"
            )
        return args.baseline
    # base metrics and external scores are the ids without a tag set
    candidates = [mid for mid in run.metric_ids if not run.tagset_names[mid]]
    if not candidates:
        return None
    # highest power wins; ties resolve to the lexicographically first id
    return max(sorted(candidates), key=lambda mid: results[mid].power)


def cmd_evaluate(args: argparse.Namespace) -> int:
    run = _run_scoring(args)
    results, vectors = {}, {}
    for mid in run.metric_ids:
        results[mid], vectors[mid] = predictive_power(run.corpus, run.scores[mid], mid)
    baseline = _pick_baseline(run, args, results)
    n_comparisons = max(len(run.metric_ids) - 1, 1)
    header = ["metric_id", "tagset", "power", "correct", "total", "p_vs_baseline"]
    if args.bonferroni:
        header.append("p_bonferroni")
    rows = []
    for mid in run.metric_ids:
        r = results[mid]
        p = paired_ttest(vectors[mid], vectors[baseline]) if baseline is not None else None
        row = [mid, run.tagset_names[mid], repr(r.power), r.correct, r.total]
        row.append("" if p is None else repr(p))
        if args.bonferroni:
            row.append("" if p is None else repr(bonferroni(p, n_comparisons)))
        rows.append(row)
    _write_csv(args.out, header, rows)
    return 0


def cmd_correlate(args: argparse.Namespace) -> int:
    run = _run_scoring(args)
    order = sorted(run.corpus, key=lambda e: e.id)
    ids = run.metric_ids
    vectors = {mid: [s for ev in order for s in run.scores[mid][ev.id]] for mid in ids}
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
    if not _has_tag_source(args):
        raise ValueError("analyze requires a tag source (--tags or --tagger-model)")
    rows = _rows(args, corpus)
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
    if (args.train is None) == (args.corpus is None):
        raise ValueError("tag needs exactly one of --train (fit a model) or --corpus (apply one)")
    if args.train is not None:
        corpus = load_tagged(args.train)
        if not corpus:
            raise ValueError("--train: empty training corpus")
        model = train(corpus, epochs=args.epochs, seed=args.seed)
        save_model(model, args.out)
        return 0
    if args.tagger_model is None:
        raise ValueError("tag --corpus requires --tagger-model")
    corpus = load_jsonl(args.corpus)
    model = load_model(args.tagger_model)
    pairs = {}
    write_tagged([run_tagger(model, tokenize(text), pairs) for text in _texts(corpus)], args.out)
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    if args.format not in ("usr", "forum"):  # argparse skips `choices` for a config value
        raise ValueError(f"--config {args.config}: --format must be 'usr' or 'forum'")
    if args.format == "usr":
        sets = build_usr_sets(load_usr_json(args.input))
    else:
        sets = build_forum_sets(load_forum_json(args.input))
    sets = _subsample(args, sets)
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
    with open(path, encoding="utf-8") as fh:
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
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
