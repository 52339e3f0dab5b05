"""Command-line front end for scoring, meta-evaluation, analysis, tagging,
and corpus conversion.

Every command is a pure function of its config and input files: identical
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
from typing import Callable, Iterator, Sequence

from .basemetrics import SynonymLexicon, load_external_scores
# the benchmark's tests check that its instruments rebind these names here
from .basemetrics import bleu_n, meteor  # noqa: F401
from .core import (
    TAG_DISPLAY_ORDER,
    EvaluationSet,
    TaggedSentence,
    TagSet,
    Token,
    tokenize,
)
from .embed import EmbeddingTable, load_vec
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
    AgreementVector,
    PowerResult,
    bonferroni,
    duplicate_bad,
    kendall_tau,
    paired_ttest,
    pos_distribution,
    predictive_power,
)
from .posmetrics import BASE_METRIC_IDS, Metric, score_sets
from .postag import (
    TaggerModel,
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
DEFAULT_TAGSET_NAME = "adj+adv+verb+propn+noun"
ANALYZE_TAGSET_NAME = "adj+adv+verb+propn+noun+pron"
DEFAULT_GROUPS = "reference,good,bad"

_TRUTHY = {"on", "true", "yes", "1"}
_FALSY = {"off", "false", "no", "0"}


class ConfigError(Exception):
    """Invalid configuration or input; reported on stderr with exit code 2."""


def _resolve_resource(raw: str | None, flag: str, must_exist: bool = True) -> Path | None:
    """Resolve an input path, falling back to POSSCORE_DATA_DIR for relative
    paths that do not exist as given. Missing files name the flag.
    """
    if raw is None:
        return None
    path = Path(raw)
    if not path.is_absolute() and not path.exists():
        root = os.environ.get(ENV_DATA_DIR)
        if root and (Path(root) / path).exists():
            path = Path(root) / path
    if must_exist and not path.exists():
        raise ConfigError(f"{flag}: file not found: {raw}")
    return path


def _parse_bool(value: str | bool | None, flag: str, default: bool) -> bool:
    if value is None:
        return default
    if isinstance(value, bool):
        return value
    lowered = value.strip().lower()
    if lowered in _TRUTHY:
        return True
    if lowered in _FALSY:
        return False
    raise ConfigError(f"{flag}: expected on/off, got {value!r}")


def _parse_tagset(name: str, flag: str = "--tagset") -> TagSet:
    try:
        return TagSet.parse(name)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


@dataclass
class RunConfig:
    """Everything a command needs, resolved from flags and the config file."""

    command: str
    corpus: Path | None = None
    embeddings: Path | None = None
    tags: Path | None = None
    tagger_model: Path | None = None
    tagset: TagSet | None = None
    metrics: list[str] | None = None
    external_scores: Path | None = None
    baseline: str | None = None
    count_punct: bool = True
    aux_as_verb: bool = True
    sample: int | None = None
    seed: int = 0
    out: Path | None = None
    synonyms: Path | None = None
    duplicate_bad: bool = False
    bonferroni: bool = False
    groups: list[str] | None = None
    forum_json: Path | None = None
    train_path: Path | None = None
    epochs: int = 5
    input: Path | None = None
    format: str | None = None


def parse_metric_spec(spec: str, default_tagset: TagSet) -> Metric:
    spec = spec.strip()
    if not spec:
        raise ConfigError("--metrics: empty metric id")
    if spec in BASE_METRIC_IDS:
        return Metric(spec)
    parts = spec.split(":")
    head = parts[0]
    if head == "posscore":
        if len(parts) == 1:
            return Metric("posscore", tagset=default_tagset)
        if len(parts) == 2:
            return Metric("posscore", tagset=_parse_tagset(parts[1], "--metrics"))
        raise ConfigError(f"--metrics: malformed metric id {spec!r}")
    if head in ("pwe", "ptlc"):
        if len(parts) not in (2, 3):
            raise ConfigError(
                f"--metrics: {head} needs the form {head}:<base>[:<tagset>], got {spec!r}"
            )
        base = parts[1]
        if base not in BASE_METRIC_IDS:
            raise ConfigError(
                f"--metrics: unknown base metric {base!r}; expected one of {', '.join(BASE_METRIC_IDS)}"
            )
        tagset = _parse_tagset(parts[2], "--metrics") if len(parts) == 3 else default_tagset
        return Metric(head, base=base, tagset=tagset)
    raise ConfigError(f"--metrics: unknown metric id {spec!r}")


def resolve_metrics(specs: Sequence[str], default_tagset: TagSet) -> list[Metric]:
    resolved = []
    seen = set()
    for spec in specs:
        m = parse_metric_spec(spec, default_tagset)
        if m.metric_id in seen:
            raise ConfigError(f"--metrics: duplicate metric id {m.metric_id!r}")
        seen.add(m.metric_id)
        resolved.append(m)
    return resolved


# ---------------------------------------------------------------------------
# scoring pipeline shared by score / evaluate / correlate

_ROLES = ("ref", "a", "b")


def _load_corpus(cfg: RunConfig) -> list[EvaluationSet]:
    if cfg.corpus is None:
        raise ConfigError("--corpus is required")
    return load_jsonl(cfg.corpus)


def _load_table(
    cfg: RunConfig,
    metrics: Sequence[Metric],
    corpus: Sequence[EvaluationSet],
    tagged: dict[tuple[str, str], TaggedSentence] | None,
) -> EmbeddingTable | None:
    """Load only the `.vec` rows the run's tokens can look up, and only when
    some metric needs embeddings.
    """
    if cfg.embeddings is None or not any(m.needs_embeddings for m in metrics):
        return None
    sentences = (_sentence(ev, role, tagged) for ev in corpus for role in _ROLES)
    vocab = {tok.norm for s in sentences for tok in (s.tokens if tagged is not None else s)}
    return load_vec(cfg.embeddings, vocab_filter=vocab)


def _build_tagged(
    cfg: RunConfig, corpus: Sequence[EvaluationSet]
) -> dict[tuple[str, str], TaggedSentence] | None:
    """Tagged sentences per (set id, role), from a tags file or a tagger model.

    A tags file carries three sentences per evaluation set in corpus order:
    reference, candidate a, candidate b. Its tokenization is authoritative
    for all metrics in the run.
    """
    if cfg.tags is not None:
        sentences = load_tagged(cfg.tags)
        if len(sentences) != 3 * len(corpus):
            raise ConfigError(
                f"--tags: expected {3 * len(corpus)} sentences "
                f"(3 per evaluation set), found {len(sentences)}"
            )
    elif cfg.tagger_model is not None:
        sentences = _tag_texts(load_model(cfg.tagger_model), corpus)
    else:
        return None
    keys = ((ev.id, role) for ev in corpus for role in _ROLES)
    return {
        key: remap_aux_to_verb(sent) if cfg.aux_as_verb else sent
        for key, sent in zip(keys, sentences)
    }


def _tag_texts(model: TaggerModel, corpus: Sequence[EvaluationSet]) -> Iterator[TaggedSentence]:
    """Reference, candidate a and candidate b of each set, tagged in corpus order."""
    for ev in corpus:
        for text in (ev.reference, ev.candidate_a, ev.candidate_b):
            yield run_tagger(model, tokenize(text))


def _apply_duplicate_bad(
    corpus: list[EvaluationSet],
    tagged: dict[tuple[str, str], TaggedSentence] | None,
) -> list[EvaluationSet]:
    """Double the bad candidate's text, and its tagged form when present."""
    if tagged is not None:
        for ev in corpus:
            role = "b" if ev.good_slot == "a" else "a"
            sent = tagged[(ev.id, role)]
            tagged[(ev.id, role)] = TaggedSentence(sent.items + sent.items)
    return duplicate_bad(corpus)


def _validate_metric_resources(
    metrics: Sequence[Metric], cfg: RunConfig, tagged: dict | None
) -> None:
    for m in metrics:
        if m.needs_embeddings and cfg.embeddings is None:
            raise ConfigError(f"metric {m.metric_id!r} requires --embeddings")
        if m.needs_tags and tagged is None:
            raise ConfigError(
                f"metric {m.metric_id!r} requires a tag source (--tags or --tagger-model)"
            )


def _sentence(
    ev: EvaluationSet,
    role: str,
    tagged: dict[tuple[str, str], TaggedSentence] | None,
) -> TaggedSentence | list[Token]:
    """What the metrics score: the tagged sentence, else the tokenized text."""
    if tagged is not None:
        return tagged[(ev.id, role)]
    return tokenize(ev.reference if role == "ref" else ev.candidate(role))


def _join_external(
    cfg: RunConfig, corpus: Sequence[EvaluationSet]
) -> dict[str, dict[str, tuple[float, float]]]:
    """External score files appear as metric id ``ext:<file stem>``."""
    if cfg.external_scores is None:
        return {}
    ext = load_external_scores(cfg.external_scores)
    ext_id = f"ext:{cfg.external_scores.stem}"
    per = {}
    for ev in corpus:
        try:
            per[ev.id] = ext.pair(ev.id)
        except KeyError as exc:
            raise ConfigError(f"--external-scores: {exc.args[0]}") from None
    return {ext_id: per}


@dataclass
class ScoringRun:
    corpus: list[EvaluationSet]
    metric_ids: list[str]
    tagset_names: dict[str, str]
    scores: dict[str, dict[str, tuple[float, float]]]


def _subsample(cfg: RunConfig, corpus: list[EvaluationSet]) -> list[EvaluationSet]:
    if cfg.sample is not None and cfg.sample < len(corpus):
        return reservoir_sample(corpus, cfg.sample, cfg.seed)
    return corpus


def _run_scoring(cfg: RunConfig) -> ScoringRun:
    corpus = _load_corpus(cfg)
    default_tagset = cfg.tagset if cfg.tagset is not None else _parse_tagset(DEFAULT_TAGSET_NAME)
    metrics = resolve_metrics(cfg.metrics or DEFAULT_METRICS.split(","), default_tagset)
    synonyms = SynonymLexicon.load(cfg.synonyms) if cfg.synonyms is not None else None
    # tag alignment is positional against the full corpus, so tag first,
    # sample after; the embedding vocabulary is that of the sampled sets
    tagged = _build_tagged(cfg, corpus)
    corpus = _subsample(cfg, corpus)
    _validate_metric_resources(metrics, cfg, tagged)
    table = _load_table(cfg, metrics, corpus, tagged)
    if cfg.duplicate_bad:
        corpus = _apply_duplicate_bad(corpus, tagged)
    # sentences are built lazily, set by set, as the scoring reaches them
    sets = ((ev.id, *(_sentence(ev, role, tagged) for role in _ROLES)) for ev in corpus)
    scores = score_sets(metrics, sets, table, synonyms, cfg.count_punct)
    tagset_names = {m.metric_id: m.tagset.name if m.tagset else "" for m in metrics}
    for ext_id, per in _join_external(cfg, corpus).items():
        if ext_id in scores:
            raise ConfigError(f"--external-scores: metric id {ext_id!r} already in use")
        scores[ext_id] = per
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


def _require_out(cfg: RunConfig) -> Path:
    if cfg.out is None:
        raise ConfigError("--out is required")
    return cfg.out


# ---------------------------------------------------------------------------
# commands


def cmd_score(cfg: RunConfig) -> int:
    out = _require_out(cfg)
    run = _run_scoring(cfg)
    rows = []
    for ev in sorted(run.corpus, key=lambda e: e.id):
        for slot_idx, slot in enumerate(("a", "b")):
            for mid in run.metric_ids:
                value = run.scores[mid][ev.id][slot_idx]
                rows.append([ev.id, slot, mid, run.tagset_names[mid], repr(value)])
    _write_csv(out, ["set_id", "slot", "metric_id", "tagset", "score"], rows)
    return 0


def _pick_baseline(
    run: ScoringRun, cfg: RunConfig, results: dict[str, PowerResult]
) -> str | None:
    """Explicit --baseline wins; otherwise the best-powered classic baseline."""
    if cfg.baseline is not None:
        if cfg.baseline not in run.scores:
            raise ConfigError(
                f"--baseline: metric {cfg.baseline!r} is not among the computed metrics"
            )
        return cfg.baseline
    candidates = [
        mid
        for mid in run.metric_ids
        if mid in BASE_METRIC_IDS or mid.startswith("ext:")
    ]
    if not candidates:
        return None
    # highest power wins; ties resolve to the lexicographically first id
    return max(sorted(candidates), key=lambda mid: results[mid].power)


def cmd_evaluate(cfg: RunConfig) -> int:
    out = _require_out(cfg)
    run = _run_scoring(cfg)
    vectors: dict[str, AgreementVector] = {}
    results = {}
    for mid in run.metric_ids:
        result, vector = predictive_power(run.corpus, run.scores[mid], mid)
        results[mid] = result
        vectors[mid] = vector
    baseline = _pick_baseline(run, cfg, results)
    n_comparisons = max(len(run.metric_ids) - 1, 1)
    header = ["metric_id", "tagset", "power", "correct", "total", "p_vs_baseline"]
    if cfg.bonferroni:
        header.append("p_bonferroni")
    rows = []
    for mid in run.metric_ids:
        r = results[mid]
        p = paired_ttest(vectors[mid], vectors[baseline]) if baseline is not None else None
        row = [mid, run.tagset_names[mid], repr(r.power), r.correct, r.total]
        row.append("" if p is None else repr(p))
        if cfg.bonferroni:
            row.append("" if p is None else repr(bonferroni(p, n_comparisons)))
        rows.append(row)
    _write_csv(out, header, rows)
    return 0


def cmd_correlate(cfg: RunConfig) -> int:
    out = _require_out(cfg)
    run = _run_scoring(cfg)
    order = sorted(run.corpus, key=lambda e: e.id)
    ids = run.metric_ids
    vectors = {mid: [s for ev in order for s in run.scores[mid][ev.id]] for mid in ids}
    rows = [[mid] + [repr(kendall_tau(vectors[mid], vectors[o])) for o in ids] for mid in ids]
    _write_csv(out, ["metric_id"] + ids, rows)
    return 0


_GROUP_NAMES = ("reference", "good", "bad")


def cmd_analyze(cfg: RunConfig) -> int:
    out = _require_out(cfg)
    corpus = _load_corpus(cfg)
    tagged = _build_tagged(cfg, corpus)
    if tagged is None:
        raise ConfigError("analyze requires a tag source (--tags or --tagger-model)")
    corpus = _subsample(cfg, corpus)
    tagset = cfg.tagset if cfg.tagset is not None else _parse_tagset(ANALYZE_TAGSET_NAME)
    groups = cfg.groups if cfg.groups is not None else DEFAULT_GROUPS.split(",")
    for g in groups:
        if g not in _GROUP_NAMES:
            raise ConfigError(
                f"--groups: unknown group {g!r}; expected a subset of {','.join(_GROUP_NAMES)}"
            )
    out.mkdir(parents=True, exist_ok=True)

    def role(ev: EvaluationSet, group: str) -> str:
        if group == "reference":
            return "ref"
        bad_slot = "b" if ev.good_slot == "a" else "a"
        return ev.good_slot if group == "good" else bad_slot

    rows = []
    for group in groups:
        dist = pos_distribution([tagged[(ev.id, role(ev, group))] for ev in corpus], tagset)
        for t in TAG_DISPLAY_ORDER:
            if t in dist:
                rows.append([group, t.value, repr(dist[t])])
    _write_csv(out / "pos_distribution.csv", ["group", "tag", "mean_count"], rows)

    if cfg.forum_json is not None:
        dialogues = load_forum_json(cfg.forum_json)
        curve = vote_gt_curve(dialogues)
        _write_csv(
            out / "vote_curve.csv",
            ["bin_low", "proportion"],
            [[repr(low), repr(p)] for low, p in curve],
        )
    return 0


def cmd_tag(cfg: RunConfig) -> int:
    out = _require_out(cfg)
    if (cfg.train_path is None) == (cfg.corpus is None):
        raise ConfigError("tag needs exactly one of --train (fit a model) or --corpus (apply one)")
    if cfg.train_path is not None:
        corpus = load_tagged(cfg.train_path)
        if not corpus:
            raise ConfigError("--train: empty training corpus")
        model = train(corpus, epochs=cfg.epochs, seed=cfg.seed)
        save_model(model, out)
        return 0
    if cfg.tagger_model is None:
        raise ConfigError("tag --corpus requires --tagger-model")
    sets = _load_corpus(cfg)
    write_tagged(list(_tag_texts(load_model(cfg.tagger_model), sets)), out)
    return 0


def cmd_convert(cfg: RunConfig) -> int:
    out = _require_out(cfg)
    if cfg.format not in ("usr", "forum"):
        raise ConfigError("--format must be 'usr' or 'forum'")
    if cfg.input is None:
        raise ConfigError("--input is required")
    if cfg.format == "usr":
        sets = _subsample(cfg, build_usr_sets(load_usr_json(cfg.input)))
    else:
        sets = build_forum_sets(load_forum_json(cfg.input), cfg.sample, cfg.seed)
    if not sets:
        raise ConfigError(f"{cfg.input}: no evaluation sets")
    write_jsonl(sets, out)
    return 0


COMMANDS: dict[str, Callable[[RunConfig], int]] = {
    "score": cmd_score,
    "evaluate": cmd_evaluate,
    "analyze": cmd_analyze,
    "correlate": cmd_correlate,
    "tag": cmd_tag,
    "convert": cmd_convert,
}


# ---------------------------------------------------------------------------
# argument parsing and config-file merging


def _add_common(sub: argparse.ArgumentParser, *, metrics: bool) -> None:
    sub.add_argument("--corpus", help="canonical JSONL corpus")
    sub.add_argument("--embeddings", help="fastText-style .vec or .vec.gz file")
    sub.add_argument("--tags", help="pre-tagged file, 3 sentences per set")
    sub.add_argument("--tagger-model", dest="tagger_model", help="trained tagger model file")
    sub.add_argument("--tagset", help="'+'-separated tags, e.g. adj+verb+noun")
    sub.add_argument("--synonyms", help="lemma<TAB>synonym lexicon for METEOR")
    sub.add_argument(
        "--count-punct", dest="count_punct", choices=["on", "off"],
        help="count punctuation tokens in POS-fraction denominators (default on)",
    )
    sub.add_argument(
        "--aux-as-verb", dest="aux_as_verb", choices=["on", "off"],
        help="collapse AUX tags into VERB (default on)",
    )
    if metrics:
        sub.add_argument("--metrics", help=f"comma-separated metric ids (default {DEFAULT_METRICS})")
        sub.add_argument("--external-scores", dest="external_scores", help="set_id,slot,score CSV")
        sub.add_argument(
            "--duplicate-bad", dest="duplicate_bad", action="store_const", const=True,
            help="double the bad candidate's text before scoring (length-bias probe)",
        )
    sub.add_argument("--sample", type=int, help="deterministic subsample size")
    sub.add_argument("--seed", type=int, help="seed for all sampling (default 0)")
    sub.add_argument("--out", help="output path")
    sub.add_argument("--config", help="key=value config file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posscore",
        description="POS-aware evaluation metrics and meta-evaluation for "
        "conversational search responses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_score = sub.add_parser("score", help="per-candidate metric scores")
    _add_common(p_score, metrics=True)

    p_eval = sub.add_parser("evaluate", help="predictive power report")
    _add_common(p_eval, metrics=True)
    p_eval.add_argument("--baseline", help="baseline metric id for significance tests")
    p_eval.add_argument(
        "--bonferroni", action="store_const", const=True,
        help="add a Bonferroni-corrected p-value column",
    )

    p_analyze = sub.add_parser("analyze", help="POS distribution and vote curve")
    _add_common(p_analyze, metrics=False)
    p_analyze.add_argument("--groups", help=f"comma-separated groups (default {DEFAULT_GROUPS})")
    p_analyze.add_argument("--forum-json", dest="forum_json", help="forum JSON for the vote curve")

    p_corr = sub.add_parser("correlate", help="metric-vs-metric Kendall tau matrix")
    _add_common(p_corr, metrics=True)

    p_tag = sub.add_parser("tag", help="train a tagger or tag a corpus")
    _add_common(p_tag, metrics=False)
    p_tag.add_argument("--train", dest="train_path", help="tagged training file")
    p_tag.add_argument("--epochs", type=int, help="training epochs (default 5)")

    p_conv = sub.add_parser("convert", help="convert USR/forum JSON to canonical JSONL")
    _add_common(p_conv, metrics=False)
    p_conv.add_argument("--format", choices=["usr", "forum"], help="input format")
    p_conv.add_argument("--input", help="source JSON file")

    return parser


_CONFIG_INT_KEYS = {"sample", "seed", "epochs"}
_CONFIG_FLAG_KEYS = {"duplicate_bad", "bonferroni"}


def load_config_file(path: Path) -> dict[str, str]:
    """Parse a flat key=value manifest; '#' starts a comment line."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}: line {lineno}: expected key=value")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def make_config(args: argparse.Namespace) -> RunConfig:
    raw = vars(args).copy()
    command = raw.pop("command")
    config_path = raw.pop("config", None)
    if config_path is not None:
        file_values = load_config_file(
            _resolve_resource(config_path, "--config")
        )
        for key, value in file_values.items():
            if key not in raw:
                raise ConfigError(f"--config: unknown key {key!r}")
            if raw[key] is not None:
                continue  # explicit flag wins
            if key in _CONFIG_INT_KEYS:
                try:
                    raw[key] = int(value)
                except ValueError:
                    raise ConfigError(f"--config: {key} must be an integer") from None
            elif key in _CONFIG_FLAG_KEYS:
                raw[key] = _parse_bool(value, f"--config {key}", False)
            else:
                raw[key] = value

    cfg = RunConfig(command=command)
    cfg.corpus = _resolve_resource(raw.get("corpus"), "--corpus")
    cfg.embeddings = _resolve_resource(raw.get("embeddings"), "--embeddings")
    cfg.tags = _resolve_resource(raw.get("tags"), "--tags")
    cfg.tagger_model = _resolve_resource(raw.get("tagger_model"), "--tagger-model")
    cfg.synonyms = _resolve_resource(raw.get("synonyms"), "--synonyms")
    cfg.external_scores = _resolve_resource(raw.get("external_scores"), "--external-scores")
    cfg.forum_json = _resolve_resource(raw.get("forum_json"), "--forum-json")
    cfg.train_path = _resolve_resource(raw.get("train_path"), "--train")
    cfg.input = _resolve_resource(raw.get("input"), "--input")
    if raw.get("tagset") is not None:
        cfg.tagset = _parse_tagset(raw["tagset"])
    if raw.get("metrics") is not None:
        cfg.metrics = [m.strip() for m in raw["metrics"].split(",") if m.strip()]
        if not cfg.metrics:
            raise ConfigError("--metrics: empty metric list")
    if raw.get("groups") is not None:
        cfg.groups = [g.strip() for g in raw["groups"].split(",") if g.strip()]
    cfg.baseline = raw.get("baseline")
    cfg.count_punct = _parse_bool(raw.get("count_punct"), "--count-punct", True)
    cfg.aux_as_verb = _parse_bool(raw.get("aux_as_verb"), "--aux-as-verb", True)
    cfg.duplicate_bad = bool(raw.get("duplicate_bad") or False)
    cfg.bonferroni = bool(raw.get("bonferroni") or False)
    cfg.sample = raw.get("sample")
    if cfg.sample is not None and cfg.sample < 1:
        raise ConfigError("--sample must be >= 1")
    cfg.seed = raw.get("seed") if raw.get("seed") is not None else 0
    cfg.epochs = raw.get("epochs") if raw.get("epochs") is not None else 5
    if cfg.epochs < 1:
        raise ConfigError("--epochs must be >= 1")
    cfg.format = raw.get("format")
    if raw.get("out") is not None:
        cfg.out = Path(raw["out"])
    return cfg


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = make_config(args)
        return COMMANDS[cfg.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
