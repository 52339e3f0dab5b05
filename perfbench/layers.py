"""Per-layer metrics of one traced command, from its spans and observations.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans. Per-call timings
are inclusive (a METEOR call's time includes its Porter stemming). A p99
is reported only when the command made at least ``P99_MIN_CALLS`` calls,
and reads 0 otherwise; every count and time reads 0 on a workload that
does not exercise the layer.
"""

from __future__ import annotations

import numpy as np

from tracing import LAYERS, TraceError

P99_MIN_CALLS = 1000

_COMMON = (
    "cli.main", "ingest.load_jsonl", "embed.load_vec", "embed.average_embedding",
    "posmetrics.posscore", "posmetrics.pos_split",
)

#: Spans that must fire on each workload; a missing one fails the run
#: loudly instead of reading 0 after a rename.
EXPECTED_SPANS = {
    "eval_short": _COMMON + (
        "postag.load_tagged", "posmetrics.pwe", "posmetrics.ptlc", "basemetrics.bleu_n",
        "basemetrics.meteor", "stem.porter_stem", "metaeval.predictive_power",
        "metaeval.paired_ttest",
    ),
    "embed_large": _COMMON + ("postag.load_tagged", "basemetrics.embedding_average"),
    "correlate_long": _COMMON + (
        "postag.load_model", "postag.tag", "core.tokenize", "posmetrics.pwe", "posmetrics.ptlc",
        "basemetrics.bleu_n", "basemetrics.meteor", "basemetrics.embedding_average",
        "stem.porter_stem", "metaeval.kendall_tau",
    ),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(workload: str, spans: dict, obs: dict, info: dict) -> dict[str, float]:
    names = [str(n) for n in spans["names"]]
    name_id = spans["name_id"]
    parent = spans["parent"]
    dur = spans["end"] - spans["start"]
    nested = parent >= 0
    child_time = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    self_time = dur - child_time

    ids = {n: i for i, n in enumerate(names)}
    fired = set(np.unique(name_id).tolist())
    missing = [s for s in EXPECTED_SPANS[workload] if s not in ids or ids[s] not in fired]
    if missing:
        raise TraceError(f"{workload}: expected spans never fired: {', '.join(missing)}")

    def mask(name: str) -> np.ndarray:
        if name not in ids:
            raise TraceError(f"no span named {name}")
        return name_id == ids[name]

    def calls(name: str) -> int:
        return int(mask(name).sum())

    def total_s(name: str) -> float:
        # outermost calls only, so a function that re-enters itself is not counted twice
        m = mask(name)
        outer = m & ~np.isin(parent, np.flatnonzero(m))
        return float(dur[outer].sum())

    def us(name: str, q: float) -> float:
        d = dur[mask(name)]
        if not len(d) or (q > 50 and len(d) < P99_MIN_CALLS):
            return 0.0
        return float(np.percentile(d, q)) * 1e6

    layer_of = np.array([n.partition(".")[0] for n in names])[name_id]
    out: dict[str, float] = {f"{layer}.self_s": float(self_time[layer_of == layer].sum()) for layer in LAYERS}

    load_vec_s = total_s("embed.load_vec")
    rows = obs.get("table_rows", 0)
    out["embed.load_vec_s"] = load_vec_s
    out["embed.rows_per_s"] = _ratio(info["vec_rows"], load_vec_s)
    out["embed.useful_row_ratio"] = _ratio(obs.get("table_found", 0), rows)
    out["embed.table_mb"] = rows * obs.get("table_dim", 0) * obs.get("table_itemsize", 0) / 2**20
    out["embed.average_embedding_calls"] = calls("embed.average_embedding")
    out["embed.average_embedding_us_p50"] = us("embed.average_embedding", 50)

    out["ingest.load_jsonl_s"] = total_s("ingest.load_jsonl")
    load_tagged_s = total_s("postag.load_tagged")
    out["postag.load_tagged_s"] = load_tagged_s
    out["postag.tokens_per_s"] = _ratio(obs["tagged_tokens"], load_tagged_s)
    out["postag.load_model_s"] = total_s("postag.load_model")
    out["postag.tag_s"] = total_s("postag.tag")
    out["postag.tag_calls"] = calls("postag.tag")
    out["core.tokenize_s"] = total_s("core.tokenize")

    out["stem.porter_stem_calls"] = obs["porter_stem_calls"]
    out["stem.porter_stem_s"] = total_s("stem.porter_stem")
    out["stem.distinct_ratio"] = _ratio(obs["porter_stem_distinct"], obs["porter_stem_calls"])

    meteor = mask("basemetrics.meteor")
    out["basemetrics.meteor_calls"] = int(meteor.sum())
    out["basemetrics.meteor_self_s"] = float(self_time[meteor].sum())
    out["basemetrics.meteor_us_p50"] = us("basemetrics.meteor", 50)
    out["basemetrics.meteor_us_p99"] = us("basemetrics.meteor", 99)
    out["basemetrics.meteor_inexact"] = obs["meteor_inexact"]
    out["basemetrics.bleu_n_calls"] = calls("basemetrics.bleu_n")
    out["basemetrics.bleu_n_us_p50"] = us("basemetrics.bleu_n", 50)
    out["basemetrics.embedding_average_us_p50"] = us("basemetrics.embedding_average", 50)

    out["posmetrics.posscore_us_p50"] = us("posmetrics.posscore", 50)
    out["posmetrics.pwe_us_p50"] = us("posmetrics.pwe", 50)
    out["posmetrics.ptlc_us_p50"] = us("posmetrics.ptlc", 50)
    out["posmetrics.pos_split_calls"] = obs["pos_split_calls"]
    out["posmetrics.pos_split_redundancy"] = _ratio(obs["pos_split_calls"], obs["pos_split_distinct"])

    out["metaeval.predictive_power_s"] = total_s("metaeval.predictive_power")
    out["metaeval.paired_ttest_s"] = total_s("metaeval.paired_ttest")
    out["metaeval.kendall_tau_s"] = total_s("metaeval.kendall_tau")
    out["metaeval.kendall_tau_calls"] = calls("metaeval.kendall_tau")
    return out
