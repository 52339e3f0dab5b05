"""Report oracle: `evaluate` and `correlate` must equal, byte for byte, the
reports rebuilt from the `score` CSV of the same flags through
`predictive_power`, `paired_ttest`, `bonferroni` and `kendall_tau`.

The automatic baseline is written out here on its own: the best-powered id
without a tag set (a base metric or `ext:` scores), the first such id in id
order on a tie, and no baseline (empty p columns) when there is none.
"""

import csv
import io

import pytest

from posscore.cli import main
from posscore.ingest import load_jsonl, reservoir_sample
from posscore.metaeval import bonferroni, kendall_tau, paired_ttest, predictive_power


def read_score_csv(path):
    """metric id -> (tag set name, set id -> (score a, score b))."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["set_id", "slot", "metric_id", "tagset", "score"]
    tagsets, slots = {}, {}
    for set_id, slot, mid, tagset, value in rows[1:]:
        assert tagsets.setdefault(mid, tagset) == tagset
        slots.setdefault(mid, {}).setdefault(set_id, {})[slot] = float(value)
    return {
        mid: (tagsets[mid], {sid: (v["a"], v["b"]) for sid, v in per_set.items()})
        for mid, per_set in slots.items()
    }


def csv_bytes(header, rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def auto_baseline(columns, powers):
    best = None
    for mid in sorted(columns):
        if columns[mid][0] == "" and (best is None or powers[mid].power > powers[best].power):
            best = mid
    return best


def evaluate_report(corpus, columns, baseline, with_bonferroni) -> bytes:
    ids = sorted(columns)
    powers, vectors = {}, {}
    for mid in ids:
        powers[mid], vectors[mid] = predictive_power(corpus, columns[mid][1], mid)
    header = ["metric_id", "tagset", "power", "correct", "total", "p_vs_baseline"]
    header += ["p_bonferroni"] if with_bonferroni else []
    rows = []
    for mid in ids:
        r = powers[mid]
        row = [mid, columns[mid][0], repr(r.power), str(r.correct), str(r.total)]
        if baseline is None:
            row += [""] * (1 + with_bonferroni)
        else:
            p = paired_ttest(vectors[mid], vectors[baseline])
            row.append(repr(p))
            if with_bonferroni:
                row.append(repr(bonferroni(p, max(len(ids) - 1, 1))))
        rows.append(row)
    return csv_bytes(header, rows)


def correlate_report(corpus, columns) -> bytes:
    ids = sorted(columns)
    set_ids = sorted(ev.id for ev in corpus)
    vectors = {mid: [s for sid in set_ids for s in columns[mid][1][sid]] for mid in ids}
    rows = [[x] + [repr(kendall_tau(vectors[x], vectors[y])) for y in ids] for x in ids]
    return csv_bytes(["metric_id"] + ids, rows)


@pytest.fixture(scope="module")
def tie_scores(cli_workspace, tmp_path_factory):
    """External scores that follow the human order except on s1: 5 of 6 sets
    right, as `ea` is on the fixture corpus, but wrong on another set.
    """
    path = tmp_path_factory.mktemp("oracle") / "tie.csv"
    lines = ["set_id,slot,score"]
    for ev in load_jsonl(cli_workspace / "corpus.jsonl"):
        a, b = (ev.human_b, ev.human_a) if ev.id == "s1" else (ev.human_a, ev.human_b)
        lines += [f"{ev.id},a,{a!r}", f"{ev.id},b,{b!r}"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


#: name -> (scoring flags, evaluate-only flags, the baseline the case is about)
CASES = {
    "external-auto-baseline": (
        ["--metrics", "posscore,ea,pwe:ea", "--external-scores", "{ws}/external.csv"],
        [],
        "ext:external",
    ),
    "explicit-baseline-bonferroni": (
        ["--metrics", "bleu1,bleu2,meteor,ptlc:bleu1", "--synonyms", "{ws}/synonyms.tsv",
         "--duplicate-bad", "--sample", "4", "--seed", "3"],
        ["--baseline", "meteor", "--bonferroni"],
        "meteor",
    ),
    "pos-only-no-baseline": (
        ["--metrics", "posscore,posscore:verb+noun,pwe:ea,ptlc:meteor"],
        ["--bonferroni"],
        None,
    ),
    "tie-goes-to-first-id": (
        ["--metrics", "posscore,ea", "--external-scores", "{tie}"],
        [],
        "ea",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_reports_match_the_score_csv_oracle(case, cli_workspace, tie_scores, tmp_path):
    scoring, eval_only, expected_baseline = CASES[case]
    scoring = [f.format(ws=cli_workspace, tie=tie_scores) for f in scoring]
    scoring += ["--corpus", str(cli_workspace / "corpus.jsonl"),
                "--tags", str(cli_workspace / "tags.tsv"),
                "--embeddings", str(cli_workspace / "vectors.vec")]
    out = {cmd: tmp_path / f"{cmd}.csv" for cmd in ("score", "evaluate", "correlate")}
    assert main(["score", *scoring, "--out", str(out["score"])]) == 0
    assert main(["evaluate", *scoring, *eval_only, "--out", str(out["evaluate"])]) == 0
    assert main(["correlate", *scoring, "--out", str(out["correlate"])]) == 0

    columns = read_score_csv(out["score"])
    corpus = load_jsonl(cli_workspace / "corpus.jsonl")
    if "--sample" in scoring:
        k, seed = (int(scoring[scoring.index(f) + 1]) for f in ("--sample", "--seed"))
        corpus = [corpus[i] for i in reservoir_sample(range(len(corpus)), k, seed)]
    powers = {mid: predictive_power(corpus, columns[mid][1])[0] for mid in columns}
    baseline = "meteor" if "--baseline" in eval_only else auto_baseline(columns, powers)
    assert baseline == expected_baseline
    with_bonferroni = "--bonferroni" in eval_only
    expected = evaluate_report(corpus, columns, baseline, with_bonferroni)
    assert out["evaluate"].read_bytes() == expected
    assert out["correlate"].read_bytes() == correlate_report(corpus, columns)

    if case == "tie-goes-to-first-id":
        # the tie is real, and picking the other tied id would change the report
        assert powers["ea"].power == powers["ext:tie"].power
        assert evaluate_report(corpus, columns, "ext:tie", with_bonferroni) != expected
