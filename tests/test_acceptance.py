"""Acceptance gate: one test per release criterion, at the stated tolerances.

Criteria 6 and 7 depend on external data (real word vectors, full corpora)
located via POSSCORE_DATA_DIR; they skip with an explanatory message when
that data is absent and report measured values when it is present.
"""

import csv
import math
import os
import random
import time
from pathlib import Path

import pytest

from posscore.basemetrics import bleu_n, meteor
from posscore.cli import main as cli_main
from posscore.core import EvaluationSet, PosTag, TaggedSentence, TagSet, Token
from posscore.embed import load_vec
from posscore.metaeval import (
    AgreementVector,
    kendall_tau,
    paired_ttest,
    predictive_power,
)
from posscore.posmetrics import pos_weight, posscore
from posscore.stem import porter_stem

from conftest import FIXED_TAGS, random_tagged_sentence
from oracles import brute_bleu, brute_meteor, scipy_kendall_tau, scipy_paired_ttest

DEFAULT = TagSet.parse("adj+adv+verb+propn+noun")


def report(criterion: int, verdict: str, detail: str) -> None:
    print(f"criterion {criterion}: {verdict}: {detail}")


def test_c01_formula_fidelity():
    rng = random.Random(101)
    started = time.perf_counter()
    for _ in range(1000):
        n_ref = rng.uniform(1e-6, 1.0)
        n_cand = rng.uniform(1e-6, 1.0)
        w = pos_weight(n_ref, n_cand)
        assert abs(w - math.exp(1.0 - n_ref / n_cand)) <= 1e-12
        if n_ref > n_cand:
            assert w < 1.0
        elif n_ref < n_cand:
            assert w > 1.0
        assert abs(pos_weight(n_ref, n_ref) - 1.0) <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(1, "PASS", f"1000 weight evaluations, branch law + closed form, {elapsed:.3f}s")


def test_c02_posscore_identity(toy_table):
    pos_vocab = [w for w, t in FIXED_TAGS.items() if PosTag[t] in DEFAULT.members]
    other_vocab = [w for w in FIXED_TAGS if w not in pos_vocab]
    rng = random.Random(202)
    for _ in range(100):
        picks = [rng.choice(pos_vocab) for _ in range(rng.randint(1, 4))]
        picks += [rng.choice(other_vocab) for _ in range(rng.randint(1, 4))]
        rng.shuffle(picks)
        sent = TaggedSentence(
            tuple((Token(w), PosTag[FIXED_TAGS[w]]) for w in picks)
        )
        value = posscore(sent, sent, DEFAULT, toy_table).value
        assert abs(value - 2.0) <= 1e-9, picks
    report(2, "PASS", "self-score 2.0 within 1e-9 on 100 sentences")


def test_c03_duplication_invariance(toy_table):
    rng = random.Random(303)
    bleu_changed = 0
    for _ in range(100):
        ref = random_tagged_sentence(rng, 2, 8)
        cand = random_tagged_sentence(rng, 2, 8)
        doubled = TaggedSentence(cand.items + cand.items)
        once = posscore(ref, cand, DEFAULT, toy_table).value
        twice = posscore(ref, doubled, DEFAULT, toy_table).value
        assert once == twice, (ref, cand)
        ref_toks = list(ref.tokens)
        if bleu_n(ref_toks, list(cand.tokens), 4).value != bleu_n(
            ref_toks, list(doubled.tokens), 4
        ).value:
            bleu_changed += 1
    assert bleu_changed >= 1
    report(
        3,
        "PASS",
        f"bit-exact on 100 pairs; BLEU-4 moved on {bleu_changed}/100 (contrast)",
    )


def test_c04_oracle_equivalence():
    rng = random.Random(404)
    vocab = [f"w{i}" for i in range(10)] + ["running", "runs"]
    started = time.perf_counter()
    for _ in range(20):
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        cand = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        ref_toks = [Token(w) for w in ref]
        cand_toks = [Token(w) for w in cand]
        for n in (1, 2, 3, 4):
            got = bleu_n(ref_toks, cand_toks, n).value
            assert abs(got - brute_bleu(ref, cand, n)) <= 1e-9, (ref, cand, n)
        got = meteor(ref_toks, cand_toks).value
        assert abs(got - brute_meteor(ref, cand, porter_stem)) <= 1e-9, (ref, cand)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    report(4, "PASS", f"BLEU-1..4 + METEOR vs brute force, 20 pairs, {elapsed:.2f}s")


def test_c05_algorithm_semantics():
    # 10 sets; metric agrees on 6, disagrees on 3, ties on 1
    corpus = []
    scores = {}
    plan = [("agree", 6), ("disagree", 3), ("tie", 1)]
    k = 0
    for outcome, count in plan:
        for _ in range(count):
            corpus.append(
                EvaluationSet(f"s{k}", (), "r", "x", "y", human_a=5.0, human_b=1.0)
            )
            if outcome == "agree":
                scores[f"s{k}"] = (0.9, 0.1)
            elif outcome == "disagree":
                scores[f"s{k}"] = (0.1, 0.9)
            else:
                scores[f"s{k}"] = (0.5, 0.5)
            k += 1
    result, vector = predictive_power(corpus, scores)
    assert result.correct == 6 and result.total == 10
    assert result.power == 0.6

    transforms = [
        math.exp,
        lambda v: v ** 3,
        lambda v: 2.0 * v + 1.0,
        math.atan,
        lambda v: v / (1.0 + abs(v)),
    ]
    for f in transforms:
        warped = {sid: (f(a), f(b)) for sid, (a, b) in scores.items()}
        _, warped_vector = predictive_power(corpus, warped)
        assert warped_vector == vector
    report(5, "PASS", "power 6/10 with tie counted incorrect; 5 transforms invariant")


TABLE1_REFERENCE = [
    ("I", "PRON"), ("am", "AUX"), ("competing", "VERB"), ("for", "ADP"),
    ("a", "DET"), ("national", "ADJ"), ("chess", "NOUN"), ("tournament", "NOUN"),
    (".", "PUNCT"), ("It", "PRON"), ("helps", "VERB"), ("me", "PRON"),
    ("keep", "VERB"), ("focus", "NOUN"), (".", "PUNCT"),
]
TABLE1_GOOD = [
    ("Chess", "NOUN"), ("tournaments", "NOUN"), ("protein", "NOUN"),
    ("makes", "VERB"), ("your", "PRON"), ("brain", "NOUN"), ("more", "ADV"),
    ("activate", "VERB"), ("for", "ADP"), ("intense", "ADJ"), ("chess", "NOUN"),
    ("matches", "NOUN"), (".", "PUNCT"),
]
TABLE1_BAD = [
    ("I", "PRON"), ("am", "AUX"), ("a", "DET"), ("professional", "ADJ"),
    ("chess", "NOUN"), ("player", "NOUN"), (".", "PUNCT"),
]


def _find_real_vectors() -> Path | None:
    root = os.environ.get("POSSCORE_DATA_DIR")
    if not root:
        return None
    hits = sorted(Path(root).glob("*.vec")) + sorted(Path(root).glob("*.vec.gz"))
    return hits[0] if hits else None


def test_c06_ordering_on_annotated_example():
    vec_path = _find_real_vectors()
    if vec_path is None:
        report(6, "SKIP", "no *.vec under POSSCORE_DATA_DIR; ordering check needs real vectors")
        pytest.skip("real word vectors not available (set POSSCORE_DATA_DIR)")
    wanted = {
        w.casefold()
        for pairs in (TABLE1_REFERENCE, TABLE1_GOOD, TABLE1_BAD)
        for w, _ in pairs
    }
    table = load_vec(vec_path, vocab_filter=wanted)
    ref = TaggedSentence.from_strings(TABLE1_REFERENCE)
    good = TaggedSentence.from_strings(TABLE1_GOOD)
    bad = TaggedSentence.from_strings(TABLE1_BAD)
    good_score = posscore(ref, good, DEFAULT, table).value
    bad_score = posscore(ref, bad, DEFAULT, table).value
    assert good_score > bad_score, (good_score, bad_score)
    report(
        6,
        "PASS",
        f"good {good_score:.3f} > bad {bad_score:.3f} (absolute values reported, not gated)",
    )


_REPLICATION_TARGETS = [("tc", 0.740), ("pc", 0.689), ("msdialog", 0.569)]


def test_c07_dataset_scale_replication(tmp_path):
    root = os.environ.get("POSSCORE_DATA_DIR")
    vec_path = _find_real_vectors()
    if not root or vec_path is None:
        report(7, "SKIP", "full corpora/vectors not present under POSSCORE_DATA_DIR")
        pytest.skip("dataset-scale corpora not available (set POSSCORE_DATA_DIR)")
    missing = []
    findings = []
    for name, expected in _REPLICATION_TARGETS:
        corpus_path = Path(root) / f"{name}.jsonl"
        tags_path = Path(root) / f"{name}.tags.tsv"
        if not corpus_path.exists() or not tags_path.exists():
            missing.append(name)
            continue
        out = tmp_path / f"{name}.csv"
        started = time.perf_counter()
        rc = cli_main(
            [
                "evaluate",
                "--corpus", str(corpus_path),
                "--tags", str(tags_path),
                "--embeddings", str(vec_path),
                "--metrics", "posscore",
                "--out", str(out),
            ]
        )
        elapsed = time.perf_counter() - started
        assert rc == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = {r["metric_id"]: r for r in csv.DictReader(fh)}
        power = float(rows["posscore"]["power"])
        delta = power - expected
        note = "within ±0.05" if abs(delta) <= 0.05 else (
            "outside ±0.05; see run report for tokenizer/tagger provenance"
        )
        findings.append(f"{name}: power {power:.3f} vs {expected:.3f} ({note}, {elapsed:.1f}s)")
    if not findings:
        report(7, "SKIP", f"corpora missing: {', '.join(missing)}")
        pytest.skip("no replication corpora found")
    report(7, "REPORTED", "; ".join(findings + [f"missing: {m}" for m in missing]))


def test_c08_statistics_fidelity():
    rng = random.Random(808)
    checked_t = checked_tau = 0
    for _ in range(50):
        n = rng.randint(3, 30)
        ids = tuple(f"s{i}" for i in range(n))
        xs = [rng.randint(0, 1) for _ in range(n)]
        ys = [rng.randint(0, 1) for _ in range(n)]
        got = paired_ttest(
            AgreementVector(ids, tuple(xs)), AgreementVector(ids, tuple(ys))
        )
        diffs = {x - y for x, y in zip(xs, ys)}
        if len(diffs) > 1:
            assert abs(got - scipy_paired_ttest(xs, ys)) <= 1e-6
            checked_t += 1
    for _ in range(50):
        n = rng.randint(2, 40)
        x = [rng.randint(0, 6) / 6 for _ in range(n)]
        y = [rng.randint(0, 6) / 6 for _ in range(n)]
        want = scipy_kendall_tau(x, y)
        got = kendall_tau(x, y)
        if math.isnan(want):
            assert got == 0.0
        else:
            assert abs(got - want) <= 1e-6
            checked_tau += 1
    assert checked_t >= 30 and checked_tau >= 30
    report(8, "PASS", f"t-test ({checked_t} non-degenerate) and tau-b ({checked_tau}) vs oracle")


def test_c09_cli_determinism(cli_workspace, tmp_path):
    ws = cli_workspace
    model = tmp_path / "model.tsv"
    assert cli_main(
        ["tag", "--train", str(ws / "tags.tsv"), "--epochs", "2", "--out", str(model)]
    ) == 0

    commands = {
        "score": [
            "score",
            "--corpus", str(ws / "corpus.jsonl"),
            "--tags", str(ws / "tags.tsv"),
            "--embeddings", str(ws / "vectors.vec"),
            "--metrics", "posscore,pwe:meteor,ptlc:bleu1,bleu4,ea",
            "--synonyms", str(ws / "synonyms.tsv"),
        ],
        "evaluate": [
            "evaluate",
            "--corpus", str(ws / "corpus.jsonl"),
            "--tags", str(ws / "tags.tsv"),
            "--embeddings", str(ws / "vectors.vec"),
            "--metrics", "posscore,bleu1,meteor",
            "--external-scores", str(ws / "external.csv"),
            "--bonferroni",
        ],
        "correlate": [
            "correlate",
            "--corpus", str(ws / "corpus.jsonl"),
            "--metrics", "bleu1,bleu2,meteor",
        ],
        "analyze": [
            "analyze",
            "--corpus", str(ws / "corpus.jsonl"),
            "--tags", str(ws / "tags.tsv"),
            "--forum-json", str(ws / "forum.json"),
        ],
        "tag": [
            "tag",
            "--corpus", str(ws / "corpus.jsonl"),
            "--tagger-model", str(model),
        ],
        "convert": [
            "convert",
            "--format", "forum",
            "--input", str(ws / "forum.json"),
            "--sample", "3",
            "--seed", "5",
        ],
    }

    def output_bytes(path: Path) -> bytes:
        if path.is_dir():
            return b"".join(
                child.name.encode() + b"\0" + child.read_bytes()
                for child in sorted(path.iterdir())
            )
        return path.read_bytes()

    for name, argv in commands.items():
        first = tmp_path / f"{name}-1.out"
        second = tmp_path / f"{name}-2.out"
        assert cli_main(argv + ["--out", str(first)]) == 0, name
        assert cli_main(argv + ["--out", str(second)]) == 0, name
        assert output_bytes(first) == output_bytes(second), name
    report(9, "PASS", f"byte-identical reruns across {len(commands)} commands")
