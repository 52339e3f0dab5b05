"""Metamorphic relations of the CLI: two runs whose inputs mean the same
thing must write the same bytes. No expected values are needed.

A seeded workspace of a few hundred sets is rewritten by one relation at a
time, and `score`, `evaluate` and `correlate` run on the rewritten inputs
must reproduce the outputs of the unchanged run:
- corpus lines permuted, with the tags file permuted alike;
- `.vec` rows shuffled;
- the `--metrics` list reversed;
- tied lines, which the loader skips, inserted into the corpus.

A second check runs every command that writes a file under two hash seeds,
in subprocesses, and compares the bytes.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from posscore.cli import main
from posscore.core import PosTag, TaggedSentence, tokenize
from posscore.metaeval import AgreementVector, paired_ttest
from posscore.postag import write_tagged

# An order-dependent float sum shows only in the last digits of some
# p-values, so the workspace has many sets and evaluate many metric ids, one
# p-value each; with 200-400 sets and 6 ids, most seeds did not show one.
# score and correlate need fewer ids.
SETS = 500
LENGTHS = (3, 8)
METRICS = {
    "score": ["bleu2", "meteor", "posscore"],
    "evaluate": ["bleu1", "bleu2", "bleu3", "bleu4", "ea", "meteor", "posscore", "ptlc:bleu1",
                 "pwe:bleu2"],
    "correlate": ["bleu2", "meteor", "posscore"],
}
FUNCTION_WORDS = {"the": "DET", "a": "DET", "of": "ADP", "in": "ADP", "is": "AUX",
                  "it": "PRON", "and": "CONJ", "not": "PART"}
CONTENT_TAGS = ["NOUN"] * 5 + ["VERB"] * 3 + ["ADJ"] * 2 + ["ADV", "PROPN"]


def _vocabulary(rng: random.Random) -> dict[str, str]:
    """Word -> tag: the function words and 150 made-up content words."""
    words = dict(FUNCTION_WORDS)
    while len(words) < len(FUNCTION_WORDS) + 150:
        word = "".join(rng.choice("bdfgklmnprstvz") + rng.choice("aeiou") for _ in range(3))
        words.setdefault(word, rng.choice(CONTENT_TAGS))
    return words


def _sentence(rng: random.Random, vocab: list[str], n: int) -> list[str]:
    return [rng.choice(list(FUNCTION_WORDS)) if rng.random() < 0.3 else rng.choice(vocab)
            for _ in range(n)]


def _candidate(rng: random.Random, vocab: list[str], ref: list[str]) -> tuple[list[str], float]:
    """A copy of ref with a random share of its words replaced, and a human
    score that falls with that share plus noise.
    """
    keep = rng.random()
    words = [w if rng.random() < keep else rng.choice(vocab) for w in ref]
    return words, round(1 + 4 * keep + rng.uniform(-1, 1), 2)


def _text(words: list[str]) -> str:
    return " ".join(words) + "."


def write_workspace(root: Path, seed: int) -> None:
    """corpus.jsonl, tags.tsv and vectors.vec of SETS sets with distinct
    human scores; every token has a tag and a vector.
    """
    rng = random.Random(seed)
    tags = _vocabulary(rng)
    tags["."] = "PUNCT"
    content = [w for w in tags if w not in FUNCTION_WORDS and w != "."]
    lines, sentences = [], []
    while len(lines) < SETS:
        ref = _sentence(rng, content, rng.randint(*LENGTHS))
        (a, human_a), (b, human_b) = _candidate(rng, content, ref), _candidate(rng, content, ref)
        if human_a == human_b:
            continue
        texts = [_text(ref), _text(a), _text(b)]
        lines.append(json.dumps({
            "id": f"s{len(lines):04d}", "context": [], "reference": texts[0],
            "candidates": [{"text": texts[1], "human": human_a},
                           {"text": texts[2], "human": human_b}],
        }))
        sentences += [TaggedSentence(tuple((tok, PosTag[tags[tok.norm]]) for tok in tokenize(t)))
                      for t in texts]
    (root / "corpus.jsonl").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    write_tagged(sentences, root / "tags.tsv")
    rows = [w + "".join(f" {rng.uniform(-1, 1):.4f}" for _ in range(8)) for w in tags]
    (root / "vectors.vec").write_text(f"{len(rows)} 8\n" + "\n".join(rows) + "\n",
                                      encoding="utf-8")


def _tag_blocks(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").strip("\n").split("\n\n")


def _write_tag_blocks(path: Path, blocks: list[str]) -> None:
    path.write_text("\n\n".join(blocks) + "\n", encoding="utf-8")


def permute_lines(src: Path, dst: Path, rng: random.Random) -> None:
    lines = (src / "corpus.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    blocks = _tag_blocks(src / "tags.tsv")
    order = list(range(len(lines)))
    rng.shuffle(order)
    (dst / "corpus.jsonl").write_text("".join(lines[i] for i in order), encoding="utf-8")
    _write_tag_blocks(dst / "tags.tsv", [b for i in order for b in blocks[3 * i:3 * i + 3]])


def shuffle_vec_rows(src: Path, dst: Path, rng: random.Random) -> None:
    header, *rows = (src / "vectors.vec").read_text(encoding="utf-8").splitlines(keepends=True)
    rng.shuffle(rows)
    (dst / "vectors.vec").write_text(header + "".join(rows), encoding="utf-8")


def insert_tied_lines(src: Path, dst: Path, rng: random.Random) -> None:
    # the loader skips a set whose candidates share a human score, and a tags
    # file covers only the sets it keeps, so tags.tsv stays as it is
    lines = (src / "corpus.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    for k in range(20):
        obj = json.loads(lines[rng.randrange(len(lines))])
        obj["id"] = f"tied{k}"
        for cand in obj["candidates"]:
            cand["human"] = 3.0
        lines.insert(rng.randrange(len(lines) + 1), json.dumps(obj) + "\n")
    (dst / "corpus.jsonl").write_text("".join(lines), encoding="utf-8")


def reverse_metrics(src: Path, dst: Path, rng: random.Random) -> None:
    """Nothing to rewrite: the run gets the --metrics list reversed."""


RELATIONS = {
    "permuted-lines": permute_lines,
    "shuffled-vec-rows": shuffle_vec_rows,
    "reversed-metrics": reverse_metrics,
    "tied-lines": insert_tied_lines,
}


def run(root: Path, command: str, metrics: list[str], out: Path) -> bytes:
    assert main([command, "--corpus", str(root / "corpus.jsonl"),
                 "--tags", str(root / "tags.tsv"), "--embeddings", str(root / "vectors.vec"),
                 "--metrics", ",".join(metrics), "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("metamorphic")
    write_workspace(root, seed=5)
    return root


@pytest.fixture(scope="module")
def unchanged(workspace, tmp_path_factory):
    out = tmp_path_factory.mktemp("unchanged")
    return {c: run(workspace, c, METRICS[c], out / f"{c}.csv") for c in METRICS}


@pytest.mark.parametrize("relation", RELATIONS)
@pytest.mark.parametrize("command", METRICS)
def test_equivalent_inputs_give_equal_bytes(workspace, unchanged, tmp_path, relation, command):
    for name in ("corpus.jsonl", "tags.tsv", "vectors.vec"):
        (tmp_path / name).write_bytes((workspace / name).read_bytes())
    RELATIONS[relation](workspace, tmp_path, random.Random(relation))
    metrics = METRICS[command][::-1] if relation == "reversed-metrics" else METRICS[command]
    assert run(tmp_path, command, metrics, tmp_path / "out.csv") == unchanged[command]


@settings(derandomize=True, max_examples=50)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=2, max_size=100),
       st.randoms(use_true_random=False))
def test_paired_ttest_ignores_set_order(pairs, rng):
    ids = [f"s{i}" for i in range(len(pairs))]
    shuffled = rng.sample(pairs, len(pairs))

    def p_value(flags):
        a, b = zip(*flags)
        return paired_ttest(AgreementVector(tuple(ids), a), AgreementVector(tuple(ids), b))

    assert p_value(shuffled) == p_value(pairs)


HASH_SEED_SCRIPT = """
import sys
from pathlib import Path
from posscore.cli import main

ws, out = Path(sys.argv[1]), Path(sys.argv[2])
scoring = ["--corpus", str(ws / "corpus.jsonl"), "--tags", str(ws / "tags.tsv"),
           "--embeddings", str(ws / "vectors.vec"), "--external-scores", str(ws / "external.csv"),
           "--synonyms", str(ws / "synonyms.tsv"),
           "--metrics", "posscore,pwe:meteor,ptlc:bleu1,bleu1,bleu2,meteor,ea,posscore:verb"]
runs = [
    ["score", *scoring, "--out", str(out / "score.csv")],
    ["evaluate", *scoring, "--bonferroni", "--out", str(out / "evaluate.csv")],
    ["correlate", *scoring, "--out", str(out / "correlate.csv")],
    ["analyze", "--corpus", str(ws / "corpus.jsonl"), "--tags", str(ws / "tags.tsv"),
     "--forum-json", str(ws / "forum.json"), "--out", str(out / "analyze")],
    ["tag", "--train", str(ws / "tags.tsv"), "--epochs", "3", "--out", str(out / "model.tsv")],
    ["tag", "--corpus", str(ws / "corpus.jsonl"), "--tagger-model", str(out / "model.tsv"),
     "--out", str(out / "tagged.tsv")],
]
for argv in runs:
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
"""


def test_outputs_do_not_depend_on_the_hash_seed(cli_workspace, tmp_path):
    # every run in one process shares one str hash seed, so output that
    # follows the iteration order of a set of strings looks stable there
    src = str(Path(__file__).parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    procs = {}
    for seed in ("0", "1"):
        (tmp_path / seed).mkdir()
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": pythonpath}
        procs[seed] = subprocess.Popen(
            [sys.executable, "-c", HASH_SEED_SCRIPT, str(cli_workspace), str(tmp_path / seed)],
            env=env)
    outputs = {}
    for seed, proc in procs.items():
        assert proc.wait() == 0
        out = tmp_path / seed
        outputs[seed] = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert sorted(map(str, outputs["0"])) == [
        "analyze/pos_distribution.csv", "analyze/vote_curve.csv", "correlate.csv",
        "evaluate.csv", "model.tsv", "score.csv", "tagged.tsv"]
    assert outputs["0"] == outputs["1"]
