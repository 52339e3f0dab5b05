"""Metamorphic relations of the CLI: two runs whose inputs mean the same
thing must write the same bytes. No expected values are needed.

Two seeded workspaces of a few hundred sets are rewritten by one relation
at a time, and `score`, `evaluate` and `correlate` run on the rewritten
inputs must reproduce the outputs of the unchanged run:
- corpus lines permuted, with the tags file permuted alike;
- candidates a and b swapped, with their human scores and tags sentences
  (`score` swaps its slot column);
- set ids renamed through an order-preserving map (`score` renames its id
  column);
- `.vec` rows shuffled, or rows that no token uses appended;
- the `--metrics` list reversed;
- tied lines, which the loader skips, inserted into the corpus;
- `--sample N` with N the number of sets;
- the flags given through `--config` instead.

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


def _corpus_lines(root: Path) -> list[str]:
    return (root / "corpus.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)


def _rewrite_sets(root: Path, edit) -> None:
    """Apply edit to the JSON object of every corpus line."""
    objs = [json.loads(line) for line in _corpus_lines(root)]
    for obj in objs:
        edit(obj)
    (root / "corpus.jsonl").write_text("".join(json.dumps(o) + "\n" for o in objs),
                                       encoding="utf-8")


# Each relation rewrites the copied workspace at root and returns the argv
# of the equivalent run, given that of the unchanged one.


def permute_lines(root: Path, argv: list[str], rng: random.Random) -> list[str]:
    lines, blocks = _corpus_lines(root), _tag_blocks(root / "tags.tsv")
    order = list(range(len(lines)))
    rng.shuffle(order)
    (root / "corpus.jsonl").write_text("".join(lines[i] for i in order), encoding="utf-8")
    _write_tag_blocks(root / "tags.tsv", [b for i in order for b in blocks[3 * i:3 * i + 3]])
    return argv


def swap_candidates(root: Path, argv: list[str], rng: random.Random) -> list[str]:
    # each candidate keeps its human score, and its tags sentence moves with it
    _rewrite_sets(root, lambda obj: obj["candidates"].reverse())
    blocks = _tag_blocks(root / "tags.tsv")
    blocks[1::3], blocks[2::3] = blocks[2::3], blocks[1::3]
    _write_tag_blocks(root / "tags.tsv", blocks)
    return argv


def rename(set_id: str) -> str:
    """An order-preserving map of the workspace's set ids (s0000 to s0499)."""
    return f"run-{3 * int(set_id[1:]) + 10:05d}"


def rename_ids(root: Path, argv: list[str], rng: random.Random) -> list[str]:
    _rewrite_sets(root, lambda obj: obj.update(id=rename(obj["id"])))
    return argv


def shuffle_vec_rows(root: Path, argv: list[str], rng: random.Random) -> list[str]:
    header, *rows = (root / "vectors.vec").read_text(encoding="utf-8").splitlines(keepends=True)
    rng.shuffle(rows)
    (root / "vectors.vec").write_text(header + "".join(rows), encoding="utf-8")
    return argv


def add_unused_vec_rows(root: Path, argv: list[str], rng: random.Random) -> list[str]:
    # no made-up word starts with a vowel, so no token of the corpus is `unused<k>`
    rows = (root / "vectors.vec").read_text(encoding="utf-8").splitlines()[1:]
    rows += [f"unused{k}" + "".join(f" {rng.uniform(-1, 1):.6f}" for _ in range(8))
             for k in range(50)]
    (root / "vectors.vec").write_text(f"{len(rows)} 8\n" + "\n".join(rows) + "\n",
                                      encoding="utf-8")
    return argv


def insert_tied_lines(root: Path, argv: list[str], rng: random.Random) -> list[str]:
    # the loader skips a set whose candidates share a human score, and a tags
    # file covers only the sets it keeps, so tags.tsv stays as it is
    lines = _corpus_lines(root)
    for k in range(20):
        obj = json.loads(lines[rng.randrange(len(lines))])
        obj["id"] = f"tied{k}"
        for cand in obj["candidates"]:
            cand["human"] = 3.0
        lines.insert(rng.randrange(len(lines) + 1), json.dumps(obj) + "\n")
    (root / "corpus.jsonl").write_text("".join(lines), encoding="utf-8")
    return argv


def reverse_metrics(root: Path, argv: list[str], rng: random.Random) -> list[str]:
    i = argv.index("--metrics") + 1
    return [*argv[:i], ",".join(argv[i].split(",")[::-1]), *argv[i + 1:]]


def sample_every_set(root: Path, argv: list[str], rng: random.Random) -> list[str]:
    return [*argv, "--sample", str(SETS), "--seed", "7"]


def flags_from_config(root: Path, argv: list[str], rng: random.Random) -> list[str]:
    command, *flags = argv
    (root / "run.cfg").write_text(
        "".join(f"{flag[2:]}={value}\n" for flag, value in zip(flags[::2], flags[1::2])),
        encoding="utf-8")
    return [command, "--config", str(root / "run.cfg")]


RELATIONS = {
    "permuted-lines": permute_lines,
    "swapped-candidates": swap_candidates,
    "renamed-ids": rename_ids,
    "shuffled-vec-rows": shuffle_vec_rows,
    "unused-vec-rows": add_unused_vec_rows,
    "reversed-metrics": reverse_metrics,
    "tied-lines": insert_tied_lines,
    "sample-of-every-set": sample_every_set,
    "config-file": flags_from_config,
}


def swap_slots(rows: list[list[str]]) -> list[list[str]]:
    # score writes rows by set id, then slot, then metric id
    for row in rows:
        row[1] = {"a": "b", "b": "a"}[row[1]]
    return sorted(rows, key=lambda row: row[:2])  # stable: keeps each slot's metric order


def rename_rows(rows: list[list[str]]) -> list[list[str]]:
    return [[rename(row[0]), *row[1:]] for row in rows]


def edit_score_rows(data: bytes, edit) -> bytes:
    """The output of score with edit applied to its rows, each a list of fields."""
    header, *lines = data.decode("utf-8").splitlines()
    rows = edit([line.split(",") for line in lines])
    return "".join(f"{line}\n" for line in [header, *map(",".join, rows)]).encode("utf-8")


#: How a relation changes the bytes that `score` writes; those of evaluate
#: and correlate, and of score under every other relation, stay the same.
SCORE_EDITS = {"swapped-candidates": swap_slots, "renamed-ids": rename_rows}


def arguments(root: Path, command: str, out: Path) -> list[str]:
    return [command, "--corpus", str(root / "corpus.jsonl"), "--tags", str(root / "tags.tsv"),
            "--embeddings", str(root / "vectors.vec"), "--metrics", ",".join(METRICS[command]),
            "--out", str(out)]


def run(argv: list[str], out: Path) -> bytes:
    assert main(argv) == 0
    return out.read_bytes()


@pytest.fixture(scope="module", params=[5, 2], ids=["seed5", "seed2"])
def workspace(request, tmp_path_factory):
    root = tmp_path_factory.mktemp("metamorphic")
    write_workspace(root, seed=request.param)
    return root


@pytest.fixture(scope="module")
def unchanged(workspace, tmp_path_factory):
    out = tmp_path_factory.mktemp("unchanged")
    return {c: run(arguments(workspace, c, out / f"{c}.csv"), out / f"{c}.csv") for c in METRICS}


@pytest.mark.parametrize("relation", RELATIONS)
@pytest.mark.parametrize("command", METRICS)
def test_equivalent_inputs_give_equal_bytes(workspace, unchanged, tmp_path, relation, command):
    for name in ("corpus.jsonl", "tags.tsv", "vectors.vec"):
        (tmp_path / name).write_bytes((workspace / name).read_bytes())
    out = tmp_path / "out.csv"
    argv = RELATIONS[relation](tmp_path, arguments(tmp_path, command, out), random.Random(relation))
    want = unchanged[command]
    if command == "score" and relation in SCORE_EDITS:
        want = edit_score_rows(want, SCORE_EDITS[relation])
    assert run(argv, out) == want


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
