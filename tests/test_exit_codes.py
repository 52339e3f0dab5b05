"""The exit-code contract: a bad input exits 2 with a message that names the
file (and its line) or the flag at fault; no input makes a command exit 1.

`test_mutated_inputs_exit_0_or_2` is a seeded mutation test. Each case
damages the bytes of one input of the fixture workspace and runs the
command that reads it in process. Byte edits almost never leave a tags file
with the right sentence count but misaligned, so
`test_sentence_edits_of_tags_exit_0_or_2` moves whole sentences instead.
"""

import csv
import gzip
import json
import random
import re

import pytest

from posscore.cli import COMMANDS, main

#: input kind -> (workspace file the case starts from, command reading it as {path})
KINDS = {
    "corpus": ("corpus.jsonl", ["score", "--corpus", "{path}", "--metrics", "bleu1,meteor"]),
    "tags": ("tags.tsv", ["score", "--corpus", "{ws}/corpus.jsonl", "--tags", "{path}",
                          "--embeddings", "{ws}/vectors.vec", "--metrics", "posscore,ptlc:bleu1"]),
    "vec": ("vectors.vec", ["score", "--corpus", "{ws}/corpus.jsonl", "--metrics", "ea",
                            "--embeddings", "{path}"]),
    "synonyms": ("synonyms.tsv", ["score", "--corpus", "{ws}/corpus.jsonl", "--metrics", "meteor",
                                  "--synonyms", "{path}"]),
    "external": ("external.csv", ["evaluate", "--corpus", "{ws}/corpus.jsonl",
                                  "--metrics", "bleu1", "--external-scores", "{path}"]),
    "model": ("model.tsv", ["tag", "--corpus", "{ws}/corpus.jsonl", "--tagger-model", "{path}"]),
    "usr": ("usr.json", ["convert", "--format", "usr", "--input", "{path}"]),
    "forum": ("forum.json", ["analyze", "--corpus", "{ws}/corpus.jsonl", "--tags", "{ws}/tags.tsv",
                             "--forum-json", "{path}"]),
    "config": ("run.cfg", ["evaluate", "--config", "{path}"]),
    "vec.gz": ("vectors.vec.gz", ["score", "--corpus", "{ws}/corpus.jsonl", "--metrics", "ea",
                                  "--embeddings", "{path}"]),
}


@pytest.fixture(scope="module")
def workspace(cli_workspace, tmp_path_factory):
    """The CLI fixture workspace plus a tagger model, a config file and the
    .vec gzipped; the JSON inputs are indented, so that they span many lines.
    """
    ws = tmp_path_factory.mktemp("exit-codes")
    for name in ("corpus.jsonl", "tags.tsv", "vectors.vec", "synonyms.tsv", "external.csv"):
        (ws / name).write_bytes((cli_workspace / name).read_bytes())
    (ws / "vectors.vec.gz").write_bytes(gzip.compress((ws / "vectors.vec").read_bytes(), mtime=0))
    for name in ("usr.json", "forum.json"):
        data = json.loads((cli_workspace / name).read_text(encoding="utf-8"))
        (ws / name).write_text(json.dumps(data, indent=1), encoding="utf-8")
    assert main(["tag", "--train", str(ws / "tags.tsv"), "--epochs", "1",
                 "--out", str(ws / "model.tsv")]) == 0
    (ws / "run.cfg").write_text(
        "# evaluate on the fixture workspace\n"
        f"corpus={ws}/corpus.jsonl\n"
        f"tags={ws}/tags.tsv\n"
        f"embeddings={ws}/vectors.vec\n"
        "metrics=posscore:verb+noun,bleu2,ea\n"
        "count-punct=off\n"
        "sample=5\n"
        "seed=3\n"
        "bonferroni=on\n",
        encoding="utf-8",
    )
    return ws


def run_case(kind, ws, data, tmp_path, capsys):
    """Run the command of `kind` on `data` as its input; (exit code, stderr, input path)."""
    name, command = KINDS[kind]
    path = tmp_path / name
    path.write_bytes(data)
    argv = [arg.format(ws=ws, path=path) for arg in command]
    out = tmp_path / ("out" if kind in ("forum", "model") else "out.csv")
    rc = main(argv + ["--out", str(out)])
    return rc, capsys.readouterr().err, path


@pytest.mark.parametrize("kind", KINDS)
def test_bytes_that_are_not_utf8_name_the_file_and_line(kind, workspace, tmp_path, capsys):
    # a .vec.gz has the byte in its text, compressed again
    data = (workspace / KINDS[kind][0]).read_bytes()
    lines = (gzip.decompress(data) if kind == "vec.gz" else data).splitlines(keepends=True)
    k = len(lines) // 2  # the middle line, 0-based
    lines[k] = lines[k][:2] + b"\xff" + lines[k][2:]
    data = b"".join(lines)
    data = gzip.compress(data, mtime=0) if kind == "vec.gz" else data
    rc, err, path = run_case(kind, workspace, data, tmp_path, capsys)
    assert rc == 2
    assert err == f"error: {path}: line {k + 1}: not UTF-8 text (byte 0xff: invalid start byte)\n"


#: Bytes that mean something to one input format or another.
SPECIAL = [b"\xff", b"\xc3", b"\x00", b"\t", b"\n", b"\r", b" ", b",", b"=", b"#", b'"', b"\\",
           b"{", b"}", b"[", b"]", b":", b"-", b".", b"0", b"9", b"e", b"nan", b"1e999", b"A"]

#: Cases per input kind; the whole test takes a few seconds.
CASES_PER_KIND = 56


def mutate(data: bytes, rng: random.Random) -> tuple[str, bytes]:
    """One random edit of data, and its description."""
    op = rng.choice(["replace", "insert", "delete", "truncate", "repeat-line", "drop-line"])
    at = rng.randrange(len(data) + 1)
    if op == "replace":
        new = rng.choice(SPECIAL)
        return f"{op} {at} {new!r}", data[:at] + new + data[at + 1 :]
    if op == "insert":
        new = rng.choice(SPECIAL)
        return f"{op} {at} {new!r}", data[:at] + new + data[at:]
    if op == "delete":
        n = rng.randint(1, 8)
        return f"{op} {at} {n}", data[:at] + data[at + n :]
    if op == "truncate":
        return f"{op} {at}", data[:at]
    lines = data.splitlines(keepends=True)
    k = rng.randrange(len(lines))
    if op == "repeat-line":
        lines.insert(k, lines[k])
    else:
        del lines[k]
    return f"{op} {k}", b"".join(lines)


@pytest.mark.parametrize("kind", KINDS)
def test_mutated_inputs_exit_0_or_2(kind, workspace, tmp_path, capsys):
    original = (workspace / KINDS[kind][0]).read_bytes()
    seed = list(KINDS).index(kind)
    for case in range(CASES_PER_KIND):
        rng = random.Random(f"{seed}:{case}")
        edit, data = mutate(original, rng)
        rc, err, path = run_case(kind, workspace, data, tmp_path, capsys)
        where = f"{kind} case {case} ({edit}): exit {rc}: {err!r}"
        assert rc in (0, 2), where
        if rc == 2:
            assert str(path) in err or re.search(r"--[a-z]", err), where


def move_sentences(data: bytes, rng: random.Random) -> tuple[str, bytes]:
    """One random rotation, swap or reversal of whole sentences of a tags file,
    and its description.
    """
    sentences = data.rstrip(b"\n").split(b"\n\n")
    op = rng.choice(["rotate", "swap", "reverse"])
    i, j = sorted(rng.sample(range(len(sentences)), 2))
    if op == "rotate":
        sentences = sentences[j:] + sentences[:j]
        edit = f"{op} {j}"
    elif op == "swap":
        sentences[i], sentences[j] = sentences[j], sentences[i]
        edit = f"{op} {i} {j}"
    else:
        sentences[i : j + 1] = sentences[i : j + 1][::-1]
        edit = f"{op} {i}..{j}"
    return edit, b"\n\n".join(sentences) + b"\n"


def test_sentence_edits_of_tags_exit_0_or_2(workspace, tmp_path, capsys):
    # seeded after the last byte-level kind, so that theirs stay as they are
    original = (workspace / "tags.tsv").read_bytes()
    seed = len(KINDS)
    for case in range(CASES_PER_KIND):
        rng = random.Random(f"{seed}:{case}")
        edit, data = move_sentences(original, rng)
        rc, err, path = run_case("tags", workspace, data, tmp_path, capsys)
        where = f"sentence case {case} ({edit}): exit {rc}: {err!r}"
        assert rc in (0, 2), where
        if rc == 2:
            assert err.startswith(f"error: {path}: sentence "), where
        if edit.startswith("rotate"):
            assert rc == 2, where


@pytest.mark.parametrize(
    "damage, why",
    [(lambda data: data[: len(data) // 2],
      "Compressed file ended before the end-of-stream marker was reached"),
     (gzip.decompress, "Not a gzipped file (b'")],
    ids=["truncated", "not-gzip"],
)
def test_a_damaged_vec_gz_names_the_file(damage, why, workspace, tmp_path, capsys):
    # the first once exited 1, and the second named no file
    data = damage((workspace / "vectors.vec.gz").read_bytes())
    rc, err, path = run_case("vec.gz", workspace, data, tmp_path, capsys)
    assert rc == 2 and err.startswith(f"error: {path}: not a valid gzip file ({why}")


def test_a_huge_vec_dimension_names_the_first_row(workspace, tmp_path, capsys):
    # rows of the header's dimension were once allocated before the first
    # row was read, which ended in an internal error (exit 1)
    rc, err, path = run_case("vec", workspace, b"1 100000000000\ncat 1\n", tmp_path, capsys)
    assert rc == 2 and err == f"error: {path}: line 2: expected 100000000000 values, got 1\n"


@pytest.mark.parametrize("value", ["", "."])
def test_a_directory_given_as_an_input_names_the_flag(value, tmp_path, capsys):
    # an empty value reads as ".", the working directory
    assert main(["score", "--corpus", value, "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.endswith(f"argument --corpus: is a directory: {value}\n")


@pytest.mark.parametrize(
    "exc, said",
    [(RuntimeError("no such state"), "RuntimeError: no such state"), (KeyError("s0001"), "KeyError: 's0001'")],
    ids=["RuntimeError", "KeyError"],
)
def test_a_fault_in_a_command_exits_1(exc, said, workspace, tmp_path, capsys, monkeypatch):
    # exit 1 is kept for the program's own faults, reported with the
    # exception type and the innermost frame, so that a bare KeyError
    # message still says what failed where
    def broken(args):
        raise exc

    monkeypatch.setitem(COMMANDS, "score", broken)
    out = tmp_path / "x.csv"
    assert main(["score", "--corpus", str(workspace / "corpus.jsonl"), "--out", str(out)]) == 1
    line = broken.__code__.co_firstlineno + 1
    assert capsys.readouterr().err == f"internal error: {said} (test_exit_codes.py:{line} in broken)\n"


#: Nesting deep enough for json.loads to raise RecursionError on every interpreter.
DEEP = "[" * 100_000 + "]" * 100_000


def middle_line(data: bytes, edit) -> tuple[int, bytes]:
    """data with edit applied to the JSON object on its middle line, and that line's number."""
    lines = data.splitlines(keepends=True)
    k = len(lines) // 2
    lines[k] = edit(lines[k].decode("utf-8")).encode("utf-8")
    return k + 1, b"".join(lines)


@pytest.mark.parametrize("kind", ["corpus", "usr", "forum"])
def test_json_nested_too_deeply_names_the_file_and_line(kind, workspace, tmp_path, capsys):
    # json.loads raised RecursionError, which once ended in an internal error
    data = (workspace / KINDS[kind][0]).read_bytes()
    if kind == "corpus":
        line, data = middle_line(
            data, lambda text: text.replace('"context":', f'"x": {DEEP}, "context":'))
    else:  # the whole file is one JSON text, which starts on line 1
        line, data = 1, data.replace(b'"text":', f'"x": {DEEP}, "text":'.encode(), 1)
    rc, err, path = run_case(kind, workspace, data, tmp_path, capsys)
    assert rc == 2 and err.startswith(f"error: {path}: line {line}: malformed JSON (maximum recursion")


@pytest.mark.parametrize("where", ["header", "row"])
def test_an_external_score_over_the_csv_field_limit_names_the_row(where, workspace, tmp_path,
                                                                    capsys):
    # csv.Error once escaped load_external_scores and ended in an internal error
    lines = (workspace / "external.csv").read_bytes().splitlines(keepends=True)
    k = 0 if where == "header" else len(lines) // 2
    lines[k] = b"s0001,a," + b"1" * (csv.field_size_limit() + 1) + b"\n"
    rc, err, path = run_case("external", workspace, b"".join(lines), tmp_path, capsys)
    assert rc == 2
    limit = csv.field_size_limit()
    assert err == f"error: {path}: row {k + 1}: field larger than field limit ({limit})\n"


@pytest.mark.parametrize("kind, field, edit", [
    ("corpus", "'id'", lambda obj: obj.update(id="s\udc80" + obj["id"])),
    ("corpus", "'reference'", lambda obj: obj.update(reference="the \ud83d cat")),
    ("corpus", "candidates[1]: 'text'", lambda obj: obj["candidates"][1].update(text="a\udfff")),
    ("corpus", "'context'", lambda obj: obj.update(context=["fine", "\udc80"])),
    ("usr", "responses[1]: 'text'", lambda obj: obj["responses"][1].update(text="\ud800!")),
], ids=["corpus id", "corpus text", "candidate text", "corpus context", "usr text"])
def test_a_lone_surrogate_names_the_line_and_field(kind, field, edit, workspace, tmp_path, capsys):
    # a JSON escape can spell a lone surrogate, which no UTF-8 output can hold:
    # score once wrote part of its CSV and then failed naming no file
    def spoil(obj):
        edit(obj)
        return obj

    data = (workspace / KINDS[kind][0]).read_bytes()
    if kind == "corpus":
        line, data = middle_line(data, lambda text: json.dumps(spoil(json.loads(text))) + "\n")
        where = f"line {line}"
    else:
        items = json.loads(data)
        items[0] = spoil(items[0])
        where, data = "item 0", json.dumps(items, indent=1).encode()
    rc, err, path = run_case(kind, workspace, data, tmp_path, capsys)
    assert rc == 2 and re.fullmatch(
        rf"error: {re.escape(f'{path}: {where}: {field}')} is not Unicode text "
        r"\(surrogates not allowed at \d+\)\n", err), err
    assert not (tmp_path / "out.csv").exists()


def test_a_long_run_of_y_is_stemmed(workspace, tmp_path, capsys):
    # the consonant rule once recursed once per y: RecursionError, exit 1
    data = (workspace / "corpus.jsonl").read_bytes()
    word = "y" * 2000 + "ness"
    _, data = middle_line(data, lambda text: text.replace('"text": "', f'"text": "{word} ', 1))
    rc, err, _ = run_case("corpus", workspace, data, tmp_path, capsys)
    assert (rc, err) == (0, "")
