import csv
import re
import shutil
from pathlib import Path
from types import ModuleType

import posscore
from posscore.cli import main


def test_all_lists_exactly_the_public_names():
    public = {
        name for name, value in vars(posscore).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert len(set(posscore.__all__)) == len(posscore.__all__)
    assert set(posscore.__all__) == public
    for name in posscore.__all__:
        assert getattr(posscore, name) is not None, name


def test_readme_library_snippets_run(tmp_path, monkeypatch, capsys, cli_workspace):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Library use", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 3
    # the snippets load crawl-300d-2M.vec from the working directory
    words = ["I", "love", "chess", "is", "fun", "play"]
    rows = [f"{w} {i + 1} {len(w)} 0.5" for i, w in enumerate(words)]
    (tmp_path / "crawl-300d-2M.vec").write_text(f"{len(rows)} 3\n" + "\n".join(rows) + "\n")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for block in blocks[:2]:
        exec(compile(block, "README.md", "exec"), namespace)
    assert len(capsys.readouterr().out.splitlines()) == 3
    # score_sets and the single-pair scorers agree on the same pair
    assert namespace["scores"]["posscore"]["s1"][0] == namespace["score"].value
    assert namespace["table"].index.keys() == {w.casefold() for w in words}

    # score_corpus on the CLI fixture gives the tables that `posscore score` writes,
    # with and without --duplicate-bad, from rows prepared once
    workspace = tmp_path / "workspace"
    workspace.mkdir()
    for name in ("corpus.jsonl", "tags.tsv"):
        shutil.copy(cli_workspace / name, workspace / name)
    shutil.copy(cli_workspace / "vectors.vec", workspace / "crawl-300d-2M.vec")
    monkeypatch.chdir(workspace)
    exec(compile(blocks[2], "README.md", "exec"), namespace)
    assert len(capsys.readouterr().out.splitlines()) == len(namespace["table"]) == 3
    for name, probe in (("table", []), ("doubled", ["--duplicate-bad"])):
        rows = [[ev.id, slot, mid, tagset, repr(scores[ev.id][k])]
                for ev in namespace["corpus"] for k, slot in enumerate("ab")
                for mid, (tagset, scores) in namespace[name].items()]
        out = tmp_path / f"{name}.csv"
        assert main(["score", "--corpus", "corpus.jsonl", "--tags", "tags.tsv",
                     "--embeddings", "crawl-300d-2M.vec", "--metrics", "posscore,pwe:meteor,ea",
                     *probe, "--out", str(out)]) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh))[1:] == rows
    assert namespace["doubled"] != namespace["table"]
