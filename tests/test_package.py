import re
from pathlib import Path
from types import ModuleType

import posscore


def test_all_lists_exactly_the_public_names():
    public = {
        name for name, value in vars(posscore).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert len(set(posscore.__all__)) == len(posscore.__all__)
    assert set(posscore.__all__) == public
    for name in posscore.__all__:
        assert getattr(posscore, name) is not None, name


def test_readme_library_snippets_run(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Library use", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    # the snippets load crawl-300d-2M.vec from the working directory
    words = ["I", "love", "chess", "is", "fun", "play"]
    rows = [f"{w} {i + 1} {len(w)} 0.5" for i, w in enumerate(words)]
    (tmp_path / "crawl-300d-2M.vec").write_text(f"{len(rows)} 3\n" + "\n".join(rows) + "\n")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert len(capsys.readouterr().out.splitlines()) == 3
    # score_sets and the single-pair scorers agree on the same pair
    assert namespace["scores"]["posscore"]["s1"][0] == namespace["score"].value
    assert namespace["table"].index.keys() == {w.casefold() for w in words}
