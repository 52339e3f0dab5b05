import csv
import inspect
import json
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from posscore.cli import main
from posscore.core import TaggedSentence, Token, tokenize
from posscore.ingest import reservoir_sample
from posscore.postag import MODEL_MAGIC, load_tagged, remap_aux_to_verb, write_tagged

from conftest import vec_words


def run(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def write_mini_corpus(path, n=2):
    rows = [
        {
            "id": f"m{i}",
            "context": [],
            "reference": "The cat sat on the mat.",
            "candidates": [
                {"text": "A cat sat on a mat.", "human": 5.0},
                {"text": "It was very happy.", "human": 2.0},
            ],
        }
        for i in range(n)
    ]
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


@pytest.fixture(scope="module")
def tagger_model(cli_workspace, tmp_path_factory):
    model = tmp_path_factory.mktemp("tagger") / "model.tsv"
    rc = run("tag", "--train", str(cli_workspace / "tags.tsv"), "--epochs", "2", "--out", str(model))
    assert rc == 0
    return model


class TestScore:
    def test_row_cardinality(self, cli_workspace, tmp_path):
        corpus = tmp_path / "mini.jsonl"
        write_mini_corpus(corpus, n=2)
        out = tmp_path / "scores.csv"
        rc = run(
            "score",
            "--corpus", str(corpus),
            "--metrics", "bleu1,bleu2,meteor",
            "--out", str(out),
        )
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == ["set_id", "slot", "metric_id", "tagset", "score"]
        assert len(rows) == 1 + 12

    def test_sorted_output(self, cli_workspace, tmp_path):
        out = tmp_path / "scores.csv"
        rc = run(
            "score",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--metrics", "meteor,bleu1",
            "--out", str(out),
        )
        assert rc == 0
        rows = read_csv(out)[1:]
        keys = [(r[0], r[1], r[2]) for r in rows]
        assert keys == sorted(keys)

    def test_posscore_without_embeddings(self, cli_workspace, tmp_path, capsys):
        rc = run(
            "score",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--tags", str(cli_workspace / "tags.tsv"),
            "--metrics", "posscore",
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2
        assert "--embeddings" in capsys.readouterr().err

    def test_posscore_without_tags(self, cli_workspace, tmp_path, capsys):
        rc = run(
            "score",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--embeddings", str(cli_workspace / "vectors.vec"),
            "--metrics", "posscore",
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "--tags" in err or "--tagger-model" in err

    def test_full_metric_roster(self, cli_workspace, tmp_path):
        out = tmp_path / "scores.csv"
        rc = run(
            "score",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--tags", str(cli_workspace / "tags.tsv"),
            "--embeddings", str(cli_workspace / "vectors.vec"),
            "--metrics", "posscore,pwe:meteor,ptlc:bleu1,ptlc:ea,ea,bleu4",
            "--out", str(out),
        )
        assert rc == 0
        rows = read_csv(out)[1:]
        ids = {r[2] for r in rows}
        assert ids == {
            "posscore",
            "pwe:meteor:adj+adv+verb+propn+noun",
            "ptlc:bleu1:adj+adv+verb+propn+noun",
            "ptlc:ea:adj+adv+verb+propn+noun",
            "ea",
            "bleu4",
        }
        tagsets = {r[2]: r[3] for r in rows}
        assert tagsets["posscore"] == "adj+adv+verb+propn+noun"
        assert tagsets["bleu4"] == ""
        # every score parses as a float
        for r in rows:
            float(r[4])

    def test_byte_identical_rerun(self, cli_workspace, tmp_path):
        args = [
            "score",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--tags", str(cli_workspace / "tags.tsv"),
            "--embeddings", str(cli_workspace / "vectors.vec"),
            "--metrics", "posscore,bleu1,meteor",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(*args, "--out", str(out1)) == 0
        assert run(*args, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_external_scores_joined(self, cli_workspace, tmp_path):
        out = tmp_path / "scores.csv"
        rc = run(
            "score",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--metrics", "bleu1",
            "--external-scores", str(cli_workspace / "external.csv"),
            "--out", str(out),
        )
        assert rc == 0
        ids = {r[2] for r in read_csv(out)[1:]}
        assert ids == {"bleu1", "ext:external"}

    def test_external_scores_without_a_run_set_exit_2(self, cli_workspace, tmp_path, capsys):
        ext = tmp_path / "partial.csv"
        lines = (cli_workspace / "external.csv").read_text().splitlines(keepends=True)
        ext.write_text("".join(line for line in lines if not line.startswith("s3,")))
        rc = run(
            "score",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--metrics", "bleu1",
            "--external-scores", str(ext),
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2
        assert capsys.readouterr().err == f"error: {ext}: no scores for set 's3'\n"

    def test_external_set_with_one_slot_exits_2_outside_the_run(self, cli_workspace, tmp_path,
                                                                  capsys):
        # the lone row belongs to no set of the corpus; the file is refused anyway
        ext = tmp_path / "lone.csv"
        ext.write_text((cli_workspace / "external.csv").read_text() + "zzz,a,0.5\n")
        rc = run(
            "score",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--metrics", "bleu1",
            "--external-scores", str(ext),
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2
        assert capsys.readouterr().err == f"error: {ext}: row 14: set 'zzz' has no slot 'b' score\n"

    def test_duplicate_metric_rejected(self, cli_workspace, tmp_path, capsys):
        rc = run(
            "score",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--tags", str(cli_workspace / "tags.tsv"),
            "--embeddings", str(cli_workspace / "vectors.vec"),
            "--metrics", "posscore,posscore:adj+adv+verb+propn+noun",
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2
        assert "duplicate" in capsys.readouterr().err

    def test_duplicate_bad_probe(self, cli_workspace, tmp_path):
        base_args = [
            "score",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--tags", str(cli_workspace / "tags.tsv"),
            "--embeddings", str(cli_workspace / "vectors.vec"),
            "--metrics", "posscore,bleu4",
        ]
        plain, probed = tmp_path / "plain.csv", tmp_path / "probed.csv"
        assert run(*base_args, "--out", str(plain)) == 0
        assert run(*base_args, "--duplicate-bad", "--out", str(probed)) == 0
        before = {(r[0], r[1], r[2]): r[4] for r in read_csv(plain)[1:]}
        after = {(r[0], r[1], r[2]): r[4] for r in read_csv(probed)[1:]}
        pos_before = {k: v for k, v in before.items() if k[2] == "posscore"}
        pos_after = {k: v for k, v in after.items() if k[2] == "posscore"}
        assert pos_before == pos_after
        bleu_changed = [
            k for k in before if k[2] == "bleu4" and before[k] != after[k]
        ]
        assert bleu_changed

    def test_wrong_tag_count(self, cli_workspace, tmp_path, capsys):
        corpus = tmp_path / "mini.jsonl"
        write_mini_corpus(corpus, n=2)
        tags = tmp_path / "short.tsv"
        tags.write_text("1\tthe\tDET\n\n1\tcat\tNOUN\n")
        rc = run(
            "score",
            "--corpus", str(corpus),
            "--tags", str(tags),
            "--metrics", "pwe:bleu1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2
        assert "6" in capsys.readouterr().err  # 2 sets need 6 sentences

    def test_missing_out(self, cli_workspace, capsys):
        rc = run("score", "--corpus", str(cli_workspace / "corpus.jsonl"))
        assert rc == 2
        assert "--out" in capsys.readouterr().err

    def test_missing_corpus_file(self, tmp_path, capsys):
        rc = run(
            "score",
            "--corpus", str(tmp_path / "nope.jsonl"),
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2
        assert "not found" in capsys.readouterr().err


class TestEvaluate:
    def test_power_report(self, cli_workspace, tmp_path):
        out = tmp_path / "report.csv"
        rc = run(
            "evaluate",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--metrics", "bleu1,meteor",
            "--external-scores", str(cli_workspace / "external.csv"),
            "--out", str(out),
        )
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == [
            "metric_id", "tagset", "power", "correct", "total", "p_vs_baseline",
        ]
        by_id = {r[0]: r for r in rows[1:]}
        assert set(by_id) == {"bleu1", "meteor", "ext:external"}
        # the external scores are human + small noise, never flipping a pair
        assert float(by_id["ext:external"][2]) == 1.0
        assert by_id["ext:external"][4] == "6"
        for r in rows[1:]:
            assert 0.0 <= float(r[2]) <= 1.0
            assert 0.0 <= float(r[5]) <= 1.0

    def test_baseline_self_p_is_one(self, cli_workspace, tmp_path):
        out = tmp_path / "report.csv"
        rc = run(
            "evaluate",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--metrics", "bleu1,meteor",
            "--baseline", "meteor",
            "--out", str(out),
        )
        assert rc == 0
        by_id = {r[0]: r for r in read_csv(out)[1:]}
        assert float(by_id["meteor"][5]) == 1.0

    def test_unknown_baseline(self, cli_workspace, tmp_path, capsys):
        rc = run(
            "evaluate",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--metrics", "bleu1",
            "--baseline", "rouge",
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2
        assert "baseline" in capsys.readouterr().err

    def test_bonferroni_column(self, cli_workspace, tmp_path):
        out = tmp_path / "report.csv"
        rc = run(
            "evaluate",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--metrics", "bleu1,bleu2,meteor",
            "--bonferroni",
            "--out", str(out),
        )
        assert rc == 0
        rows = read_csv(out)
        assert rows[0][-1] == "p_bonferroni"
        for r in rows[1:]:
            assert float(r[6]) >= float(r[5])
            assert float(r[6]) <= 1.0

    def test_bonferroni_on_off(self, cli_workspace, tmp_path):
        cfgfile = tmp_path / "on.cfg"
        cfgfile.write_text("bonferroni=on\n")
        runs = {
            "left-out": [], "off": ["--bonferroni", "off"], "bare": ["--bonferroni"],
            "on": ["--bonferroni", "on"], "config": ["--config", str(cfgfile)],
        }
        reports = {}
        for name, flags in runs.items():
            out = tmp_path / f"{name}.csv"
            rc = run("evaluate", "--corpus", str(cli_workspace / "corpus.jsonl"),
                     "--metrics", "bleu1,meteor", *flags, "--out", str(out))
            assert rc == 0
            reports[name] = out.read_bytes()
        assert reports["off"] == reports["left-out"] != reports["bare"]
        assert reports["on"] == reports["config"] == reports["bare"]

    @pytest.mark.parametrize("one_set", ["sample", "corpus"])
    def test_one_set_with_a_baseline_exits_2(self, cli_workspace, tmp_path, capsys, one_set):
        corpus = cli_workspace / "corpus.jsonl"
        sample = ["--sample", "1"] if one_set == "sample" else []
        if one_set == "corpus":
            corpus = tmp_path / "one.jsonl"
            write_mini_corpus(corpus, n=1)
        rc = run("evaluate", "--corpus", str(corpus), "--metrics", "bleu1,meteor", *sample,
                 "--out", str(tmp_path / "report.csv"))
        assert rc == 2
        given = " with --sample 1" if sample else ""
        assert capsys.readouterr().err == (
            f"error: --corpus {corpus}{given} gives 1 evaluation set; "
            "the paired t-test against baseline 'bleu1' needs at least 2\n"
        )

    def test_one_set_without_a_baseline_runs(self, cli_workspace, tmp_path):
        # a POS-only run has no baseline, so no t-test and empty p columns
        out = tmp_path / "report.csv"
        rc = run(
            "evaluate",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--tags", str(cli_workspace / "tags.tsv"),
            "--embeddings", str(cli_workspace / "vectors.vec"),
            "--metrics", "posscore",
            "--sample", "1",
            "--out", str(out),
        )
        assert rc == 0
        [row] = read_csv(out)[1:]
        assert row[0] == "posscore" and row[4] == "1" and row[5] == ""

    def test_byte_identical_rerun(self, cli_workspace, tmp_path):
        args = [
            "evaluate",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--metrics", "bleu1,bleu4,meteor",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(*args, "--out", str(out1)) == 0
        assert run(*args, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()


def garbled(n):
    """An edit of a tags file that replaces every surface of its first n sentences."""
    def edit(sentences):
        return [TaggedSentence(tuple((Token("zzz"), tag) for _, tag in s)) if j < n else s
                for j, s in enumerate(sentences)]
    return edit


class TestTagsAlignment:
    """A tags file whose sentences mostly differ from their corpus texts is
    refused: shifted by one sentence, it still has the right count.
    """

    ROT_ERROR = ("sentence 1 does not match the reference of set 's1'; "
                 "18 of 18 sentences differ from --corpus")

    def write_tags(self, cli_workspace, tmp_path, edit):
        tags = tmp_path / "edited.tsv"
        write_tagged(edit(load_tagged(cli_workspace / "tags.tsv")), tags)
        return tags

    def score(self, cli_workspace, tmp_path, tags, *extra):
        return run("score", "--corpus", str(cli_workspace / "corpus.jsonl"), "--tags", str(tags),
                   "--metrics", "bleu1", *extra, "--out", str(tmp_path / "x.csv"))

    @pytest.mark.parametrize("shift", [1, -1, 3])
    def test_rotated_file_exits_2(self, cli_workspace, tmp_path, capsys, shift):
        tags = self.write_tags(cli_workspace, tmp_path, lambda s: s[shift:] + s[:shift])
        assert self.score(cli_workspace, tmp_path, tags) == 2
        assert capsys.readouterr().err == f"error: {tags}: {self.ROT_ERROR}\n"

    def test_analyze_refuses_a_rotated_file(self, cli_workspace, tmp_path, capsys):
        tags = self.write_tags(cli_workspace, tmp_path, lambda s: s[1:] + s[:1])
        rc = run("analyze", "--corpus", str(cli_workspace / "corpus.jsonl"), "--tags", str(tags),
                 "--out", str(tmp_path / "out"))
        assert rc == 2
        assert capsys.readouterr().err == f"error: {tags}: {self.ROT_ERROR}\n"

    def test_sampled_run_names_the_sentence_in_the_file(self, cli_workspace, tmp_path, capsys):
        tags = self.write_tags(cli_workspace, tmp_path, lambda s: s[1:] + s[:1])
        first = reservoir_sample(range(6), 3, 5)[0]
        assert self.score(cli_workspace, tmp_path, tags, "--sample", "3", "--seed", "5") == 2
        assert capsys.readouterr().err == (
            f"error: {tags}: sentence {3 * first + 1} does not match the reference of set "
            f"'s{first + 1}'; 9 of 9 sentences differ from --corpus\n"
        )

    def test_a_missing_sentence_names_the_file(self, cli_workspace, tmp_path, capsys):
        tags = self.write_tags(cli_workspace, tmp_path, lambda s: s[:-1])
        assert self.score(cli_workspace, tmp_path, tags) == 2
        assert capsys.readouterr().err == (
            f"error: {tags}: expected 18 sentences (3 per evaluation set), found 17\n"
        )

    def test_more_than_half_differing_exits_2(self, cli_workspace, tmp_path, capsys):
        tags = self.write_tags(cli_workspace, tmp_path, garbled(10))
        assert self.score(cli_workspace, tmp_path, tags) == 2
        assert capsys.readouterr().err == (
            f"error: {tags}: sentence 1 does not match the reference of set 's1'; "
            "10 of 18 sentences differ from --corpus\n"
        )

    @pytest.mark.parametrize("edit", [
        garbled(9),
        garbled(1),
        lambda s: [TaggedSentence(tuple((Token(t.surface.upper()), tag) for t, tag in x))
                   for x in s],
        lambda s: [TaggedSentence(tuple((Token(t.surface + " "), tag) for t, tag in x))
                   for x in s],
    ], ids=["half-differ", "one-sentence-altered", "upper-cased", "spaces-in-surfaces"])
    def test_files_that_mostly_match_run(self, cli_workspace, tmp_path, edit):
        tags = self.write_tags(cli_workspace, tmp_path, edit)
        assert self.score(cli_workspace, tmp_path, tags) == 0

    def test_one_altered_surface_is_scored_as_given(self, cli_workspace, tmp_path):
        def edit(sentences):
            # s1 candidate a, "A cat sat on a mat.", says "dog" for "cat"
            a, (cat, tag), *rest = sentences[1].items
            sentences[1] = TaggedSentence((a, (Token("dog"), tag), *rest))
            return sentences
        tags = self.write_tags(cli_workspace, tmp_path, edit)
        plain, edited = tmp_path / "plain.csv", tmp_path / "edited.csv"
        base = ["score", "--corpus", str(cli_workspace / "corpus.jsonl"), "--metrics", "bleu1"]
        assert run(*base, "--tags", str(cli_workspace / "tags.tsv"), "--out", str(plain)) == 0
        assert run(*base, "--tags", str(tags), "--out", str(edited)) == 0
        changed = [a[:2] for a, b in zip(read_csv(plain), read_csv(edited)) if a != b]
        assert changed == [["s1", "a"]]


class TestCorrelate:
    def test_matrix_shape_and_symmetry(self, cli_workspace, tmp_path):
        out = tmp_path / "tau.csv"
        rc = run(
            "correlate",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--metrics", "bleu1,bleu2,meteor",
            "--out", str(out),
        )
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == ["metric_id", "bleu1", "bleu2", "meteor"]
        assert len(rows) == 4
        matrix = [[float(v) for v in r[1:]] for r in rows[1:]]
        for i in range(3):
            assert matrix[i][i] == pytest.approx(1.0)
            for j in range(3):
                assert matrix[i][j] == pytest.approx(matrix[j][i])

    def test_posscore_ids_keep_their_tag_set(self, cli_workspace, tmp_path):
        out = tmp_path / "tau.csv"
        rc = run(
            "correlate",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--tags", str(cli_workspace / "tags.tsv"),
            "--embeddings", str(cli_workspace / "vectors.vec"),
            "--metrics", "posscore:verb+noun,posscore",
            "--out", str(out),
        )
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == ["metric_id", "posscore", "posscore:verb+noun"]
        assert [r[0] for r in rows[1:]] == ["posscore", "posscore:verb+noun"]

    def test_byte_identical_rerun(self, cli_workspace, tmp_path):
        args = [
            "correlate",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--metrics", "bleu1,meteor",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(*args, "--out", str(out1)) == 0
        assert run(*args, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestAnalyze:
    def test_three_group_distribution(self, cli_workspace, tmp_path):
        out = tmp_path / "analysis"
        rc = run(
            "analyze",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--tags", str(cli_workspace / "tags.tsv"),
            "--out", str(out),
        )
        assert rc == 0
        rows = read_csv(out / "pos_distribution.csv")
        assert rows[0] == ["group", "tag", "mean_count"]
        groups = [r[0] for r in rows[1:]]
        assert [g for g in dict.fromkeys(groups)] == ["reference", "good", "bad"]
        # full six-tag set by default: 6 rows per group
        assert len(rows) == 1 + 18

    def test_reference_only_group(self, cli_workspace, tmp_path):
        out = tmp_path / "analysis"
        rc = run(
            "analyze",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--tags", str(cli_workspace / "tags.tsv"),
            "--groups", "reference",
            "--out", str(out),
        )
        assert rc == 0
        rows = read_csv(out / "pos_distribution.csv")
        assert len(rows) == 1 + 6
        assert {r[0] for r in rows[1:]} == {"reference"}

    def test_unknown_group(self, cli_workspace, tmp_path, capsys):
        rc = run(
            "analyze",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--tags", str(cli_workspace / "tags.tsv"),
            "--groups", "reference,ugly",
            "--out", str(tmp_path / "analysis"),
        )
        assert rc == 2
        assert "ugly" in capsys.readouterr().err

    def test_empty_groups(self, cli_workspace, tmp_path, capsys):
        out = tmp_path / "analysis"
        rc = run(
            "analyze",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--tags", str(cli_workspace / "tags.tsv"),
            "--groups", ",",
            "--out", str(out),
        )
        assert rc == 2
        assert "--groups" in capsys.readouterr().err
        assert not (out / "pos_distribution.csv").exists()

    def test_requires_tag_source(self, cli_workspace, tmp_path, capsys):
        rc = run(
            "analyze",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--out", str(tmp_path / "analysis"),
        )
        assert rc == 2
        assert "tag source" in capsys.readouterr().err

    def test_vote_curve(self, cli_workspace, tmp_path):
        out = tmp_path / "analysis"
        rc = run(
            "analyze",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--tags", str(cli_workspace / "tags.tsv"),
            "--forum-json", str(cli_workspace / "forum.json"),
            "--out", str(out),
        )
        assert rc == 0
        rows = read_csv(out / "vote_curve.csv")
        assert rows[0] == ["bin_low", "proportion"]
        assert len(rows) == 11
        assert [r[0] for r in rows[1:]] == [repr(b / 10) for b in range(10)]
        # both fixture references sit at the top vote bin
        assert float(rows[10][1]) > 0.0

    def test_narrow_tagset(self, cli_workspace, tmp_path):
        out = tmp_path / "analysis"
        rc = run(
            "analyze",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--tags", str(cli_workspace / "tags.tsv"),
            "--tagset", "verb+noun",
            "--out", str(out),
        )
        assert rc == 0
        rows = read_csv(out / "pos_distribution.csv")
        assert {r[1] for r in rows[1:]} == {"VERB", "NOUN"}


class TestTag:
    def test_train_and_apply(self, cli_workspace, tmp_path):
        model = tmp_path / "model.tsv"
        rc = run(
            "tag",
            "--train", str(cli_workspace / "tags.tsv"),
            "--epochs", "3",
            "--out", str(model),
        )
        assert rc == 0
        assert model.read_text().startswith(MODEL_MAGIC)

        tagged_out = tmp_path / "tagged.tsv"
        rc = run(
            "tag",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--tagger-model", str(model),
            "--out", str(tagged_out),
        )
        assert rc == 0
        sentences = load_tagged(tagged_out)
        assert len(sentences) == 18  # 3 per evaluation set
        corpus_lines = (cli_workspace / "corpus.jsonl").read_text().splitlines()
        texts = []
        for line in corpus_lines:
            obj = json.loads(line)
            texts.extend(
                [obj["reference"], obj["candidates"][0]["text"], obj["candidates"][1]["text"]]
            )
        for sent, text in zip(sentences, texts):
            assert list(sent.tokens) == tokenize(text)

    def test_train_deterministic(self, cli_workspace, tmp_path):
        m1, m2 = tmp_path / "m1.tsv", tmp_path / "m2.tsv"
        args = ["tag", "--train", str(cli_workspace / "tags.tsv"), "--epochs", "2"]
        assert run(*args, "--out", str(m1)) == 0
        assert run(*args, "--out", str(m2)) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_empty_training_file_names_the_file(self, tmp_path, capsys):
        train_file = tmp_path / "empty.tsv"
        train_file.write_text("\n")
        out = tmp_path / "model.tsv"
        assert run("tag", "--train", str(train_file), "--out", str(out)) == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {train_file}: empty training corpus\n"

    def test_train_and_corpus_conflict(self, cli_workspace, tmp_path, capsys):
        rc = run(
            "tag",
            "--train", str(cli_workspace / "tags.tsv"),
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--out", str(tmp_path / "x.tsv"),
        )
        assert rc == 2
        assert "exactly one" in capsys.readouterr().err

    def test_empty_sentence_exits_2_without_writing(self, tagger_model, tmp_path, capsys):
        # the tagged format cannot hold an empty sentence; writing one would
        # give a file that --tags later rejects for its sentence count
        corpus = tmp_path / "corpus.jsonl"
        write_mini_corpus(corpus, n=2)
        rows = corpus.read_text().splitlines()
        last = json.loads(rows[1])
        last["candidates"][1]["text"] = ""
        corpus.write_text(rows[0] + "\n" + json.dumps(last) + "\n")
        out = tmp_path / "tags.tsv"
        rc = run("tag", "--corpus", str(corpus), "--tagger-model", str(tagger_model),
                 "--out", str(out))
        assert rc == 2
        assert not out.exists()
        assert f"{out}: sentence 6 is empty" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, problem",
        [("W\tw=zzz\tNOUN\tnan", "weight must be finite, got 'nan'"),
         ("P\tzzz\tFOO", "unknown POS tag 'FOO'")],
        ids=["nan-weight", "unknown-tag"],
    )
    def test_bad_model_row_exits_2(self, cli_workspace, tagger_model, tmp_path, capsys,
                                   row, problem):
        # a NaN weight once loaded and tagging exited 0; an unknown tag named
        # neither the file nor the line
        lines = tagger_model.read_text().splitlines()
        model = tmp_path / "bad.tsv"
        model.write_text("\n".join(lines + [row]) + "\n")
        out = tmp_path / "tags.tsv"
        rc = run("tag", "--corpus", str(cli_workspace / "corpus.jsonl"),
                 "--tagger-model", str(model), "--out", str(out))
        assert rc == 2
        assert not out.exists()
        assert f"error: {model}: line {len(lines) + 1}: {problem}" in capsys.readouterr().err

    def test_apply_requires_model(self, cli_workspace, tmp_path, capsys):
        rc = run(
            "tag",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--out", str(tmp_path / "x.tsv"),
        )
        assert rc == 2
        assert "--tagger-model" in capsys.readouterr().err


class TestConvert:
    def test_usr(self, cli_workspace, tmp_path):
        out = tmp_path / "usr.jsonl"
        rc = run(
            "convert",
            "--format", "usr",
            "--input", str(cli_workspace / "usr.json"),
            "--out", str(out),
        )
        assert rc == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        # context 0: 3 distinct mean scores -> 3 pairs; context 1: 1 pair
        assert len(lines) == 4
        assert all(l["id"].startswith("usr-") for l in lines)
        for l in lines:
            assert l["candidates"][0]["human"] > l["candidates"][1]["human"]

    def test_usr_mean_past_the_float_sum(self, tmp_path):
        # the plain sum of [1e308, 1e308] is inf; its mean is not
        src = tmp_path / "usr.json"
        src.write_text(json.dumps([{"reference": "r", "responses": [
            {"text": "a", "quality": [3]},
            {"text": "b", "quality": [1e308, 1e308]},
        ]}]))
        out = tmp_path / "out.jsonl"
        assert run("convert", "--format", "usr", "--input", str(src), "--out", str(out)) == 0
        [line] = [json.loads(l) for l in out.read_text().splitlines()]
        assert [c["human"] for c in line["candidates"]] == [1e308, 3.0]

    def test_usr_mean_of_three_largest_floats(self, tmp_path):
        # each third of the largest float rounds up, so dividing by the count
        # before summing would still overflow; the mean is the largest float
        top = sys.float_info.max
        src = tmp_path / "usr.json"
        src.write_text(json.dumps([{"reference": "r", "responses": [
            {"text": "a", "quality": [3]},
            {"text": "b", "quality": [top] * 3},
        ]}]))
        out = tmp_path / "out.jsonl"
        assert run("convert", "--format", "usr", "--input", str(src), "--out", str(out)) == 0
        [line] = [json.loads(l) for l in out.read_text().splitlines()]
        assert [c["human"] for c in line["candidates"]] == [top, 3.0]

    def test_forum(self, cli_workspace, tmp_path):
        out = tmp_path / "forum.jsonl"
        rc = run(
            "convert",
            "--format", "forum",
            "--input", str(cli_workspace / "forum.json"),
            "--out", str(out),
        )
        assert rc == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        # dialogue 0: votes 7,2,0 -> 3 pairs; dialogue 1: votes 5,1 -> 1 pair
        assert len(lines) == 4
        assert all(l["id"].startswith("forum-") for l in lines)
        assert lines[0]["reference"] == "The cat sat on the mat."

    def test_forum_sampling_deterministic(self, cli_workspace, tmp_path):
        args = [
            "convert",
            "--format", "forum",
            "--input", str(cli_workspace / "forum.json"),
            "--sample", "2",
            "--seed", "7",
        ]
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run(*args, "--out", str(out1)) == 0
        assert run(*args, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert len(out1.read_text().splitlines()) == 2

    @pytest.mark.parametrize(
        "fmt, data, place",
        [
            ("usr", [{"reference": "r", "responses": [{"text": "a", "quality": [None]}]}],
             "item 0: responses[0]: quality[0]"),
            ("forum", [{"question": "q", "answers": [["text"]]}], "item 0: answers[0]"),
            # the string "false" once read as true: 3 sets instead of 6, exit 0
            ("forum", [{"question": "q", "answers": [
                {"text": "ref", "votes": 9, "is_answer": True},
                {"text": "a1", "votes": 7, "is_answer": False},
                {"text": "a2", "votes": 5, "is_answer": "false"},
                {"text": "a3", "votes": 3},
                {"text": "a4", "votes": 1, "is_answer": False},
            ]}], "item 0: answers[2]: 'is_answer' must be true or false"),
            ("usr", [{"responses": [
                {"text": "ref", "is_reference": True},
                {"text": "a", "quality": [3], "is_reference": "false"},
            ]}], "item 0: responses[1]: 'is_reference' must be true or false"),
            # the mean of finite scores cannot overflow, so the one check left
            # against a "human": Infinity is the one on each score
            ("usr", [{"reference": "r", "responses": [
                {"text": "a", "quality": [3]},
                {"text": "b", "quality": [3, 3, float("inf")]},
            ]}], "item 0: responses[1]: quality[2]: expected a finite number, got inf"),
            # a null reference was once written to the corpus as the text "None"
            ("usr", [{"reference": None, "responses": [
                {"text": "a", "quality": [3]},
                {"text": "b", "quality": [1]},
            ]}], "item 0: 'reference' must be a string, got None"),
            ("forum", [{"question": "q", "answers": [
                {"text": "ref", "votes": 9, "is_answer": True},
                {"text": 7, "votes": 7},
                {"text": "a2", "votes": 5},
            ]}], "item 0: answers[1]: 'text' must be a string, got 7"),
            ("usr", [{"reference": "r", "responses": {"text": "a"}}],
             "item 0: 'responses' must be a list"),
            ("forum", [{"question": "q", "answers": "a"}], "item 0: 'answers' must be a list"),
            # two responses, but tied: no pair to make a set of
            ("usr", [{"reference": "r", "responses": [
                {"text": "a", "quality": [3]},
                {"text": "b", "quality": [3]},
            ]}], "no evaluation sets"),
        ],
    )
    def test_bad_input_exits_2(self, tmp_path, capsys, fmt, data, place):
        src = tmp_path / f"{fmt}.json"
        src.write_text(json.dumps(data))
        out = tmp_path / "out.jsonl"
        rc = run("convert", "--format", fmt, "--input", str(src), "--out", str(out))
        assert rc == 2
        assert not out.exists()
        assert f"error: {src}: {place}" in capsys.readouterr().err

    def test_missing_format(self, cli_workspace, tmp_path, capsys):
        rc = run(
            "convert",
            "--input", str(cli_workspace / "usr.json"),
            "--out", str(tmp_path / "x.jsonl"),
        )
        assert rc == 2
        assert "--format" in capsys.readouterr().err

    def test_converted_corpus_scores(self, cli_workspace, tmp_path):
        mid = tmp_path / "converted.jsonl"
        assert run(
            "convert",
            "--format", "usr",
            "--input", str(cli_workspace / "usr.json"),
            "--out", str(mid),
        ) == 0
        out = tmp_path / "scores.csv"
        rc = run(
            "score",
            "--corpus", str(mid),
            "--metrics", "bleu1,meteor",
            "--out", str(out),
        )
        assert rc == 0
        assert len(read_csv(out)) == 1 + 4 * 2 * 2


class TestConfigFile:
    def test_config_supplies_defaults(self, cli_workspace, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "# experiment manifest\n"
            f"corpus={cli_workspace / 'corpus.jsonl'}\n"
            "metrics=bleu1,meteor\n"
        )
        out = tmp_path / "scores.csv"
        rc = run("score", "--config", str(cfgfile), "--out", str(out))
        assert rc == 0
        ids = {r[2] for r in read_csv(out)[1:]}
        assert ids == {"bleu1", "meteor"}

    def test_flag_overrides_config(self, cli_workspace, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            f"corpus={cli_workspace / 'corpus.jsonl'}\n"
            "metrics=bleu1,meteor\n"
        )
        out = tmp_path / "scores.csv"
        rc = run(
            "score", "--config", str(cfgfile), "--metrics", "bleu2", "--out", str(out)
        )
        assert rc == 0
        ids = {r[2] for r in read_csv(out)[1:]}
        assert ids == {"bleu2"}

    def test_unknown_key(self, cli_workspace, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("corpsu=typo.jsonl\n")
        rc = run("score", "--config", str(cfgfile), "--out", str(tmp_path / "x.csv"))
        assert rc == 2
        assert capsys.readouterr().err == f"error: --config {cfgfile}: unknown key 'corpsu'\n"

    def test_repeated_key_names_file_and_both_lines(self, cli_workspace, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            f"corpus={cli_workspace / 'corpus.jsonl'}\n"
            "metrics=bleu1\n"
            "# a later value does not silently win\n"
            "metrics=meteor\n"
        )
        out = tmp_path / "x.csv"
        assert run("score", "--config", str(cfgfile), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {cfgfile}: line 4: key 'metrics' repeats line 2\n"
        assert not out.exists()

    def test_repeated_key_in_either_spelling(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("duplicate_bad=on\nduplicate-bad=off\n")
        assert run("score", "--config", str(cfgfile), "--out", str(tmp_path / "x.csv")) == 2
        assert "line 2: key 'duplicate-bad' repeats line 1" in capsys.readouterr().err

    def test_malformed_line(self, cli_workspace, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("just a line without equals\n")
        rc = run("score", "--config", str(cfgfile), "--out", str(tmp_path / "x.csv"))
        assert rc == 2
        assert "line 1" in capsys.readouterr().err

    def test_train_key(self, cli_workspace, tmp_path):
        # a config key is the long flag name, also for --train
        cfgfile = tmp_path / "train.cfg"
        cfgfile.write_text(f"train={cli_workspace / 'tags.tsv'}\nepochs=2\n")
        by_key, by_flag = tmp_path / "key.model", tmp_path / "flag.model"
        assert run("tag", "--config", str(cfgfile), "--out", str(by_key)) == 0
        rc = run(
            "tag", "--train", str(cli_workspace / "tags.tsv"), "--epochs", "2",
            "--out", str(by_flag),
        )
        assert rc == 0
        assert by_key.read_bytes() == by_flag.read_bytes()

    def scores_with(self, ws, tmp_path, name, config_lines, flags):
        """Bytes of one tagged `score` run, its corpus given in a config file."""
        cfgfile = tmp_path / f"{name}.cfg"
        lines = [f"corpus={ws / 'corpus.jsonl'}", *config_lines]
        cfgfile.write_text("".join(f"{line}\n" for line in lines))
        out = tmp_path / f"{name}.csv"
        rc = run(
            "score", "--config", str(cfgfile),
            "--tags", str(ws / "tags.tsv"),
            "--embeddings", str(ws / "vectors.vec"),
            "--metrics", "posscore,bleu4,ptlc:bleu1",
            *flags, "--out", str(out),
        )
        assert rc == 0
        return out.read_bytes()

    def test_on_off_keys_match_flags(self, cli_workspace, tmp_path):
        ws = cli_workspace
        plain = self.scores_with(ws, tmp_path, "plain", [], [])
        probed = self.scores_with(ws, tmp_path, "probed", [], ["--duplicate-bad"])
        assert probed != plain
        assert self.scores_with(ws, tmp_path, "off", ["duplicate-bad=off"], []) == plain
        assert self.scores_with(ws, tmp_path, "on", ["duplicate-bad=on"], []) == probed
        assert self.scores_with(ws, tmp_path, "flag-off", [], ["--duplicate-bad", "off"]) == plain
        assert self.scores_with(ws, tmp_path, "flag-on", [], ["--duplicate-bad", "on"]) == probed

    def test_flags_and_keys_share_on_off_words(self, cli_workspace, tmp_path):
        ws = cli_workspace
        by_key = self.scores_with(ws, tmp_path, "key", ["count-punct=no"], [])
        by_flag = self.scores_with(ws, tmp_path, "flag", [], ["--count-punct", "no"])
        assert by_key == by_flag
        assert by_key != self.scores_with(ws, tmp_path, "on", [], ["--count-punct", "yes"])

    @pytest.mark.parametrize("line", [
        "sample=abc", "sample=0", "count-punct=maybe", "duplicate-bad=maybe", "tagset=det",
        "bonferroni=maybe",
    ])
    def test_bad_value_exits_2(self, cli_workspace, tmp_path, capsys, line):
        # evaluate reads every key listed, bonferroni included
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"corpus={cli_workspace / 'corpus.jsonl'}\n{line}\n")
        rc = run("evaluate", "--config", str(cfgfile), "--out", str(tmp_path / "x.csv"))
        assert rc == 2
        err = capsys.readouterr().err
        assert line.partition("=")[0] in err and str(cfgfile) in err

    def test_config_supplies_required_flags(self, cli_workspace, tmp_path):
        cfgfile = tmp_path / "convert.cfg"
        cfgfile.write_text(f"format=usr\ninput={cli_workspace / 'usr.json'}\n")
        by_key, by_flag = tmp_path / "key.jsonl", tmp_path / "flag.jsonl"
        assert run("convert", "--config", str(cfgfile), "--out", str(by_key)) == 0
        rc = run("convert", "--format", "usr", "--input", str(cli_workspace / "usr.json"),
                 "--out", str(by_flag))
        assert rc == 0
        assert by_key.read_bytes() == by_flag.read_bytes()

    @pytest.mark.parametrize("command, config, message", [
        ("score", "metrics=bleu1", "--corpus is required"),
        ("convert", "format=usr", "--input is required"),
        # argparse checks choices on the command line only, not on a config value
        ("convert", "format=xml\ninput={ws}/usr.json",
         "--config {cfg}: --format must be 'usr' or 'forum'"),
    ], ids=["score-corpus", "convert-input", "convert-format"])
    def test_config_without_a_usable_required_flag(self, cli_workspace, tmp_path, capsys,
                                                  command, config, message):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(config.format(ws=cli_workspace) + "\n")
        out = tmp_path / "out"
        assert run(command, "--config", str(cfgfile), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {message.format(cfg=cfgfile)}\n"
        assert not out.exists()

    def test_zero_epochs_names_key_and_file(self, cli_workspace, tmp_path, capsys):
        cfgfile = tmp_path / "train.cfg"
        cfgfile.write_text(f"train={cli_workspace / 'tags.tsv'}\nepochs=0\n")
        out = tmp_path / "x.model"
        assert run("tag", "--config", str(cfgfile), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "--epochs" in err and str(cfgfile) in err
        assert not out.exists()


class TestCommandFlags:
    # input paths must exist, so that only the dropped flag can fail the parse
    @pytest.mark.parametrize("argv, flag", [
        (["convert", "--format", "usr", "--input", "{ws}/usr.json",
          "--embeddings", "{ws}/vectors.vec"], "--embeddings"),
        (["tag", "--corpus", "{ws}/corpus.jsonl", "--tagger-model", "{ws}/tags.tsv",
          "--sample", "1"], "--sample"),
        (["analyze", "--corpus", "{ws}/corpus.jsonl", "--tags", "{ws}/tags.tsv",
          "--count-punct", "off"], "--count-punct"),
    ])
    def test_unread_flag_exits_2(self, cli_workspace, tmp_path, capsys, argv, flag):
        out = tmp_path / "out"
        rc = run(*[a.format(ws=cli_workspace) for a in argv], "--out", str(out))
        assert rc == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["score", "evaluate", "correlate", "analyze"])
    @pytest.mark.parametrize("given", ["flags", "config", "both"])
    def test_two_tag_sources_exit_2(self, cli_workspace, tagger_model, tmp_path, capsys,
                                    command, given):
        # the second source would go unread, as flags, config keys or one of each
        sources = {"tags": cli_workspace / "tags.tsv", "tagger-model": tagger_model}
        cfgfile = tmp_path / "run.cfg"
        in_file = {"flags": [], "config": list(sources), "both": ["tags"]}[given]
        cfgfile.write_text("".join(f"{k}={sources[k]}\n" for k in in_file))
        flags = [x for k in sources if k not in in_file for x in (f"--{k}", str(sources[k]))]
        out = tmp_path / "out"
        rc = run(command, "--corpus", str(cli_workspace / "corpus.jsonl"), *flags,
                 "--config", str(cfgfile), "--out", str(out))
        assert rc == 2
        assert capsys.readouterr().err == "error: give --tags or --tagger-model, not both\n"
        assert not out.exists()

    def test_training_refuses_a_tagger_model(self, cli_workspace, tagger_model, tmp_path,
                                             capsys):
        # tag --train fits a new model; a given one would go unread
        out = tmp_path / "new.model"
        rc = run("tag", "--train", str(cli_workspace / "tags.tsv"),
                 "--tagger-model", str(tagger_model), "--out", str(out))
        assert rc == 2
        assert capsys.readouterr().err == "error: give --train or --tagger-model, not both\n"
        assert not out.exists()

    @pytest.mark.parametrize("metric", [
        "pwe", "pwe:rouge", "posscore:a:b", "posscore:det", "foo", "bleu1:x", "ptlc:bleu1:verb:x",
    ])
    def test_malformed_metric_id_exits_2(self, cli_workspace, tmp_path, capsys, metric):
        out = tmp_path / "scores.csv"
        rc = run(
            "score",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--tags", str(cli_workspace / "tags.tsv"),
            "--embeddings", str(cli_workspace / "vectors.vec"),
            "--metrics", metric,
            "--out", str(out),
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --metrics: ")
        assert not out.exists()

    def test_readme_lists_each_commands_flags(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Commands", 1)[1].split("\n## ", 1)[0]
        # one bullet per command; its flag list may wrap onto indented lines
        documented = {
            m.group(1): set(re.findall(r"`(--[a-z-]+)", m.group(2)))
            for m in re.finditer(r"^- `(\w+)`:(.*(?:\n  .*)*)", section, re.MULTILINE)
        }
        assert set(documented) == {"score", "evaluate", "correlate", "analyze", "tag", "convert"}
        for command, flags in documented.items():
            with pytest.raises(SystemExit):
                run(command, "--help")
            help_text = capsys.readouterr().out
            offered = set(re.findall(r"^\s+(?:-h, )?(--[a-z-]+)", help_text, re.MULTILINE))
            assert offered - {"--help"} == flags, command

    def test_each_pipeline_keyword_is_one_flag_of_its_commands(self):
        # the library pipeline takes today's flags as keywords, and no more;
        # each flag goes to one of its two steps
        from posscore import prepare_corpus, score_corpus
        from posscore.cli import _COMMAND_FLAGS

        def keywords(function):
            params = inspect.signature(function).parameters.values()
            return {p.name.replace("_", "-") for p in params if p.kind is p.KEYWORD_ONLY}

        assert not keywords(prepare_corpus) & keywords(score_corpus)
        run_flags = {"corpus", "tagset", "metrics", "out", "config"}
        for command in ("score", "evaluate", "correlate"):
            flags = set(_COMMAND_FLAGS[command][1]) - run_flags - {"baseline", "bonferroni"}
            assert keywords(prepare_corpus) | keywords(score_corpus) == flags, command
        analyze_only = {"corpus", "tagset", "groups", "forum-json", "out", "config"}
        assert keywords(prepare_corpus) == set(_COMMAND_FLAGS["analyze"][1]) - analyze_only


class TestTokenizeOnce:
    @pytest.mark.parametrize("probe", [[], ["--duplicate-bad"]])
    def test_untagged_responses_tokenized_once(self, cli_workspace, tmp_path, monkeypatch, probe):
        import posscore.posmetrics as posmetrics

        calls = []

        def counting_tokenize(text):
            calls.append(text)
            return tokenize(text)

        monkeypatch.setattr(posmetrics, "tokenize", counting_tokenize)
        corpus = tmp_path / "one.jsonl"
        write_mini_corpus(corpus, n=1)
        rc = run(
            "score",
            "--corpus", str(corpus),
            "--embeddings", str(cli_workspace / "vectors.vec"),
            "--metrics", "ea",
            *probe,
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 0
        assert len(calls) == 3


class TestDataDirFallback:
    def test_relative_paths_resolve_via_env(
        self, cli_workspace, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("POSSCORE_DATA_DIR", str(cli_workspace))
        out = tmp_path / "scores.csv"
        rc = run(
            "score",
            "--corpus", "corpus.jsonl",
            "--metrics", "bleu1",
            "--out", str(out),
        )
        assert rc == 0
        assert len(read_csv(out)) == 1 + 12

    def test_cwd_wins_over_env(self, cli_workspace, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("POSSCORE_DATA_DIR", str(cli_workspace))
        local = tmp_path / "corpus.jsonl"
        write_mini_corpus(local, n=1)
        out = tmp_path / "scores.csv"
        rc = run(
            "score", "--corpus", "corpus.jsonl", "--metrics", "bleu1",
            "--out", str(out),
        )
        assert rc == 0
        rows = read_csv(out)[1:]
        assert {r[0] for r in rows} == {"m0"}


class TestSample:
    def test_sample_after_tagging_keeps_alignment(self, cli_workspace, tmp_path):
        out = tmp_path / "scores.csv"
        rc = run(
            "score",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--tags", str(cli_workspace / "tags.tsv"),
            "--embeddings", str(cli_workspace / "vectors.vec"),
            "--metrics", "posscore",
            "--sample", "3",
            "--seed", "5",
            "--out", str(out),
        )
        assert rc == 0
        rows = read_csv(out)[1:]
        sampled_ids = sorted({r[0] for r in rows})
        assert len(sampled_ids) == 3

        # the sampled subset's scores must equal the full run's scores
        full = tmp_path / "full.csv"
        rc = run(
            "score",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--tags", str(cli_workspace / "tags.tsv"),
            "--embeddings", str(cli_workspace / "vectors.vec"),
            "--metrics", "posscore",
            "--out", str(full),
        )
        assert rc == 0
        full_scores = {(r[0], r[1]): r[4] for r in read_csv(full)[1:]}
        for r in rows:
            assert full_scores[(r[0], r[1])] == r[4]

    def test_sampled_tagged_scores_equal_direct_calls(self, cli_workspace, tmp_path,
                                                     monkeypatch):
        # the AUX fold runs on the picked sentences only, and the scores are
        # those of the whole loaded and folded file
        import posscore.posmetrics as posmetrics
        from posscore import load_vec

        folded = []

        def counting_fold(sentence):
            folded.append(sentence)
            return remap_aux_to_verb(sentence)

        monkeypatch.setattr(posmetrics, "remap_aux_to_verb", counting_fold)
        metrics = ["posscore", "pwe:bleu1", "ptlc:meteor:adv+verb"]
        out = tmp_path / "scores.csv"
        rc = run(
            "score",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--tags", str(cli_workspace / "tags.tsv"),
            "--embeddings", str(cli_workspace / "vectors.vec"),
            "--metrics", ",".join(metrics),
            "--sample", "3",
            "--seed", "5",
            "--out", str(out),
        )
        assert rc == 0
        assert len(folded) == 3 * 3
        rows = read_csv(out)[1:]
        assert len(rows) == 3 * 2 * len(metrics)
        vectors = cli_workspace / "vectors.vec"
        table = load_vec(vectors, vec_words(vectors))
        sentences = run_sentences(cli_workspace, tagged=True, duplicate=False)
        for set_id, slot, metric_id, tagset_name, value in rows:
            score = direct_scorer(metric_id, tagset_name, table, None, True)
            expected = score(sentences[(set_id, "ref")], sentences[(set_id, slot)])
            assert value == repr(expected), (set_id, slot, metric_id)

    def test_tagger_runs_only_on_sampled_sets(self, cli_workspace, tagger_model, tmp_path,
                                              monkeypatch):
        import posscore.posmetrics as posmetrics
        from posscore.postag import tag

        calls = []

        def counting_tagger(model, tokens, *shared):
            calls.append(tokens)
            return tag(model, tokens, *shared)

        monkeypatch.setattr(posmetrics, "run_tagger", counting_tagger)
        rc = run(
            "score",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--tagger-model", str(tagger_model),
            "--metrics", "bleu1",
            "--sample", "1",
            "--out", str(tmp_path / "scores.csv"),
        )
        assert rc == 0
        assert len(calls) == 3


def write_padded_vec(src, dest, fillers=200):
    """Copy a .vec file, adding rows the corpus never looks up: filler words
    and, after each real row, a casefold variant that must lose to it.
    """
    header, *rows = src.read_text(encoding="utf-8").splitlines()
    dim = int(header.split()[1])
    padded = []
    for i, row in enumerate(rows):
        token = row.split(" ")[0]
        padded.append(row)
        padded.append(" ".join([token.upper()] + ["9.5"] * dim))
        padded.append(" ".join([f"filler{i}"] + [repr(0.25 * i)] * dim) + " ")
    padded.extend(" ".join([f"extra{i}"] + ["-1.0"] * dim) for i in range(fillers))
    dest.write_text(f"{len(padded)} {dim}\n" + "\n".join(padded) + "\n", encoding="utf-8")


class TestEmbeddingLoad:
    @pytest.mark.parametrize("tagged", [True, False])
    def test_padded_vec_gives_identical_csv(self, cli_workspace, tmp_path, tagged):
        padded = tmp_path / "padded.vec"
        write_padded_vec(cli_workspace / "vectors.vec", padded)
        if tagged:
            source = ["--tags", str(cli_workspace / "tags.tsv")]
            metrics = "posscore,pwe:ea,ptlc:ea,ea,bleu1"
        else:
            source = []
            metrics = "ea,bleu1"
        outs = []
        for vec in (cli_workspace / "vectors.vec", padded):
            out = tmp_path / f"{vec.stem}.csv"
            rc = run(
                "score",
                "--corpus", str(cli_workspace / "corpus.jsonl"),
                *source,
                "--embeddings", str(vec),
                "--metrics", metrics,
                "--out", str(out),
            )
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_vec_not_read_without_embedding_metric(self, cli_workspace, tmp_path, monkeypatch):
        args = [
            "score",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--metrics", "bleu1,meteor",
        ]
        plain = tmp_path / "plain.csv"
        assert run(*args, "--out", str(plain)) == 0

        def refuse(*_args, **_kwargs):
            raise AssertionError("load_vec called")

        monkeypatch.setattr("posscore.posmetrics.load_vec", refuse)
        out = tmp_path / "with_vec.csv"
        rc = run(*args, "--embeddings", str(cli_workspace / "vectors.vec"), "--out", str(out))
        assert rc == 0
        assert out.read_bytes() == plain.read_bytes()

    def test_non_numeric_value_exits_2(self, cli_workspace, tmp_path, capsys):
        vec = tmp_path / "bad.vec"
        vec.write_text("2 2\ncat 1.0 0.5\nsat 1.0 x\n", encoding="utf-8")
        rc = run(
            "score",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--embeddings", str(vec),
            "--metrics", "ea",
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad.vec: line 3" in err and "'x'" in err

    def test_value_with_a_unit_separator_exits_2(self, cli_workspace, tmp_path, capsys):
        # np.loadtxt strips \x1c and would read 1.0; float() refuses it
        vec = tmp_path / "bad.vec"
        vec.write_text("2 2\ncat 1\x1c 2\nsat 1.0 0.5\n", encoding="utf-8")
        rc = run(
            "score",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--embeddings", str(vec),
            "--metrics", "ea",
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad.vec: line 2: could not convert string to float: '1\\x1c'" in err

    @pytest.mark.parametrize("value", ["nan", "-inf", "1e400"])
    def test_non_finite_value_exits_2(self, cli_workspace, tmp_path, capsys, value):
        # a NaN row once made every `ea` score read exactly 1.0, with exit 0;
        # the row of a word the corpus never uses is skipped unparsed
        vec = tmp_path / "bad.vec"
        vec.write_text(f"3 2\nunused nan 0\ncat 1.0 0.5\nsat {value} 0\n", encoding="utf-8")
        out = tmp_path / "x.csv"
        rc = run(
            "score",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--embeddings", str(vec),
            "--metrics", "ea",
            "--out", str(out),
        )
        assert rc == 2
        assert not out.exists()
        assert "bad.vec: line 4: non-finite value in 'sat'" in capsys.readouterr().err

    def test_overflowing_row_exits_2(self, cli_workspace, tmp_path, capsys):
        # `ea` once read 1.0 for cat against dog here, where the rows
        # scaled to 1 give 0.7071
        vec = tmp_path / "big.vec"
        vec.write_text("3 2\ncat 1e300 0\ndog 1e300 1e300\ncow 0 1e300\n", encoding="utf-8")
        out = tmp_path / "x.csv"
        rc = run(
            "score",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--embeddings", str(vec),
            "--metrics", "ea",
            "--out", str(out),
        )
        assert rc == 2
        assert not out.exists()
        assert "big.vec: line 2: squared norm past the float range in 'cat'" in (
            capsys.readouterr().err
        )

    @staticmethod
    def prefixed_vec(ws, dest, keep=0):
        """A copy of the workspace .vec whose words past the first `keep` carry a zzq prefix."""
        header, *rows = (ws / "vectors.vec").read_text(encoding="utf-8").splitlines()
        rows = rows[:keep] + [f"zzq{row}" for row in rows[keep:]]
        dest.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        return dest

    @pytest.mark.parametrize("tagged", [True, False])
    def test_vec_covering_no_token_exits_2(self, cli_workspace, tmp_path, capsys, tagged):
        # every embedding score once read 0 and every set tied, so posscore
        # got a power of 0.0 with a tiny p_vs_baseline and exit 0
        vec = self.prefixed_vec(cli_workspace, tmp_path / "prefixed.vec")
        source = ["--tags", str(cli_workspace / "tags.tsv")] if tagged else []
        out = tmp_path / "report.csv"
        rc = run(
            "evaluate",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            *source,
            "--embeddings", str(vec),
            "--metrics", "posscore,bleu1" if tagged else "ea,bleu1",
            "--out", str(out),
        )
        assert rc == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"error: {vec}: no token of the run has a vector in this file\n"
        )

    def test_vec_covering_some_tokens_runs(self, cli_workspace, tmp_path):
        vec = self.prefixed_vec(cli_workspace, tmp_path / "partial.vec", keep=3)
        rc = run(
            "evaluate",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--tags", str(cli_workspace / "tags.tsv"),
            "--embeddings", str(vec),
            "--metrics", "posscore,bleu1",
            "--out", str(tmp_path / "report.csv"),
        )
        assert rc == 0

    def test_tag_source_errors_before_vec(self, tmp_path, capsys):
        corpus = tmp_path / "mini.jsonl"
        write_mini_corpus(corpus, n=2)
        tags = tmp_path / "short.tsv"
        tags.write_text("1\tthe\tDET\n")
        vec = tmp_path / "bad.vec"
        vec.write_text("1 2\ncat 1.0\n", encoding="utf-8")
        rc = run(
            "score",
            "--corpus", str(corpus),
            "--tags", str(tags),
            "--embeddings", str(vec),
            "--metrics", "posscore",
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {tags}: expected 6 sentences")


class TestBadCorpus:
    @pytest.mark.parametrize(
        "candidates",
        [
            [{"text": "A cat.", "human": float("nan")}, {"text": "It was.", "human": 2.0}],
            # "text" in "text" holds, so a substring test would pass it on
            ["text", "text"],
        ],
        ids=["human-nan", "candidates-strings"],
    )
    def test_exits_2_naming_file_and_line(self, tmp_path, capsys, candidates):
        corpus = tmp_path / "bad.jsonl"
        write_mini_corpus(corpus, n=1)
        row = {"id": "m1", "reference": "The cat sat.", "candidates": candidates}
        with open(corpus, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(row) + "\n")
        out = tmp_path / "report.csv"
        rc = run("evaluate", "--corpus", str(corpus), "--metrics", "bleu1", "--out", str(out))
        assert rc == 2
        assert not out.exists()
        assert f"error: {corpus}: line 2: candidates[0]" in capsys.readouterr().err


class TestDuplicateSetIds:
    def test_duplicate_ids_exit_2(self, tmp_path, capsys):
        # two sets with one id and opposite preferences: the true power of
        # bleu1 is 0.5, but keying scores by id would silently report 0.0
        corpus = tmp_path / "dup.jsonl"
        rows = [
            {
                "id": "s1",
                "reference": "The cat sat on the mat.",
                "candidates": [
                    {"text": "The cat sat on the mat.", "human": hg},
                    {"text": "It was very happy.", "human": hb},
                ],
            }
            for hg, hb in ((5.0, 1.0), (1.0, 5.0))
        ]
        corpus.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        out = tmp_path / "report.csv"
        rc = run("evaluate", "--corpus", str(corpus), "--metrics", "bleu1", "--out", str(out))
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "line 2: duplicate set id 's1' (first on line 1)" in err


BASES = ("bleu1", "bleu2", "bleu3", "bleu4", "meteor", "ea")


def write_related_synonyms(path):
    """Synonym pairs between words the fixture corpus uses."""
    path.write_text("cat\tdog\nsat\tran\nmat\troof\nhappy\tbig\n", encoding="utf-8")


def run_sentences(ws, tagged, duplicate):
    """(set id, role) -> the sentence a run scores, built without the CLI."""
    from posscore.core import TaggedSentence
    from posscore.ingest import load_jsonl
    from posscore.postag import remap_aux_to_verb

    corpus = load_jsonl(ws / "corpus.jsonl")
    out = {}
    if tagged:
        sentences = load_tagged(ws / "tags.tsv")
        for i, ev in enumerate(corpus):
            for k, role in enumerate(("ref", "a", "b")):
                out[(ev.id, role)] = remap_aux_to_verb(sentences[3 * i + k])
        if duplicate:
            for ev in corpus:
                bad = (ev.id, "b" if ev.good_slot == "a" else "a")
                out[bad] = TaggedSentence(out[bad].items + out[bad].items)
        return out
    for ev in corpus:
        for role, text in (("ref", ev.reference), ("a", ev.candidate_a), ("b", ev.candidate_b)):
            if duplicate and role == ev.bad_slot:
                text = f"{text} {text}"
            out[(ev.id, role)] = tokenize(text)
    return out


def direct_scorer(metric_id, tagset_name, table, synonyms, count_punct):
    """scorer(ref, cand) -> value through the public function the id names."""
    from posscore import TagSet, bleu_n, embedding_average, meteor, posscore, ptlc, pwe

    head, _, rest = metric_id.partition(":")
    tags = TagSet.parse(tagset_name) if tagset_name else None
    if head == "posscore":
        return lambda r, c: posscore(r, c, tags, table, count_punct).value
    if head in ("pwe", "ptlc"):
        fn, base = (pwe if head == "pwe" else ptlc), rest.split(":")[0]
        return lambda r, c: fn(r, c, tags, base, table, synonyms).value

    def tokens(s):
        return list(s.tokens) if hasattr(s, "tokens") else s

    if head == "meteor":
        return lambda r, c: meteor(tokens(r), tokens(c), synonyms).value
    if head == "ea":
        return lambda r, c: embedding_average(tokens(r), tokens(c), table).value
    return lambda r, c: bleu_n(tokens(r), tokens(c), int(head[-1])).value


class TestRegistryOracle:
    """Every `score` value equals repr() of the direct public-function call."""

    RUNS = {
        "tags": (
            True,
            ["posscore"] + [f"{f}:{b}" for f in ("pwe", "ptlc") for b in BASES] + list(BASES),
            [],
        ),
        "tags-options": (
            True,
            ["posscore", "posscore:verb+noun", "pwe:meteor:adj+propn+noun", "ptlc:ea:verb",
             "ptlc:bleu2:adv+verb", "pwe:ea", "ptlc:meteor", "meteor", "ea", "bleu3"],
            ["--count-punct", "off", "--synonyms", "--duplicate-bad",
             "--tagset", "adj+verb+propn+noun"],
        ),
        # posscore, scored last, reads the default tag set's split that pwe
        # and ptlc made, with POS-word fractions of its own
        "tags-shared-split": (
            True,
            ["pwe:ea", "ptlc:meteor", "ptlc:bleu2", "posscore"],
            ["--count-punct", "off", "--tagset", "adj+verb+propn+noun"],
        ),
        "tokens": (False, list(BASES), []),
        "tokens-options": (False, list(BASES), ["--synonyms", "--duplicate-bad"]),
    }

    @pytest.mark.parametrize("name", list(RUNS))
    def test_csv_equals_direct_calls(self, cli_workspace, tmp_path, name):
        from posscore import SynonymLexicon, load_vec

        tagged, metrics, options = self.RUNS[name]
        syn_path = tmp_path / "syn.tsv"
        write_related_synonyms(syn_path)
        synonyms = SynonymLexicon.load(syn_path) if "--synonyms" in options else None
        options = [x for o in options for x in ([o, str(syn_path)] if o == "--synonyms" else [o])]
        source = ["--tags", str(cli_workspace / "tags.tsv")] if tagged else []
        out = tmp_path / "scores.csv"
        rc = run(
            "score",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            *source,
            "--embeddings", str(cli_workspace / "vectors.vec"),
            "--metrics", ",".join(metrics),
            *options,
            "--out", str(out),
        )
        assert rc == 0
        rows = read_csv(out)[1:]
        assert len({r[2] for r in rows}) == len(metrics)

        vectors = cli_workspace / "vectors.vec"
        table = load_vec(vectors, vec_words(vectors))
        sentences = run_sentences(cli_workspace, tagged, "--duplicate-bad" in options)
        count_punct = "off" not in options
        for set_id, slot, metric_id, tagset_name, value in rows:
            score = direct_scorer(metric_id, tagset_name, table, synonyms, count_punct)
            expected = score(sentences[(set_id, "ref")], sentences[(set_id, slot)])
            assert value == repr(expected), (set_id, slot, metric_id)


class TestPrepareOnce:
    @pytest.mark.parametrize("count_punct", ["on", "off"])
    def test_stems_and_splits_computed_once(self, cli_workspace, tmp_path, monkeypatch, count_punct):
        import posscore.basemetrics as basemetrics
        import posscore.posmetrics as posmetrics
        from posscore.core import DEFAULT_TAG_SET, TagSet

        stemmed, splits = [], []
        real_stem, real_split = basemetrics.porter_stem, posmetrics.pos_split

        def counting_stem(word):
            stemmed.append(word)
            return real_stem(word)

        def counting_split(sentence, tags, *args):
            splits.append(tags)
            return real_split(sentence, tags, *args)

        monkeypatch.setattr(basemetrics, "porter_stem", counting_stem)
        monkeypatch.setattr(posmetrics, "pos_split", counting_split)
        rc = run(
            "evaluate",
            "--corpus", str(cli_workspace / "corpus.jsonl"),
            "--tags", str(cli_workspace / "tags.tsv"),
            "--embeddings", str(cli_workspace / "vectors.vec"),
            "--metrics", "posscore,pwe:meteor,ptlc:bleu1:verb+noun,ptlc:meteor,meteor,ea",
            "--count-punct", count_punct,
            "--out", str(tmp_path / "report.csv"),
        )
        assert rc == 0
        norms = {tok.norm for s in load_tagged(cli_workspace / "tags.tsv") for tok in s.tokens}
        assert sorted(stemmed) == sorted(norms)
        # posscore shares the default tag set's split with pwe and ptlc,
        # also when --count-punct off changes its POS-word fractions
        n_sets = len((cli_workspace / "corpus.jsonl").read_text().splitlines())
        calls = {DEFAULT_TAG_SET: 3 * n_sets, TagSet.parse("verb+noun"): 3 * n_sets}
        assert Counter(splits) == calls
