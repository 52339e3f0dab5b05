import gc
import hashlib
import random
import tracemalloc

import pytest

from posscore.core import PosTag, TaggedSentence, tokenize
from posscore.postag import (
    MODEL_MAGIC,
    TaggerModel,
    _predict,
    load_model,
    load_tagged,
    remap_aux_to_verb,
    save_model,
    tag,
    train,
    write_tagged,
)

from conftest import random_tagged_sentence
from oracles import enum_predict

TAGS = list(PosTag)

NOUNS = ["cat", "dog", "bird", "fish"]
VERBS = ["chases", "sees", "likes"]
ADJS = ["big", "small"]


def synth_sentence(rng: random.Random) -> TaggedSentence:
    """DET [ADJ] NOUN VERB DET NOUN, where 'saw' can fill either the noun or
    the verb slot; its tag is decided by position alone.
    """
    pairs = [(rng.choice(["the", "a"]), "DET")]
    if rng.random() < 0.5:
        pairs.append((rng.choice(ADJS), "ADJ"))
    pairs.append((rng.choice(NOUNS + ["saw"]), "NOUN"))
    pairs.append((rng.choice(VERBS + ["saw"]), "VERB"))
    pairs.append((rng.choice(["the", "a"]), "DET"))
    pairs.append((rng.choice(NOUNS + ["saw"]), "NOUN"))
    return TaggedSentence.from_strings(pairs)


def synth_corpus(n: int, seed: int) -> list[TaggedSentence]:
    rng = random.Random(seed)
    return [synth_sentence(rng) for _ in range(n)]


def accuracy(model: TaggerModel, corpus: list[TaggedSentence]) -> float:
    hits = total = 0
    for sent in corpus:
        predicted = tag(model, list(sent.tokens))
        for want, got in zip(sent.tags, predicted.tags):
            hits += want is got
            total += 1
    return hits / total


class TestTrain:
    def test_unambiguous_corpus_one_epoch(self):
        # every type occurs >= 5 times with a single tag, so the prior
        # alone reproduces the corpus
        base = TaggedSentence.from_strings(
            [("the", "DET"), ("cat", "NOUN"), ("sat", "VERB")]
        )
        corpus = [base] * 6
        model = train(corpus, epochs=1)
        for sent in corpus:
            assert tag(model, list(sent.tokens)) == sent

    def test_ambiguous_corpus_training_accuracy(self):
        corpus = synth_corpus(50, seed=42)
        model = train(corpus, epochs=5)
        assert accuracy(model, corpus) >= 0.95

    def test_held_out_accuracy(self):
        model = train(synth_corpus(50, seed=42), epochs=5)
        held_out = synth_corpus(20, seed=1234)
        assert accuracy(model, held_out) >= 0.90

    def test_empty_corpus(self):
        with pytest.raises(ValueError, match="empty training corpus"):
            train([], epochs=1)

    def test_bad_epochs(self):
        corpus = synth_corpus(3, seed=0)
        with pytest.raises(ValueError):
            train(corpus, epochs=0)

    def test_deterministic_under_seed(self):
        corpus = synth_corpus(30, seed=7)
        m1 = train(corpus, epochs=3, seed=5)
        m2 = train(corpus, epochs=3, seed=5)
        assert m1.feature_weights == m2.feature_weights
        assert m1.tag_prior == m2.tag_prior

    def test_prior_excludes_ambiguous_types(self):
        corpus = synth_corpus(50, seed=42)
        model = train(corpus, epochs=1)
        assert "saw" not in model.tag_prior
        assert model.tag_prior.get("the") is PosTag.DET


class TestTag:
    def test_empty_input(self):
        model = train(synth_corpus(5, seed=0), epochs=1)
        assert tag(model, []) == TaggedSentence(())

    def test_prior_short_circuit(self):
        model = TaggerModel(
            feature_weights={"w=rock": {TAGS.index(PosTag.VERB): 5.0}},
            tag_prior={"rock": PosTag.NOUN},
            iterations_trained=1,
        )
        out = tag(model, tokenize("rock"))
        assert out.tags == (PosTag.NOUN,)

    def test_output_length_matches_input(self):
        model = train(synth_corpus(10, seed=3), epochs=2)
        rng = random.Random(55)
        for _ in range(25):
            sent = random_tagged_sentence(rng, 0, 12)
            out = tag(model, list(sent.tokens))
            assert len(out) == len(sent)

    def test_digit_feature(self):
        # only the "digit" feature carries weight: all-digit tokens get NUM,
        # and every other token the first tag
        model = TaggerModel(
            feature_weights={"digit": {TAGS.index(PosTag.NUM): 1.0}},
            tag_prior={},
            iterations_trained=1,
        )
        out = tag(model, tokenize("42 cats in 1999 , 3rd"))
        assert out.tags == (PosTag.NUM, TAGS[0], TAGS[0], PosTag.NUM, TAGS[0], TAGS[0])

    def test_tie_break_is_stable(self):
        # an untrained model scores every tag 0; the first tag in the
        # alphabet must win
        model = TaggerModel(feature_weights={}, tag_prior={}, iterations_trained=0)
        out = tag(model, tokenize("anything"))
        assert out.tags == (next(iter(PosTag)),)

    def test_predict_matches_enum_keyed_oracle(self):
        rng = random.Random(31)
        features = [f"f{k}" for k in range(10)]
        grids = {
            # few distinct values: many exact ties
            "ties": [-1.0, -0.5, 0.5, 1.0],
            # sums such as 0.1 + 0.2 differ from 0.3 in the last bit, so a
            # different summation order would flip near-ties
            "rounding": [0.1, 0.2, 0.3, -0.1, -0.2, -0.3],
            # only negative weights: a tag absent from every row scores 0 and wins
            "negative": [-2.0, -1.0, -0.25],
        }
        seen = {"tie": 0, "absent-wins": 0, "no-feats": 0, "unseen-only": 0}
        for trial in range(3000):
            grid = list(grids.values())[trial % 3]
            table = {}
            for f in features[:7]:  # f7..f9 are never in the table
                tags = rng.sample(TAGS, rng.randint(0, 6))  # 0 gives an empty row
                table[f] = {t: rng.choice(grid) for t in tags}
            feats = [rng.choice(features) for _ in range(rng.randint(0, 8))]
            want = enum_predict(table, feats)
            got = _predict({f: {TAGS.index(t): w for t, w in row.items()}
                            for f, row in table.items()}, feats)
            assert TAGS[got] is want, (table, feats)
            scores = {t: sum(table.get(f, {}).get(t, 0.0) for f in feats) for t in TAGS}
            seen["tie"] += list(scores.values()).count(scores[want]) > 1
            seen["absent-wins"] += all(want not in table.get(f, {}) for f in feats) and any(
                table.get(f) for f in feats)
            seen["no-feats"] += not feats
            seen["unseen-only"] += bool(feats) and all(f not in table for f in feats)
        assert min(seen.values()) >= 20, seen

    def test_ambiguous_word_split_by_context(self):
        model = train(synth_corpus(80, seed=9), epochs=5)
        noun_slot = tag(model, tokenize("the saw sees a cat"))
        verb_slot = tag(model, tokenize("the dog saw a cat"))
        assert noun_slot.tags[1] is PosTag.NOUN
        assert verb_slot.tags[2] is PosTag.VERB


class TestModelSerialization:
    def test_round_trip(self, tmp_path):
        model = train(synth_corpus(30, seed=7), epochs=3)
        p = tmp_path / "model.tsv"
        save_model(model, p)
        loaded = load_model(p)
        assert loaded.tag_prior == dict(model.tag_prior)
        assert loaded.iterations_trained == model.iterations_trained
        for feature, row in model.feature_weights.items():
            assert loaded.feature_weights[feature] == dict(row)

    def test_round_trip_predictions(self, tmp_path):
        model = train(synth_corpus(30, seed=7), epochs=3)
        p = tmp_path / "model.tsv"
        save_model(model, p)
        loaded = load_model(p)
        for sent in synth_corpus(10, seed=99):
            tokens = list(sent.tokens)
            assert tag(model, tokens) == tag(loaded, tokens)

    def test_saved_model_bytes_are_pinned(self, tmp_path):
        # taken when weights were keyed by PosTag members; keying them by
        # tag index must write the same file
        p = tmp_path / "model.tsv"
        save_model(train(synth_corpus(30, seed=7), epochs=2), p)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == (
            "a66b8fc01f02a81777a7c85b3fcd2816a3103842a139911a7c82198422df693e"
        )

    def test_save_is_byte_deterministic(self, tmp_path):
        model = train(synth_corpus(20, seed=4), epochs=2)
        p1, p2 = tmp_path / "m1.tsv", tmp_path / "m2.tsv"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_header(self, tmp_path):
        p = tmp_path / "model.tsv"
        p.write_text("not-a-model\t3\nW\tw=x\tNOUN\t1.0\n")
        with pytest.raises(ValueError, match=MODEL_MAGIC):
            load_model(p)

    def test_malformed_row(self, tmp_path):
        p = tmp_path / "model.tsv"
        p.write_text(f"{MODEL_MAGIC}\t1\nW\tw=x\tNOUN\n")
        with pytest.raises(ValueError, match="line 2"):
            load_model(p)

    @pytest.mark.parametrize(
        "text, message",
        [
            (f"{MODEL_MAGIC}\t-2\n", "line 1: bad iteration count '-2'"),
            (f"{MODEL_MAGIC}\t1\nW\tw=x\tNOUN\t1.0\nW\tw=x\tVERB\tnan\n",
             "line 3: weight must be finite, got 'nan'"),
            (f"{MODEL_MAGIC}\t1\nW\tw=x\tVERB\t-1e400\n",
             "line 2: weight must be finite, got '-1e400'"),
            (f"{MODEL_MAGIC}\t1\nW\tw=x\tVERB\tone\n",
             "line 2: could not convert string to float: 'one'"),
            (f"{MODEL_MAGIC}\t1\nP\tthe\tDET\nW\tw=x\tFOO\t1.0\n",
             "line 3: unknown POS tag 'FOO'"),
            (f"{MODEL_MAGIC}\t1\nP\tthe\tdet\n", "line 2: unknown POS tag 'det'"),
            (f"{MODEL_MAGIC}\t1\nW\tw=x\tNOUN\t1.0\nW\tw=x\tVERB\t2.0\n"
             "W\tw=x\tNOUN\t3.0\n", "line 4: repeated W row for 'w=x' and NOUN"),
            (f"{MODEL_MAGIC}\t1\nP\tthe\tDET\nP\tthe\tDET\n",
             "line 3: repeated P row for 'the'"),
        ],
        ids=["negative-epochs", "nan-weight", "infinite-weight", "non-numeric-weight",
             "unknown-weight-tag", "unknown-prior-tag", "repeated-weight", "repeated-prior"],
    )
    def test_bad_row_names_file_and_line(self, tmp_path, text, message):
        p = tmp_path / "model.tsv"
        p.write_text(text)
        with pytest.raises(ValueError) as info:
            load_model(p)
        assert str(info.value) == f"{p}: {message}"


class TestTaggedFiles:
    def test_round_trip(self, tmp_path):
        rng = random.Random(13)
        sents = [random_tagged_sentence(rng, 1, 8) for _ in range(5)]
        p = tmp_path / "tags.tsv"
        write_tagged(sents, p)
        assert load_tagged(p) == sents

    def test_two_sentence_structure(self, tmp_path):
        p = tmp_path / "tags.tsv"
        lines = []
        for i, w in enumerate("the cat sat on mats".split(), start=1):
            lines.append(f"{i}\t{w}\tNOUN")
        lines.append("")
        for i, w in enumerate("it flew".split(), start=1):
            lines.append(f"{i}\t{w}\tVERB")
        p.write_text("\n".join(lines) + "\n")
        sents = load_tagged(p)
        assert [len(s) for s in sents] == [5, 2]

    def test_aux_tag_parses(self, tmp_path):
        p = tmp_path / "tags.tsv"
        p.write_text("1\tis\tAUX\n")
        (sent,) = load_tagged(p)
        assert sent.tags == (PosTag.AUX,)

    def test_unknown_tag_falls_back_to_x(self, tmp_path):
        p = tmp_path / "tags.tsv"
        p.write_text("1\tblorp\tFOO\n")
        (sent,) = load_tagged(p)
        assert sent.tags == (PosTag.X,)

    def test_equal_surfaces_share_one_token(self, tmp_path):
        rng = random.Random(17)
        words = ["the", "The", "cat", "sat", "É", "é", ",", "don't"]
        tags = ["DET", "NOUN", "VERB", "AUX", "FOO", "noun", ""]
        sents = [
            [(rng.choice(words), rng.choice(tags)) for _ in range(rng.randint(1, 9))]
            for _ in range(40)
        ]
        p = tmp_path / "tags.tsv"
        with open(p, "w", encoding="utf-8") as fh:
            for sent in sents:
                fh.writelines(f"{i}\t{w}\t{t}\n" for i, (w, t) in enumerate(sent, start=1))
                fh.write("\n")
        loaded = load_tagged(p)
        known = {t.value for t in PosTag}
        expected = [[(w, t if t in known else "X") for w, t in sent] for sent in sents]
        assert loaded == [TaggedSentence.from_strings(sent) for sent in expected]
        by_surface = {}
        for sent in loaded:
            for token, _ in sent:
                assert by_surface.setdefault(token.surface, token) is token
        assert sorted(by_surface) == sorted(words)

    def test_malformed_line_number(self, tmp_path):
        p = tmp_path / "tags.tsv"
        p.write_text("1\tthe\tDET\nbroken line\n")
        with pytest.raises(ValueError, match="line 2"):
            load_tagged(p)

    def test_non_integer_index(self, tmp_path):
        p = tmp_path / "tags.tsv"
        p.write_text("x\tthe\tDET\n")
        with pytest.raises(ValueError, match="line 1"):
            load_tagged(p)

    def test_trailing_blank_lines(self, tmp_path):
        p = tmp_path / "tags.tsv"
        p.write_text("1\tthe\tDET\n\n\n")
        assert len(load_tagged(p)) == 1


def write_repeating_tags(path, n_sentences=1500, seed=29):
    """A tags file of 10-25-token sentences over 200 words and four tags, so
    that (surface, tag) rows repeat; about a tenth of the rows are AUX.
    """
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(200)]
    with open(path, "w", encoding="utf-8") as fh:
        for n in range(n_sentences):
            if n:
                fh.write("\n")
            for i in range(1, rng.randint(10, 25) + 1):
                if rng.random() < 0.1:
                    word, t = rng.choice(["is", "was", "can"]), "AUX"
                else:
                    word, t = rng.choice(words), rng.choice(["NOUN", "VERB", "ADJ", "DET"])
                fh.write(f"{i}\t{word}\t{t}\n")


def retained_per_token(build):
    """build()'s result and the bytes it keeps allocated per tagged token."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sentences = build()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return sentences, retained / sum(len(s) for s in sentences)


class TestSharedPairs:
    def test_equal_rows_share_one_pair(self, tmp_path):
        p = tmp_path / "tags.tsv"
        p.write_text("1\tcat\tNOUN\n2\tcat\tVERB\n\n1\tcat\tNOUN\n2\tcat\tFOO\n3\tcat\tX\n")
        (a, b), (c, d, e) = (s.items for s in load_tagged(p))
        assert a is c and a == (b[0], PosTag.NOUN)
        assert b is not a and b[0] is a[0]
        # an unknown tag reads X, but its row is another row than X's
        assert d == e == (a[0], PosTag.X)

    def test_tagger_shares_pairs_across_calls(self):
        model = TaggerModel({}, {"cat": PosTag.NOUN, "sat": PosTag.VERB}, 1)
        pairs = {}
        first = tag(model, tokenize("cat sat"), pairs)
        second = tag(model, tokenize("sat cat cat"), pairs)
        assert second.items[1] is second.items[2] is first.items[0]
        assert second.items[0] is first.items[1]
        assert second == tag(model, tokenize("sat cat cat"))

    def test_load_retains_a_slot_per_token(self, tmp_path):
        # a new (token, tag) tuple per row kept 73 B per token here, and 19 B
        # with one pair per distinct row
        p = tmp_path / "tags.tsv"
        write_repeating_tags(p)
        sentences, per_token = retained_per_token(lambda: load_tagged(p))
        assert sum(len(s) for s in sentences) > 20_000
        assert per_token < 40

    def test_fold_retains_little_past_the_loaded_corpus(self, tmp_path):
        # rebuilding every pair kept 71 B per token here, and 18 B with the
        # non-AUX pairs reused
        p = tmp_path / "tags.tsv"
        write_repeating_tags(p)
        loaded = load_tagged(p)
        folded, per_token = retained_per_token(lambda: [remap_aux_to_verb(s) for s in loaded])
        assert folded == [remap_aux_to_verb(s) for s in load_tagged(p)]
        assert per_token < 40


class TestRemap:
    def test_aux_becomes_verb(self):
        sent = TaggedSentence.from_strings([("is", "AUX"), ("good", "ADJ")])
        out = remap_aux_to_verb(sent)
        assert out.tags == (PosTag.VERB, PosTag.ADJ)
        assert out.tokens == sent.tokens

    def test_identity_without_aux(self):
        sent = TaggedSentence.from_strings([("cat", "NOUN"), ("sat", "VERB")])
        assert remap_aux_to_verb(sent) == sent

    def test_keeps_every_non_aux_pair(self):
        rng = random.Random(31)
        folded = 0
        for _ in range(50):
            sent = random_tagged_sentence(rng, 1, 12)
            out = remap_aux_to_verb(sent)
            assert len(out) == len(sent)
            for old, new in zip(sent, out):
                if old[1] is PosTag.AUX:
                    assert new[0] is old[0] and new[1] is PosTag.VERB
                    folded += 1
                else:
                    assert new is old
        assert folded > 10
