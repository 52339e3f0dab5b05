import math
import random
import sys

import pytest

from posscore.basemetrics import (
    MetricScore,
    SynonymLexicon,
    _max_matching,
    bleu_n,
    embedding_average,
    load_external_scores,
    meteor,
)
from posscore.core import Token, tokenize
from posscore.embed import EmbeddingTable
from posscore.posmetrics import Metric
from posscore.stem import porter_stem

from oracles import brute_bleu, brute_meteor


def toks(text):
    return tokenize(text)


class TestBleu:
    def test_identity(self):
        text = toks("the big cat sat down")
        for n in (1, 2, 3, 4):
            s = bleu_n(text, text, n)
            assert s.value == pytest.approx(1.0, abs=1e-12)
            m = Metric(f"bleu{n}")
            assert m.metric_id == f"bleu{n}"
            assert m.score(text, text) == s

    def test_short_candidate_brevity(self):
        s = bleu_n(toks("the cat sat"), toks("the cat"), 1)
        assert s.value == pytest.approx(0.6065, abs=1e-4)
        assert s.details["bp"] == pytest.approx(math.exp(1 - 3 / 2))

    def test_disjoint_vocab_near_zero(self):
        s = bleu_n(toks("aa bb cc"), toks("dd ee ff"), 1)
        assert 0 <= s.value <= 1e-8

    def test_empty_candidate(self):
        assert bleu_n(toks("the cat"), [], 4).value == 0.0

    def test_clipping(self):
        # candidate repeats 'the' but reference has it once
        s = bleu_n(toks("the cat"), toks("the the the"), 1)
        assert s.details["p1"] == pytest.approx(1 / 3)

    def test_long_candidate_no_bp(self):
        s = bleu_n(toks("the cat"), toks("the cat sat down"), 1)
        assert s.details["bp"] == 1.0

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            bleu_n(toks("a"), toks("a"), 5)

    def test_matches_brute_force(self):
        rng = random.Random(77)
        vocab = [f"w{i}" for i in range(20)]
        for _ in range(60):
            ref = [rng.choice(vocab) for _ in range(rng.randint(1, 10))]
            cand = [rng.choice(vocab) for _ in range(rng.randint(1, 10))]
            for n in (1, 2, 3, 4):
                got = bleu_n([Token(w) for w in ref], [Token(w) for w in cand], n).value
                want = brute_bleu(ref, cand, n)
                assert got == pytest.approx(want, abs=1e-9), (ref, cand, n)

    def test_matches_brute_force_on_long_inputs(self):
        # 100-250 tokens over a small vocabulary, and candidates that copy
        # stretches of the reference, so every order has repeated k-grams
        # whose clipped counts exceed 1
        rng = random.Random(78)
        vocab = [f"w{i}" for i in range(8)]
        for _ in range(25):
            ref = [rng.choice(vocab) for _ in range(rng.randint(100, 250))]
            target = rng.randint(100, 250)
            cand = []
            while len(cand) < target:
                if rng.random() < 0.6:
                    start = rng.randrange(len(ref))
                    cand += ref[start : start + rng.randint(1, 12)]
                else:
                    cand.append(rng.choice(vocab))
            for n in (1, 2, 3, 4):
                got = bleu_n([Token(w) for w in ref], [Token(w) for w in cand], n).value
                want = brute_bleu(ref, cand, n)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15), (n, len(ref), len(cand))


class TestMeteor:
    def test_identity_three_words(self):
        s = meteor(toks("the cat sat"), toks("the cat sat"))
        assert s.value == pytest.approx(0.9815, abs=1e-4)
        assert s.details["matches"] == 3 and s.details["chunks"] == 1

    def test_stem_match(self):
        s = meteor(toks("running fast"), toks("runs fast"))
        assert s.value == pytest.approx(0.9375, abs=1e-4)

    def test_empty_candidate(self):
        assert meteor(toks("the cat"), []).value == 0.0
        assert meteor([], toks("the cat")).value == 0.0

    def test_no_matches(self):
        assert meteor(toks("aa bb"), toks("cc dd")).value == 0.0

    def test_synonym_stage(self):
        lex = SynonymLexicon([("big", "large")])
        without = meteor(toks("a big cat"), toks("a large cat"))
        with_syn = meteor(toks("a big cat"), toks("a large cat"), lex)
        assert with_syn.value > without.value
        assert with_syn.details["matches"] == 3

    def test_chunks_penalize_scrambling(self):
        ordered = meteor(toks("the cat sat down"), toks("the cat sat down"))
        scrambled = meteor(toks("the cat sat down"), toks("down sat cat the"))
        assert ordered.value > scrambled.value
        assert scrambled.details["matches"] == 4
        assert scrambled.details["chunks"] == 4

    def test_score_depends_only_on_matches_and_chunks(self):
        # same (matches, chunks, lengths) -> identical score
        a = meteor(toks("x1 x2 x3"), toks("x1 x2 zz"))
        b = meteor(toks("y1 y2 y3"), toks("y1 y2 qq"))
        assert a.value == b.value

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(4242)
        vocab = [f"w{i}" for i in range(8)] + ["running", "runs", "cats", "cat"]
        for _ in range(40):
            ref = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
            cand = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
            got = meteor([Token(w) for w in ref], [Token(w) for w in cand]).value
            want = brute_meteor(ref, cand, porter_stem)
            assert got == pytest.approx(want, abs=1e-9), (ref, cand)

    def test_long_repeated_input_does_not_recurse(self):
        # the augmenting search once recursed one level per matched word,
        # so 1,200 copies of one word raised RecursionError; a lowered limit
        # shows the same on a shorter input
        x = toks(" ".join(["the"] * 300))
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            s = meteor(x, x)
        finally:
            sys.setrecursionlimit(limit)
        assert s.details["matches"] == 300.0
        assert s.details["exact_alignment"] == 1.0

    def test_repeat_heavy_pairs_match_exhaustive_oracle(self):
        # four words, and a lexicon that chains big~large~huge without
        # relating big to huge, so the plain matching, the longest-run seed,
        # its augmentation and the search each decide some of these pairs
        pairs = frozenset({("big", "large"), ("large", "huge")})
        lex = SynonymLexicon(list(pairs))
        rng = random.Random(2024)
        vocab = ["big", "large", "huge", "cat"]
        for _ in range(300):
            ref = [rng.choice(vocab) for _ in range(rng.randint(1, 10))]
            cand = [rng.choice(vocab) for _ in range(rng.randint(1, 10))]
            for synonyms, syn_pairs in ((None, frozenset()), (lex, pairs)):
                got = meteor([Token(w) for w in ref], [Token(w) for w in cand], synonyms)
                want = brute_meteor(ref, cand, porter_stem, syn_pairs)
                # with matches and lengths fixed the score falls strictly
                # with the chunk count, so equal scores mean equal chunks
                assert got.value == pytest.approx(want, abs=1e-12), (ref, cand, synonyms)
                assert got.details.get("exact_alignment", 1.0) == 1.0, (ref, cand)

    def test_self_alignment_is_one_certified_chunk_at_any_length(self):
        # half function words, so every word has many partners; at 2,000
        # tokens any recursion per word would pass the default limit of 1,000
        function_words = "the a of in to and is it that for on with as at by".split()
        rng = random.Random(5)
        content = [f"w{k}" for k in range(300)]
        for n in (1, 2, 3, 10, 48, 49, 120, 600, 2000):
            words = [rng.choice(function_words if k % 2 else content) for k in range(n)]
            x = [Token(w) for w in words]
            s = meteor(x, x)
            assert s.value == 1 - 0.5 / n**3, n
            assert s.details["chunks"] == 1.0 and s.details["exact_alignment"] == 1.0, n

    def test_matching_equals_recursive_kuhn(self):
        def kuhn(adj, n_ref):
            match_of_ref = [-1] * n_ref

            def try_augment(i, visited):
                for j in adj[i]:
                    if not visited[j]:
                        visited[j] = True
                        if match_of_ref[j] == -1 or try_augment(match_of_ref[j], visited):
                            match_of_ref[j] = i
                            return True
                return False

            for i in range(len(adj)):
                try_augment(i, [False] * n_ref)
            return match_of_ref

        rng = random.Random(7)
        for _ in range(300):
            n_cand, n_ref = rng.randint(0, 12), rng.randint(1, 12)
            p = rng.random()
            adj = [[j for j in range(n_ref) if rng.random() < p] for _ in range(n_cand)]
            for row in adj:
                rng.shuffle(row)
            assert _max_matching(adj, n_ref) == kuhn(adj, n_ref), adj

    def test_oracle_with_synonyms(self):
        pairs = frozenset({("big", "large"), ("fast", "quick")})
        lex = SynonymLexicon(list(pairs))
        rng = random.Random(11)
        vocab = ["big", "large", "fast", "quick", "cat", "dog", "sat"]
        for _ in range(30):
            ref = [rng.choice(vocab) for _ in range(rng.randint(1, 7))]
            cand = [rng.choice(vocab) for _ in range(rng.randint(1, 7))]
            got = meteor([Token(w) for w in ref], [Token(w) for w in cand], lex).value
            want = brute_meteor(ref, cand, porter_stem, pairs)
            assert got == pytest.approx(want, abs=1e-9), (ref, cand)


class TestEmbeddingAverage:
    @pytest.fixture
    def table(self):
        return EmbeddingTable.from_dict({"a": [1.0, 0.0], "b": [0.0, 1.0]})

    def test_identity(self, table):
        s = embedding_average(toks("a b"), toks("a b"), table)
        assert s.value == pytest.approx(1.0, abs=1e-12)

    def test_closed_form(self, table):
        s = embedding_average(toks("a"), toks("a b"), table)
        assert s.value == pytest.approx(0.7071, abs=1e-4)

    def test_all_oov_candidate(self, table):
        s = embedding_average(toks("a"), toks("zz qq"), table)
        assert s.value == 0.0
        assert s.details["cand_support"] == 0.0


class TestMetricScore:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            MetricScore(float("nan"))
        with pytest.raises(ValueError):
            MetricScore(float("inf"))


class TestSynonymLexicon:
    def test_load_and_symmetry(self, tmp_path):
        p = tmp_path / "syn.tsv"
        p.write_text("big\tlarge\n# comment\n\nfast\tquick\n")
        lex = SynonymLexicon.load(p)
        assert lex.related_to("big") == {"large"} and lex.related_to("large") == {"big"}
        assert lex.related_to("fast") == {"quick"} and lex.related_to("quick") == {"fast"}

    def test_casefolded(self, tmp_path):
        p = tmp_path / "syn.tsv"
        p.write_text("Big\tLARGE\n")
        lex = SynonymLexicon.load(p)
        assert lex.related_to("big") == {"large"}

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "syn.tsv"
        p.write_text("big large\n")
        with pytest.raises(ValueError, match="line 1"):
            SynonymLexicon.load(p)


class TestExternalScores:
    def write(self, tmp_path, body):
        p = tmp_path / "ext.csv"
        p.write_text("set_id,slot,score\n" + body)
        return p

    def test_roundtrip(self, tmp_path):
        p = self.write(tmp_path, "s1,a,0.5\ns1,b,0.25\ns2,a,1.0\ns2,b,0.75\n")
        ext = load_external_scores(p)
        assert ext.pair("s1") == (0.5, 0.25)
        assert ext.pair("s2") == (1.0, 0.75)

    def test_duplicate_rejected(self, tmp_path):
        p = self.write(tmp_path, "s1,a,0.5\ns1,a,0.6\n")
        with pytest.raises(ValueError, match="row 3"):
            load_external_scores(p)

    def test_bad_slot(self, tmp_path):
        p = self.write(tmp_path, "s1,c,0.5\n")
        with pytest.raises(ValueError, match="slot"):
            load_external_scores(p)

    def test_non_numeric(self, tmp_path):
        p = self.write(tmp_path, "s1,a,abc\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_external_scores(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "ext.csv"
        p.write_text("id,slot,value\ns1,a,0.5\n")
        with pytest.raises(ValueError, match="header"):
            load_external_scores(p)

    def test_missing_slot_detected_on_pair(self, tmp_path):
        p = self.write(tmp_path, "s1,a,0.5\n")
        ext = load_external_scores(p)
        with pytest.raises(KeyError, match="s1"):
            ext.pair("s1")
