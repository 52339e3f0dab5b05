import math
import random
import sys
import tracemalloc

import pytest

from posscore.basemetrics import (
    MetricScore,
    SynonymLexicon,
    _diagonal_runs,
    _max_matching,
    bleu_n,
    embedding_average,
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
        # relating big to huge, so the longest-run seed, its augmentation,
        # the plain-matching fallback and the search each decide some of
        # these pairs
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
        cases = [[rng.choice(function_words if k % 2 else content) for k in range(n)]
                 for n in (1, 2, 3, 10, 48, 49, 120, 600, 2000)]
        # one word 1,000 times, where a plain maximum matching takes cubic time
        cases.append(["the"] * 1000)
        for words in cases:
            n = len(words)
            x = [Token(w) for w in words]
            s = meteor(x, x)
            assert s.value == 1 - 0.5 / n**3, n
            assert s.details["chunks"] == 1.0 and s.details["exact_alignment"] == 1.0, n

    def test_search_past_its_node_budget_keeps_a_maximum_matching(self, monkeypatch):
        # with no node budget, the branch and bound stops at its first node
        # and returns the better of its two seeds, uncertified; on the first
        # pair its seeds take 3 chunks where 2 suffice
        pairs = [("a c c c", "c c a c"), ("a b a c a b", "a b b a"), ("b c c a", "b c a a b c")]
        optima = [meteor(toks(ref), toks(cand)) for ref, cand in pairs]
        monkeypatch.setattr("posscore.basemetrics._ALIGN_NODE_BUDGET", 0)
        chunks = []
        for (ref, cand), optimum in zip(pairs, optima):
            got = meteor(toks(ref), toks(cand))
            assert got.details["exact_alignment"] == 0.0, (ref, cand)
            assert optimum.details["exact_alignment"] == 1.0
            assert optimum.value == pytest.approx(brute_meteor(ref.split(), cand.split(),
                                                               porter_stem), abs=1e-12)
            overlap = sum(min(ref.split().count(w), cand.split().count(w)) for w in set(ref.split()))
            assert got.details["matches"] == overlap == optimum.details["matches"]
            assert got.details["chunks"] >= optimum.details["chunks"]
            chunks.append((got.details["chunks"], optimum.details["chunks"]))
        assert chunks[0] == (3.0, 2.0)

    @pytest.mark.parametrize("ref, cand, calls", [("a a", "a a", 1), ("a c c c", "c c a c", 2)])
    def test_plain_matching_runs_only_when_the_seed_misses_the_bound(
        self, ref, cand, calls, monkeypatch
    ):
        # the run seed aligns "a a" in one chunk, its bound; on the second
        # pair it takes 3 chunks against a bound of 1, so the plain matching
        # is computed too
        seen = []

        def spy(adj, start):
            seen.append(start)
            return _max_matching(adj, start)

        monkeypatch.setattr("posscore.basemetrics._max_matching", spy)
        meteor(toks(ref), toks(cand))
        assert len(seen) == calls

    def test_plain_matching_can_take_fewer_chunks_than_the_seed(self, monkeypatch):
        # with synonyms the longest runs can lead the matching astray: here
        # the seed takes 4 chunks and the plain matching 3; with no search
        # budget the fallback alone gives the 3
        lex = SynonymLexicon([("a", "b"), ("b", "c")])
        monkeypatch.setattr("posscore.basemetrics._ALIGN_NODE_BUDGET", 0)
        got = meteor(toks("a a b b"), toks("c a c b"), lex)
        assert got.details["matches"] == 4.0
        assert got.details["chunks"] == 3.0
        assert got.details["exact_alignment"] == 0.0

    def test_diagonal_runs_holds_one_set_per_shared_row(self):
        # without synonyms equal stems share one row list; a set per
        # candidate position took 280 MB for 2,000 copies of one word
        row = list(range(300))
        tracemalloc.start()
        try:
            _diagonal_runs([row] * 300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000, peak

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
            assert _max_matching(adj, [-1] * n_ref) == kuhn(adj, n_ref), adj

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

