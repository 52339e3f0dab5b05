import math
import random

import pytest
from hypothesis import given, strategies as st

from posscore.core import EvaluationSet, PosTag, TagSet
from posscore.metaeval import (
    AgreementVector,
    bonferroni,
    kendall_tau,
    paired_ttest,
    pos_distribution,
    predictive_power,
    student_t_sf2,
)

from conftest import tag_text
from oracles import (
    mergesort_kendall_tau,
    scipy_kendall_tau,
    scipy_paired_ttest,
    scipy_t_sf2,
    two_block_t_sf2,
)


def make_set(i, human_a, human_b):
    return EvaluationSet(
        id=f"s{i}",
        context=(),
        reference="ref",
        candidate_a="one",
        candidate_b="two",
        human_a=human_a,
        human_b=human_b,
    )


class TestPredictivePower:
    def test_perfect_agreement(self):
        corpus = [make_set(i, 5.0, 1.0) for i in range(4)]
        scores = {ev.id: (0.9, 0.1) for ev in corpus}
        result, vec = predictive_power(corpus, scores, "m")
        assert result.power == 1.0
        assert result.correct == result.total == 4
        assert vec.correct == (1, 1, 1, 1)

    def test_sign_products(self):
        # products of metric and human deltas: +, +, -, 0
        corpus = [
            make_set(0, 5.0, 1.0),
            make_set(1, 1.0, 5.0),
            make_set(2, 5.0, 1.0),
            make_set(3, 5.0, 1.0),
        ]
        scores = {
            "s0": (0.8, 0.2),   # agrees
            "s1": (0.2, 0.8),   # agrees
            "s2": (0.2, 0.8),   # disagrees
            "s3": (0.5, 0.5),   # metric tie, counts as incorrect
        }
        result, vec = predictive_power(corpus, scores)
        assert result.power == 0.5
        assert vec.correct == (1, 1, 0, 0)

    def test_negated_scores(self):
        corpus = [
            make_set(0, 5.0, 1.0),
            make_set(1, 1.0, 5.0),
            make_set(2, 5.0, 1.0),
            make_set(3, 5.0, 1.0),
        ]
        scores = {
            "s0": (-0.8, -0.2),
            "s1": (-0.2, -0.8),
            "s2": (-0.2, -0.8),
            "s3": (-0.5, -0.5),
        }
        result, _ = predictive_power(corpus, scores)
        assert result.power == 0.25

    def test_human_scores_as_metric(self):
        rng = random.Random(3)
        corpus = []
        for i in range(20):
            a, b = rng.sample(range(1, 6), 2)
            corpus.append(make_set(i, float(a), float(b)))
        scores = {ev.id: (ev.human_a, ev.human_b) for ev in corpus}
        result, _ = predictive_power(corpus, scores)
        assert result.power == 1.0

    def test_monotone_transform_invariance(self):
        rng = random.Random(8)
        corpus = [make_set(i, *rng.sample(range(1, 6), 2)) for i in range(30)]
        scores = {ev.id: (rng.random(), rng.random()) for ev in corpus}
        _, base = predictive_power(corpus, scores)
        for f in (math.exp, lambda v: v ** 3, lambda v: 2 * v + 1):
            warped = {k: (f(a), f(b)) for k, (a, b) in scores.items()}
            _, vec = predictive_power(corpus, warped)
            assert vec == base

    def test_empty_corpus(self):
        with pytest.raises(ValueError, match="no evaluation sets"):
            predictive_power([], {})

    def test_missing_scores(self):
        corpus = [make_set(0, 5.0, 1.0)]
        with pytest.raises(ValueError, match="s0"):
            predictive_power(corpus, {})


class TestAgreementVector:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            AgreementVector(("a",), (1, 0))

    def test_non_binary(self):
        with pytest.raises(ValueError):
            AgreementVector(("a",), (2,))


def vec(ids, flags):
    return AgreementVector(tuple(ids), tuple(flags))


class TestPairedTtest:
    def test_identical_vectors(self):
        ids = [f"s{i}" for i in range(5)]
        a = vec(ids, [1, 0, 1, 0, 1])
        assert paired_ttest(a, a) == 1.0

    def test_frozen_four_of_ten(self):
        ids = [f"s{i}" for i in range(10)]
        a = vec(ids, [1, 1, 1, 1, 0, 0, 0, 0, 0, 0])
        b = vec(ids, [0] * 10)
        p = paired_ttest(a, b)
        want = scipy_paired_ttest(list(a.correct), list(b.correct))
        assert p == pytest.approx(want, abs=1e-6)

    def test_misaligned_ids(self):
        a = vec(["s0", "s1"], [1, 0])
        b = vec(["s1", "s0"], [1, 0])
        with pytest.raises(ValueError, match="different evaluation sets"):
            paired_ttest(a, b)

    def test_insufficient_pairs(self):
        a = vec(["s0"], [1])
        with pytest.raises(ValueError, match="insufficient pairs"):
            paired_ttest(a, vec(["s0"], [0]))

    def test_constant_nonzero_difference(self):
        ids = ["s0", "s1", "s2"]
        assert paired_ttest(vec(ids, [1, 1, 1]), vec(ids, [0, 0, 0])) == 0.0

    def test_matches_scipy_on_random_vectors(self):
        rng = random.Random(19)
        for _ in range(50):
            n = rng.randint(3, 40)
            ids = [f"s{i}" for i in range(n)]
            xs = [rng.randint(0, 1) for _ in range(n)]
            ys = [rng.randint(0, 1) for _ in range(n)]
            got = paired_ttest(vec(ids, xs), vec(ids, ys))
            diffs = {x - y for x, y in zip(xs, ys)}
            if len(diffs) == 1:
                # zero-variance conventions, where scipy emits nan
                assert got == (1.0 if diffs == {0} else 0.0)
                continue
            want = scipy_paired_ttest(xs, ys)
            assert got == pytest.approx(want, abs=1e-8), (xs, ys)


class TestStudentTsf2:
    def test_matches_scipy_over_grid(self):
        for df in (1, 2, 5, 9, 30, 100):
            for t in (-4.0, -1.5, -0.3, 0.0, 0.7, 2.2, 6.0):
                got = student_t_sf2(t, df)
                want = scipy_t_sf2(t, df)
                assert got == pytest.approx(want, abs=1e-8), (t, df)

    def test_matches_two_block_oracle_bit_for_bit(self):
        # both continued-fraction branches, the x <= 0 and x >= 1 edges, and
        # the df values a paired t-test on 2, 3, 400 and 10,000 sets uses
        ts = (1e-300, 1e-8, 0.01, 0.3, 0.7, 1.0, 1.96, 2.2, 4.0, 6.0, 40.0, 1e8, 1e200)
        for df in (1, 2, 3, 4.5, 9, 30, 100, 399, 1000, 9999, 250_000):
            for t in ts + tuple(-t for t in ts):
                got, want = student_t_sf2(t, df), two_block_t_sf2(t, df)
                assert got.hex() == want.hex(), (t, df)

    @given(
        st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
        st.integers(min_value=1, max_value=20_000),
    )
    def test_matches_two_block_oracle_on_random_input(self, t, df):
        assert student_t_sf2(t, df).hex() == two_block_t_sf2(t, df).hex()

    def test_zero_statistic(self):
        assert student_t_sf2(0.0, 9) == 1.0

    def test_bad_df(self):
        with pytest.raises(ValueError):
            student_t_sf2(1.0, 0)


class TestBonferroni:
    def test_scaling_and_cap(self):
        assert bonferroni(0.01, 5) == pytest.approx(0.05)
        assert bonferroni(0.4, 5) == 1.0

    def test_bad_comparisons(self):
        with pytest.raises(ValueError):
            bonferroni(0.5, 0)


class TestKendallTau:
    def test_identical_ranking(self):
        assert kendall_tau([1, 2, 3, 4], [1, 2, 3, 4]) == pytest.approx(1.0)

    def test_reversed_ranking(self):
        assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_one_swap(self):
        assert kendall_tau([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(
            0.6667, abs=1e-4
        )

    def test_symmetry(self):
        # exact, bit for bit: `correlate` computes each pair of metrics once
        x = [0.5, 0.1, 0.9, 0.3]
        y = [1.0, 2.0, 0.0, 2.0]
        assert kendall_tau(x, y) == kendall_tau(y, x)
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(2, 60)
            x = [rng.choice((0.0, 0.25, 0.5, 1.0, rng.random())) for _ in range(n)]
            y = [rng.choice((0.0, 0.5, 1.0, rng.random())) for _ in range(n)]
            assert kendall_tau(x, y).hex() == kendall_tau(y, x).hex()

    def test_all_tied_degenerate(self):
        assert kendall_tau([1, 1, 1], [1, 2, 3]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kendall_tau([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(ValueError):
            kendall_tau([1], [1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_are_refused(self, bad):
        with pytest.raises(ValueError, match="finite"):
            kendall_tau([1.0, bad, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="finite"):
            kendall_tau([1.0, 2.0, 3.0], [1.0, 2.0, bad])

    def test_matches_mergesort_oracle_bit_for_bit(self):
        # heavy ties, -0.0 next to 0.0, ints next to floats, n from 2 to 300
        rng = random.Random(31)
        for _ in range(1500):
            n = rng.randint(2, 300)
            values = (0.0, -0.0, 1, 0.5, -2.0, rng.random())
            pool = [rng.choice(values) for _ in range(rng.randint(1, 6))]
            x = [rng.choice(pool) for _ in range(n)]
            y = [rng.choice(pool) if rng.random() < 0.7 else rng.random() for _ in range(n)]
            assert kendall_tau(x, y).hex() == mergesort_kendall_tau(x, y).hex(), (x, y)

    @given(
        st.lists(
            st.tuples(st.sampled_from((0.0, -0.0, 1.0, -1.5, 2.0)), st.floats(-1e6, 1e6)),
            min_size=2,
            max_size=300,
        )
    )
    def test_matches_mergesort_oracle_on_random_input(self, pairs):
        x = [p[0] for p in pairs]
        y = [p[1] for p in pairs]
        assert kendall_tau(x, y).hex() == mergesort_kendall_tau(x, y).hex()
        assert kendall_tau(y, x).hex() == mergesort_kendall_tau(y, x).hex()

    def test_matches_scipy_with_ties(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(2, 50)
            # coarse grid forces plenty of ties
            x = [rng.randint(0, 5) / 5 for _ in range(n)]
            y = [rng.randint(0, 5) / 5 for _ in range(n)]
            want = scipy_kendall_tau(x, y)
            got = kendall_tau(x, y)
            if math.isnan(want):
                assert got == 0.0
            else:
                assert got == pytest.approx(want, abs=1e-9), (x, y)

    @given(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=2,
            max_size=30,
        )
    )
    def test_self_correlation(self, xs):
        tau = kendall_tau(xs, xs)
        if len(set(xs)) > 1:
            assert tau == pytest.approx(1.0)
        else:
            assert tau == 0.0


class TestPosDistribution:
    def test_single_response(self):
        s = tag_text("the cat sat on the mat")
        dist = pos_distribution([s], TagSet.parse("verb+noun"))
        assert dist[PosTag.NOUN] == 2.0
        assert dist[PosTag.VERB] == 1.0
        assert set(dist) == {PosTag.NOUN, PosTag.VERB}

    def test_mean_over_responses(self):
        a = tag_text("the cat dog")
        b = tag_text("cat dog bird mat")
        dist = pos_distribution([a, b], TagSet.parse("noun+propn"))
        assert dist[PosTag.NOUN] == pytest.approx(3.0)
        assert dist[PosTag.PROPN] == 0.0

    def test_empty_error(self):
        with pytest.raises(ValueError, match="no responses"):
            pos_distribution([], TagSet.parse("verb+noun"))

