import numpy as np
import pytest

from brainspeech.evaluation import (
    EvalReport,
    cross_validated_r,
    mel_reconstruction,
    per_subject_topk,
    prediction_analysis,
    restricted_candidates,
    ridge_solve,
    topk_accuracy,
    word_level_eval,
    zero_shot_split,
)
from brainspeech.objective import softmax_rows


def make_report(probs, true_index, words=None, subjects=None):
    probs = np.asarray(probs, dtype=np.float64)
    n = probs.shape[1]
    words = words or [f"word{j}" for j in range(n)]
    subjects = subjects if subjects is not None else np.zeros(probs.shape[0], dtype=int)
    return EvalReport(
        probs=probs,
        true_index=np.asarray(true_index),
        candidate_ids=list(range(n)),
        anchor_words=list(words),
        trial_subjects=np.asarray(subjects),
    )


def uniform_report(trials, n, seed=0, subjects=None):
    rng = np.random.default_rng(seed)
    probs = softmax_rows(rng.normal(size=(trials, n)))
    true = rng.integers(0, n, size=trials)
    return make_report(probs, true, subjects=subjects)


class TestTopK:
    def test_perfect_decoder(self):
        probs = np.full((6, 5), 0.025)
        true = np.array([0, 1, 2, 3, 4, 0])
        probs[np.arange(6), true] = 0.9
        report = make_report(probs, true)
        for k in (1, 2, 5):
            assert topk_accuracy(report, k) == 100.0

    def test_uniform_scorer_near_k_over_n(self):
        trials, n, k = 4000, 50, 10
        report = uniform_report(trials, n, seed=1)
        acc = topk_accuracy(report, k) / 100.0
        expect = k / n
        sigma = np.sqrt(expect * (1 - expect) / trials)
        assert abs(acc - expect) < 3 * sigma

    def test_monotone_in_k(self):
        report = uniform_report(300, 20, seed=2)
        accs = [topk_accuracy(report, k) for k in (1, 3, 5, 10, 20)]
        assert all(a <= b for a, b in zip(accs, accs[1:]))
        assert accs[-1] == 100.0

    def test_tie_break_lowest_index_and_counted(self):
        probs = np.array([[0.25, 0.25, 0.25, 0.25]])
        r0 = make_report(probs, [0])
        assert topk_accuracy(r0, 1) == 100.0  # index 0 wins the tie
        r3 = make_report(probs, [3])
        assert topk_accuracy(r3, 1) == 0.0
        assert r3.tie_trials == 1

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            topk_accuracy(uniform_report(5, 4), 5)

    def test_per_subject_table(self):
        probs = np.full((4, 5), 0.025)
        true = np.array([0, 1, 2, 3])
        probs[0, 0] = probs[1, 1] = 0.9  # subject 0 perfect
        probs[2, 0] = probs[3, 0] = 0.9  # subject 1 wrong
        report = make_report(probs, true, subjects=np.array([0, 0, 1, 1]))
        table = per_subject_topk(report, 1)
        assert table[0] == 100.0
        assert table[1] == 0.0


class TestWordLevel:
    def test_grouping_sums_probabilities(self):
        probs = np.array([[0.2, 0.3, 0.5]])
        report = make_report(probs, [0], words=["thank", "thank", "you"])
        wl = word_level_eval(report)
        got = dict(zip(wl.word_order, wl.word_probs[0]))
        assert got == pytest.approx({"thank": 0.5, "you": 0.5})

    def test_distinct_words_match_segment_accuracy(self):
        report = uniform_report(200, 12, seed=3)
        wl = word_level_eval(report)
        assert wl.top1 == topk_accuracy(report, 1)

    def test_mass_conserved(self):
        report = uniform_report(50, 30, seed=4)
        words = [f"w{j % 7}" for j in range(30)]
        report = make_report(report.probs, report.true_index, words=words)
        wl = word_level_eval(report)
        np.testing.assert_allclose(wl.word_probs.sum(axis=1), 1.0, atol=1e-9)

    def test_missing_anchor_rejected(self):
        with pytest.raises(ValueError):
            word_level_eval(make_report(np.full((1, 2), 0.5), [0], words=["a", ""]))


class TestRestricted:
    def test_full_set_equals_plain_eval(self):
        report = uniform_report(100, 20, seed=5)
        res = restricted_candidates(report, n=20, seed=0)
        assert res["top10"] == pytest.approx(topk_accuracy(report, 10), abs=1e-9)

    def test_perfect_decoder_unaffected(self):
        probs = np.full((10, 60), 1e-4)
        true = np.arange(10)
        probs[np.arange(10), true] = 1.0
        probs /= probs.sum(axis=1, keepdims=True)
        report = make_report(probs, true)
        res = restricted_candidates(report, n=50, seed=1)
        assert res["top1"] == 100.0

    def test_uniform_decoder_two_percent(self):
        report = uniform_report(3000, 400, seed=6)
        res = restricted_candidates(report, n=50, seed=2)
        sigma = 100 * np.sqrt(0.02 * 0.98 / 3000)
        assert abs(res["top1"] - 2.0) < 3 * sigma

    def test_restriction_monotone_statistically(self):
        report = uniform_report(2000, 100, seed=7)
        small = restricted_candidates(report, n=20, seed=3)
        large = restricted_candidates(report, n=80, seed=3)
        assert small["top10"] > large["top10"]

    def test_n_bounds(self):
        report = uniform_report(5, 10)
        with pytest.raises(ValueError):
            restricted_candidates(report, n=1)
        with pytest.raises(ValueError):
            restricted_candidates(report, n=11)


class TestZeroShot:
    def test_all_words_in_train_marks_absent_na(self):
        report = uniform_report(40, 10, seed=8)
        out = zero_shot_split(word_level_eval(report), {f"word{j}" for j in range(10)})
        assert out["absent"]["top10"] is None
        assert out["absent"]["n"] == 0
        assert out["in_train"]["n"] == 40

    def test_weighted_average_partitions_overall(self):
        report = uniform_report(500, 40, seed=9)
        train_vocab = {f"word{j}" for j in range(0, 40, 2)}
        out = zero_shot_split(word_level_eval(report), train_vocab)
        n_in, n_out = out["in_train"]["n"], out["absent"]["n"]
        assert n_in > 0 and n_out > 0
        weighted = (
            out["in_train"]["top10"] * n_in + out["absent"]["top10"] * n_out
        ) / (n_in + n_out)
        assert weighted == pytest.approx(out["overall_top10"], abs=1e-9)


class TestMelReconstruction:
    def test_one_hot_returns_true_mel(self):
        mels = np.random.default_rng(10).normal(size=(6, 12, 30))
        probs = np.zeros((1, 6))
        probs[0, 4] = 1.0
        report = make_report(probs, [4])
        out = mel_reconstruction(report, mels)
        np.testing.assert_allclose(out[0], mels[4])

    def test_uniform_returns_mean(self):
        mels = np.random.default_rng(11).normal(size=(8, 5, 7))
        report = make_report(np.full((2, 8), 1 / 8), [0, 1])
        out = mel_reconstruction(report, mels)
        np.testing.assert_allclose(out[0], mels.mean(axis=0), atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(12)
        mels = rng.normal(size=(5, 4, 9))
        report = uniform_report(3, 5, seed=13)
        out = mel_reconstruction(report, mels)
        for t in range(3):
            want = sum(report.probs[t, j] * mels[j] for j in range(5))
            np.testing.assert_allclose(out[t], want, atol=1e-6)

    def test_candidate_count_mismatch(self):
        with pytest.raises(ValueError):
            mel_reconstruction(uniform_report(2, 4), np.zeros((3, 2, 2)))


class TestRidge:
    def test_hand_solved_two_feature_system(self):
        # 5 trials, 2 features, alpha = 1
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.5], [0.5, 2.0]])
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        a = x.T @ x + np.eye(2)
        want = np.linalg.inv(a) @ x.T @ y
        got = ridge_solve(x, y, alpha=1.0)
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_linear_target_recovered(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(400, 3))
        w = np.array([1.5, -2.0, 0.7])
        y = x @ w
        r = cross_validated_r(x, y, alpha=1e-8)
        assert r > 0.999

    def test_independent_target_near_zero(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(2000, 4))
        y = rng.normal(size=2000)
        assert abs(cross_validated_r(x, y, alpha=1.0)) < 0.1

    def test_rank_deficient_never_fails(self):
        x = np.ones((20, 3))  # rank 1
        y = np.random.default_rng(16).normal(size=20)
        w = ridge_solve(x, y, alpha=1.0)
        assert np.all(np.isfinite(w))

    def test_prediction_analysis_rows_must_align(self):
        with pytest.raises(ValueError, match="rows"):
            prediction_analysis(np.zeros(10), {"zipf": np.zeros((9, 1))})

    def test_prediction_analysis_per_subject(self):
        rng = np.random.default_rng(17)
        n = 200
        x = rng.normal(size=(n, 2))
        y = x @ np.array([1.0, -1.0]) + 0.1 * rng.normal(size=n)
        subjects = np.repeat([0, 1], n // 2)
        res = prediction_analysis(y, {"feat": x}, subjects=subjects)
        assert res.per_feature_r["feat"] > 0.9
        assert set(res.per_subject_r["feat"]) == {0, 1}
        assert "feat" in res.sem
