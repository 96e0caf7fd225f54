"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Criteria 1 (random-baseline anchor), 2 (gradient suite), 7 (DSP oracles) and
8 (statistics oracles) are here. No criterion here trains a model: the
training-based criteria 3-6 and 9 (a trained model decodes the synthetic
oracle, and the paper's claims on it) have no test yet. ``tests/test_golden.py``
pins the bytes of a short synth/train/eval run, which shows that outputs do
not change, not that they are good. The suite finishes in about a minute.
"""

import inspect
import time

import numpy as np

from brainspeech.brain_net import BrainNet, BrainNetConfig
from brainspeech.evaluation import (
    EvalReport,
    mann_whitney_u,
    ridge_solve,
    topk_accuracy,
    wilcoxon_signed_rank,
)
from brainspeech.numerics import (
    BatchNormState,
    Tensor,
    batchnorm1d,
    conv1d,
    cross_entropy_diagonal,
    gelu,
    glu,
    mix,
    mse,
    ops,
    pairwise_inner,
    relu,
    softmax,
    spatial_logits,
    subject_mix,
)
from brainspeech.objective import clip_loss_batch, softmax_rows
from brainspeech.preprocessing import resample
from brainspeech.speech import mel_spectrogram

from gradcheck import grad_check, inner_product_full, mean_all, scale
from test_brain_net import receptive_field_radius
from test_speech_features import dft_mel_oracle


def criterion(n: int, desc: str, ok: bool, details: str = "") -> None:
    line = f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {desc}"
    if details:
        line += f" [{details}]"
    print(line)
    assert ok, line


# -- criterion 1: random-baseline anchor -------------------------------------

def test_criterion_1_random_baseline_anchor():
    started = time.time()
    n_candidates = 1363
    trials_total = 10_000
    rng = np.random.default_rng(1363)
    hits = 0
    for _ in range(trials_total // 2000):
        probs = softmax_rows(rng.normal(size=(2000, n_candidates)))
        true = rng.integers(0, n_candidates, size=2000)
        report = EvalReport(
            probs=probs, true_index=true,
            candidate_ids=list(range(n_candidates)),
            anchor_words=[f"w{j}" for j in range(n_candidates)],
            trial_subjects=np.zeros(2000, dtype=int),
        )
        hits += topk_accuracy(report, 10) / 100.0 * 2000
    acc = hits / trials_total
    expect = 10 / n_candidates
    sigma = np.sqrt(expect * (1 - expect) / trials_total)
    elapsed = time.time() - started
    criterion(
        1, "uniform scorer over 1363 segments hits top-10 at 0.73% +/- 3 sigma",
        abs(acc - expect) < 3 * sigma and elapsed < 60,
        f"acc={acc * 100:.3f}% expect={expect * 100:.3f}% 3sigma={3 * sigma * 100:.3f}% "
        f"elapsed={elapsed:.1f}s",
    )


# -- criterion 2: gradient suite ----------------------------------------------

def test_criterion_2_gradient_suite():
    started = time.time()
    rng = np.random.default_rng(2)
    errors = {}

    x = Tensor(rng.normal(size=(2, 3, 9)))
    w = Tensor(rng.normal(size=(4, 3, 3)))
    b = Tensor(rng.normal(size=4))
    errors["conv1d"] = grad_check(
        lambda x_, w_, b_: mean_all(gelu(conv1d(x_, w_, b_, dilation=2))), [x, w, b]
    )

    state = BatchNormState(3, dtype=np.float64)
    xb = Tensor(rng.normal(size=(3, 3, 6)))
    gam = Tensor(rng.normal(size=3) + 1.0)
    bet = Tensor(rng.normal(size=3))
    # train-mode batchnorm1d and glu overwrite their input: scale by 1.0
    # hands each a fresh copy
    errors["batchnorm1d"] = grad_check(
        lambda x_, g_, b_: mean_all(
            gelu(batchnorm1d(scale(x_, 1.0), g_, b_, state, training=True,
                             update_running=False))
        ),
        [xb, gam, bet],
    )

    for name, op in (("gelu", gelu), ("relu", relu), ("glu", glu)):
        xa = Tensor(rng.normal(size=(2, 4, 5)))
        errors[name] = grad_check(lambda x_: mean_all(op(scale(x_, 1.0))), [xa])

    xs = Tensor(rng.normal(size=(3, 6)))
    cs = rng.normal(size=(3, 6))
    errors["softmax"] = grad_check(
        lambda x_: mean_all(inner_product_full(softmax(x_, axis=1), Tensor(cs))), [xs]
    )
    xl = Tensor(rng.normal(size=(4, 4)))
    errors["cross_entropy_diagonal"] = grad_check(cross_entropy_diagonal, [xl])

    re = Tensor(rng.normal(size=(3, 2, 2)))
    im = Tensor(rng.normal(size=(3, 2, 2)))
    cos_b, sin_b = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
    errors["spatial_logits"] = grad_check(
        lambda r_, i_: mean_all(gelu(spatial_logits(r_, i_, cos_b, sin_b))), [re, im]
    )
    wm = Tensor(rng.normal(size=(4, 3)))
    xm = Tensor(rng.normal(size=(2, 3, 5)))
    errors["mix"] = grad_check(lambda w_, x_: mean_all(gelu(mix(w_, x_))), [wm, xm])
    ms = Tensor(rng.normal(size=(2, 3, 3)))
    xs3 = Tensor(rng.normal(size=(3, 3, 4)))
    errors["subject_mix"] = grad_check(
        lambda m_, x_: mean_all(gelu(subject_mix(m_, x_, np.array([0, 1, 0])))), [ms, xs3]
    )
    zp = Tensor(rng.normal(size=(3, 2, 4)))
    yp = Tensor(rng.normal(size=(3, 2, 4)))
    errors["pairwise_inner"] = grad_check(
        lambda z_, y_: mean_all(gelu(pairwise_inner(z_, y_))), [zp, yp]
    )
    zi = Tensor(rng.normal(size=(2, 4)))
    yi = Tensor(rng.normal(size=(2, 4)))
    errors["inner_product_full"] = grad_check(inner_product_full, [zi, yi])
    am = Tensor(rng.normal(size=(2, 3)))
    bm = Tensor(rng.normal(size=(2, 3)))
    errors["mse"] = grad_check(mse, [am, bm])

    zc = Tensor(rng.normal(size=(4, 2, 5)))
    yc = Tensor(rng.normal(size=(4, 2, 5)))
    errors["clip_loss_batch"] = grad_check(clip_loss_batch, [zc, yc])
    public_ops = {
        name for name, fn in vars(ops).items()
        if inspect.isfunction(fn) and fn.__module__ == ops.__name__ and not name.startswith("_")
    }
    unchecked = sorted(public_ops - set(errors))

    # full brain module at the pinned instance size: C=4, T=40, F=8, batch=3
    cfg = BrainNetConfig(in_channels=4, out_features=8, n_subjects=2, d1=6, d2=8,
                         harmonics=2, use_spatial_dropout=False)
    net = BrainNet(cfg, np.random.default_rng(7), dtype=np.float64)
    positions = rng.uniform(0.1, 0.9, size=(4, 2))
    target = rng.normal(size=(3, 8, 40))
    sidx = np.array([0, 1, 0])
    xin = Tensor(rng.normal(size=(3, 4, 40)))

    def full_loss(x_, *ps):
        out = net.forward(x_, sidx, positions, training=True, update_running=False)
        return mean_all(gelu(inner_product_full(out, Tensor(target))))

    end_to_end = grad_check(full_loss, [xin] + net.parameters())
    elapsed = time.time() - started

    worst_prim = max(errors.values())
    criterion(
        2,
        "every public op checked, all primitives < 1e-4 and full brain module < 1e-3 "
        "vs finite differences",
        not unchecked and worst_prim < 1e-4 and end_to_end < 1e-3 and elapsed < 120,
        f"worst primitive={worst_prim:.2e} end-to-end={end_to_end:.2e} "
        f"unchecked ops={unchecked} elapsed={elapsed:.1f}s",
    )


# -- criterion 7: DSP oracles --------------------------------------------------

def test_criterion_7_dsp_oracles():
    rng = np.random.default_rng(7)
    audio = rng.normal(size=4096)
    mel_err = float(np.abs(mel_spectrogram(audio, n_mels=40)
                           - dft_mel_oracle(audio, n_mels=40)).max())

    rate_in, rate_out = 480.0, 120.0
    t = np.arange(int(rate_in * 8)) / rate_in
    tone = np.sin(2 * np.pi * 10.0 * t)[None, :]
    out = resample(tone, rate_in, rate_out)[0][120:-120]
    tt = np.arange(out.shape[0]) / rate_out + 1.0
    amp = 2 * np.hypot(
        (out * np.cos(2 * np.pi * 10.0 * tt)).mean(),
        (out * np.sin(2 * np.pi * 10.0 * tt)).mean(),
    )
    amp_err = abs(amp - 1.0)

    cfg = BrainNetConfig(in_channels=4, out_features=3, n_subjects=2, d1=4, d2=4,
                         harmonics=2)
    radius = receptive_field_radius(cfg)
    net = BrainNet(cfg, np.random.default_rng(18), dtype=np.float64)
    positions = rng.uniform(0.1, 0.9, size=(4, 2))
    t_len = 2 * radius + 40
    x_np = rng.normal(size=(2, 4, t_len))
    for i in range(2):
        net.forward(Tensor(x_np), np.array([0, 1]), positions, training=True,
                    rng=np.random.default_rng(i))
    x = Tensor(x_np.copy(), requires_grad=True)
    out_t = net.forward(x, np.array([0, 1]), positions, training=False)
    pick = np.zeros_like(out_t.data)
    mid = t_len // 2
    pick[0, :, mid] = 1.0
    inner_product_full(out_t, Tensor(pick)).backward()
    support = np.flatnonzero(np.abs(x.grad[0]).max(axis=0) > 0)
    field_ok = (radius == 67 and support.min() == mid - radius
                and support.max() == mid + radius)

    criterion(
        7,
        "Mel matches direct-DFT oracle @1e-6; resampler holds a 10 Hz tone to 1%; "
        "receptive-field radius is exactly 67",
        mel_err < 1e-6 and amp_err < 0.01 and field_ok,
        f"mel_err={mel_err:.2e} tone_amp_err={amp_err:.4f} radius={radius} "
        f"support=[{support.min() - mid},{support.max() - mid}]",
    )


# -- criterion 8: statistics oracles -------------------------------------------

def test_criterion_8_statistics_oracles():
    from test_stats import mannwhitney_enumeration_oracle, wilcoxon_enumeration_oracle

    a = np.arange(8, dtype=float) + 1.5
    b = np.arange(8, dtype=float)
    wres = wilcoxon_signed_rank(a, b)
    w_ok = wres.method == "exact" and wres.p == wilcoxon_enumeration_oracle(a, b)

    g1 = np.array([6.0, 7.0, 8.0, 9.0, 10.0])
    g2 = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    mres = mann_whitney_u(g1, g2)
    m_ok = (mres.method == "exact" and mres.statistic == 25.0
            and mres.p == 2.0 / 252.0
            and mres.p == mannwhitney_enumeration_oracle(g1, g2))

    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.5], [0.5, 2.0]])
    y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    want = np.linalg.inv(x.T @ x + np.eye(2)) @ x.T @ y
    ridge_err = float(np.abs(ridge_solve(x, y, alpha=1.0) - want).max())

    criterion(
        8,
        "Wilcoxon (n=8) and Mann-Whitney (n=m=5) match enumeration bit-for-bit; "
        "ridge matches the hand-solved system @1e-9",
        w_ok and m_ok and ridge_err < 1e-9,
        f"wilcoxon_p={wres.p} mannwhitney_p={mres.p} ridge_err={ridge_err:.2e}",
    )
