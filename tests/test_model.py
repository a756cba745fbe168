"""Model contracts: initialization functions, the single-step cell, the
unrolled forward, the joint loss, generation, and parameter accounting."""

import dataclasses
import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catvrnn.cli import GRAD_CHECK_VARIANTS, grad_check_config
from catvrnn.data import Vocabulary
from catvrnn.errors import ConfigurationError, DataError
from catvrnn.evaluation import ClassifierConfig, EvalClassifier
from catvrnn.numeric import Rng, check_gradient, nll_rows
from catvrnn.model import (
    PAD_ID,
    CatVrnnParams,
    ModelConfig,
    SequenceForward,
    forward_stepwise,
    forward_teacher,
    generate,
    init_hidden_adaptive,
    init_hidden_static,
    init_hidden_zero,
    joint_loss,
    loss_and_grad,
    parameter_count,
)


def tiny_cfg(**kw):
    base = dict(vocab_size=12, num_categories=2, embed_dim=8, hidden_dim=6,
                latent_dim=4, max_len=5, init_mode="static")
    base.update(kw)
    return ModelConfig(**base)


def batch_grads(params, x, targets, cats, seed=2):
    """``loss_and_grad``'s gradient of a batch, as name -> view, and the loss."""
    grad = np.full_like(params.store.flat, np.nan)
    loss = loss_and_grad(x, targets, cats, params, params.cfg, Rng(seed), grad)
    return params.store.views(grad), loss


def gradient_report(params, x, targets, cats, seed, **kw):
    """check_gradient of the batch-mean joint loss of forward_teacher, against
    loss_and_grad's gradient with the same draws."""
    cfg = params.cfg

    def loss():
        fwd = forward_teacher(x, cats, params, cfg, Rng(seed), train_mode=True)
        return joint_loss(fwd, targets, cats, cfg).total.mean()

    analytic = np.empty_like(params.store.flat)
    loss_and_grad(x, targets, cats, params, cfg, Rng(seed), analytic)
    return check_gradient(loss, params.store, analytic, **kw)


class FakeRng(Rng):
    """Rng whose named stream returns canned uniform draws once."""

    def __init__(self, canned):
        super().__init__(0)
        self._canned = canned

    def stream(self, name):
        outer = self

        class _Stream:
            def random(self, shape):
                return np.broadcast_to(outer._canned, shape).copy()

        return _Stream()


# --- static initialization ----------------------------------------------------


def test_static_init_category_zero_positive_sum_omega():
    cfg = tiny_cfg(hidden_dim=32)
    h0 = init_hidden_static(0, cfg, Rng(3))[0]
    assert np.all(h0 > 0)
    assert abs(h0.sum() - 8.5) < 1e-10


def test_static_init_category_one_is_sign_flipped():
    cfg = tiny_cfg(hidden_dim=32)
    h0 = init_hidden_static(1, cfg, Rng(3))[0]
    assert np.all(h0 < 0)
    assert abs(h0.sum() + 8.5) < 1e-10


def test_static_init_forced_uniform_draw():
    cfg = tiny_cfg(hidden_dim=2)
    h0 = init_hidden_static(0, cfg, FakeRng(np.zeros(2)))[0]
    np.testing.assert_allclose(h0, [4.25, 4.25], atol=1e-12)


def test_static_init_rejects_third_category():
    with pytest.raises(ConfigurationError):
        init_hidden_static(2, tiny_cfg(), Rng(0))


def test_static_init_sum_invariant_over_many_draws():
    cfg = tiny_cfg(hidden_dim=24, static_omega=8.5)
    rng = Rng(11)
    draws = np.vstack([init_hidden_static(c, cfg, rng)
                       for c in (0, 1) for _ in range(500)])
    sums = draws.sum(axis=1)
    assert np.all(np.abs(np.abs(sums) - 8.5) < 1e-10)
    signs = np.sign(draws)
    assert np.all(signs == signs[:, :1])


def test_static_init_category_means_differ_by_two_omega_l1():
    cfg = tiny_cfg(hidden_dim=16, static_omega=8.5)
    rng = Rng(21)
    mean0 = np.mean([init_hidden_static(0, cfg, rng)[0] for _ in range(1000)],
                    axis=0)
    mean1 = np.mean([init_hidden_static(1, cfg, rng)[0] for _ in range(1000)],
                    axis=0)
    l1 = np.abs(mean0 - mean1).sum()
    assert abs(l1 - 2 * 8.5) < 0.05 * 2 * 8.5


# --- adaptive initialization -----------------------------------------------------


def test_adaptive_init_zero_params_eval_mode():
    cfg = tiny_cfg(init_mode="adaptive", num_categories=4)
    params = CatVrnnParams(cfg)
    for c in range(4):
        h0 = init_hidden_adaptive(c, params, train_mode=False, rng=Rng(0))
        np.testing.assert_array_equal(h0, np.zeros((1, cfg.hidden_dim)))


def test_adaptive_init_category_zero_returns_bias():
    cfg = tiny_cfg(init_mode="adaptive")
    params = CatVrnnParams(cfg, Rng(5))
    params.store["init.bias"][:] = np.arange(cfg.hidden_dim, dtype=float)
    h0 = init_hidden_adaptive(0, params, train_mode=False, rng=Rng(0))
    np.testing.assert_array_equal(h0[0], params.store["init.bias"])


def test_adaptive_init_constant_difference_between_categories():
    cfg = tiny_cfg(init_mode="adaptive", num_categories=5)
    params = CatVrnnParams(cfg, Rng(8))
    rng = Rng(0)
    h = [init_hidden_adaptive(c, params, False, rng)[0] for c in range(5)]
    for c in range(4):
        np.testing.assert_allclose(h[c + 1] - h[c], params.store["init.omega"],
                                   atol=1e-12)


def test_adaptive_init_training_noise_and_gradients():
    cfg = tiny_cfg(init_mode="adaptive")
    params = CatVrnnParams(cfg, Rng(8))
    eval_h = init_hidden_adaptive(1, params, False, Rng(4))
    train_h = init_hidden_adaptive(1, params, True, Rng(4))
    noise = train_h - eval_h
    assert np.all(noise >= 0) and np.all(noise < 1)

    # training reaches both vectors through h0
    x = padded([[3, 4], [5]], cfg.max_len)
    grads, _ = batch_grads(params, x, np.roll(x, -1, axis=1), np.array([1, 0]))
    assert np.any(grads["init.omega"] != 0) and np.all(grads["init.bias"] != 0)


# --- zero initialization -----------------------------------------------------------


def test_zero_init_is_zero_and_rng_independent():
    cfg = tiny_cfg()
    a = init_hidden_zero(cfg, batch=3)
    np.testing.assert_array_equal(a, np.zeros((3, 6)))
    assert a.sum() == 0.0


# --- the step generate runs, observed through forward_stepwise and generate -----------


def record_steps(monkeypatch) -> list[SimpleNamespace]:
    """Copies of the arrays each ``model._step`` writes, for every step run
    after this call."""
    from catvrnn import model

    steps, original = [], model._step

    def recording(x_ids, params, rec, table, b):
        original(x_ids, params, rec, table, b)
        steps.append(SimpleNamespace(**{k: v.copy() for k, v in vars(b).items()}))

    monkeypatch.setattr(model, "_step", recording)
    return steps


def test_cell_step_shape_contract(monkeypatch):
    cfg = tiny_cfg()
    params = CatVrnnParams(cfg, Rng(0))
    steps = record_steps(monkeypatch)
    forward_stepwise(padded([[1], [2], [3]], cfg.max_len), 0, params, cfg, Rng(2))
    assert len(steps) == cfg.max_len
    for step in steps:
        assert step.logits.shape == (3, cfg.vocab_size)
        assert step.h_next.shape == (3, cfg.hidden_dim)
        assert step.z.shape == (3, cfg.latent_dim)


def test_cell_step_deterministic_under_fixed_seed(monkeypatch):
    cfg = tiny_cfg()
    params = CatVrnnParams(cfg, Rng(0))
    steps = record_steps(monkeypatch)
    assert generate(1, 2, params, cfg, Rng(9)) == generate(1, 2, params, cfg, Rng(9))
    # each call runs its steps until its last row stops
    a, b = steps[:len(steps) // 2], steps[len(steps) // 2:]
    assert 1 <= len(a) == len(b) <= cfg.max_len
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.logits, y.logits)
        np.testing.assert_array_equal(x.h_next, y.h_next)
        np.testing.assert_array_equal(x.z, y.z)


def test_cell_step_rejects_bad_token():
    cfg = tiny_cfg()
    params = CatVrnnParams(cfg, Rng(0))
    with pytest.raises(DataError):
        forward_stepwise(padded([[cfg.vocab_size]], cfg.max_len), 0, params, cfg, Rng(0))


def test_single_step_recurrence_gradient_check():
    # the step generate runs, as the one step of a teacher-forced pass of
    # length 1: its hand-derived gradient against finite differences
    cfg = tiny_cfg(max_len=1)
    params = CatVrnnParams(cfg, Rng(0))
    x = np.zeros((2, 1), dtype=np.int64)
    report = gradient_report(params, x, np.array([[1], [2]]), np.array([0, 1]), 7,
                             tolerance=1e-4)
    assert report.passed, report.summary()


def test_cell_step_sigma_strictly_positive(monkeypatch):
    cfg = tiny_cfg()
    params = CatVrnnParams(cfg)
    steps = record_steps(monkeypatch)
    generate(0, 1, params, cfg, Rng(0))
    assert len(steps) == cfg.max_len
    assert all(np.all(step.sigma > 0) for step in steps)


# --- generate against the full-batch sampler ----------------------------------------


def generate_full_batch(c, count, params, cfg, rng):
    """``generate`` as a full batch: every row runs every step, and each is
    cut at its first PAD at the end."""
    from catvrnn import model

    stream = rng.stream("sampling")
    rec, table, b = model._step_arrays(params, count)
    b.h_next[...] = model.init_hidden(c, params, rng, train_mode=False, batch=count)
    probs, cum = np.empty((2, count, cfg.vocab_size), dtype=cfg.np_dtype())
    x = np.full(count, PAD_ID, dtype=np.int64)
    sampled = np.empty((count, cfg.max_len), dtype=np.int64)
    for t in range(cfg.max_len):
        model._draw_normal(rng.stream("latent"), b.eps)
        model._step(x, params, rec, table, b)
        np.divide(b.logits, cfg.temperature, out=probs)
        probs -= probs.max(axis=1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=1, keepdims=True)
        np.cumsum(probs, axis=1, out=cum)
        u = np.minimum(stream.random((count, 1)), np.nextafter(cum[:, -1:], -np.inf))
        x = (cum < u).sum(axis=1)
        sampled[:, t] = x
    out = []
    for row in sampled:
        stop = np.flatnonzero(row == PAD_ID)
        out.append(row[: stop[0]].tolist() if stop.size else row.tolist())
    return out


@pytest.mark.parametrize("kw", [
    dict(),
    dict(dtype="float32"),
    dict(init_mode="adaptive", num_categories=3, use_feature_extractors=True),
    dict(init_mode="adaptive", num_categories=3, use_feature_extractors=True,
         dtype="float32"),
], ids=["float64", "float32", "adaptive-featz", "adaptive-featz-float32"])
@pytest.mark.parametrize("pad_bias", [0.0, 2.0])
def test_generate_matches_the_full_batch_sampler(kw, pad_bias):
    cfg = tiny_cfg(max_len=8, **kw)
    params = CatVrnnParams(cfg, Rng(4))
    # a larger PAD logit stops the rows at many different steps
    params.store["out.b"][PAD_ID] += pad_bias
    rng, ref = Rng(11), Rng(11)
    for c in range(cfg.num_categories):
        got = generate(c, 40, params, cfg, rng)
        assert got == generate_full_batch(c, 40, params, cfg, ref)
        assert rng.state() == ref.state()
    # the rows stopped at many different steps
    lengths = {len(ids) for ids in got}
    assert len(lengths) >= 5 and max(lengths) <= cfg.max_len
    assert 0 in lengths or not pad_bias


def test_generate_with_every_row_stopped_at_step_zero_advances_the_streams():
    cfg = tiny_cfg(max_len=6)
    params = CatVrnnParams(cfg, Rng(4))
    bias = params.store["out.b"]
    saved = bias[PAD_ID]
    bias[PAD_ID] = 1e4
    rng, ref = Rng(3), Rng(3)
    assert generate(0, 7, params, cfg, rng) == [[]] * 7
    assert generate_full_batch(0, 7, params, cfg, ref) == [[]] * 7
    assert rng.state() == ref.state()
    bias[PAD_ID] = saved
    second = generate(1, 7, params, cfg, rng)
    assert second == generate_full_batch(1, 7, params, cfg, ref)
    assert any(second)


# --- forward_teacher ----------------------------------------------------------------------


def padded(batch_rows, T):
    arr = np.full((len(batch_rows), T), PAD_ID, dtype=np.int64)
    for i, row in enumerate(batch_rows):
        arr[i, 1: 1 + len(row)] = row[: T - 1]
    return arr


def test_forward_shapes_and_class_normalization():
    cfg = tiny_cfg(num_categories=2)
    params = CatVrnnParams(cfg, Rng(0))
    x = padded([[3, 4, 5], [6, 7, 8, 9]], cfg.max_len)
    fwd = forward_teacher(x, np.array([0, 1]), params, cfg, Rng(1))
    assert len(fwd.logits) == cfg.max_len
    assert all(l.shape == (2, cfg.vocab_size) for l in fwd.logits)
    # unnormalized class scores: the classifier head on the final state
    assert fwd.class_logits.shape == (2, 2)
    w, b = params.store["cls.w"], params.store["cls.b"]
    np.testing.assert_array_equal(fwd.class_logits,
                                  fwd.final_hidden @ w + b)


@pytest.mark.parametrize("train_mode", [True, False])
@pytest.mark.parametrize("variant", list(GRAD_CHECK_VARIANTS))
def test_forward_teacher_matches_stepwise_fold(variant, train_mode):
    # the hoisted training pass against the per-step cell generate runs:
    # same values up to summation order, same random draws
    cfg = grad_check_config(variant)
    params = CatVrnnParams(cfg, Rng(3))
    x = padded([[2, 3, 9], [4, 5], [7, 7, 7, 7]], cfg.max_len)
    cats = np.array([0, 1, 1])
    hoisted, stepwise = Rng(6), Rng(6)
    a = forward_teacher(x, cats, params, cfg, hoisted, train_mode=train_mode)
    b = forward_stepwise(x, cats, params, cfg, stepwise, train_mode=train_mode)
    np.testing.assert_allclose(a.logits, b.logits, rtol=1e-12)
    np.testing.assert_allclose(a.final_hidden, b.final_hidden, rtol=1e-12)
    np.testing.assert_allclose(a.class_logits, b.class_logits, rtol=1e-12)
    assert (a.kl_sum is None) == (not cfg.use_kl_term) == (b.kl_sum is None)
    if cfg.use_kl_term:
        np.testing.assert_allclose(a.kl_sum, b.kl_sum, rtol=1e-12)
    assert hoisted.state() == stepwise.state()


@pytest.mark.parametrize("kw", [
    dict(use_kl_term=True, mask_pad_loss=True),
    dict(init_mode="adaptive", use_kl_term=True, use_feature_extractors=True),
])
def test_float32_model_computes_in_float32(kw, monkeypatch):
    cfg = tiny_cfg(dtype="float32", **kw)
    params = CatVrnnParams(cfg, Rng(0))
    x = padded([[3, 4, 5], [6, 7]], cfg.max_len)
    cats = np.array([0, 1])
    fwd = forward_teacher(x, cats, params, cfg, Rng(1))
    out = joint_loss(fwd, np.roll(x, -1, axis=1), cats, cfg)
    produced = [fwd.logits, fwd.class_logits, fwd.kl_sum, fwd.final_hidden,
                out.gen_nll, out.cls_nll, out.total]
    assert {t.dtype for t in produced} == {np.dtype(np.float32)}
    grads, loss = batch_grads(params, x, np.roll(x, -1, axis=1), cats)
    assert loss.total.dtype == np.float32
    assert all(np.all(np.isfinite(g)) for g in grads.values())

    steps = record_steps(monkeypatch)
    generate(0, 3, params, cfg, Rng(2))
    assert len(steps) == cfg.max_len
    assert {t.dtype for s in steps for t in (s.h_next, s.logits, s.z)} \
        == {np.dtype(np.float32)}


def test_forward_all_pad_input_is_finite():
    cfg = tiny_cfg()
    params = CatVrnnParams(cfg, Rng(0))
    x = np.full((1, cfg.max_len), PAD_ID, dtype=np.int64)
    fwd = forward_teacher(x, 0, params, cfg, Rng(1))
    for l in fwd.logits:
        assert np.all(np.isfinite(l))
    assert np.all(np.isfinite(fwd.class_logits))


def test_forward_rejects_bad_inputs():
    cfg = tiny_cfg()
    params = CatVrnnParams(cfg, Rng(0))
    with pytest.raises(DataError):
        forward_teacher(np.zeros((1, cfg.max_len + 1), dtype=int), 0, params,
                        cfg, Rng(0))
    bad = np.ones((1, cfg.max_len), dtype=int)
    with pytest.raises(DataError):
        forward_teacher(bad, 0, params, cfg, Rng(0))


def test_kl_toggle_controls_prior_parameters():
    cfg_off = tiny_cfg()
    params_off = CatVrnnParams(cfg_off, Rng(0))
    assert not any(n.startswith("prior.") for n in params_off.store.names())

    cfg_on = tiny_cfg(use_kl_term=True)
    params_on = CatVrnnParams(cfg_on, Rng(0))
    assert any(n.startswith("prior.") for n in params_on.store.names())
    x = padded([[3, 4]], cfg_on.max_len)
    fwd = forward_teacher(x, 0, params_on, cfg_on, Rng(2))
    assert fwd.kl_sum is not None
    assert np.all(fwd.kl_sum >= 0)


# --- joint_loss -----------------------------------------------------------------------------


def test_joint_loss_perfect_predictions_near_zero():
    cfg = tiny_cfg()
    T, V, K = cfg.max_len, cfg.vocab_size, cfg.num_categories
    targets = np.array([[3, 1, 0, 0, 0]])
    step_logits = []
    for t in range(T):
        row = np.full((1, V), -1e3)
        row[0, targets[0, t]] = 1e3
        step_logits.append(row)
    class_logits = np.full((1, K), -1e3)
    class_logits[0, 1] = 1e3
    fwd = SequenceForward(logits=np.stack(step_logits), class_logits=class_logits,
                          kl_sum=None, final_hidden=np.zeros((1, 6)))
    out = joint_loss(fwd, targets, 1, cfg)
    assert out.total[0] < 1e-9


def test_joint_loss_uniform_logits_closed_form():
    cfg = tiny_cfg()
    params = CatVrnnParams(cfg)
    x = padded([[3, 4, 5]], cfg.max_len)
    fwd = forward_teacher(x, 0, params, cfg, Rng(0))
    targets = np.array([[3, 4, 5, 0, 0]])
    out = joint_loss(fwd, targets, 0, cfg)
    T, V, K = cfg.max_len, cfg.vocab_size, cfg.num_categories
    assert abs(out.gen_nll[0] - T * math.log(V)) < 1e-10
    assert abs(out.cls_nll[0] - math.log(K)) < 1e-10
    assert abs(out.total[0] - (T * math.log(V) + math.log(K))) < 1e-10


def test_joint_loss_matches_scalar_oracle():
    # oracle: per-term log-sum-exp NLL summed with plain floats
    cfg = tiny_cfg()
    params = CatVrnnParams(cfg, Rng(4))
    x = padded([[2, 9, 4]], cfg.max_len)
    targets = np.array([[2, 9, 4, 0, 0]])
    fwd = forward_teacher(x, 1, params, cfg, Rng(5))
    out = joint_loss(fwd, targets, 1, cfg)

    def nll(logits, idx):
        m = max(logits)
        lse = m + math.log(sum(math.exp(v - m) for v in logits))
        return lse - logits[idx]

    expected_gen = sum(
        nll(list(fwd.logits[t][0]), targets[0, t])
        for t in range(cfg.max_len)
    )
    expected_cls = nll(list(fwd.class_logits[0]), 1)
    assert abs(out.gen_nll[0] - expected_gen) < 1e-10
    assert abs(out.cls_nll[0] - expected_cls) < 1e-10
    assert abs(out.total[0] - (expected_gen + expected_cls)) < 1e-10


def test_joint_loss_length_mismatch():
    cfg = tiny_cfg()
    params = CatVrnnParams(cfg, Rng(0))
    fwd = forward_teacher(padded([[1]], cfg.max_len), 0, params, cfg, Rng(0))
    with pytest.raises(DataError):
        joint_loss(fwd, np.zeros((1, cfg.max_len + 2), dtype=int), 0, cfg)


def test_classification_detached_excludes_term_from_total():
    cfg = tiny_cfg(use_classification=False)
    params = CatVrnnParams(cfg, Rng(1))
    x = padded([[3, 4]], cfg.max_len)
    fwd = forward_teacher(x, 0, params, cfg, Rng(2))
    out = joint_loss(fwd, np.array([[3, 4, 0, 0, 0]]), 0, cfg)
    assert abs(out.total[0] - out.gen_nll[0]) < 1e-12
    grads, _ = batch_grads(params, x, np.array([[3, 4, 0, 0, 0]]), 0)
    assert not grads["cls.w"].any() and not grads["cls.b"].any()


def test_no_prior_gradient_when_kl_disabled():
    cfg = tiny_cfg(use_kl_term=True)
    params = CatVrnnParams(cfg, Rng(0))
    cfg_off = tiny_cfg()
    params_off = CatVrnnParams(cfg_off, Rng(0))
    x = padded([[3, 4]], cfg_off.max_len)
    grads, _ = batch_grads(params_off, x, np.array([[3, 4, 0, 0, 0]]), 0)
    assert not any(n.startswith("prior.") for n in grads)
    # with the term on, every prior parameter participates
    grads, _ = batch_grads(params, x, np.array([[3, 4, 0, 0, 0]]), 0)
    assert all(grads[n].any() for n in grads if n.startswith("prior."))


def test_full_joint_loss_gradient_tiny_config():
    # the T-step multi-task loss against finite differences, static init
    cfg = tiny_cfg()
    params = CatVrnnParams(cfg, Rng(0))
    x = padded([[3, 7, 2], [4, 4, 9]], cfg.max_len)
    targets = np.array([[3, 7, 2, 0, 0], [4, 4, 9, 0, 0]])
    cats = np.array([0, 1])
    report = gradient_report(params, x, targets, cats, 12, tolerance=1e-4,
                             max_checks=220)
    assert report.passed, report.summary()


# --- generation -----------------------------------------------------------------------------


def test_generate_range_and_length_contract():
    cfg = tiny_cfg()
    params = CatVrnnParams(cfg, Rng(0))
    seqs = generate(0, 25, params, cfg, Rng(3))
    assert len(seqs) == 25
    for seq in seqs:
        assert len(seq) <= cfg.max_len
        assert all(0 <= i < cfg.vocab_size for i in seq)
        assert PAD_ID not in seq


def test_generate_deterministic_per_seed():
    cfg = tiny_cfg()
    params = CatVrnnParams(cfg, Rng(0))
    a = generate(1, 10, params, cfg, Rng(42))
    b = generate(1, 10, params, cfg, Rng(42))
    c = generate(1, 10, params, cfg, Rng(43))
    assert a == b
    assert a != c


def test_generate_rejects_out_of_range_category():
    cfg = tiny_cfg()
    params = CatVrnnParams(cfg, Rng(0))
    with pytest.raises(ConfigurationError):
        generate(5, 3, params, cfg, Rng(0))


def test_generate_respects_temperature_config():
    params = CatVrnnParams(tiny_cfg(), Rng(2))
    warm = generate(0, 10, params, tiny_cfg(temperature=1.0), Rng(1))
    cold = generate(0, 10, params, tiny_cfg(temperature=1e-3), Rng(1))
    assert warm != cold


def test_float32_sampling_never_draws_past_a_row_total_below_one():
    # zero weights make the logits out.b: 12 equal and one at -1e4, whose
    # float32 cumulative sum ends at 0.9999999, below a draw of nextafter(1, 0)
    cfg = tiny_cfg(vocab_size=13, dtype="float32")
    params = CatVrnnParams(cfg)
    params.store["out.b"][-1] = -1e4

    class TopDraws(Rng):
        def stream(self, name):
            if name != "sampling":
                return super().stream(name)
            top = np.nextafter(1.0, 0.0)
            return SimpleNamespace(random=lambda shape: np.full(shape, top))

    seqs = generate(0, 4, params, cfg, TopDraws(0))
    assert all(len(seq) == cfg.max_len for seq in seqs)
    assert all(cfg.vocab_size - 1 not in seq for seq in seqs)


def test_generate_skips_the_prior_net(monkeypatch):
    # sampling does not use the KL, so generate never runs the prior net:
    # with it on, the samples are those of the same weights with it off
    cfg = tiny_cfg(use_kl_term=True)
    params = CatVrnnParams(cfg, Rng(4))
    off_cfg = dataclasses.replace(cfg, use_kl_term=False)
    off = CatVrnnParams(off_cfg)
    for name in off.store.names():
        off.store[name][...] = params.store[name]
    expected = generate(1, 20, off, off_cfg, Rng(8))

    def prior_net(*args, **kwargs):
        raise AssertionError("generate ran the prior net")

    monkeypatch.setattr("catvrnn.model._kl", prior_net)
    assert generate(1, 20, params, cfg, Rng(8)) == expected


# --- gradients by store name ----------------------------------------------------------


# grad-check's batch and classifier vocabulary
GRAD_X = np.array([[0, 3, 7, 2, 5], [0, 4, 4, 9, 0]])
GRAD_TARGETS = np.array([[3, 7, 2, 5, 11], [4, 4, 9, 0, 0]])
GRAD_CATS = np.array([0, 1])
GRAD_VOCAB = Vocabulary(["<pad>", "<unk>"] + [f"w{i}" for i in range(10)])
GRAD_CLF = ClassifierConfig(vocab_size=12, num_categories=2, max_len=5)


def grad_check_case(which: str, cfg: ModelConfig | None = None):
    """(store, loss, analytic gradient) as grad-check builds them at seed 0:
    of the classifier's loss when ``which`` is "classifier", else of the
    batch-mean joint loss of its variant ``which`` (or of ``cfg``). The
    gradient array starts as NaN, so an element never written stays NaN."""
    if which == "classifier":
        clf = EvalClassifier(GRAD_CLF, GRAD_VOCAB, rng=Rng(0))

        def loss():
            logits = clf.logits(GRAD_X, train_mode=True,
                                dropout_rng=np.random.default_rng(1))
            return nll_rows(logits, GRAD_CATS)[0].mean()

        analytic = np.full_like(clf.store.flat, np.nan)
        clf.loss_and_grad(GRAD_X, GRAD_CATS, np.random.default_rng(1), analytic)
        return clf.store, loss, analytic
    cfg = cfg or grad_check_config(which)
    params = CatVrnnParams(cfg, Rng(0))

    def loss():
        fwd = forward_teacher(GRAD_X, GRAD_CATS, params, cfg, Rng(1), train_mode=True)
        return joint_loss(fwd, GRAD_TARGETS, GRAD_CATS, cfg).total.mean()

    analytic = np.full_like(params.store.flat, np.nan)
    loss_and_grad(GRAD_X, GRAD_TARGETS, GRAD_CATS, params, cfg, Rng(1), analytic)
    return params.store, loss, analytic


@pytest.mark.parametrize("which", [*GRAD_CHECK_VARIANTS, "no-classification",
                                   "classifier"])
def test_every_gradient_element_is_written(which):
    cfg = None
    if which == "no-classification":
        cfg = dataclasses.replace(grad_check_config("static"), use_classification=False)
    store, _, analytic = grad_check_case(which, cfg)
    unwritten = [name for name, g in store.views(analytic).items() if np.isnan(g).any()]
    assert not unwritten


@pytest.fixture(scope="module")
def sweep_cases():
    return {which: grad_check_case(which) for which in ("ablation", "classifier")}


# every tensor of the ablation variant, whose names are a superset of every
# variant's, and of the classifier; None: the gradient as computed
SWEEP = [("ablation", name) for name in
         CatVrnnParams(grad_check_config("ablation")).store.names()]
SWEEP += [("classifier", name) for name in
          EvalClassifier(GRAD_CLF, GRAD_VOCAB).store.names()]
SWEEP += [("ablation", None), ("classifier", None)]


@pytest.mark.parametrize("which, name", SWEEP, ids=[f"{w}-{n}" for w, n in SWEEP])
def test_the_per_tensor_quota_catches_a_wrong_gradient_of_every_tensor(sweep_cases,
                                                                      which, name):
    # one tensor's gradient perturbed as --corrupt-backward perturbs all of
    # them: its quota of checked elements alone must catch it
    store, loss, analytic = sweep_cases[which]
    grad = analytic.copy()
    if name is not None:
        wrong = store.views(grad)[name]
        wrong *= 1.01
        wrong += 1e-3
    report = check_gradient(loss, store, grad, max_checks=0)
    assert len(report.per_param) == len(store)
    failing = {e.name for e in report.per_param if not e.max_rel_err < report.tolerance}
    assert failing == ({name} if name else set()), report.summary()
    assert report.passed == (name is None)


# --- parameter accounting --------------------------------------------------------------------


def count_from_config(cfg: ModelConfig) -> int:
    """Independent enumeration of the parameter count from the architecture."""
    V, E, H, L, K = (cfg.vocab_size, cfg.embed_dim, cfg.hidden_dim,
                     cfg.latent_dim, cfg.num_categories)
    total = V * E
    total += (E + H) * 2 * H + 2 * H + 2 * H * H + H  # encoder
    total += 2 * (H * L + L)                          # mu and sigma heads
    total += (L + H) * H + H + H * E + E              # decoder
    total += E * V + V                                # output layer
    total += 3 * ((E + L) * H + H * H + H)            # gru gates
    total += H * K + K                                # classifier
    if cfg.init_mode == "adaptive":
        total += 2 * H
    if cfg.use_kl_term:
        total += H * H + H + 2 * (H * L + L)
    if cfg.use_feature_extractors:
        total += 2 * (E * E + E) + 2 * (L * L + L)
    return total


def test_parameter_count_matches_enumeration():
    for kw in ({}, {"init_mode": "adaptive"}, {"use_kl_term": True},
               {"use_feature_extractors": True}):
        cfg = tiny_cfg(**kw)
        params = CatVrnnParams(cfg, Rng(0))
        assert parameter_count(params) == count_from_config(cfg)


def test_vocab_dependent_coefficient_is_601_at_default_widths():
    # embed 300 and decoder output 300: 300 embedding rows + 301 output
    # weights+bias per vocabulary entry
    c1 = ModelConfig(vocab_size=100, num_categories=2)
    c2 = ModelConfig(vocab_size=101, num_categories=2)
    p1 = CatVrnnParams(c1)
    p2 = CatVrnnParams(c2)
    assert parameter_count(p2) - parameter_count(p1) == 601


def test_classifier_head_delta_per_category():
    c2 = tiny_cfg(num_categories=2, init_mode="adaptive")
    c5 = tiny_cfg(num_categories=5, init_mode="adaptive")
    d = parameter_count(CatVrnnParams(c5)) - parameter_count(
        CatVrnnParams(c2))
    assert d == (c2.hidden_dim + 1) * 3


# --- parameter layout ---------------------------------------------------------------------------


def store_sha256(store) -> str:
    h = hashlib.sha256()
    for name in store.names():
        h.update(name.encode())
        h.update(store[name].tobytes())
    return h.hexdigest()


def test_fused_blocks_hold_the_per_gate_draws():
    # The golden digest is of grad-check's ablation variant (every optional
    # group) at Rng(0). It was computed from the weights as drawn per layer
    # and per gate (enc.fc1.w, mu.w, sigma.w, gru.xr, gru.hr, gru.br, ...)
    # re-laid by hand into the stored blocks: enc.fc1.w's embedding rows as
    # wx and hidden rows as wh; mu|sigma side by side as musigma (the
    # prior's likewise); the GRU's xr|xu|xn side by side, embedding rows as
    # wx and latent rows as wz; hr|hu as w_ru, hn as w_hn and br|bu|bn as b.
    # Each name and its bytes were hashed in the store's order.
    params = CatVrnnParams(grad_check_config("ablation"), Rng(0))
    assert len(params.store) == 35
    assert store_sha256(params.store) == (
        "0c5e1dcd17635caf3b4e7bb24b87899d99fe6c0718cb55e03ef43a361fa46bf2")
    cfg = ModelConfig(vocab_size=50, num_categories=2)
    params = CatVrnnParams(cfg)
    assert len(params.store) == 21
    assert parameter_count(params) == count_from_config(cfg)


def test_each_store_is_views_of_one_buffer():
    # check_gradient perturbs the buffer in place: that must reach the view
    # the forward reads, and Adam's one pass over the buffer must reach every
    # tensor
    vocab = Vocabulary(["<pad>", "<unk>"] + [f"w{i}" for i in range(10)])
    clf = EvalClassifier(ClassifierConfig(vocab_size=12, num_categories=2, max_len=6),
                         vocab, rng=Rng(1))
    for store in (CatVrnnParams(grad_check_config("ablation"), Rng(0)).store, clf.store):
        flat = store.flat
        lo = 0
        for name in store.names():
            view = store[name]
            assert view.dtype == flat.dtype and view.flags.c_contiguous, name
            view.reshape(-1)[-1] = 123.0
            lo += view.size
            assert flat[lo - 1] == 123.0, name
        assert lo == flat.size


# --- config validation ------------------------------------------------------------------------


def test_model_config_validation():
    with pytest.raises(ConfigurationError):
        ModelConfig(vocab_size=0, num_categories=2)
    with pytest.raises(ConfigurationError):
        ModelConfig(vocab_size=4, num_categories=0)
    with pytest.raises(ConfigurationError):
        ModelConfig(vocab_size=4, num_categories=2, init_mode="random")
    with pytest.raises(ConfigurationError):
        ModelConfig(vocab_size=4, num_categories=2, temperature=0.0)
    # a switch is a bool, and a bool is not a number
    for field, value in (("use_kl_term", "yes"), ("use_feature_extractors", 0),
                         ("use_classification", 1), ("mask_pad_loss", "no"),
                         ("static_omega", True), ("static_omega", "8.5"),
                         ("temperature", True), ("temperature", None)):
        with pytest.raises(ConfigurationError, match=field):
            ModelConfig(vocab_size=4, num_categories=2, **{field: value})
    ModelConfig(vocab_size=4, num_categories=2, static_omega=8, temperature=np.float32(0.5))


@pytest.mark.parametrize("init_mode", ["static", "none"])
def test_model_config_rejects_two_category_init_beyond_two(init_mode):
    # static h0 separates categories only by sign, and none generates
    # through static initialization
    ModelConfig(vocab_size=4, num_categories=2, init_mode=init_mode)
    with pytest.raises(ConfigurationError, match="at most two categories"):
        ModelConfig(vocab_size=4, num_categories=3, init_mode=init_mode)
    ModelConfig(vocab_size=4, num_categories=3, init_mode="adaptive")


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=2, max_value=8))
def test_adaptive_difference_property(K, hidden):
    cfg = ModelConfig(vocab_size=10, num_categories=K, embed_dim=4,
                      hidden_dim=hidden, latent_dim=3, max_len=4,
                      init_mode="adaptive")
    params = CatVrnnParams(cfg, Rng(1))
    rng = Rng(2)
    h = [init_hidden_adaptive(c, params, False, rng)[0] for c in range(K)]
    for c in range(K - 1):
        np.testing.assert_allclose(h[c + 1] - h[c], params.store["init.omega"],
                                   atol=1e-12)


def test_joint_loss_pad_masking_flag():
    cfg = tiny_cfg(mask_pad_loss=True)
    params = CatVrnnParams(cfg, Rng(4))
    x = padded([[2, 9]], cfg.max_len)
    targets = np.array([[2, 9, 0, 0, 0]])
    fwd = forward_teacher(x, 0, params, cfg, Rng(5))
    masked = joint_loss(fwd, targets, 0, cfg)

    # oracle: sum CE only over the two real tokens plus one terminating PAD
    def nll(logits, idx):
        m = max(logits)
        return m + math.log(sum(math.exp(v - m) for v in logits)) - logits[idx]

    expected = sum(nll(list(fwd.logits[t][0]), targets[0, t])
                   for t in range(3))
    assert abs(masked.gen_nll[0] - expected) < 1e-10

    cfg_full = tiny_cfg(mask_pad_loss=False)
    full = joint_loss(fwd, targets, 0, cfg_full)
    assert full.gen_nll[0] > masked.gen_nll[0]
