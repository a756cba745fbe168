"""Numeric core: forward values against independent oracles, gradients
against central finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catvrnn.data import SPECIALS, Vocabulary
from catvrnn.errors import ConfigurationError, NumericError
from catvrnn.evaluation import ClassifierConfig, EvalClassifier
from catvrnn.model import (Recurrent, _dense, _recur_backward, kl_gaussians, recur_step,
                           recurrence)
from catvrnn.numeric import (
    ParamStore,
    Rng,
    check_gradient,
    cross_entropy_grad,
    nll_rows,
    reparameterize,
    softmax,
)


# --- the model's dense layers (``_dense``) ---------------------------------


def test_mlp_identity_passthrough():
    v = np.array([0.3, -1.2, 4.0, 0.0])
    (out,) = _dense(v, [("w", "b")], {"w": np.eye(4), "b": np.zeros(4)})
    np.testing.assert_array_equal(out, v)


def test_mlp_zero_weights_relu_is_zero():
    # every layer but the last ends in a relu: a negative bias is cut to zero
    weights = {"w1": np.zeros((5, 3)), "b1": np.full(3, -1.0), "w2": np.ones((3, 2)),
               "b2": np.zeros(2)}
    v = np.arange(5, dtype=float)
    hidden, _ = _dense(v, [("w1", "b1"), ("w2", "b2")], weights)
    np.testing.assert_array_equal(hidden, np.zeros(3))


def test_mlp_matches_hand_rolled_matrix_arithmetic():
    # oracle: explicit scalar loops, no shared code with the engine
    rng = np.random.default_rng(42)
    w1 = rng.normal(size=(4, 3))
    b1 = rng.normal(size=3)
    w2 = rng.normal(size=(3, 2))
    b2 = rng.normal(size=2)
    x = rng.normal(size=4)

    h = [max(sum(x[i] * w1[i][j] for i in range(4)) + b1[j], 0.0) for j in range(3)]
    expected = [sum(h[i] * w2[i][j] for i in range(3)) + b2[j] for j in range(2)]

    _, out = _dense(x, [("w1", "b1"), ("w2", "b2")],
                    {"w1": w1, "b1": b1, "w2": w2, "b2": b2})
    np.testing.assert_allclose(out, expected, atol=1e-12)


# --- softmax ----------------------------------------------------------------


def test_softmax_symmetry_cases():
    np.testing.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5],
                               atol=1e-15)
    for c in (-3.0, 0.0, 1e3):
        np.testing.assert_allclose(softmax(np.array([c] * 4)), [0.25] * 4,
                                   atol=1e-15)


def test_softmax_against_high_precision_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    xs = [1.0, 2.0, 3.0]
    exps = [mp.e ** x for x in xs]
    total = sum(exps)
    expected = [float(e / total) for e in exps]
    np.testing.assert_allclose(softmax(np.array(xs)), expected, atol=1e-15)


@settings(max_examples=60)
@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=12),
    st.floats(min_value=-100, max_value=100),
)
def test_softmax_sums_to_one_and_shift_invariant(logits, shift):
    p = softmax(np.array(logits))
    assert abs(p.sum() - 1.0) < 1e-12
    assert np.all(p > 0)
    shifted = softmax(np.array([x + shift for x in logits]))
    np.testing.assert_allclose(p, shifted, atol=1e-12)


def test_softmax_overflow_safe():
    p = softmax(np.array([1000.0, 1000.0, -1000.0]))
    assert np.all(np.isfinite(p))
    np.testing.assert_allclose(p[:2], [0.5, 0.5], atol=1e-12)


# --- the GRU update of recur_step ----------------------------------------------
#
# recur_step is the whole recurrence step: encoder, heads, latent draw and the
# GRU update over the token side and the latent. These tests pin its GRU
# update against a scalar formula sharing no code with it: the oracle's input
# is [x, z], with the latent rows of the gates' input weights under x's.


def scalar_gru_oracle(x, h, ws):
    """Independent GRU formula, scalar by scalar."""
    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    D, H = len(x), len(h)
    out = []
    for j in range(H):
        r = sig(sum(x[i] * ws["xr"][i][j] for i in range(D))
                + sum(h[i] * ws["hr"][i][j] for i in range(H)) + ws["br"][j])
        u = sig(sum(x[i] * ws["xu"][i][j] for i in range(D))
                + sum(h[i] * ws["hu"][i][j] for i in range(H)) + ws["bu"][j])
        out.append((r, u))
    hnext = []
    for j in range(H):
        rk = [out[k][0] for k in range(H)]
        n = math.tanh(sum(x[i] * ws["xn"][i][j] for i in range(D))
                      + sum(rk[i] * h[i] * ws["hn"][i][j] for i in range(H))
                      + ws["bn"][j])
        u = out[j][1]
        hnext.append(u * h[j] + (1 - u) * n)
    return hnext


def random_gru_arrays(rng, d, h):
    return {
        "xr": rng.normal(size=(d, h)), "hr": rng.normal(size=(h, h)),
        "br": rng.normal(size=h),
        "xu": rng.normal(size=(d, h)), "hu": rng.normal(size=(h, h)),
        "bu": rng.normal(size=h),
        "xn": rng.normal(size=(d, h)), "hn": rng.normal(size=(h, h)),
        "bn": rng.normal(size=h),
    }


def recurrent_from(rng, ws, latent, featz=False, scale=0.5):
    """recur_step weights around the GRU arrays ``ws``, whose input rows are
    [x, z]: the last ``latent`` rows multiply z. The encoder, heads and the
    latent feature extractor get random weights."""
    d, h = ws["xr"].shape
    width = 2 * h
    extra = {}
    if featz:
        extra = {name: rng.normal(size=shape) * scale for name, shape in (
            ("featz1_w", (latent, latent)), ("featz1_b", (latent,)),
            ("featz2_w", (latent, latent)), ("featz2_b", (latent,)))}
    return Recurrent(
        enc_h=rng.normal(size=(h, width)) * scale, enc2_w=rng.normal(size=(width, h)) * scale,
        enc2_b=rng.normal(size=h) * scale, head_w=rng.normal(size=(h, 2 * latent)) * scale,
        head_b=rng.normal(size=2 * latent) * scale,
        gru_z=np.concatenate([ws["xr"], ws["xu"], ws["xn"]], axis=1)[d - latent:],
        w_ru=np.concatenate([ws["hr"], ws["hu"]], axis=1), w_hn=ws["hn"], **extra)


def gru_step(x, hv, ws, latent, rng, eps=None):
    """recur_step over the token rows ``x`` (width d - latent) from ``hv``:
    the GRU's input side of x is computed here, as the model hoists it."""
    x, hv = np.atleast_2d(x), np.atleast_2d(hv)
    d, h = ws["xr"].shape
    w = recurrent_from(rng, ws, latent)
    gru_x = (x @ np.concatenate([ws["xr"], ws["xu"], ws["xn"]], axis=1)[: d - latent]
             + np.concatenate([ws["br"], ws["bu"], ws["bn"]]))
    enc_x = rng.normal(size=(len(x), w.enc_h.shape[1]))
    eps = rng.normal(size=(len(x), latent)) if eps is None else eps
    return recur_step(hv, enc_x, gru_x, eps, w)


def test_gru_zero_weights_matches_reference_formula():
    d, h = 3, 4
    ws = {k: np.zeros((d + 1, h)) if k.startswith("x") else
          (np.zeros((h, h)) if k.startswith("h") else np.zeros(h))
          for k in ("xr", "hr", "br", "xu", "hu", "bu", "xn", "hn", "bn")}
    x = [0.5, -2.0, 1.0]
    hv = [1.0, -1.0, 0.25, 3.0]
    h_next, z, _, _ = gru_step(np.array(x), np.array(hv), ws, 1,
                               np.random.default_rng(0))
    got = h_next[0]
    np.testing.assert_allclose(got, scalar_gru_oracle(x + list(z[0]), hv, ws),
                               atol=1e-12)
    # with all-zero weights the update gate is 1/2, so h' = h/2
    np.testing.assert_allclose(got, np.array(hv) / 2, atol=1e-12)


def test_gru_random_weights_match_scalar_oracle():
    rng = np.random.default_rng(7)
    d, h, latent = 5, 4, 2
    ws = random_gru_arrays(rng, d + latent, h)
    x = rng.normal(size=d)
    hv = rng.normal(size=h)
    h_next, z, _, _ = gru_step(x, hv, ws, latent, rng)
    np.testing.assert_allclose(h_next[0],
                               scalar_gru_oracle(list(x) + list(z[0]), list(hv), ws),
                               atol=1e-12)


def test_gru_shape_contract_and_mismatch():
    rng = np.random.default_rng(3)
    for d, h in ((2, 3), (7, 5)):
        ws = random_gru_arrays(rng, d + 1, h)
        h_next, z, mu, sigma = gru_step(rng.normal(size=(6, d)), rng.normal(size=(6, h)),
                                        ws, 1, rng)
        assert h_next.shape == (6, h)
        assert z.shape == mu.shape == sigma.shape == (6, 1)
    ws = random_gru_arrays(rng, 3, 3)
    w = recurrent_from(rng, ws, 1)
    with pytest.raises(ConfigurationError):
        # a hidden state of 5 against hidden size 3
        recurrence(np.zeros((1, 5)), np.zeros((1, 6)), np.zeros((1, 9)), w,
                   Rng(0).stream("latent"))


def recurrence_weights(rng, d, h, latent, featz=False) -> Recurrent:
    """``recurrent_from`` around random GRU arrays, halved."""
    ws = random_gru_arrays(rng, d + latent, h)
    return Recurrent(*(a * 0.5 for a in recurrent_from(rng, ws, latent, featz)
                       if a is not None))


def recurrence_store(w: Recurrent, **inputs) -> ParamStore:
    """A store of the weights ``w`` as ``rec0``, ``rec1``, ... by field, then
    of ``inputs`` by name."""
    return ParamStore([*((f"rec{i}", a) for i, a in enumerate(w) if a is not None),
                       *inputs.items()])


def recurrence_loss_and_grad(store, h0, enc_x, gru_x, probes, seed):
    """The loss sum(output_k * probes[k]) over the recurrence's outputs
    (h_prev, z, mu, sigma, h_final; a probe is None for an output left out)
    from ``h0``, ``enc_x`` and ``gru_x`` (arrays of ``store`` or not) on the
    weights ``rec0``, ``rec1``, ... of ``store``, with its gradient from
    ``_recur_backward``, laid out like ``store.flat``."""
    def rec(arrays):
        return Recurrent(*(arrays[n] for n in store.names() if n.startswith("rec")))

    w = rec(store)
    hs, run = recurrence(h0, enc_x, gru_x, w, Rng(seed).stream("latent"))
    steps, latent = len(hs) - 1, w.head_w.shape[1] // 2
    outs = [hs[:steps], run["z"], run["head"][..., :latent], run["sigma"]]
    outs = [o.reshape(-1, o.shape[-1]) for o in outs] + [hs[steps]]
    loss = sum(float((o * p).sum()) for o, p in zip(outs, probes) if p is not None)
    grad = np.empty_like(store.flat)
    views = store.views(grad)
    inputs = _recur_backward(probes, hs, run, w, rec(views))
    for name, g in zip(("h0", "enc_x", "gru_x"), inputs):
        if name in views:
            views[name][...] = g
    return loss, grad


@pytest.mark.parametrize("featz", [False, True])
@pytest.mark.parametrize("output", ["h_prev", "z", "mu", "sigma", "h_final"])
def test_recurrence_gradient_of_each_output(output, featz):
    # one output in the loss: the other four never receive a gradient
    rng = np.random.default_rng(21)
    steps, batch, h, latent = 3, 2, 3, 2
    store = recurrence_store(recurrence_weights(rng, 2, h, latent, featz),
                             h0=rng.normal(size=(batch, h)),
                             enc_x=rng.normal(size=(steps * batch, 2 * h)),
                             gru_x=rng.normal(size=(steps * batch, 3 * h)))
    k = ["h_prev", "z", "mu", "sigma", "h_final"].index(output)
    shapes = [(steps * batch, h)] + [(steps * batch, latent)] * 3 + [(batch, h)]
    probes = [None] * 5
    probes[k] = np.random.default_rng(k).normal(size=shapes[k])

    def loss_and_grad():
        return recurrence_loss_and_grad(store, store["h0"], store["enc_x"],
                                        store["gru_x"], probes, 4)

    # tiny entries need the wider step to rise above rounding
    report = check_gradient(lambda: loss_and_grad()[0], store, loss_and_grad()[1],
                            tolerance=1e-4, fd_step=1e-3, max_checks=400)
    assert report.passed, report.summary()
    assert {e.name for e in report.per_param} == set(store.names())


def test_gru_gradient_matches_finite_differences():
    # every weight of the recurrence, the GRU's (rec5..rec7) among them
    rng = np.random.default_rng(11)
    d, h, latent = 4, 3, 2
    store = recurrence_store(recurrence_weights(rng, d, h, latent))
    x = rng.normal(size=(2, 2 * h))
    gx = rng.normal(size=(2, 3 * h))
    hv = rng.normal(size=(2, h))
    probes = [None] * 4 + [rng.normal(size=(2, h))]

    def loss_and_grad():
        return recurrence_loss_and_grad(store, hv, x, gx, probes, 2)

    report = check_gradient(lambda: loss_and_grad()[0], store, loss_and_grad()[1],
                            tolerance=1e-4)
    assert report.passed, report.summary()


# --- reparameterize -----------------------------------------------------------


def test_reparameterize_degenerate_noise_returns_mu():
    mu = np.array([1.0, -2.0, 0.5])
    sigma = np.full(3, 1e-30)
    z = reparameterize(mu, sigma, Rng(0).stream("latent").standard_normal(3))
    np.testing.assert_allclose(z, mu, atol=1e-25)


def test_reparameterize_monte_carlo_statistics():
    mu, sigma = 0.7, 1.3
    eps = Rng(99).stream("latent").standard_normal(100_000)
    z = reparameterize(np.full(100_000, mu), np.full(100_000, sigma), eps)
    assert abs(z.mean() - mu) < 0.02 * mu
    assert abs(z.std() - sigma) < 0.02 * sigma


def test_reparameterize_deterministic_per_seed():
    # recur_step draws nothing itself: recurrence takes one draw a step
    rng = np.random.default_rng(0)
    w = recurrence_weights(rng, 2, 3, 8)
    args = (np.zeros((1, 3)), np.zeros((2, 6)), np.zeros((2, 9)), w)
    z1 = recurrence(*args, Rng(5).stream("latent"))[1]["z"]
    z2 = recurrence(*args, Rng(5).stream("latent"))[1]["z"]
    z3 = recurrence(*args, Rng(6).stream("latent"))[1]["z"]
    np.testing.assert_array_equal(z1, z2)
    assert not np.array_equal(z1, z3)


def test_reparameterize_rejects_nonpositive_sigma():
    with pytest.raises(NumericError):
        reparameterize(np.zeros(2), np.array([1.0, 0.0]), np.ones(2))


def test_reparameterize_gradient_flows_to_mu_and_sigma():
    # z = mu + sigma * eps inside the recurrence: both halves of the head
    rng = np.random.default_rng(1)
    w = recurrence_weights(rng, 2, 3, 2)
    hs, run = recurrence(np.ones((1, 3)), np.ones((1, 6)), np.ones((1, 9)), w,
                         Rng(1).stream("latent"))
    # the loss sum(z * z)
    g_z = 2.0 * run["z"].reshape(1, -1)
    dw = Recurrent(*(np.empty_like(a) for a in w if a is not None))
    _recur_backward([None, g_z, None, None, None], hs, run, w, dw)
    grad = dw.head_b
    assert np.all(grad[:2] != 0) and np.all(grad[2:] != 0)


# --- cross entropy ---------------------------------------------------------------


def one_row_ce(logits, target) -> float:
    """nll_rows of a single logit vector against one class id."""
    loss = nll_rows(np.asarray(logits, dtype=float)[None, :], np.array([target]))[0]
    assert loss.shape == (1,)
    return float(loss[0])


def test_cross_entropy_near_certain_prediction():
    logits = np.full(6, -1000.0)
    logits[2] = 1000.0
    assert 0 <= one_row_ce(logits, 2) < 1e-12


def test_cross_entropy_uniform_logits_is_log_v():
    for v in (2, 7, 64):
        assert abs(one_row_ce(np.zeros(v), v - 1) - math.log(v)) < 1e-12


def test_cross_entropy_matches_log_sum_exp_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    rng = np.random.default_rng(17)
    logits = rng.normal(size=9) * 4
    target = 3
    lse = mp.log(sum(mp.e ** mp.mpf(x) for x in logits))
    expected = float(lse - mp.mpf(logits[target]))
    got = one_row_ce(logits, target)
    assert abs(got - expected) < 1e-10


def reference_cross_entropy(x, targets, g):
    """The cross-entropy and its logit gradient for row weights ``g``,
    computed through the full (rows, V) log-softmax; nll_rows keeps only
    each row's max and log-sum-exp."""
    logp = x - x.max(axis=-1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=-1, keepdims=True))
    rows = np.arange(x.shape[0])
    grad = np.exp(logp)
    grad *= g[:, None]
    grad[rows, targets] -= g
    return -logp[rows, targets], grad


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_cross_entropy_equals_the_log_softmax_formula_bit_for_bit(dtype):
    rng = np.random.default_rng(31)
    x = (rng.normal(size=(9, 13)) * 4).astype(dtype)
    x[2, -1] = x[5, :6] = x[7, 3] = -1e4
    targets = rng.integers(0, 13, size=9)
    targets[7] = 3  # a target whose logit is -1e4
    g = rng.uniform(0.5, 2.0, size=9).astype(dtype)
    nll, m, ls = nll_rows(x, targets)
    # the weights a batch mean of g-weighted rows hands each row: g / 9
    mean_g = np.ones((), dtype) / 9 * g
    value, grad = reference_cross_entropy(x, targets, mean_g)
    mean_grad = cross_entropy_grad(x, m, ls, targets, mean_g)
    assert nll.dtype == mean_grad.dtype == dtype
    np.testing.assert_array_equal(nll, value)
    np.testing.assert_array_equal(mean_grad, grad)
    # the gradient written into the logits, as the model runs it
    _, grad = reference_cross_entropy(x, targets, g)
    np.testing.assert_array_equal(cross_entropy_grad(x, m, ls, targets, g, out=x), grad)


def test_cross_entropy_rejects_out_of_range_target():
    with pytest.raises(ConfigurationError):
        one_row_ce(np.zeros(4), 4)
    with pytest.raises(ConfigurationError):
        nll_rows(np.zeros((2, 4)), np.array([0, -1]))


def test_cross_entropy_nonnegative_property():
    rng = np.random.default_rng(23)
    for _ in range(25):
        v = rng.integers(2, 12)
        assert one_row_ce(rng.normal(size=v) * 5, int(rng.integers(v))) >= 0


# --- KL divergence -----------------------------------------------------------------


def kl(mu_q, sigma_q, mu_p, sigma_p) -> float:
    """The model's closed-form KL of one pair of diagonal Gaussians."""
    return float(kl_gaussians(*(np.asarray(a, dtype=float)
                                for a in (mu_q, sigma_q, mu_p, sigma_p)))[0])


def test_kl_identical_distributions_is_zero():
    mu, sigma = np.array([0.3, -1.0]), np.array([0.5, 2.0])
    assert abs(kl(mu, sigma, mu.copy(), sigma.copy())) < 1e-14


def test_kl_unit_variance_mean_shift():
    assert abs(kl(np.zeros(1), np.ones(1), np.ones(1), np.ones(1)) - 0.5) < 1e-14


def test_kl_matches_monte_carlo_oracle():
    rng = np.random.default_rng(31)
    mu_q, s_q = rng.normal(size=3), np.exp(rng.normal(size=3) * 0.3)
    mu_p, s_p = rng.normal(size=3), np.exp(rng.normal(size=3) * 0.3)
    closed = kl(mu_q, s_q, mu_p, s_p)

    n = 200_000
    z = mu_q + s_q * rng.standard_normal((n, 3))

    def log_pdf(z, mu, s):
        return (-0.5 * ((z - mu) / s) ** 2 - np.log(s)
                - 0.5 * np.log(2 * np.pi)).sum(axis=1)

    diffs = log_pdf(z, mu_q, s_q) - log_pdf(z, mu_p, s_p)
    se = diffs.std() / math.sqrt(n)
    assert abs(diffs.mean() - closed) < 3 * se + 1e-12


def test_kl_nonnegative_and_errors():
    rng = np.random.default_rng(37)
    for _ in range(30):
        q = rng.normal(size=4), np.exp(rng.normal(size=4))
        p = rng.normal(size=4), np.exp(rng.normal(size=4))
        assert kl(*q, *p) >= -1e-12
    with pytest.raises(ConfigurationError):
        kl(np.zeros(2), np.ones(2), np.zeros(3), np.ones(3))
    with pytest.raises(NumericError):
        kl(np.zeros(2), np.array([1.0, -1.0]), np.zeros(2), np.ones(2))


# --- check_gradient -------------------------------------------------------------------


def test_check_gradient_passes_linear_regression():
    # the mean squared error of x @ w + b, whose gradient is 2/N x^T r and
    # 2/N sum(r) for the residuals r
    rng = np.random.default_rng(5)
    store = ParamStore([("w", rng.normal(size=(6, 1))), ("b", np.zeros(1))])
    w, b = store["w"], store["b"]
    x = rng.normal(size=(20, 6))
    y = rng.normal(size=(20, 1))

    def residuals():
        return x @ w + b - y

    r = residuals()
    analytic = np.concatenate([(2.0 / 20 * x.T @ r).ravel(), [2.0 / 20 * r.sum()]])
    report = check_gradient(lambda: float((residuals() ** 2).mean()), store, analytic,
                            tolerance=1e-6)
    assert report.passed, report.summary()


def test_check_gradient_corrupted_backward_fails():
    # mean(w * w) over two elements: the gradient is w
    store = ParamStore([("w", np.array([1.0, 2.0]))])
    w = store["w"]

    def loss():
        return float((w * w).mean())

    assert check_gradient(loss, store, w.copy(), tolerance=1e-4).passed
    assert not check_gradient(loss, store, w.copy(), tolerance=1e-4,
                              corrupt=True).passed


def test_check_gradient_rejects_nonscalar():
    store = ParamStore([("w", np.ones(3))])
    with pytest.raises(ConfigurationError):
        check_gradient(lambda: store["w"] * 2.0, store, np.full(3, 2.0))


def test_check_gradient_subsamples_large_stores():
    # mean((x @ w)^2) over its 4 x 20 entries: the gradient is 2/80 x^T (x @ w)
    rng = np.random.default_rng(13)
    store = ParamStore([("w", rng.normal(size=(40, 20)))])
    w = store["w"]
    x = rng.normal(size=(4, 40))

    analytic = (2.0 / 80 * x.T @ (x @ w)).ravel()
    report = check_gradient(lambda: float(((x @ w) ** 2).mean()), store, analytic,
                            tolerance=1e-5, max_checks=210)
    assert report.passed
    assert report.total_checked == 210


def test_check_gradient_resolves_tiny_entries_at_the_default_step():
    # correct entries of 1e-8 and 3e-7 in a loss of ~3: the central
    # difference's rounding (~eps * 3 / 1e-5) is far above 1e-4 of them
    c = np.array([1e-8, 3e-7, 1e-8])
    store = ParamStore([("w", np.array([0.7, -1.3, 2.0]))])
    w = store["w"]
    rng = np.random.default_rng(2)
    x = rng.normal(size=(50, 3))
    rest = rng.normal(size=10)

    def loss():
        # mean over rows of sum_j c_j softplus(x_ij w_j), plus a constant
        return float((np.logaddexp(0.0, x * w) @ c).mean()
                     + np.logaddexp(0.0, rest).sum())

    analytic = (c * x / (1.0 + np.exp(-x * w))).mean(axis=0)
    report = check_gradient(loss, store, analytic, tolerance=1e-4)
    assert report.passed, report.summary()


@pytest.mark.parametrize("err", [0.01, 0.0])
def test_check_gradient_fails_one_percent_off_a_tiny_entry(err):
    # d loss / d w = c; the backward is off by ``err`` on the 3e-7 entry only
    c = np.array([3e-7, 0.5, -0.25])
    store = ParamStore([("w", np.array([1.0, 1.0, 1.0]))])
    wrong = c * np.array([1.0 + err, 1.0, 1.0])

    report = check_gradient(lambda: float(c @ store["w"]), store, wrong, tolerance=1e-4)
    assert report.passed == (err == 0.0), report.summary()


# --- ParamStore and Rng -------------------------------------------------------------------


def test_param_store_iteration_order_is_stable():
    def build():
        return ParamStore((name, np.zeros(2)) for name in ("gamma", "alpha", "beta"))

    assert build().names() == build().names() == ["gamma", "alpha", "beta"]


def test_param_store_rejects_duplicates_and_counts():
    store = ParamStore([("w", np.zeros((3, 4))), ("b", np.zeros(4))])
    assert store.total_parameters() == 16
    with pytest.raises(ConfigurationError):
        ParamStore([("w", np.zeros((3, 4))), ("b", np.zeros(4)), ("w", np.zeros(1))])


def test_rng_streams_are_deterministic_and_independent():
    a = Rng(123).stream("latent").random(5)
    b = Rng(123).stream("latent").random(5)
    c = Rng(123).stream("noise").random(5)
    d = Rng(124).stream("latent").random(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_rng_stream_independent_of_touch_order():
    r1 = Rng(9)
    r1.stream("init").random(3)
    v1 = r1.stream("latent").random(3)
    r2 = Rng(9)
    v2 = r2.stream("latent").random(3)
    np.testing.assert_array_equal(v1, v2)


def test_rng_keyed_is_fresh_and_not_in_state():
    r = Rng(4)
    first = r.keyed("shuffle:1").permutation(20)
    np.testing.assert_array_equal(r.keyed("shuffle:1").permutation(20), first)
    np.testing.assert_array_equal(Rng(4).keyed("shuffle:1").permutation(20), first)
    assert not np.array_equal(r.keyed("shuffle:2").permutation(20), first)
    assert r.state()["streams"] == {}


def test_rng_state_roundtrip():
    r = Rng(77)
    r.stream("latent").random(10)
    state = r.state()
    next_draws = r.stream("latent").random(4)
    r2 = Rng(0)
    r2.set_state(state)
    np.testing.assert_array_equal(r2.stream("latent").random(4), next_draws)


# --- finite values -------------------------------------------------------------------------


@settings(max_examples=40)
@given(st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=8))
def test_values_finite_after_forward(values):
    assert np.all(np.isfinite(softmax(np.array(values))))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_composite_graph_gradient_across_seeds(seed):
    # one graph of gathers, window sums, relu, max-pooling, dropout, a dense
    # head and the cross-entropy: the scoring classifier's loss, whose
    # hand-written gradient is checked per seed, biases and all
    rng = np.random.default_rng(seed)
    vocab = Vocabulary([*SPECIALS, *(f"w{i}" for i in range(10))])
    clf = EvalClassifier(ClassifierConfig(vocab_size=12, num_categories=3, max_len=6),
                         vocab, rng=Rng(seed))
    for name in clf.store.names():
        if name.endswith(".b"):
            clf.store[name][:] = rng.normal(size=clf.store[name].shape) * 0.1
    ids = rng.integers(0, 12, size=(4, 6))
    targets = rng.integers(0, 3, size=4)

    def loss():
        logits = clf.logits(ids, train_mode=True, dropout_rng=np.random.default_rng(seed))
        return float(nll_rows(logits, targets)[0].mean())

    analytic = np.empty_like(clf.store.flat)
    clf.loss_and_grad(ids, targets, np.random.default_rng(seed), analytic)
    report = check_gradient(loss, clf.store, analytic, tolerance=1e-4, max_checks=230)
    assert report.passed, report.summary()
    assert len(report.per_param) == len(clf.store)
