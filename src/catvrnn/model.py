"""The category-steered variational RNN: hidden-state initialization, the
unrolled multi-task forward pass, the joint loss, and free-running
generation.

The network couples a per-step VAE (encoder over token-embedding and previous
hidden state, decoder emitting vocabulary logits) with a GRU recurrence over
the embedding and latent code, plus a classification head on the final hidden
state. Category identity enters only through the initial hidden state.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from types import SimpleNamespace
from typing import Any, NamedTuple

import numpy as np

from .errors import ConfigurationError, DataError
from . import numeric as nm
from .data import PAD_ID
from .numeric import GaussianParams, ParamStore, Rng, Tensor

SIGMA_FLOOR = 1e-6

INIT_MODES = ("none", "static", "adaptive")


@dataclass
class ModelConfig:
    """Dimensions and switches for one model instance.

    ``enc_width``/``dec_width``/``dec_out`` default to ``2*hidden_dim``,
    ``hidden_dim``, and ``embed_dim``; at the default sizes this gives the
    556-512-256 encoder and 384-256-300 decoder stacks, and keeps the
    vocabulary-dependent parameter count at 601 per vocabulary entry.
    """

    vocab_size: int
    num_categories: int
    embed_dim: int = 300
    hidden_dim: int = 256
    latent_dim: int = 128
    max_len: int = 30
    init_mode: str = "static"
    static_omega: float = 8.5
    use_kl_term: bool = False
    use_feature_extractors: bool = False
    use_classification: bool = True
    mask_pad_loss: bool = False
    temperature: float = 1.0
    enc_width: int | None = None
    dec_width: int | None = None
    dec_out: int | None = None
    dtype: str = "float64"

    def __post_init__(self):
        if self.enc_width is None:
            self.enc_width = 2 * self.hidden_dim
        if self.dec_width is None:
            self.dec_width = self.hidden_dim
        if self.dec_out is None:
            self.dec_out = self.embed_dim
        self.validate()

    def validate(self):
        dims = (self.vocab_size, self.embed_dim, self.hidden_dim, self.latent_dim,
                self.max_len, self.enc_width, self.dec_width, self.dec_out)
        if any(d < 1 for d in dims):
            raise ConfigurationError(f"all dimensions must be >= 1, got {dims}")
        if self.num_categories < 1:
            raise ConfigurationError("num_categories must be >= 1")
        if self.init_mode not in INIT_MODES:
            raise ConfigurationError(
                f"init_mode must be one of {INIT_MODES}, got {self.init_mode!r}"
            )
        if self.init_mode != "adaptive" and self.num_categories > 2:
            # static h0 separates two categories by sign; none generates
            # through the static function
            raise ConfigurationError(
                f"init_mode {self.init_mode!r} supports at most two categories, "
                f"got {self.num_categories}; use adaptive"
            )
        if not np.isfinite(self.static_omega):
            raise ConfigurationError("static_omega must be finite")
        if self.temperature <= 0:
            raise ConfigurationError("temperature must be positive")
        if self.dtype not in ("float64", "float32"):
            raise ConfigurationError(f"unsupported dtype {self.dtype!r}")

    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


@dataclass
class SequenceForward:
    """Unrolled forward pass: vocabulary logits of every step, (T, B, V)
    time-major, final-state class logits, accumulated KL when enabled, and
    the final hidden state."""

    logits: Tensor
    class_logits: Tensor
    kl_sum: Tensor | None
    final_hidden: Tensor


@dataclass
class LossBreakdown:
    """Per-sentence loss terms; ``total`` is what training minimizes."""

    gen_nll: Tensor
    cls_nll: Tensor
    kl: Tensor | None
    total: Tensor


class CatVrnnParams:
    """All learnable weights, registered in a ParamStore in a fixed order,
    each stored as the step multiplies it.

    Groups: token embedding; encoder stack, its first layer as embedding
    rows and hidden rows, with the mu|sigma head; decoder stack with the
    vocabulary output layer; GRU recurrence (reset, update and candidate
    gates side by side) over embedding + latent; classifier head;
    adaptive-init vector pair when configured; conditional prior net when
    the KL term is on; feature extractors when on. Each block is filled
    from initial draws taken per layer and per gate, in that order.
    """

    def __init__(self, cfg: ModelConfig, rng: Rng | None = None):
        self.cfg = cfg
        self.store = ParamStore()
        add = self.store.add
        dt = cfg.np_dtype()
        gen = rng.stream("init") if rng is not None else None
        V, E, H, L, K = (cfg.vocab_size, cfg.embed_dim, cfg.hidden_dim,
                         cfg.latent_dim, cfg.num_categories)
        ew, dw, do = cfg.enc_width, cfg.dec_width, cfg.dec_out

        def uniform(limit, *shape):
            if gen is None:
                return np.zeros(shape, dtype=dt)
            return gen.uniform(-limit, limit, size=shape).astype(dt)

        def glorot(fan_in, fan_out):
            return uniform(np.sqrt(6.0 / (fan_in + fan_out)), fan_in, fan_out)

        def layer(name, fan_in, fan_out, weight=None):
            weight = glorot(fan_in, fan_out) if weight is None else weight
            return add(f"{name}.w", weight), add(f"{name}.b", np.zeros(fan_out, dt))

        def gaussian_head(name):
            # mu's layer, then sigma's, side by side
            return layer(name, H, 2 * L, np.hstack([glorot(H, L), glorot(H, L)]))

        self.embedding = add("embedding", uniform(0.1, V, E))
        # the token side (embedding rows) runs over all steps at once, the
        # hidden rows inside the recurrence
        enc1 = glorot(E + H, ew)
        self.enc_x = add("enc.fc1.wx", enc1[:E])
        enc_h = add("enc.fc1.wh", enc1[E:])
        self.enc_b = add("enc.fc1.b", np.zeros(ew, dt))
        enc2 = layer("enc.fc2", ew, H)
        head = gaussian_head("musigma")
        self.dec_stack = [layer("dec.fc1", L + H, dw), layer("dec.fc2", dw, do)]
        self.out_layer = layer("out", do, V)

        # per gate (reset, update, candidate): input side over [x, z], then
        # hidden side; the reset and update hidden sides multiply h together,
        # the candidate's multiplies r * h
        gates = [(glorot(E + L, H), glorot(H, H)) for _ in range(3)]
        x_side = np.hstack([x for x, _ in gates])
        self.gru_x = add("gru.wx", x_side[:E])
        gru_z = add("gru.wz", x_side[E:])
        w_ru = add("gru.w_ru", np.hstack([gates[0][1], gates[1][1]]))
        w_hn = add("gru.w_hn", gates[2][1])
        self.gru_b = add("gru.b", np.zeros(3 * H, dt))
        self.classifier = layer("cls", H, K)

        if cfg.init_mode == "adaptive":
            # both vectors start with unit-scale entries: the bias anchors
            # category 0 away from the origin so the evaluation-time state
            # (no training noise) still carries a recognizable signature
            self.init_omega = add("init.omega", uniform(1.0, H))
            self.init_bias = add("init.bias", uniform(1.0, H))

        if cfg.use_kl_term:
            self.prior_trunk = layer("prior.fc1", H, H)
            self.prior_head = gaussian_head("prior.musigma")

        featz = []
        if cfg.use_feature_extractors:
            self.feat_x = [layer("featx.fc1", E, E), layer("featx.fc2", E, E)]
            featz = [*layer("featz.fc1", L, L), *layer("featz.fc2", L, L)]
        self.recurrent = Recurrent(enc_h, *enc2, *head, gru_z, w_ru, w_hn, *featz)

    @classmethod
    def zeros(cls, cfg: ModelConfig) -> "CatVrnnParams":
        """All-zero weights; step logits are uniform over the vocabulary."""
        return cls(cfg, rng=None)


def parameter_count(params: CatVrnnParams) -> int:
    """Exact number of scalar learnables in the store."""
    return params.store.total_parameters()


# --- hidden-state initialization -------------------------------------------


def _category_column(c, batch: int, upper: int, what: str) -> np.ndarray:
    cats = np.broadcast_to(np.asarray(c, dtype=np.int64), (batch,))
    if cats.size and (cats.min() < 0 or cats.max() >= upper):
        raise ConfigurationError(
            f"{what}: category out of range [0, {upper}): {cats.min()}..{cats.max()}"
        )
    return cats


def init_hidden_static(c, cfg: ModelConfig, rng: Rng, batch: int = 1) -> Tensor:
    """h0 = omega * (-1)^c * softmax(r) with r ~ U[0,1)^hidden, drawn from the
    init stream. Supports exactly two categories; each row sums to +-omega."""
    cats = _category_column(c, batch, 2,
                            "static initialization supports exactly two categories")
    r = rng.stream("init").random((batch, cfg.hidden_dim))
    sign = np.where(cats % 2 == 0, 1.0, -1.0)[:, None]
    h0 = cfg.static_omega * sign * nm.softmax(r)
    return Tensor(h0.astype(cfg.np_dtype(), copy=False))


def init_hidden_adaptive(c, params: CatVrnnParams, train_mode: bool,
                         rng: Rng, batch: int = 1) -> Tensor:
    """h0 = c * omega + bias, plus U[0,1)^hidden noise during training.

    Gradient flows to the learned omega and bias vectors; consecutive
    categories differ by exactly omega in evaluation mode.
    """
    cfg = params.cfg
    cats = _category_column(c, batch, cfg.num_categories, "adaptive initialization")
    scale = Tensor(cats[:, None].astype(cfg.np_dtype()))
    h0 = nm.add(nm.mul(scale, params.init_omega), params.init_bias)
    if train_mode:
        noise = rng.stream("noise").random((batch, cfg.hidden_dim))
        h0 = nm.add(h0, Tensor(noise.astype(cfg.np_dtype(), copy=False)))
    return h0


def init_hidden_zero(cfg: ModelConfig, batch: int = 1) -> Tensor:
    """All-zero initial state, independent of rng and category."""
    return Tensor(np.zeros((batch, cfg.hidden_dim), dtype=cfg.np_dtype()))


def init_hidden(c, params: CatVrnnParams, rng: Rng, train_mode: bool,
                batch: int = 1) -> Tensor:
    """Dispatch on the init_mode of ``params.cfg``.

    Mode ``none`` trains from zero and falls back to the static function in
    evaluation mode, which is how the no-initialization variant generates.
    """
    cfg = params.cfg
    if cfg.init_mode == "static":
        return init_hidden_static(c, cfg, rng, batch)
    if cfg.init_mode == "adaptive":
        return init_hidden_adaptive(c, params, train_mode, rng, batch)
    if train_mode:
        return init_hidden_zero(cfg, batch)
    return init_hidden_static(c, cfg, rng, batch)


# --- forward passes ---------------------------------------------------------


def _sigma_from(raw: Tensor) -> Tensor:
    return nm.add(nm.softplus(raw), SIGMA_FLOOR)


class Recurrent(NamedTuple):
    """The weights of the recurrence step, as tensors or as their arrays: the
    hidden rows of the encoder's first layer, its second layer, the mu and
    sigma heads side by side, the latent rows of the GRU's input side (reset,
    update and candidate gates side by side), the hidden side of reset and
    update, the candidate's ``w_hn`` (which multiplies ``r * h``), and the
    latent feature extractor when it is on."""

    enc_h: Any
    enc2_w: Any
    enc2_b: Any
    head_w: Any
    head_b: Any
    gru_z: Any
    w_ru: Any
    w_hn: Any
    featz1_w: Any = None
    featz1_b: Any = None
    featz2_w: Any = None
    featz2_b: Any = None

    def arrays(self) -> "Recurrent":
        return Recurrent._make(None if t is None else t.data for t in self)


# A step is four pieces. Only the recurrence needs the previous step's state;
# the others take any number of rows, so forward_teacher runs them once over
# all steps while ``_step`` looks up the token side in a table of the whole
# vocabulary and decodes one step's rows.


def _inputs(x_ids: np.ndarray, params: CatVrnnParams):
    """The token side of a step: the embedding's share of the encoder's first
    layer and of the GRU's gates, biases included."""
    e = nm.gather_rows(params.embedding, x_ids)
    rec_x = e
    if params.cfg.use_feature_extractors:
        rec_x = nm.mlp_forward(e, params.feat_x, ["relu", "none"])
    return (nm.linear(e, params.enc_x, params.enc_b),
            nm.linear(rec_x, params.gru_x, params.gru_b))


def _gaussian(x: Tensor, head: tuple[Tensor, Tensor]) -> GaussianParams:
    mu, raw = nm.split(nm.linear(x, *head), [head[0].data.shape[1] // 2] * 2)
    return GaussianParams(mu, _sigma_from(raw))


def _step_widths(w: Recurrent) -> dict[str, int]:
    """Name -> width of the arrays one ``recur_step`` writes, besides h_next."""
    hidden, latent = w.w_hn.shape[0], w.head_w.shape[1] // 2
    widths = dict(e1=w.enc_h.shape[1], e2=hidden, head=2 * latent, sigma=latent,
                  eps=latent, z=latent, gx=3 * hidden, ru=2 * hidden, rh=hidden,
                  n=hidden, tmp=hidden)
    if w.featz1_w is not None:
        widths.update(f1=latent, rec_z=latent)
    return widths


class _Steps:
    """The arrays of a run of steps, one per name, (steps, batch, width):
    those named in ``keep`` hold every step, the others one step that each
    step overwrites. They are consecutive pieces of one allocation, so that
    what earlier calls freed does not decide how many of them page-fault."""

    def __init__(self, widths: dict[str, int], batch: int, steps: int, keep, dtype):
        shapes = {name: (steps if name in keep else 1, batch, width)
                  for name, width in widths.items()}
        sizes = {name: int(np.prod(shape)) for name, shape in shapes.items()}
        block = np.empty(sum(sizes.values()), dtype=dtype)
        self.arrays, lo = {}, 0
        for name, shape in shapes.items():
            self.arrays[name] = block[lo:lo + sizes[name]].reshape(shape)
            lo += sizes[name]

    def at(self, t: int) -> SimpleNamespace:
        """Step ``t``'s rows of every array."""
        return SimpleNamespace(**{name: a[t % len(a)] for name, a in self.arrays.items()})


def _draw_normal(stream: np.random.Generator, out: np.ndarray):
    """Standard normal draws into ``out``, taken in float64 whatever its dtype,
    as ``stream.standard_normal(out.shape)`` takes them."""
    if out.dtype == np.float64:
        stream.standard_normal(out=out)
    else:
        out[...] = stream.standard_normal(out.shape)


def recur_step(h: np.ndarray, enc_x_t: np.ndarray, gru_x_t: np.ndarray,
               eps_t: np.ndarray, w: Recurrent, out: SimpleNamespace | None = None):
    """One step of the recurrence, in numpy on ``w.arrays()``: the posterior
    from the token side and ``h``, the latent ``z = mu + sigma * eps_t``, and
    the GRU update. Every result is written into ``out`` (fresh arrays when
    not given), which also keeps what ``_recur_backward`` needs. Returns
    (h_next, z, mu, sigma).

    reset    r = sigmoid(gx_r + h Whr)       gx = gru_x_t + z' Wz, where z' is
    update   u = sigmoid(gx_u + h Whu)       z or the latent feature
    cand     n = tanh(gx_n + (r * h) Whn)    extractor's output
    next     h' = u * h + (1 - u) * n
    """
    hidden, latent = h.shape[-1], eps_t.shape[-1]
    if out is None:
        out = _Steps({**_step_widths(w), "h_next": hidden}, h.shape[0], 1, (),
                     h.dtype).at(0)
    e1 = np.matmul(h, w.enc_h, out=out.e1)
    e1 += enc_x_t
    np.maximum(e1, 0.0, out=e1)
    e2 = np.matmul(e1, w.enc2_w, out=out.e2)
    e2 += w.enc2_b
    np.maximum(e2, 0.0, out=e2)
    head = np.matmul(e2, w.head_w, out=out.head)
    head += w.head_b
    mu = head[:, :latent]
    sigma = np.logaddexp(0.0, head[:, latent:], out=out.sigma)
    sigma += SIGMA_FLOOR
    z = rec_z = nm.reparameterize(mu, sigma, eps_t, out=out.z)
    if w.featz1_w is not None:
        f1 = np.matmul(z, w.featz1_w, out=out.f1)
        f1 += w.featz1_b
        np.maximum(f1, 0.0, out=f1)
        rec_z = np.matmul(f1, w.featz2_w, out=out.rec_z)
        rec_z += w.featz2_b
    gx = np.matmul(rec_z, w.gru_z, out=out.gx)
    gx += gru_x_t
    ru = np.matmul(h, w.w_ru, out=out.ru)
    ru += gx[:, :2 * hidden]
    # sigmoid, as 1 / (1 + exp(-clip(x, -500, 500)))
    np.clip(ru, -500, 500, out=ru)
    np.negative(ru, out=ru)
    np.exp(ru, out=ru)
    ru += 1.0
    np.divide(1.0, ru, out=ru)
    r, u = ru[:, :hidden], ru[:, hidden:]
    n = np.matmul(np.multiply(r, h, out=out.rh), w.w_hn, out=out.n)
    n += gx[:, 2 * hidden:]
    np.tanh(n, out=n)
    h_next = np.multiply(u, h, out=out.h_next)
    tmp = np.subtract(1.0, u, out=out.tmp)
    tmp *= n
    h_next += tmp
    return h_next, z, mu, sigma


def recurrence(h0: Tensor, enc_x: Tensor, gru_x: Tensor, w: Recurrent,
               stream: np.random.Generator) -> list[Tensor]:
    """``recur_step`` over every step as one tape op, from ``h0`` (B, H) over
    the token sides ``enc_x``/``gru_x`` of T*B time-major rows, with one
    (B, L) latent draw from ``stream`` per step.

    Returns the previous states, z, mu and sigma of every step, (T*B, .) in
    the rows' order, and the final state. The backward
    (``_recur_backward``) walks time in reverse.
    """
    batch, hidden = h0.shape
    steps = enc_x.shape[0] // batch
    if (hidden != w.w_hn.shape[0] or enc_x.shape != (steps * batch, w.enc_h.shape[1])
            or gru_x.shape != (steps * batch, 3 * hidden)):
        raise ConfigurationError(
            f"recurrence inputs h0 {h0.shape}, enc_x {enc_x.shape}, gru_x "
            f"{gru_x.shape} do not match hidden size {w.w_hn.shape[0]}"
        )
    parents = [h0, enc_x, gru_x, *(t for t in w if t is not None)]
    arrays = w.arrays()
    widths = _step_widths(arrays)
    # the backward needs every step's arrays; without it only the outputs
    keep = (set(widths) - {"gx", "tmp"} if nm.records(parents)
            else {"head", "sigma", "z"})
    run = _Steps(widths, batch, steps, keep, enc_x.dtype)
    hs = np.empty((steps + 1, batch, hidden), dtype=enc_x.dtype)
    hs[0] = h0.data
    enc_rows = enc_x.data.reshape(steps, batch, -1)
    gru_rows = gru_x.data.reshape(steps, batch, -1)
    for t in range(steps):
        out = run.at(t)
        out.h_next = hs[t + 1]
        _draw_normal(stream, out.eps)
        recur_step(hs[t], enc_rows[t], gru_rows[t], out.eps, arrays, out)

    def rows(a):
        return a.reshape(steps * batch, -1)

    latent = widths["z"]
    outputs = [rows(hs[:steps]), rows(run.arrays["z"]),
               rows(run.arrays["head"])[:, :latent], rows(run.arrays["sigma"]), hs[steps]]
    return nm.multi_output(outputs, parents,
                           lambda grads: _recur_backward(grads, hs, run.arrays, arrays))


def _recur_backward(grads, hs: np.ndarray, a: dict[str, np.ndarray],
                    w: Recurrent) -> list[np.ndarray]:
    """Backpropagation through time for ``recurrence``. ``grads`` are its
    outputs' gradients (None where none arrived), ``hs`` the states h0..hT
    and ``a`` every step's arrays. Carries dh from the last step to the
    first, keeps each step's gradients at the matmul inputs, and forms each
    weight's gradient as one (K, T*B) @ (T*B, N) matmul after the loop.
    Returns gradients for (h0, enc_x, gru_x, *the weights present)."""
    steps, batch, hidden = hs.shape[0] - 1, hs.shape[1], hs.shape[2]
    latent = a["z"].shape[-1]
    featz = w.featz1_w is not None
    g_hprev, g_z, g_mu, g_sigma = (None if g is None else g.reshape(steps, batch, -1)
                                   for g in grads[:4])
    names = ("e1", "e2", "head", "gx") + (("f1", "rec_z") if featz else ())
    d = _Steps({name: a[name].shape[-1] for name in names}, batch, steps, names,
               hs.dtype).arrays
    dh = np.zeros_like(hs[0]) if grads[4] is None else grads[4]
    for t in reversed(range(steps)):
        h, ru, n = hs[t], a["ru"][t], a["n"][t]
        r, u = ru[:, :hidden], ru[:, hidden:]
        dgx = d["gx"][t]
        d_ru, d_n = dgx[:, :2 * hidden], dgx[:, 2 * hidden:]
        # h' = u * h + (1 - u) * n, through n's tanh
        np.multiply(dh, 1.0 - u, out=d_n)
        d_n *= 1.0 - n * n
        d_rh = d_n @ w.w_hn.T
        # through the sigmoids of r and u
        np.multiply(ru, 1.0 - ru, out=d_ru)
        d_ru[:, :hidden] *= d_rh * h
        d_ru[:, hidden:] *= dh * (h - n)
        dh_prev = dh * u
        dh_prev += d_rh * r
        dh_prev += d_ru @ w.w_ru.T
        # gx = gru_x_t + z' Wz, z' = featz(z) or z
        if featz:
            d_rec = np.matmul(dgx, w.gru_z.T, out=d["rec_z"][t])
            d_f1 = np.matmul(d_rec, w.featz2_w.T, out=d["f1"][t])
            d_f1 *= a["f1"][t] > 0
            dz = d_f1 @ w.featz1_w.T
        else:
            dz = dgx @ w.gru_z.T
        if g_z is not None:
            dz += g_z[t]
        # z = mu + sigma * eps, sigma = softplus(raw) + floor
        d_head = d["head"][t]
        d_mu, d_raw = d_head[:, :latent], d_head[:, latent:]
        np.multiply(dz, a["eps"][t], out=d_raw)
        if g_sigma is not None:
            d_raw += g_sigma[t]
        d_raw /= 1.0 + np.exp(-a["head"][t][:, latent:])
        np.copyto(d_mu, dz)
        if g_mu is not None:
            d_mu += g_mu[t]
        # the encoder, relu(relu(enc_x_t + h enc_h) enc2) -> head
        d_e2 = np.matmul(d_head, w.head_w.T, out=d["e2"][t])
        d_e2 *= a["e2"][t] > 0
        d_e1 = np.matmul(d_e2, w.enc2_w.T, out=d["e1"][t])
        d_e1 *= a["e1"][t] > 0
        dh_prev += d_e1 @ w.enc_h.T
        if g_hprev is not None:
            dh_prev += g_hprev[t]
        dh = dh_prev

    def rows(x):
        return x.reshape(steps * batch, -1)

    h_rows, d_gx, d_head = rows(hs[:steps]), rows(d["gx"]), rows(d["head"])
    d_e1, d_e2 = rows(d["e1"]), rows(d["e2"])
    weights = Recurrent(
        enc_h=h_rows.T @ d_e1,
        enc2_w=rows(a["e1"]).T @ d_e2, enc2_b=d_e2.sum(axis=0),
        head_w=rows(a["e2"]).T @ d_head, head_b=d_head.sum(axis=0),
        gru_z=rows(a["rec_z" if featz else "z"]).T @ d_gx,
        w_ru=h_rows.T @ d_gx[:, :2 * hidden],
        w_hn=rows(a["rh"]).T @ d_gx[:, 2 * hidden:])
    if featz:
        d_f1, d_rec = rows(d["f1"]), rows(d["rec_z"])
        weights = weights._replace(
            featz1_w=rows(a["z"]).T @ d_f1, featz1_b=d_f1.sum(axis=0),
            featz2_w=rows(a["f1"]).T @ d_rec, featz2_b=d_rec.sum(axis=0))
    return [dh, d_e1, d_gx, *(g for g in weights if g is not None)]


def _emit(z: Tensor, h_prev: Tensor, params: CatVrnnParams) -> Tensor:
    """Vocabulary logits decoded from the latent and the previous state."""
    dec_h = nm.mlp_forward(nm.concat([z, h_prev], axis=-1), params.dec_stack,
                           ["relu", "relu"])
    return nm.linear(dec_h, *params.out_layer)


def _emit_into(zh: np.ndarray, params: CatVrnnParams, out: SimpleNamespace) -> np.ndarray:
    """``_emit`` in numpy from the side-by-side [z, h_prev] rows ``zh``, into
    ``out.dec1``, ``out.dec2`` and ``out.logits``."""
    x = zh
    layers = [*params.dec_stack, params.out_layer]
    for (w, b), y in zip(layers, (out.dec1, out.dec2, out.logits)):
        np.matmul(x, w.data, out=y)
        y += b.data
        if y is not out.logits:
            np.maximum(y, 0.0, out=y)
        x = y
    return x


def _kl(posterior: GaussianParams, h_prev: Tensor, params: CatVrnnParams) -> Tensor:
    """KL of the posterior from the prior conditioned on the previous state."""
    trunk = nm.relu(nm.linear(h_prev, *params.prior_trunk))
    return nm.kl_gaussians(posterior, _gaussian(trunk, params.prior_head))


def _step_arrays(params: CatVrnnParams, count: int):
    """What ``_step`` over ``count`` rows reads and writes, built once per
    call: the recurrence's arrays, the token side (``_inputs``) of every
    vocabulary entry, and every array a step writes."""
    cfg = params.cfg
    rec = params.recurrent.arrays()
    table = tuple(t.data for t in _inputs(np.arange(cfg.vocab_size), params))
    widths = {**_step_widths(rec), "enc_x": cfg.enc_width,
              "gru_x": 3 * cfg.hidden_dim, "h": cfg.hidden_dim,
              "h_next": cfg.hidden_dim, "zh": cfg.latent_dim + cfg.hidden_dim,
              "dec1": cfg.dec_width, "dec2": cfg.dec_out, "logits": cfg.vocab_size}
    return rec, table, _Steps(widths, count, 1, (), cfg.np_dtype()).at(0)


def _step(x_ids: np.ndarray, params: CatVrnnParams, rec: Recurrent,
          table: tuple[np.ndarray, np.ndarray], b: SimpleNamespace,
          stream: np.random.Generator):
    """One time step over token ids in [0, V), in numpy without the tape, on
    the arrays ``b`` of ``_step_arrays``: from the states in ``b.h_next``
    (kept in ``b.h``), looks the tokens' rows up in ``table``, runs
    ``recur_step`` with one latent draw from ``stream``, and decodes
    vocabulary logits from latent + previous state into ``b.logits``. The
    prior net and KL are not computed; sampling does not use them."""
    for side, rows in zip(table, (b.enc_x, b.gru_x)):
        np.take(side, x_ids, axis=0, out=rows, mode="clip")
    np.copyto(b.h, b.h_next)
    _draw_normal(stream, b.eps)
    recur_step(b.h, b.enc_x, b.gru_x, b.eps, rec, b)
    np.concatenate([b.z, b.h], axis=1, out=b.zh)
    _emit_into(b.zh, params, b)


def _teacher_inputs(x_ids: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    x_ids = np.asarray(x_ids, dtype=np.int64)
    if x_ids.ndim == 1:
        x_ids = x_ids[None, :]
    if x_ids.shape[1] != cfg.max_len:
        raise DataError(
            f"input width {x_ids.shape[1]} does not match max_len {cfg.max_len}"
        )
    if np.any(x_ids[:, 0] != PAD_ID):
        raise DataError("inputs must start with the PAD token")
    if x_ids.size and (x_ids.min() < 0 or x_ids.max() >= cfg.vocab_size):
        raise DataError(
            f"token id out of range [0, {cfg.vocab_size}): "
            f"{x_ids.min()}..{x_ids.max()}"
        )
    return x_ids


def forward_teacher(x_ids: np.ndarray, c, params: CatVrnnParams,
                    cfg: ModelConfig, rng: Rng, train_mode: bool = True) -> SequenceForward:
    """Teacher-forced unrolled pass over padded inputs of width max_len.

    ``x_ids`` is (T,) or (B, T) with a PAD start token in column 0; ``c`` is
    one category id or one per row. Runs the configured hidden-state
    initialization, T cell steps, and the classifier on the final hidden
    state. Per-step KL values are summed when enabled.

    Computes what ``forward_stepwise`` computes, with the same draws, but
    only the recurrence runs step by step, as one tape op: the token side
    runs once over all ``T*B`` rows before it, and the decoder, output layer
    and prior once over the stacked states after it.
    """
    x_ids = _teacher_inputs(x_ids, cfg)
    batch, T = x_ids.shape
    h0 = init_hidden(c, params, rng, train_mode, batch)
    # time-major rows: step t is rows t*batch .. (t+1)*batch
    enc_x, gru_x = _inputs(x_ids.T.reshape(-1), params)
    h_all, z, mu, sigma, h = recurrence(h0, enc_x, gru_x, params.recurrent,
                                        rng.stream("latent"))
    logits = _emit(z, h_all, params)
    kl_sum = None
    if cfg.use_kl_term:
        kl = nm.reshape(_kl(GaussianParams(mu, sigma), h_all, params), (T, batch))
        kl_sum = nm.tensor_sum(kl, axis=0)
    class_logits = nm.linear(h, *params.classifier)
    return SequenceForward(logits=nm.reshape(logits, (T, batch, cfg.vocab_size)),
                           class_logits=class_logits, kl_sum=kl_sum, final_hidden=h)


def forward_stepwise(x_ids: np.ndarray, c, params: CatVrnnParams, cfg: ModelConfig,
                     rng: Rng, train_mode: bool = True) -> SequenceForward:
    """``forward_teacher`` as a fold of ``_step``, the step ``generate`` runs,
    plus the prior's KL of each step; the reference the one-op pass is
    checked against. Not differentiable."""
    x_ids = _teacher_inputs(x_ids, cfg)
    batch, T = x_ids.shape
    with nm.no_grad():
        rec, table, b = _step_arrays(params, batch)
        b.h_next[...] = init_hidden(c, params, rng, train_mode, batch).data
        logits = np.empty((T, batch, cfg.vocab_size), dtype=cfg.np_dtype())
        kl_sum = None
        for t in range(T):
            _step(x_ids[:, t], params, rec, table, b, rng.stream("latent"))
            logits[t] = b.logits
            if cfg.use_kl_term:
                # b.h holds the step's previous state, b.head its posterior
                posterior = GaussianParams(Tensor(b.head[:, :cfg.latent_dim]),
                                           Tensor(b.sigma))
                kl = _kl(posterior, Tensor(b.h), params)
                kl_sum = kl if kl_sum is None else nm.add(kl_sum, kl)
        h = Tensor(b.h_next)
        return SequenceForward(logits=Tensor(logits),
                               class_logits=nm.linear(h, *params.classifier),
                               kl_sum=kl_sum, final_hidden=h)


def _loss_mask(targets: np.ndarray) -> np.ndarray:
    """Positions scored when PAD masking is on: real tokens plus the first
    terminating PAD of each row."""
    real = targets != PAD_ID
    mask = real.astype(np.float64)
    tail = np.argmin(real, axis=1)
    has_pad = ~real.all(axis=1)
    mask[np.arange(targets.shape[0])[has_pad], tail[has_pad]] = 1.0
    return mask


def joint_loss(fwd: SequenceForward, targets: np.ndarray, c,
               cfg: ModelConfig) -> LossBreakdown:
    """Per-sentence generation NLL summed over all steps, classification NLL
    at the final step, and their 1:1 sum (plus the KL sum when enabled)."""
    targets = np.asarray(targets, dtype=np.int64)
    if targets.ndim == 1:
        targets = targets[None, :]
    T, batch, vocab = fwd.logits.shape
    if targets.shape != (batch, T):
        raise DataError(
            f"targets of shape {targets.shape} do not match {batch} rows of "
            f"{T} forward steps"
        )
    # one cross-entropy over all T*B positions, in the logits' time-major order
    ce = nm.cross_entropy_rows(nm.reshape(fwd.logits, (T * batch, vocab)),
                               targets.T.reshape(-1))
    if cfg.mask_pad_loss:
        mask = _loss_mask(targets).astype(fwd.logits.dtype)
        ce = nm.mul(ce, Tensor(mask.T.reshape(-1)))
    gen_nll = nm.tensor_sum(nm.reshape(ce, (T, batch)), axis=0)

    cats = _category_column(c, targets.shape[0], fwd.class_logits.data.shape[-1],
                            "classification target")
    cls_nll = nm.cross_entropy_rows(fwd.class_logits, cats)

    total = gen_nll
    if cfg.use_classification:
        total = nm.add(total, cls_nll)
    if fwd.kl_sum is not None:
        total = nm.add(total, fwd.kl_sum)
    return LossBreakdown(gen_nll=gen_nll, cls_nll=cls_nll, kl=fwd.kl_sum,
                         total=total)


def generate(c: int, count: int, params: CatVrnnParams, cfg: ModelConfig,
             rng: Rng) -> list[list[int]]:
    """Sample ``count`` free-running sequences for one category.

    The hidden state comes from the evaluation-mode initialization, the input
    starts at PAD, and each sampled token feeds back as the next input.
    Sampling is multinomial over softmax(logits / temperature) from the
    sampling stream; each sequence is truncated at its first PAD emission.
    The steps' (count, width) arrays are allocated once per call.
    """
    if not 0 <= int(c) < cfg.num_categories:
        raise ConfigurationError(
            f"category {c} out of range [0, {cfg.num_categories})"
        )
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    stream = rng.stream("sampling")
    with nm.no_grad():
        rec, table, b = _step_arrays(params, count)
        b.h_next[...] = init_hidden(c, params, rng, train_mode=False, batch=count).data
    probs, cum = np.empty((2, count, cfg.vocab_size), dtype=cfg.np_dtype())
    below = np.empty((count, cfg.vocab_size), dtype=bool)
    x = np.full(count, PAD_ID, dtype=np.int64)
    sampled = np.empty((count, cfg.max_len), dtype=np.int64)
    for t in range(cfg.max_len):
        _step(x, params, rec, table, b, rng.stream("latent"))
        # nm.softmax(logits / temperature), in place
        np.divide(b.logits, cfg.temperature, out=probs)
        probs -= probs.max(axis=1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=1, keepdims=True)
        np.cumsum(probs, axis=1, out=cum)
        # a row's total can round below 1: a draw past it takes the last
        # token of nonzero probability, not one past the end
        u = np.minimum(stream.random((count, 1)), np.nextafter(cum[:, -1:], -np.inf))
        x = np.less(cum, u, out=below).sum(axis=1)
        sampled[:, t] = x
    out = []
    for row in sampled:
        stop = np.flatnonzero(row == PAD_ID)
        out.append(row[: stop[0]].tolist() if stop.size else row.tolist())
    return out
