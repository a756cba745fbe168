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

from .errors import ConfigurationError, DataError, NumericError, require_ints
from . import numeric as nm
from .data import PAD_ID
from .numeric import ParamStore, Rng

SIGMA_FLOOR = 1e-6

INIT_MODES = ("none", "static", "adaptive")


@dataclass
class ModelConfig:
    """Dimensions and switches for one model instance.

    The encoder's layers are ``2*hidden_dim`` and ``hidden_dim`` wide, the
    decoder's ``hidden_dim`` and ``embed_dim``: at the default sizes the
    556-512-256 encoder and 384-256-300 decoder stacks, with 601 parameters
    per vocabulary entry.
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
    dtype: str = "float64"

    def __post_init__(self):
        self.validate()

    def validate(self):
        require_ints(1, vocab_size=self.vocab_size, num_categories=self.num_categories,
                     embed_dim=self.embed_dim, hidden_dim=self.hidden_dim,
                     latent_dim=self.latent_dim, max_len=self.max_len)
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
        if not self.temperature > 0:
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

    logits: np.ndarray
    class_logits: np.ndarray
    kl_sum: np.ndarray | None
    final_hidden: np.ndarray


@dataclass
class LossBreakdown:
    """Per-sentence loss terms; ``total`` is what training minimizes."""

    gen_nll: np.ndarray
    cls_nll: np.ndarray
    kl: np.ndarray | None
    total: np.ndarray


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
        enc1 = glorot(E + H, 2 * H)
        self.enc_x = add("enc.fc1.wx", enc1[:E])
        enc_h = add("enc.fc1.wh", enc1[E:])
        self.enc_b = add("enc.fc1.b", np.zeros(2 * H, dt))
        enc2 = layer("enc.fc2", 2 * H, H)
        head = gaussian_head("musigma")
        self.decoder = [layer("dec.fc1", L + H, H), layer("dec.fc2", H, E),
                        layer("out", E, V)]
        self.out_layer = self.decoder[-1]

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
            self.prior = [layer("prior.fc1", H, H), gaussian_head("prior.musigma")]

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


def init_hidden_static(c, cfg: ModelConfig, rng: Rng, batch: int = 1) -> np.ndarray:
    """h0 = omega * (-1)^c * softmax(r) with r ~ U[0,1)^hidden, drawn from the
    init stream. Supports exactly two categories; each row sums to +-omega."""
    cats = _category_column(c, batch, 2,
                            "static initialization supports exactly two categories")
    r = rng.stream("init").random((batch, cfg.hidden_dim))
    sign = np.where(cats % 2 == 0, 1.0, -1.0)[:, None]
    h0 = cfg.static_omega * sign * nm.softmax(r)
    return h0.astype(cfg.np_dtype(), copy=False)


def init_hidden_adaptive(c, params: CatVrnnParams, train_mode: bool,
                         rng: Rng, batch: int = 1) -> np.ndarray:
    """h0 = c * omega + bias, plus U[0,1)^hidden noise during training.

    Training learns the omega and bias vectors (``loss_and_grad``);
    consecutive categories differ by exactly omega in evaluation mode.
    """
    cfg = params.cfg
    cats = _category_column(c, batch, cfg.num_categories, "adaptive initialization")
    h0 = cats[:, None].astype(cfg.np_dtype()) * params.init_omega.data
    h0 += params.init_bias.data
    if train_mode:
        noise = rng.stream("noise").random((batch, cfg.hidden_dim))
        h0 += noise.astype(cfg.np_dtype(), copy=False)
    return h0


def init_hidden_zero(cfg: ModelConfig, batch: int = 1) -> np.ndarray:
    """All-zero initial state, independent of rng and category."""
    return np.zeros((batch, cfg.hidden_dim), dtype=cfg.np_dtype())


def init_hidden(c, params: CatVrnnParams, rng: Rng, train_mode: bool,
                batch: int = 1) -> np.ndarray:
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
#
# Every piece is numpy. The backward (``loss_and_grad``) adds each gradient's
# terms in the order the autodiff tape that first trained the model did, so
# that a run's parameters stay bit for bit those of that version.


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


def _dense(x: np.ndarray, layers, outs=None) -> list[np.ndarray]:
    """``x`` through the (weight, bias) tensor pairs ``layers``, with a relu
    after every layer but the last. Each layer's output is written into its
    array of ``outs`` (new arrays when not given); returns the outputs."""
    ys = []
    for i, ((w, b), y) in enumerate(zip(layers, outs or [None] * len(layers))):
        y = np.matmul(x, w.data, out=y)
        y += b.data
        if i < len(layers) - 1:
            np.maximum(y, 0.0, out=y)
        ys.append(y)
        x = y
    return ys


def _dense_backward(g: np.ndarray, x: np.ndarray, layers, ys, grads) -> np.ndarray:
    """The backward of ``_dense(x, layers)``, whose outputs were ``ys`` (only
    the hidden layers' are read), from the gradient ``g`` of its last
    output. Writes each weight's and bias's gradient into its array of
    ``grads`` (keyed by the tensor's id); returns the gradient of ``x``."""
    for i in reversed(range(len(layers))):
        w, b = layers[i]
        inp = ys[i - 1] if i else x
        dx = g @ w.data.T
        np.matmul(inp.T, g, out=grads[id(w)])
        np.sum(g, axis=0, out=grads[id(b)])
        if i:
            dx *= inp > 0  # through the relu
        g = dx
    return g


# A step is four pieces. Only the recurrence needs the previous step's state;
# the others take any number of rows, so a teacher-forced pass runs them once
# over all steps while ``_step`` looks up the token side in a table of the
# whole vocabulary and decodes one step's rows.


def _inputs(x_ids: np.ndarray, params: CatVrnnParams) -> SimpleNamespace:
    """The token side of a step: the embedding rows ``e`` of ``x_ids``, the
    feature extractor's outputs ``feat`` (empty when it is off), the GRU's
    input ``rec_x`` (``e`` or ``feat[-1]``), and their shares of the
    encoder's first layer (``enc_x``) and of the GRU's gates (``gru_x``),
    biases included."""
    e = params.embedding.data[x_ids]
    feat = _dense(e, params.feat_x) if params.cfg.use_feature_extractors else []
    rec_x = feat[-1] if feat else e
    (enc_x,) = _dense(e, [(params.enc_x, params.enc_b)])
    (gru_x,) = _dense(rec_x, [(params.gru_x, params.gru_b)])
    return SimpleNamespace(e=e, feat=feat, rec_x=rec_x, enc_x=enc_x, gru_x=gru_x)


def _step_widths(w: Recurrent, for_backward: bool = False) -> dict[str, int]:
    """Name -> width of the arrays one ``recur_step`` writes, besides h_next,
    and with ``for_backward`` those one step of ``_recur_backward`` writes:
    ``d_<name>``, the gradient at the matmul input ``<name>``."""
    hidden, latent = w.w_hn.shape[0], w.head_w.shape[1] // 2
    widths = dict(e1=w.enc_h.shape[1], e2=hidden, head=2 * latent, sigma=latent,
                  eps=latent, z=latent, gx=3 * hidden, ru=2 * hidden, rh=hidden,
                  n=hidden, tmp=hidden)
    if w.featz1_w is not None:
        widths.update(f1=latent, rec_z=latent)
    if for_backward:
        widths.update({f"d_{name}": widths[name] for name in
                       ("e1", "e2", "head", "gx", "f1", "rec_z") if name in widths})
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


def recurrence(h0: np.ndarray, enc_x: np.ndarray, gru_x: np.ndarray, w: Recurrent,
               stream: np.random.Generator, for_backward: bool = False):
    """``recur_step`` over every step, on ``w.arrays()``, from ``h0`` (B, H)
    over the token sides ``enc_x``/``gru_x`` of T*B time-major rows, with one
    (B, L) latent draw from ``stream`` per step.

    Returns the states h0..hT as one (T+1, B, H) array and every step's
    arrays by name, (T, B, width): ``head``, ``sigma`` and ``z``, and with
    ``for_backward`` also the rest that ``_recur_backward`` reads and the
    arrays it writes. Those are allocated here, in the same block, so that
    a training step's largest arrays come and go as one allocation.
    """
    batch, hidden = h0.shape
    steps = enc_x.shape[0] // batch
    if (hidden != w.w_hn.shape[0] or enc_x.shape != (steps * batch, w.enc_h.shape[1])
            or gru_x.shape != (steps * batch, 3 * hidden)):
        raise ConfigurationError(
            f"recurrence inputs h0 {h0.shape}, enc_x {enc_x.shape}, gru_x "
            f"{gru_x.shape} do not match hidden size {w.w_hn.shape[0]}"
        )
    widths = _step_widths(w, for_backward)
    keep = set(widths) - {"gx", "tmp"} if for_backward else {"head", "sigma", "z"}
    run = _Steps(widths, batch, steps, keep, enc_x.dtype)
    hs = np.empty((steps + 1, batch, hidden), dtype=enc_x.dtype)
    hs[0] = h0
    enc_rows = enc_x.reshape(steps, batch, -1)
    gru_rows = gru_x.reshape(steps, batch, -1)
    for t in range(steps):
        out = run.at(t)
        out.h_next = hs[t + 1]
        _draw_normal(stream, out.eps)
        recur_step(hs[t], enc_rows[t], gru_rows[t], out.eps, w, out)
    return hs, run.arrays


def _recur_backward(grads, hs: np.ndarray, a: dict[str, np.ndarray],
                    w: Recurrent) -> list[np.ndarray]:
    """Backpropagation through time for ``recurrence``. ``grads`` are its
    outputs' gradients (None where none arrived), ``hs`` the states h0..hT
    and ``a`` every step's arrays, as ``recurrence(..., for_backward=True)``
    returns them, into whose ``d_`` arrays it writes. Carries dh from the last step to the
    first, keeps each step's gradients at the matmul inputs, and forms each
    weight's gradient as one (K, T*B) @ (T*B, N) matmul after the loop.
    Returns gradients for (h0, enc_x, gru_x, *the weights present)."""
    steps, batch, hidden = hs.shape[0] - 1, hs.shape[1], hs.shape[2]
    latent = a["z"].shape[-1]
    featz = w.featz1_w is not None
    g_hprev, g_z, g_mu, g_sigma = (None if g is None else g.reshape(steps, batch, -1)
                                   for g in grads[:4])
    d = {name[2:]: arr for name, arr in a.items() if name.startswith("d_")}
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


def kl_gaussians(mu_q: np.ndarray, sigma_q: np.ndarray, mu_p: np.ndarray,
                 sigma_p: np.ndarray) -> tuple[np.ndarray, SimpleNamespace]:
    """Closed-form KL(q || p) of diagonal Gaussians, summed over the last
    axis, and the arrays its backward (``_kl_backward``) reads."""
    if mu_q.shape != mu_p.shape:
        raise ConfigurationError(f"KL dimension mismatch: {mu_q.shape} vs {mu_p.shape}")
    if np.any(sigma_q <= 0) or np.any(sigma_p <= 0):
        raise NumericError("kl_gaussians requires strictly positive sigmas")
    d = mu_q - mu_p
    var_p = sigma_p * sigma_p
    num = sigma_q * sigma_q + d * d
    elem = np.log(sigma_p) - np.log(sigma_q)
    elem += (num / var_p - 1.0) * 0.5
    return elem.sum(axis=-1), SimpleNamespace(sigma_q=sigma_q, sigma_p=sigma_p, d=d,
                                              var_p=var_p, num=num)


def _kl(mu: np.ndarray, sigma: np.ndarray, h_prev: np.ndarray, params: CatVrnnParams):
    """KL of the posterior (mu, sigma) from the prior conditioned on the
    previous state, per row, and what its backward reads: the prior net's
    outputs ``prior`` (trunk, then mu|raw sigma) besides ``kl_gaussians``'."""
    prior = _dense(h_prev, params.prior)
    latent = mu.shape[-1]
    sigma_p = np.logaddexp(0.0, prior[-1][:, latent:])
    sigma_p += SIGMA_FLOOR
    kl, parts = kl_gaussians(mu, sigma, prior[-1][:, :latent], sigma_p)
    parts.prior = prior
    return kl, parts


def _kl_backward(c, parts: SimpleNamespace):
    """Gradients of ``c`` times the summed KL, for ``c`` one scalar (the 1/B
    of the batch mean): of the posterior's mu and sigma, and of the prior
    net's last output (mu|raw sigma)."""
    sigma_q, sigma_p, d = parts.sigma_q, parts.sigma_p, parts.d
    half = c * 0.5
    # through (num / var_p - 1) * 0.5
    g_num = half / parts.var_p
    g_var = -half * parts.num / (parts.var_p * parts.var_p)
    # num = sigma_q^2 + d^2, var_p = sigma_p^2, and the logs of both sigmas;
    # each square's two factors add in turn, after the log's term
    g_d = g_num * d * 2.0
    g_sigma_q = -c / sigma_q
    g_sigma_q += g_num * sigma_q
    g_sigma_q += g_num * sigma_q
    g_sigma_p = c / sigma_p
    g_sigma_p += g_var * sigma_p
    g_sigma_p += g_var * sigma_p
    # sigma_p = softplus(raw) + floor, d = mu_q - mu_p
    raw = parts.prior[-1][:, d.shape[-1]:]
    g_head = np.concatenate([g_d * -1.0, g_sigma_p / (1.0 + np.exp(-raw))], axis=1)
    return g_d, g_sigma_q, g_head


def _step_arrays(params: CatVrnnParams, count: int):
    """What ``_step`` over ``count`` rows reads and writes, built once per
    call: the recurrence's arrays, the token side (``_inputs``) of every
    vocabulary entry, and every array a step writes."""
    cfg = params.cfg
    rec = params.recurrent.arrays()
    tokens = _inputs(np.arange(cfg.vocab_size), params)
    table = tokens.enc_x, tokens.gru_x
    del tokens  # the embedding rows go before the step's block is allocated
    widths = {**_step_widths(rec), "enc_x": 2 * cfg.hidden_dim,
              "gru_x": 3 * cfg.hidden_dim, "h": cfg.hidden_dim,
              "h_next": cfg.hidden_dim, "zh": cfg.latent_dim + cfg.hidden_dim,
              "dec1": cfg.hidden_dim, "dec2": cfg.embed_dim, "logits": cfg.vocab_size}
    return rec, table, _Steps(widths, count, 1, (), cfg.np_dtype()).at(0)


def _step(x_ids: np.ndarray, params: CatVrnnParams, rec: Recurrent,
          table: tuple[np.ndarray, np.ndarray], b: SimpleNamespace):
    """One time step over token ids in [0, V) on the arrays ``b`` of
    ``_step_arrays``: from the states in ``b.h_next`` (kept in ``b.h``),
    looks the tokens' rows up in ``table``, runs ``recur_step`` with the
    latent draw the caller put in ``b.eps``, and decodes vocabulary logits
    from latent + previous state into ``b.logits``.
    The prior net and KL are not computed; sampling does not use them."""
    for side, rows in zip(table, (b.enc_x, b.gru_x)):
        np.take(side, x_ids, axis=0, out=rows, mode="clip")
    np.copyto(b.h, b.h_next)
    recur_step(b.h, b.enc_x, b.gru_x, b.eps, rec, b)
    np.concatenate([b.z, b.h], axis=1, out=b.zh)
    _dense(b.zh, params.decoder, [b.dec1, b.dec2, b.logits])


def _run_steps(inputs: np.ndarray, c, params: CatVrnnParams, rng: Rng,
               train_mode: bool, arrays, advance) -> np.ndarray:
    """``_step`` over max_len steps for the rows of ``inputs``, on the
    ``arrays`` of ``_step_arrays`` (for at least as many rows), from the h0
    of ``init_hidden`` for the categories ``c``. Step ``t`` feeds each
    running row its id in column ``t`` of ``inputs``. After the step,
    ``advance(t, rows, b)`` reads the arrays ``b`` of the running rows,
    whose indices into ``inputs`` are ``rows``, and returns which of them
    keep running. Returns the final states of the rows still running.

    A row that stops leaves the step's arrays, so each step computes only
    the running rows, as the first ``n`` rows of each array. Every step
    still draws the full (rows, L) latent block and takes the running rows'
    share, so each row gets the draws it would get in a full batch and the
    stream advances by the same amount whenever rows stop. ``advance`` runs
    at every step, with no rows once every row has stopped.
    """
    rec, table, full = arrays
    count = len(inputs)
    latent = rng.stream("latent")
    full.h_next[:count] = init_hidden(c, params, rng, train_mode, count)
    eps = np.empty((count, params.cfg.latent_dim), dtype=full.eps.dtype)
    rows = np.arange(count)
    for t in range(params.cfg.max_len):
        _draw_normal(latent, eps)
        n = len(rows)
        b = SimpleNamespace(**{name: a[:n] for name, a in vars(full).items()})
        if n:
            np.take(eps, rows, axis=0, out=b.eps)
            _step(inputs[rows, t], params, rec, table, b)
        keep = advance(t, rows, b)
        if not keep.all():
            rows = rows[keep]
            full.h_next[:len(rows)] = b.h_next[keep]
    return full.h_next[:len(rows)]


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


def _teacher_pass(x_ids: np.ndarray, c, params: CatVrnnParams, cfg: ModelConfig,
                  rng: Rng, train_mode: bool, for_backward: bool):
    """``forward_teacher``, and the arrays ``loss_and_grad``'s backward reads
    (all of them when ``for_backward``)."""
    x_ids = _teacher_inputs(x_ids, cfg)
    batch, T = x_ids.shape
    h0 = init_hidden(c, params, rng, train_mode, batch)
    # time-major rows: step t is rows t*batch .. (t+1)*batch
    ids = x_ids.T.reshape(-1)
    tokens = _inputs(ids, params)
    hs, run = recurrence(h0, tokens.enc_x, tokens.gru_x, params.recurrent.arrays(),
                         rng.stream("latent"), for_backward)
    del tokens.enc_x, tokens.gru_x  # no backward reads them
    h_prev = hs[:T].reshape(T * batch, -1)
    zh = np.concatenate([run["z"].reshape(T * batch, -1), h_prev], axis=1)
    f = SimpleNamespace(ids=ids, tokens=tokens, hs=hs, run=run, h_prev=h_prev, zh=zh,
                        decoded=_dense(zh, params.decoder))
    fwd = SequenceForward(logits=f.decoded[-1].reshape(T, batch, cfg.vocab_size),
                          class_logits=_dense(hs[T], [params.classifier])[0],
                          kl_sum=None, final_hidden=hs[T])
    if cfg.use_kl_term:
        mu = run["head"].reshape(T * batch, -1)[:, :cfg.latent_dim]
        kl, f.kl = _kl(mu, run["sigma"].reshape(T * batch, -1), h_prev, params)
        fwd.kl_sum = kl.reshape(T, batch).sum(axis=0)
    return fwd, f


def forward_teacher(x_ids: np.ndarray, c, params: CatVrnnParams,
                    cfg: ModelConfig, rng: Rng, train_mode: bool = True) -> SequenceForward:
    """Teacher-forced unrolled pass over padded inputs of width max_len.

    ``x_ids`` is (T,) or (B, T) with a PAD start token in column 0; ``c`` is
    one category id or one per row. Runs the configured hidden-state
    initialization, T cell steps, and the classifier on the final hidden
    state. Per-step KL values are summed when enabled.

    Computes what ``forward_stepwise`` computes, with the same draws, but
    only the recurrence runs step by step: the token side runs once over all
    ``T*B`` rows before it, and the decoder, output layer and prior once
    over the stacked states after it. ``loss_and_grad`` runs the same pass.
    """
    return _teacher_pass(x_ids, c, params, cfg, rng, train_mode, False)[0]


def forward_stepwise(x_ids: np.ndarray, c, params: CatVrnnParams, cfg: ModelConfig,
                     rng: Rng, train_mode: bool = True) -> SequenceForward:
    """``forward_teacher`` as a fold of ``_step``, the step ``generate`` runs,
    plus the prior's KL of each step; the reference the teacher-forced pass
    is checked against."""
    x_ids = _teacher_inputs(x_ids, cfg)
    batch, T = x_ids.shape
    logits = np.empty((T, batch, cfg.vocab_size), dtype=cfg.np_dtype())
    kl_sum = None

    def record(t, rows, b):
        nonlocal kl_sum
        logits[t] = b.logits
        if cfg.use_kl_term:
            # b.h holds the step's previous state, b.head its posterior
            kl, _ = _kl(b.head[:, :cfg.latent_dim], b.sigma, b.h, params)
            kl_sum = kl if kl_sum is None else kl_sum + kl
        return np.ones(batch, dtype=bool)

    h = _run_steps(x_ids, c, params, rng, train_mode, _step_arrays(params, batch), record)
    return SequenceForward(logits=logits, class_logits=_dense(h, [params.classifier])[0],
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


def _loss(fwd: SequenceForward, targets: np.ndarray, c,
          cfg: ModelConfig) -> tuple[LossBreakdown, SimpleNamespace]:
    """``joint_loss``, and what its backward reads: each cross-entropy's
    rows' max and log-sum-exp, the targets in the logits' time-major order,
    the categories and the PAD mask."""
    T, batch, vocab = fwd.logits.shape
    targets = np.asarray(targets, dtype=np.int64)
    if targets.ndim == 1:
        targets = targets[None, :]
    if targets.shape != (batch, T):
        raise DataError(
            f"targets of shape {targets.shape} do not match {batch} rows of "
            f"{T} forward steps"
        )
    # one cross-entropy over all T*B positions, in the logits' time-major order
    logits = fwd.logits.reshape(T * batch, vocab)
    parts = SimpleNamespace(targets=targets.T.reshape(-1))
    ce, parts.m, parts.ls = nm.nll_rows(logits, parts.targets)
    # every position weighs 1 unless PAD masking is on
    mask = _loss_mask(targets) if cfg.mask_pad_loss else np.ones(targets.shape)
    parts.mask = mask.astype(logits.dtype).T.reshape(-1)
    ce = ce * parts.mask
    gen_nll = ce.reshape(T, batch).sum(axis=0)

    parts.cats = _category_column(c, batch, fwd.class_logits.shape[-1],
                                  "classification target")
    cls_nll, parts.cls_m, parts.cls_ls = nm.nll_rows(fwd.class_logits, parts.cats)

    total = gen_nll
    if cfg.use_classification:
        total = total + cls_nll
    if fwd.kl_sum is not None:
        total = total + fwd.kl_sum
    return LossBreakdown(gen_nll=gen_nll, cls_nll=cls_nll, kl=fwd.kl_sum,
                         total=total), parts


def joint_loss(fwd: SequenceForward, targets: np.ndarray, c,
               cfg: ModelConfig) -> LossBreakdown:
    """Per-sentence generation NLL summed over all steps, classification NLL
    at the final step, and their 1:1 sum (plus the KL sum when enabled)."""
    return _loss(fwd, targets, c, cfg)[0]


def loss_and_grad(x_ids: np.ndarray, targets: np.ndarray, c, params: CatVrnnParams,
                  cfg: ModelConfig, rng: Rng, grad: np.ndarray) -> LossBreakdown:
    """``joint_loss`` of the training-mode ``forward_teacher`` over a batch,
    with the same draws, and the gradient of the batch mean of its
    ``total``, written into ``grad``, an array laid out like
    ``params.store.flat`` (zeros for a weight the loss does not reach),
    unless the mean is not finite. The backward runs by hand from the output
    layer's softmax gradient, written into the logits' own buffer, to the
    token side and the adaptive h0."""
    fwd, f = _teacher_pass(x_ids, c, params, cfg, rng, True, True)
    loss, parts = _loss(fwd, targets, c, cfg)
    if not np.isfinite(loss.total.mean()):
        return loss
    batch, logits = len(fwd.class_logits), f.decoded[-1]
    store = params.store
    # each tensor's view of ``grad``, by the tensor's id
    grads = {id(t): view for (_, t), view in zip(store.items(),
                                                 store.views(grad).values())}
    # the mean's 1/B reaches every per-sentence term
    c_mean = np.ones((), dtype=logits.dtype) / batch
    g_logits = nm.cross_entropy_grad(logits, parts.m, parts.ls, parts.targets,
                                     c_mean * parts.mask, out=logits)
    g_zh = _dense_backward(g_logits, f.zh, params.decoder, f.decoded, grads)
    g_z, g_hprev = np.split(g_zh, [cfg.latent_dim], axis=1)
    g_mu = g_sigma = g_hT = None
    if cfg.use_kl_term:
        g_mu, g_sigma, g_head = _kl_backward(c_mean, f.kl)
        g_hprev = g_hprev + _dense_backward(g_head, f.h_prev, params.prior, f.kl.prior,
                                            grads)
    if cfg.use_classification:
        g_cls = nm.cross_entropy_grad(fwd.class_logits, parts.cls_m, parts.cls_ls,
                                      parts.cats, np.full(batch, c_mean),
                                      out=fwd.class_logits)
        g_hT = _dense_backward(g_cls, f.hs[-1], [params.classifier], [], grads)
    else:
        for t in params.classifier:
            grads[id(t)].fill(0.0)

    dh, d_enc_x, d_gru_x, *rec_grads = _recur_backward(
        [g_hprev, g_z, g_mu, g_sigma, g_hT], f.hs, f.run, params.recurrent.arrays())
    for t, g in zip((t for t in params.recurrent if t is not None), rec_grads):
        grads[id(t)][...] = g

    tokens, embedding = f.tokens, grads[id(params.embedding)]
    g_e = _dense_backward(d_enc_x, tokens.e, [(params.enc_x, params.enc_b)], [], grads)
    g_rec = _dense_backward(d_gru_x, tokens.rec_x, [(params.gru_x, params.gru_b)], [],
                            grads)
    if tokens.feat:
        g_rec = _dense_backward(g_rec, tokens.e, params.feat_x, tokens.feat, grads)
    g_e += g_rec
    embedding.fill(0.0)
    np.add.at(embedding, f.ids, g_e)

    if cfg.init_mode == "adaptive":
        # h0 = c * omega + bias + noise
        np.sum(dh * parts.cats[:, None].astype(dh.dtype), axis=0,
               out=grads[id(params.init_omega)])
        np.sum(dh, axis=0, out=grads[id(params.init_bias)])
    return loss


def generate(c: int, count: int, params: CatVrnnParams, cfg: ModelConfig,
             rng: Rng) -> list[list[int]]:
    """Sample ``count`` free-running sequences for one category.

    The hidden state comes from the evaluation-mode initialization, the input
    starts at PAD, and each sampled token feeds back as the next input.
    Sampling is multinomial over softmax(logits / temperature) from the
    sampling stream; each sequence ends at its first PAD emission, and then
    leaves the step's arrays (``_run_steps``). Every step still draws the
    full (count, 1) sampling block and takes the running rows' share, so the
    stream advances by the same amount whenever rows stop.
    """
    if not 0 <= int(c) < cfg.num_categories:
        raise ConfigurationError(
            f"category {c} out of range [0, {cfg.num_categories})"
        )
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    stream = rng.stream("sampling")
    probs, cum = np.empty((2, count, cfg.vocab_size), dtype=cfg.np_dtype())
    below = np.empty((count, cfg.vocab_size), dtype=bool)
    # column t holds the input of step t: PAD, then the token sampled at t - 1
    seq = np.full((count, cfg.max_len + 1), PAD_ID, dtype=np.int64)
    stops = np.full(count, cfg.max_len)

    def sample(t, rows, b):
        draws = stream.random((count, 1))
        n = len(rows)
        # nm.softmax(logits / temperature), in place
        p, s = probs[:n], cum[:n]
        np.divide(b.logits, cfg.temperature, out=p)
        p -= p.max(axis=1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=1, keepdims=True)
        np.cumsum(p, axis=1, out=s)
        # a row's total can round below 1: a draw past it takes the last
        # token of nonzero probability, not one past the end
        u = np.minimum(draws[rows], np.nextafter(s[:, -1:], -np.inf))
        x = np.less(s, u, out=below[:n]).sum(axis=1)
        seq[rows, t + 1] = x
        running = x != PAD_ID
        stops[rows[~running]] = t
        return running

    _run_steps(seq, c, params, rng, False, _step_arrays(params, count), sample)
    return [row[1:stop + 1] for row, stop in zip(seq.tolist(), stops.tolist())]


def teacher_nll(x_ids: np.ndarray, targets: np.ndarray, scored: np.ndarray, c,
                params: CatVrnnParams, cfg: ModelConfig, rng: Rng,
                batch: int) -> np.ndarray:
    """Teacher-forced NLL of the first ``scored[i]`` targets of each row
    ``i``, (T, rows) time-major in the logits' dtype, 0 where not scored.

    ``x_ids`` and ``targets`` are (rows, T) as ``encode_batch`` makes them,
    ``c`` has one category per row. The rows run ``batch`` at a time, each
    batch from its evaluation-mode h0 with its own (batch, L) latent draw a
    step, which are the draws of ``forward_teacher(..., train_mode=False)``
    over the same batch. A row leaves the step's arrays (``_run_steps``)
    once its scored positions are done; the arrays and the token table are
    built once for every batch.
    """
    x_ids = _teacher_inputs(x_ids, cfg)
    nll = np.zeros((cfg.max_len, len(x_ids)), dtype=cfg.np_dtype())
    arrays = _step_arrays(params, min(batch, len(x_ids)))
    for start in range(0, len(x_ids), batch):
        sl = slice(start, start + batch)
        out, tgt, last = nll[:, sl], targets[sl], scored[sl]

        def score(t, rows, b):
            out[t, rows] = nm.nll_rows(b.logits, tgt[rows, t])[0]
            return last[rows] > t + 1

        _run_steps(x_ids[sl], c[sl], params, rng, False, arrays, score)
    return nll
