"""The category-steered variational RNN: hidden-state initialization, the
single-step cell, the unrolled multi-task forward pass, the joint loss,
and free-running generation.

The network couples a per-step VAE (encoder over token-embedding and previous
hidden state, decoder emitting vocabulary logits) with a GRU recurrence over
the embedding and latent code, plus a classification head on the final hidden
state. Category identity enters only through the initial hidden state.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .errors import ConfigurationError, DataError
from . import numeric as nm
from .data import PAD_ID
from .numeric import (
    GaussianParams,
    GruWeights,
    ParamStore,
    Rng,
    Tensor,
)

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
class StepOutput:
    """Result of one cell step: next hidden state, vocabulary logits, the
    sampled latent with its posterior, and the per-sentence KL when enabled."""

    h_next: Tensor
    logits: Tensor
    latent: Tensor
    posterior: GaussianParams
    kl: Tensor | None = None


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


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, dtype) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)


class CatVrnnParams:
    """All learnable weights, registered in a ParamStore in a fixed order.

    Groups: token embedding; encoder stack with mu/sigma heads; decoder stack
    with the vocabulary output layer; GRU recurrence over embedding + latent;
    classifier head; adaptive-init vector pair when configured; conditional
    prior net when the KL term is on; feature extractors when on.
    """

    def __init__(self, cfg: ModelConfig, rng: Rng | None = None):
        self.cfg = cfg
        self.store = ParamStore()
        dt = cfg.np_dtype()
        gen = rng.stream("init") if rng is not None else None

        def w(name, fan_in, fan_out):
            if gen is None:
                return self.store.add(name, np.zeros((fan_in, fan_out), dtype=dt))
            return self.store.add(name, _glorot(gen, fan_in, fan_out, dt))

        def b(name, size):
            return self.store.add(name, np.zeros(size, dtype=dt))

        V, E, H, L, K = (cfg.vocab_size, cfg.embed_dim, cfg.hidden_dim,
                         cfg.latent_dim, cfg.num_categories)

        if gen is None:
            emb = np.zeros((V, E), dtype=dt)
        else:
            emb = gen.uniform(-0.1, 0.1, size=(V, E)).astype(dt)
        self.embedding = self.store.add("embedding", emb)

        self.enc_stack = [
            (w("enc.fc1.w", E + H, cfg.enc_width), b("enc.fc1.b", cfg.enc_width)),
            (w("enc.fc2.w", cfg.enc_width, H), b("enc.fc2.b", H)),
        ]
        self.mu_head = (w("mu.w", H, L), b("mu.b", L))
        self.sigma_head = (w("sigma.w", H, L), b("sigma.b", L))
        self.dec_stack = [
            (w("dec.fc1.w", L + H, cfg.dec_width), b("dec.fc1.b", cfg.dec_width)),
            (w("dec.fc2.w", cfg.dec_width, cfg.dec_out), b("dec.fc2.b", cfg.dec_out)),
        ]
        self.out_layer = (w("out.w", cfg.dec_out, V), b("out.b", V))

        gin = E + L
        self.gru = GruWeights(
            w_xr=w("gru.xr", gin, H), w_hr=w("gru.hr", H, H), b_r=b("gru.br", H),
            w_xu=w("gru.xu", gin, H), w_hu=w("gru.hu", H, H), b_u=b("gru.bu", H),
            w_xn=w("gru.xn", gin, H), w_hn=w("gru.hn", H, H), b_n=b("gru.bn", H),
        )
        self.classifier = (w("cls.w", H, K), b("cls.b", K))

        if cfg.init_mode == "adaptive":
            # both vectors start with unit-scale entries: the bias anchors
            # category 0 away from the origin so the evaluation-time state
            # (no training noise) still carries a recognizable signature
            if gen is None:
                omega = np.zeros(H, dtype=dt)
                bias = np.zeros(H, dtype=dt)
            else:
                omega = gen.uniform(-1.0, 1.0, size=H).astype(dt)
                bias = gen.uniform(-1.0, 1.0, size=H).astype(dt)
            self.init_omega = self.store.add("init.omega", omega)
            self.init_bias = self.store.add("init.bias", bias)

        if cfg.use_kl_term:
            self.prior_trunk = (w("prior.fc1.w", H, H), b("prior.fc1.b", H))
            self.prior_mu = (w("prior.mu.w", H, L), b("prior.mu.b", L))
            self.prior_sigma = (w("prior.sigma.w", H, L), b("prior.sigma.b", L))

        if cfg.use_feature_extractors:
            self.feat_x = [
                (w("featx.fc1.w", E, E), b("featx.fc1.b", E)),
                (w("featx.fc2.w", E, E), b("featx.fc2.b", E)),
            ]
            self.feat_z = [
                (w("featz.fc1.w", L, L), b("featz.fc1.b", L)),
                (w("featz.fc2.w", L, L), b("featz.fc2.b", L)),
            ]

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


@dataclass
class CellWeights:
    """Fused and split views of the cell's weights, built once per forward or
    generate call. ``enc_x``/``enc_h`` are the embedding and hidden rows of
    ``enc.fc1.w``; ``gru_x``/``gru_z`` the embedding and latent rows of the
    GRU's fused input side; ``head`` and ``prior_head`` put the mu and sigma
    layers side by side. ``vocabulary`` is the token side of a step (see
    ``_inputs``) for every vocabulary entry, which ``cell_step`` looks up."""

    enc_x: Tensor
    enc_h: Tensor
    gru: nm.FusedGru
    gru_x: Tensor
    gru_z: Tensor
    head: tuple[Tensor, Tensor]
    prior_head: tuple[Tensor, Tensor] | None
    vocabulary: tuple[Tensor, Tensor] | None = None


def _fused_head(mu: tuple[Tensor, Tensor], sigma: tuple[Tensor, Tensor]):
    return (nm.concat([mu[0], sigma[0]], axis=1), nm.concat([mu[1], sigma[1]]))


def cell_weights(params: CatVrnnParams, vocabulary: bool = False) -> CellWeights:
    """The views of ``CellWeights``; with ``vocabulary`` also the token side of
    every vocabulary entry, which pays when more rows will be stepped than
    the vocabulary has (``generate``: count * max_len rows)."""
    cfg = params.cfg
    gru = params.gru.fused()
    enc_x, enc_h = nm.split(params.enc_stack[0][0], [cfg.embed_dim, cfg.hidden_dim],
                            axis=0)
    gru_x, gru_z = nm.split(gru.w_x, [cfg.embed_dim, cfg.latent_dim], axis=0)
    prior_head = (_fused_head(params.prior_mu, params.prior_sigma)
                  if cfg.use_kl_term else None)
    w = CellWeights(enc_x=enc_x, enc_h=enc_h, gru=gru, gru_x=gru_x, gru_z=gru_z,
                    head=_fused_head(params.mu_head, params.sigma_head),
                    prior_head=prior_head)
    if vocabulary:
        w.vocabulary = _inputs(np.arange(cfg.vocab_size), params, w)
    return w


def _checked_ids(x_ids: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    if x_ids.size and (x_ids.min() < 0 or x_ids.max() >= cfg.vocab_size):
        raise DataError(
            f"token id out of range [0, {cfg.vocab_size}): "
            f"{x_ids.min()}..{x_ids.max()}"
        )
    return x_ids


# A step is four pieces. Only ``_recur`` needs the previous step's state; the
# others take any number of rows, so forward_teacher runs them once over all
# steps while cell_step runs them on one step's rows (``_inputs`` once over
# the vocabulary, in cell_weights).


def _inputs(x_ids: np.ndarray, params: CatVrnnParams, w: CellWeights):
    """The token side of a step: the embedding's share of the encoder's first
    layer and of the GRU's gates, biases included."""
    e = nm.gather_rows(params.embedding, x_ids)
    rec_x = e
    if params.cfg.use_feature_extractors:
        rec_x = nm.mlp_forward(e, params.feat_x, ["relu", "none"])
    return (nm.linear(e, w.enc_x, params.enc_stack[0][1]),
            nm.linear(rec_x, w.gru_x, w.gru.b))


def _gaussian(x: Tensor, head: tuple[Tensor, Tensor]) -> GaussianParams:
    mu, raw = nm.split(nm.linear(x, *head), [head[0].data.shape[1] // 2] * 2)
    return GaussianParams(mu, _sigma_from(raw))


def _recur(h_prev: Tensor, enc_x: Tensor, gru_x: Tensor, params: CatVrnnParams,
           w: CellWeights, rng: Rng) -> tuple[Tensor, Tensor, GaussianParams]:
    """The recurrence: the posterior from the token side and ``h_prev``, one
    latent draw, and the GRU update. Returns (h_next, z, posterior)."""
    enc_h = nm.relu(nm.add(enc_x, nm.matmul(h_prev, w.enc_h)))
    enc_h = nm.mlp_forward(enc_h, params.enc_stack[1:], ["relu"])
    posterior = _gaussian(enc_h, w.head)
    z = nm.reparameterize(posterior, rng.stream("latent"))
    rec_z = z
    if params.cfg.use_feature_extractors:
        rec_z = nm.mlp_forward(z, params.feat_z, ["relu", "none"])
    h_next = nm.gru_update(nm.add(gru_x, nm.matmul(rec_z, w.gru_z)), h_prev, w.gru)
    return h_next, z, posterior


def _emit(z: Tensor, h_prev: Tensor, params: CatVrnnParams) -> Tensor:
    """Vocabulary logits decoded from the latent and the previous state."""
    dec_h = nm.mlp_forward(nm.concat([z, h_prev], axis=-1), params.dec_stack,
                           ["relu", "relu"])
    return nm.linear(dec_h, *params.out_layer)


def _kl(posterior: GaussianParams, h_prev: Tensor, params: CatVrnnParams,
        w: CellWeights) -> Tensor:
    """KL of the posterior from the prior conditioned on the previous state."""
    trunk = nm.relu(nm.linear(h_prev, *params.prior_trunk))
    return nm.kl_gaussians(posterior, _gaussian(trunk, w.prior_head))


def cell_step(h_prev: Tensor, x_ids: np.ndarray, params: CatVrnnParams,
              cfg: ModelConfig, rng: Rng, weights: CellWeights | None = None
              ) -> StepOutput:
    """One time step over a batch of token ids.

    Embeds the tokens, infers the posterior from embedding + previous hidden
    state, samples the latent, decodes vocabulary logits from latent +
    previous hidden state, and advances the GRU over embedding + latent.
    When feature extractors are on they transform the recurrence inputs; when
    the KL term is on the posterior is scored against the conditional prior
    computed from the previous hidden state. ``weights`` are
    ``cell_weights(params, vocabulary=True)``, built here when not given.
    """
    x_ids = _checked_ids(np.atleast_1d(np.asarray(x_ids, dtype=np.int64)), cfg)
    w = weights if weights is not None else cell_weights(params, vocabulary=True)
    enc_x, gru_x = (nm.gather_rows(side, x_ids) for side in w.vocabulary)
    h_next, z, posterior = _recur(h_prev, enc_x, gru_x, params, w, rng)
    kl = _kl(posterior, h_prev, params, w) if cfg.use_kl_term else None
    return StepOutput(h_next=h_next, logits=_emit(z, h_prev, params), latent=z,
                      posterior=posterior, kl=kl)


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
    return _checked_ids(x_ids, cfg)


def forward_teacher(x_ids: np.ndarray, c, params: CatVrnnParams,
                    cfg: ModelConfig, rng: Rng, train_mode: bool = True) -> SequenceForward:
    """Teacher-forced unrolled pass over padded inputs of width max_len.

    ``x_ids`` is (T,) or (B, T) with a PAD start token in column 0; ``c`` is
    one category id or one per row. Runs the configured hidden-state
    initialization, T cell steps, and the classifier on the final hidden
    state. Per-step KL values are summed when enabled.

    Computes what a fold of ``cell_step`` computes, with the same draws, but
    only the recurrence runs step by step: the token side runs once over all
    ``T*B`` rows before the loop, and the decoder, output layer and prior
    once over the stacked states after it.
    """
    x_ids = _teacher_inputs(x_ids, cfg)
    batch, T = x_ids.shape
    w = cell_weights(params)
    h = init_hidden(c, params, rng, train_mode, batch)
    # time-major rows: step t is rows t*batch .. (t+1)*batch
    enc_x, gru_x = (nm.split(side, [batch] * T, axis=0)
                    for side in _inputs(x_ids.T.reshape(-1), params, w))
    h_prev, z, mu, sigma = [], [], [], []
    for t in range(T):
        h_prev.append(h)
        h, z_t, q = _recur(h, enc_x[t], gru_x[t], params, w, rng)
        z.append(z_t)
        mu.append(q.mu)
        sigma.append(q.sigma)

    h_all = nm.concat(h_prev, axis=0)
    logits = _emit(nm.concat(z, axis=0), h_all, params)
    kl_sum = None
    if cfg.use_kl_term:
        q = GaussianParams(nm.concat(mu, axis=0), nm.concat(sigma, axis=0))
        kl = nm.reshape(_kl(q, h_all, params, w), (T, batch))
        kl_sum = nm.tensor_sum(kl, axis=0)
    class_logits = nm.linear(h, *params.classifier)
    return SequenceForward(logits=nm.reshape(logits, (T, batch, cfg.vocab_size)),
                           class_logits=class_logits, kl_sum=kl_sum, final_hidden=h)


def forward_stepwise(x_ids: np.ndarray, c, params: CatVrnnParams, cfg: ModelConfig,
                     rng: Rng, train_mode: bool = True) -> SequenceForward:
    """``forward_teacher`` as a fold of ``cell_step``, the step ``generate``
    runs; the reference the hoisted pass is checked against."""
    x_ids = _teacher_inputs(x_ids, cfg)
    batch, T = x_ids.shape
    w = cell_weights(params, vocabulary=True)
    h = init_hidden(c, params, rng, train_mode, batch)
    logits, kl_sum = [], None
    for t in range(T):
        step = cell_step(h, x_ids[:, t], params, cfg, rng, weights=w)
        logits.append(step.logits)
        if step.kl is not None:
            kl_sum = step.kl if kl_sum is None else nm.add(kl_sum, step.kl)
        h = step.h_next
    return SequenceForward(
        logits=nm.reshape(nm.concat(logits, axis=0), (T, batch, cfg.vocab_size)),
        class_logits=nm.linear(h, *params.classifier), kl_sum=kl_sum, final_hidden=h)


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
    """
    if not 0 <= int(c) < cfg.num_categories:
        raise ConfigurationError(
            f"category {c} out of range [0, {cfg.num_categories})"
        )
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    stream = rng.stream("sampling")
    with nm.no_grad():
        w = cell_weights(params, vocabulary=True)
        h = init_hidden(c, params, rng, train_mode=False, batch=count)
        x = np.full(count, PAD_ID, dtype=np.int64)
        sampled = np.empty((count, cfg.max_len), dtype=np.int64)
        for t in range(cfg.max_len):
            step = cell_step(h, x, params, cfg, rng, weights=w)
            probs = nm.softmax(step.logits.data / cfg.temperature)
            u = stream.random((count, 1))
            ids = (probs.cumsum(axis=1) < u).sum(axis=1)
            np.clip(ids, 0, cfg.vocab_size - 1, out=ids)
            sampled[:, t] = ids
            x = ids
            h = step.h_next
    out = []
    for row in sampled:
        stop = np.flatnonzero(row == PAD_ID)
        out.append(row[: stop[0]].tolist() if stop.size else row.tolist())
    return out
