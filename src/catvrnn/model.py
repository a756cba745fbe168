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
    """Unrolled forward pass: per-step logits, final-state class logits,
    accumulated KL when enabled, and the final hidden state."""

    step_logits: list[Tensor]
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


def cell_step(h_prev: Tensor, x_ids: np.ndarray, params: CatVrnnParams,
              cfg: ModelConfig, rng: Rng) -> StepOutput:
    """One time step over a batch of token ids.

    Embeds the tokens, infers the posterior from embedding + previous hidden
    state, samples the latent, decodes vocabulary logits from latent +
    previous hidden state, and advances the GRU over embedding + latent.
    When feature extractors are on they transform the recurrence inputs; when
    the KL term is on the posterior is scored against the conditional prior
    computed from the previous hidden state.
    """
    x_ids = np.atleast_1d(np.asarray(x_ids, dtype=np.int64))
    if x_ids.size and (x_ids.min() < 0 or x_ids.max() >= cfg.vocab_size):
        raise DataError(
            f"token id out of range [0, {cfg.vocab_size}): "
            f"{x_ids.min()}..{x_ids.max()}"
        )
    e = nm.gather_rows(params.embedding, x_ids)
    enc_in = nm.concat([e, h_prev], axis=-1)
    enc_h = nm.mlp_forward(enc_in, params.enc_stack, ["relu", "relu"])
    mu = nm.linear(enc_h, *params.mu_head)
    sigma = _sigma_from(nm.linear(enc_h, *params.sigma_head))
    posterior = GaussianParams(mu, sigma)
    z = nm.reparameterize(posterior, rng.stream("latent"))

    dec_in = nm.concat([z, h_prev], axis=-1)
    dec_h = nm.mlp_forward(dec_in, params.dec_stack, ["relu", "relu"])
    logits = nm.linear(dec_h, *params.out_layer)

    rec_x, rec_z = e, z
    if cfg.use_feature_extractors:
        rec_x = nm.mlp_forward(e, params.feat_x, ["relu", "none"])
        rec_z = nm.mlp_forward(z, params.feat_z, ["relu", "none"])
    h_next = nm.gru_cell(nm.concat([rec_x, rec_z], axis=-1), h_prev, params.gru)

    kl = None
    if cfg.use_kl_term:
        trunk = nm.relu(nm.linear(h_prev, *params.prior_trunk))
        prior = GaussianParams(
            nm.linear(trunk, *params.prior_mu),
            _sigma_from(nm.linear(trunk, *params.prior_sigma)),
        )
        kl = nm.kl_gaussians(posterior, prior)
    return StepOutput(h_next=h_next, logits=logits, latent=z,
                      posterior=posterior, kl=kl)


def forward_teacher(x_ids: np.ndarray, c, params: CatVrnnParams,
                    cfg: ModelConfig, rng: Rng, train_mode: bool = True) -> SequenceForward:
    """Teacher-forced unrolled pass over padded inputs of width max_len.

    ``x_ids`` is (T,) or (B, T) with a PAD start token in column 0; ``c`` is
    one category id or one per row. Runs the configured hidden-state
    initialization, T cell steps, and the classifier on the final hidden
    state. Per-step KL values are summed when enabled.
    """
    x_ids = np.asarray(x_ids, dtype=np.int64)
    single = x_ids.ndim == 1
    if single:
        x_ids = x_ids[None, :]
    if x_ids.shape[1] != cfg.max_len:
        raise DataError(
            f"input width {x_ids.shape[1]} does not match max_len {cfg.max_len}"
        )
    if np.any(x_ids[:, 0] != PAD_ID):
        raise DataError("inputs must start with the PAD token")
    batch = x_ids.shape[0]

    h = init_hidden(c, params, rng, train_mode, batch)
    step_logits: list[Tensor] = []
    kl_sum: Tensor | None = None
    for t in range(cfg.max_len):
        step = cell_step(h, x_ids[:, t], params, cfg, rng)
        step_logits.append(step.logits)
        if step.kl is not None:
            kl_sum = step.kl if kl_sum is None else nm.add(kl_sum, step.kl)
        h = step.h_next

    class_logits = nm.linear(h, *params.classifier)
    return SequenceForward(step_logits=step_logits, class_logits=class_logits,
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
    single = targets.ndim == 1
    if single:
        targets = targets[None, :]
    T = len(fwd.step_logits)
    if targets.shape[1] != T:
        raise DataError(
            f"target width {targets.shape[1]} does not match {T} forward steps"
        )
    dt = fwd.step_logits[0].data.dtype
    mask = _loss_mask(targets).astype(dt) if cfg.mask_pad_loss else None
    gen_nll: Tensor | None = None
    for t in range(T):
        ce = nm.cross_entropy_rows(fwd.step_logits[t], targets[:, t])
        if mask is not None:
            ce = nm.mul(ce, Tensor(mask[:, t]))
        gen_nll = ce if gen_nll is None else nm.add(gen_nll, ce)

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
        h = init_hidden(c, params, rng, train_mode=False, batch=count)
        x = np.full(count, PAD_ID, dtype=np.int64)
        sampled = np.empty((count, cfg.max_len), dtype=np.int64)
        for t in range(cfg.max_len):
            step = cell_step(h, x, params, cfg, rng)
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
