"""MLE training loop with Adam, deterministic seeding, and checkpointing.

Checkpoint file layout (format 4): an 8-byte little-endian length prefix, a
UTF-8 JSON header (model config, rng state, epoch, vocabulary digest, Adam's
lr and step, training plan, the store's layout as [name, shape] pairs, one
dtype, one SHA-256 over the rest of the header and the body, creation time),
then the store's ``flat`` and Adam's two moments laid out like it, in the
config's dtype, little-endian. The timestamp is the single
non-deterministic header field.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import math
import struct
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataError, NumericError, require_ints
from .numeric import ParamStore, Rng
from .model import CatVrnnParams, ModelConfig, initial_weights, loss_and_grad
from .data import atomic_open, atomic_write_text, read_text

log = logging.getLogger(__name__)

# 4: one body laid out like the parameter store, one digest over header and body
CHECKPOINT_VERSION = 4

# Adam's decay rates and denominator floor (Kingma & Ba 2015's defaults)
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainPlan:
    """Optimization schedule; the full-scale default is 250 epochs."""

    epochs: int = 250
    batch_size: int = 64
    lr: float = 1e-3
    grad_clip: float | None = None

    def __post_init__(self):
        require_ints(1, epochs=self.epochs, batch_size=self.batch_size)
        if not self.lr > 0 or not (self.grad_clip is None or self.grad_clip > 0):
            raise ConfigurationError(f"lr and grad_clip must be > 0, got lr "
                                     f"{self.lr} and grad_clip {self.grad_clip}")


class AdamState:
    """First and second moments, each one array laid out like the store's
    ``flat``, plus the shared step count. ``m`` and ``v`` map each tensor's
    name to its view of them. ``grad`` is the array each training step
    writes its gradient into (``model.loss_and_grad``,
    ``EvalClassifier.loss_and_grad``), kept from step to step."""

    def __init__(self, store: ParamStore, lr: float = 1e-3):
        self.lr = lr
        self.step = 0
        self.m_flat = np.zeros_like(store.flat)
        self.v_flat = np.zeros_like(store.flat)
        self.grad = np.zeros_like(store.flat)
        self.m = store.views(self.m_flat)
        self.v = store.views(self.v_flat)

    @classmethod
    def from_plan(cls, store: ParamStore, plan: TrainPlan) -> "AdamState":
        return cls(store, lr=plan.lr)


# elements adam_step updates at a time: its scratch array stays small
# (256 KB in float64), and each piece of the four arrays stays in cache
ADAM_CHUNK = 1 << 15


def adam_step(store: ParamStore, grad: np.ndarray, state: AdamState):
    """Bias-corrected Adam (Kingma & Ba 2015) on the store's ``flat``, in
    place, from ``grad``, laid out like it and overwritten. Each element gets
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g) and
    p -= lr*(m/bc1) / (sqrt(v/bc2) + eps) in that order of operations, bit for
    bit the per-tensor formula's. One pass, ADAM_CHUNK elements at a time,
    with one scratch array of that size and the piece of ``grad``."""
    state.step += 1
    bc1 = 1.0 - BETA1 ** state.step
    bc2 = 1.0 - BETA2 ** state.step
    scratch = np.empty(min(ADAM_CHUNK, grad.size), dtype=grad.dtype)
    for lo in range(0, grad.size, ADAM_CHUNK):
        g, m, v, p = (a[lo: lo + ADAM_CHUNK]
                      for a in (grad, state.m_flat, state.v_flat, store.flat))
        tmp = scratch[: g.size]
        np.multiply(g, 1.0 - BETA1, out=tmp)
        m *= BETA1
        m += tmp
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - BETA2
        v *= BETA2
        v += tmp
        # the step, in g; the denominator in tmp
        np.divide(m, bc1, out=g)
        g *= state.lr
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        g /= tmp
        p -= g


@dataclass
class EpochStats:
    epoch: int
    mean_gen_nll: float
    mean_cls_nll: float
    mean_kl: float
    n_sentences: int

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "mean_gen_nll": self.mean_gen_nll,
            "mean_cls_nll": self.mean_cls_nll,
            "mean_kl": self.mean_kl,
            "n_sentences": self.n_sentences,
        }


def optimizer_step(store: ParamStore, grad: np.ndarray, state: AdamState,
                   grad_clip: float | None = None):
    """Scale ``grad``, laid out like the store's ``flat``, down to a global
    norm of ``grad_clip`` when given and larger, and apply one Adam update
    from it (``adam_step``, which overwrites it). Parameters with zero
    gradients stay unchanged under Adam's zero-initialized moments."""
    if grad_clip is not None:
        norm = float(np.linalg.norm(grad))
        if norm > grad_clip:
            grad *= grad_clip / norm
    adam_step(store, grad, state)


def train_epoch(inputs: np.ndarray, targets: np.ndarray, categories: np.ndarray,
                params: CatVrnnParams, state: AdamState, cfg: ModelConfig,
                rng: Rng, epoch: int, plan: TrainPlan) -> EpochStats:
    """One shuffled pass over encoded sentences.

    The shuffle order depends only on (rng seed, epoch), so resuming from a
    checkpoint replays the identical order. The batch loss is the mean of
    per-sentence losses; reported stats are means over all sentences, summed
    in float64 whatever the model's dtype.
    """
    n = inputs.shape[0]
    if n == 0:
        raise DataError("cannot train on an empty corpus")
    order = rng.keyed(f"shuffle:{epoch}").permutation(n)
    gen_sum = cls_sum = kl_sum = 0.0
    for start in range(0, n, plan.batch_size):
        idx = order[start: start + plan.batch_size]
        breakdown = loss_and_grad(inputs[idx], targets[idx], categories[idx], params,
                                  cfg, rng, state.grad)
        if not np.isfinite(breakdown.total.mean()):
            raise NumericError(
                f"non-finite loss at epoch {epoch}, batch starting {start}"
            )
        optimizer_step(params.store, state.grad, state, plan.grad_clip)
        gen_sum += float(breakdown.gen_nll.sum(dtype=np.float64))
        cls_sum += float(breakdown.cls_nll.sum(dtype=np.float64))
        if breakdown.kl is not None:
            kl_sum += float(breakdown.kl.sum(dtype=np.float64))
    return EpochStats(epoch=epoch, mean_gen_nll=gen_sum / n,
                      mean_cls_nll=cls_sum / n, mean_kl=kl_sum / n,
                      n_sentences=n)


# --- checkpointing ----------------------------------------------------------


@dataclass
class Checkpoint:
    """Everything needed to resume: config, the store's layout, the body
    (parameters, Adam's m and v, each a row laid out like the store's
    ``flat``), Adam's lr and step, rng stream states, the epoch, the
    vocabulary digest, and the run's training plan when it has one."""

    config: ModelConfig
    layout: list
    body: np.ndarray
    epoch: int
    vocab_digest: str
    rng_state: dict
    adam_scalars: dict
    plan: TrainPlan | None = None

    @classmethod
    def capture(cls, params: CatVrnnParams, epoch: int, vocab_digest: str,
                rng: Rng, adam: AdamState,
                plan: TrainPlan | None = None) -> "Checkpoint":
        store = params.store
        return cls(config=params.cfg, layout=store.layout(),
                   body=np.stack([store.flat, adam.m_flat, adam.v_flat]),
                   epoch=epoch, vocab_digest=vocab_digest, rng_state=rng.state(),
                   adam_scalars={"lr": adam.lr, "step": adam.step}, plan=plan)

    @property
    def adam_m(self) -> dict[str, np.ndarray]:
        return ParamStore.layout_views(self.layout, self.body[1])

    @property
    def adam_v(self) -> dict[str, np.ndarray]:
        return ParamStore.layout_views(self.layout, self.body[2])

    def build_params(self) -> CatVrnnParams:
        params = CatVrnnParams(self.config)
        params.store.flat[...] = self.body[0]
        return params

    def build_adam(self, store: ParamStore) -> AdamState:
        adam = AdamState(store, lr=self.adam_scalars["lr"])
        adam.step = self.adam_scalars["step"]
        adam.m_flat[...], adam.v_flat[...] = self.body[1:]
        return adam


# the header keys of every container; each kind adds its own
CONTAINER_KEYS = {"format_version", "kind", "layout", "dtype", "sha256", "created"}


def _digest(header: dict, body) -> str:
    """SHA-256 of the header less ``created`` and ``sha256``, as sorted JSON,
    then of the body."""
    covered = {k: v for k, v in header.items() if k not in ("created", "sha256")}
    digest = hashlib.sha256(json.dumps(covered, sort_keys=True).encode("utf-8"))
    digest.update(body)
    return digest.hexdigest()


def write_container(path, meta: dict, layout: list, body: np.ndarray):
    """Write the on-disk container: an 8-byte little-endian length prefix, a
    UTF-8 JSON header (``meta``, the format version, ``layout``, the body's
    dtype, the digest and the creation time), then ``body``, one or more
    arrays laid out by ``layout``, as one little-endian blob."""
    blob = np.ascontiguousarray(body, dtype=body.dtype.newbyteorder("<"))
    header = dict(meta, format_version=CHECKPOINT_VERSION, layout=layout,
                  dtype=body.dtype.name)
    header["sha256"] = _digest(header, blob)
    header["created"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_open(path) as f:
        f.write(struct.pack("<Q", len(header_bytes)))
        f.write(header_bytes)
        f.write(blob)


def _read_header(path: Path) -> tuple[dict, memoryview]:
    """The container's header, of this format version and matching its
    digest, and its body's bytes."""
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e
    if len(raw) < 8:
        raise DataError(f"{path}: truncated file (no header length)")
    (header_len,) = struct.unpack("<Q", raw[:8])
    if len(raw) < 8 + header_len:
        raise DataError(f"{path}: truncated header")
    try:
        header = json.loads(raw[8: 8 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataError(f"{path}: corrupt header: {e}") from e
    if not isinstance(header, dict):
        raise DataError(f"{path}: damaged header: a JSON {type(header).__name__}, "
                        f"not an object")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise DataError(
            f"{path}: unsupported format version {header.get('format_version')!r}"
        )
    body = memoryview(raw)[8 + header_len:]
    if header.get("sha256") != _digest(header, body):
        raise DataError(f"{path}: digest mismatch")
    return header, body


def read_container(path, kind: str, keys: set, parse) -> tuple:
    """What ``parse`` builds from the header of the ``kind`` container at
    ``path``, and its body as a (sections, size) read-only view of the
    file's bytes. All of the header is checked here, before the body is
    indexed: version, digest, kind, exactly the container's keys and
    ``keys``, then ``parse(header)``, which checks the kind's own fields
    and returns what it built with the layout, dtype and number of sections
    of the body, which the header and the body's length must match. Any
    damage is a DataError naming the file."""
    path = Path(path)
    header, body = _read_header(path)
    if header.get("kind") != kind:
        raise DataError(f"{path}: a file of kind {header.get('kind')!r}, not {kind!r}")
    keys = CONTAINER_KEYS | keys
    try:
        if set(header) != keys:
            raise ValueError(f"keys missing {sorted(keys - set(header))}, "
                             f"unexpected {sorted(set(header) - keys)}")
        built, layout, dtype, sections = parse(header)
        # compared as JSON text, so that a size of 8.0 or true is not 8
        for i, (got, want) in enumerate(itertools.zip_longest(header["layout"], layout)):
            if json.dumps(got) != json.dumps(want):
                raise ValueError(f"layout entry {i} is {got!r}, the store's is {want!r}")
        dtype = np.dtype(dtype)
        if header["dtype"] != dtype.name:
            raise ValueError(f"dtype {header['dtype']!r}, expected {dtype.name}")
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise DataError(f"{path}: damaged header: {e}") from e
    size = sum(math.prod(shape) for _, shape in layout)
    if len(body) != sections * size * dtype.itemsize:
        raise DataError(f"{path}: a body of {len(body)} bytes, expected "
                        f"{sections} x {size} {dtype.name}")
    array = np.frombuffer(body, dtype=dtype.newbyteorder("<"))
    return built, array.reshape(sections, size).astype(dtype, copy=False)


def save_checkpoint(path, ckpt: Checkpoint):
    meta = {
        "kind": "model",
        "config": ckpt.config.to_dict(),
        "epoch": ckpt.epoch,
        "vocab_digest": ckpt.vocab_digest,
        "rng": ckpt.rng_state,
        "adam": ckpt.adam_scalars,
        "plan": asdict(ckpt.plan) if ckpt.plan is not None else None,
    }
    write_container(path, meta, ckpt.layout, ckpt.body)


def _parse_model_header(header: dict) -> tuple[dict, list, str, int]:
    config = ModelConfig.from_dict(header["config"])
    adam, plan, lr = header["adam"], header["plan"], header["adam"]["lr"]
    require_ints(0, epoch=header["epoch"], **{"adam.step": adam["step"],
                                              "rng.seed": header["rng"]["seed"]})
    if type(lr) not in (int, float) or not 0 < lr < math.inf:
        raise ValueError(f"adam.lr must be a finite number > 0, got {lr!r}")
    if not isinstance(header["vocab_digest"], str):
        raise TypeError(f"vocab_digest {header['vocab_digest']!r} is not a string")
    Rng(0).set_state(header["rng"])  # a stream state, or an error here
    fields = dict(config=config, layout=ParamStore.layout_of(initial_weights(config)),
                  epoch=header["epoch"], vocab_digest=header["vocab_digest"],
                  rng_state=header["rng"],
                  adam_scalars={"lr": float(lr), "step": adam["step"]},
                  plan=TrainPlan(**plan) if plan is not None else None)
    return fields, fields["layout"], config.dtype, 3


def load_checkpoint(path) -> Checkpoint:
    fields, body = read_container(
        path, "model", {"config", "epoch", "vocab_digest", "rng", "adam", "plan"},
        _parse_model_header)
    return Checkpoint(body=body, **fields)


def checkpoint_digest(path) -> str:
    """The container's digest, over its header less the creation time and
    its body, checked against the file: equal for checkpoints of equal
    content written at different times."""
    return _read_header(Path(path))[0]["sha256"]


# --- multi-epoch driver -----------------------------------------------------


def _drop_metrics_after(path: Path, epoch: int):
    """Keep only the metrics lines of epochs up to ``epoch``, so a resumed
    run logs each epoch once. A last line cut short by a crash has no
    newline and is dropped too; any other line that is not a JSON object
    with an integer epoch is a data error naming the file."""
    kept = []
    for number, line in enumerate(read_text(path).splitlines(keepends=True), 1):
        if not line.endswith("\n"):
            continue
        try:
            logged = json.loads(line)
        except json.JSONDecodeError as e:
            raise DataError(f"{path}: line {number} is not JSON: {e}") from e
        if not isinstance(logged, dict) or type(logged.get("epoch")) is not int:
            raise DataError(f"{path}: line {number} has no integer epoch")
        if logged["epoch"] <= epoch:
            kept.append(line)
    atomic_write_text(path, "".join(kept))


def run_training(inputs: np.ndarray, targets: np.ndarray, categories: np.ndarray,
                 params: CatVrnnParams, cfg: ModelConfig, plan: TrainPlan,
                 rng: Rng, vocab_digest: str, start_epoch: int = 0,
                 adam: AdamState | None = None,
                 checkpoint_dir=None, save_every: int = 0,
                 metrics_path=None, on_epoch=None) -> list[EpochStats]:
    """Train from start_epoch up to plan.epochs, appending one JSON object per
    epoch to the metrics file (after dropping its lines of epochs past
    start_epoch) and checkpointing every ``save_every`` epochs (plus a final
    checkpoint) when a directory is given."""
    adam = adam or AdamState.from_plan(params.store, plan)
    history = []
    if metrics_path and Path(metrics_path).exists():
        _drop_metrics_after(Path(metrics_path), start_epoch)
    metrics_file = open(metrics_path, "a", encoding="utf-8") if metrics_path else None
    try:
        for epoch in range(start_epoch + 1, plan.epochs + 1):
            stats = train_epoch(inputs, targets, categories, params, adam, cfg,
                                rng, epoch, plan)
            history.append(stats)
            if metrics_file:
                metrics_file.write(json.dumps(stats.to_dict(), sort_keys=True) + "\n")
                metrics_file.flush()
            if on_epoch:
                on_epoch(stats)
            if checkpoint_dir and (
                (save_every and epoch % save_every == 0) or epoch == plan.epochs
            ):
                ckpt = Checkpoint.capture(params, epoch, vocab_digest, rng, adam, plan)
                save_checkpoint(Path(checkpoint_dir) / f"epoch_{epoch:04d}.ckpt", ckpt)
    finally:
        if metrics_file:
            metrics_file.close()
    return history
