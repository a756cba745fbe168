"""MLE training loop with Adam, deterministic seeding, and checkpointing.

Checkpoint file layout: an 8-byte little-endian length prefix, a UTF-8 JSON
header (format version, model config, rng state, epoch, vocabulary digest,
optimizer scalars, tensor manifest with name/shape/dtype/offset, body digest,
creation timestamp), then raw little-endian scalar blobs in manifest order.
The timestamp is the single non-deterministic header field.
"""

from __future__ import annotations

import hashlib
import json
import logging
import struct
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataError, NumericError
from .numeric import ParamStore, Rng
from .model import CatVrnnParams, ModelConfig, loss_and_grad
from .data import atomic_open, atomic_write_text, read_text

log = logging.getLogger(__name__)

# 3: headers without layer widths, Adam's betas and epsilon, classifier sizes
CHECKPOINT_VERSION = 3

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
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigurationError("epochs and batch_size must be >= 1")
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
    """Everything needed to resume: config, parameters, optimizer state, rng
    stream states, the epoch index, the vocabulary digest, and the training
    plan of the run that wrote it."""

    config: ModelConfig
    tensors: dict[str, np.ndarray]
    epoch: int
    vocab_digest: str
    rng_state: dict | None = None
    adam_scalars: dict | None = None
    adam_m: dict[str, np.ndarray] = field(default_factory=dict)
    adam_v: dict[str, np.ndarray] = field(default_factory=dict)
    plan: TrainPlan | None = None

    @classmethod
    def capture(cls, params: CatVrnnParams, epoch: int, vocab_digest: str,
                rng: Rng | None = None, adam: AdamState | None = None,
                plan: TrainPlan | None = None) -> "Checkpoint":
        ckpt = cls(
            config=params.cfg,
            tensors={name: t.data.copy() for name, t in params.store.items()},
            epoch=epoch,
            vocab_digest=vocab_digest,
            rng_state=rng.state() if rng is not None else None,
            plan=plan,
        )
        if adam is not None:
            ckpt.adam_scalars = {"lr": adam.lr, "step": adam.step}
            ckpt.adam_m = {k: v.copy() for k, v in adam.m.items()}
            ckpt.adam_v = {k: v.copy() for k, v in adam.v.items()}
        return ckpt

    def build_params(self) -> CatVrnnParams:
        params = CatVrnnParams.zeros(self.config)
        params.store.load(self.tensors)
        return params

    def build_adam(self, store: ParamStore) -> AdamState | None:
        if self.adam_scalars is None:
            return None
        adam = AdamState(store, lr=self.adam_scalars["lr"])
        adam.step = self.adam_scalars["step"]
        for which, arrays, flat in (("m", self.adam_m, adam.m_flat),
                                    ("v", self.adam_v, adam.v_flat)):
            try:
                store.load(arrays, flat)
            except DataError as e:
                raise DataError(f"checkpoint optimizer moments adam.{which}: {e}") from e
        return adam


def write_container(path, meta: dict, arrays: dict[str, np.ndarray]):
    """Write the on-disk container: an 8-byte little-endian length prefix, a
    UTF-8 JSON header (metadata plus the tensor manifest and body digest),
    then raw little-endian scalar blobs in manifest order. The body is
    hashed and written array by array from the arrays' own buffers."""
    blobs = [np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))
             for arr in arrays.values()]
    manifest = []
    offset = 0
    body_sha = hashlib.sha256()
    for (name, arr), blob in zip(arrays.items(), blobs):
        manifest.append({
            "name": name,
            "shape": list(arr.shape),
            "dtype": arr.dtype.name,
            "offset": offset,
        })
        body_sha.update(blob)
        offset += blob.nbytes
    header = dict(meta)
    header["format_version"] = CHECKPOINT_VERSION
    header["created"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    header["manifest"] = manifest
    header["body_sha256"] = body_sha.hexdigest()
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_open(path) as f:
        f.write(struct.pack("<Q", len(header_bytes)))
        f.write(header_bytes)
        for blob in blobs:
            f.write(blob)


def _read_header(raw: bytes, path: Path) -> tuple[dict, memoryview]:
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
    return header, memoryview(raw)[8 + header_len:]


def read_container(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read and verify a container; corruption raises instead of returning
    silent garbage. The arrays are read-only views of the file's bytes, so
    that reading allocates the file's size once; callers copy what they
    keep."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e
    header, body = _read_header(raw, path)
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise DataError(
            f"{path}: unsupported format version {header.get('format_version')!r}"
        )
    arrays: dict[str, np.ndarray] = {}
    with header_errors(path):
        if hashlib.sha256(body).hexdigest() != header["body_sha256"]:
            raise DataError(f"{path}: body digest mismatch")
        for entry in header["manifest"]:
            dtype = np.dtype(entry["dtype"]).newbyteorder("<")
            count = int(np.prod(entry["shape"])) if entry["shape"] else 1
            start = entry["offset"]
            end = start + count * dtype.itemsize
            if end > len(body):
                raise DataError(f"{path}: truncated body")
            arr = np.frombuffer(body, dtype=dtype, count=count, offset=start)
            arrays[entry["name"]] = arr.reshape(entry["shape"]).astype(
                dtype.newbyteorder("="), copy=False)
    return header, arrays


def save_checkpoint(path, ckpt: Checkpoint):
    arrays = {f"param.{name}": arr for name, arr in ckpt.tensors.items()}
    arrays.update({f"adam.m.{name}": arr for name, arr in ckpt.adam_m.items()})
    arrays.update({f"adam.v.{name}": arr for name, arr in ckpt.adam_v.items()})
    meta = {
        "kind": "model",
        "config": ckpt.config.to_dict(),
        "epoch": ckpt.epoch,
        "vocab_digest": ckpt.vocab_digest,
        "rng": ckpt.rng_state,
        "adam": ckpt.adam_scalars,
        "plan": asdict(ckpt.plan) if ckpt.plan is not None else None,
    }
    write_container(path, meta, arrays)


@contextmanager
def header_errors(path):
    """Turns a header that does not build what its reader builds from it (a
    missing or unknown key, a value of the wrong type or out of range) into
    a DataError naming the file. A DataError raised inside passes as it is."""
    try:
        yield
    except DataError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise DataError(f"{path}: damaged header: {e!r}") from e


def check_dtype(path, arrays: dict[str, np.ndarray], dtype):
    """A DataError naming the file and the first tensor of ``arrays`` not of
    ``dtype``: the body digest cannot see a manifest's dtype read wrongly."""
    for name, arr in arrays.items():
        if arr.dtype != dtype:
            raise DataError(f"{path}: tensor {name!r} is {arr.dtype}, "
                            f"expected {np.dtype(dtype)}")


def load_checkpoint(path) -> Checkpoint:
    header, arrays = read_container(path)
    if header.get("kind") != "model":
        raise DataError(f"{path}: not a model checkpoint ({header.get('kind')!r})")
    with header_errors(path):
        plan, adam = header.get("plan"), header.get("adam")
        config = ModelConfig.from_dict(header["config"])
        if header.get("rng") is not None:
            Rng(0).set_state(header["rng"])  # a stream state, or an error here
        check_dtype(path, arrays, config.np_dtype())
        return Checkpoint(
            config=config,
            tensors={n[len("param."):]: a for n, a in arrays.items()
                     if n.startswith("param.")},
            epoch=int(header["epoch"]),
            vocab_digest=header["vocab_digest"],
            rng_state=header.get("rng"),
            adam_scalars=None if adam is None else {"lr": float(adam["lr"]),
                                                     "step": int(adam["step"])},
            adam_m={n[len("adam.m."):]: a for n, a in arrays.items()
                    if n.startswith("adam.m.")},
            adam_v={n[len("adam.v."):]: a for n, a in arrays.items()
                    if n.startswith("adam.v.")},
            plan=TrainPlan(**plan) if plan is not None else None,
        )


def checkpoint_digest(path) -> str:
    """Content digest that ignores the creation timestamp, for comparing
    checkpoints produced at different times."""
    raw = Path(path).read_bytes()
    header, body = _read_header(raw, Path(path))
    header.pop("created", None)
    digest = hashlib.sha256(json.dumps(header, sort_keys=True).encode("utf-8"))
    digest.update(body)
    return digest.hexdigest()


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
