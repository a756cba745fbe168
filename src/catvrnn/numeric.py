"""Numeric core: a small reverse-mode autodiff tape, the numpy softmax and
cross-entropy, a parameter store, seeded RNG streams, and a
finite-difference gradient checker.

No network trains on the tape: the model's backward (``model``) and the
scoring classifier's (``evaluation``) are written by hand in numpy. The
tape now serves only the tests' references, which recompute those
gradients through its ops. Every tape operation records its parents and a
backward closure on the output tensor; ``Tensor.backward()`` replays the
recorded graph once in reverse topological order. Values are double
precision by default (single precision passes through when the inputs
carry it).
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, NumericError

DEFAULT_DTYPE = np.float64

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation-time forwards)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data)
    if arr.dtype in (np.float32, np.float64):
        return arr
    return arr.astype(DEFAULT_DTYPE)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """Dense real array with an optional gradient buffer.

    ``data`` is a numpy array; ``grad`` stays ``None`` until ``backward()``
    reaches this tensor, and after it only leaves (tensors no operation
    produced, such as parameters) keep theirs. Tensors produced by
    operations are immutable by convention once a forward pass completes.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def _accumulate(self, g: np.ndarray):
        # rebinding accumulation keeps aliased buffers safe from mutation
        self.grad = g if self.grad is None else self.grad + g

    def backward(self):
        """Backpropagate from a scalar output through the recorded graph."""
        if self.data.size != 1:
            raise ConfigurationError(
                f"backward() requires a scalar output, got shape {self.shape}"
            )
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward_fn is not None:
                node._backward_fn(node.grad)
                node.grad = None  # passed on to the parents: free it now

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    rg = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out.requires_grad = rg
    out._parents = tuple(parents) if rg else ()
    out._backward_fn = backward if rg else None
    return out


# --- elementwise and linear algebra primitives ---------------------------


def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b``: ``linear`` without a bias."""
    return linear(a, b)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w``, plus ``b`` when given, as one op: the bias is added in place
    into the product, so no separate pre-bias array is kept. ``x`` is a
    vector or a matrix, ``w`` a matrix."""
    x = _lift(x)
    w = _lift(w)
    if x.data.ndim not in (1, 2) or w.data.ndim != 2:
        raise ConfigurationError(
            f"matmul supports vector/matrix @ matrix, got {x.shape} @ {w.shape}"
        )
    if x.data.shape[-1] != w.data.shape[0]:
        raise ConfigurationError(f"matmul dimension mismatch: {x.shape} @ {w.shape}")
    data = x.data @ w.data
    parents = (x, w)
    if b is not None:
        b = _lift(b)
        data += b.data
        parents = (x, w, b)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g @ w.data.T)
        if w.requires_grad:
            if x.data.ndim == 1:
                w._accumulate(np.outer(x.data, g))
            else:
                w._accumulate(x.data.T @ g)
        if b is not None and b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(data, parents, backward)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = [_lift(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis if axis >= 0 else g.ndim + axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return _make(data, tensors, backward)


def relu(t: Tensor) -> Tensor:
    t = _lift(t)
    data = np.maximum(t.data, 0.0)

    def backward(g):
        t._accumulate(g * (t.data > 0))

    return _make(data, (t,), backward)


def mean(t: Tensor) -> Tensor:
    t = _lift(t)
    n = t.data.size
    data = np.asarray(t.data.mean())

    def backward(g):
        t._accumulate(np.broadcast_to(g / n, t.data.shape))

    return _make(data, (t,), backward)


def gather_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Select rows of ``table`` by integer id; gradients scatter-add back."""
    table = _lift(table)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ConfigurationError(f"gather_rows expects a 1-d id array, got {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ConfigurationError(
            f"row id out of range [0, {table.data.shape[0]}): {ids.min()}..{ids.max()}"
        )
    data = table.data[ids]

    def backward(g):
        acc = np.zeros_like(table.data)
        np.add.at(acc, ids, g)
        table._accumulate(acc)

    return _make(data, (table,), backward)


def max_pool_rows(t: Tensor, group_size: int) -> Tensor:
    """Max over consecutive groups of rows: (G*P, F) -> (G, F).

    Gradient routes to the first argmax row of each group.
    """
    t = _lift(t)
    n, f = t.data.shape
    if n % group_size:
        raise ConfigurationError(f"{n} rows not divisible by group size {group_size}")
    g3 = t.data.reshape(-1, group_size, f)
    idx = g3.argmax(axis=1)
    data = np.take_along_axis(g3, idx[:, None, :], axis=1)[:, 0, :]

    def backward(g):
        acc = np.zeros_like(g3)
        np.put_along_axis(acc, idx[:, None, :], g[:, None, :], axis=1)
        t._accumulate(acc.reshape(n, f))

    return _make(data, (t,), backward)


# --- row-wise softmax family ---------------------------------------------


def softmax(x: np.ndarray) -> np.ndarray:
    """Overflow-safe softmax of a numpy array over the last axis; rows sum to
    one. Not recorded on the tape."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def nll_rows(x: np.ndarray, targets: np.ndarray):
    """Per-row negative log-likelihood of the ``targets`` under softmax(x):
    (B, V), (B,) -> (B,), in numpy. Also returns each row's max ``m`` and
    log-sum-exp ``ls`` of ``x - m``, which ``cross_entropy_grad`` reads,
    rather than the (B, V) log-softmax."""
    targets = np.asarray(targets, dtype=np.int64)
    if targets.size and (targets.min() < 0 or targets.max() >= x.shape[-1]):
        raise ConfigurationError(f"target id out of range [0, {x.shape[-1]})")
    m = x.max(axis=-1, keepdims=True)
    e = np.subtract(x, m)
    ls = np.log(np.exp(e, out=e).sum(axis=-1, keepdims=True))
    rows = np.arange(x.shape[0])
    return ls[:, 0] - (x[rows, targets] - m[:, 0]), m, ls


def cross_entropy_grad(x: np.ndarray, m: np.ndarray, ls: np.ndarray,
                       targets: np.ndarray, g: np.ndarray, out=None) -> np.ndarray:
    """The gradient of ``nll_rows(x, targets)`` weighted by the row weights
    ``g``: the softmax rebuilt as ``exp((x - m) - ls)`` with the forward's ops
    in its order, times ``g``, less ``g`` at each target. Written into
    ``out`` when given, which may be ``x`` itself."""
    grad = np.subtract(x, m, out=out)
    grad -= ls
    np.exp(grad, out=grad)
    grad *= g[:, None]
    grad[np.arange(x.shape[0]), targets] -= g
    return grad


def cross_entropy_rows(logits: Tensor, targets: np.ndarray) -> Tensor:
    """``nll_rows`` as a tape op: (B, V), (B,) -> (B,)."""
    logits = _lift(logits)
    targets = np.asarray(targets, dtype=np.int64)
    data, m, ls = nll_rows(logits.data, targets)

    def backward(g):
        logits._accumulate(cross_entropy_grad(logits.data, m, ls, targets, g))

    return _make(data, (logits,), backward)


def reparameterize(mu: np.ndarray, sigma: np.ndarray, eps: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """z = mu + sigma * eps for a standard normal draw ``eps``, written into
    ``out`` when given. Not recorded on the tape."""
    if sigma.min() <= 0:
        raise NumericError("reparameterize requires strictly positive sigma")
    z = np.multiply(sigma, eps, out=out)
    z += mu
    return z


# --- parameter store -------------------------------------------------------


class ParamStore:
    """Ordered name -> Tensor map for every learnable weight, in one buffer.

    Iteration order is the insertion order, which is deterministic for a
    fixed construction sequence; names are unique. The first use of
    ``flat`` copies every tensor's data, in that order, into one array and
    makes it a view of that; the layout is then fixed, and ``views`` cuts
    any array of that size the same way (Adam's moments, the gradient).
    """

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}
        self._flat: np.ndarray | None = None

    def add(self, name: str, data) -> Tensor:
        if name in self._tensors:
            raise ConfigurationError(f"duplicate parameter name {name!r}")
        if self._flat is not None:
            raise ConfigurationError(f"cannot add {name!r}: the store is laid out")
        t = data if isinstance(data, Tensor) else Tensor(data)
        t.requires_grad = True
        self._tensors[name] = t
        return t

    @property
    def flat(self) -> np.ndarray:
        """Every tensor's data as one 1-d array, in insertion order."""
        if self._flat is None:
            self._flat = np.concatenate([t.data.reshape(-1)
                                         for t in self._tensors.values()])
            for t, view in zip(self._tensors.values(), self.views(self._flat).values()):
                t.data = view
        return self._flat

    def layout(self) -> list[list]:
        """``[name, shape]`` pairs in store order, each shape a list: how
        ``flat`` is cut, and what a container's header records."""
        return [[name, list(t.data.shape)] for name, t in self._tensors.items()]

    @staticmethod
    def layout_views(layout: list, flat: np.ndarray) -> dict[str, np.ndarray]:
        """``flat`` cut by ``layout``'s ``[name, shape]`` pairs, in order, as
        name -> view of that shape."""
        out, lo = {}, 0
        for name, shape in layout:
            size = math.prod(shape)
            out[name] = flat[lo: lo + size].reshape(shape)
            lo += size
        return out

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """``flat``, an array laid out like the store's, as name -> view
        shaped like that tensor."""
        return self.layout_views(self.layout(), flat)

    def gather_grads(self) -> np.ndarray:
        """The tensors' gradients as one new array laid out like ``flat``,
        zero where none arrived: a tape reference's gradient, in the layout
        the hand-written backwards write theirs."""
        grad = np.zeros_like(self.flat)
        for t, view in zip(self._tensors.values(), self.views(grad).values()):
            if t.grad is not None:
                view[...] = t.grad
        return grad

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __len__(self) -> int:
        return len(self._tensors)

    def names(self) -> list[str]:
        return list(self._tensors)

    def items(self) -> Iterable[tuple[str, Tensor]]:
        return self._tensors.items()

    def zero_grad(self):
        for t in self._tensors.values():
            t.grad = None

    def total_parameters(self) -> int:
        return sum(t.data.size for t in self._tensors.values())


# --- seeded random streams -------------------------------------------------


def _stream_seed(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class Rng:
    """Deterministic random source with independent named streams.

    The same (seed, stream name) pair always yields the same draw sequence,
    regardless of which other streams were touched first or in what order.
    Typical stream names: ``init``, ``noise``, ``latent``, ``sampling``.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        gen = self._streams.get(name)
        if gen is None:
            gen = np.random.default_rng(_stream_seed(self.seed, name))
            self._streams[name] = gen
        return gen

    def keyed(self, name: str) -> np.random.Generator:
        """A fresh generator for (seed, name). Unlike a stream it is not kept,
        so ``state()`` does not record it and every call restarts it."""
        return np.random.default_rng(_stream_seed(self.seed, name))

    def state(self) -> dict:
        return {
            "seed": self.seed,
            "streams": {
                name: gen.bit_generator.state for name, gen in self._streams.items()
            },
        }

    def set_state(self, state: dict):
        self.seed = int(state["seed"])
        self._streams = {}
        for name, bg_state in state["streams"].items():
            gen = np.random.default_rng(0)
            gen.bit_generator.state = bg_state
            self._streams[name] = gen


# --- finite-difference gradient checking -----------------------------------


# elements of every tensor that check_gradient checks when it subsamples
GRAD_CHECK_QUOTA = 4


@dataclass
class GradCheckEntry:
    name: str
    max_rel_err: float
    checked: int


@dataclass
class GradCheckReport:
    passed: bool
    tolerance: float
    max_rel_err: float
    worst_param: str
    total_checked: int
    per_param: list[GradCheckEntry] = field(default_factory=list)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}: max rel err {self.max_rel_err:.3e} "
            f"(tol {self.tolerance:.1e}, worst {self.worst_param}, "
            f"{self.total_checked} elements)"
        )


def check_gradient(loss_fn: Callable[[], float], store: ParamStore,
                   analytic: np.ndarray, tolerance: float = 1e-4, fd_step: float = 1e-5,
                   max_checks: int = 256, corrupt: bool = False) -> GradCheckReport:
    """Compare the analytic gradient of a scalar loss to central finite
    differences.

    ``loss_fn`` returns the loss as a float and must be a pure function of
    the parameter values (re-seed any noise inside it); ``analytic`` is its
    gradient, laid out like ``store.flat``. Every element of ``store.flat``
    is checked when there are at most ``max_checks``. Otherwise each tensor
    gets ``min(size, GRAD_CHECK_QUOTA)`` of its elements, and the rest of
    ``max_checks``, if any, is a uniform random subsample of the other
    elements; both are drawn with seed 0, so no tensor goes unchecked.
    Relative error uses the denominator max(|analytic|, |numeric|, noise /
    tolerance), where noise = eps * max(|f+|, |f-|) / fd_step is the rounding
    error of the central difference itself: an entry smaller than noise /
    tolerance cannot be resolved to the tolerance, so its error is judged
    against that floor. ``corrupt=True`` perturbs the analytic gradients
    before comparison, as a negative control that must fail.
    """
    if np.size(loss_fn()) != 1:
        raise ConfigurationError("check_gradient requires a scalar-valued loss")
    if corrupt:
        analytic = analytic * 1.01 + 1e-3

    flat = store.flat
    elements = np.arange(flat.size)
    if flat.size > max_checks:
        picker = np.random.default_rng(0)
        quota = np.concatenate([
            picker.choice(ix.ravel(), min(ix.size, GRAD_CHECK_QUOTA), replace=False)
            for ix in store.views(elements).values()])
        rest = np.setdiff1d(elements, quota)
        extra = picker.choice(rest, max(min(max_checks - quota.size, rest.size), 0),
                              replace=False)
        elements = np.sort(np.concatenate([quota, extra]))
    names = store.names()
    # the index in ``names`` of the tensor that holds each checked element
    owners = np.searchsorted(np.cumsum([store[n].data.size for n in names]),
                             elements, side="right")

    eps = float(np.finfo(flat.dtype).eps)
    tiny = float(np.finfo(flat.dtype).tiny)
    errs = dict.fromkeys(names, 0.0)
    counts = dict.fromkeys(names, 0)
    for i, owner in zip(elements, owners):
        orig = flat[i]
        flat[i] = orig + fd_step
        f_plus = float(loss_fn())
        flat[i] = orig - fd_step
        f_minus = float(loss_fn())
        flat[i] = orig
        numeric = (f_plus - f_minus) / (2.0 * fd_step)
        a = float(analytic[i])
        noise = eps * max(abs(f_plus), abs(f_minus)) / fd_step
        rel = abs(a - numeric) / max(abs(a), abs(numeric), noise / tolerance, tiny)
        name = names[owner]
        errs[name] = max(errs[name], rel)
        counts[name] += 1

    worst = max(errs, key=errs.get)
    return GradCheckReport(
        passed=errs[worst] < tolerance,
        tolerance=tolerance,
        max_rel_err=errs[worst],
        worst_param=worst,
        total_checked=len(elements),
        per_param=[GradCheckEntry(name, errs[name], counts[name])
                   for name in names if counts[name]],
    )
