"""Differentiable primitives: tensors with reverse-mode gradients, a parameter
store, seeded RNG streams, and a finite-difference gradient checker.

Every operation records its parents and a backward closure on the output
tensor; ``Tensor.backward()`` replays the recorded graph once in reverse
topological order. Values are double precision by default (single precision
passes through when the inputs carry it).
"""

from __future__ import annotations

import hashlib
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


def _as_array(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data)
    if dtype is not None:
        return arr.astype(dtype, copy=False)
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

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

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


def _lift(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else None
    return Tensor(_as_array(x, dtype=dtype))


def _lift_pair(a, b) -> tuple[Tensor, Tensor]:
    """Lift a non-tensor operand of a binary op in the dtype of the tensor on
    either side, so a Python scalar never promotes float32 to float64."""
    if not isinstance(a, Tensor) and isinstance(b, Tensor):
        return _lift(a, like=b), b
    a = _lift(a)
    return a, _lift(b, like=a)


def records(parents: Sequence[Tensor]) -> bool:
    """Whether an op over ``parents`` goes on the tape."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


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
    a, b = _lift_pair(a, b)
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _lift_pair(a, b)
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = _lift_pair(a, b)
    data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

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


def multi_output(outputs: Sequence[np.ndarray], parents: Sequence[Tensor],
                 backward) -> list[Tensor]:
    """One op with several outputs. ``backward(grads)`` receives one gradient
    per output, ``None`` for an output no gradient reached, and returns one
    per parent (``None`` for no contribution). It runs once, from a joint
    node that is the outputs' only parent: the tape reaches that node only
    after every output has passed its gradient on."""
    grads: list[np.ndarray | None] = [None] * len(outputs)

    def joint_backward(_):
        for p, g in zip(parents, backward(grads)):
            if g is not None and p.requires_grad:
                p._accumulate(g)
        grads[:] = [None] * len(outputs)  # passed on to the parents: free them

    joint = _make(np.empty(0), parents, joint_backward)

    def collect(i):
        def backward_i(g):
            grads[i] = g if grads[i] is None else grads[i] + g
        return backward_i

    return [_make(data, (joint,), collect(i)) for i, data in enumerate(outputs)]


def split(t: Tensor, sizes: Sequence[int], axis: int = -1) -> list[Tensor]:
    """Cut ``t`` into consecutive pieces of ``sizes`` along ``axis``; each
    piece is a view. The pieces' gradients land in one buffer, which reaches
    ``t`` as a single accumulation."""
    t = _lift(t)
    axis %= t.data.ndim
    if sum(sizes) != t.data.shape[axis]:
        raise ConfigurationError(
            f"split sizes {list(sizes)} do not add up to {t.shape}[{axis}]"
        )
    lead = (slice(None),) * axis
    offsets = np.cumsum([0, *sizes])
    idx = [lead + (slice(lo, hi),) for lo, hi in zip(offsets[:-1], offsets[1:])]

    def backward(grads):
        acc = np.zeros_like(t.data)
        for i, g in zip(idx, grads):
            if g is not None:
                acc[i] += g
        return [acc]

    return multi_output([t.data[i] for i in idx], [t], backward)


def reshape(t: Tensor, shape) -> Tensor:
    t = _lift(t)
    data = t.data.reshape(shape)

    def backward(g):
        t._accumulate(g.reshape(t.data.shape))

    return _make(data, (t,), backward)


def relu(t: Tensor) -> Tensor:
    t = _lift(t)
    data = np.maximum(t.data, 0.0)

    def backward(g):
        t._accumulate(g * (t.data > 0))

    return _make(data, (t,), backward)


def softplus(t: Tensor) -> Tensor:
    t = _lift(t)
    data = np.logaddexp(0.0, t.data)

    def backward(g):
        t._accumulate(g / (1.0 + np.exp(-t.data)))

    return _make(data, (t,), backward)


def log(t: Tensor) -> Tensor:
    t = _lift(t)
    data = np.log(t.data)

    def backward(g):
        t._accumulate(g / t.data)

    return _make(data, (t,), backward)


def tensor_sum(t: Tensor, axis=None) -> Tensor:
    t = _lift(t)
    data = np.asarray(t.data.sum(axis=axis))

    def backward(g):
        if axis is None:
            t._accumulate(np.broadcast_to(g, t.data.shape))
        else:
            t._accumulate(np.broadcast_to(np.expand_dims(g, axis), t.data.shape))

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


def window_sum(t: Tensor, seq_len: int, widths: Sequence[int]) -> list[Tensor]:
    """Window sums of shifted column blocks, one output per width.

    ``t`` is (G*seq_len, C): ``seq_len`` consecutive rows per sequence, and
    columns cut into ``sum(widths)`` equal blocks of F, the blocks of width
    ``w`` being its offsets 0..w-1 in order. Output ``w`` is
    (G*(seq_len-w+1), F); its row ``p`` of a sequence sums block ``(w, k)``
    of row ``p + k`` over the offsets ``k``. With ``t`` the products of
    every token with each offset's filter rows, that is a convolution. The
    backward writes each output's gradient, shifted down by ``k`` rows,
    into block ``(w, k)`` of one buffer.
    """
    t = _lift(t)
    n, cols = t.data.shape
    if n % seq_len or cols % sum(widths):
        raise ConfigurationError(
            f"window_sum: {t.shape} is not whole sequences of {seq_len} rows "
            f"and {sum(widths)} column blocks"
        )
    if max(widths) > seq_len:
        raise ConfigurationError(f"width {max(widths)} exceeds sequence length {seq_len}")
    size = cols // sum(widths)
    x = t.data.reshape(-1, seq_len, cols)
    # (npos, [column start of each offset's block]) per width
    layout = []
    start = 0
    for w in widths:
        layout.append((seq_len - w + 1, [start + k * size for k in range(w)]))
        start += w * size
    outs = []
    for npos, lows in layout:
        out = x[:, :npos, lows[0]: lows[0] + size].copy()
        for k, lo in enumerate(lows[1:], start=1):
            out += x[:, k: k + npos, lo: lo + size]
        outs.append(out.reshape(-1, size))

    def backward(grads):
        acc = np.zeros_like(x)
        for (npos, lows), g in zip(layout, grads):
            if g is not None:
                g = g.reshape(-1, npos, size)
                for k, lo in enumerate(lows):
                    acc[:, k: k + npos, lo: lo + size] = g
        return [acc.reshape(n, cols)]

    return multi_output(outs, [t], backward)


# --- row-wise softmax family ---------------------------------------------


def softmax(x: np.ndarray) -> np.ndarray:
    """Overflow-safe softmax of a numpy array over the last axis; rows sum to
    one. Not recorded on the tape."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy_rows(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Per-row negative log-likelihood from logits: (B, V), (B,) -> (B,).

    Keeps each row's max ``m`` and log-sum-exp ``ls`` rather than the (B, V)
    log-softmax; the backward rebuilds the softmax as ``exp((x - m) - ls)``
    into the gradient buffer, with the forward's ops in its order."""
    logits = _lift(logits)
    targets = np.asarray(targets, dtype=np.int64)
    if targets.size and (targets.min() < 0 or targets.max() >= logits.data.shape[-1]):
        raise ConfigurationError(
            f"target id out of range [0, {logits.data.shape[-1]})"
        )
    x = logits.data
    m = x.max(axis=-1, keepdims=True)
    e = np.subtract(x, m)
    ls = np.log(np.exp(e, out=e).sum(axis=-1, keepdims=True))
    rows = np.arange(x.shape[0])
    data = ls[:, 0] - (x[rows, targets] - m[:, 0])

    def backward(g):
        grad = np.subtract(x, m)
        grad -= ls
        np.exp(grad, out=grad)
        grad *= g[:, None]
        grad[rows, targets] -= g
        logits._accumulate(grad)

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


# --- model-facing composite primitives ------------------------------------


def mlp_forward(x: Tensor, stack: Sequence[tuple[Tensor, Tensor]],
                activations: Sequence[str]) -> Tensor:
    """Run a fully connected stack with per-layer activation tags.

    ``stack`` is a sequence of (weight, bias) pairs whose dimensions must
    chain; tags are ``relu`` or ``none``. Intermediates are
    recorded on the graph for the backward pass.
    """
    if len(stack) != len(activations):
        raise ConfigurationError(
            f"{len(stack)} layers but {len(activations)} activation tags"
        )
    out = x
    for i, ((w, b), act) in enumerate(zip(stack, activations)):
        if out.data.shape[-1] != w.data.shape[0]:
            raise ConfigurationError(
                f"layer {i}: input dim {out.data.shape[-1]} does not match "
                f"weight shape {w.data.shape}"
            )
        out = linear(out, w, b)
        if act == "relu":
            out = relu(out)
        elif act != "none":
            raise ConfigurationError(f"unknown activation tag {act!r}")
    return out


@dataclass
class GaussianParams:
    """Diagonal Gaussian: mean and strictly positive standard deviation."""

    mu: Tensor
    sigma: Tensor


def kl_gaussians(q: GaussianParams, p: GaussianParams) -> Tensor:
    """Closed-form KL(q || p) for diagonal Gaussians, summed over the last axis.

    Returns a scalar for vector inputs, a per-row vector for batched inputs.
    """
    if q.mu.data.shape != p.mu.data.shape:
        raise ConfigurationError(
            f"KL dimension mismatch: {q.mu.shape} vs {p.mu.shape}"
        )
    if np.any(q.sigma.data <= 0) or np.any(p.sigma.data <= 0):
        raise NumericError("kl_gaussians requires strictly positive sigmas")
    d = add(q.mu, mul(p.mu, -1.0))
    var_p = mul(p.sigma, p.sigma)
    ratio = div(add(mul(q.sigma, q.sigma), mul(d, d)), var_p)
    elem = add(add(log(p.sigma), mul(log(q.sigma), -1.0)), mul(add(ratio, -1.0), 0.5))
    return tensor_sum(elem, axis=-1)


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

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """``flat``, an array laid out like the store's, as name -> view
        shaped like that tensor."""
        out, lo = {}, 0
        for name, t in self._tensors.items():
            out[name] = flat[lo: lo + t.data.size].reshape(t.data.shape)
            lo += t.data.size
        return out

    def gather_grads(self) -> np.ndarray:
        """The tensors' gradients as one new array laid out like ``flat``,
        zero where none arrived. The tensors keep theirs until ``zero_grad``:
        freed here, they let the allocator hand the heap's top back to the
        system after every step, to be faulted in again by the next."""
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

    def load(self, arrays: dict[str, np.ndarray], flat: np.ndarray | None = None):
        """Copy ``arrays`` into the tensors, or into ``flat``, an array laid
        out like the store's, cast to its dtype. The names and shapes must be
        exactly the store's; nothing is copied otherwise."""
        names = set(self._tensors)
        if set(arrays) != names:
            raise ConfigurationError(
                f"tensors missing {sorted(names - set(arrays))}, "
                f"unexpected {sorted(set(arrays) - names)}"
            )
        views = self.views(self.flat if flat is None else flat)
        for name, view in views.items():
            if np.shape(arrays[name]) != view.shape:
                raise ConfigurationError(f"tensor {name!r} has shape "
                                         f"{np.shape(arrays[name])}, expected {view.shape}")
        for name, view in views.items():
            np.copyto(view, arrays[name])


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


def check_gradient(loss_fn: Callable[[], Tensor], params, tolerance: float = 1e-4,
                   fd_step: float = 1e-5, max_checks: int = 256,
                   corrupt: bool = False) -> GradCheckReport:
    """Compare analytic gradients of a scalar loss to central finite differences.

    ``loss_fn`` must be a pure function of the parameter values (re-seed any
    noise inside it). Every parameter element is checked when the total count
    is at most ``max_checks``; otherwise a uniform random subsample of
    ``max_checks`` elements, drawn with seed 0, is used. Relative error uses
    the denominator max(|analytic|, |numeric|, noise / tolerance), where noise =
    eps * max(|f+|, |f-|) / fd_step is the rounding error of the central
    difference itself: an entry smaller than noise / tolerance cannot be
    resolved to the tolerance, so its error is judged against that floor.
    ``corrupt=True`` perturbs the analytic gradients before comparison, as
    a negative control that must fail.
    """
    named = dict(params.items()) if isinstance(params, ParamStore) else dict(params)
    for t in named.values():
        t.grad = None
    loss = loss_fn()
    if loss.data.size != 1:
        raise ConfigurationError("check_gradient requires a scalar-valued loss")
    loss.backward()
    analytic = {
        name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        for name, t in named.items()
    }
    if corrupt:
        analytic = {name: g * 1.01 + 1e-3 for name, g in analytic.items()}

    elements = [(name, i) for name, t in named.items() for i in range(t.data.size)]
    if len(elements) > max_checks:
        picker = np.random.default_rng(0)
        chosen = picker.choice(len(elements), size=max_checks, replace=False)
        elements = [elements[i] for i in sorted(chosen)]

    eps = float(np.finfo(loss.data.dtype).eps)
    tiny = float(np.finfo(loss.data.dtype).tiny)
    errs: dict[str, float] = {name: 0.0 for name in named}
    counts: dict[str, int] = {name: 0 for name in named}
    for name, i in elements:
        flat = named[name].data.reshape(-1)
        orig = flat[i]
        flat[i] = orig + fd_step
        f_plus = loss_fn().item()
        flat[i] = orig - fd_step
        f_minus = loss_fn().item()
        flat[i] = orig
        numeric = (f_plus - f_minus) / (2.0 * fd_step)
        a = float(analytic[name].reshape(-1)[i])
        noise = eps * max(abs(f_plus), abs(f_minus)) / fd_step
        rel = abs(a - numeric) / max(abs(a), abs(numeric), noise / tolerance, tiny)
        errs[name] = max(errs[name], rel)
        counts[name] += 1

    worst = max(errs, key=errs.get)
    report = GradCheckReport(
        passed=errs[worst] < tolerance,
        tolerance=tolerance,
        max_rel_err=errs[worst],
        worst_param=worst,
        total_checked=len(elements),
        per_param=[
            GradCheckEntry(name, errs[name], counts[name])
            for name in named
            if counts[name]
        ],
    )
    return report
