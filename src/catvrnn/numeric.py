"""Numeric core: the numpy softmax and cross-entropy, the reparameterized
draw, a parameter store, seeded RNG streams, and a finite-difference
gradient checker.

Nothing here records a graph: the model's backward (``model``) and the
scoring classifier's (``evaluation``) are written by hand in numpy, and
``check_gradient`` checks them against central differences. The store
lays every weight out in one array, in the dtype of the arrays it is built
from, and names each weight's view of it; the backwards write their
gradients into an array laid out the same way, through the same names.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, NumericError


class Tensor:
    """A handle on one weight of a ``ParamStore``, ``data`` its view. The
    program reads weights as ``store[name]``; only the benchmark reads them
    through handles (``ParamStore.items``) and installs a span on
    ``backward``. Both go when it stops (ROADMAP item 1, stage A)."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = data

    def backward(self):
        """Raises: nothing records a graph, so there is nothing to run
        backward."""
        raise ConfigurationError("nothing records a graph: the backwards are written "
                                 "by hand")


# --- row-wise softmax family ---------------------------------------------


def softmax(x: np.ndarray) -> np.ndarray:
    """Overflow-safe softmax of a numpy array over the last axis; rows sum to
    one."""
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


def reparameterize(mu: np.ndarray, sigma: np.ndarray, eps: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """z = mu + sigma * eps for a standard normal draw ``eps``, written into
    ``out`` when given."""
    if sigma.min() <= 0:
        raise NumericError("reparameterize requires strictly positive sigma")
    z = np.multiply(sigma, eps, out=out)
    z += mu
    return z


# --- parameter store -------------------------------------------------------


class ParamStore:
    """Every learnable weight, laid out once in one array, ``flat``, and
    addressed by name: ``store[name]`` is that weight's view of it.

    Built from ``(name, initial array)`` entries, concatenated in their
    order; names are unique. ``views`` cuts any array of ``flat``'s size the
    same way (Adam's moments, the gradient), and ``layout`` lists the
    ``[name, shape]`` pairs a container's header records.
    """

    def __init__(self, entries):
        entries = list(entries)
        self._layout = self.layout_of(entries)
        self.flat = np.concatenate([np.reshape(a, -1) for _, a in entries])
        self._views = self.views(self.flat)
        if len(self._views) < len(entries):
            raise ConfigurationError(f"duplicate parameter names in {self.names()}")

    @staticmethod
    def layout_of(entries) -> list[list]:
        """The ``layout`` of a store of ``(name, array)`` entries, read off the
        arrays without laying them out."""
        return [[name, list(np.shape(a))] for name, a in entries]

    def layout(self) -> list[list]:
        """``[name, shape]`` pairs in store order, each shape a list: how
        ``flat`` is cut, and what a container's header records."""
        return [[name, list(shape)] for name, shape in self._layout]

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
        shaped like that weight."""
        return self.layout_views(self._layout, flat)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __len__(self) -> int:
        return len(self._layout)

    def names(self) -> list[str]:
        return [name for name, _ in self._layout]

    def items(self) -> list[tuple[str, Tensor]]:
        """``(name, Tensor)`` handles, for the benchmark only (see ``Tensor``)."""
        return [(name, Tensor(view)) for name, view in self._views.items()]

    def total_parameters(self) -> int:
        return self.flat.size


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
    owners = np.searchsorted(np.cumsum([store[n].size for n in names]),
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
