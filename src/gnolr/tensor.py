"""Dense numerical kernel: forward/backward pairs, Adam, initialization.

Matrices are plain float64 numpy arrays.  The network topology downstream
is fixed, so gradients are hand-chained: every forward op here has a
matching backward that consumes the upstream gradient.  The tests check
all of them against central differences (``finite_diff_check`` in
``tests/helpers.py``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionError, OptimizerError

NORM_EPS = 1e-12

# Bytes per temporary array in a blocked inference pass: tower passes, pair
# gathers, retrieval score blocks and export text.  Arrays this size stay in
# glibc's heap once its mmap threshold has adapted; 8 MiB arrays were mapped
# and unmapped on every call, costing thousands of page faults per pass.
BLOCK_BYTES = 1 << 20


def block_rows(row_bytes: int) -> int:
    """Rows per block, so that an array of ``row_bytes``-byte rows holds about ``BLOCK_BYTES``."""
    return max(1, BLOCK_BYTES // max(1, row_bytes))


class DegenerateVectorWarning(RuntimeWarning):
    """A vector with (near-)zero norm hit a normalization or kernel."""


# ---------------------------------------------------------------------------
# Parameters and optimizer
# ---------------------------------------------------------------------------


@dataclass
class Parameter:
    """A trainable array with its gradient buffer and Adam moment state.

    The gradient, the moments and the dense Adam step's scratch (a float
    array and a finiteness mask) are zeros allocated on first use, so a model
    that only scores holds none.  A ``table`` holds no gradient: its rows'
    gradient comes from ``EmbeddingTableSet.take_grads`` and goes to
    ``adam_step_sparse``, and reading its ``grad`` raises AttributeError.
    """

    name: str
    value: np.ndarray
    table: bool = False
    grad: np.ndarray = field(init=False)
    adam_m: np.ndarray = field(init=False)
    adam_v: np.ndarray = field(init=False)
    adam_scratch: np.ndarray = field(init=False)
    finite: np.ndarray = field(init=False)
    step_count: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.value = np.asarray(self.value, dtype=np.float64)

    def __getattr__(self, name: str) -> np.ndarray:
        # Only reached while ``name`` is unset.
        if name not in ("grad", "adam_m", "adam_v", "adam_scratch", "finite"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        if name == "grad" and self.table:
            raise AttributeError(
                f"table parameter '{self.name}' holds no grad; "
                "its gradient is taken with EmbeddingTableSet.take_grads()"
            )
        buffer = np.zeros_like(self.value, dtype=bool if name == "finite" else None)
        setattr(self, name, buffer)
        return buffer

    def zero_grad(self) -> None:
        self.grad.fill(0.0)


def pack_parameters(name: str, params: Sequence[Parameter]) -> Parameter:
    """One flat Parameter over ``params``, so one optimizer call updates them all.

    Each member's value, grad and Adam moments become views into the flat
    arrays, in list order; the members keep their names, shapes and values,
    and their gradients and moments restart at zero, so pack before training.
    Writes must stay in place from then on: rebinding a member's array
    detaches it from the flat one.
    """
    flat = Parameter(name, np.concatenate([p.value.reshape(-1) for p in params]))
    offset = 0
    for p in params:
        size, shape = p.value.size, p.value.shape
        for attr in ("value", "grad", "adam_m", "adam_v"):
            setattr(p, attr, getattr(flat, attr)[offset : offset + size].reshape(shape))
        offset += size
    return flat


# Adam's moment decays and denominator guard: the defaults of Kingma & Ba (2014).
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class AdamConfig:
    learning_rate: float

    def __post_init__(self) -> None:
        if not 0 < self.learning_rate < math.inf:
            raise OptimizerError(f"learning_rate must be finite and > 0, got {self.learning_rate}")


def _adam_update(
    value: np.ndarray, m: np.ndarray, v: np.ndarray, g: np.ndarray, t: int, cfg: AdamConfig,
    scratch: np.ndarray | None = None,
) -> None:
    """Bias-corrected Adam step ``t``, in place on arrays of one shape; spends ``g``.

    m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g;
    value -= lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps).
    Each product and quotient is rounded in that order, but written into one
    scratch array (``scratch`` when given) and ``g`` instead of fresh temporaries.
    """
    scratch = np.multiply(g, 1.0 - ADAM_BETA1, out=scratch)
    m *= ADAM_BETA1
    m += scratch
    np.multiply(g, 1.0 - ADAM_BETA2, out=scratch)
    scratch *= g
    v *= ADAM_BETA2
    v += scratch
    denom = np.divide(v, 1.0 - ADAM_BETA2**t, out=g)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPSILON
    step = np.divide(m, 1.0 - ADAM_BETA1**t, out=scratch)
    step *= cfg.learning_rate
    step /= denom
    value -= step


def adam_step(param: Parameter, cfg: AdamConfig) -> Parameter:
    """Adam over the whole parameter, in place and in its own scratch; zeroes the gradient."""
    if not np.isfinite(param.grad, out=param.finite).all():
        raise OptimizerError(f"non-finite gradient in parameter '{param.name}'")
    param.step_count += 1
    moments = param.adam_m, param.adam_v
    _adam_update(param.value, *moments, param.grad, param.step_count, cfg, param.adam_scratch)
    param.zero_grad()
    return param


def adam_step_sparse(
    param: Parameter, cfg: AdamConfig, rows: np.ndarray, grad: np.ndarray
) -> Parameter:
    """Lazy Adam on the distinct ``rows``, whose gradient is ``grad``; spends ``grad``.

    Rows outside ``rows`` keep value, moments, and bits untouched; bias
    correction uses the parameter's global step count, as in lazy Adam.
    The cost is O(len(rows)), and the parameter holds no gradient.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return param
    if not np.all(np.isfinite(grad)):
        raise OptimizerError(f"non-finite gradient in parameter '{param.name}'")
    param.step_count += 1
    value, m, v = param.value[rows], param.adam_m[rows], param.adam_v[rows]
    _adam_update(value, m, v, grad, param.step_count, cfg)
    param.value[rows], param.adam_m[rows], param.adam_v[rows] = value, m, v
    return param


# ---------------------------------------------------------------------------
# Core ops (forward + backward)
# ---------------------------------------------------------------------------


def leaky_relu(x: np.ndarray, slope: float, out: np.ndarray | None = None) -> np.ndarray:
    """x where x >= 0, else slope * x; with 0 < slope < 1 that is max(x, slope * x).

    The result is written into ``out`` when given; it must not overlap ``x``.
    """
    if not 0.0 < slope < 1.0:
        raise DimensionError(f"leaky slope must lie in (0, 1), got {slope}")
    out = np.multiply(x, slope, out=np.empty(np.shape(x)) if out is None else out)
    return np.maximum(x, out, out=out)


def leaky_relu_backward(
    upstream: np.ndarray, x: np.ndarray, slope: float, out: np.ndarray | None = None
) -> np.ndarray:
    """upstream times 1 where x >= 0, else slope: max of the 0/1 mask and slope.

    The mask and the product are written into ``out`` when given; it may be ``x``.
    """
    mask = np.greater_equal(x, 0.0, out=np.empty(np.shape(x)) if out is None else out)
    np.maximum(mask, slope, out=mask)
    return np.multiply(upstream, mask, out=mask)


def stable_sigmoid(x):
    """1 / (1 + exp(-x)) without overflow for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    if out.ndim == 0:
        return float(out)
    return out


def stable_softplus(x):
    """log(1 + exp(x)) without overflow for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    out = np.where(x > 0, x + np.log1p(np.exp(-np.abs(x))), np.log1p(np.exp(np.minimum(x, 0.0))))
    if out.ndim == 0:
        return float(out)
    return out


def _row_norms(v: np.ndarray, squares: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(v, axis=-1, keepdims=True)``, bit for bit, squaring into ``squares``."""
    norms = np.add.reduce(np.multiply(v, v, out=squares), axis=-1, keepdims=True)
    return np.sqrt(norms, out=norms)


def l2_normalize(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """v / max(||v||, eps) per row (2-D) or for the whole vector (1-D).

    Zero vectors come back as zero vectors with a DegenerateVectorWarning;
    training treats that as a numerical warning, not an error.  The result
    is written into ``out`` when given; it must not overlap ``v``.
    """
    v = np.asarray(v, dtype=np.float64)
    out = np.empty(v.shape) if out is None else out
    norms = _row_norms(v, out)
    if np.any(norms < NORM_EPS):
        warnings.warn("normalizing a (near-)zero vector", DegenerateVectorWarning)
    return np.divide(v, np.maximum(norms, NORM_EPS, out=norms), out=out)


def l2_normalize_backward(
    upstream: np.ndarray, v: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Backward through row-wise normalization.

    For a non-degenerate row, d(v/||v||) pulls the component of the
    upstream gradient orthogonal to the output: (g - y (y.g)) / ||v||.
    Degenerate rows get zero gradient (clamp semantics at the dead point).
    The gradient is written into ``out`` when given; it may be ``v``.
    """
    v = np.asarray(v, dtype=np.float64)
    scratch = np.empty(v.shape)
    norms = _row_norms(v, scratch)
    safe = np.maximum(norms, NORM_EPS)
    y = np.divide(v, safe, out=out)
    proj = np.add.reduce(np.multiply(upstream, y, out=scratch), axis=-1, keepdims=True)
    grad = np.multiply(y, proj, out=y)
    np.subtract(upstream, grad, out=grad)
    grad /= safe
    np.copyto(grad, 0.0, where=norms < NORM_EPS)
    return grad


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def glorot_uniform(shape: tuple[int, int], rng: np.random.Generator | None) -> np.ndarray:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out)); without ``rng``, unset values."""
    fan_in, fan_out = shape
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return np.empty(shape) if rng is None else rng.uniform(-limit, limit, size=shape)


def embedding_init(shape: tuple[int, int], rng: np.random.Generator | None) -> np.ndarray:
    """Uniform init in +-0.05; without ``rng``, unset values."""
    return np.empty(shape) if rng is None else rng.uniform(-0.05, 0.05, size=shape)
