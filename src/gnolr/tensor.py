"""Dense numerical kernel: forward/backward pairs, Adam, gradient checking.

Matrices are plain float64 numpy arrays.  The network topology downstream
is fixed, so gradients are hand-chained: every forward op here has a
matching backward that consumes the upstream gradient.  ``finite_diff_check``
is the independent oracle for all of them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, OptimizerError

NORM_EPS = 1e-12


class DegenerateVectorWarning(RuntimeWarning):
    """A vector with (near-)zero norm hit a normalization or kernel."""


# ---------------------------------------------------------------------------
# Parameters and optimizer
# ---------------------------------------------------------------------------


@dataclass
class Parameter:
    """A trainable array with its gradient buffer and Adam moment state."""

    name: str
    value: np.ndarray
    grad: np.ndarray = field(init=False)
    adam_m: np.ndarray = field(init=False)
    adam_v: np.ndarray = field(init=False)
    step_count: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.value = np.asarray(self.value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.adam_m = np.zeros_like(self.value)
        self.adam_v = np.zeros_like(self.value)

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


@dataclass(frozen=True)
class AdamConfig:
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise OptimizerError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0 < self.beta1 < 1 or not 0 < self.beta2 < 1:
            raise OptimizerError("beta1 and beta2 must lie in (0, 1)")
        if self.epsilon <= 0:
            raise OptimizerError("epsilon must be > 0")


def adam_step(param: Parameter, cfg: AdamConfig) -> Parameter:
    """Bias-corrected Adam update in place; zeroes the gradient afterward.

    m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g;
    value -= lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps).
    Each product and quotient is rounded in that order, but written into one
    scratch array and the spent gradient buffer instead of fresh temporaries.
    """
    if not np.all(np.isfinite(param.grad)):
        raise OptimizerError(f"non-finite gradient in parameter '{param.name}'")
    param.step_count += 1
    t = param.step_count
    g = param.grad
    scratch = np.multiply(g, 1.0 - cfg.beta1)
    param.adam_m *= cfg.beta1
    param.adam_m += scratch
    np.multiply(g, 1.0 - cfg.beta2, out=scratch)
    scratch *= g
    param.adam_v *= cfg.beta2
    param.adam_v += scratch
    denom = np.divide(param.adam_v, 1.0 - cfg.beta2**t, out=g)
    np.sqrt(denom, out=denom)
    denom += cfg.epsilon
    step = np.divide(param.adam_m, 1.0 - cfg.beta1**t, out=scratch)
    step *= cfg.learning_rate
    step /= denom
    param.value -= step
    param.zero_grad()
    return param


# ---------------------------------------------------------------------------
# Core ops (forward + backward)
# ---------------------------------------------------------------------------


def adam_step_sparse(param: Parameter, cfg: AdamConfig, rows: np.ndarray) -> Parameter:
    """Adam restricted to the given rows (embedding-row sparsity).

    Rows outside ``rows`` keep value, moments, and bits untouched; bias
    correction uses the parameter's global step count, as in lazy Adam.
    Only the gradient of ``rows`` is zeroed afterward, so the caller passes
    every row whose gradient is nonzero; the cost is O(len(rows)).
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return param
    g = param.grad[rows]
    if not np.all(np.isfinite(g)):
        raise OptimizerError(f"non-finite gradient in parameter '{param.name}'")
    param.step_count += 1
    t = param.step_count
    param.adam_m[rows] = cfg.beta1 * param.adam_m[rows] + (1.0 - cfg.beta1) * g
    param.adam_v[rows] = cfg.beta2 * param.adam_v[rows] + (1.0 - cfg.beta2) * g * g
    m_hat = param.adam_m[rows] / (1.0 - cfg.beta1**t)
    v_hat = param.adam_v[rows] / (1.0 - cfg.beta2**t)
    param.value[rows] -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
    param.grad[rows] = 0.0
    return param


def leaky_relu(x: np.ndarray, slope: float) -> np.ndarray:
    """x where x >= 0, else slope * x; with 0 < slope < 1 that is max(x, slope * x)."""
    if not 0.0 < slope < 1.0:
        raise DimensionError(f"leaky slope must lie in (0, 1), got {slope}")
    return np.maximum(x, slope * x)


def leaky_relu_backward(upstream: np.ndarray, x: np.ndarray, slope: float) -> np.ndarray:
    """upstream times 1 where x >= 0, else slope: max of the 0/1 mask and slope."""
    return upstream * np.maximum(x >= 0.0, slope)


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


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """v / max(||v||, eps) per row (2-D) or for the whole vector (1-D).

    Zero vectors come back as zero vectors with a DegenerateVectorWarning;
    training treats that as a numerical warning, not an error.
    """
    v = np.asarray(v, dtype=np.float64)
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(norms < NORM_EPS):
        warnings.warn("normalizing a (near-)zero vector", DegenerateVectorWarning)
    return v / np.maximum(norms, NORM_EPS)


def l2_normalize_backward(upstream: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Backward through row-wise normalization.

    For a non-degenerate row, d(v/||v||) pulls the component of the
    upstream gradient orthogonal to the output: (g - y (y.g)) / ||v||.
    Degenerate rows get zero gradient (clamp semantics at the dead point).
    """
    v = np.asarray(v, dtype=np.float64)
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    safe = np.maximum(norms, NORM_EPS)
    y = v / safe
    proj = np.sum(upstream * y, axis=-1, keepdims=True)
    grad = (upstream - y * proj) / safe
    return np.where(norms < NORM_EPS, 0.0, grad)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def glorot_uniform(shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = shape
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def embedding_init(shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(-0.05, 0.05, size=shape)


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_error: float
    num_checked: int
    worst_param: str
    worst_index: int
    worst_analytic: float
    worst_numeric: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def finite_diff_check(
    loss_fn: Callable[[], float],
    params: Sequence[Parameter],
    h: float = 1e-5,
    tolerance: float = 1e-4,
    num_samples: int = 100,
    rng: np.random.Generator | None = None,
    denom_floor: float = 1e-6,
) -> GradCheckReport:
    """Compare analytic gradients against central differences.

    ``loss_fn`` re-evaluates the (deterministic) loss from the parameters'
    current values; each parameter's ``grad`` must already hold the analytic
    gradient at the current point.  Coordinates are sampled across all
    parameters; per coordinate the relative error is
    |analytic - numeric| / max(|analytic|, |numeric|, denom_floor).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    coords: list[tuple[int, int]] = []
    for pi, p in enumerate(params):
        coords.extend((pi, fi) for fi in range(p.value.size))
    if not coords:
        raise OptimizerError("no parameters to check")
    if len(coords) > num_samples:
        chosen = rng.choice(len(coords), size=num_samples, replace=False)
        coords = [coords[int(i)] for i in chosen]

    worst = (-1.0, "", -1, 0.0, 0.0)
    for pi, fi in coords:
        p = params[pi]
        flat = p.value.reshape(-1)
        original = flat[fi]
        flat[fi] = original + h
        loss_plus = loss_fn()
        flat[fi] = original - h
        loss_minus = loss_fn()
        flat[fi] = original
        numeric = (loss_plus - loss_minus) / (2.0 * h)
        analytic = p.grad.reshape(-1)[fi]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), denom_floor)
        if rel > worst[0]:
            worst = (rel, p.name, fi, float(analytic), float(numeric))

    return GradCheckReport(
        max_rel_error=worst[0],
        num_checked=len(coords),
        worst_param=worst[1],
        worst_index=worst[2],
        worst_analytic=worst[3],
        worst_numeric=worst[4],
        tolerance=tolerance,
    )
