"""Byzantine upload strategies.

A strategy maps the round context to the full model vector a Byzantine
client uploads; the engine converts uploads to deltas before aggregation.
Omniscient strategies may read the honest uploads of the same round.  All
strategies are deterministic given (seed stream, context).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError
from .problems import Problem, descend

ATTACK_KINDS = ("honest_mimic", "escalating_outlier", "gaussian_noise", "sign_flip", "fixed_vector")


@dataclass(frozen=True)
class AttackStrategy:
    kind: str
    variance: float = 0.0   # gaussian_noise
    scale: float = 1.0      # sign_flip
    vector: Optional[tuple] = None  # fixed_vector

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ParameterError(f"kind must be one of {list(ATTACK_KINDS)}, got {self.kind!r}")
        if self.variance < 0:
            raise ParameterError("variance must be >= 0")
        if self.kind == "fixed_vector" and self.vector is None:
            raise ParameterError("fixed_vector attack needs a vector")


@dataclass(frozen=True)
class AttackContext:
    """Everything visible to a Byzantine client during one round."""

    t: int
    w_t: np.ndarray
    gamma: float
    H: int
    n: int
    f: int
    f_hat: int
    honest_uploads: np.ndarray  # (n - f, d), fixed for the round
    rng: np.random.Generator    # per-(client, round) substream


def honest_mimic(ctx: AttackContext, problem: Problem, k: int) -> np.ndarray:
    """Behave exactly like an honest client: H local GD steps on client k's own loss."""
    return descend(problem, [k], ctx.w_t, ctx.gamma, ctx.H)[0]


def escalating_outlier(ctx: AttackContext) -> np.ndarray:
    """Upload n*|(1-gamma)^H w_t| + t (absolute value per coordinate).

    Grows linearly with the round index, so a trimmed mean configured with
    too small a robustness degree keeps averaging it in and the run blows up.
    """
    return ctx.n * np.abs((1.0 - ctx.gamma) ** ctx.H * ctx.w_t) + ctx.t


def gaussian_noise(ctx: AttackContext, variance: float, d: int) -> np.ndarray:
    """Upload i.i.d. N(0, variance) entries drawn from the context stream."""
    if variance < 0:
        raise ParameterError("variance must be >= 0")
    return np.sqrt(variance) * ctx.rng.standard_normal(d)


def sign_flip(ctx: AttackContext, scale: float) -> np.ndarray:
    """Upload w_t - scale * (mean honest delta): the negated honest direction."""
    mean_delta = ctx.honest_uploads.mean(axis=0) - ctx.w_t
    return ctx.w_t - scale * mean_delta


def byzantine_upload(strategy: AttackStrategy, ctx: AttackContext, problem: Problem, k: int) -> np.ndarray:
    """Produce Byzantine client k's upload for the round."""
    if strategy.kind == "honest_mimic":
        return honest_mimic(ctx, problem, k)
    if strategy.kind == "escalating_outlier":
        return escalating_outlier(ctx)
    if strategy.kind == "gaussian_noise":
        return gaussian_noise(ctx, strategy.variance, ctx.w_t.shape[0])
    if strategy.kind == "sign_flip":
        return sign_flip(ctx, strategy.scale)
    if strategy.kind == "fixed_vector":
        return np.asarray(strategy.vector, dtype=np.float64)
    raise ParameterError(f"unknown attack kind {strategy.kind!r}")
