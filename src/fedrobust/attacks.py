"""Byzantine upload strategies.

An attack is one rule that gives the whole Byzantine group of a round its
uploads: ``byzantine_upload`` returns one (f, d) block, a full model vector
per client of ``problem.byzantine_set``, and the engine converts uploads to
deltas before aggregation.  Omniscient kinds may read the honest uploads of
the same round.  The only random kind, ``gaussian_noise``, draws client k's
row of round t from its own stream keyed by (seed, k, t), so every kind is
deterministic given the seed and the round.
"""

from __future__ import annotations

import math
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
        if not self.variance >= 0:  # NaN fails too
            raise ParameterError("variance must be >= 0")
        if not np.isfinite(self.variance):
            raise ParameterError("variance must be finite")
        if not np.isfinite(self.scale):
            raise ParameterError("scale must be finite")
        if self.kind == "fixed_vector" and self.vector is None:
            raise ParameterError("fixed_vector attack needs a vector")
        if self.kind == "fixed_vector" and not np.all(np.isfinite(self.vector)):
            raise ParameterError("vector entries must be finite")


def byzantine_upload(
    strategy: AttackStrategy, problem: Problem, w: np.ndarray, gamma: float, H: int,
    t: int, seed: int, honest_uploads: np.ndarray,
) -> np.ndarray:
    """Uploads of round ``t`` from iterate ``w``: row i belongs to client
    ``problem.byzantine_set[i]``.  The kinds that send one vector return one
    copy of it per client.

    honest_mimic:       H local GD steps on each Byzantine client's own loss.
    escalating_outlier: n*|(1-gamma)^H w| + t per coordinate; it grows with
                        the round, so a trimmed mean with too small a
                        robustness degree keeps averaging it in and blows up.
    gaussian_noise:     client k's row is ``sqrt(variance) *
                        default_rng([seed, k, t]).standard_normal(d)``, i.i.d.
                        N(0, variance) entries.
    sign_flip:          w - scale * (mean honest delta), the negated honest
                        direction.
    fixed_vector:       the strategy's vector.

    escalating_outlier and sign_flip compute under ``np.errstate``: a row
    past the float range is inf or NaN without a warning, and the engine
    ends that run as diverged.
    """
    clients, d = problem.byzantine_set, w.shape[0]
    if strategy.kind == "honest_mimic":
        return descend(problem, problem.byzantine_index, w, gamma, H)
    if strategy.kind == "gaussian_noise":
        # ints below 2**32 seed as the same words from a uint32 array, at less cost
        ints = (int, np.integer)
        words = isinstance(seed, ints) and isinstance(t, ints) and 0 <= seed < 2**32 and 0 <= t < 2**32
        block = np.empty((len(clients), d))
        for row, k in zip(block, clients):
            key = np.array([seed, k, t], dtype=np.uint32) if words else [seed, k, t]
            np.random.default_rng(key).standard_normal(d, out=row)
        block *= math.sqrt(strategy.variance)
        return block
    if strategy.kind == "fixed_vector":
        row = np.asarray(strategy.vector, dtype=np.float64)
    else:  # escalating_outlier or sign_flip; AttackStrategy admits no other kind
        row = _computed_row(strategy, problem.n, w, gamma, H, t, honest_uploads)
    return row[None].repeat(len(clients), axis=0)


@np.errstate(over="ignore", invalid="ignore")  # past the float range a row is inf or NaN, and the engine ends the run
def _computed_row(strategy: AttackStrategy, n: int, w: np.ndarray, gamma: float, H: int, t: int,
                  honest_uploads: np.ndarray) -> np.ndarray:
    """The one upload of escalating_outlier or sign_flip."""
    if strategy.kind == "escalating_outlier":
        return n * np.abs(np.float64(1.0 - gamma) ** H * w) + t  # inf, not OverflowError, past the range
    return w - strategy.scale * (np.add.reduce(honest_uploads, axis=0) / honest_uploads.shape[0] - w)  # numpy's mean
