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
    """
    clients, d = problem.byzantine_set, w.shape[0]
    if strategy.kind == "honest_mimic":
        return descend(problem, problem.byzantine_index, w, gamma, H)
    if strategy.kind == "gaussian_noise":
        # ints below 2**32 seed as the same words from a uint32 array, at less cost
        words = all(isinstance(v, (int, np.integer)) and 0 <= v < 2**32 for v in (seed, t))
        block = np.empty((len(clients), d))
        for row, k in zip(block, clients):
            key = np.array([seed, k, t], dtype=np.uint32) if words else [seed, k, t]
            np.random.default_rng(key).standard_normal(d, out=row)
        block *= np.sqrt(strategy.variance)
        return block
    if strategy.kind == "escalating_outlier":
        row = problem.n * np.abs((1.0 - gamma) ** H * w) + t
    elif strategy.kind == "sign_flip":
        row = w - strategy.scale * (honest_uploads.sum(axis=0) / honest_uploads.shape[0] - w)  # sum / m is the mean
    else:  # fixed_vector; AttackStrategy admits no other kind
        row = np.asarray(strategy.vector, dtype=np.float64)
    return row[None].repeat(len(clients), axis=0)
