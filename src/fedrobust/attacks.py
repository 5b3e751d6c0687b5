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
        if self.variance < 0:
            raise ParameterError("variance must be >= 0")
        if self.kind == "fixed_vector" and self.vector is None:
            raise ParameterError("fixed_vector attack needs a vector")


def byzantine_upload(
    strategy: AttackStrategy, problem: Problem, w: np.ndarray, gamma: float, H: int,
    t: int, seed: int, honest_uploads: np.ndarray,
) -> np.ndarray:
    """Uploads of round ``t`` from iterate ``w``: row i belongs to client
    ``problem.byzantine_set[i]``.  The kinds that send one vector return a
    read-only broadcast of it.

    honest_mimic:       H local GD steps on each Byzantine client's own loss.
    escalating_outlier: n*|(1-gamma)^H w| + t per coordinate; it grows with
                        the round, so a trimmed mean with too small a
                        robustness degree keeps averaging it in and blows up.
    gaussian_noise:     i.i.d. N(0, variance) entries, client k's row drawn
                        from ``default_rng([seed, k, t])``.
    sign_flip:          w - scale * (mean honest delta), the negated honest
                        direction.
    fixed_vector:       the strategy's vector.
    """
    clients, d = problem.byzantine_set, w.shape[0]
    if strategy.kind == "honest_mimic":
        return descend(problem, clients, w, gamma, H)
    if strategy.kind == "gaussian_noise":
        std = np.sqrt(strategy.variance)
        rows = [std * np.random.default_rng([seed, k, t]).standard_normal(d) for k in clients]
        return np.array(rows).reshape(len(clients), d)
    if strategy.kind == "escalating_outlier":
        row = problem.n * np.abs((1.0 - gamma) ** H * w) + t
    elif strategy.kind == "sign_flip":
        row = w - strategy.scale * (honest_uploads.mean(axis=0) - w)
    else:  # fixed_vector; AttackStrategy admits no other kind
        row = np.asarray(strategy.vector, dtype=np.float64)
    return np.broadcast_to(row, (len(clients), d))
