"""Byzantine upload strategies.

An attack is one rule that gives the whole Byzantine group of a round its
uploads: ``byzantine_upload`` returns one (f, d) block, a full model vector
per client of ``problem.byzantine_set``, or one (R, f, d) block for a group
of R runs with one attack kind and one honest set, and the engine converts
uploads to deltas before aggregation.  Omniscient kinds may read the honest
uploads of the same round.  The only random kind, ``gaussian_noise``, draws
client k's row of round t from its own stream keyed by (seed, k, t), so
every kind is deterministic given the seed and the round.

``noise_rows`` draws those rows for a block of rounds at once.  Keys that
fit uint32 words are hashed in one numpy pass that repeats what
``SeedSequence`` and ``PCG64`` do when ``default_rng([seed, k, t])`` seeds a
stream; each key's state is then set on one reused ``PCG64`` and its row
drawn by numpy's own ``Generator.standard_normal``, so every row keeps the
bits of its ``default_rng`` stream.  Other keys, and blocks too small to
pay for the hashing, seed each row with ``default_rng`` itself.

``noise_stream`` is a run's noise source: it seeds a gaussian_noise run's
rows a chunk of rounds at a time, in one ``noise_rows`` call per chunk, and
yields them round by round; the engine stacks a group's rows for
``byzantine_upload``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .errors import check, dimension_error, kind_error, normalize, real_error, reals_error, rule_errors
from .problems import Problem, descend

ATTACK_KINDS = ("honest_mimic", "escalating_outlier", "gaussian_noise", "sign_flip", "fixed_vector")

# A gaussian_noise run holds its noise one chunk of rounds at a time: at most
# _NOISE_KEYS rows and, unless one round has more, _NOISE_FLOATS floats.
_NOISE_KEYS, _NOISE_FLOATS = 256, 1 << 16
_VECTOR_KEYS = 12  # measured: below about this many keys, seeding each row with default_rng is faster
_PCG_MULT = 2549297995355413924 << 64 | 4865540595714422341
_MASK128 = (1 << 128) - 1


def _hash_constants(value: int, mult: int, count: int) -> np.ndarray:
    """(count, 2, 1) uint32: the (xor, multiplier) pair of each of ``count``
    successive SeedSequence hashes whose constant starts at ``value`` and is
    multiplied by ``mult`` mod 2**32 before each use."""
    pairs = []
    for _ in range(count):
        pairs.append((value, value * mult & 0xFFFFFFFF))
        value = pairs[-1][1]
    return np.array(pairs, dtype=np.uint32)[..., None]


_ENTROPY_HASHES = _hash_constants(0x43B0D7E5, 0x931E8875, 16)  # mix_entropy: 4 + 4 * 3 hashmix calls
_STATE_HASHES = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)     # generate_state: 8 uint32 words


def _hash(values: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """One SeedSequence hash of each row of ``values`` by its (xor, multiplier) pair."""
    values = (values ^ pairs[:, 0]) * pairs[:, 1]
    return values ^ (values >> 16)


def _pcg64_seeds(keys: np.ndarray) -> list:
    """(state, inc) of the PCG64 that ``default_rng([seed, k, t])`` builds,
    for each column (seed, k, t) of the (3, K) uint32 ``keys``: numpy's
    SeedSequence mixes the three words into a pool of four, draws eight
    words from it, and PCG64 seeds from them as two 128-bit numbers."""
    pool = _hash(np.concatenate((keys, np.zeros_like(keys[:1]))), _ENTROPY_HASHES[:4])
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        mixed = 0xCA01F9DD * pool[dst] - 0x4973F715 * _hash(pool[src], _ENTROPY_HASHES[4 + 3 * src : 7 + 3 * src])
        pool[dst] = mixed ^ (mixed >> 16)
    words = _hash(np.concatenate((pool, pool)), _STATE_HASHES).astype(np.uint64)
    seeds = []
    for high, low, seq_high, seq_low in (words[0::2] | words[1::2] << 32).T.tolist():
        inc = ((seq_high << 64 | seq_low) << 1 | 1) & _MASK128
        seeds.append(((((high << 64 | low) + inc) * _PCG_MULT + inc) & _MASK128, inc))
    return seeds


def noise_rows(seed, clients, t0: int, t1: int, d: int) -> np.ndarray:
    """The (t1 - t0, len(clients), d) standard normal rows of ``clients`` in
    rounds t0 <= t < t1: row [t - t0, i] is ``np.random.default_rng([seed,
    clients[i], t]).standard_normal(d)``, bit for bit.  A key that
    ``default_rng`` rejects raises its error."""
    block = np.empty((t1 - t0, len(clients), d))
    rows = block.reshape(block.shape[0] * block.shape[1], d)
    ints = (int, np.integer)
    words = (isinstance(seed, ints) and isinstance(t0, ints) and 0 <= seed < 2**32 and 0 <= t0 and t1 <= 2**32
             and all(0 <= k < 2**32 for k in clients))
    if words and rows.shape[0] >= _VECTOR_KEYS:
        keys = np.empty((3, t1 - t0, len(clients)), dtype=np.uint32)
        keys[0], keys[1], keys[2] = seed, clients, np.arange(t0, t1, dtype=np.uint32)[:, None]
        bitgen = np.random.PCG64(0)
        draw = np.random.Generator(bitgen).standard_normal
        pcg = {}
        state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
        for row, (pcg_state, inc) in zip(rows, _pcg64_seeds(keys.reshape(3, -1))):
            pcg["state"], pcg["inc"] = pcg_state, inc
            bitgen.state = state
            draw(out=row)
        return block
    for round_rows, t in zip(block, range(t0, t1)):
        for row, k in zip(round_rows, clients):
            # ints below 2**32 seed as the same words from a uint32 array, at less cost
            key = np.array([seed, k, t], dtype=np.uint32) if words else [seed, k, t]
            np.random.default_rng(key).standard_normal(d, out=row)
    return block


def noise_stream(strategy: AttackStrategy, problem: Problem, seed: int, T: int):
    """An iterator over the (f, d) standard normal rows of each round
    0 <= t < T of a gaussian_noise run, as ``byzantine_upload`` takes them
    for ``noise``; None for every other kind."""
    if strategy.kind != "gaussian_noise":
        return None
    clients, d = problem.byzantine_set, problem.d
    per_round = max(len(clients), 1)
    rounds = max(1, min(_NOISE_KEYS // per_round, _NOISE_FLOATS // (per_round * d)))
    return (row for t0 in range(0, T, rounds) for row in noise_rows(seed, clients, t0, min(t0 + rounds, T), d))


@dataclass(frozen=True)
class AttackStrategy:
    kind: str
    variance: float = 0.0   # gaussian_noise
    scale: float = 1.0      # sign_flip
    vector: Optional[tuple] = None  # fixed_vector

    @staticmethod
    def field_errors(values: dict) -> dict:
        needed = values.get("kind") == "fixed_vector"
        return rule_errors(values, {
            "kind": partial(kind_error, kinds=ATTACK_KINDS), "variance": partial(real_error, lo=0), "scale": real_error,
            "vector": lambda name, vector: reals_error(name, vector) if vector is not None else (
                f"{name} is required for a fixed_vector attack" if needed else None)})

    def __post_init__(self):
        check(*self.field_errors(vars(self)).values())
        normalize(self, variance=float, scale=float)
        if self.vector is not None:  # a scalar is a 1-vector, and stays a scalar
            entries = self.vector.tolist() if isinstance(self.vector, np.ndarray) else self.vector
            object.__setattr__(self, "vector", tuple(map(float, entries)) if np.ndim(entries) else float(entries))


def check_dimension(strategy: AttackStrategy, d: int) -> None:
    """Raise ParameterError unless a fixed_vector has ``d`` entries (a scalar is a 1-vector)."""
    check(dimension_error("attack vector", strategy.vector if strategy.kind == "fixed_vector" else None, d))


def byzantine_upload(
    strategy, problem: Problem, w: np.ndarray, gamma, H: int, t: int, seed, honest_uploads: np.ndarray,
    rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Uploads of round ``t`` from iterate ``w``: row i belongs to client
    ``problem.byzantine_set[i]``.  The kinds that send one vector return one
    copy of it per client.

    One call serves a group of R runs that share one attack kind and the
    honest set of ``problem``, any one of their problems: ``strategy`` is
    their ``Group``, ``gamma`` and ``seed`` hold one entry per run, ``w`` is
    their (R, d) iterates, ``honest_uploads`` their (R, d) mean honest
    uploads and ``rows`` their (R, f, d) rows, and the result is their
    (R, f, d) block (honest_mimic's is ``rows``, fixed_vector's the group's
    constant: copy it, do not write it).  One run's call, with its own
    AttackStrategy, (d,) iterate and (m, d) honest uploads, is a group of
    one and returns (f, d).

    ``rows`` are the round's rows of each Byzantine client that the caller
    already holds: the standard normal draws of a gaussian_noise attack, as
    ``noise_rows`` draws them, else the client's own H local GD steps from
    w, which honest_mimic sends.  One run may leave them None, and they are
    computed here.

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

    A row of escalating_outlier or sign_flip past the float range is inf or
    NaN without a warning: one run's call computes under ``np.errstate``,
    and the engine makes a group's call under its own.  The engine then ends
    that run as diverged.
    """
    if isinstance(strategy, AttackStrategy):  # one run is a group of one
        mean = np.add.reduce(honest_uploads, axis=0) / honest_uploads.shape[0]  # numpy's mean
        if rows is None and strategy.kind == "honest_mimic":
            rows = descend(problem, problem.byzantine_index, w, gamma, H)
        elif rows is None and strategy.kind == "gaussian_noise":
            rows = noise_rows(seed, problem.byzantine_set, t, t + 1, w.shape[0])[0]
        with np.errstate(over="ignore", invalid="ignore"):
            return byzantine_upload(Group([strategy], problem), problem, w[None], [gamma], H, t, [seed],
                                    mean[None], None if rows is None else rows[None])[0]
    kind, constant = strategy[0].kind, strategy.constant
    if kind == "honest_mimic":
        return rows
    if kind == "gaussian_noise":
        return rows * constant
    if kind == "fixed_vector":
        return constant
    if kind == "sign_flip":
        row = w - constant * (honest_uploads - w)
    else:  # escalating_outlier; AttackStrategy admits no other kind
        # (1 - gamma)^H stays one scalar per run: inf, not OverflowError, past the range
        factors = np.array([np.float64(1.0 - g) ** H for g in gamma])[:, None]
        row = problem.n * np.abs(factors * w) + t
    return row[:, None].repeat(len(problem.byzantine_set), axis=1)


class Group(tuple):
    """The strategies of R runs with one attack kind, as the group form of
    ``byzantine_upload`` takes them, with their rule's per-run ``constant``
    stacked once in the shape it meets, so that no round broadcasts it:
    sign_flip's scales (R, d), gaussian_noise's standard deviations and
    fixed_vector's block (R, f, d), else None."""

    def __new__(cls, strategies, problem: Problem):
        group = super().__new__(cls, strategies)
        kind, block, group.constant = strategies[0].kind, (len(problem.byzantine_set), problem.d), None
        if kind == "sign_flip":
            group.constant = np.array([np.full(problem.d, s.scale) for s in strategies])
        elif kind == "gaussian_noise":
            group.constant = np.array([np.full(block, math.sqrt(s.variance)) for s in strategies])
        elif kind == "fixed_vector":
            group.constant = np.array([np.broadcast_to(s.vector, block) for s in strategies], dtype=np.float64)
        return group
