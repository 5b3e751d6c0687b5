"""Byzantine upload strategies: formulas, determinism, the honest-mimic
identity with the client pipeline, and exact agreement of the one-block
``byzantine_upload`` with the per-client oracle it replaced."""

import math
import re
from dataclasses import dataclass

import numpy as np
import pytest

from fedrobust import attacks
from fedrobust.attacks import ATTACK_KINDS, Group, noise_rows
from fedrobust import (
    AttackStrategy,
    ParameterError,
    Problem,
    Schedule,
    byzantine_upload,
    descend,
    homogeneous_quadratic_problem,
    random_quadratic_problem,
    stepsize_at,
    two_group_quadratic_problem,
)


# ---------------------------------------------------------------------------
# oracle: the per-client attack layer, one context and one upload per
# Byzantine client per round, kept verbatim


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


def oracle_upload(strategy: AttackStrategy, ctx: AttackContext, problem: Problem, k: int) -> np.ndarray:
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


def oracle_block(strategy, problem, w, gamma, H, t, seed, honest_uploads, f_hat=1):
    """The rows the old engine loop wrote into uploads[k] for each k in
    problem.byzantine_set, stacked in that order."""
    rows = []
    for k in problem.byzantine_set:
        ctx = AttackContext(
            t=t, w_t=w, gamma=gamma, H=H, n=problem.n, f=problem.f, f_hat=f_hat,
            honest_uploads=honest_uploads, rng=np.random.default_rng([seed, k, t]),
        )
        rows.append(oracle_upload(strategy, ctx, problem, k))
    return np.array(rows).reshape(len(rows), w.shape[0])


# ---------------------------------------------------------------------------
# oracle: the group form that built each kind's per-run constants every
# round, kept verbatim (``strategy`` is a list of AttackStrategy)


def oracle_group_upload(strategy, problem, w, gamma, H, t, seed, honest_uploads, rows):
    kind = strategy[0].kind
    if kind == "honest_mimic":
        return rows
    if kind == "gaussian_noise":
        return rows * np.array([math.sqrt(s.variance) for s in strategy])[:, None, None]
    if kind == "fixed_vector":
        row = np.array([s.vector for s in strategy], dtype=np.float64).reshape(w.shape)
    else:  # escalating_outlier or sign_flip; AttackStrategy admits no other kind
        row = oracle_computed_rows(strategy, problem.n, w, gamma, H, t, honest_uploads)
    return row[:, None].repeat(len(problem.byzantine_set), axis=1)


def oracle_computed_rows(strategies, n, w, gamma, H, t, means):
    """The (R, d) uploads of a group of escalating_outlier or sign_flip runs."""
    if strategies[0].kind == "escalating_outlier":
        # (1 - gamma)^H stays one scalar per run: inf, not OverflowError, past the range
        factors = np.array([np.float64(1.0 - g) ** H for g in gamma])[:, None]
        return n * np.abs(factors * w) + t
    return w - np.array([s.scale for s in strategies], dtype=np.float64)[:, None] * (means - w)


# ---------------------------------------------------------------------------
# helpers


def flat_problem(n, f, d, honest_set=None):
    """Every client holds sum_j [w]_j^2 / 2 in d dimensions."""
    return Problem(f=f, honest_set=honest_set, curvature=np.full(d, 0.5), centers=np.zeros((n, d)),
                   G2=0.0, l_star=0.0)


def upload(strategy, problem, w, gamma=0.1, H=1, t=0, seed=0, honest=None):
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if honest is None:
        honest = np.tile(w, (problem.n - problem.f, 1))
    return byzantine_upload(strategy, problem, w, gamma, H, t, seed, np.asarray(honest, dtype=float))


MIMIC = AttackStrategy("honest_mimic")
OUTLIER = AttackStrategy("escalating_outlier")


# ---------------------------------------------------------------------------
# the one-block layer equals the per-client oracle


STRATEGIES = [
    MIMIC,
    OUTLIER,
    AttackStrategy("gaussian_noise", variance=2.0),
    AttackStrategy("gaussian_noise", variance=0.0),
    AttackStrategy("sign_flip", scale=1.5),
    AttackStrategy("fixed_vector", vector=(0.5, -3.0, 2.25, 1e-3, 7.0)),
]


@pytest.mark.parametrize("strategy_5d", STRATEGIES, ids=lambda s: f"{s.kind}-{s.variance}")
def test_byzantine_upload_equals_stacked_oracle_exactly(strategy_5d):
    n = 8
    for d in (1, 5):
        strategy = strategy_5d
        if strategy.kind == "fixed_vector":
            strategy = AttackStrategy("fixed_vector", vector=strategy.vector[:d])
        for f in (1, 3):
            # default set (Byzantine clients last) and one whose Byzantine
            # clients are spread out
            byzantine = (1, 4, 6)[:f]
            for honest_set in (None, tuple(k for k in range(n) if k not in byzantine)):
                problem = random_quadratic_problem(n, f, d, 1.0, 2.0, seed=d + f, honest_set=honest_set)
                assert honest_set is None or problem.byzantine_set == byzantine
                w = np.random.default_rng(d * f).normal(size=d)
                for H in (1, 4):
                    honest = descend(problem, problem.honest_set, w, 0.05, H)
                    for t in (0, 7):
                        for seed in (0, 11):
                            got = byzantine_upload(strategy, problem, w, 0.05, H, t, seed, honest)
                            want = oracle_block(strategy, problem, w, 0.05, H, t, seed, honest)
                            assert got.shape == (f, d)
                            assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", ATTACK_KINDS)
def test_constants_stacked_once_equal_the_per_round_form(kind):
    # one Group of three runs serves eight rounds, as the engine holds it; the
    # stepsizes are a step_wise schedule's, written in place each round, so an
    # escalating outlier's factor (1 - gamma)^H must follow them
    problem = random_quadratic_problem(8, 3, 4, 1.0, 2.0, seed=2, honest_set=(0, 2, 3, 5, 7))
    strategies = [AttackStrategy(kind, variance=0.5 + r, scale=1.5 - r,
                                 vector=(r, -1.0, 2.5, 1e-3) if kind == "fixed_vector" else None) for r in range(3)]
    schedules = [Schedule("step_wise", gamma=gamma) for gamma in (0.1, 0.05, 0.2)]
    group, steps, seeds, H = Group(strategies, problem), np.empty(3), [0, 1, 2], 3
    rng = np.random.default_rng(7)
    for t in range(8):
        previous = steps.copy()
        steps[:] = [stepsize_at(schedule, t, 8, problem.L, H) for schedule in schedules]
        w, means, rows = rng.normal(size=(3, 4)), rng.normal(size=(3, 4)), rng.normal(size=(3, 3, 4))
        got = byzantine_upload(group, problem, w, steps, H, t, seeds, means, rows)
        want = oracle_group_upload(strategies, problem, w, steps, H, t, seeds, means, rows)
        assert got.shape == want.shape == (3, 3, 4) and got.tobytes() == want.tobytes(), t
        if kind == "escalating_outlier" and t in (4, 6):  # the stepsizes changed this round
            stale = oracle_group_upload(strategies, problem, w, previous, H, t, seeds, means, rows)
            assert not np.array_equal(got, stale)
    assert (group.constant is None) == (kind in ("honest_mimic", "escalating_outlier"))


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: f"{s.kind}-{s.variance}")
def test_no_byzantine_clients_gives_empty_block(strategy):
    assert upload(strategy, flat_problem(4, 0, 5), np.ones(5), t=2).shape == (0, 5)


# ---------------------------------------------------------------------------
# per-kind formulas


def test_honest_mimic_matches_local_descent():
    q = homogeneous_quadratic_problem(5, 1)
    assert upload(MIMIC, q, 1.0, gamma=0.1, H=2)[0, 0] == pytest.approx(0.81, abs=1e-15)

    assert upload(MIMIC, q, 1.7, gamma=0.0, H=3)[0, 0] == 1.7

    p = two_group_quadratic_problem(10, 2, 3, 1.0)
    c = p.L / 2
    for gamma, H in ((0.05, 1), (0.01, 4)):
        centered_client = p.n - 1  # holds the unshifted quadratic
        want = (1 - 2 * c * gamma) ** H
        row = upload(MIMIC, p, 1.0, gamma=gamma, H=H)[p.byzantine_set.index(centered_client)]
        assert row[0] == pytest.approx(want, rel=1e-12)


def test_honest_mimic_bitwise_identical_to_engine_pipeline():
    # same losses, different Byzantine clients: (8, 9) in p, (5, 9) in q
    p = two_group_quadratic_problem(10, 2, 3, 1.0)
    q = two_group_quadratic_problem(10, 2, 3, 1.0, honest_set=(0, 1, 2, 3, 4, 6, 7, 8))
    for mimic, engine, k in ((q, p, 5), (p, q, 8)):
        # the engine descends all honest clients at once
        honest_rows = descend(engine, engine.honest_set, np.array([0.37]), 0.02, 7)
        via_attack = upload(MIMIC, mimic, 0.37, gamma=0.02, H=7)[mimic.byzantine_set.index(k)]
        via_engine = honest_rows[engine.honest_set.index(k)]
        assert np.array_equal(via_attack, via_engine)


def test_escalating_outlier_formula():
    p5, p4 = homogeneous_quadratic_problem(5, 2), homogeneous_quadratic_problem(4, 1)
    assert upload(OUTLIER, p5, 0.0, t=5)[0, 0] == 5.0
    assert upload(OUTLIER, p5, 1.0, gamma=0.1, H=1, t=0)[0, 0] == pytest.approx(4.5)
    assert upload(OUTLIER, p4, -2.0, gamma=0.5, H=1, t=7)[0, 0] == pytest.approx(11.0)
    assert np.array_equal(upload(OUTLIER, p5, 1.0, t=3), np.full((2, 1), 5 * 0.9 + 3))


def test_escalating_outlier_monotone_in_round():
    p = homogeneous_quadratic_problem(5, 2)
    values = [upload(OUTLIER, p, 3.0, t=t)[0, 0] for t in range(10)]
    diffs = np.diff(values)
    assert np.all(diffs == 1.0)  # slope one in t for fixed w_t


def test_escalating_outlier_coordinatewise():
    out = upload(OUTLIER, flat_problem(4, 1, 2), np.array([1.0, -2.0]), gamma=0.5, H=1, t=2)
    assert out[0] == pytest.approx([4 * 0.5 + 2, 4 * 1.0 + 2])


def test_gaussian_noise_statistics_and_determinism():
    noise = AttackStrategy("gaussian_noise", variance=5.0)
    assert np.array_equal(upload(AttackStrategy("gaussian_noise"), flat_problem(5, 2, 4), np.ones(4)),
                          np.zeros((2, 4)))

    # client 0 is the Byzantine one, so its row comes from the stream [123, 0, 0]
    p = flat_problem(3, 1, 10 ** 5, honest_set=(1, 2))
    draws = upload(noise, p, np.zeros(10 ** 5), seed=123)[0]
    assert abs(draws.mean()) < 0.05
    assert abs(draws.var() - 5.0) < 0.15

    again = upload(noise, p, np.zeros(10 ** 5), seed=123)[0]
    assert np.array_equal(draws, again)

    for variance in (-1.0, -2.0):
        with pytest.raises(ParameterError):
            AttackStrategy("gaussian_noise", variance=variance)


def test_gaussian_noise_rows_equal_their_list_seeded_streams():
    # seeds at and past 2**32 take more than one SeedSequence word each
    p = flat_problem(7, 3, 4, honest_set=(0, 2, 3, 5))
    assert p.byzantine_set == (1, 4, 6)
    w = np.zeros(4)
    for seed in (0, 2**32 - 1, 2**32, 2**64 + 5):
        for t in (0, 1, 10**6):
            for variance in (0.0, 5.0):
                got = upload(AttackStrategy("gaussian_noise", variance=variance), p, w, t=t, seed=seed)
                want = np.array([np.sqrt(variance) * np.random.default_rng([seed, k, t]).standard_normal(4)
                                 for k in p.byzantine_set])
                assert got.tobytes() == want.tobytes()
    # keys the list form rejects or reads as hex stay so
    for seed in (-1, 2.5, "0x10"):
        try:
            want = np.random.default_rng([seed, 1, 0]).standard_normal(4)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)):
                upload(AttackStrategy("gaussian_noise", variance=5.0), p, w, seed=seed)
        else:
            got = upload(AttackStrategy("gaussian_noise", variance=1.0), p, w, seed=seed)
            assert got[0].tobytes() == want.tobytes()  # client 1's row


def oracle_noise(seed, clients, t0, t1, d):
    """The rows of ``noise_rows(seed, clients, t0, t1, d)``, one list-seeded stream each."""
    rows = [np.random.default_rng([seed, k, t]).standard_normal(d) for t in range(t0, t1) for k in clients]
    return np.array(rows).reshape(t1 - t0, len(clients), d)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5])
def test_noise_rows_equal_their_default_rng_streams(seed, monkeypatch):
    hashed = []
    pcg64_seeds = attacks._pcg64_seeds
    monkeypatch.setattr(attacks, "_pcg64_seeds", lambda keys: hashed.append(keys.shape[1]) or pcg64_seeds(keys))
    crossover = attacks._VECTOR_KEYS
    for clients in ((3,), (0, 6), (1, 2, 4, 7, 8)):
        f = len(clients)
        # 1 round, the most rounds below the crossover, the fewest at or above
        # it, and a chunk; from t0 = 2**32 - 3 the block crosses 2**32
        for rounds in sorted({1, max(1, (crossover - 1) // f), -(-crossover // f), 85}):
            for t0 in (0, 10**6, 2**32 - 3, 2**32 + 7):
                for d in (1, 5):
                    before = len(hashed)
                    got = noise_rows(seed, clients, t0, t0 + rounds, d)
                    assert got.shape == (rounds, f, d)
                    assert got.tobytes() == oracle_noise(seed, clients, t0, t0 + rounds, d).tobytes()
                    # hashed in one pass iff its keys fit uint32 words and reach the crossover
                    words = seed < 2**32 and t0 + rounds <= 2**32
                    assert hashed[before:] == ([rounds * f] if words and rounds * f >= crossover else [])


def test_attack_parameters_reject_non_real_values():
    for name, kind in (("variance", "gaussian_noise"), ("scale", "sign_flip")):
        for value in ("5", None, True, [1.0]):
            with pytest.raises(ParameterError, match=re.escape(f"{name} must be a real number, got {value!r}")):
                AttackStrategy(kind, **{name: value})
    assert AttackStrategy("gaussian_noise", variance=np.float32(2.0)).variance == 2.0
    assert AttackStrategy("sign_flip", scale=3).scale == 3


def test_attack_parameters_reject_nan():
    nan, inf = float("nan"), float("inf")
    for variance, message in ((nan, "variance = nan violates 0 <= variance"),
                              (-inf, "variance = -inf violates 0 <= variance"), (inf, "variance must be finite")):
        with pytest.raises(ParameterError, match=re.escape(message)):
            AttackStrategy("gaussian_noise", variance=variance)
    for scale in (nan, inf):
        with pytest.raises(ParameterError, match="scale"):
            AttackStrategy("sign_flip", scale=scale)
    for vector, i in (((inf,), 0), ((1.0, nan), 1), ((0.0, -inf), 1)):
        with pytest.raises(ParameterError, match=re.escape(f"vector[{i}] must be finite")):
            AttackStrategy("fixed_vector", vector=vector)


def test_sign_flip_formulas():
    w = np.array([1.0, 2.0])
    honest = np.tile(w + 0.5, (3, 1))  # every honest delta is 0.5
    p = flat_problem(5, 2, 2)

    def flip(scale):
        return upload(AttackStrategy("sign_flip", scale=scale), p, w, honest=honest)[0]

    assert np.array_equal(flip(0.0), w)
    assert flip(1.0) == pytest.approx(w - 0.5)
    one = flip(1.0) - w
    two = flip(2.0) - w
    assert two == pytest.approx(2 * one)


def test_dispatch_and_fixed_vector():
    out = upload(AttackStrategy("fixed_vector", vector=(3.0, -1.0)), flat_problem(5, 2, 2), np.zeros(2))
    assert np.array_equal(out, [[3.0, -1.0], [3.0, -1.0]])
    with pytest.raises(ParameterError):
        AttackStrategy("fixed_vector")
    with pytest.raises(ParameterError):
        AttackStrategy("unknown_attack")


def test_strategies_deterministic_given_seed_and_context():
    p = homogeneous_quadratic_problem(3, 1)
    for strategy in (
        AttackStrategy("honest_mimic"),
        AttackStrategy("escalating_outlier"),
        AttackStrategy("gaussian_noise", variance=2.0),
        AttackStrategy("sign_flip", scale=1.5),
    ):
        a = upload(strategy, p, 0.4, t=3, seed=9)
        b = upload(strategy, p, 0.4, t=3, seed=9)
        assert np.array_equal(a, b)
