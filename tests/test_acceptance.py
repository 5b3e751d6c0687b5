"""Acceptance suite.

Each test exercises one acceptance criterion end to end at its stated
tolerance and prints one PASS/FAIL line (run with ``pytest -s`` to see the
lines as they complete).
"""

import json
import math
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from fedrobust import (
    AggregatorSpec,
    AttackStrategy,
    RunConfig,
    Schedule,
    aggregate,
    audit_profile,
    cwtm_break_witness,
    error_ratio,
    grad_ceiling,
    heterogeneity_at,
    homogeneous_quadratic_problem,
    honest_objective,
    kappa_guarantee,
    lower_bound_witness,
    random_quadratic_problem,
    run,
    run_batch,
    two_group_quadratic_problem,
)
from fedrobust.cli import parse_config, run_sweep

GM_TOL = 1e-9


@contextmanager
def criterion(name, budget_seconds=None):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    if budget_seconds is not None and elapsed > budget_seconds:
        print(f"ACCEPTANCE {name}: FAIL (over {budget_seconds}s budget: {elapsed:.1f}s)")
        raise AssertionError(f"{name} exceeded runtime budget: {elapsed:.1f}s > {budget_seconds}s")
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s)")


def witness_grid():
    for n in (4, 6, 10, 16):
        top = -(-n // 2) - 1  # ceil(n/2) - 1
        for f_hat in range(1, top + 1):
            for f in range(0, f_hat + 1):
                yield n, f, f_hat


def test_criterion_1_witness_tightness():
    with criterion("1 witness-tightness", budget_seconds=10):
        for n, f, f_hat in witness_grid():
            w = lower_bound_witness(n, f, f_hat)
            expected = f_hat / (n - f - f_hat)
            exact_specs = (
                AggregatorSpec("cwtm", f_hat=f_hat),
                AggregatorSpec("cwmed"),
                AggregatorSpec("krum", f_hat=f_hat),
                AggregatorSpec("krum", f_hat=f_hat, pre_nnm=True),
            )
            for spec in exact_specs:
                got = error_ratio(spec, w.points, w.honest_set)
                assert abs(got - expected) <= 1e-12, (spec.name, n, f, f_hat, got, expected)
            gm = AggregatorSpec("gm", gm_tolerance=GM_TOL)
            got = error_ratio(gm, w.points, w.honest_set)
            assert abs(got - expected) <= 10 * GM_TOL, ("gm", n, f, f_hat, got, expected)


def test_criterion_2_robustness_ceilings():
    with criterion("2 robustness-ceilings", budget_seconds=120):
        for n in (6, 10, 16):
            top = -(-n // 2) - 1
            for d in (1, 5):
                for i in range(1000):
                    rng = np.random.default_rng([2025, n, d, i])
                    radius = rng.uniform(0.1, 10.0)
                    cloud = radius * rng.standard_normal((n, d))
                    f_hat = int(rng.integers(1, top + 1))
                    specs = (
                        AggregatorSpec("cwtm", f_hat=f_hat),
                        AggregatorSpec("krum", f_hat=f_hat),
                        AggregatorSpec("krum", f_hat=f_hat, pre_nnm=True),
                    )
                    # one call audits every spec at every f on this cloud
                    cwtm, krum, composite = audit_profile(specs, cloud, range(f_hat + 1))
                    cwtm_ceiling = kappa_guarantee("cwtm", n, f_hat, f_hat)
                    krum_ceiling = kappa_guarantee("krum", n, f_hat, f_hat)
                    for f in range(f_hat + 1):
                        # exact estimation at f = f_hat, monotone tolerance below it
                        got = cwtm[f].worst_ratio
                        assert got <= cwtm_ceiling + 1e-9, ("cwtm", n, d, i, f, f_hat, got)
                        got = krum[f].worst_ratio
                        assert got <= krum_ceiling + 1e-9, ("krum", n, d, i, f, f_hat, got)
                        composite_ceiling = 84 * f_hat / (n - f - f_hat)
                        got = composite[f].worst_ratio
                        assert got <= composite_ceiling + 1e-9, ("krum_nnm", n, d, i, f, f_hat, got)


def test_criterion_3_cwtm_underestimation_break():
    with criterion("3 cwtm-underestimation-break", budget_seconds=1):
        w = cwtm_break_witness(5, 2, 1)
        out = aggregate(AggregatorSpec("cwtm", f_hat=1), w.points)
        assert out[0] == 1 / 3
        ratio = error_ratio(AggregatorSpec("cwtm", f_hat=1), w.points, w.honest_set)
        assert math.isinf(ratio)

        w16 = cwtm_break_witness(16, 4, 1)
        out16 = aggregate(AggregatorSpec("cwtm", f_hat=1), w16.points)
        assert out16[0] == 3 / 14


def test_criterion_4_divergence_under_underestimation():
    with criterion("4 divergence-under-underestimation", budget_seconds=5):
        problem = homogeneous_quadratic_problem(5, f=2)
        config = RunConfig(
            problem=problem,
            aggregator=AggregatorSpec("cwtm", f_hat=1),
            attack=AttackStrategy("escalating_outlier"),
            T=5000, H=1,
            schedule=Schedule("constant", gamma=0.1),
            w0=np.array([1.0]), seed=0,
        )
        record = run(config)
        assert record.diverged
        ts = np.arange(record.rows)
        assert np.all(record.iterates[1:, 0] >= (ts[1:] - 1) / 3.0)
        assert record.loss_gap.max() > 1e6
        assert record.diverged_round is not None and record.diverged_round <= 5000


def test_criterion_5_convergence_floor_attained():
    with criterion("5 convergence-floor-attained", budget_seconds=10):
        problem = two_group_quadratic_problem(10, 2, 3, 1.0)
        c = problem.L / 2  # curvature scale of the construction
        gamma, H, T = 0.01, 5, 2000
        gap_expected = 3 * 1.0 / (2 * problem.mu * 5)
        for agg in (
            AggregatorSpec("krum", f_hat=3, pre_nnm=True),
            AggregatorSpec("cwtm", f_hat=3),
        ):
            config = RunConfig(
                problem=problem, aggregator=agg, attack=AttackStrategy("honest_mimic"),
                T=T, H=H, schedule=Schedule("constant", gamma=gamma),
                w0=np.array([1.0]), seed=0,
            )
            record = run(config)
            assert not record.diverged
            assert abs(record.final_grad_metric - 0.600000) <= 1e-6, agg.name
            assert abs(record.final_loss_gap - 0.145237) <= 1e-5, agg.name
            assert abs(record.final_loss_gap - gap_expected) <= 1e-5
            contraction = (1 - 2 * c * gamma) ** H
            expected = contraction ** np.arange(record.rows)
            assert np.abs(record.iterates[:, 0] - expected).max() <= 1e-10, agg.name

        # critical stepsize: even local-step count freezes the iterate ...
        frozen = RunConfig(
            problem=problem, aggregator=AggregatorSpec("cwtm", f_hat=3),
            attack=AttackStrategy("honest_mimic"), T=200, H=2,
            schedule=Schedule("constant", gamma=1.0 / c), w0=np.array([1.0]), seed=0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            record = run(frozen)
        assert np.all(record.iterates[:, 0] == 1.0)

        # ... an odd count alternates its sign exactly ...
        alternating = RunConfig(
            problem=problem, aggregator=AggregatorSpec("cwtm", f_hat=3),
            attack=AttackStrategy("honest_mimic"), T=200, H=1,
            schedule=Schedule("constant", gamma=1.0 / c), w0=np.array([1.0]), seed=0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            record = run(alternating)
        assert np.all(record.iterates[:, 0] == (-1.0) ** np.arange(record.rows))

        # ... and a 10% overshoot diverges.
        overshoot = RunConfig(
            problem=problem, aggregator=AggregatorSpec("cwtm", f_hat=3),
            attack=AttackStrategy("honest_mimic"), T=2000, H=5,
            schedule=Schedule("constant", gamma=1.1 / c), w0=np.array([1.0]), seed=0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            record = run(overshoot)
        assert record.diverged


def test_criterion_6_convergence_ceiling_respected():
    with criterion("6 convergence-ceiling-respected", budget_seconds=60):
        kappa = 50.4  # composite guarantee at n=10, f=2, f_hat=3
        attacks = (
            AttackStrategy("honest_mimic"),
            AttackStrategy("gaussian_noise", variance=5.0),
            AttackStrategy("sign_flip", scale=1.0),
        )
        problems = [random_quadratic_problem(10, 2, 5, G_target=1.0, radius=5.0, seed=1000 + i) for i in range(20)]
        for attack in attacks:
            # one lockstep batch per attack: its 60 (problem, T) runs
            configs = [
                RunConfig(
                    problem=problem,
                    aggregator=AggregatorSpec("krum", f_hat=3, pre_nnm=True),
                    attack=attack, T=T, H=1,
                    schedule=Schedule("grad_cube"),
                    w0=np.zeros(5), seed=i, kappa=kappa,
                )
                for i, problem in enumerate(problems) for T in (8, 64, 512)
            ]
            for config, record in zip(configs, run_batch(configs)):
                i, T = config.seed, config.T
                assert not record.diverged
                ceiling = grad_ceiling(
                    kappa, config.problem.L, 1, T, float(record.loss_gap[0]), 1.0
                )
                avg = float(record.running_avg[T - 1])
                assert avg <= ceiling, (i, attack.kind, T, avg, ceiling)


def test_criterion_7_problem_family_correctness():
    with criterion("7 problem-family-correctness", budget_seconds=30):
        families = (
            two_group_quadratic_problem(10, 2, 3, 1.0),
            homogeneous_quadratic_problem(5),
            random_quadratic_problem(10, 2, 5, G_target=1.0, radius=3.0, seed=21),
        )
        rng = np.random.default_rng(99)
        for problem in families:
            for _ in range(100):
                w = rng.normal(size=problem.d) * rng.uniform(0.1, 5)
                value, grad = honest_objective(problem, w)
                h = 1e-5 * (1 + np.linalg.norm(w))
                fd = np.zeros_like(w)
                for j in range(problem.d):
                    up, down = w.copy(), w.copy()
                    up[j] += h
                    down[j] -= h
                    fd[j] = (honest_objective(problem, up)[0] - honest_objective(problem, down)[0]) / (2 * h)
                denom = max(1.0, float(np.linalg.norm(grad)))
                assert np.linalg.norm(grad - fd) / denom <= 1e-6

                residual = value - problem.l_star - float(grad @ grad) / (2 * problem.mu)
                assert abs(residual) <= 1e-10

                got = heterogeneity_at(problem, w)
                assert abs(got - problem.G2) <= 1e-9


def test_criterion_8_monotone_tradeoff(tmp_path):
    with criterion("8 monotone-tradeoff", budget_seconds=30):
        config = parse_config(json.dumps({
            "schema_version": 1,
            "kind": "sweep",
            "problem": {"kind": "two_group_quadratic", "n": 10, "G": 1.0},
            "aggregator": {"kind": "cwtm"},
            "attack": {"kind": "honest_mimic"},
            "engine": {"T": 600, "H": 1,
                       "schedule": {"kind": "constant", "gamma": 0.01}, "w0": 1.0},
            "grid": {"f_hat": [2, 3, 4], "f": [2], "seeds": [0]},
        }))
        failures = run_sweep(config, tmp_path / "sweep8", quiet=True)
        assert failures == 0
        summary = json.loads((tmp_path / "sweep8" / "summary.json").read_text())
        terminals = []
        for cell in summary["cells"]:
            f, f_hat = cell["f"], cell["f_hat"]
            floor = f_hat * 1.0 / (10 - f - f_hat)
            measured = cell["terminal"]["grad_metric"]
            assert abs(measured - floor) <= 0.01 * floor, (f_hat, measured, floor)
            terminals.append((f_hat, measured))
        terminals.sort()
        values = [v for _, v in terminals]
        assert all(b >= a for a, b in zip(values, values[1:]))


def test_criterion_9_reproducibility(tmp_path):
    with criterion("9 reproducibility", budget_seconds=30):
        config = parse_config(json.dumps({
            "schema_version": 1,
            "kind": "sweep",
            "problem": {"kind": "random_quadratic", "n": 8, "f": 2, "d": 3,
                        "G_target": 1.0, "radius": 2.0},
            "aggregator": {"kind": "krum", "pre_nnm": True},
            "attack": {"kind": "gaussian_noise", "variance": 5.0},
            "engine": {"T": 50, "H": 2,
                       "schedule": {"kind": "constant", "gamma": 0.005}, "w0": 1.0},
            "grid": {"f_hat": [2, 3], "f": [1, 2], "seeds": [0, 1]},
        }))
        run_sweep(config, tmp_path / "a", quiet=True)
        run_sweep(config, tmp_path / "b", quiet=True)
        first = (tmp_path / "a" / "results.csv").read_bytes()
        second = (tmp_path / "b" / "results.csv").read_bytes()
        assert first == second

        lines = first.decode().splitlines()
        header = lines[0].split(",")
        digest_col = header.index("config_digest")
        digests = {row.split(",")[0]: row.split(",")[digest_col] for row in lines[1:]}
        assert all(len(d) == 16 for d in digests.values())
        assert len(set(digests.values())) == len(digests)  # one digest per cell
