"""Closed-form bound calculators and their internal consistency."""

import numpy as np
import pytest

from fedrobust import (
    ParameterError,
    convergence_floor,
    gap_ceiling,
    grad_ceiling,
    kappa_composite_chain,
    kappa_guarantee,
    kappa_lower_bound,
)


def test_kappa_guarantee_exact_estimation_row():
    assert kappa_guarantee("cwtm", 10, 2, 2) == pytest.approx(8 / 3, rel=1e-12)  # (12/6)*(8/6)
    assert kappa_guarantee("krum", 10, 3, 3) == pytest.approx(10.5, rel=1e-12)   # 6*7/4
    assert kappa_guarantee("gm", 10, 2, 2) == pytest.approx(4 * (8 / 6) ** 2, rel=1e-12)
    assert kappa_guarantee("cwmed", 10, 2, 2) == kappa_guarantee("gm", 10, 2, 2)


def test_kappa_guarantee_no_byzantine_row():
    for n, f_hat in ((5, 1), (12, 4), (33, 7)):
        assert kappa_guarantee("gm", n, 0, f_hat) == 1.0
        assert kappa_guarantee("cwtm", n, 0, f_hat) == pytest.approx(f_hat / (n - f_hat))
        half = (n - 1) // 2
        assert kappa_guarantee("cwmed", n, 0, f_hat) == pytest.approx(half / (n - half))


def test_kappa_guarantee_composite_row_and_errors():
    assert kappa_guarantee("krum_nnm", 10, 2, 3) == pytest.approx(84 * 3 / 5)
    with pytest.raises(ParameterError):
        kappa_guarantee("krum", 10, 0, 2)  # no known value in that regime
    with pytest.raises(ParameterError):
        kappa_guarantee("cwtm", 10, 1, 3)  # neither f=0 nor f=f_hat
    with pytest.raises(ParameterError):
        kappa_guarantee("cwtm", 10, 5, 5)  # out of range


def test_kappa_lower_bound_examples():
    assert kappa_lower_bound(10, 2, 3) == pytest.approx(0.6)
    assert kappa_lower_bound(12, 0, 0) == 0.0
    assert kappa_lower_bound(10, 3, 3) == pytest.approx(0.75)
    with pytest.raises(ParameterError):
        kappa_lower_bound(10, 4, 3)


def test_composite_chain_examples():
    chain = kappa_composite_chain(10, 2, 3)
    assert chain.krum_kappa == pytest.approx(9.6)
    assert chain.boosted_kappa == pytest.approx(12 * 3 * 10.6 / 8)
    assert chain.boosted_kappa == pytest.approx(47.7)
    assert chain.ceiling == pytest.approx(50.4)

    degenerate = kappa_composite_chain(10, 3, 3)
    assert degenerate.krum_kappa == pytest.approx(10.5)
    assert degenerate.ceiling == pytest.approx(63.0)

    empty = kappa_composite_chain(20, 0, 0)
    assert empty.boosted_kappa == 0.0
    assert empty.ceiling == 0.0


def test_chain_consistency_exhaustive_grid():
    for n in range(2, 51):
        for f_hat in range((n - 1) // 2 + 1):
            for f in range(f_hat + 1):
                chain = kappa_composite_chain(n, f, f_hat)
                assert chain.boosted_kappa <= chain.ceiling + 1e-12
                # the lower bound sits a factor 84 under the ceiling
                assert chain.ceiling == pytest.approx(84 * kappa_lower_bound(n, f, f_hat), rel=1e-12)


def test_monotonicity_in_f_hat():
    for n in (6, 10, 16, 50):
        for f in range(0, (n - 1) // 2):
            lows, floors = [], []
            for f_hat in range(max(f, 1), (n - 1) // 2 + 1):
                lows.append(kappa_lower_bound(n, f, f_hat))
                floors.append(convergence_floor(n, f, f_hat, G=1.0, mu=1.0)[0])
            assert all(b > a for a, b in zip(lows, lows[1:]))
            assert all(b > a for a, b in zip(floors, floors[1:]))


def test_specializations_match_known_rows():
    for n in (5, 9, 16):
        for f in range(1, (n - 1) // 2 + 1):
            assert kappa_lower_bound(n, f, f) == pytest.approx(f / (n - 2 * f))
        for f_hat in range(1, (n - 1) // 2 + 1):
            assert kappa_lower_bound(n, 0, f_hat) == pytest.approx(f_hat / (n - f_hat))


def test_convergence_floor_examples():
    mu = 8 / np.sqrt(15)
    grad_floor, gap_floor = convergence_floor(10, 2, 3, G=1.0, mu=mu)
    assert grad_floor == pytest.approx(0.6)
    assert gap_floor == pytest.approx(0.145237, abs=1e-6)
    assert convergence_floor(10, 2, 3, G=0.0, mu=1.0) == (0.0, 0.0)
    assert convergence_floor(10, 2, 3, G=2.0, mu=mu)[0] == pytest.approx(2.4)
    with pytest.raises(ParameterError):
        convergence_floor(10, 2, 3, G=1.0, mu=0.0)


def test_grad_ceiling_examples():
    got = grad_ceiling(kappa=8 / 3, L=1.0, H=1, T=1000, loss_gap0=1.0, G=1.0)
    assert got == pytest.approx((16 * 32 + 1) / 100 + 240, rel=1e-12)
    assert got == pytest.approx(245.13)

    far = grad_ceiling(8 / 3, 1.0, 1, 10 ** 15, 1.0, 1.0)
    assert far == pytest.approx(90 * (8 / 3), rel=1e-4)

    assert grad_ceiling(1.0, 1.0, 1, 100, 0.0, 0.0) == 0.0

    with pytest.raises(ParameterError):
        grad_ceiling(1.0, 1.0, 1, 0, 1.0, 1.0)  # no rounds


def test_gap_ceiling_examples():
    far = gap_ceiling(kappa=8 / 3, L=1.0, mu=1.0, H=1, T=10 ** 12, beta=0.5, loss_gap0=1.0, G=1.0)
    assert far == pytest.approx(45 * 8 / 3, rel=1e-6)
    assert far == pytest.approx(120, rel=1e-6)

    assert gap_ceiling(1.0, 1.0, 1.0, 1, 100, 0.5, 0.0, 0.0) == 0.0

    with pytest.raises(ParameterError):
        gap_ceiling(1.0, 1.0, 1.0, 1, 100, 1.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        gap_ceiling(1.0, 1.0, 0.0, 1, 100, 0.5, 1.0, 1.0)
    with pytest.raises(ParameterError):
        gap_ceiling(1.0, 1.0, 1.0, 1, 0, 0.5, 1.0, 1.0)  # no rounds


@pytest.mark.parametrize("bound,args,name,value", [
    (kappa_lower_bound, (10, 1.5, 2), "f", 1.5),
    (kappa_lower_bound, (10, 1, True), "f_hat", True),
    (convergence_floor, (10, True, 2, 1.0, 1.0), "f", True),
    (kappa_composite_chain, (10.0, 1, 2), "n", 10.0),
    (kappa_guarantee, ("gm", 10, 2, 2.0), "f_hat", 2.0),
    (kappa_guarantee, ("gm", 10, True, 1), "f", True),
])
def test_bounds_reject_bools_and_fractions_as_integers(bound, args, name, value):
    with pytest.raises(ParameterError) as excinfo:
        bound(*args)
    assert str(excinfo.value) == f"{name} must be an integer, got {value!r}"


def test_bounds_take_numpy_integers():
    n, f, f_hat = np.int64(10), np.int32(1), np.int8(2)
    assert kappa_lower_bound(n, f, f_hat) == kappa_lower_bound(10, 1, 2)
    assert convergence_floor(n, f, f_hat, 1.0, 1.0) == convergence_floor(10, 1, 2, 1.0, 1.0)
    assert kappa_guarantee("gm", n, f_hat, f_hat) == kappa_guarantee("gm", 10, 2, 2)
