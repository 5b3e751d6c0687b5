"""The parameter rules of errors.py, and their one wording at every entry
point that checks them."""

import copy
import dataclasses
import inspect
import json
import re
import typing

import numpy as np
import pytest

from fedrobust import (
    AggregatorSpec,
    AttackStrategy,
    ConfigError,
    ParameterError,
    Problem,
    RunConfig,
    Schedule,
    aggregate,
    audit_profile,
    convergence_floor,
    cwtm_break_witness,
    gap_ceiling,
    grad_ceiling,
    homogeneous_quadratic_problem,
    kappa_guarantee,
    kappa_lower_bound,
    random_quadratic_problem,
    two_group_quadratic_problem,
    weiszfeld,
)
from fedrobust import audit, cli, problems
from fedrobust.aggregators import KINDS
from fedrobust.attacks import ATTACK_KINDS
from fedrobust.bounds import GUARANTEED_KINDS
from fedrobust.cli import CONFIG_KINDS, PROBLEM_KINDS, parse_config
from fedrobust.engine import SCHEDULE_KINDS, config_digest
from fedrobust.errors import check, clients_error, count_error, kind_error, real_error, regime_error

BIG = 10**400  # an integer too large for a float


# ---------------------------------------------------------------------------
# the rules, one function each

def test_count_rule_takes_python_and_numpy_integers_only():
    for value in (0, 3, np.int64(3), np.uint8(3), np.int32(0), BIG):
        assert count_error("f", value) is None
    for value in (True, False, np.bool_(True), 1.0, np.float64(2.0), float("nan"), float("inf"), -float("inf"),
                  "3", None, [1]):
        assert count_error("f", value) == f"f must be an integer, got {value!r}"


def test_count_rule_lower_bound_and_dotted_names():
    assert count_error("seed", -1) == "seed = -1 violates 0 <= seed"
    assert count_error("H", 0, lo=1) == "H = 0 violates 1 <= H"
    assert count_error("audit.d", -BIG, lo=1) == f"audit.d = {-BIG!r} violates 1 <= d"
    assert count_error("grid.f", 10, n=20) == "grid.f = 10 violates 0 <= f < n/2 (n=20)"
    assert count_error("grid.f", -1, n=20) == "grid.f = -1 violates 0 <= f < n/2 (n=20)"


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_count_rule_minority_edge_at_odd_and_even_n(n):
    top = (n - 1) // 2  # the largest count below n/2
    for value in (0, top, np.int64(top)):
        assert count_error("f", value, n=n) is None
    for value in (top + 1, np.int64(top + 1), n, BIG, np.int64(2**62)):  # 2 * 2**62 would wrap in int64
        assert count_error("f", value, n=n) == f"f = {int(value)!r} violates 0 <= f < n/2 (n={n})"
    # n itself may be a numpy integer or beyond the float range
    assert count_error("f", top, n=np.int64(n)) is None
    assert count_error("f", 10**399, n=BIG) is None


def test_regime_rule():
    assert regime_error(10, 2, 4) is None
    assert regime_error(10, 4, 4) is None
    assert regime_error(10, 3, 2) == "require 0 <= f <= f_hat < n/2, got f=3, f_hat=2, n=10"
    assert regime_error(10, 2, 5) == "f_hat = 5 violates 0 <= f_hat < n/2 (n=10)"
    assert regime_error(9, 2, 5) == "f_hat = 5 violates 0 <= f_hat < n/2 (n=9)"
    assert regime_error(10, True, 2) == "f must be an integer, got True"
    assert regime_error(10.0, 1, 2) == "n must be an integer, got 10.0"


def test_kind_rule():
    assert kind_error("kind", "gm", KINDS) is None
    for value in ("median", None, 3, "GM"):
        assert kind_error("kind", value, KINDS) == f"kind must be one of {list(KINDS)}, got {value!r}"


def test_clients_rule():
    for clients in ((0, 2), [np.int64(1), np.int32(0)], range(3)):
        assert clients_error("honest_set", clients, 3) is None
    assert clients_error("honest_set", (0, 2), 3, size=2) is None
    for clients in ((0, True), (0, 1.0), (0, 1.5), (0, float("nan")), (0, None), (0, "1")):
        assert clients_error("honest_set", clients, 3) == f"honest_set indices must be integers, got {clients!r}"
    for clients in ((), (0, 0), (0, 3), (-1, 0), (0, BIG)):
        assert clients_error("honest_set", clients, 3) == "honest_set must hold one or more distinct indices in [0, 3)"
    for clients in ((0,), (0, 1, 2), (1, 1)):
        assert clients_error("honest_set", clients, 3, size=2) == "honest_set must hold 2 distinct indices in [0, 3)"


def test_real_rule():
    for value in (0.0, -2.5, 3, np.float32(0.25), np.float64(1e308), np.int64(5), 10**300, -(10**300)):
        assert real_error("scale", value) is None
    for value in (True, np.bool_(False), "1", None, [0.5], 1j):
        assert real_error("scale", value) == f"scale must be a real number, got {value!r}"
    for value in (float("nan"), float("inf"), -float("inf"), np.float64("nan"), np.float32("inf"), BIG, -BIG):
        assert real_error("scale", value) == "scale must be finite"
    for value in (0, 0.0, -1.0, float("nan"), -float("inf")):
        assert real_error("gamma", value, positive=True) == "gamma must be positive"
    assert real_error("gamma", float("inf"), positive=True) == "gamma must be finite"
    assert real_error("gamma", BIG, positive=True) == "gamma must be finite"
    for value in (-1.0, float("nan"), -float("inf"), -BIG):
        assert real_error("kappa", value, lo=0) == f"kappa = {value!r} violates 0 <= kappa"
    assert real_error("kappa", 0, lo=0) is None
    assert real_error("kappa", float("inf"), lo=0) == "kappa must be finite"
    # the open interval (0, below): a value outside it, once finite
    for value in (0.25, np.float32(0.5), 10**-300):
        assert real_error("beta", value, below=1) is None
    for value in (0, 0.0, 1, 1.0, -0.5, 1.5, 10**300):
        assert real_error("beta", value, below=1) == "beta must lie in (0, 1)"
    for value in (float("nan"), float("inf"), BIG):
        assert real_error("beta", value, below=1) == "beta must be finite"


def test_check_raises_the_message():
    check(None)
    with pytest.raises(ParameterError) as excinfo:
        check("f = 5 violates 0 <= f < n/2 (n=10)")
    assert str(excinfo.value) == "f = 5 violates 0 <= f < n/2 (n=10)"


# ---------------------------------------------------------------------------
# every entry point, with a count at n/2, a bool for a count and an unknown kind

def _problem(f, n=10):
    return Problem(f=f, honest_set=None, curvature=[1.0], centers=np.zeros((n, 1)), G2=0.0, l_star=0.0)


def _run_config(**fields):
    return RunConfig(problem=homogeneous_quadratic_problem(10), **{
        "aggregator": AggregatorSpec("mean"), "attack": AttackStrategy("honest_mimic"), **fields})


NAN, INF = float("nan"), float("inf")
CLOUD = audit.random_cloud(10, 2, [7])
F_AT_HALF = "f = 5 violates 0 <= f < n/2 (n=10)"
F_HAT_AT_HALF = "f_hat = 5 violates 0 <= f_hat < n/2 (n=10)"

BOUNDARY = [
    ("Problem", lambda: _problem(5), F_AT_HALF),
    ("homogeneous", lambda: homogeneous_quadratic_problem(10, 5), F_AT_HALF),
    ("random", lambda: random_quadratic_problem(10, 5, seed=0), F_AT_HALF),
    ("two_group", lambda: two_group_quadratic_problem(10, 2, 5), F_HAT_AT_HALF),
    ("kappa_lower_bound", lambda: kappa_lower_bound(10, 2, 5), F_HAT_AT_HALF),
    ("kappa_guarantee", lambda: kappa_guarantee("gm", 10, 5, 5), F_AT_HALF),
    ("kappa_guarantee_f_hat", lambda: kappa_guarantee("cwtm", 10, 0, 5), F_HAT_AT_HALF),
    ("RunConfig", lambda: _run_config(aggregator=AggregatorSpec("cwtm", f_hat=5)), "aggregator." + F_HAT_AT_HALF),
    ("aggregate", lambda: aggregate(AggregatorSpec("cwtm", f_hat=5), CLOUD), F_HAT_AT_HALF),
    ("audit_profile", lambda: audit_profile([AggregatorSpec("mean")], CLOUD, [1, 5]), F_AT_HALF),
    ("audit_profile_f_hat", lambda: audit_profile([AggregatorSpec("krum", f_hat=5)], CLOUD, [1]), F_HAT_AT_HALF),
    ("cwtm_break_witness", lambda: cwtm_break_witness(10, 5, 1), "f = 5 violates 2 <= f < n/2 (n=10)"),
    ("AggregatorSpec_bool", lambda: AggregatorSpec("cwtm", f_hat=True), "f_hat must be an integer, got True"),
    ("gm_max_iters_bool", lambda: AggregatorSpec("gm", gm_max_iters=True), "gm_max_iters must be an integer, got True"),
    ("weiszfeld_bool", lambda: weiszfeld(CLOUD, max_iters=True), "max_iters must be an integer, got True"),
    ("audit_profile_bool", lambda: audit_profile([AggregatorSpec("mean")], CLOUD, [True]),
     "f must be an integer, got True"),
    ("subset_budget_bool", lambda: audit_profile([AggregatorSpec("mean")], CLOUD, [1], True),
     "subset_budget must be an integer, got True"),
    ("cwtm_break_witness_bool", lambda: cwtm_break_witness(10, 2, False), "f_hat must be an integer, got False"),
    ("AggregatorSpec_kind", lambda: AggregatorSpec("median"), f"kind must be one of {list(KINDS)}, got 'median'"),
    ("AttackStrategy_kind", lambda: AttackStrategy("median"),
     f"kind must be one of {list(ATTACK_KINDS)}, got 'median'"),
    ("Schedule_kind", lambda: Schedule("median"), f"kind must be one of {list(SCHEDULE_KINDS)}, got 'median'"),
    ("kappa_guarantee_kind", lambda: kappa_guarantee("median", 10, 2, 2),
     f"aggregator must be one of {list(GUARANTEED_KINDS)}, got 'median'"),
    ("grad_ceiling_T_inf", lambda: grad_ceiling(1.0, 1.0, 1, INF, 1.0, 1.0), "T must be an integer, got inf"),
    ("gap_ceiling_T_float", lambda: gap_ceiling(1.0, 1.0, 1.0, 1, 100.0, 0.5, 1.0, 1.0),
     "T must be an integer, got 100.0"),
    ("grad_ceiling_H_bool", lambda: grad_ceiling(1.0, 1.0, True, 100, 1.0, 1.0), "H must be an integer, got True"),
    ("gap_ceiling_H", lambda: gap_ceiling(1.0, 1.0, 1.0, 0, 100, 0.5, 1.0, 1.0), "H = 0 violates 1 <= H"),
    ("random_seed", lambda: random_quadratic_problem(10, 2, seed=-1), "seed = -1 violates 0 <= seed"),
    ("random_d", lambda: random_quadratic_problem(10, 2, 0, seed=0), "d = 0 violates 1 <= d"),
    ("two_group_n", lambda: two_group_quadratic_problem(0, 0, 1), "n = 0 violates 1 <= n"),
    ("two_group_G_square", lambda: two_group_quadratic_problem(10, 2, 3, G=1e200), "G = 1e+200 overflows G2 = G^2"),
    ("random_G_target_square", lambda: random_quadratic_problem(6, 1, 2, G_target=1e200, seed=0),
     "G_target = 1e+200 overflows G2 = G_target^2"),
    ("pre_nnm_str", lambda: AggregatorSpec("mean", pre_nnm="no"), "pre_nnm must be a boolean, got 'no'"),
    ("pre_nnm_int", lambda: AggregatorSpec("mean", pre_nnm=1), "pre_nnm must be a boolean, got 1"),
    ("fixed_vector_none", lambda: AttackStrategy("fixed_vector"), "vector is required for a fixed_vector attack"),
    ("w0_str", lambda: _run_config(w0=["a"]), "w0[0] must be a real number, got 'a'"),
    ("w0_none", lambda: _run_config(w0=[None]), "w0[0] must be a real number, got None"),
    ("w0_nan", lambda: _run_config(w0=[NAN]), "w0[0] must be finite"),
    ("w0_inf", lambda: _run_config(w0=np.array([-INF])), "w0[0] must be finite"),
    ("w0_scalar_str", lambda: _run_config(w0="1.5"), "w0[0] must be a real number, got '1.5'"),
]


# entry point, with the value of one real parameter; the parameter; its rule
REALS = [
    ("convergence_floor.G", lambda v: convergence_floor(10, 2, 3, G=v, mu=1.0), "G", {"lo": 0}),
    ("convergence_floor.mu", lambda v: convergence_floor(10, 2, 3, G=1.0, mu=v), "mu", {"positive": True}),
    ("grad_ceiling.kappa", lambda v: grad_ceiling(v, 1.0, 1, 100, 1.0, 1.0), "kappa", {"lo": 0}),
    ("grad_ceiling.L", lambda v: grad_ceiling(1.0, v, 1, 100, 1.0, 1.0), "L", {"positive": True}),
    ("grad_ceiling.loss_gap0", lambda v: grad_ceiling(1.0, 1.0, 1, 100, v, 1.0), "loss_gap0", {}),
    ("grad_ceiling.G", lambda v: grad_ceiling(1.0, 1.0, 1, 100, 1.0, v), "G", {}),
    ("gap_ceiling.kappa", lambda v: gap_ceiling(v, 1.0, 1.0, 1, 100, 0.5, 1.0, 1.0), "kappa", {"lo": 0}),
    ("gap_ceiling.L", lambda v: gap_ceiling(1.0, v, 1.0, 1, 100, 0.5, 1.0, 1.0), "L", {"positive": True}),
    ("gap_ceiling.mu", lambda v: gap_ceiling(1.0, 1.0, v, 1, 100, 0.5, 1.0, 1.0), "mu", {"positive": True}),
    ("gap_ceiling.beta", lambda v: gap_ceiling(1.0, 1.0, 1.0, 1, 100, v, 1.0, 1.0), "beta", {"below": 1}),
    ("gap_ceiling.loss_gap0", lambda v: gap_ceiling(1.0, 1.0, 1.0, 1, 100, 0.5, v, 1.0), "loss_gap0", {}),
    ("gap_ceiling.G", lambda v: gap_ceiling(1.0, 1.0, 1.0, 1, 100, 0.5, 1.0, v), "G", {}),
    ("two_group.G", lambda v: two_group_quadratic_problem(10, 2, 3, G=v), "G", {"positive": True}),
    ("random.G_target", lambda v: random_quadratic_problem(10, 2, G_target=v, seed=0), "G_target", {"lo": 0}),
    ("random.radius", lambda v: random_quadratic_problem(10, 2, radius=v, seed=0), "radius", {}),
    ("Schedule.beta", lambda v: Schedule("pl_power", beta=v), "beta", {"below": 1}),
    ("AttackStrategy.vector", lambda v: AttackStrategy("fixed_vector", vector=(0.5, v)), "vector[1]", {}),
]


@pytest.mark.parametrize("call, message", [case[1:] for case in BOUNDARY], ids=[case[0] for case in BOUNDARY])
def test_each_entry_point_words_each_rule_one_way(call, message):
    with pytest.raises(ParameterError) as excinfo:
        call()
    assert str(excinfo.value) == message


@pytest.mark.parametrize("value", [NAN, INF, "0.5", True], ids=["nan", "inf", "str", "bool"])
@pytest.mark.parametrize("call, name, rule", [case[1:] for case in REALS], ids=[case[0] for case in REALS])
def test_each_real_parameter_keeps_the_real_rule(call, name, rule, value):
    message = real_error(name, value, **rule)
    assert message is not None
    with pytest.raises(ParameterError) as excinfo:
        call(value)
    assert str(excinfo.value) == message
    for value in (0.5, np.float32(0.5)):  # numpy floats are real numbers
        call(value)


SIMULATE = {"schema_version": 1, "kind": "simulate", "problem": {"kind": "homogeneous_quadratic", "n": 10},
            "aggregator": {"kind": "mean"}}
SWEEP = dict(SIMULATE, kind="sweep", grid={"f": [1], "f_hat": [1], "seeds": [0]})

CLI_BOUNDARY = [
    ("problem.f", dict(SIMULATE, problem={"kind": "homogeneous_quadratic", "n": 10, "f": 5}), "problem." + F_AT_HALF),
    ("aggregator.f_hat", dict(SIMULATE, aggregator={"kind": "gm", "f_hat": 5}), "aggregator." + F_HAT_AT_HALF),
    ("grid.f_hat", dict(SWEEP, grid={"f_hat": [1, 5]}), "grid." + F_HAT_AT_HALF),
    ("grid.f_bool", dict(SWEEP, grid={"f": [True]}), "grid.f must be an integer, got True"),
    ("seed_bool", dict(SIMULATE, seed=True), "seed must be an integer, got True"),
    ("problem.n_bool", dict(SIMULATE, problem={"kind": "homogeneous_quadratic", "n": True}),
     "problem.n must be an integer, got True"),
    ("kind", dict(SIMULATE, kind="median"), f"kind must be one of {list(CONFIG_KINDS)}, got 'median'"),
    ("problem.kind", dict(SIMULATE, problem={"kind": "median", "n": 10}),
     f"problem.kind must be one of {list(PROBLEM_KINDS)}, got 'median'"),
    ("aggregator.kind", dict(SIMULATE, aggregator={"kind": "median"}),
     f"aggregator.kind must be one of {list(KINDS)}, got 'median'"),
    ("problem.G_target_square", dict(SIMULATE, problem={"kind": "random_quadratic", "n": 6, "f": 1, "G_target": 1e200}),
     "problem.G_target = 1e+200 overflows G2 = G_target^2"),
    ("engine.w0_dimension", dict(SIMULATE, problem={"kind": "random_quadratic", "n": 6, "d": 2},
                                 engine={"w0": [1.0, 2.0, 3.0]}), "engine.w0 must have dimension 2 or 1"),
    ("attack.vector_dimension", dict(SIMULATE, problem={"kind": "random_quadratic", "n": 6, "d": 2},
                                     attack={"kind": "fixed_vector", "vector": [1.0]}),
     "attack.vector must have dimension 2"),
]


@pytest.mark.parametrize("doc, message", [case[1:] for case in CLI_BOUNDARY], ids=[case[0] for case in CLI_BOUNDARY])
def test_the_cli_collects_each_rule_in_the_library_wording(doc, message):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps(doc))
    assert excinfo.value.errors == [message]


def _cli_fields():
    """(section, its config, field, library entry point, its other arguments)
    for every field the CLI reads, found as the CLI finds them: a field added
    later is read here too, and must come with a rule."""
    cases = []
    for kind in PROBLEM_KINDS:
        factory = getattr(problems, f"{kind}_problem")
        names = inspect.signature(factory).parameters
        required = {name: value for name, value in {"n": 10, "f": 2, "f_hat": 3, "seed": 0}.items() if name in names}
        cases += [("problem", {"kind": kind, "n": 10}, name, factory, required)
                  for name in names if name not in cli._CELL_PARAMS]
    for section, cls, base in (("aggregator", AggregatorSpec, {"kind": "mean"}),
                               ("attack", AttackStrategy, {"kind": "honest_mimic"}), ("engine.schedule", Schedule, {})):
        cases += [(section, base, f.name, cls, base) for f in dataclasses.fields(cls)]
    hints = typing.get_type_hints(RunConfig)
    cases += [("engine", {}, f.name, _run_config, {}) for f in dataclasses.fields(RunConfig)
              if f.name not in cli._CELL_FIELDS and not dataclasses.is_dataclass(hints[f.name])]  # schedule: a section
    return cases


CLI_FIELDS = _cli_fields()


@pytest.mark.parametrize("section, config, name, entry, arguments", CLI_FIELDS,
                         ids=[f"{case[0]}.{case[2]}[{case[1].get('kind', '')}]" for case in CLI_FIELDS])
def test_every_field_the_cli_reads_has_a_library_rule(section, config, name, entry, arguments):
    # {} is no field's value: the library rejects it, and the CLI words it the same way
    with pytest.raises(ParameterError) as lib:
        entry(**{**arguments, name: {}})
    target = doc = copy.deepcopy(SIMULATE)
    for part in section.split("."):
        target = target.setdefault(part, {})
    target.update(config, **{name: {}})
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps(doc))
    assert excinfo.value.errors == [f"{section}.{lib.value}"]


def test_a_numpy_bool_flag_is_kept_as_a_bool():
    spec = AggregatorSpec("krum", pre_nnm=np.bool_(True))
    assert type(spec.pre_nnm) is bool
    assert spec == AggregatorSpec("krum", pre_nnm=True)
    assert spec.name == "krum_nnm"
    assert config_digest(_run_config(aggregator=spec)) == config_digest(
        _run_config(aggregator=AggregatorSpec("krum", pre_nnm=True)))


# ---------------------------------------------------------------------------
# the one scope of the minority rule for f_hat

@pytest.mark.parametrize("kind", ["mean", "gm", "cwmed"])
def test_f_hat_rule_has_one_scope(kind, monkeypatch):
    spec = AggregatorSpec(kind, f_hat=5)  # n = 10, so f_hat = n/2
    with pytest.raises(ParameterError, match=re.escape("aggregator." + F_HAT_AT_HALF)):
        _run_config(aggregator=spec)
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps(dict(SIMULATE, aggregator={"kind": kind, "f_hat": 5})))
    assert excinfo.value.errors == ["aggregator." + F_HAT_AT_HALF]
    assert aggregate(AggregatorSpec(kind, f_hat=4), CLOUD).shape == (2,)  # the largest f_hat below n/2
    for points in (CLOUD, CLOUD[None], np.stack([CLOUD, 2 * CLOUD, -CLOUD])):
        with pytest.raises(ParameterError, match=re.escape(F_HAT_AT_HALF)):
            aggregate(spec, points)
    with pytest.raises(ParameterError, match=re.escape(F_HAT_AT_HALF)):
        audit.error_ratio(spec, CLOUD, range(6))
    monkeypatch.setattr(audit, "_aggregate", lambda *args: pytest.fail("an audit ran"))
    with pytest.raises(ParameterError, match=re.escape(F_HAT_AT_HALF)):
        audit_profile([AggregatorSpec("mean"), spec], CLOUD, [1])


@pytest.mark.parametrize("spec", [AggregatorSpec("cwtm", f_hat=5), AggregatorSpec("krum", f_hat=5),
                                  AggregatorSpec("mean", f_hat=5, pre_nnm=True)], ids=lambda s: s.name)
def test_f_hat_rule_narrow_scope_holds_for_stacks_and_before_any_audit(spec, monkeypatch):
    for stack in (CLOUD[None], np.stack([CLOUD, 2 * CLOUD, -CLOUD])):
        with pytest.raises(ParameterError, match=re.escape(F_HAT_AT_HALF)):
            aggregate(spec, stack)
    monkeypatch.setattr(audit, "_aggregate", lambda *args: pytest.fail("an audit ran"))
    with pytest.raises(ParameterError, match=re.escape(F_HAT_AT_HALF)):
        audit_profile([AggregatorSpec("mean"), spec], CLOUD, [1])
