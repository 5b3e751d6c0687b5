"""Config parsing, sweep execution, persistence, and reporting."""

import copy
import hashlib
import inspect
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np
import pytest

import fedrobust
from fedrobust import (
    AttackStrategy, ConfigError, ParameterError, RunConfig, aggregators, audit, cli, problems, random_quadratic_problem,
    run,
)
from fedrobust.cli import (
    CONFIG_KINDS,
    CSV_COLUMNS,
    PROBLEM_KINDS,
    ExperimentConfig,
    _build_run_config,
    _cells,
    load_config,
    main,
    parse_config,
    report,
    run_audit,
    run_sweep,
)
from fedrobust.attacks import ATTACK_KINDS
from fedrobust.engine import SCHEDULE_KINDS, config_digest
from test_aggregators import oracle_weiszfeld

MINIMAL_SIMULATE = {
    "schema_version": 1,
    "kind": "simulate",
    "problem": {"kind": "homogeneous_quadratic", "n": 4},
    "aggregator": {"kind": "mean"},
}

SWEEP_TEMPLATE = {
    "schema_version": 1,
    "kind": "sweep",
    "problem": {"kind": "homogeneous_quadratic", "n": 3, "f": 1},
    "aggregator": {"kind": "cwmed"},
    "attack": {"kind": "fixed_vector", "vector": [2.0]},
    "engine": {"T": 3, "H": 1, "schedule": {"kind": "constant", "gamma": 0.1}, "w0": 1.0},
    "grid": {"f_hat": [0, 1], "f": [1], "seeds": [0]},
}

GOLDEN_CSV = """run_id,config_digest,round,grad_metric,running_avg_grad,loss_gap,agg_deviation,diverged
cell0000,b3cf830e831d35a7,0,1.0,1.0,0.5,0.0,0
cell0000,b3cf830e831d35a7,1,0.81,0.905,0.405,0.0,0
cell0000,b3cf830e831d35a7,2,0.6561000000000001,0.8220333333333333,0.32805000000000006,0.0,0
cell0000,b3cf830e831d35a7,3,0.5314410000000002,0.74938525,0.2657205000000001,,0
cell0001,99372fdcdea0411a,0,1.0,1.0,0.5,0.0,0
cell0001,99372fdcdea0411a,1,0.81,0.905,0.405,0.0,0
cell0001,99372fdcdea0411a,2,0.6561000000000001,0.8220333333333333,0.32805000000000006,0.0,0
cell0001,99372fdcdea0411a,3,0.5314410000000002,0.74938525,0.2657205000000001,,0
"""


# ---------------------------------------------------------------------------
# parsing

def test_minimal_simulate_config_gets_documented_defaults():
    cfg = parse_config(json.dumps(MINIMAL_SIMULATE))
    engine = cfg.normalized["engine"]
    assert engine["T"] == 100
    assert engine["H"] == 1
    assert engine["schedule"] == {"kind": "constant", "gamma": 0.01, "beta": 0.5}
    assert cfg.normalized["seed"] == 0
    assert cfg.normalized["attack"]["kind"] == "honest_mimic"


def test_f_hat_range_error_names_constraint():
    bad = dict(MINIMAL_SIMULATE, aggregator={"kind": "cwtm", "f_hat": 2})
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(bad))
    assert any("f_hat < n/2" in e for e in exc.value.errors)


def test_unknown_key_suggests_nearest():
    bad = dict(MINIMAL_SIMULATE)
    bad["aggregater"] = {"kind": "mean"}
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(bad))
    joined = " ".join(exc.value.errors)
    assert "aggregater" in joined and "aggregator" in joined


def test_krum_squared_is_an_unknown_aggregator_key(tmp_path, capsys):
    # Krum is the squared-distance rule its bounds are proved for: the
    # plain-distance option is gone, and a config that still sets it exits 1
    path = tmp_path / "krum.json"
    path.write_text(json.dumps(dict(MINIMAL_SIMULATE, aggregator={"kind": "krum", "krum_squared": False})))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "config error: unknown key 'krum_squared' in aggregator\n"


def test_all_errors_reported_not_just_first():
    # one broken rule per field (n stays valid, so that f is checked against it)
    bad = {
        "schema_version": 99,
        "kind": "simulate",
        "problem": {"kind": "random_quadratic", "n": 10, "f": 5, "d": 0, "G_target": -1.0, "radius": "x", "seed": -1},
        "aggregator": {"kind": "bogus", "f_hat": -1, "pre_nnm": "yes", "gm_tolerance": 0, "gm_max_iters": 0},
        "attack": {"kind": "bogus", "variance": -3, "scale": float("nan"), "vector": [1, "a"]},
        "engine": {"T": -1, "H": 0, "w0": [None], "kappa": -1.0,
                   "schedule": {"kind": "bogus", "gamma": "x", "beta": True}},
    }
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(bad))
    assert exc.value.errors == [
        "schema_version must be 1, got 99",
        "problem.f = 5 violates 0 <= f < n/2 (n=10)",
        "problem.d = 0 violates 1 <= d",
        "problem.G_target = -1.0 violates 0 <= G_target",
        "problem.radius must be a real number, got 'x'",
        "problem.seed = -1 violates 0 <= seed",
        f"aggregator.kind must be one of {list(aggregators.KINDS)}, got 'bogus'",
        "aggregator.f_hat = -1 violates 0 <= f_hat",
        "aggregator.pre_nnm must be a boolean, got 'yes'",
        "aggregator.gm_tolerance must be positive",
        "aggregator.gm_max_iters = 0 violates 1 <= gm_max_iters",
        f"attack.kind must be one of {list(ATTACK_KINDS)}, got 'bogus'",
        "attack.variance = -3 violates 0 <= variance",
        "attack.scale must be finite",
        "attack.vector[1] must be a real number, got 'a'",
        f"engine.schedule.kind must be one of {list(SCHEDULE_KINDS)}, got 'bogus'",
        "engine.schedule.gamma must be a real number, got 'x'",
        "engine.schedule.beta must be a real number, got True",
        "engine.T = -1 violates 0 <= T",
        "engine.H = 0 violates 1 <= H",
        "engine.w0[0] must be a real number, got None",
        "engine.kappa = -1.0 violates 0 <= kappa",
    ]


@pytest.mark.parametrize("sections, shown", [
    # two broken fields in one section are two lines; a type error reads as the library words it
    ({"aggregator": {"kind": "gm", "gm_tolerance": -1.0, "gm_max_iters": 0},
      "attack": {"kind": "gaussian_noise", "variance": -2.0, "scale": "x"},
      "engine": {"schedule": {"kind": "pl_power", "beta": 2.0}}}, [
        "attack.variance = -2.0 violates 0 <= variance", "attack.scale must be a real number, got 'x'",
        "engine.schedule.beta must lie in (0, 1)", "aggregator.gm_tolerance must be positive",
        "aggregator.gm_max_iters = 0 violates 1 <= gm_max_iters",
    ]),
    ({"problem": {"kind": "two_group_quadratic", "n": 10, "G": "x"}, "aggregator": {"kind": "cwtm", "f_hat": "2"},
      "attack": {"kind": "fixed_vector", "vector": [1, "a"]}, "engine": {"w0": [1, None]}}, [
        "problem.G must be a real number, got 'x'", "aggregator.f_hat must be an integer, got '2'",
        "attack.vector[1] must be a real number, got 'a'", "engine.w0[1] must be a real number, got None",
    ]),
], ids=["five_errors", "type_errors"])
def test_every_broken_field_is_one_config_error_line(tmp_path, capsys, sections, shown):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(MINIMAL_SIMULATE, **sections)))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert sorted(capsys.readouterr().err.splitlines()) == sorted(f"config error: {line}" for line in shown)


def test_sweep_grid_produces_full_product():
    cfg = parse_config(json.dumps({
        "schema_version": 1,
        "kind": "sweep",
        "problem": {"kind": "homogeneous_quadratic", "n": 16},
        "aggregator": {"kind": "cwtm"},
        "engine": {"T": 1},
        "grid": {"f_hat": list(range(8)), "f": [0, 4]},
    }))
    assert len(_cells(cfg)) == 16


def test_empty_grid_axis_rejected():
    bad = dict(SWEEP_TEMPLATE, grid={"f_hat": [], "f": [1], "seeds": [0]})
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(bad))
    assert any("grid.f_hat" in e for e in exc.value.errors)


def test_parse_serialize_round_trip():
    # a normalized config, written back as JSON, parses to itself
    cfg = parse_config(json.dumps(SWEEP_TEMPLATE))
    again = parse_config(json.dumps(cfg.normalized))
    assert again == cfg


def test_invalid_json_and_non_object():
    with pytest.raises(ConfigError):
        parse_config("{not json")
    with pytest.raises(ConfigError):
        parse_config("[1, 2]")


# ---------------------------------------------------------------------------
# sweep execution

def test_golden_csv_bytes(tmp_path):
    cfg = parse_config(json.dumps(SWEEP_TEMPLATE))
    failures = run_sweep(cfg, tmp_path, quiet=True)
    assert failures == 0
    assert (tmp_path / "results.csv").read_text() == GOLDEN_CSV


# results.csv sha256 of two larger sweeps, recorded before problems were
# stored as arrays: criterion 9's sweep (random problems, d = 3, Krum after
# NNM under noise) and a two-group sweep with H = 5 honest-mimic steps.
# Every sha256 below was re-recorded when AggregatorSpec lost its
# plain-distance Krum option, which moved each config_digest and no number
# (PINNED_SWEEP_NUMBERS held).
PINNED_SWEEPS = [
    ({
        "schema_version": 1,
        "kind": "sweep",
        "problem": {"kind": "random_quadratic", "n": 8, "f": 2, "d": 3,
                    "G_target": 1.0, "radius": 2.0},
        "aggregator": {"kind": "krum", "pre_nnm": True},
        "attack": {"kind": "gaussian_noise", "variance": 5.0},
        "engine": {"T": 50, "H": 2,
                   "schedule": {"kind": "constant", "gamma": 0.005}, "w0": 1.0},
        "grid": {"f_hat": [2, 3], "f": [1, 2], "seeds": [0, 1]},
    }, "e58161c234040b6108566c539f4dc41fea1b3b8e6ca7424d1216c58aad465375"),
    ({
        "schema_version": 1,
        "kind": "sweep",
        "problem": {"kind": "two_group_quadratic", "n": 10, "f": 2, "G": 1.0},
        "aggregator": {"kind": "cwtm", "f_hat": 3},
        "attack": {"kind": "honest_mimic"},
        "engine": {"T": 50, "H": 5,
                   "schedule": {"kind": "constant", "gamma": 0.01}, "w0": 1.0},
        "grid": {"f": [0, 2], "f_hat": [3, 4], "seeds": [0]},
    }, "0e4afbc5d1e6ae2da6cd3f9b7a4a30cab11af0a50f838035192d6cc0debd843f"),
] + [
    # one sweep per attack kind not covered above, recorded with the
    # per-client attack layer that byzantine_upload's (f, d) block replaced
    ({
        "schema_version": 1,
        "kind": "sweep",
        "problem": {"kind": "random_quadratic", "n": 11, "f": 3, "d": 3,
                    "G_target": 1.0, "radius": 2.0},
        "aggregator": {"kind": "cwtm"},
        "attack": attack,
        "engine": {"T": 60, "H": 3,
                   "schedule": {"kind": "step_wise", "gamma": 0.01}, "w0": 1.0},
        "grid": {"f_hat": [2, 4], "f": [1, 3], "seeds": [0, 5]},
    }, sha256) for attack, sha256 in (
        ({"kind": "sign_flip", "scale": 2.0},
         "32a69a1eaaa15613846e6cf1ab0258a980a2518bc5eef698e6cac5901d7349c8"),
        ({"kind": "escalating_outlier"},
         "b777645d24e1159472f09cd4f99b68464dbc935699d895171e9bad698ad1a316"),
        ({"kind": "fixed_vector", "vector": [1.0, -2.0, 0.5]},
         "d3e7eb961abbdc98f20b3ef1173bb86f2ef7462e3a43cfa8fa8417172c7a5a7b"),
    )
] + [
    # GM after NNM under noise, recorded with the Newton-safeguarded solver
    # (test_gm_nnm_sweep_stays_next_to_the_oracle_solver bounds its distance
    # from the plain Weiszfeld iteration); in 5 of the 8 cells some round's
    # mixed cloud has an input row as its median
    ({
        "schema_version": 1,
        "kind": "sweep",
        "problem": {"kind": "random_quadratic", "n": 10, "f": 2, "d": 5,
                    "G_target": 1.0, "radius": 5.0},
        "aggregator": {"kind": "gm", "pre_nnm": True},
        "attack": {"kind": "gaussian_noise", "variance": 5.0},
        "engine": {"T": 50, "H": 1,
                   "schedule": {"kind": "constant", "gamma": 0.01}, "w0": 1.0},
        "grid": {"f_hat": [2, 3], "f": [1, 2], "seeds": [0, 1]},
    }, "603f3189743fbd80c1ca29629a7f01aa3d16db6c2f7a57764b51c08482fdca6d"),
]


# sha256 of each PINNED_SWEEPS results.csv with its config_digest column
# dropped, so a change of the config schema, which moves every digest,
# shows that no number moved (recorded before AggregatorSpec lost its
# plain-distance Krum option)
PINNED_SWEEP_NUMBERS = [
    "546cd8e6590f69e25987437e8252d0ce2d2aea846cb58825501f84e74f2ec346",
    "1b8e7508251cd3952a98fff8eb104bb3c1fc4c9cff3121e45c5f27f0f807ef9b",
    "83dc6c4c9ae98a18869a92e6db5a2c6f6a781604db1d9e18c88008c376cfd423",
    "0da231bae968e3ecef57f26389f0f3042e035409eeff3ace68c665b268663c7f",
    "a5e1b61a51b6b7a499a1797ec9fc2f330fd0cb45d7cd39b15c33d048e60fed66",
    "9517305bf11c6156d0ce57c1b2cb24aeac1e83785229d45e58d255f4e370cd8f",
]


@pytest.mark.parametrize("config,sha256,numbers_sha256", [
    (config, sha256, numbers) for (config, sha256), numbers in zip(PINNED_SWEEPS, PINNED_SWEEP_NUMBERS)
], ids=["criterion9", "two_group", "sign_flip", "escalating_outlier", "fixed_vector", "gm_nnm"])
def test_results_csv_sha256_is_pinned(tmp_path, config, sha256, numbers_sha256):
    assert_sweep_pinned(tmp_path, config, sha256, numbers_sha256)


def assert_sweep_pinned(out, config, sha256, numbers_sha256):
    assert run_sweep(parse_config(json.dumps(config)), out, quiet=True) == 0
    csv = (out / "results.csv").read_bytes()
    column = CSV_COLUMNS.index("config_digest")
    numbers = "".join(",".join(v for k, v in enumerate(line.split(",")) if k != column)
                      for line in csv.decode().splitlines(keepends=True))
    assert hashlib.sha256(numbers.encode()).hexdigest() == numbers_sha256  # the numbers first, then the digests
    assert hashlib.sha256(csv).hexdigest() == sha256


def test_sweep_runs_one_batch_per_f_hat(tmp_path, monkeypatch, capsys):
    # criterion 9's grid (f_hat in {2, 3}, f in {1, 2}, 2 seeds) runs as one
    # batch of four cells per f_hat, not as one per stretch of consecutive
    # cells; results.csv and the progress lines keep cell order
    config, sha256 = PINNED_SWEEPS[0]
    batches, run_batch = [], cli.run_batch
    monkeypatch.setattr(cli, "run_batch", lambda configs: batches.append(configs) or run_batch(configs))
    assert run_sweep(parse_config(json.dumps(config)), tmp_path) == 0
    assert [[(c.problem.f, c.aggregator.f_hat) for c in batch] for batch in batches] == [
        [(1, 2), (1, 2), (2, 2), (2, 2)], [(1, 3), (1, 3), (2, 3), (2, 3)]]
    assert hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest() == sha256
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == [f"cell{k:04d}" for k in range(8)]


def test_gm_nnm_sweep_stays_next_to_the_oracle_solver(monkeypatch):
    cfg = parse_config(json.dumps(PINNED_SWEEPS[-1][0]))
    configs = [_build_run_config(cfg.normalized, *cell) for cell in _cells(cfg)]
    records = [run(config) for config in configs]
    monkeypatch.setattr(aggregators, "weiszfeld", oracle_weiszfeld)
    for config, record in zip(configs, records):
        want = run(config)
        assert not record.diverged and not want.diverged
        assert np.abs(record.iterates - want.iterates).max() <= 1e-5
        assert record.grad_metric == pytest.approx(want.grad_metric, rel=1e-5)


def test_sweep_repeats_byte_identical(tmp_path, monkeypatch):
    # a cwmed sweep, and a GM sweep whose batches are split in two
    forked = spy_forks(monkeypatch, cpus=2)
    for name, config in (("cwmed", SWEEP_TEMPLATE), ("gm_nnm", PINNED_SWEEPS[-1][0])):
        cfg = parse_config(json.dumps(config))
        run_sweep(cfg, tmp_path / name / "a", quiet=True)
        run_sweep(cfg, tmp_path / name / "b", quiet=True)
        csv = [(tmp_path / name / run / "results.csv").read_bytes() for run in "ab"]
        assert csv[0] == csv[1], name
    assert forked == [2, 2, 2, 2]  # the GM sweep's two batches, twice


# ---------------------------------------------------------------------------
# a GM batch split across CPUs

@pytest.fixture(autouse=True)
def no_process_left():
    """No test of this module leaves a child process, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def spy_forks(monkeypatch, cpus: int) -> list:
    """Give the process ``cpus`` usable CPUs; return the list that records
    the length of each part forked from then on."""
    monkeypatch.setattr(audit, "usable_cpus", lambda: cpus)
    forked, fork = [], cli._fork
    monkeypatch.setattr(cli, "_fork", lambda part: forked.append(len(part)) or fork(part))
    return forked


def spy_sent_warnings(monkeypatch) -> list:
    """Return the list that records each warning a child sends back to be shown."""
    sent, show = [], cli._show
    monkeypatch.setattr(cli, "_show", lambda *warning: sent.append(warning) or show(*warning))
    return sent


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_gm_nnm_pin_holds_on_any_cpu_count(tmp_path, monkeypatch, cpus):
    # each batch of four T = 50 runs: one part, two of two runs, or three
    # of one, one and two runs, as SPLIT_MIN_ROUNDS = 48 allows
    forked = spy_forks(monkeypatch, cpus)
    assert_sweep_pinned(tmp_path, PINNED_SWEEPS[-1][0], PINNED_SWEEPS[-1][1], PINNED_SWEEP_NUMBERS[-1])
    assert forked == {1: [], 2: [2, 2], 3: [1, 2, 1, 2]}[cpus]


def test_a_batch_splits_only_for_gm_and_parts_of_enough_rounds(monkeypatch):
    def configs(kind, T, runs):
        doc = dict(SWEEP_TEMPLATE, aggregator={"kind": kind}, engine=dict(SWEEP_TEMPLATE["engine"], T=T),
                   grid={"f_hat": [1], "f": [1], "seeds": list(range(runs))})
        cfg = parse_config(json.dumps(doc))
        return [_build_run_config(cfg.normalized, *cell) for cell in _cells(cfg)]

    floor = cli.SPLIT_MIN_ROUNDS
    for cpus in (1, 2, 3):
        monkeypatch.setattr(audit, "usable_cpus", lambda: cpus)
        for kind, T, runs, lengths in (
            ("gm", floor, 3, [[3], [1, 2], [1, 1, 1]]),
            ("gm", floor - 1, 3, [[3], [3], [3]]),           # no part of one run is long enough
            ("gm", -(-floor // 2), 5, [[5], [2, 3], [2, 3]]),  # three parts would hold one run of T < floor
            ("gm", floor, 1, [[1], [1], [1]]),
            ("cwmed", 10 * floor, 3, [[3], [3], [3]]),
        ):
            batch = configs(kind, T, runs)
            parts = cli._parts(batch)
            assert [len(part) for part in parts] == lengths[cpus - 1], (cpus, kind, T, runs)
            assert [config for part in parts for config in part] == batch
    monkeypatch.delattr(os, "fork")  # no fork, no split
    assert len(cli._parts(configs("gm", 10 * floor, 3))) == 1


def test_no_split_while_another_thread_runs(monkeypatch):
    monkeypatch.setattr(audit, "usable_cpus", lambda: 2)
    cfg = parse_config(json.dumps(PINNED_SWEEPS[-1][0]))
    batch = [_build_run_config(cfg.normalized, *cell) for cell in _cells(cfg)]
    assert len(cli._parts(batch)) == 2
    release = threading.Event()
    helper = threading.Thread(target=release.wait)
    helper.start()
    try:
        assert len(cli._parts(batch)) == 1
    finally:
        release.set()
        helper.join()


def test_split_progress_lines_print_once_in_cell_order(tmp_path):
    # stdout is a buffered pipe: the first batch's lines (cells 0 and 1) are
    # still in the buffer when the second batch forks its parts, and a child
    # that flushed its copy on leaving would print them twice
    cfg = tmp_path / "gm.json"
    cfg.write_text(json.dumps(PINNED_SWEEPS[-1][0]))
    paths = [str(Path(fedrobust.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    env.pop("PYTHONUNBUFFERED", None)
    script = ("import sys; from fedrobust import audit, cli; audit.usable_cpus = lambda: 3; "
              f"sys.exit(cli.main(['sweep', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'o')!r}]))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stderr == ""
    assert [line.split(":")[0] for line in proc.stdout.splitlines()] == [f"cell{k:04d}" for k in range(8)]
    csv = (tmp_path / "o" / "results.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == PINNED_SWEEPS[-1][1]


def test_split_cells_wall_times_add_up_to_their_batch(tmp_path, monkeypatch):
    forked, spans, run_parts = spy_forks(monkeypatch, cpus=2), [], cli._run_parts

    def timed(configs):
        started = time.perf_counter()
        try:
            return run_parts(configs)
        finally:
            spans.append((time.perf_counter() - started) * 1000.0)

    monkeypatch.setattr(cli, "_run_parts", timed)
    started = time.perf_counter()
    assert run_sweep(parse_config(json.dumps(PINNED_SWEEPS[-1][0])), tmp_path, quiet=True) == 0
    elapsed = (time.perf_counter() - started) * 1000.0
    cells = json.loads((tmp_path / "summary.json").read_text())["cells"]
    assert forked == [2, 2] and len(spans) == 2
    batches = [[cell["wall_time_ms"] for cell in cells if cell["f_hat"] == f_hat] for f_hat in (2, 3)]
    for times, span in zip(batches, spans):
        assert len(set(times)) == 1 and span <= sum(times)
    assert sum(map(sum, batches)) <= elapsed


def failing_in(monkeypatch, parent_action, child_action=None):
    """Make ``cli.run_batch`` call ``parent_action()`` first in this process,
    and ``child_action()`` in a forked child; either may be None."""
    parent, run_batch = os.getpid(), cli.run_batch

    def spy(configs):
        action = parent_action if os.getpid() == parent else child_action
        if action is not None:
            action()
        return run_batch(configs)

    monkeypatch.setattr(cli, "run_batch", spy)


def raising(message):
    def fail():
        raise ArithmeticError(message.format(pid=os.getpid()))
    return fail


def test_an_exception_in_a_child_part_reaches_the_caller(tmp_path, monkeypatch, capsys):
    failing_in(monkeypatch, None, raising("part failed in {pid}"))
    for cpus in (2, 3):
        forked = spy_forks(monkeypatch, cpus)
        with pytest.raises(ArithmeticError, match=r"part failed in \d+") as caught:
            run_sweep(parse_config(json.dumps(PINNED_SWEEPS[-1][0])), tmp_path / "lib", quiet=True)
        assert caught.type is ArithmeticError and str(caught.value) != f"part failed in {os.getpid()}"
        assert forked == {2: [2], 3: [1, 2]}[cpus]  # the first batch fails
    path = tmp_path / "gm.json"
    path.write_text(json.dumps(PINNED_SWEEPS[-1][0]))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "cli"), "--quiet"]) == 2
    assert re.fullmatch(r"runtime error: part failed in \d+\n", capsys.readouterr().err)


def test_a_child_that_dies_without_a_result_names_its_exit_status(tmp_path, monkeypatch):
    failing_in(monkeypatch, None, lambda: os._exit(3))
    forked = spy_forks(monkeypatch, cpus=2)
    with pytest.raises(ChildProcessError, match="ended with exit status 3 and no result"):
        run_sweep(parse_config(json.dumps(PINNED_SWEEPS[-1][0])), tmp_path, quiet=True)
    assert forked == [2]


def test_an_exception_in_the_parent_part_kills_and_reaps_the_children(tmp_path, monkeypatch):
    # a child that is not killed sleeps for a minute before its part
    failing_in(monkeypatch, raising("parent part failed"), lambda: time.sleep(60))
    forked = spy_forks(monkeypatch, cpus=3)
    reaped, waitpid = [], os.waitpid
    monkeypatch.setattr(os, "waitpid", lambda pid, options: reaped.append(waitpid(pid, options)) or reaped[-1])
    started = time.perf_counter()
    with pytest.raises(ArithmeticError, match="parent part failed"):
        run_sweep(parse_config(json.dumps(PINNED_SWEEPS[-1][0])), tmp_path, quiet=True)
    assert time.perf_counter() - started < 30
    assert forked == [1, 2] and len(reaped) == 2
    assert all(os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL for _, status in reaped)


STEPSIZE_WARNING = "stepsize violates the convergence-guarantee precondition; the run may diverge"


def stepsize_sweep(seeds) -> ExperimentConfig:
    """A GM sweep of one T = 50 run per seed at gamma = 0.2: the precondition
    gamma <= 1/(2L) holds at seed 2 (L = 1.78) and breaks at seeds 0, 4 and
    5 (L = 2.91, 3.83 and 3.42)."""
    return parse_config(json.dumps({
        "schema_version": 1, "kind": "sweep",
        "problem": {"kind": "random_quadratic", "n": 10, "f": 1, "d": 5, "radius": 5.0},
        "aggregator": {"kind": "gm", "pre_nnm": True},
        "attack": {"kind": "gaussian_noise", "variance": 5.0},
        "engine": {"T": 50, "schedule": {"kind": "constant", "gamma": 0.2}, "w0": 1.0},
        "grid": {"f": [1], "f_hat": [3], "seeds": seeds},
    }))


@pytest.mark.parametrize("seeds", [[0, 4, 5], [2, 0, 4]], ids=["every_part", "children_only"])
def test_a_child_part_warning_is_shown_once(tmp_path, monkeypatch, seeds):
    for cpus in (1, 2, 3):
        forked, sent = spy_forks(monkeypatch, cpus), spy_sent_warnings(monkeypatch)
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("default")
            assert run_sweep(stepsize_sweep(seeds), tmp_path / f"{cpus}", quiet=True) == 0
        assert [(w.category, str(w.message)) for w in shown] == [(UserWarning, STEPSIZE_WARNING)]
        assert shown[0].filename == cli.__file__
        assert forked == {1: [], 2: [2], 3: [1, 1]}[cpus] and len(sent) == cpus - 1  # one from each child
        csv = [(tmp_path / f"{k}" / "results.csv").read_bytes() for k in (1, cpus)]
        assert csv[0] == csv[1]


def test_a_warning_filtered_to_an_error_raises_in_the_child(tmp_path, monkeypatch):
    # only the children's parts break the precondition at 2 and 3 CPUs; the
    # error is raised there, so no warning is sent back to be shown
    for cpus in (1, 2, 3):
        forked, sent = spy_forks(monkeypatch, cpus), spy_sent_warnings(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            with pytest.raises(UserWarning, match=re.escape(STEPSIZE_WARNING)):
                run_sweep(stepsize_sweep([2, 0, 4]), tmp_path, quiet=True)
        assert forked == {1: [], 2: [2], 3: [1, 1]}[cpus] and sent == []


def test_failed_cell_recorded_and_sweep_continues(tmp_path, capsys):
    config = {
        "schema_version": 1,
        "kind": "sweep",
        "problem": {"kind": "two_group_quadratic", "n": 10, "G": 1.0},
        "aggregator": {"kind": "cwtm"},
        "attack": {"kind": "honest_mimic"},
        "engine": {"T": 2, "w0": 1.0},
        # f=3 > f_hat=2 makes the two-group construction fail for one cell
        "grid": {"f_hat": [2], "f": [3, 2], "seeds": [0]},
    }
    cfg = parse_config(json.dumps(config))
    failures = run_sweep(cfg, tmp_path, quiet=True)
    assert failures == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["failed_cells"] == 1
    statuses = [("error" in cell) for cell in summary["cells"]]
    assert statuses == [True, False]
    # the healthy cell still produced rows
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert len(lines) == 1 + 3  # header + T+1 rows


def test_an_overflowing_attack_diverges_its_cell_and_the_sweep_goes_on(tmp_path):
    # the f_hat = 1 cell's sign flip overflows to inf in round 1; the cell
    # is diverged there, and the f_hat = 3 cell is what it is alone
    config = {
        "schema_version": 1,
        "kind": "sweep",
        "problem": {"kind": "random_quadratic", "n": 9, "d": 2, "G_target": 0.0, "radius": 1e-180},
        "aggregator": {"kind": "cwtm"},
        "attack": {"kind": "sign_flip", "scale": 1e250},
        "engine": {"T": 60, "schedule": {"kind": "constant", "gamma": 0.05}, "w0": [1e-180, -2e-180]},
        "grid": {"f": [3], "f_hat": [3, 1], "seeds": [0]},
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "both"), "--quiet"]) == 0
    summary = json.loads((tmp_path / "both" / "summary.json").read_text())
    assert summary["failed_cells"] == 0
    flipped = summary["cells"][1]["terminal"]
    assert (flipped["diverged"], flipped["diverged_round"], flipped["rounds_recorded"]) == (True, 2, 2)
    path.write_text(json.dumps({**config, "grid": {"f": [3], "f_hat": [3], "seeds": [0]}}))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "alone"), "--quiet"]) == 0
    rows = (tmp_path / "both" / "results.csv").read_text().splitlines()
    assert [row for row in rows if not row.startswith("cell0001")] == (tmp_path / "alone" / "results.csv").read_text().splitlines()


def test_fixed_vector_of_wrong_dimension_is_config_error(tmp_path, capsys):
    # problem.d (or 1) is known at parse time: a mis-sized vector or w0 exits 1, and no cell runs
    config = {
        "schema_version": 1,
        "kind": "sweep",
        "problem": {"kind": "random_quadratic", "n": 6, "d": 3, "G_target": 1.0, "radius": 2.0},
        "aggregator": {"kind": "cwmed"},
        "attack": {"kind": "fixed_vector", "vector": [1.0, 2.0]},
        "engine": {"T": 2},
        "grid": {"f_hat": [1], "f": [1], "seeds": [0]},
    }
    path = tmp_path / "c.json"
    cases = [(config, ["attack.vector must have dimension 3"]),
             (dict(config, engine={"T": 2, "w0": [1.0, 2.0]}, attack=None), ["engine.w0 must have dimension 3 or 1"]),
             (dict(config, problem={"kind": "homogeneous_quadratic", "n": 6}, engine={"w0": [1.0, 2.0]}),
              ["attack.vector must have dimension 1", "engine.w0 must have dimension 1"])]
    for doc, shown in cases:
        path.write_text(json.dumps(doc))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 1
        assert sorted(capsys.readouterr().err.splitlines()) == [f"config error: {line}" for line in shown]
        assert not (tmp_path / "o").exists()
    # one number for w0 is still repeated over d, and a vector of d entries runs
    path.write_text(json.dumps(dict(config, attack={"kind": "fixed_vector", "vector": [1.0, 2.0, 3.0]},
                                    engine={"T": 2, "w0": 0.5})))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 0


# ---------------------------------------------------------------------------
# report

def test_report_flags_and_divergence_handling(tmp_path):
    config = {
        "schema_version": 1,
        "kind": "sweep",
        "problem": {"kind": "two_group_quadratic", "n": 10, "G": 1.0},
        "aggregator": {"kind": "cwtm"},
        "attack": {"kind": "honest_mimic"},
        "engine": {"T": 300, "H": 1, "schedule": {"kind": "constant", "gamma": 0.01}, "w0": 1.0},
        "grid": {"f_hat": [3], "f": [2], "seeds": [0]},
    }
    cfg = parse_config(json.dumps(config))
    run_sweep(cfg, tmp_path / "res", quiet=True)
    doc = report(tmp_path / "res", tmp_path / "rep", quiet=True)
    cell = doc["cells"][0]
    assert cell["status"] == "pass"
    assert cell["floor_ok"] is True
    assert cell["grad_floor"] == pytest.approx(0.6)
    text = (tmp_path / "rep" / "report.txt").read_text()
    assert "cell0000" in text and "pass" in text

    # divergent configuration: underestimated trim with escalating outlier
    div_config = {
        "schema_version": 1,
        "kind": "sweep",
        "problem": {"kind": "homogeneous_quadratic", "n": 5},
        "aggregator": {"kind": "cwtm"},
        "attack": {"kind": "escalating_outlier"},
        "engine": {"T": 3000, "H": 1, "schedule": {"kind": "constant", "gamma": 0.1}, "w0": 1.0},
        "grid": {"f_hat": [1], "f": [2], "seeds": [0]},
    }
    cfg2 = parse_config(json.dumps(div_config))
    run_sweep(cfg2, tmp_path / "div", quiet=True)
    doc2 = report(tmp_path / "div", tmp_path / "rep2", quiet=True)
    cell2 = doc2["cells"][0]
    assert cell2["status"] == "diverged"
    assert cell2["floor_ok"] is None and cell2["ceiling_ok"] is None
    assert "n/a" in (tmp_path / "rep2" / "report.txt").read_text()


def test_zero_round_cell_has_no_ceiling_and_writes_strict_json(tmp_path):
    config = dict(MINIMAL_SIMULATE, engine={"T": 0, "kappa": 1.0, "schedule": {"kind": "grad_cube"}})
    path = tmp_path / "t0.json"
    path.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "res"), "--quiet"]) == 0
    report(tmp_path / "res", tmp_path / "rep", quiet=True)

    def strict(text):
        return json.loads(text, parse_constant=lambda name: pytest.fail(f"non-JSON constant {name}"))

    summary = strict((tmp_path / "res" / "summary.json").read_text())
    assert summary["cells"][0]["bounds"]["grad_ceiling"] is None
    cell = strict((tmp_path / "rep" / "report.json").read_text())["cells"][0]
    assert cell["grad_ceiling"] is None
    assert cell["status"] == "pass"


def test_kappa_overflowing_the_stepsize_constant_is_config_error(tmp_path):
    # c' = sqrt(384*kappa) would be inf, and the grad_cube ceiling inf * 0 = NaN
    config = dict(MINIMAL_SIMULATE, engine={"T": 1, "kappa": 1e307, "schedule": {"kind": "grad_cube"}})
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(config))
    assert exc.value.errors == ["engine.kappa = 1e+307 overflows the stepsize constant sqrt(384*kappa)"]
    path = tmp_path / "kappa.json"
    path.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "res"), "--quiet"]) == 1
    assert not (tmp_path / "res").exists()
    config["engine"]["kappa"] = 1e300
    path.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "res"), "--quiet"]) == 0


@pytest.mark.parametrize("key, value", [("T", -1), ("H", 0), ("kappa", -1.0), ("kappa", 1e307)])
def test_engine_rules_give_the_library_message(key, value):
    with pytest.raises(ParameterError) as lib:
        RunConfig(problem=problems.homogeneous_quadratic_problem(4), aggregator=aggregators.AggregatorSpec("mean"),
                  attack=AttackStrategy("honest_mimic"), **{key: value})
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(dict(MINIMAL_SIMULATE, engine={key: value})))
    assert exc.value.errors == [f"engine.{lib.value}"]


def test_grad_ceiling_that_overflows_is_written_as_null(tmp_path):
    # c' is finite here, but 90 * kappa * G^2 overflows
    config = {
        "schema_version": 1,
        "kind": "simulate",
        "problem": {"kind": "random_quadratic", "n": 4, "f": 1, "d": 2, "G_target": 10.0, "seed": 0},
        "aggregator": {"kind": "cwtm", "f_hat": 1},
        "attack": {"kind": "honest_mimic"},
        "engine": {"T": 1, "kappa": 4e305, "schedule": {"kind": "grad_cube"}},
    }
    path = tmp_path / "kappa.json"
    path.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "res"), "--quiet"]) == 0
    summary = json.loads((tmp_path / "res" / "summary.json").read_text())
    assert summary["cells"][0]["bounds"]["grad_ceiling"] is None


# sha256 of what a non-quiet sweep and its report show: the sweep's stdout
# and stderr, then the report's, then report.txt, report.json and
# summary.json with each wall_time_ms set to null.  One sweep has a cell
# that fails (two-group, f > f_hat), the other a cell that diverges.
# Recorded before sweep, audit and report shared one output path; a
# refactor of that path must not move them.  The summary.json values were
# re-recorded when AggregatorSpec lost its plain-distance Krum option, which left
# the config and the digests in them.
VISIBLE_BYTES = [
    ({
        "schema_version": 1,
        "kind": "sweep",
        "problem": {"kind": "two_group_quadratic", "n": 10, "G": 1.0},
        "aggregator": {"kind": "cwtm"},
        "attack": {"kind": "honest_mimic"},
        "engine": {"T": 2, "w0": 1.0},
        "grid": {"f_hat": [2], "f": [3, 2], "seeds": [0]},
    }, 3, {
        "sweep.stdout": "c0aaf94a4c5789400014652c5336acfabc6367ad8f4c9a5fa785f5cafad6498d",
        "sweep.stderr": "da9fbfbb13bbf8587b3c5b81035c2067805495c775e508c7775f2792a3c2f304",
        "report.stdout": "7013cfb1d595edfa8cd8e98e4ac6a39ec9b2beb94cf626f38da6c515503695b0",
        "report.stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "report.txt": "7013cfb1d595edfa8cd8e98e4ac6a39ec9b2beb94cf626f38da6c515503695b0",
        "report.json": "3c627fd207c278bfd8b0c4ce0c4cc4485cae434989c88971553b7d66cf86a73c",
        "summary.json": "66ceb9486152cab5479434c22840691e2b6e31fb37b86c78a1e190e119f3ec51",
    }),
    ({
        "schema_version": 1,
        "kind": "sweep",
        "problem": {"kind": "homogeneous_quadratic", "n": 5},
        "aggregator": {"kind": "cwtm"},
        "attack": {"kind": "escalating_outlier"},
        "engine": {"T": 3000, "H": 1, "schedule": {"kind": "constant", "gamma": 0.1}, "w0": 1.0},
        "grid": {"f_hat": [1], "f": [2], "seeds": [0]},
    }, 0, {
        "sweep.stdout": "ac252ba08a0b662611dee4e64701d353745fa75ec05e20322bd87d9626007cab",
        "sweep.stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "report.stdout": "8f4965c8740057a78b0bf5b6a4cd2ead2423be1bc735e93de12e92722126a9fc",
        "report.stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "report.txt": "8f4965c8740057a78b0bf5b6a4cd2ead2423be1bc735e93de12e92722126a9fc",
        "report.json": "8090efe18b00d369af6668781ecd47127c011eb429c79528dc82731640af76fe",
        "summary.json": "44ec58bd5ff0bb0682d441d179fcd3c3d37b1be7e524f023b59c533caa8c9aa3",
    }),
]


@pytest.mark.parametrize("config,exit_code,sha256", VISIBLE_BYTES, ids=["failed_cell", "diverged_cell"])
def test_sweep_and_report_visible_bytes_are_pinned(tmp_path, capsys, config, exit_code, sha256):
    sweep_cfg, report_cfg = tmp_path / "sweep.json", tmp_path / "report.json"
    sweep_cfg.write_text(json.dumps(config))
    report_cfg.write_text(json.dumps({"schema_version": 1, "kind": "report", "results": str(tmp_path / "res")}))
    shown = {}
    assert main(["sweep", "--config", str(sweep_cfg), "--out", str(tmp_path / "res")]) == exit_code
    shown["sweep.stdout"], shown["sweep.stderr"] = capsys.readouterr()
    assert main(["report", "--config", str(report_cfg), "--out", str(tmp_path / "rep")]) == 0
    shown["report.stdout"], shown["report.stderr"] = capsys.readouterr()
    shown["report.txt"] = (tmp_path / "rep" / "report.txt").read_text()
    shown["report.json"] = (tmp_path / "rep" / "report.json").read_text()
    summary = (tmp_path / "res" / "summary.json").read_text()
    shown["summary.json"] = re.sub(r'("wall_time_ms": )[^,\n]*', r"\1null", summary)
    assert {key: hashlib.sha256(text.encode()).hexdigest() for key, text in shown.items()} == sha256


def test_report_missing_column_is_schema_error(tmp_path):
    out = tmp_path / "res"
    out.mkdir()
    (out / "results.csv").write_text("run_id,round\nx,0\n")
    (out / "summary.json").write_text("{}")
    with pytest.raises(ConfigError) as exc:
        report(out, tmp_path / "rep", quiet=True)
    assert any("config_digest" in e for e in exc.value.errors)


# ---------------------------------------------------------------------------
# audit command

def test_audit_command_writes_jsonl(tmp_path):
    config = {
        "schema_version": 1,
        "kind": "audit",
        "audit": {"n": 8, "d": 2},
        "aggregator": {"kind": "cwtm"},
        "grid": {"f_hat": [2], "f": [2, 1], "seeds": [0, 1]},
    }
    cfg = parse_config(json.dumps(config))
    failures = run_audit(cfg, tmp_path, quiet=True)
    assert failures == 0
    lines = (tmp_path / "audits.jsonl").read_text().splitlines()
    assert len(lines) == 4
    rows = [json.loads(line) for line in lines]
    assert all(row["aggregator"] == "cwtm" and row["n"] == 8 for row in rows)
    at_exact = [row for row in rows if row["f"] == 2]
    for row in at_exact:
        assert row["worst_ratio"] <= row["kappa_guarantee"] + 1e-9


# audits.jsonl sha256 of an n = 20 grid, recorded before audits were grouped
# by seed: f in {0, 2} enumerates every subset and f = 6 samples them.
PINNED_AUDIT = {
    "schema_version": 1,
    "kind": "audit",
    "audit": {"n": 20, "d": 3, "subset_budget": 5000},
    "aggregator": {"kind": "krum", "pre_nnm": True},
    "grid": {"f": [2, 6, 0], "f_hat": [3, 6], "seeds": [4, 5]},
}
PINNED_AUDIT_SHA256 = "1bc2961da3113d9b41757d8a2a3e3d9c6efe934f11201355b9e0d7364f0c9cf9"


def test_audits_jsonl_sha256_is_pinned(tmp_path, capsys):
    cfg = parse_config(json.dumps(PINNED_AUDIT))
    assert run_audit(cfg, tmp_path / "a") == 0
    assert hashlib.sha256((tmp_path / "a" / "audits.jsonl").read_bytes()).hexdigest() == PINNED_AUDIT_SHA256
    assert json.loads((tmp_path / "a" / "summary.json").read_text())["failed_cells"] == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert [line.split(":")[0] for line in out.splitlines()] == [
        f"audit f={f} f_hat={f_hat} seed={seed}" for f in (2, 6, 0) for f_hat in (3, 6) for seed in (4, 5)
    ]
    # a cell that audit_profile would reject, f = 10 = n/2, is a config error
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**PINNED_AUDIT, "grid": {**PINNED_AUDIT["grid"], "f": [2, 10, 6, 0]}}))
    assert main(["audit", "--config", str(path), "--out", str(tmp_path / "b")]) == 1
    assert capsys.readouterr().err == "config error: grid.f = 10 violates 0 <= f < n/2 (n=20)\n"
    assert not (tmp_path / "b").exists()


# ---------------------------------------------------------------------------
# entry point

def test_main_exit_codes(tmp_path):
    bad_config = tmp_path / "bad.json"
    bad_config.write_text(json.dumps({"schema_version": 1, "kind": "nope"}))
    assert main(["simulate", "--config", str(bad_config), "--out", str(tmp_path / "o")]) == 1

    good = tmp_path / "good.json"
    good.write_text(json.dumps(dict(MINIMAL_SIMULATE, engine={"T": 2})))
    assert main(["simulate", "--config", str(good), "--out", str(tmp_path / "o2"), "--quiet"]) == 0
    assert (tmp_path / "o2" / "results.csv").exists()

    # subcommand/config kind mismatch
    assert main(["sweep", "--config", str(good), "--out", str(tmp_path / "o3")]) == 1

    missing = tmp_path / "missing.json"
    assert main(["simulate", "--config", str(missing), "--out", str(tmp_path / "o4")]) == 1


@pytest.mark.parametrize("problem, shown", [
    ({"kind": "two_group_quadratic", "n": 10, "f": 2, "G": -1.0}, ["problem.G must be positive"]),
    ({"kind": "random_quadratic", "n": 6, "d": 0}, ["problem.d = 0 violates 1 <= d"]),
    # every problem error at once, as for any other section
    ({"kind": "random_quadratic", "n": 6, "d": 0, "G_target": -1.0, "radiuss": 2.0}, [
        "unknown key 'radiuss' in problem; did you mean 'radius'?", "problem.d = 0 violates 1 <= d",
        "problem.G_target = -1.0 violates 0 <= G_target",
    ]),
], ids=["G", "d", "all_at_once"])
def test_problem_parameter_errors_are_config_errors(tmp_path, capsys, problem, shown):
    # the factory's own rules are checked before any cell runs: exit 1, not 3 with every cell failed
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(MINIMAL_SIMULATE, aggregator={"kind": "cwtm", "f_hat": 2}, problem=problem)))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "".join(f"config error: {line}\n" for line in shown)
    assert not (tmp_path / "o").exists()


def test_a_dispersion_that_overflows_fails_its_cell(tmp_path, capsys):
    # radius 1e200 passes the parameter rules; the factory's ConstructionError
    # fails the cell as its other construction errors do: exit 3, no rows
    problem = {"kind": "random_quadratic", "n": 6, "f": 1, "d": 2, "radius": 1e200}
    path = tmp_path / "far.json"
    path.write_text(json.dumps(dict(MINIMAL_SIMULATE, aggregator={"kind": "cwtm", "f_hat": 1}, problem=problem)))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 3
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["failed_cells"] == 1
    assert summary["cells"][0]["error"].startswith("the honest centers' dispersion overflows at radius = 1e+200")
    assert len((tmp_path / "o" / "results.csv").read_text().splitlines()) == 1  # the header
    assert capsys.readouterr().err == ""


def test_a_spread_lost_to_rounding_fails_its_cell(tmp_path):
    # at radius 1e12 the rescaled G2 reads 0.99999, not G_target^2 = 1: the
    # factory's ConstructionError fails the cell, and the run exits 3
    problem = {"kind": "random_quadratic", "n": 6, "f": 1, "d": 2, "radius": 1e12}
    path = tmp_path / "far.json"
    path.write_text(json.dumps(dict(MINIMAL_SIMULATE, aggregator={"kind": "cwtm", "f_hat": 1}, problem=problem)))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 3
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["failed_cells"] == 1
    assert summary["cells"][0]["error"] == (
        "G2 = 0.9999858171197888 misses G_target^2: rounding absorbs the spread at radius = 1e+12")


def test_seed_override(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(dict(MINIMAL_SIMULATE, engine={"T": 1})))
    assert main(["simulate", "--config", str(good), "--out", str(tmp_path / "s0"), "--quiet"]) == 0
    assert main(
        ["simulate", "--config", str(good), "--out", str(tmp_path / "s9"), "--seed", "9", "--quiet"]
    ) == 0
    base = (tmp_path / "s0" / "results.csv").read_text()
    overridden = (tmp_path / "s9" / "results.csv").read_text()
    digest0 = base.splitlines()[1].split(",")[1]
    digest9 = overridden.splitlines()[1].split(",")[1]
    assert digest0 != digest9  # seed participates in the digest


@pytest.mark.parametrize("command", ["sweep", "audit", "report"])
def test_main_calls_the_module_level_command(tmp_path, monkeypatch, command):
    # a tracer wraps these names on the module, so main must look them up there
    name = {"sweep": "run_sweep", "audit": "run_audit", "report": "report"}[command]
    calls = []
    monkeypatch.setattr(cli, name, lambda *args, **kwargs: calls.append(args) or 0)
    doc = {"sweep": SWEEP_TEMPLATE, "audit": AUDIT_TEMPLATE, "report": VALID["report"]}[command]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert len(calls) == 1


def test_console_entry_point(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SWEEP_TEMPLATE))
    # the child imports the package this test imported, installed or not
    paths = [str(Path(fedrobust.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-m", "fedrobust.cli", "sweep", "--config", str(cfg),
         "--out", str(tmp_path / "o"), "--quiet"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert (tmp_path / "o" / "results.csv").read_text() == GOLDEN_CSV


def test_load_config_from_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(MINIMAL_SIMULATE))
    cfg = load_config(path)
    assert cfg.kind == "simulate"


# ---------------------------------------------------------------------------
# schema validation

AUDIT_TEMPLATE = {
    "schema_version": 1,
    "kind": "audit",
    "audit": {"n": 8, "d": 2, "subset_budget": 100},
    "aggregator": {"kind": "krum", "f_hat": 2, "pre_nnm": True},
    "grid": {"f_hat": [2], "f": [1], "seeds": [0]},
}


def _readme_schema() -> str:
    """README from its config schema heading on."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("### Config schema (version 1)", 1)[1]


def _readme_config_example() -> str:
    return _readme_schema().split("```json\n", 1)[1].split("```", 1)[0]


def _readme_sections() -> dict:
    """README's table: config kind -> the sections it reads."""
    rows = (line.strip("|").split("|") for line in _readme_schema().splitlines() if line.startswith("| `"))
    return {kind.strip(" `"): set(re.findall(r"`(\w+)`", sections)) for kind, sections in rows}


def _with(doc: dict, path: str, value) -> dict:
    doc = copy.deepcopy(doc)
    *parents, key = path.split(".")
    target = doc
    for name in parents:
        target = target[name]
    target[key] = value
    return doc


MALFORMED = [
    (SWEEP_TEMPLATE, "attack", {"kind": "gaussian_noise", "variance": "high"}),
    (SWEEP_TEMPLATE, "problem", {"kind": "two_group_quadratic", "n": 10, "f": 1, "G": None}),
    (SWEEP_TEMPLATE, "problem", {"kind": "random_quadratic", "n": 5, "f": 1, "seed": -1}),
    (SWEEP_TEMPLATE, "aggregator.f_hat", "1"),
    (SWEEP_TEMPLATE, "aggregator.gm_max_iters", "x"),
    (SWEEP_TEMPLATE, "aggregator.gm_tolerance", 0),
    (SWEEP_TEMPLATE, "aggregator.pre_nnm", "yes"),
    (SWEEP_TEMPLATE, "engine.kappa", -1),
    (SWEEP_TEMPLATE, "engine.T", -5),
    (SWEEP_TEMPLATE, "engine.H", 0),
    (SWEEP_TEMPLATE, "engine.w0", "x"),
    (SWEEP_TEMPLATE, "engine.schedule.gamma", 0),
    (SWEEP_TEMPLATE, "grid.seeds", ["a"]),
    (AUDIT_TEMPLATE, "audit.d", -1),
    (AUDIT_TEMPLATE, "audit.subset_budget", 0),
]


@pytest.mark.parametrize("template, path, value", MALFORMED, ids=[f"{p}={v!r}" for _, p, v in MALFORMED])
def test_malformed_value_is_config_error(tmp_path, template, path, value):
    doc = _with(template, path, value)
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    section = path.split(".")[0]
    assert any(e.startswith(section) for e in exc.value.errors), exc.value.errors
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(doc))
    assert main([doc["kind"], "--config", str(config), "--out", str(tmp_path / "o"), "--quiet"]) == 1


def _paths(doc: dict, prefix: str = ""):
    for key, value in doc.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _paths(value, f"{prefix}{key}.")


@pytest.mark.parametrize(
    "bad", [None, "x", -1, 0.5, True, float("nan"), 10**400, [], [[]], {}], ids=lambda v: repr(v)[:8]
)
def test_parse_config_raises_only_config_error(bad):
    for template in (json.loads(_readme_config_example()), SWEEP_TEMPLATE, AUDIT_TEMPLATE):
        for path in _paths(template):
            try:
                parse_config(json.dumps(_with(template, path, bad)))
            except ConfigError:
                pass


def test_problem_f_hat_is_unknown_key():
    doc = _with(SWEEP_TEMPLATE, "problem", {"kind": "two_group_quadratic", "n": 10, "f": 1, "f_hat": 3})
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert exc.value.errors == ["unknown key 'f_hat' in problem"]


def test_spec_section_unknown_key_suggests_field():
    doc = _with(SWEEP_TEMPLATE, "aggregator.pre_nmm", True)
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert exc.value.errors == ["unknown key 'pre_nmm' in aggregator; did you mean 'pre_nnm'?"]


def test_integer_and_float_values_give_the_same_digest():
    def digest(gamma, variance):
        doc = _with(SWEEP_TEMPLATE, "engine.schedule.gamma", gamma)
        doc["attack"] = {"kind": "gaussian_noise", "variance": variance}
        cfg = parse_config(json.dumps(doc))
        return config_digest(_build_run_config(cfg.normalized, *_cells(cfg)[0]))

    assert digest(1, 5) == digest(1.0, 5.0)
    assert digest(1, 5) != digest(0.5, 5.0) != digest(0.5, 4.0)


def test_one_number_is_a_vector_of_one():
    # SWEEP_TEMPLATE holds attack.vector [2.0] and engine.w0 1.0
    template = parse_config(json.dumps(SWEEP_TEMPLATE)).normalized
    for path, value in (("attack.vector", 2), ("engine.w0", [1])):
        assert parse_config(json.dumps(_with(SWEEP_TEMPLATE, path, value))).normalized == template


def test_readme_config_example_parses():
    cfg = parse_config(_readme_config_example())
    assert cfg.kind == "sweep"
    assert len(_cells(cfg)) == 6


# ---------------------------------------------------------------------------
# sections per config kind

VALID = {
    "simulate": MINIMAL_SIMULATE,
    "sweep": SWEEP_TEMPLATE,
    "audit": AUDIT_TEMPLATE,
    "report": {"schema_version": 1, "kind": "report", "results": "out"},
}
# a well-formed value for every section
SECTION_VALUES = {
    "problem": {"kind": "homogeneous_quadratic", "n": 4},
    "aggregator": {"kind": "mean"},
    "attack": {"kind": "honest_mimic"},
    "engine": {"T": 1},
    "grid": {"f": [0]},
    "audit": {"n": 4},
    "results": "out",
}


def _foreign_sections() -> list:
    table = _readme_sections()
    every = set().union(*table.values())
    return [(kind, section) for kind in table for section in sorted(every - table[kind])]


@pytest.mark.parametrize("kind", CONFIG_KINDS)
def test_config_kind_reads_its_documented_sections(kind):
    table = _readme_sections()
    assert set(table) == set(CONFIG_KINDS)
    doc = {"schema_version": 1, "kind": kind, "seed": 1, **{s: SECTION_VALUES[s] for s in table[kind]}}
    assert set(parse_config(json.dumps(doc)).normalized) >= table[kind]


@pytest.mark.parametrize("kind, section", _foreign_sections())
def test_section_foreign_to_config_kind_is_config_error(kind, section):
    doc = dict(VALID[kind], **{section: SECTION_VALUES[section]})
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert any(repr(section) in e for e in exc.value.errors), exc.value.errors


@pytest.mark.parametrize("attack", [{"kind": "gaussian_noise", "variance": 1.0}, {"kind": "honest_mimic"}])
def test_seed_override_obeys_the_seed_rule(tmp_path, capsys, attack):
    doc = dict(MINIMAL_SIMULATE, attack=attack, engine={"T": 1})
    path = tmp_path / "c.json"
    path.write_text(json.dumps(dict(doc, seed=-1)))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "a"), "--quiet"]) == 1
    from_config = capsys.readouterr().err
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "b"), "--seed", "-1", "--quiet"]) == 1
    assert capsys.readouterr().err == from_config == "config error: seed = -1 violates 0 <= seed\n"
    assert not (tmp_path / "b").exists()


# ---------------------------------------------------------------------------
# the schema is read off the library

def _factory_params(kind: str) -> dict:
    params = inspect.signature(getattr(problems, f"{kind}_problem")).parameters
    return {name: p.default for name, p in params.items() if name not in ("f_hat", "honest_set")}


@pytest.mark.parametrize("kind", PROBLEM_KINDS)
def test_problem_section_is_read_off_the_factory(kind):
    params = _factory_params(kind)
    defaults = {k: v for k, v in params.items() if v is not inspect.Parameter.empty}
    minimal = parse_config(json.dumps(_with(SWEEP_TEMPLATE, "problem", {"kind": kind, "n": 6})))
    assert minimal.normalized["problem"] == {"kind": kind, "n": 6, **defaults, "f": 0}

    full = {"kind": kind, **defaults, "n": 6, "f": 1, **({"seed": 3} if "seed" in params else {})}
    cfg = parse_config(json.dumps(_with(SWEEP_TEMPLATE, "problem", full)))
    assert set(cfg.normalized["problem"]) == {"kind", "f", *params}
    for extra in ("f_hat", "honest_set", "bogus"):
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(_with(SWEEP_TEMPLATE, "problem", dict(full, **{extra: 1}))))
        assert [e.split(";")[0] for e in exc.value.errors] == [f"unknown key {extra!r} in problem"]


def test_a_replaced_factory_is_read_off_its_own_signature(monkeypatch):
    # signatures are looked up once per factory object: a replacement, such as
    # a tracing wrapper, is read off its own, and the original once it is back
    doc = json.dumps(_with(SWEEP_TEMPLATE, "problem", {"kind": "homogeneous_quadratic", "n": 6, "scale": 2.0}))
    with pytest.raises(ConfigError, match="unknown key 'scale' in problem"):
        parse_config(doc)

    def scaled(n: int, f: int = 0, scale: float = 1.0, honest_set=None):
        return problems.homogeneous_quadratic_problem(n, f, honest_set)

    monkeypatch.setattr(cli, "homogeneous_quadratic_problem", scaled)
    assert parse_config(doc).normalized["problem"] == {"kind": "homogeneous_quadratic", "n": 6, "f": 0, "scale": 2.0}
    monkeypatch.undo()
    with pytest.raises(ConfigError, match="unknown key 'scale' in problem"):
        parse_config(doc)


def test_random_problem_seed_is_required_in_the_library_and_the_cell_seed_in_configs():
    with pytest.raises(TypeError):
        random_quadratic_problem(6, 1)
    doc = dict(SWEEP_TEMPLATE, problem={"kind": "random_quadratic", "n": 6, "f": 1}, attack={"kind": "honest_mimic"})
    cfg = parse_config(json.dumps(doc))
    assert _build_run_config(cfg.normalized, 1, 1, 7).problem.descriptor["seed"] == 7
    pinned = parse_config(json.dumps(_with(doc, "problem.seed", 2)))
    assert _build_run_config(pinned.normalized, 1, 1, 7).problem.descriptor["seed"] == 2


def test_engine_section_is_read_off_run_config():
    wanted = [f for f in fields(RunConfig) if f.name not in ("problem", "aggregator", "attack", "seed")]
    defaults = {f.name: asdict(f.default_factory()) if f.default is MISSING else f.default for f in wanted}
    assert parse_config(json.dumps(MINIMAL_SIMULATE)).normalized["engine"] == defaults
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(dict(MINIMAL_SIMULATE, engine={"seed": 1})))
    assert exc.value.errors == ["unknown key 'seed' in engine"]


def test_readme_problem_parameters_match_the_factories():
    schema = " ".join(_readme_schema().split())
    listed = dict(re.findall(r"`(\w+_quadratic)` \(([^)]*)\)", schema))
    assert set(listed) == set(PROBLEM_KINDS)
    for kind, names in listed.items():
        params = _factory_params(kind)
        documented = dict(name.partition("=")[::2] for name in names.split(", "))
        assert set(documented) == set(params), kind
        for name, default in documented.items():
            if name != "f":  # f defaults to 0 for every kind
                want = params[name]
                assert (float(default) == want) if default else (want is inspect.Parameter.empty), (kind, name)


def test_report_cell_holds_the_documented_keys(tmp_path):
    schema = " ".join(_readme_schema().split())
    healthy, failed = (
        set(re.findall(r"`(\w+)`", part))
        for part in schema.split("A `report.json` cell holds", 1)[1].split(".", 1)[0].split("; a failed cell")
    )
    config = {
        "schema_version": 1,
        "kind": "sweep",
        "problem": {"kind": "two_group_quadratic", "n": 10},
        "aggregator": {"kind": "cwtm"},
        "engine": {"T": 2, "w0": 1.0},
        "grid": {"f_hat": [2], "f": [3, 2], "seeds": [0]},  # f > f_hat fails the first cell
    }
    run_sweep(parse_config(json.dumps(config)), tmp_path / "res", quiet=True)
    report(tmp_path / "res", tmp_path / "rep", quiet=True)
    cells = json.loads((tmp_path / "rep" / "report.json").read_text())["cells"]
    assert [set(cell) for cell in cells] == [failed, healthy]
    assert "bound_context" not in healthy
