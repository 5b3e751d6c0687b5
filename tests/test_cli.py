"""Config parsing, sweep execution, persistence, and reporting."""

import copy
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from fedrobust import ConfigError
from fedrobust.cli import (
    _build_run_config,
    _cells,
    load_config,
    main,
    parse_config,
    report,
    run_audit,
    run_sweep,
)
from fedrobust.engine import config_digest

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
cell0000,22824b6174b3b3d3,0,1.0,1.0,0.5,0.0,0
cell0000,22824b6174b3b3d3,1,0.81,0.905,0.405,0.0,0
cell0000,22824b6174b3b3d3,2,0.6561000000000001,0.8220333333333333,0.32805000000000006,0.0,0
cell0000,22824b6174b3b3d3,3,0.5314410000000002,0.74938525,0.2657205000000001,,0
cell0001,ec7db04ed1ae01bf,0,1.0,1.0,0.5,0.0,0
cell0001,ec7db04ed1ae01bf,1,0.81,0.905,0.405,0.0,0
cell0001,ec7db04ed1ae01bf,2,0.6561000000000001,0.8220333333333333,0.32805000000000006,0.0,0
cell0001,ec7db04ed1ae01bf,3,0.5314410000000002,0.74938525,0.2657205000000001,,0
"""


# ---------------------------------------------------------------------------
# parsing

def test_minimal_simulate_config_gets_documented_defaults():
    cfg = parse_config(json.dumps(MINIMAL_SIMULATE))
    engine = cfg.normalized["engine"]
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


def test_all_errors_reported_not_just_first():
    bad = {
        "schema_version": 99,
        "kind": "simulate",
        "problem": {"kind": "homogeneous_quadratic", "n": -1},
        "aggregator": {"kind": "bogus"},
        "attack": {"kind": "gaussian_noise", "variance": -3},
    }
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(bad))
    assert len(exc.value.errors) >= 4


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
    cfg = parse_config(json.dumps(SWEEP_TEMPLATE))
    again = parse_config(cfg.serialize())
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
    }, "f5937fe255a5f74565fbe0b36d4e393eb4f33d49122a741232e933620862ed7a"),
    ({
        "schema_version": 1,
        "kind": "sweep",
        "problem": {"kind": "two_group_quadratic", "n": 10, "f": 2, "G": 1.0},
        "aggregator": {"kind": "cwtm", "f_hat": 3},
        "attack": {"kind": "honest_mimic"},
        "engine": {"T": 50, "H": 5,
                   "schedule": {"kind": "constant", "gamma": 0.01}, "w0": 1.0},
        "grid": {"f": [0, 2], "f_hat": [3, 4], "seeds": [0]},
    }, "6cc9cffb402b2f3e9d10e72bdf17cf6c97e5888ab1edcb374d5a49959e084a33"),
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
         "d070a57a37741125b8c892dad090d45e48cd0e04404808a98f5d70261da873d0"),
        ({"kind": "escalating_outlier"},
         "95cf4fa6df32f24de70ed2cb6992a9ee832032f3ed1bd73316603ee020285143"),
        ({"kind": "fixed_vector", "vector": [1.0, -2.0, 0.5]},
         "e7499cf68fb19d5659ad3cacad9d9f6a60d13a310d0fdb75aeaa005185529bce"),
    )
]


@pytest.mark.parametrize("config,sha256", PINNED_SWEEPS,
                         ids=["criterion9", "two_group", "sign_flip", "escalating_outlier", "fixed_vector"])
def test_results_csv_sha256_is_pinned(tmp_path, config, sha256):
    assert run_sweep(parse_config(json.dumps(config)), tmp_path, quiet=True) == 0
    assert hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest() == sha256


def test_sweep_repeats_byte_identical(tmp_path):
    cfg = parse_config(json.dumps(SWEEP_TEMPLATE))
    run_sweep(cfg, tmp_path / "a", quiet=True)
    run_sweep(cfg, tmp_path / "b", quiet=True)
    assert (tmp_path / "a" / "results.csv").read_bytes() == (tmp_path / "b" / "results.csv").read_bytes()


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


def test_fixed_vector_of_wrong_dimension_is_failed_cell(tmp_path):
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
    path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 3
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["failed_cells"] == 1
    assert "dimension 3" in summary["cells"][0]["error"]
    assert len((tmp_path / "o" / "results.csv").read_text().splitlines()) == 1  # header only


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


def test_console_entry_point(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SWEEP_TEMPLATE))
    proc = subprocess.run(
        [sys.executable, "-m", "fedrobust.cli", "sweep", "--config", str(cfg),
         "--out", str(tmp_path / "o"), "--quiet"],
        capture_output=True, text=True,
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


def _readme_config_example() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config schema (version 1)", 1)[1]
    return section.split("```json\n", 1)[1].split("```", 1)[0]


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
    (SWEEP_TEMPLATE, "aggregator.f_hat", "1"),
    (SWEEP_TEMPLATE, "aggregator.gm_max_iters", "x"),
    (SWEEP_TEMPLATE, "aggregator.gm_tolerance", 0),
    (SWEEP_TEMPLATE, "aggregator.pre_nnm", "yes"),
    (SWEEP_TEMPLATE, "engine.kappa", -1),
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


def test_readme_config_example_parses():
    cfg = parse_config(_readme_config_example())
    assert cfg.kind == "sweep"
    assert len(_cells(cfg)) == 6
