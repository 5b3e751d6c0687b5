"""Smoke-size runs of every workload, plus the tracer's refactor safety.

Run from the repository root:

    python3 -m pytest bench -q

Each workload runs for one second untraced and one second traced; the test
checks that every metric named in BENCHMARK.json is emitted with its unit,
that no op failed, and that every correctness check of the workload ran.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

EXPECTED_CHECKS = {
    "audit_exhaustive": {"ceiling", "witness", "exhaustive_branch", "pinned"},
    "audit_sampled": {"exit_code", "row_count", "sampled_branch", "ceiling"},
    "sim_krum_nnm": {"not_diverged", "grad_ceiling"},
    "sweep_gm_nnm": {"exit_code", "results_sha256", "cell_count", "cell_status", "report_floor"},
}


def run_bench(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(EXPECTED_CHECKS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(EXPECTED_CHECKS))
def test_smoke_run(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    record = json.loads((BENCH_DIR / "out" / f"{workload}-seed0-trace{trace}.json").read_text())
    assert EXPECTED_CHECKS[workload] <= set(record["checks"])
    assert all(count > 0 for count in record["checks"].values())
    if trace:
        assert record["prediction"]["agrees"], record["notes"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "sim_krum_nnm", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_reports_absent_names_and_restores_originals():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        from spans import Tracer
    finally:
        sys.path.remove(str(BENCH_DIR))

    module = types.ModuleType("fake_layer")

    def work(x):
        return x + 1

    def outer(x):
        return module.work(x) * 2

    module.work, module.outer = work, outer
    sys.modules["fake_layer"] = module
    try:
        tracer = Tracer()
        tracer.install((
            ("fake_layer", "outer", "fake.outer", None),
            ("fake_layer", "work", "fake.work", None),
            ("fake_layer", "removed_in_a_refactor", "fake.gone", None),
            ("missing_module", "anything", "missing.anything", None),
        ))
        assert tracer.op(0, module.outer, 1) == 4
        tracer.uninstall()
    finally:
        del sys.modules["fake_layer"]
    assert module.work is work and module.outer is outer
    assert tracer.absent == ["fake_layer.removed_in_a_refactor", "missing_module.anything"]
    assert tracer.calls("fake.outer") == 1 and tracer.calls("fake.work") == 1
    assert tracer.edge_sum("fake.work", "fake.outer", 0) == 1
    assert tracer.busy("fake.outer") >= tracer.busy("fake.work")
    assert tracer.top_self()  # the root op span is excluded from the ranking
    assert "bench.op" not in tracer.top_self()
