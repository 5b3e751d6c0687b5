"""The four benchmark workloads.

Each workload turns the workload seed into inputs (``generate``), runs a
warm-up outside the timed region (``warm_up``), and then hands the runner
one cycle of ops at a time (``cycle``).  An op is one call into the library
or the CLI; its ``check`` runs after the op's timer stops and returns an
error message, or ``None`` when the output is correct.  Every cycle holds
the same mix of work, so per-cycle rates are comparable.

Library functions are looked up on their module at call time (``self.audit
.empirical_kappa``), so a traced run sees the calls the benchmark makes.
Functions the checks use are bound when the workload is built, before any
tracing is installed, so the checks never show up in a trace.

Why each workload exists, and which layer it should stress, is in README.md
next to this file.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

DEFAULT_SEED = 0
PINNED_FILE = Path(__file__).resolve().parent / "pinned_audit_exhaustive.json"

# Tolerances of the acceptance suite: ceilings get 1e-9 of slack, witness
# ratios must match to 1e-12, pinned values to a relative 1e-9.
CEILING_SLACK = 1e-9
WITNESS_TOL = 1e-12
PINNED_RTOL = 1e-9


@dataclass
class Op:
    fn: Callable[[], object]
    work: int                                   # units of work (audits, rounds, cells)
    check: Callable[[object], Optional[str]]    # error message, or None when correct


class Checks:
    """Counts every check that ran, by kind, so a run shows which ran."""

    def __init__(self):
        self.ran = {}

    def __call__(self, kind: str, ok: bool, message: str) -> Optional[str]:
        self.ran[kind] = self.ran.get(kind, 0) + 1
        return None if ok else f"{kind}: {message}"


def run_checked(ops):
    """Run ops untimed, as a warm-up does, and return their error messages."""
    return [e for e in (op.check(op.fn()) for op in ops) if e]


def _first_error(*errors):
    return next((e for e in errors if e is not None), None)


def _ratio_repr(x: float):
    return "inf" if math.isinf(x) else x


# --------------------------------------------------------------------------

class AuditExhaustive:
    """Criterion-2 mix: fuzz clouds at n in {6, 10, 16}, d in {1, 5}, every
    f_hat, audited with cwtm, krum and krum with pre_nnm at every f <= f_hat,
    plus lower-bound and cwtm-break witnesses.  One op is one
    ``empirical_kappa`` call; every audit enumerates all subsets."""

    name = "audit_exhaustive"
    probe = "mixed"  # ReferenceProbe kernel in run.py: tiny and bulk audits
    work_unit = "audits"
    rate_name = "audits_per_s"
    tail_pct = 99.0
    predicted_top = ("audit.empirical_kappa",)
    SHAPES = ((6, 1), (6, 5), (10, 1), (10, 5), (16, 1), (16, 5))
    CLOUD_CYCLES = 8

    def __init__(self, fr, seed, workdir, checks):
        self.fr, self.seed, self.checks = fr, seed, checks
        self.audit = fr.audit
        self.kappa_guarantee = fr.bounds.kappa_guarantee
        self.io = {"rows": 0, "bytes": 0}

    def generate(self):
        spec = self.fr.aggregators.AggregatorSpec
        self.cycles = []
        for c in range(self.CLOUD_CYCLES):
            items = []
            for n, d in self.SHAPES:
                top = -(-n // 2) - 1
                for f_hat in range(1, top + 1):
                    rng = np.random.default_rng([2025, self.seed, c, n, d, f_hat])
                    cloud = rng.uniform(0.1, 10.0) * rng.standard_normal((n, d))
                    specs = (
                        (spec("cwtm", f_hat=f_hat), None),
                        (spec("krum", f_hat=f_hat), None),
                        (spec("krum", f_hat=f_hat, pre_nnm=True), "krum_nnm"),
                    )
                    for s, guarantee_name in specs:
                        for f in range(f_hat + 1):
                            if guarantee_name is None:
                                # exact estimation at f = f_hat, monotone below it
                                ceiling = self.kappa_guarantee(s.kind, n, f_hat, f_hat)
                            else:
                                ceiling = self.kappa_guarantee(guarantee_name, n, f, f_hat)
                            items.append((s, cloud, f, ("ceiling", ceiling)))
            items.extend(self._witnesses(spec))
            self.cycles.append(items)

    def _witnesses(self, spec):
        items = []
        for n in (6, 10, 16):
            top = -(-n // 2) - 1
            for f in (0, top):
                w = self.audit.lower_bound_witness(n, f, top)
                for s in (spec("cwtm", f_hat=top), spec("krum", f_hat=top),
                          spec("krum", f_hat=top, pre_nnm=True)):
                    items.append((s, w.points, f, ("witness", w.expected_ratio)))
            w = self.audit.cwtm_break_witness(n, top, 1)
            items.append((spec("cwtm", f_hat=1), w.points, top, ("witness", w.expected_ratio)))
        return items

    def _op(self, item, pinned=None):
        s, points, f, (kind, target) = item

        def check(result):
            checks = self.checks
            got = result.worst_ratio
            if kind == "ceiling":
                err = checks("ceiling", got <= target + CEILING_SLACK,
                             f"{s.name} f={f} worst_ratio {got} above {target}")
            elif math.isinf(target):
                err = checks("witness", got == target, f"{s.name} f={f} ratio {got}, want inf")
            else:
                err = checks("witness", abs(got - target) <= WITNESS_TOL,
                             f"{s.name} f={f} ratio {got}, want {target}")
            branch = checks("exhaustive_branch", result.exhaustive, "audit fell back to sampling")
            pin = None
            if pinned is not None:
                if isinstance(pinned, str) or math.isinf(got):
                    ok = _ratio_repr(got) == pinned
                else:
                    ok = abs(got - pinned) <= PINNED_RTOL * abs(pinned)
                pin = checks("pinned", ok, f"{s.name} f={f} ratio {got}, pinned {pinned}")
            return _first_error(err, branch, pin)

        return Op(lambda: self.audit.empirical_kappa(s, points, f), 1, check)

    def warm_up(self):
        """Run cycle 0, which fills the subset cache; with the default seed
        its ratios are compared with the values pinned from the seed commit."""
        pinned = [None] * len(self.cycles[0])
        if self.seed == DEFAULT_SEED:
            pinned = json.loads(PINNED_FILE.read_text())["worst_ratio"]
            if len(pinned) != len(self.cycles[0]):
                raise RuntimeError("pinned ratio file does not match the cycle-0 audit list")
        return run_checked(self._op(item, pin) for item, pin in zip(self.cycles[0], pinned))

    def cycle_zero_ratios(self):
        return [_ratio_repr(self.audit.empirical_kappa(s, p, f).worst_ratio)
                for s, p, f, _ in self.cycles[0]]

    def cycle(self, c):
        return [self._op(item) for item in self.cycles[c % self.CLOUD_CYCLES]]


# --------------------------------------------------------------------------

class AuditSampled:
    """``fedrobust audit`` through ``cli.main`` on clouds with n >= 20, where
    every (n, f) has C(n, f) above the subset budget, so each audit takes the
    seeded-sampling branch.  One op is one CLI invocation."""

    name = "audit_sampled"
    probe = "bulk"  # ReferenceProbe kernel in run.py
    work_unit = "audits"
    rate_name = "audits_per_s"
    tail_pct = 90.0
    predicted_top = ("audit.empirical_kappa",)
    BUDGET = 20000
    CONFIG_CYCLES = 8
    # (aggregator, n, d, grid f, grid f_hat, seeds per config)
    TEMPLATES = (
        ({"kind": "cwtm"}, 20, 5, [6], [6], 2),
        ({"kind": "krum"}, 20, 5, [6], [6], 2),
        ({"kind": "krum", "pre_nnm": True}, 24, 5, [5, 6], [6], 1),
    )

    def __init__(self, fr, seed, workdir, checks):
        self.fr, self.seed, self.checks = fr, seed, checks
        self.cli = fr.cli
        self.kappa_guarantee = fr.bounds.kappa_guarantee
        self.workdir = Path(workdir)
        self.io = {"rows": 0, "bytes": 0}

    def generate(self):
        self.configs = []
        for c in range(self.CONFIG_CYCLES):
            row = []
            for k, (agg, n, d, fs, fhs, nseeds) in enumerate(self.TEMPLATES):
                if any(math.comb(n, f) <= self.BUDGET for f in fs):
                    raise ValueError("every audit grid point must force the sampling branch")
                base = 1000 * (self.seed * self.CONFIG_CYCLES + c) + 10 * k
                doc = {
                    "schema_version": 1,
                    "kind": "audit",
                    "aggregator": agg,
                    "audit": {"n": n, "d": d, "subset_budget": self.BUDGET},
                    "grid": {"f": fs, "f_hat": fhs, "seeds": [base + i for i in range(nseeds)]},
                }
                path = self.workdir / f"audit-{c}-{k}.json"
                path.write_text(json.dumps(doc))
                row.append((path, n, len(fs) * len(fhs) * nseeds))
            self.configs.append(row)
        self.out = self.workdir / "audit-out"

    def _op(self, path, n, audits):
        out = self.out

        def call():
            return self.cli.main(["audit", "--config", str(path), "--out", str(out), "--quiet"])

        def check(code):
            checks = self.checks
            err = checks("exit_code", code == 0, f"audit exited {code}")
            if err:
                return err
            lines = (out / "audits.jsonl").read_text().splitlines()
            self.io["rows"] += len(lines)
            self.io["bytes"] += sum(p.stat().st_size for p in out.iterdir())
            errors = [checks("row_count", len(lines) == audits, f"{len(lines)} rows, want {audits}")]
            for line in lines:
                row = json.loads(line)
                ratio = row["worst_ratio"]
                ceiling = self.kappa_guarantee(row["aggregator"], n, row["f"], row["f_hat"])
                errors.append(checks("sampled_branch", row["exhaustive"] is False,
                                     "audit enumerated every subset"))
                errors.append(checks("ceiling", ratio != "inf" and ratio <= ceiling + CEILING_SLACK,
                                     f"{row['aggregator']} f={row['f']} worst_ratio {ratio} above {ceiling}"))
            return _first_error(*errors)

        return Op(call, audits, check)

    def warm_up(self):
        return run_checked(self.cycle(0))

    def cycle(self, c):
        return [self._op(*item) for item in self.configs[c % self.CONFIG_CYCLES]]


# --------------------------------------------------------------------------

class SimKrumNnm:
    """Criterion-6 shape: ``random_quadratic_problem(10, 2, 5)``, Krum with
    pre_nnm at f_hat=3, attacks honest_mimic, gaussian_noise (variance 5)
    and sign_flip, grad_cube schedule with kappa=50.4, H=1, T=512.  One op is
    one ``run()`` call."""

    name = "sim_krum_nnm"
    probe = "interpreter"  # ReferenceProbe kernel in run.py
    work_unit = "rounds"
    rate_name = "rounds_per_s"
    tail_pct = 75.0
    predicted_top = None   # spread over aggregators, problems and engine
    PROBLEMS = 20
    KAPPA = 50.4
    T = 512

    def __init__(self, fr, seed, workdir, checks):
        self.fr, self.seed, self.checks = fr, seed, checks
        self.engine = fr.engine
        self.grad_ceiling = fr.bounds.grad_ceiling
        self.io = {"rows": 0, "bytes": 0}

    def _config(self, problem, attack, T, i):
        fr = self.fr
        return fr.engine.RunConfig(
            problem=problem,
            aggregator=fr.aggregators.AggregatorSpec("krum", f_hat=3, pre_nnm=True),
            attack=attack, T=T, H=1,
            schedule=fr.engine.Schedule("grad_cube"),
            w0=np.zeros(5), seed=i, kappa=self.KAPPA,
        )

    def generate(self):
        fr = self.fr
        attacks = (
            fr.attacks.AttackStrategy("honest_mimic"),
            fr.attacks.AttackStrategy("gaussian_noise", variance=5.0),
            fr.attacks.AttackStrategy("sign_flip", scale=1.0),
        )
        self.configs = []
        for i in range(self.PROBLEMS):
            # The default seed gives the problems of acceptance criterion 6.
            index = self.PROBLEMS * self.seed + i
            problem = fr.problems.random_quadratic_problem(
                10, 2, 5, G_target=1.0, radius=5.0, seed=1000 + index
            )
            self.configs.append([self._config(problem, a, self.T, index) for a in attacks])
        first = self.configs[0][1]
        self.warm_config = self._config(first.problem, first.attack, 8, first.seed)

    def _op(self, config):
        def check(record):
            checks = self.checks
            T = config.T
            div = checks("not_diverged", not record.diverged, f"run diverged at {record.diverged_round}")
            if div:
                return div
            ceiling = self.grad_ceiling(self.KAPPA, config.problem.L, 1, T, float(record.loss_gap[0]), 1.0)
            avg = float(record.running_avg[T - 1])
            return checks("grad_ceiling", avg <= ceiling, f"running_avg {avg} above {ceiling}")

        return Op(lambda: self.engine.run(config), config.T, check)

    def warm_up(self):
        return run_checked([self._op(self.warm_config)])

    def cycle(self, c):
        return [self._op(config) for config in self.configs[c % self.PROBLEMS]]


# --------------------------------------------------------------------------

class SweepGmNnm:
    """``fedrobust sweep --quiet`` then ``fedrobust report`` through
    ``cli.main``: GM with pre_nnm on random_quadratic (n=10, d=5), a
    gaussian_noise attack, constant stepsize, T=400, grid f x f_hat x seeds,
    run sequentially.  One op is one sweep plus its report."""

    name = "sweep_gm_nnm"
    probe = "interpreter"  # ReferenceProbe kernel in run.py
    work_unit = "cells"
    rate_name = "cells_per_s"
    tail_pct = 50.0
    predicted_top = ("aggregators.weiszfeld",)
    # One fixed problem instance (the ROADMAP's "fixed CLI sweep"); the
    # workload seed drives the attack streams.  Every op has the same shape,
    # so op latencies form one cluster.  Configs repeat after CONFIG_CYCLES
    # ops, and a repeated config must reproduce results.csv byte for byte.
    PROBLEM_SEED = 0
    CONFIG_CYCLES = 12
    GRID = {"f": [1, 2], "f_hat": [3]}

    def __init__(self, fr, seed, workdir, checks):
        self.fr, self.seed, self.checks = fr, seed, checks
        self.cli = fr.cli
        self.convergence_floor = fr.bounds.convergence_floor
        self.workdir = Path(workdir)
        self.io = {"rows": 0, "bytes": 0}
        self.digests = {}

    def _write(self, tag, T, seeds):
        doc = {
            "schema_version": 1,
            "kind": "sweep",
            "problem": {"kind": "random_quadratic", "n": 10, "f": 1, "d": 5,
                        "G_target": 1.0, "radius": 5.0, "seed": self.PROBLEM_SEED},
            "aggregator": {"kind": "gm", "pre_nnm": True},
            "attack": {"kind": "gaussian_noise", "variance": 5.0},
            "engine": {"T": T, "H": 1, "schedule": {"kind": "constant", "gamma": 0.01}, "w0": 1.0},
            "grid": {**self.GRID, "seeds": seeds},
        }
        sweep_cfg = self.workdir / f"sweep-{tag}.json"
        sweep_cfg.write_text(json.dumps(doc))
        results = self.workdir / f"sweep-{tag}"
        report_cfg = self.workdir / f"report-{tag}.json"
        report_cfg.write_text(json.dumps({"schema_version": 1, "kind": "report", "results": str(results)}))
        cells = len(self.GRID["f"]) * len(self.GRID["f_hat"]) * len(seeds)
        return (tag, sweep_cfg, results, report_cfg, self.workdir / f"report-{tag}", cells)

    def generate(self):
        base = self.CONFIG_CYCLES * self.seed
        self.jobs = [self._write(f"c{c}", 400, [base + c]) for c in range(self.CONFIG_CYCLES)]
        self.warm_job = self._write("warm", 8, [base])

    def _op(self, job):
        tag, sweep_cfg, results, report_cfg, report_out, cells = job

        def call():
            code = self.cli.main(["sweep", "--config", str(sweep_cfg), "--out", str(results), "--quiet"])
            if code != 0:
                return code, None
            return code, self.cli.main(["report", "--config", str(report_cfg), "--out", str(report_out), "--quiet"])

        def check(codes):
            checks = self.checks
            err = checks("exit_code", codes == (0, 0), f"sweep/report exited {codes}")
            if err:
                return err
            csv_bytes = (results / "results.csv").read_bytes()
            self.io["rows"] += csv_bytes.count(b"\n") - 1
            self.io["bytes"] += sum(p.stat().st_size for d in (results, report_out) for p in d.iterdir())
            digest = hashlib.sha256(csv_bytes).hexdigest()
            first = self.digests.setdefault(tag, digest)
            errors = [checks("results_sha256", digest == first, "results.csv differs from an earlier run of the same config")]
            summary = json.loads((results / "summary.json").read_text())
            report = json.loads((report_out / "report.json").read_text())
            final_grad = {}
            for line in csv_bytes.decode().splitlines()[1:]:
                fields = line.split(",")
                final_grad[fields[0]] = float(fields[3])
            constants = {c["run_id"]: c for c in summary["cells"]}
            errors.append(checks("cell_count", len(report["cells"]) == cells,
                                 f"{len(report['cells'])} report cells, want {cells}"))
            for entry in report["cells"]:
                errors.append(checks("cell_status", entry["status"] in ("pass", "fail"),
                                     f"{entry['run_id']} status {entry['status']}"))
                if entry["status"] not in ("pass", "fail"):
                    continue
                cell = constants[entry["run_id"]]
                floor, _ = self.convergence_floor(
                    10, entry["f"], entry["f_hat"], math.sqrt(cell["constants"]["G2"]), cell["constants"]["mu"]
                )
                measured = final_grad[entry["run_id"]]
                errors.append(checks(
                    "report_floor",
                    entry["measured_grad"] == measured
                    and entry["grad_floor"] == floor
                    and entry["floor_ok"] is bool(measured >= floor * (1.0 - 1e-9)),
                    f"{entry['run_id']} report disagrees with results.csv and the floor",
                ))
            return _first_error(*errors)

        return Op(call, cells, check)

    def warm_up(self):
        """Run the short warm-up config twice, so the reproducibility check
        runs even when the timed phase repeats no config."""
        op = self._op(self.warm_job)
        return run_checked([op, op])

    def cycle(self, c):
        return [self._op(self.jobs[c % self.CONFIG_CYCLES])]


WORKLOADS = {w.name: w for w in (AuditExhaustive, AuditSampled, SimKrumNnm, SweepGmNnm)}
