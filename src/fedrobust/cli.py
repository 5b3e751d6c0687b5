"""Command-line front end: audits, simulations, sweeps, and bound reports.

Configs are single JSON documents (schema version 1).  Every result
row carries the digest of the cell's full run configuration, and numeric CSV
fields use the shortest round-trip float representation, so repeated runs of
the same config produce byte-identical results.csv files.

Each config kind reads only its own sections (_SECTIONS; README.md has the
full schema).  The schema is read off the library, and so are the rules of
each field, every broken one recorded as ``section.field ...``:

- aggregator, attack and engine.schedule take the fields of AggregatorSpec,
  AttackStrategy and Schedule, with their defaults;
- engine takes the RunConfig fields that no cell sets (T = 100, H = 1,
  schedule, w0 = None, kappa = 0.0); one number for w0 or attack.vector is
  a list of one, and w0's is repeated over every coordinate; w0 and a
  fixed_vector attack's vector have problem.d entries (1 with no d);
- problem takes kind, f (default 0) and the parameters of the factory
  f"{kind}_problem", with its defaults, less f_hat and honest_set; an
  absent seed is the cell's seed.

Exit codes: 0 success, 1 invalid config, 2 runtime failure, 3 sweep finished
with failed cells.
"""

from __future__ import annotations

import argparse
import difflib
import functools
import inspect
import json
import os
import pickle
import signal
import sys
import threading
import time
import typing
import warnings
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from itertools import product
from pathlib import Path

import numpy as np

from . import audit as audit_mod
from . import bounds
from .aggregators import AggregatorSpec
from .attacks import AttackStrategy
from .engine import RunConfig, Schedule, run_batch
from .errors import ConfigError, ParameterError, count_error, dimension_error, kind_error
from .problems import (  # noqa: F401 - the factories are looked up by name, see PROBLEM_KINDS
    PROBLEM_KINDS,
    homogeneous_quadratic_problem,
    parameter_errors,
    random_quadratic_problem,
    two_group_quadratic_problem,
)

SCHEMA_VERSION = 1
# config kind -> the sections it reads besides schema_version, kind and seed
_SECTIONS = {
    "audit": ("audit", "aggregator", "grid"),
    "simulate": ("problem", "aggregator", "attack", "engine"),
    "sweep": ("problem", "aggregator", "attack", "engine", "grid"),
    "report": ("results",),
}
CONFIG_KINDS = tuple(_SECTIONS)

CSV_COLUMNS = (
    "run_id", "config_digest", "round", "grad_metric", "running_avg_grad", "loss_gap",
    "agg_deviation", "diverged",
)

# Factory parameters and RunConfig fields that each sweep cell sets.
_CELL_PARAMS = ("f_hat", "honest_set")
_CELL_FIELDS = ("problem", "aggregator", "attack", "seed")
_AUDIT_DEFAULTS = {"n": None, "d": 1, "subset_budget": audit_mod.SUBSET_BUDGET}

# A GM batch is split across CPUs only if each part holds at least this many
# run-rounds (the T of its runs, summed).  Time of two GM-after-NNM runs
# (n = 10, d = 5) split in two over one batch, medians of 120 alternating
# pairs on a 2-core x86-64 machine: T = 16 1.36x, 24 1.17-1.28x, 32 1.04-1.05x,
# 48 0.92x, 64 0.85-0.91x, 96 0.80-0.87x.
SPLIT_MIN_ROUNDS = 48


@dataclass
class ExperimentConfig:
    kind: str
    normalized: dict = field(default_factory=dict)


def _unknown_keys(section: dict, allowed: set, where: str, errors: list) -> None:
    for key in section:
        if key not in allowed:
            hint = difflib.get_close_matches(key, sorted(allowed), n=1)
            suffix = f"; did you mean {hint[0]!r}?" if hint else ""
            errors.append(f"unknown key {key!r} in {where}{suffix}")


def _object(section, where: str, errors: list) -> dict | None:
    """``section`` if it is a JSON object ({} if null or absent), else None
    after recording an error."""
    if section is None or isinstance(section, dict):
        return section or {}
    errors.append(f"'{where}' must be an object")
    return None


def _kept(value, kind):
    """A value that keeps its field's rules, as the config holds it: a float
    in a float field, a tuple (one number as a 1-tuple) in a vector field."""
    if kind is float:
        return float(value)
    if kind in (tuple, np.ndarray) and value is not None:
        return tuple(value) if isinstance(value, list) else (float(value),)
    return value


def _record(errors: list, *messages) -> bool:
    """Record each of the rule messages that is not None; return whether none was."""
    bad = [message for message in messages if message is not None]
    errors.extend(bad)
    return not bad


@functools.lru_cache(maxsize=32)
def _signature(target) -> tuple:
    """The parameters of the dataclass or factory ``target`` and their types
    (X for Optional[X]), looked up once per target object."""
    kinds = {name: (typing.get_args(hint) or (hint,))[0] for name, hint in typing.get_type_hints(target).items()}
    return tuple(inspect.signature(target).parameters.values()), kinds


def _read_fields(target, section, where: str, rules, errors: list, skip=(), optional=()) -> dict | None:
    """The parameters of the dataclass or factory ``target``, less ``skip``,
    read from their config section (None after recording an error if it is
    not an object), with their defaults; a dataclass parameter has a section
    of its own (null means all defaults), and an absent key with no default
    is required unless ``optional`` names it.  Each message of ``rules``
    (values -> message by field) is recorded as ``where.message``, and the
    fields that keep their rules are returned, as :func:`_kept` holds them."""
    if (section := _object(section, where, errors)) is None:
        return None
    params, kinds = _signature(target)
    params = [p for p in params if p.name not in skip]
    _unknown_keys(section, {p.name for p in params}, where, errors)
    values = {}
    for p in params:
        if is_dataclass(kinds[p.name]):
            values[p.name] = _build_spec(kinds[p.name], section.get(p.name), f"{where}.{p.name}", errors)
        elif p.name in section or p.default is not p.empty:
            values[p.name] = section.get(p.name, p.default)
        elif p.name not in optional:
            errors.append(f"{where}.{p.name} is required")
    broken = rules(values)
    errors.extend(f"{where}.{message}" for message in broken.values())
    return {name: _kept(value, kinds[name]) for name, value in values.items() if name not in broken}


def _build_spec(cls, section, where: str, errors: list) -> dict:
    """``dataclasses.asdict`` of the dataclass ``cls`` built from its config
    section under its ``field_errors``, else the fields that keep them."""
    kept = _read_fields(cls, section, where, cls.field_errors, errors) or {}
    return asdict(cls(**kept)) if len(kept) == len(fields(cls)) else kept


def _normalize_problem(section, errors) -> dict:
    """kind, then the parameters of the kind's factory under its rules
    (``problems.parameter_errors``).  f defaults to 0; an absent seed is
    left out, and the cell's seed fills it in.  {} unless n is valid."""
    if (section := _object(section, "problem", errors)) is None:
        return {}
    kind = section.get("kind")
    if not _record(errors, kind_error("problem.kind", kind, PROBLEM_KINDS)):
        return {}
    rest = {key: value for key, value in section.items() if key != "kind"}
    kept = _read_fields(globals()[f"{kind}_problem"], {"f": 0, **rest}, "problem", parameter_errors, errors,
                        skip=_CELL_PARAMS, optional=("seed",))
    return {"kind": kind, **kept} if "n" in kept else {}


def _problem_d(problem: dict):
    """A normalized problem's d (1 if its factory has none); None while n or d is broken."""
    takes_d = problem and "d" in {p.name for p in _signature(globals()[f"{problem['kind']}_problem"])[0]}
    return problem.get("d") if takes_d else 1 if problem else None


def _normalize_grid(section, defaults: dict, n, errors) -> dict:
    """Each axis is a non-empty list of integers, 0 <= value < n/2 for f and
    f_hat; an absent axis holds its default, checked where it came from."""
    if (section := _object(section, "grid", errors)) is None:
        return {}
    _unknown_keys(section, set(defaults), "grid", errors)
    out = {}
    for axis, default in defaults.items():
        values = out[axis] = section.get(axis, [default])
        if not isinstance(values, list) or not values:
            errors.append(f"grid.{axis} must be a non-empty list")
        elif axis in section:
            _record(errors, *(count_error(f"grid.{axis}", v, n=None if axis == "seeds" else n) for v in values))
    return out


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config document; raises ConfigError carrying
    every validation problem found, not just the first."""
    errors: list[str] = []
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])

    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        errors.append(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
    kind = raw.get("kind")
    if not _record(errors, kind_error("kind", kind, CONFIG_KINDS)):
        raise ConfigError(errors)
    sections = _SECTIONS[kind]
    _unknown_keys(raw, {"schema_version", "kind", "seed", *sections}, f"{kind} config", errors)
    seed = raw.get("seed", 0)
    _record(errors, count_error("seed", seed))
    normalized: dict = {"schema_version": SCHEMA_VERSION, "kind": kind, "seed": seed}

    n = None
    if "results" in sections:
        results = normalized["results"] = raw.get("results")
        if not isinstance(results, str) or not results:
            errors.append("report configs need a 'results' path")
    if "audit" in sections:
        section = _object(raw.get("audit"), "audit", errors) or {}
        _unknown_keys(section, set(_AUDIT_DEFAULTS), "audit", errors)
        audit = normalized["audit"] = {key: section.get(key, v) for key, v in _AUDIT_DEFAULTS.items()}
        valid = {key: _record(errors, count_error(f"audit.{key}", v, lo=1)) for key, v in audit.items()}
        n = audit["n"] if valid["n"] else None
    if "problem" in sections:
        normalized["problem"] = _normalize_problem(raw.get("problem"), errors)
        n = normalized["problem"].get("n")
    if "aggregator" in sections:
        agg = normalized["aggregator"] = _build_spec(AggregatorSpec, raw.get("aggregator"), "aggregator", errors)
        if "f_hat" in agg and n is not None:
            _record(errors, count_error("aggregator.f_hat", agg["f_hat"], n=n))
    if "attack" in sections:
        attack = raw.get("attack")
        normalized["attack"] = _build_spec(
            AttackStrategy, {"kind": "honest_mimic"} if attack is None else attack, "attack", errors
        )
    if "engine" in sections:
        normalized["engine"] = _read_fields(RunConfig, raw.get("engine"), "engine", RunConfig.field_errors, errors,
                                            skip=_CELL_FIELDS) or {}
        attack, d = normalized["attack"], _problem_d(normalized["problem"])
        vector = attack.get("vector") if attack.get("kind") == "fixed_vector" else None
        if d is not None:  # one number for w0 is repeated over d
            _record(errors, dimension_error("engine.w0", normalized["engine"].get("w0"), d, repeated=True),
                    dimension_error("attack.vector", vector, d))
    if "grid" in sections:
        problem_f = normalized.get("problem", {}).get("f", 0)
        defaults = {"f_hat": normalized["aggregator"].get("f_hat", 0), "f": problem_f, "seeds": seed}
        normalized["grid"] = _normalize_grid(raw.get("grid"), defaults, n, errors)
    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(kind=kind, normalized=normalized)


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


# --------------------------------------------------------------------------
# cell construction and execution

def _build_problem(pspec: dict, f: int, f_hat: int, seed: int):
    factory = globals()[f"{pspec['kind']}_problem"]
    accepted = {p.name for p in _signature(factory)[0]}
    values = {"seed": seed, **pspec, "f": f, "f_hat": f_hat}
    return factory(**{key: value for key, value in values.items() if key in accepted})


def _build_run_config(cfg: dict, f: int, f_hat: int, seed: int) -> RunConfig:
    problem = _build_problem(cfg["problem"], f, f_hat, seed)
    eng = cfg["engine"]
    w0 = None if eng["w0"] is None else np.resize(eng["w0"], problem.d)  # parse_config kept 1 or d entries
    return RunConfig(
        problem=problem,
        aggregator=AggregatorSpec(**{**cfg["aggregator"], "f_hat": f_hat}),
        attack=AttackStrategy(**cfg["attack"]),
        seed=seed,
        **{**eng, "schedule": Schedule(**eng["schedule"]), "w0": w0},
    )


def _cells(cfg: ExperimentConfig) -> list[tuple[int, int, int]]:
    if cfg.kind == "simulate":
        pspec = cfg.normalized["problem"]
        return [(pspec.get("f", 0), cfg.normalized["aggregator"]["f_hat"], cfg.normalized["seed"])]
    grid = cfg.normalized["grid"]
    return list(product(grid["f"], grid["f_hat"], grid["seeds"]))


def _fmt(x) -> str:
    return repr(float(x))


def _g(x) -> str:
    """A number as progress and report lines show it: n/a for None."""
    return "n/a" if x is None else f"{x:.6g}"


def _csv_rows(run_id: str, record) -> list[str]:
    diverged = "1" if record.diverged else "0"
    deviations = [_fmt(x) for x in record.agg_deviation]
    return [
        ",".join((
            run_id, record.config_digest, str(t), _fmt(record.grad_metric[t]),
            _fmt(record.running_avg[t]), _fmt(record.loss_gap[t]),
            deviations[t] if t < len(deviations) else "", diverged,
        ))
        for t in range(record.rows)
    ]


def _write_json(path: Path, doc: dict) -> None:
    # serialized before the file is opened, so a non-finite value leaves no partial file
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _progress(label: str, error, line, quiet: bool) -> None:
    """Unless quiet: ``label: FAILED (error)`` on stderr for a failed cell,
    else ``label: line()`` on stdout."""
    if not quiet:
        if error is None:
            print(f"{label}: {line()}")
        else:
            print(f"{label}: FAILED ({error})", file=sys.stderr)


def _write_summary(out: Path, cfg: ExperimentConfig, failures: int, **records) -> int:
    """Write summary.json: the config, the records and the number of failed
    cells, which is returned."""
    _write_json(out / "summary.json", {
        "schema_version": SCHEMA_VERSION, "kind": cfg.kind, "config": cfg.normalized,
        **records, "failed_cells": failures,
    })
    return failures


def _cell_bounds(problem, f_hat: int, eng: dict, record) -> dict:
    out = {"grad_floor": None, "gap_floor": None, "grad_ceiling": None}
    try:
        out["grad_floor"], out["gap_floor"] = bounds.convergence_floor(
            problem.n, problem.f, f_hat, np.sqrt(problem.G2), problem.mu
        )
    except ParameterError:
        pass
    if eng["schedule"]["kind"] == "grad_cube" and eng["kappa"] > 0 and record.rows > 0:
        try:
            with np.errstate(over="ignore"):
                ceiling = bounds.grad_ceiling(
                    eng["kappa"], problem.L, eng["H"], eng["T"], float(record.loss_gap[0]), np.sqrt(problem.G2)
                )
        except ParameterError:
            pass
        else:
            # a ceiling that overflows bounds nothing, and strict JSON cannot hold inf
            out["grad_ceiling"] = ceiling if np.isfinite(ceiling) else None
    return out


def _cell_result(head: dict, run_config: RunConfig, record, eng: dict, wall_time_ms: float) -> dict:
    # Running average over aggregation rounds only (the final row includes
    # the terminal iterate, which the averaged bound does not cover).
    last_avg_round = min(record.rows, max(eng["T"], 1)) - 1
    return {
        **head,
        "config_digest": record.config_digest,
        "problem": run_config.problem.descriptor,
        "aggregator": run_config.aggregator.name,
        "attack": run_config.attack.kind,
        "constants": {key: getattr(run_config.problem, key) for key in ("L", "mu", "G2", "l_star")},
        "initial": {
            "grad_metric": float(record.grad_metric[0]) if record.rows else None,
            "loss_gap": float(record.loss_gap[0]) if record.rows else None,
        },
        "terminal": {
            "grad_metric": record.final_grad_metric if record.rows else None,
            "loss_gap": record.final_loss_gap if record.rows else None,
            "running_avg_grad": float(record.running_avg[last_avg_round]) if record.rows else None,
            "rounds_recorded": record.rows,
            "diverged": record.diverged,
            "diverged_round": record.diverged_round,
        },
        "bounds": _cell_bounds(run_config.problem, head["f_hat"], eng, record),
        "wall_time_ms": wall_time_ms,
        "rows": _csv_rows(head["run_id"], record),
    }


def _run_part(configs) -> list:
    """``run_batch(configs)``: every part of a batch, forked or not, runs
    from this one line, so a warning has one location whatever the split."""
    return run_batch(configs)


def _parts(configs: list) -> list[list]:
    """``configs`` cut into contiguous parts of about equal length, one per
    usable CPU, if the rule is GM and every part holds at least
    ``SPLIT_MIN_ROUNDS`` run-rounds (fewer parts if that takes fewer);
    else one part.  Every other rule is vectorised across the batch, so a
    split would only lose what the lockstep batch shares."""
    if (not configs or configs[0].aggregator.kind != "gm" or not hasattr(os, "fork")
            or threading.active_count() > 1):  # a forked child gets only the calling thread
        return [configs]
    for count in range(min(audit_mod.usable_cpus(), len(configs)), 1, -1):
        edges = [len(configs) * i // count for i in range(count + 1)]
        parts = [configs[lo:hi] for lo, hi in zip(edges, edges[1:])]
        if min(sum(config.T for config in part) for part in parts) >= SPLIT_MIN_ROUNDS:
            return parts
    return [configs]


def _fork(part: list) -> tuple[int, int]:
    """Run ``part`` in a forked child; return its pid and the read end of a
    pipe that carries ``pickle.dumps((shown, outcome))``: the warnings the
    part showed and its records, or the exception it raised.  The child
    leaves by ``os._exit``, so the stdio buffers it inherited are not
    flushed twice; a child that dies first sends nothing."""
    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)
        return pid, read
    code = 1
    try:
        os.close(read)
        shown = []
        warnings.showwarning = lambda message, category, filename, lineno, *_: shown.append(
            (message, category, filename, lineno))
        try:
            outcome = _run_part(part)
        except BaseException as exc:  # noqa: BLE001 - raised again by the parent
            outcome = exc
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:  # noqa: BLE001 - an exception pickle cannot carry is sent as its text
                outcome = RuntimeError(f"{type(exc).__name__}: {exc}")
        with os.fdopen(write, "wb") as pipe:
            pipe.write(pickle.dumps((shown, outcome)))
        code = 0
    finally:
        os._exit(code)


def _show(message, category, filename: str, lineno: int) -> None:
    """Show a warning a child's part showed as this process would have shown
    it: through its filters, once per location of the module at
    ``filename``, as ``warnings.warn`` does."""
    module = next((m for m in list(sys.modules.values()) if getattr(m, "__file__", None) == filename), None)
    where = {} if module is None else {"module": module.__name__, "module_globals": vars(module),
                                       "registry": vars(module).setdefault("__warningregistry__", {})}
    warnings.warn_explicit(message, category, filename, lineno, **where)


def _run_parts(configs: list) -> list:
    """``run_batch(configs)`` over its :func:`_parts`: this process runs the
    first part while each other part runs in a forked child.  Each record equals
    its run alone, so the records do not depend on the split.  A child's
    warnings are shown here and its exception is raised here; if any part
    fails, every child still running is killed, and every child is reaped."""
    parts = _parts(configs)
    children = []  # (pid, read end); pid None once reaped
    try:
        for part in parts[1:]:
            children.append(_fork(part))
        records = _run_part(parts[0])
        for k, (pid, pipe) in enumerate(children):
            with open(pipe, "rb", closefd=False) as reader:
                payload = reader.read()
            status = os.waitpid(pid, 0)[1]
            children[k] = None, pipe
            if not payload:
                raise ChildProcessError(f"the process of a sweep part ended with exit status "
                                        f"{os.waitstatus_to_exitcode(status)} and no result")
            shown, outcome = pickle.loads(payload)
            for warning in shown:
                _show(*warning)
            if isinstance(outcome, BaseException):
                raise outcome
            records += outcome
        return records
    finally:
        for pid, pipe in children:
            os.close(pipe)
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _run_cells(cfg: ExperimentConfig, cells) -> list[dict]:
    """Run (index, cell) pairs that share the aggregator spec as one
    ``run_batch``, split by :func:`_run_parts`; results in cell order.  A
    cell whose run config cannot be built fails alone, with ``wall_time_ms``
    0; each other cell's is the batch's wall time over its cells, so the
    cells add up to the batch."""
    started = time.perf_counter()
    results, batch = [], []
    for index, (f, f_hat, seed) in cells:
        head = {"run_id": f"cell{index:04d}", "f": f, "f_hat": f_hat, "seed": seed}
        try:
            batch.append((len(results), _build_run_config(cfg.normalized, f, f_hat, seed)))
        except ValueError as exc:
            head.update(error=str(exc), rows=[], wall_time_ms=0.0)
        results.append(head)
    records = _run_parts([run_config for _, run_config in batch])
    wall_time_ms = (time.perf_counter() - started) * 1000.0 / max(len(batch), 1)
    for (k, run_config), record in zip(batch, records):
        results[k] = _cell_result(results[k], run_config, record, cfg.normalized["engine"], wall_time_ms)
    return results


def run_sweep(cfg: ExperimentConfig, out_dir, quiet: bool = False) -> int:
    """Execute every grid cell, streaming rows to results.csv (in cell order)
    and writing summary.json at the end.  The cells of one f_hat, and so of
    one aggregator spec, run as one batch of ``engine.run_batch`` (a GM
    batch split across CPUs, :func:`_run_parts`), the batches in the order
    of their first cells; after each batch every cell
    up to the first one not yet run is written out.

    Returns the number of failed cells.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    batches = {}  # f_hat -> its (index, cell) pairs
    for index, cell in enumerate(_cells(cfg)):
        batches.setdefault(cell[1], []).append((index, cell))
    cells, done = [], {}
    with open(out / "results.csv", "w", newline="") as sink:
        sink.write(",".join(CSV_COLUMNS) + "\n")
        sink.flush()
        for batch in batches.values():
            done.update(zip((index for index, _ in batch), _run_cells(cfg, batch)))
            while len(cells) in done:
                result = done.pop(len(cells))
                rows = result.pop("rows")
                sink.writelines(row + "\n" for row in rows)
                sink.flush()
                result["row_count"] = len(rows)
                cells.append(result)
                term = result.get("terminal")
                _progress(result["run_id"], result.get("error"), lambda: (
                    f"f={result['f']} f_hat={result['f_hat']} seed={result['seed']} "
                    f"grad={_g(term['grad_metric'])} diverged={term['diverged']}"
                ), quiet)
    return _write_summary(out, cfg, sum("error" in cell for cell in cells), cells=cells)


def run_audit(cfg: ExperimentConfig, out_dir, quiet: bool = False) -> int:
    """Audit the configured aggregator on seeded fuzz clouds over the grid.
    The cloud depends only on the seed, so each seed's cells are audited by
    one audit_profile call; rows and progress lines stay in cell order.
    parse_config admits no cell that audit_profile rejects, so every cell
    gives a row and summary.json records no failed cell."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    section = cfg.normalized["audit"]
    n, d, budget = section["n"], section["d"], section["subset_budget"]
    agg = cfg.normalized["aggregator"]
    grid = cfg.normalized["grid"]
    specs = {f_hat: AggregatorSpec(**{**agg, "f_hat": f_hat}) for f_hat in grid["f_hat"]}
    audits = {}  # (f, f_hat, seed) -> AuditResult
    for seed in grid["seeds"]:
        cloud = audit_mod.random_cloud(n, d, [seed, n, d])
        profile = audit_mod.audit_profile(list(specs.values()), cloud, grid["f"], budget, seed)
        for spec, results in zip(specs.values(), profile):
            audits.update(((f, spec.f_hat, seed), result) for f, result in zip(grid["f"], results))
    rows = []
    for f, f_hat, seed in _cells(cfg):
        row = audit_mod.to_jsonl_row(specs[f_hat], n, f, audits[f, f_hat, seed], seed)
        try:
            row["kappa_guarantee"] = bounds.kappa_guarantee(specs[f_hat].name, n, f, f_hat)
        except ParameterError:
            row["kappa_guarantee"] = None
        rows.append(row)
        _progress(f"audit f={f} f_hat={f_hat} seed={seed}", None, lambda: f"worst_ratio={row['worst_ratio']}", quiet)
    with open(out / "audits.jsonl", "w") as fh:
        fh.writelines(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    return _write_summary(out, cfg, 0, rows=rows)


def _load_summary(results_dir: Path) -> dict:
    """The sweep's summary.json, after checking that its results.csv header
    has every column."""
    for name in ("results.csv", "summary.json"):
        if not (results_dir / name).exists():
            raise ConfigError([f"no {name} under {results_dir}"])
    with open(results_dir / "results.csv") as fh:
        header = fh.readline().rstrip("\n").split(",")
    for column in CSV_COLUMNS:
        if column not in header:
            raise ConfigError([f"results.csv is missing column {column!r}"])
    with open(results_dir / "summary.json") as fh:
        return json.load(fh)


def report(results_dir, out_dir, quiet: bool = False) -> dict:
    """Compare each cell's measured terminal metrics against its theoretical
    floor and ceiling; writes report.txt and report.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries, lines = [], ["bound comparison report", "=" * 88]
    for cell in _load_summary(Path(results_dir)).get("cells", []):
        if "error" in cell:
            entries.append({"run_id": cell["run_id"], "status": "error", "error": cell["error"]})
            lines.append(f"{cell['run_id']:<10} ERROR {cell['error']}")
            continue
        term = cell["terminal"]
        floor, ceiling = cell["bounds"]["grad_floor"], cell["bounds"]["grad_ceiling"]
        entry = {
            **{key: cell[key] for key in ("run_id", "f", "f_hat", "seed")},
            "diverged": term["diverged"],
            "measured_grad": term["grad_metric"],
            "measured_running_avg": term["running_avg_grad"],
            "measured_gap": term["loss_gap"],
            "grad_floor": floor,
            "grad_ceiling": ceiling,
        }
        if term["diverged"]:
            entry.update(floor_ok=None, ceiling_ok=None, status="diverged")
            floor = ceiling = None  # report.txt shows no bound for a diverged cell
        else:
            entry["floor_ok"] = None if floor is None else bool(term["grad_metric"] >= floor * (1.0 - 1e-9))
            entry["ceiling_ok"] = None if ceiling is None else bool(term["running_avg_grad"] <= ceiling)
            entry["status"] = "fail" if False in (entry["floor_ok"], entry["ceiling_ok"]) else "pass"
        entries.append(entry)
        lines.append(
            f"{cell['run_id']:<10} f={cell['f']:<3} f_hat={cell['f_hat']:<3} seed={cell['seed']:<6} floor={_g(floor):<12} "
            f"measured={_g(term['grad_metric']):<12} ceiling={_g(ceiling):<12} {entry['status']}"
        )
    text = "\n".join(lines) + "\n"
    (out / "report.txt").write_text(text)
    doc = {"schema_version": SCHEMA_VERSION, "kind": "report", "cells": entries}
    _write_json(out / "report.json", doc)
    if not quiet:
        print(text, end="")
    return doc


# --------------------------------------------------------------------------
# entry point

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused."""
    parser = argparse.ArgumentParser(prog="fedrobust", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in CONFIG_KINDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to the JSON experiment config")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    errors: list[str] = []
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        errors = exc.errors
    except OSError as exc:
        errors = [str(exc)]
    else:
        if cfg.kind != args.command:
            errors.append(f"config kind {cfg.kind!r} does not match subcommand {args.command!r}")
        if args.seed is not None and _record(errors, count_error("seed", args.seed)):
            cfg.normalized["seed"] = args.seed
            if "grid" in cfg.normalized:
                cfg.normalized["grid"]["seeds"] = [args.seed]
    if errors:
        for err in errors:
            print(f"config error: {err}", file=sys.stderr)
        return 1
    try:
        if cfg.kind == "report":
            report(cfg.normalized["results"], args.out, quiet=args.quiet)
            return 0
        failures = (run_audit if cfg.kind == "audit" else run_sweep)(cfg, args.out, quiet=args.quiet)
        return 3 if failures else 0
    except ConfigError as exc:
        for err in exc.errors:
            print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
