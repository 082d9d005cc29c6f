"""Configuration-driven experiment runner.

One JSON config document serves every subcommand, with sections ``hazard``,
``repair``, ``system`` ({"n": ...}), ``approx`` ({"delta", "normalization"})
and ``run`` ({"n_events" | "horizon", "seed", "bin_width"}). Every run writes
a ``manifest.json`` (config echo, seed, numpy version) next to its
outputs; rerunning with the same inputs is byte-identical, and a manifest
itself is accepted wherever a config is.

Exit codes: 0 success, 1 failed check/other error, 2 invalid usage or config,
3 missing input file, 4 parameter domain error. Errors print one
machine-parsable line ``error: <kind>: <reason>`` on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .approx import ApproxModel, Normalization
from .bounds import sgrp_bounds_at_events
from .errors import ConfigError, DomainError, config_number
from .hazards import Hazard, hazard_from_config
from .io import (read_events_csv, write_bounds_csv, write_events_csv,
                 write_manifest, write_rates_csv)
from .repair import ARA, repair_from_config
from .rng import derive_seed
from .simulate import simulate_algorithm1, simulate_thinning
from .stats import RateCurve, rate_curve
from .superpose import mask, simulate_sgrp, true_intensity_at_events

OUTPUT_SCHEME = 5  #: manifest field: version of the arithmetic behind the output bytes
DEFAULT_BIN_WIDTH = 1000.0
SANDWICH_SLACK = 1e-9

EXIT_CHECK = 1
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_DOMAIN = 4


@dataclass
class RunConfig:
    hazard: Hazard
    repair: ARA
    n: int
    delta: float
    normalization: Normalization
    n_events: int | None
    horizon: float | None
    seed: int
    bin_width: float
    raw: dict


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file {path} does not exist")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON ({err})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    if "config" in doc and isinstance(doc["config"], dict):
        # manifest envelope: rerun from its embedded config with the seed the
        # original run actually resolved
        inner = dict(doc["config"])
        if "seed" in doc and isinstance(inner.get("run"), dict):
            inner["run"] = dict(inner["run"], seed=doc["seed"])
        doc = inner
    return parse_config(doc)


def parse_config(doc: dict) -> RunConfig:
    for section in ("hazard", "repair", "system", "run"):
        if section not in doc:
            raise ConfigError(f"config needs a '{section}' section")
        if not isinstance(doc[section], dict):
            raise ConfigError(f"config section '{section}' must be an object")
    hazard = hazard_from_config(doc["hazard"])
    repair = repair_from_config(doc["repair"])
    system = doc["system"]
    if "n" not in system:
        raise ConfigError("system section needs 'n'")
    n = config_number("system.n", system["n"], int)
    if n < 1:
        raise ConfigError(f"system.n must be >= 1, got {n}")

    approx = doc.get("approx", {})
    if not isinstance(approx, dict):
        raise ConfigError("config section 'approx' must be an object")
    delta = config_number("approx.delta", approx.get("delta", 0.5))
    norm_str = approx.get("normalization", Normalization.SYSTEM_SPLIT.value)
    try:
        normalization = Normalization(norm_str)
    except ValueError:
        raise ConfigError(f"unknown normalization {norm_str!r}") from None

    run = doc["run"]
    n_events = run.get("n_events")
    horizon = run.get("horizon")
    if (n_events is None) == (horizon is None):
        raise ConfigError("run section needs exactly one of 'n_events' or 'horizon'")
    if n_events is not None:
        n_events = config_number("run.n_events", n_events, int)
        if n_events < 1:
            raise ConfigError("run.n_events must be >= 1")
    if horizon is not None:
        horizon = config_number("run.horizon", horizon)
        if not horizon > 0.0:
            raise ConfigError("run.horizon must be positive")
    seed = config_number("run.seed", run.get("seed", 0), int)
    if seed < 0:
        raise ConfigError(f"run.seed must be a nonnegative integer, got {seed}")
    bin_width = config_number("run.bin_width", run.get("bin_width", DEFAULT_BIN_WIDTH))
    if not bin_width > 0.0:
        raise ConfigError("run.bin_width must be positive")
    return RunConfig(hazard=hazard, repair=repair, n=n, delta=delta,
                     normalization=normalization, n_events=n_events,
                     horizon=horizon, seed=seed, bin_width=bin_width, raw=doc)


def _resolve_seed(cfg: RunConfig, args) -> int:
    if args.seed is None:
        return cfg.seed
    if args.seed < 0:
        raise ConfigError(f"--seed must be a nonnegative integer, got {args.seed}")
    return args.seed


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _manifest_payload(cfg: RunConfig, subcommand, seed, outputs, **extra):
    payload = {
        "tool": "sgrpsim",
        "version": __version__,
        "subcommand": subcommand,
        "seed": seed,
        "config": cfg.raw,
        "outputs": sorted(Path(o).name for o in outputs),
        "versions": {"numpy": np.__version__},
        "output_scheme": OUTPUT_SCHEME,
    }
    payload.update(extra)
    return payload


def _approx_model(cfg: RunConfig, delta=None, repair=None) -> ApproxModel:
    return ApproxModel(
        n=cfg.n,
        delta=cfg.delta if delta is None else delta,
        hazard=cfg.hazard,
        repair=cfg.repair if repair is None else repair,
        normalization=cfg.normalization,
    )


def cmd_simulate_sgrp(args):
    cfg = load_config(args.config)
    seed = _resolve_seed(cfg, args)
    out = _out_dir(args)
    full = simulate_sgrp(cfg.n, cfg.repair, cfg.hazard,
                         n_events=cfg.n_events, horizon=cfg.horizon, seed=seed)
    masked = mask(full)
    files = [
        write_events_csv(out / "events.csv", full.times, full.labels),
        write_events_csv(out / "events_masked.csv", masked.times),
    ]
    write_manifest(out / "manifest.json",
                   _manifest_payload(cfg, "simulate-sgrp", seed, files,
                                     events=len(full)))
    return 0


def cmd_simulate_approx(args):
    cfg = load_config(args.config)
    seed = _resolve_seed(cfg, args)
    out = _out_dir(args)
    am = _approx_model(cfg)
    if args.method == "algorithm1":
        masked = simulate_algorithm1(am, cfg.n_events, seed, horizon=cfg.horizon)
    else:
        masked = simulate_thinning(am, n_events=cfg.n_events,
                                   horizon=cfg.horizon, seed=seed)
    files = [write_events_csv(out / "events.csv", masked.times)]
    write_manifest(out / "manifest.json",
                   _manifest_payload(cfg, "simulate-approx", seed, files,
                                     method=args.method, events=len(masked)))
    return 0


def cmd_bounds_check(args):
    cfg = load_config(args.config)
    seed = _resolve_seed(cfg, args)
    out = _out_dir(args)
    full = simulate_sgrp(cfg.n, cfg.repair, cfg.hazard,
                         n_events=cfg.n_events, horizon=cfg.horizon, seed=seed)
    lower, upper = sgrp_bounds_at_events(full.times, cfg.n, cfg.repair, cfg.hazard)
    true = true_intensity_at_events(full, cfg.repair, cfg.hazard)
    violations = int(np.sum((true < lower - SANDWICH_SLACK)
                            | (true > upper + SANDWICH_SLACK)))
    files = [write_bounds_csv(out / "bounds.csv", full.times, lower, upper, true)]
    write_manifest(out / "manifest.json",
                   _manifest_payload(cfg, "bounds-check", seed, files,
                                     events=len(full), violations=violations))
    print(f"events={len(full)} violations={violations}")
    if violations:
        print(f"error: check: {violations} envelope violations", file=sys.stderr)
        return EXIT_CHECK
    return 0


def cmd_rate_curve(args):
    cfg = load_config(args.config)
    seed = _resolve_seed(cfg, args)
    out = _out_dir(args)
    events_path = Path(args.events)
    if not events_path.exists():
        raise FileNotFoundError(f"event log {events_path} does not exist")
    times, _ = read_events_csv(events_path)
    curve = rate_curve(times, cfg.bin_width, horizon=cfg.horizon)
    files = [write_rates_csv(out / "rates.csv", curve,
                             note=f"source={events_path.name}")]
    write_manifest(out / "manifest.json",
                   _manifest_payload(cfg, "rate-curve", seed, files,
                                     source=str(events_path), bins=len(curve)))
    return 0


FIGURE_DELTAS = {"fig4": (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)}
FIGURE_RHOS = {"fig3": (0.3, 0.6, 0.9), "fig5": 0.3, "fig6": 0.6}


def _figure_tasks(which, cfg: RunConfig, seed, method):
    """One task dict per curve; each is picklable for the process pool."""
    base = {
        "raw": cfg.raw,
        "method": method,
    }
    tasks = []
    if which in ("fig3", "all"):
        for idx, rho in enumerate(FIGURE_RHOS["fig3"]):
            tasks.append(dict(base, name=f"fig3_rho{rho:g}", kind="sgrp", rho=rho,
                              seed=derive_seed(seed, 3, idx)))
    if which in ("fig4", "all"):
        for idx, delta in enumerate(FIGURE_DELTAS["fig4"]):
            tasks.append(dict(base, name=f"fig4_delta{delta:g}", kind="approx",
                              delta=delta, seed=derive_seed(seed, 4, idx)))
    for fig, tag in (("fig5", 5), ("fig6", 6)):
        if which in (fig, "all"):
            rho = FIGURE_RHOS[fig]
            tasks.append(dict(base, name=f"{fig}_delta0", kind="approx", delta=0.0,
                              rho=rho, seed=derive_seed(seed, tag, 0)))
            tasks.append(dict(base, name=f"{fig}_delta1", kind="approx", delta=1.0,
                              rho=rho, seed=derive_seed(seed, tag, 1)))
            tasks.append(dict(base, name=f"{fig}_sgrp", kind="sgrp", rho=rho,
                              seed=derive_seed(seed, tag, 2)))
    return tasks


def _run_figure_task(task):
    """Simulate one curve and return (name, starts, counts, rates, events)."""
    cfg = parse_config(task["raw"])
    rho = task.get("rho")
    repair = cfg.repair if rho is None else ARA(1, rho)
    if task["kind"] == "sgrp":
        # the model's per-component hazard, so exact and model curves share a scale
        hc = _approx_model(cfg).component_hazard()
        full = simulate_sgrp(cfg.n, repair, hc, n_events=cfg.n_events,
                             horizon=cfg.horizon, seed=task["seed"])
        times = full.times
    else:
        am = _approx_model(cfg, delta=task["delta"], repair=repair)
        if task["method"] == "algorithm1":
            masked = simulate_algorithm1(am, cfg.n_events, task["seed"],
                                         horizon=cfg.horizon)
        else:
            masked = simulate_thinning(am, n_events=cfg.n_events,
                                       horizon=cfg.horizon, seed=task["seed"])
        times = masked.times
    curve = rate_curve(times, cfg.bin_width, horizon=cfg.horizon)
    return (task["name"], curve.starts, curve.counts, int(times.size))


def cmd_figures(args):
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    cfg = load_config(args.config)
    seed = _resolve_seed(cfg, args)
    tasks = _figure_tasks(args.which, cfg, seed, args.method)
    out = _out_dir(args)
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool run needs it
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(tasks))) as pool:
            results = list(pool.map(_run_figure_task, tasks))
    else:
        results = [_run_figure_task(t) for t in tasks]

    files = []
    curve_meta = {}
    for name, starts, counts, n_ev in results:
        curve = RateCurve(cfg.bin_width, starts, counts)
        files.append(write_rates_csv(out / f"{name}_rates.csv", curve, note=name))
        curve_meta[name] = {"events": n_ev, "bins": len(curve)}
    write_manifest(out / "manifest.json",
                   _manifest_payload(cfg, "figures", seed, files,
                                     which=args.which, method=args.method,
                                     curves=curve_meta))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgrpsim",
        description="Simulation, masked-data intensity envelopes and the "
                    "weighted envelope-combination model for superposed "
                    "repairable-component failure processes.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, needs_out=True):
        p.add_argument("--config", required=True, help="JSON config (or manifest) path")
        p.add_argument("--seed", type=int, default=None,
                       help="override run.seed from the config")
        if needs_out:
            p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("simulate-sgrp",
                       help="exact labeled superposition run plus masked export")
    add_common(p)
    p.set_defaults(func=cmd_simulate_sgrp)

    p = sub.add_parser("simulate-approx",
                       help="masked trajectory from the envelope-combination model")
    add_common(p)
    p.add_argument("--method", choices=("algorithm1", "thinning"),
                   default="algorithm1")
    p.set_defaults(func=cmd_simulate_approx)

    p = sub.add_parser("bounds-check",
                       help="simulate, then tabulate lower/true/upper per event")
    add_common(p)
    p.set_defaults(func=cmd_bounds_check)

    p = sub.add_parser("rate-curve", help="bin an event log into rates.csv")
    p.add_argument("events", help="events.csv produced by a simulate subcommand")
    add_common(p)
    p.set_defaults(func=cmd_rate_curve)

    p = sub.add_parser("figures", help="run the benchmark scenarios, one CSV per curve")
    add_common(p)
    p.add_argument("--which", choices=("fig3", "fig4", "fig5", "fig6", "all"),
                   default="all")
    p.add_argument("--method", choices=("algorithm1", "thinning"),
                   default="algorithm1")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel curve workers (outputs identical for any value)")
    p.set_defaults(func=cmd_figures)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return int(args.func(args) or 0)
    except ConfigError as err:
        print(f"error: config: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as err:
        print(f"error: missing-file: {err}", file=sys.stderr)
        return EXIT_MISSING
    except DomainError as err:
        print(f"error: domain: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as err:  # an output path that cannot be made or written
        print(f"error: io: {err}", file=sys.stderr)
        return EXIT_CHECK  # the "other error" code


if __name__ == "__main__":
    sys.exit(main())
