"""Configuration-driven experiment runner.

One JSON config document serves every subcommand, with sections ``hazard``,
``repair``, ``system`` ({"n": ...}), ``approx`` ({"delta", "normalization"})
and ``run`` ({"n_events" | "horizon", "seed", "bin_width"}). :func:`main` is
every run's envelope: it loads the config, resolves the seed (``--seed``,
else ``run.seed``), makes ``--out``, runs ``cmd_*(args, cfg, seed, out)`` for
its ``(files, fields, failure)`` and writes ``manifest.json`` (config echo,
seed, numpy version, files, fields). A run the subcommand refuses removes the
directories it made for ``--out`` while they are still empty. Rerunning with
the same inputs is byte-identical, and a manifest itself is accepted wherever
a config is.

Exit codes: 0 success, 1 failed check/other error, 2 invalid usage or config,
3 missing input file, 4 parameter domain error. Errors print one
machine-parsable line ``error: <kind>: <reason>`` on stderr; a failure
returned by a subcommand is ``error: check:``, and a command line argparse
refuses (``--seed -1`` and ``--jobs 0`` too) is ``error: usage:``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import suppress
from dataclasses import dataclass, replace
from functools import partial
from itertools import takewhile
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
from .stats import rate_curve
from .superpose import mask, simulate_sgrp, true_intensity_at_events

OUTPUT_SCHEME = 6  #: manifest field: version of the arithmetic behind the output bytes
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
        doc = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text ({err})") from None
    except (ValueError, RecursionError) as err:
        # a JSONDecodeError, an integer past the digit limit, or nesting
        # deeper than the interpreter's recursion limit
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
        if not 0.0 < horizon < math.inf:
            raise ConfigError(f"run.horizon must be positive and finite, got {horizon}")
    seed = config_number("run.seed", run.get("seed", 0), int)
    if seed < 0:
        raise ConfigError(f"run.seed must be a nonnegative integer, got {seed}")
    bin_width = config_number("run.bin_width", run.get("bin_width", DEFAULT_BIN_WIDTH))
    if not 0.0 < bin_width < math.inf:
        raise ConfigError(f"run.bin_width must be positive and finite, got {bin_width}")
    return RunConfig(hazard=hazard, repair=repair, n=n, delta=delta,
                     normalization=normalization, n_events=n_events,
                     horizon=horizon, seed=seed, bin_width=bin_width, raw=doc)


def _approx_model(cfg: RunConfig) -> ApproxModel:
    return ApproxModel(n=cfg.n, delta=cfg.delta, hazard=cfg.hazard,
                       repair=cfg.repair, normalization=cfg.normalization)


def _exact_run(cfg: RunConfig, seed, hazard=None):
    """The exact SGRP of ``cfg``, with ``hazard`` per component if given."""
    return simulate_sgrp(cfg.n, cfg.repair, cfg.hazard if hazard is None else hazard,
                         n_events=cfg.n_events, horizon=cfg.horizon, seed=seed)


def _model_run(cfg: RunConfig, method, seed):
    """A masked trajectory of ``cfg``'s model from the ``method`` sampler."""
    am = _approx_model(cfg)
    if method == "algorithm1":
        return simulate_algorithm1(am, cfg.n_events, seed, horizon=cfg.horizon)
    return simulate_thinning(am, n_events=cfg.n_events, horizon=cfg.horizon, seed=seed)


def cmd_simulate_sgrp(args, cfg: RunConfig, seed, out):
    full = _exact_run(cfg, seed)
    files = [
        write_events_csv(out / "events.csv", full.times, full.labels),
        write_events_csv(out / "events_masked.csv", mask(full).times),
    ]
    return files, {"events": len(full)}, None


def cmd_simulate_approx(args, cfg: RunConfig, seed, out):
    masked = _model_run(cfg, args.method, seed)
    files = [write_events_csv(out / "events.csv", masked.times)]
    return files, {"method": args.method, "events": len(masked)}, None


def cmd_bounds_check(args, cfg: RunConfig, seed, out):
    full = _exact_run(cfg, seed)
    lower, upper = sgrp_bounds_at_events(full.times, cfg.n, cfg.repair, cfg.hazard)
    true = true_intensity_at_events(full, cfg.repair, cfg.hazard)
    violations = int(np.sum((true < lower - SANDWICH_SLACK)
                            | (true > upper + SANDWICH_SLACK)))
    files = [write_bounds_csv(out / "bounds.csv", full.times, lower, upper, true)]
    print(f"events={len(full)} violations={violations}")
    failure = f"{violations} envelope violations" if violations else None
    return files, {"events": len(full), "violations": violations}, failure


def cmd_rate_curve(args, cfg: RunConfig, seed, out):
    events_path = Path(args.events)
    if not events_path.exists():
        raise FileNotFoundError(f"event log {events_path} does not exist")
    times, _ = read_events_csv(events_path)
    curve = rate_curve(times, cfg.bin_width, horizon=cfg.horizon)
    files = [write_rates_csv(out / "rates.csv", curve,
                             note=f"source={events_path.name}")]
    return files, {"source": str(events_path), "bins": len(curve)}, None


#: figure k's curves ``(name, kind, rho, delta)``; curve i draws from
#: ``derive_seed(seed, k, i)``. ``rho`` None keeps the config's repair; an
#: ``sgrp`` curve is the exact process, which has no delta.
FIGURES = {
    3: [(f"fig3_rho{rho:g}", "sgrp", rho, None) for rho in (0.3, 0.6, 0.9)],
    4: [(f"fig4_delta{delta:g}", "approx", None, delta)
        for delta in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)],
    # the model at delta 0 and 1 against the exact process, at one rho
    **{k: [(f"fig{k}_delta0", "approx", rho, 0.0),
           (f"fig{k}_delta1", "approx", rho, 1.0),
           (f"fig{k}_sgrp", "sgrp", rho, None)] for k, rho in ((5, 0.3), (6, 0.6))},
}


def _figure_curve(cfg: RunConfig, method, curve):
    """Simulate one ``(name, kind, rho, delta, seed)`` curve: (name, RateCurve, events)."""
    name, kind, rho, delta, seed = curve
    if rho is not None:
        cfg = replace(cfg, repair=ARA(1, rho))
    if kind == "sgrp":
        # the model's per-component hazard, so exact and model curves share a scale
        times = _exact_run(cfg, seed, _approx_model(cfg).component_hazard()).times
    else:
        times = _model_run(replace(cfg, delta=delta), method, seed).times
    return name, rate_curve(times, cfg.bin_width, horizon=cfg.horizon), int(times.size)


def cmd_figures(args, cfg: RunConfig, seed, out):
    curves = [(*curve, derive_seed(seed, k, i)) for k, figure in FIGURES.items()
              if args.which in (f"fig{k}", "all") for i, curve in enumerate(figure)]
    run = partial(_figure_curve, cfg, args.method)
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool run needs it
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(curves))) as pool:
            results = list(pool.map(run, curves))
    else:
        results = list(map(run, curves))

    files = []
    curve_meta = {}
    for name, curve, events in results:
        files.append(write_rates_csv(out / f"{name}_rates.csv", curve, note=name))
        curve_meta[name] = {"events": events, "bins": len(curve)}
    return files, {"which": args.which, "method": args.method, "curves": curve_meta}, None


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one ``error: usage:`` line."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"error: usage: {' '.join(message.split())}\n")


def _int_at_least(flag, low):
    """An argparse type for ``flag``: an int >= ``low``, else a usage error."""
    def convert(text):
        value = int(text)  # argparse reports a ValueError as "invalid int value"
        if value < low:
            raise argparse.ArgumentTypeError(f"{flag} must be >= {low}, got {value}")
        return value
    convert.__name__ = "int"  # the type name argparse's message gives
    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sgrpsim",
        description="Simulation, masked-data intensity envelopes and the "
                    "weighted envelope-combination model for superposed "
                    "repairable-component failure processes.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON config (or manifest) path")
        p.add_argument("--seed", type=_int_at_least("--seed", 0), default=None,
                       help="override run.seed from the config")
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
    p.add_argument("--which", choices=[f"fig{k}" for k in FIGURES] + ["all"],
                   default="all")
    p.add_argument("--method", choices=("algorithm1", "thinning"),
                   default="algorithm1")
    p.add_argument("--jobs", type=_int_at_least("--jobs", 1), default=1,
                   help="parallel curve workers (outputs identical for any value)")
    p.set_defaults(func=cmd_figures)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        seed = cfg.seed if args.seed is None else args.seed
        out = Path(args.out)
        made = list(takewhile(lambda d: not d.exists(), (out, *out.parents)))
        out.mkdir(parents=True, exist_ok=True)
        try:
            files, fields, failure = args.func(args, cfg, seed, out)
        except BaseException:
            with suppress(OSError):  # a refused run removes what it made, if still empty
                for d in made:
                    d.rmdir()
            raise
        write_manifest(out / "manifest.json", {
            "tool": "sgrpsim",
            "version": __version__,
            "subcommand": args.subcommand,
            "seed": seed,
            "config": cfg.raw,
            "outputs": sorted(Path(f).name for f in files),
            "versions": {"numpy": np.__version__},
            "output_scheme": OUTPUT_SCHEME,
            **fields,
        })
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
    if failure:
        print(f"error: check: {failure}", file=sys.stderr)
        return EXIT_CHECK
    return 0


if __name__ == "__main__":
    sys.exit(main())
