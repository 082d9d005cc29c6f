"""The benchmark's workloads: inputs, one timed execution, and output checks.

Each workload derives its whole input from the seed: a config document in
the CLI's format, written once per run. ``execute`` is the timed part of a
repetition; ``verify`` checks the outputs afterwards and returns one
``(operation, ok)`` pair per operation (a CLI invocation, a curve, or an
output check), and ``digest`` hashes the outputs for the per-seed record.

Library entry points are looked up through their modules at call time, so
the span wrappers of a traced run see every call.

Why these three (see README.md for the layer map):

* ``figures`` is the paper's figure-reproduction job, the main user path:
  5 exact-superposition curves and 10 stream-sampler curves with short
  per-component histories. It never touches the envelopes, thinning or
  quadrature.
* ``oracle`` is the model-validation job: window thinning from the exact
  model intensity, then time-rescaling residuals by adaptive quadrature over
  a trailing window, then the KS gate. It never touches ``superpose``, the
  stream sampler or CSV output.
* ``bounds-kijima`` is ``bounds-check`` with Kijima type-I repair and only 5
  components, so every component's history is long: it stresses the
  history-dependent repair offsets, the true intensity, the per-event
  envelopes and the large ``bounds.csv`` write.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import json
import shutil
from pathlib import Path

import numpy as np

import sgrpsim.approx as approx
import sgrpsim.cli as cli
import sgrpsim.io as sio
import sgrpsim.rng as rng_mod
import sgrpsim.simulate as simulate
import sgrpsim.stats as stats
import sgrpsim.superpose as superpose

#: The README config: power-law wear-out shared by every workload.
HAZARD = {"family": "power_law", "beta": 1.3, "eta": 40.0}

FIGURES_EVENTS = 6_000  # per curve; 15 curves
FIGURES_CURVES = 15
ORACLE_EVENTS = 4_000
ORACLE_WINDOW = 600  # trailing intervals scored by quadrature residuals
KIJIMA_EVENTS = 6_000

#: Same tolerance as ``sgrpsim.cli`` uses for the envelope sandwich.
SANDWICH_SLACK = 1e-9


def _tree_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _tree_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir())


def _strictly_increasing(times) -> bool:
    return bool(np.all(np.diff(times) > 0.0))


class Workload:
    name = ""
    events = 0  # events the samplers produce per repetition

    def config(self, seed) -> dict:
        raise NotImplementedError

    def prepare(self, workdir: Path, seed: int) -> None:
        """Write the config document; called once per run."""
        workdir.mkdir(parents=True, exist_ok=True)
        (workdir / "config.json").write_text(json.dumps(self.config(seed), indent=2))

    def reset(self, workdir: Path) -> None:
        """Remove the previous repetition's outputs (untimed)."""
        shutil.rmtree(workdir / "out", ignore_errors=True)

    def execute(self, workdir: Path, seed: int, traced: bool = False) -> dict:
        raise NotImplementedError

    def verify(self, workdir: Path, result: dict) -> list:
        raise NotImplementedError

    def digest(self, workdir: Path, result: dict) -> str:
        return _tree_digest(workdir / "out")

    def bytes_written(self, workdir: Path, result: dict) -> int:
        return _tree_bytes(workdir / "out")


class Figures(Workload):
    name = "figures"
    events = FIGURES_EVENTS * FIGURES_CURVES

    def config(self, seed):
        return {
            "hazard": HAZARD,
            "repair": {"model": "ara", "m": 1, "rho": 0.3},
            "system": {"n": 100},
            "approx": {"delta": 0.5, "normalization": "system_split"},
            "run": {"n_events": FIGURES_EVENTS, "seed": seed, "bin_width": 1000.0},
        }

    def execute(self, workdir, seed, traced=False):
        code = cli.main(["figures", "--config", str(workdir / "config.json"),
                         "--out", str(workdir / "out"), "--seed", str(seed),
                         "--which", "all", "--method", "algorithm1", "--jobs", "1"])
        return {"code": code}

    def verify(self, workdir, result):
        out = workdir / "out"
        ops = [("cli figures exit 0", result["code"] == 0)]
        try:
            curves = sio.read_manifest(out / "manifest.json")["curves"]
        except (OSError, ValueError, KeyError):
            curves = {}
        ops.append(("figures curve count", len(curves) == FIGURES_CURVES))
        for name, meta in sorted(curves.items()):
            try:
                _, counts, _ = sio.read_rates_csv(out / f"{name}_rates.csv")
            except (OSError, ValueError, IndexError):
                ops.append((f"{name} curve readable", False))
                continue
            ops.append((f"{name} curve readable", True))
            ops.append((f"{name} event count", meta["events"] == FIGURES_EVENTS))
            ops.append((f"{name} counts sum to events", int(counts.sum()) == meta["events"]))
        return ops


class Oracle(Workload):
    name = "oracle"
    events = ORACLE_EVENTS

    def config(self, seed):
        return {
            "hazard": HAZARD,
            "repair": {"model": "ara", "m": 1, "rho": 0.3},
            "system": {"n": 100},
            "approx": {"delta": 0.5, "normalization": "system_split"},
            "run": {"n_events": ORACLE_EVENTS, "seed": seed},
        }

    def execute(self, workdir, seed, traced=False):
        cfg = cli.load_config(workdir / "config.json")
        am = approx.ApproxModel(cfg.n, cfg.delta, cfg.hazard, cfg.repair,
                                cfg.normalization)
        if traced:
            # stream_rng returns a counting proxy under tracing; it reaches
            # the sampler through the public rng= argument
            gen = rng_mod.stream_rng(seed)
            mh = simulate.simulate_thinning(am, n_events=cfg.n_events, rng=gen)
        else:
            gen = None
            mh = simulate.simulate_thinning(am, n_events=cfg.n_events, seed=seed)
        times = mh.times

        def integral(a, b):
            if a == 0.0:  # the interval before the window is not scored
                return 0.0
            k = int(np.searchsorted(times, a, side="right"))
            hist = superpose.MaskedHistory(times[:k], cfg.n, t_obs=a)
            return stats.intensity_integral(
                lambda t: approx.approx_intensity(am, hist, t))(a, b)

        residuals = stats.rescaled_residuals(times[-(ORACLE_WINDOW + 1):], integral)[1:]
        ks = stats.ks_exp1(residuals)
        return {"times": times, "residuals": residuals, "ks": ks, "rng": gen}

    def verify(self, workdir, result):
        times, res = result["times"], result["residuals"]
        return [
            ("thinning event count", times.size == ORACLE_EVENTS),
            ("thinning times strictly increasing", _strictly_increasing(times)),
            ("residual count", res.size == ORACLE_WINDOW),
            ("residuals finite and nonnegative",
             bool(np.all(np.isfinite(res)) and np.all(res >= 0.0))),
            ("KS Exp(1) not rejected at 0.01", not result["ks"].rejects[0.01]),
        ]

    def digest(self, workdir, result):
        h = hashlib.sha256(result["times"].tobytes())
        h.update(result["residuals"].tobytes())
        return h.hexdigest()

    def bytes_written(self, workdir, result):
        return 0


class BoundsKijima(Workload):
    name = "bounds-kijima"
    events = KIJIMA_EVENTS

    def config(self, seed):
        return {
            "hazard": HAZARD,
            "repair": {"model": "kijima1", "a": 0.7},
            "system": {"n": 5},
            "run": {"n_events": KIJIMA_EVENTS, "seed": seed},
        }

    def execute(self, workdir, seed, traced=False):
        stdout = _stdio.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["bounds-check", "--config", str(workdir / "config.json"),
                             "--out", str(workdir / "out"), "--seed", str(seed)])
        return {"code": code, "stdout": stdout.getvalue()}

    def verify(self, workdir, result):
        out = workdir / "out"
        ops = [("cli bounds-check exit 0", result["code"] == 0)]
        try:
            manifest = sio.read_manifest(out / "manifest.json")
            table = np.loadtxt(out / "bounds.csv", delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError):
            return ops + [("bounds outputs readable", False)]
        t, lower, upper, true = table.T
        outside = (true < lower - SANDWICH_SLACK) | (true > upper + SANDWICH_SLACK)
        ops += [
            ("bounds outputs readable", True),
            ("bounds event count",
             t.size == KIJIMA_EVENTS and manifest.get("events") == KIJIMA_EVENTS),
            ("bounds times strictly increasing", _strictly_increasing(t)),
            ("zero envelope violations",
             manifest.get("violations") == 0 and not outside.any()
             and "violations=0" in result["stdout"]),
        ]
        return ops


WORKLOADS = {w.name: w for w in (Figures(), Oracle(), BoundsKijima())}
