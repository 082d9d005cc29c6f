"""Benchmark of the sgrpsim package: one workload per run, timed from outside.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload figures --seed 1 --seconds 28 --trace 0

A run writes the workload's config, then repeats the workload until
``--seconds`` have elapsed (after one untimed warm-up repetition) and checks
every repetition's outputs. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. The line before it
stamps the run with the source revision, machine and library versions.

``--trace 0`` reports the end-to-end metrics: median repetition wall time,
events per second, fresh-interpreter set-up time and peak memory. Times are
normalised to a reference machine speed by a calibration mix run around each
measurement (see ``SpeedMeter``), because the speed a shared host gives one
process swings by up to 2x over tens of seconds.
``--trace 1`` alternates plain and traced repetitions and reports per-layer
metrics from the spans of the traced ones (see ``tracing.py``); the spans of
the last traced repetition are written to ``.bench_out/results``.

The run imports the package from ``src/`` of the checkout that holds this
file and exits with code 2, printing no result, when that is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
DIGESTS = BENCH / "digests.json"

SETUP_RUNS = 5  # fresh interpreters timed for setup_s, after one warm-up
CALIB_REF_S = 0.1  # reference speed: the calibration mix takes this long
SETUP_CODE = "import sys, sgrpsim.cli as cli; cli.load_config(sys.argv[1])"


def import_package():
    """Import ``sgrpsim`` from this checkout's ``src/``; exit 2 if absent."""
    if not (SRC / "sgrpsim" / "__init__.py").is_file():
        print(f"error: no sgrpsim sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import sgrpsim

    if Path(sgrpsim.__file__).resolve().parent != SRC / "sgrpsim":
        print(f"error: imported sgrpsim from {sgrpsim.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def stamp(seed):
    """Provenance of a result: revision, machine, interpreter and libraries."""
    import scipy

    src_hash = hashlib.sha256()
    for path in sorted((SRC / "sgrpsim").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": git_sha,
        "src_sha256": src_hash.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


def measure_setup(config_path, meter):
    """Median normalised time of fresh interpreters importing the CLI and parsing the config."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE, str(config_path)]
    # the first interpreter compiles bytecode and warms the file cache
    subprocess.run(cmd, env=env, check=True, timeout=120, stdout=subprocess.DEVNULL)
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(meter.normalise(time.perf_counter() - t0))
    return statistics.median(times)


class SpeedMeter:
    """Normalises wall times to the speed at which the calibration mix takes CALIB_REF_S.

    The mix is fixed work that does not touch sgrpsim, covering what the
    workloads spend their time on: a loop of scalar draws, small-array numpy
    calls and heap operations; plain interpreter arithmetic on floats, dicts
    and lists; and passes over arrays larger than a core's cache. Its time
    follows only the speed the machine currently gives this process. Each
    measurement is bracketed by two runs of the mix (the one after a
    measurement is the one before the next); its wall time is scaled by
    CALIB_REF_S over their mean. The large arrays live as long as the meter,
    so they raise peak memory by a constant.
    """

    def __init__(self):
        self._big = np.random.Generator(np.random.Philox(7)).random(200_000)
        self._work = np.empty_like(self._big)
        self.before = self.calibration_s()
        self.log = []  # (raw wall seconds, calibration seconds) per measurement

    def calibration_s(self):
        """Seconds of one run of the calibration mix."""
        t0 = time.perf_counter()
        gen = np.random.Generator(np.random.Philox(7))
        x = np.linspace(1.0, 50.0, 100)
        heap = []
        for i in range(4_000):
            v = float(gen.exponential())
            float(np.sum(np.power(x + v, 0.3)))
            heapq.heappush(heap, (v, i))
            if len(heap) > 50:
                heapq.heappop(heap)
        table, recent, acc = {}, [], 0.0
        for i in range(60_000):
            acc += (i * 0.5) ** 0.5
            table[i & 1023] = acc
            recent.append(acc)
            if len(recent) > 100:
                recent.clear()
        for _ in range(20):
            np.copyto(self._work, self._big)
            self._work.sort()
            np.power(self._big, 1.3, out=self._work)
            float(self._work.sum())
        return time.perf_counter() - t0

    def normalise(self, raw):
        """Normalised seconds of a measurement of ``raw`` wall seconds that just ended."""
        after = self.calibration_s()
        calib = 0.5 * (self.before + after)
        self.before = after
        self.log.append((raw, calib))
        return raw * CALIB_REF_S / calib


def run_rep(wl, workdir, seed, tracer=None):
    """One repetition: (wall seconds, result). Only ``execute`` is timed."""
    wl.reset(workdir)
    if tracer is None:
        t0 = time.perf_counter()
        result = wl.execute(workdir, seed)
        return time.perf_counter() - t0, result
    with tracing.traced(tracer):
        t0 = time.perf_counter()
        result = wl.execute(workdir, seed, traced=True)
        wall = time.perf_counter() - t0
    return wall, result


def recorded_digest(workload, seed):
    try:
        return json.loads(DIGESTS.read_text())[workload].get(str(seed))
    except (OSError, ValueError, KeyError):
        return None


def layer_metrics(tracer, wl, workdir, result, scale=1.0):
    """Per-layer metrics of one traced repetition; times are multiplied by ``scale``."""
    spans = tracer.summary()
    counts = tracer.counts

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def seconds(name):
        return spans.get(name, {}).get("s", 0.0)

    def per_call(name):
        return 1e6 * seconds(name) / calls(name) if calls(name) else 0.0

    def per_unit(name):
        return 1e6 * seconds(name) / counts[name] if counts[name] else 0.0

    intervals = counts["stats.rescaled_residuals"]
    thinning = result.get("rng")
    proposals = thinning.calls["random"] if thinning is not None else 0
    gaps = thinning.calls["exponential"] if thinning is not None else 0
    thinned = counts["simulate.simulate_thinning"]
    eao = "repair.effective_age_offset"
    m = {
        "superpose.simulate_sgrp.us_per_event": (per_unit("superpose.simulate_sgrp"), "us/event"),
        "superpose.true_intensity_at_events.us_per_event":
            (per_unit("superpose.true_intensity_at_events"), "us/event"),
        f"{eao}.calls": (calls(eao), "count"),
        f"{eao}.us_per_call": (per_call(eao), "us/call"),
        f"{eao}.history_mean": (counts[eao] / calls(eao) if calls(eao) else 0.0, "events"),
        "repair.next_failure_time.calls": (calls("repair.next_failure_time"), "count"),
        "repair.next_failure_time.us_per_call": (per_call("repair.next_failure_time"), "us/call"),
        "hazards.rate.calls": (calls("hazards.rate"), "count"),
        "hazards.rate.elements": (counts["hazards.rate"], "count"),
        "hazards.cumulative.calls": (calls("hazards.cumulative"), "count"),
        "hazards.inverse_cumulative.calls": (calls("hazards.inverse_cumulative"), "count"),
        "rng.stream_rng.calls": (calls("rng.stream_rng"), "count"),
        "rng.draws": (sum(g.draws for g in tracer.rngs), "count"),
        "simulate.simulate_algorithm1.us_per_event":
            (per_unit("simulate.simulate_algorithm1"), "us/event"),
        "simulate.simulate_thinning.us_per_event":
            (per_unit("simulate.simulate_thinning"), "us/event"),
        "simulate.thinning.proposals": (proposals, "count"),
        "simulate.thinning.acceptance_ratio": (thinned / proposals if proposals else 0.0, "ratio"),
        "simulate.thinning.window_misses": (gaps - proposals, "count"),
        "bounds.sgrp_bounds_at_events.us_per_event":
            (per_unit("bounds.sgrp_bounds_at_events"), "us/event"),
        "bounds.ara_lag_offsets.calls": (calls("bounds.ara_lag_offsets"), "count"),
        "bounds.ara_lag_offsets.us_per_call": (per_call("bounds.ara_lag_offsets"), "us/call"),
        "bounds.ara_last_component_offset.calls":
            (calls("bounds.ara_last_component_offset"), "count"),
        "approx.approx_intensity.calls": (calls("approx.approx_intensity"), "count"),
        "approx.approx_intensity.us_per_call": (per_call("approx.approx_intensity"), "us/call"),
        "stats.rescaled_residuals.us_per_interval": (per_unit("stats.rescaled_residuals"), "us/interval"),
        "stats.quad_evals_per_interval":
            (calls("approx.approx_intensity") / intervals if intervals else 0.0, "count"),
        "stats.rate_curve.s": (seconds("stats.rate_curve"), "s"),
        "stats.ks_exp1.s": (seconds("stats.ks_exp1"), "s"),
        "io.write_rates_csv.s": (seconds("io.write_rates_csv"), "s"),
        "io.write_bounds_csv.us_per_row": (per_unit("io.write_bounds_csv"), "us/row"),
        "io.bytes_written": (wl.bytes_written(workdir, result), "bytes"),
        "cli.config_s": (tracer.outermost_s(("cli.load_config", "cli.parse_config")), "s"),
    }
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = (sum(v["self_s"] for k, v in spans.items()
                                    if k.startswith(layer + ".")), "s")
    return {k: (v * scale if unit == "s" or unit.startswith("us/") else v, unit)
            for k, (v, unit) in m.items()}


class Tally:
    """Attempted and failed operations of a run, with the names of failures."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, ops):
        for name, ok in ops:
            self.attempted += 1
            if not ok:
                self.failures.append(name)


def run(workload, seed, seconds, trace):
    from workloads import WORKLOADS  # imports sgrpsim

    wl = WORKLOADS[workload]
    workdir = OUT / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    wl.prepare(workdir, seed)
    tally = Tally()
    meter = SpeedMeter()
    setup_s = None if trace else measure_setup(workdir / "config.json", meter)

    def rep(tracer=None):
        """One checked repetition: (normalised wall seconds, scale, result, digest)."""
        raw, result = run_rep(wl, workdir, seed, tracer)
        wall = meter.normalise(raw)
        tally.add(wl.verify(workdir, result))
        return wall, wall / raw, result, wl.digest(workdir, result)

    _, _, reference, ref_digest = rep()  # warm-up, not reported
    digests = [ref_digest]
    walls, traced_walls, layer_runs = [], [], []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or not walls or (trace and not traced_walls):
        wall, _, _, digest = rep()
        walls.append(wall)
        digests.append(digest)
        tally.add([("repeated outputs identical", digest == ref_digest)])
        if not trace:
            continue
        tracer = tracing.Tracer()
        wall, scale, result, digest = rep(tracer)
        traced_walls.append(wall)
        digests.append(digest)
        tally.add([("traced outputs identical to plain outputs", digest == ref_digest)])
        if "times" in result:
            tally.add([("proxied thinning times equal plain seeded times",
                        np.array_equal(result["times"], reference["times"]))])
        layer_runs.append(layer_metrics(tracer, wl, workdir, result, scale))
        last_tracer = tracer

    wall_s = statistics.median(walls)
    if trace:
        counts = [{k: v for k, (v, unit) in m.items() if unit in ("count", "bytes", "events")}
                  for m in layer_runs]
        tally.add([("traced counts repeat", all(c == counts[0] for c in counts))])
        metrics = {k: {"value": float(statistics.median(m[k][0] for m in layer_runs)),
                       "unit": unit} for k, (_, unit) in layer_runs[0].items()}
        recorded = recorded_digest(workload, seed)
        identical = -1.0 if recorded is None else float(all(d == recorded for d in digests))
        metrics["io.outputs_identical"] = {"value": identical, "unit": "flag"}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced_walls) - wall_s, "unit": "s"}
        OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
        last_tracer.save(OUT / "results" / f"{workload}-seed{seed}-spans.npz")
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "events_per_s": {"value": wl.events / wall_s, "unit": "events/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    wl.reset(workdir)
    (workdir / "config.json").unlink()
    workdir.rmdir()

    report = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }
    details = {"stamp": stamp(seed), "workload": workload, "trace": trace,
               "reps": len(walls), "wall_s_reps": walls, "traced_wall_s_reps": traced_walls,
               "raw_and_calibration_s": meter.log,
               "digest": ref_digest, "failed_ops": sorted(set(tally.failures)), **report}
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    OUT.joinpath("results", f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(details, indent=2) + "\n")
    return report, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures", "oracle", "bounds-kijima"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    import_package()
    report, details = run(args.workload, args.seed, args.seconds, args.trace)
    for name in details["failed_ops"]:
        print(f"failed: {name}", file=sys.stderr)
    print(json.dumps({"stamp": details["stamp"]}))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
