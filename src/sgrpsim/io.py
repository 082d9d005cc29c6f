"""CSV event logs, curve exports and run manifests.

Times are printed with 17 significant digits so a written log reloads
bit-identically. Manifests are JSON with sorted keys and no timestamps, so a
rerun with the same seed produces byte-identical files.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import ConfigError

__all__ = ["write_events_csv", "read_events_csv", "write_rates_csv",
           "read_rates_csv", "write_bounds_csv", "write_manifest", "read_manifest"]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_events_csv(path, times, labels=None):
    """Event log with columns index,time,component; component empty when masked."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "time", "component"])
        for k, t in enumerate(times):
            comp = "" if labels is None else int(labels[k])
            writer.writerow([k + 1, _fmt(t), comp])
    return path


def read_events_csv(path):
    """Read an event log; returns (times, labels) with labels None when masked."""
    times, labels = [], []
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:2] != ["index", "time"]:
            raise ConfigError(f"{path}: not an event log (header {header!r})")
        for row in reader:
            try:
                times.append(float(row[1]))
                labels.append(int(row[2]) if len(row) > 2 and row[2] != "" else None)
            except (IndexError, ValueError):
                raise ConfigError(f"{path}: line {reader.line_num}: "
                                  f"malformed event row {row!r}") from None
    times = np.asarray(times, dtype=float)
    if any(lab is None for lab in labels):
        return times, None
    return times, np.asarray(labels, dtype=int)


def write_rates_csv(path, curve, note=None):
    """Rate curve with columns bin_start,bin_end,count,rate.

    Bins are anchored at 0; when the producing run passed a horizon, the
    trailing partially observed bin was dropped (recorded in the header note).
    """
    path = Path(path)
    with path.open("w", newline="") as fh:
        if note:
            fh.write(f"# {note}\n")
        fh.write("# bins anchored at 0; partial tail bin dropped when a horizon is set\n")
        writer = csv.writer(fh)
        writer.writerow(["bin_start", "bin_end", "count", "rate"])
        for start, count, rate in zip(curve.starts, curve.counts, curve.rates):
            writer.writerow([_fmt(start), _fmt(start + curve.bin_width),
                             int(count), _fmt(rate)])
    return path


def read_rates_csv(path):
    """Read a rate curve CSV; returns (starts, counts, rates) arrays."""
    starts, counts, rates = [], [], []
    with Path(path).open(newline="") as fh:
        rows = [line for line in fh if not line.startswith("#")]
    reader = csv.reader(rows)
    header = next(reader)
    if header[0] != "bin_start":
        raise ValueError(f"{path}: not a rate curve (header {header!r})")
    for row in reader:
        starts.append(float(row[0]))
        counts.append(int(row[2]))
        rates.append(float(row[3]))
    return (np.asarray(starts), np.asarray(counts, dtype=int), np.asarray(rates))


def write_bounds_csv(path, t, lower, upper, true=None):
    """Envelope table with columns t,lower,upper,true (true optional)."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "lower", "upper", "true"])
        for k in range(len(t)):
            row = [_fmt(t[k]), _fmt(lower[k]), _fmt(upper[k])]
            row.append(_fmt(true[k]) if true is not None else "")
            writer.writerow(row)
    return path


def write_manifest(path, payload):
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def read_manifest(path):
    return json.loads(Path(path).read_text())
