"""CSV event logs, curve exports and run manifests.

Times are printed with 17 significant digits so a written log reloads
bit-identically. Rows are the bytes ``csv.writer`` writes (``,`` between
fields, ``\\r\\n`` after each), formatted and written in blocks of
:data:`BLOCK_ROWS` rows. Manifests are JSON with sorted keys and no
timestamps, so a rerun with the same seed produces byte-identical files.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import ConfigError

__all__ = ["write_events_csv", "read_events_csv", "write_rates_csv",
           "read_rates_csv", "write_bounds_csv", "write_manifest", "read_manifest"]


#: Rows per ``write``: a block's text is tens of kB, so a large table is
#: never held as one string.
BLOCK_ROWS = 512


def _write_rows(fh, row_format, *columns):
    """Write ``row_format % row`` for each row of the equal-length ``columns``.

    Each block reads its values as Python numbers (``tolist``), so ``%.17g``
    prints a float as ``format(float(x), ".17g")`` does and ``%d`` an integer
    as ``int(x)`` does. A block is one ``%`` over the row format repeated, on
    the block's values in row order: a tuple per row raised the peak memory
    of repeated ``bounds-check`` runs by about 0.3 MB.
    """
    width = len(columns)
    for lo in range(0, len(columns[0]), BLOCK_ROWS):
        parts = [c[lo:lo + BLOCK_ROWS].tolist() for c in columns]
        values = [None] * (len(parts[0]) * width)
        for j, part in enumerate(parts):
            values[j::width] = part
        fh.write(row_format * len(parts[0]) % tuple(values))


def write_events_csv(path, times, labels=None):
    """Event log with columns index,time,component; component empty when masked."""
    path = Path(path)
    times = np.asarray(times, dtype=float)
    index = np.arange(1, times.size + 1)
    with path.open("w", newline="") as fh:
        fh.write("index,time,component\r\n")
        if labels is None:
            _write_rows(fh, "%d,%.17g,\r\n", index, times)
        else:
            _write_rows(fh, "%d,%.17g,%d\r\n", index, times, np.asarray(labels))
    return path


def read_events_csv(path):
    """Read an event log; returns (times, labels) with labels None when masked."""
    times, labels = [], []
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
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
        except UnicodeDecodeError as err:
            raise ConfigError(f"{path}: not UTF-8 text ({err})") from None
    times = np.asarray(times, dtype=float)
    if any(lab is None for lab in labels):
        return times, None
    return times, np.asarray(labels, dtype=int)


def write_rates_csv(path, curve, note=None):
    """Rate curve with columns bin_start,bin_end,count,rate.

    Each row prints its bin's two edges, so its bin_end is the next row's
    bin_start; a run with a horizon dropped the partial tail bin (see the note).
    """
    path = Path(path)
    with path.open("w", newline="") as fh:
        if note:
            fh.write(f"# {note}\n")
        fh.write("# bins anchored at 0; partial tail bin dropped when a horizon is set\n")
        fh.write("bin_start,bin_end,count,rate\r\n")
        _write_rows(fh, "%.17g,%.17g,%d,%.17g\r\n", curve.starts,
                    curve.edges[1:], curve.counts, curve.rates)
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


def write_bounds_csv(path, t, lower, upper, true):
    """Envelope table with columns t,lower,upper,true."""
    path = Path(path)
    columns = [np.asarray(c, dtype=float) for c in (t, lower, upper, true)]
    with path.open("w", newline="") as fh:
        fh.write("t,lower,upper,true\r\n")
        _write_rows(fh, "%.17g,%.17g,%.17g,%.17g\r\n", *columns)
    return path


def write_manifest(path, payload):
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def read_manifest(path):
    return json.loads(Path(path).read_text())
