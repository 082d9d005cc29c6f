import csv

import numpy as np
import pytest

from sgrpsim import rate_curve, stream_rng
from sgrpsim.io import (BLOCK_ROWS, read_events_csv, read_rates_csv, write_bounds_csv,
                        write_events_csv, write_rates_csv)
from sgrpsim.stats import RateCurve


def test_event_log_round_trip_is_bit_faithful(tmp_path):
    rng = stream_rng(81)
    times = np.cumsum(rng.exponential(size=500))
    labels = rng.integers(1, 7, size=500)
    path = write_events_csv(tmp_path / "events.csv", times, labels)
    back_times, back_labels = read_events_csv(path)
    assert np.array_equal(back_times, times)
    assert np.array_equal(back_labels, labels)


def test_masked_log_has_empty_component_column(tmp_path):
    times = np.array([0.125, 2.5, 7.75])
    path = write_events_csv(tmp_path / "masked.csv", times)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,time,component"
    assert all(line.endswith(",") for line in lines[1:])
    back, labels = read_events_csv(path)
    assert labels is None
    assert np.array_equal(back, times)


def test_rates_round_trip(tmp_path):
    curve = rate_curve([10.0, 20.0, 150.0, 260.0], 100.0)
    path = write_rates_csv(tmp_path / "rates.csv", curve)
    starts, counts, rates = read_rates_csv(path)
    assert np.array_equal(starts, curve.starts)
    assert np.array_equal(counts, curve.counts)
    assert np.array_equal(rates, curve.rates)


# Row-wise csv.writer versions of the writers: the oracle for their bytes.

def _fmt(x):
    return format(float(x), ".17g")


def oracle_events_csv(path, times, labels=None):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "time", "component"])
        for k, t in enumerate(times):
            comp = "" if labels is None else int(labels[k])
            writer.writerow([k + 1, _fmt(t), comp])
    return path


def oracle_rates_csv(path, curve, note=None):
    with path.open("w", newline="") as fh:
        if note:
            fh.write(f"# {note}\n")
        fh.write("# bins anchored at 0; partial tail bin dropped when a horizon is set\n")
        writer = csv.writer(fh)
        writer.writerow(["bin_start", "bin_end", "count", "rate"])
        # each row ends at the next edge, which is the next row's start
        for k, (count, rate) in enumerate(zip(curve.counts, curve.rates)):
            writer.writerow([_fmt(curve.edges[k]), _fmt(curve.edges[k + 1]),
                             int(count), _fmt(rate)])
    return path


def oracle_bounds_csv(path, t, lower, upper, true):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "lower", "upper", "true"])
        for k in range(len(t)):
            writer.writerow([_fmt(t[k]), _fmt(lower[k]), _fmt(upper[k]), _fmt(true[k])])
    return path


#: around one write block (``io.BLOCK_ROWS`` = 512 rows), and many blocks
ROW_COUNTS = [0, 1, 511, 512, 513, 6000]
EDGE_VALUES = np.array([-0.0, 0.0, 5e-324, 1e308, np.inf, -np.inf, np.nan, 1.0 / 3.0,
                        2.5e-310, 1e16])


def float_column(rows, salt):
    values = stream_rng(97, salt, rows).standard_normal(rows) * 10.0 ** (salt % 7)
    values[:EDGE_VALUES.size] = EDGE_VALUES[:rows]
    return values


@pytest.mark.parametrize("rows", ROW_COUNTS)
@pytest.mark.parametrize("labelled", [True, False])
def test_event_log_bytes_equal_row_wise_writer(tmp_path, rows, labelled):
    assert BLOCK_ROWS == 512
    times = float_column(rows, 1)
    labels = stream_rng(97, 2, rows).integers(1, 101, size=rows) if labelled else None
    got = write_events_csv(tmp_path / "got.csv", times, labels)
    expect = oracle_events_csv(tmp_path / "expect.csv", times, labels)
    assert got.read_bytes() == expect.read_bytes()


@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_bounds_bytes_equal_row_wise_writer(tmp_path, rows):
    columns = [float_column(rows, salt) for salt in (3, 4, 5, 6)]
    got = write_bounds_csv(tmp_path / "got.csv", *columns)
    expect = oracle_bounds_csv(tmp_path / "expect.csv", *columns)
    assert got.read_bytes() == expect.read_bytes()


@pytest.mark.parametrize("rows", ROW_COUNTS)
@pytest.mark.parametrize("note", [None, "fig4_delta0.2"])
def test_rates_bytes_equal_row_wise_writer(tmp_path, rows, note):
    # a width with no exact binary form: the next edge fl((k + 1) * 0.1)
    # differs from fl(k * 0.1) + 0.1 on 27 of the first 100 rows
    curve = RateCurve(0.1, np.arange(rows + 1) * 0.1,
                      stream_rng(97, 7, rows).integers(0, 40, size=rows))
    got = write_rates_csv(tmp_path / "got.csv", curve, note)
    expect = oracle_rates_csv(tmp_path / "expect.csv", curve, note)
    assert got.read_bytes() == expect.read_bytes()
