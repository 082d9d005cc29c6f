import numpy as np

from sgrpsim import rate_curve, stream_rng
from sgrpsim.io import read_events_csv, read_rates_csv, write_events_csv, write_rates_csv


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
