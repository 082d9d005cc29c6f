"""The CLI's error contract over generated configs and command lines.

Every failure prints exactly one ``error: <kind>: <reason>`` line on stderr
and exits with its kind's documented code; no input gives a traceback or a
warning. ``cli.main`` runs in this process on small runs (n <= 5, at most 50
events or a horizon of at most 200), and ``--jobs`` is never above 1, so no
worker process starts.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sgrpsim.cli import main

#: the exit code each error kind is documented with
EXIT_CODES = {"config": 2, "usage": 2, "missing-file": 3, "domain": 4,
              "io": 1, "check": 1}

SECTIONS = ("hazard", "repair", "system", "approx", "run")
#: (section, key) of every number a config holds
NUMBERS = [("hazard", "beta"), ("hazard", "eta"), ("hazard", "rate"),
           ("repair", "m"), ("repair", "rho"), ("repair", "a"),
           ("system", "n"), ("approx", "delta"),
           ("run", "n_events"), ("run", "horizon"), ("run", "seed"),
           ("run", "bin_width")]

#: values most number fields refuse: not finite, booleans, non-numbers, signs
#: and fractions. A few fit one field, such as -1e300, a harmful rho whose
#: ages overflow
BAD_NUMBERS = st.sampled_from([math.nan, math.inf, -math.inf, True, False, None,
                               "1.5", "many", [], {}, -1, 0, 2.5, -1e300])
NOT_OBJECTS = st.sampled_from([None, 3, "hazard", [], [1, 2], True])

HAZARDS = st.one_of(
    st.builds(lambda beta, eta: {"family": "power_law", "beta": beta, "eta": eta},
              st.floats(1.0, 3.0), st.floats(5.0, 80.0)),
    st.builds(lambda rate: {"family": "constant", "rate": rate}, st.floats(0.01, 1.0)),
)
REPAIRS = st.one_of(
    st.builds(lambda m, rho: {"model": "ara", "m": m, "rho": rho},
              st.integers(1, 4), st.floats(0.0, 1.0)),
    st.builds(lambda a: {"model": "kijima1", "a": a}, st.floats(0.0, 1.0)),
    st.sampled_from([{"model": "perfect"}, {"model": "minimal"}]),
)
RUNS = st.builds(
    lambda stop, seed, bin_width: dict(stop, seed=seed, bin_width=bin_width),
    st.one_of(st.builds(lambda k: {"n_events": k}, st.integers(1, 50)),
              st.builds(lambda h: {"horizon": h}, st.floats(1.0, 200.0))),
    st.integers(0, 2**70), st.floats(10.0, 500.0))
VALID = st.fixed_dictionaries({
    "hazard": HAZARDS,
    "repair": REPAIRS,
    "system": st.builds(lambda n: {"n": n}, st.integers(1, 5)),
    "approx": st.builds(lambda d, norm: {"delta": d, "normalization": norm},
                        st.floats(0.0, 1.0),
                        st.sampled_from(["system_split", "per_component"])),
    "run": RUNS,
})


@st.composite
def config_documents(draw):
    """A small valid config with zero or more faults, sometimes as a manifest."""
    doc = draw(VALID)
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["drop", "mistype", "number", "name", "extra"]))
        if fault == "drop":
            doc.pop(draw(st.sampled_from(SECTIONS)), None)
        elif fault == "mistype":
            doc[draw(st.sampled_from(SECTIONS))] = draw(NOT_OBJECTS)
        elif fault == "number":
            section, key = draw(st.sampled_from(NUMBERS))
            if isinstance(doc.get(section), dict):
                doc[section][key] = draw(BAD_NUMBERS)
        elif fault == "name":
            section, key = draw(st.sampled_from([("hazard", "family"), ("repair", "model"),
                                                 ("approx", "normalization")]))
            if isinstance(doc.get(section), dict):
                doc[section][key] = draw(st.one_of(st.text(max_size=8), BAD_NUMBERS))
        elif isinstance(doc.get("run"), dict):
            # both stop rules, or neither
            if "n_events" in doc["run"] and "horizon" not in doc["run"]:
                doc["run"]["horizon"] = 100.0
            else:
                doc["run"].pop("n_events", None)
                doc["run"].pop("horizon", None)
    if draw(st.booleans()):
        doc = {"config": doc, "seed": draw(st.one_of(st.integers(0, 9), BAD_NUMBERS))}
    return doc


SUBCOMMANDS = ["simulate-sgrp", "simulate-approx", "bounds-check", "rate-curve",
               "figures"]


@st.composite
def command_lines(draw):
    """An argv over the files ``prepare`` writes, good and bad arguments mixed."""
    sub = draw(st.sampled_from(SUBCOMMANDS + ["frobnicate", "--bogus", ""]))
    argv = [sub] if sub else []
    if sub == "rate-curve" and draw(st.integers(0, 5)):
        argv.append(draw(st.sampled_from(["events.csv", "ghost.csv", "latin1.csv",
                                          "malformed.csv", "out-dir"])))
    if draw(st.integers(0, 7)):
        argv += ["--config", draw(st.sampled_from(["config.json", "ghost.json",
                                                   "utf16.json", "deep.json",
                                                   "out-dir"]))]
    if draw(st.integers(0, 7)):
        argv += ["--out", draw(st.sampled_from(["out", "config.json", "new/nested"]))]
    if draw(st.booleans()):
        argv += ["--seed", draw(st.one_of(st.integers(-3, 2**70).map(str),
                                          st.sampled_from(["abc", "1.5", "", "1e3"])))]
    if draw(st.booleans()):
        argv += ["--which", draw(st.sampled_from(["fig3", "fig5", "fig9", "all", ""]))]
    if draw(st.booleans()):
        argv += ["--method", draw(st.sampled_from(["algorithm1", "thinning", "exact"]))]
    if draw(st.booleans()):
        # never above 1: no worker process may start
        argv += ["--jobs", draw(st.sampled_from(["1", "0", "-2", "two"]))]
    return argv


def prepare(root, doc):
    """Write the config and the inputs a generated command line may name."""
    (root / "config.json").write_text(json.dumps(doc))
    (root / "utf16.json").write_bytes(b"\xff\xfe" + json.dumps(doc).encode("utf-16-le"))
    (root / "deep.json").write_text("[" * 100_000)
    (root / "events.csv").write_text("index,time,component\n1,0.5,\n2,3.25,\n3,40.0,\n")
    (root / "latin1.csv").write_bytes(b"index,time,component\n1,0.5,\xe9\n")
    (root / "malformed.csv").write_text("index,time,component\n1,soon,\n")
    (root / "out-dir").mkdir()


def run_main(root, argv):
    """(exit code, stderr lines, warnings) of ``main(argv)`` run in ``root``."""
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as stop:
                code = stop.code
    finally:
        os.chdir(cwd)
    return code, err.getvalue().splitlines(), caught


def assert_contract(code, lines, caught):
    assert not caught, [str(w.message) for w in caught]
    assert not any("Traceback" in line for line in lines), lines
    if code == 0:
        assert lines == []
        return
    assert len(lines) == 1, lines
    kind = lines[0].split(": ", 2)[1] if lines[0].startswith("error: ") else None
    assert kind in EXIT_CODES, lines
    assert code == EXIT_CODES[kind], (code, lines)


PROPERTY = settings(max_examples=80, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


#: each subcommand that reads only a config, with and without its options
RUNS_OF_A_CONFIG = [["simulate-sgrp"], ["simulate-approx"],
                    ["simulate-approx", "--method", "thinning"], ["bounds-check"],
                    ["figures", "--which", "fig5"],
                    ["figures", "--which", "fig4", "--method", "thinning"]]


def small_config(section, key, value):
    """A valid five-component config with one value replaced."""
    doc = {"hazard": {"family": "power_law", "beta": 1.3, "eta": 40.0},
           "repair": {"model": "ara", "m": 2, "rho": 0.5},
           "system": {"n": 5},
           "run": {"n_events": 50, "seed": 1}}
    doc[section][key] = value
    return doc


@PROPERTY
@given(doc=config_documents(), command=st.sampled_from(RUNS_OF_A_CONFIG))
@example(doc=small_config("repair", "rho", -math.inf), command=["simulate-sgrp"])
@example(doc=small_config("repair", "rho", -1e300), command=["bounds-check"])
@example(doc=small_config("run", "bin_width", math.inf), command=["figures", "--which", "fig5"])
@example(doc=small_config("run", "bin_width", 1e-12), command=["figures", "--which", "fig5"])
@example(doc=dict(small_config("system", "n", 1), approx={"delta": 2.225073858507e-311}),
         command=["simulate-approx"])
def test_generated_configs_keep_the_error_contract(doc, command):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        prepare(root, doc)
        assert_contract(*run_main(root, [command[0], "--config", "config.json",
                                         "--out", "out", *command[1:]]))


@PROPERTY
@given(doc=st.one_of(VALID, config_documents()), argv=command_lines())
@example(doc=small_config("system", "n", 2), argv=["rate-curve", "latin1.csv",
                                                   "--config", "utf16.json", "--out", "o"])
@example(doc=small_config("system", "n", 2), argv=["bounds-check", "--config", "deep.json",
                                                   "--out", "o"])
def test_generated_command_lines_keep_the_error_contract(doc, argv):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        prepare(root, doc)
        assert_contract(*run_main(root, argv))
