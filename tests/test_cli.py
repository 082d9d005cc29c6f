import concurrent.futures
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sgrpsim.cli as cli
from sgrpsim.cli import main
from sgrpsim.hazards import PowerLawHazard
from sgrpsim.io import read_events_csv, read_manifest, read_rates_csv


def base_config(**overrides):
    cfg = {
        "hazard": {"family": "power_law", "beta": 1.3, "eta": 40.0},
        "repair": {"model": "ara", "m": 1, "rho": 0.3},
        "system": {"n": 5},
        "approx": {"delta": 0.5, "normalization": "system_split"},
        "run": {"n_events": 400, "seed": 11, "bin_width": 200.0},
    }
    for key, value in overrides.items():
        cfg[key] = value
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(Path(root).iterdir())}


#: the numpy the golden digests were recorded with
GOLDEN_VERSIONS = {"numpy": "2.4.6"}


def tree_digests(root):
    """sha256 of every file under ``root``, the manifest's with its
    ``versions`` set to GOLDEN_VERSIONS (rewritten in place)."""
    manifest = Path(root) / "manifest.json"
    payload = read_manifest(manifest)
    # the manifest is written as this serialization, so pinning the
    # versions in it changes those bytes only
    assert manifest.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    payload["versions"] = GOLDEN_VERSIONS
    manifest.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in Path(root).iterdir()}


SRC = Path(__file__).resolve().parents[1] / "src"


def src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_cli(args, cwd, timeout=120):
    """Run the CLI in a fresh interpreter; returns the completed process."""
    return subprocess.run([sys.executable, "-m", "sgrpsim.cli", *args], cwd=cwd,
                          env=src_env(), capture_output=True, text=True, timeout=timeout)


class TestSimulateSgrp:
    def test_outputs(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["simulate-sgrp", "--config", cfg, "--out", str(out)]) == 0
        times, labels = read_events_csv(out / "events.csv")
        assert times.size == 400
        assert labels is not None and labels.min() >= 1 and labels.max() <= 5
        masked, none_labels = read_events_csv(out / "events_masked.csv")
        assert none_labels is None
        assert np.array_equal(masked, times)
        manifest = read_manifest(out / "manifest.json")
        assert manifest["seed"] == 11
        assert manifest["subcommand"] == "simulate-sgrp"

    def test_round_trip_is_bitwise(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        main(["simulate-sgrp", "--config", cfg, "--out", str(out)])
        times, _ = read_events_csv(out / "events.csv")
        rewritten = tmp_path / "out2"
        main(["simulate-sgrp", "--config", cfg, "--out", str(rewritten)])
        times2, _ = read_events_csv(rewritten / "events.csv")
        assert np.array_equal(times, times2)


class TestSimulateApprox:
    @pytest.mark.parametrize("method", ["algorithm1", "thinning"])
    def test_deterministic_bytes(self, tmp_path, method):
        cfg = write_config(tmp_path, base_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            code = main(["simulate-approx", "--config", cfg, "--seed", "7",
                         "--out", str(out), "--method", method])
            assert code == 0
        assert tree_bytes(out_a) == tree_bytes(out_b)

    def test_rerun_from_manifest(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "a"
        main(["simulate-approx", "--config", cfg, "--seed", "23", "--out", str(out)])
        rerun = tmp_path / "b"
        main(["simulate-approx", "--config", str(out / "manifest.json"),
              "--out", str(rerun)])
        assert (out / "events.csv").read_bytes() == (rerun / "events.csv").read_bytes()


class TestBoundsCheck:
    def test_no_violations(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["bounds-check", "--config", cfg, "--out", str(out)]) == 0
        assert "violations=0" in capsys.readouterr().out
        manifest = read_manifest(out / "manifest.json")
        assert manifest["violations"] == 0
        header = (out / "bounds.csv").read_text().splitlines()[0]
        assert header == "t,lower,upper,true"

    def test_violations_fail_the_check(self, tmp_path, capsys, monkeypatch):
        # a true intensity forced below the lower envelope at three events:
        # the table and the manifest are still written, then one check line
        real = cli.true_intensity_at_events

        def below_at_three(*args):
            true = real(*args)
            true[:3] = -1.0
            return true

        monkeypatch.setattr(cli, "true_intensity_at_events", below_at_three)
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["bounds-check", "--config", cfg, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "events=400 violations=3\n"
        assert captured.err.splitlines() == ["error: check: 3 envelope violations"]
        assert (out / "bounds.csv").read_text().splitlines()[1].endswith(",-1")
        manifest = read_manifest(out / "manifest.json")
        assert manifest["violations"] == 3
        assert manifest["outputs"] == ["bounds.csv"]

    def test_kijima1_config_equals_its_ara_config_bytewise(self, tmp_path):
        # Kijima1(a) is ARA(1, 1 - a): same trajectory, envelopes and true intensity
        a = 0.7
        outs = []
        for name, repair in (("kijima1", {"model": "kijima1", "a": a}),
                             ("ara", {"model": "ara", "m": 1, "rho": 1.0 - a})):
            cfg = write_config(tmp_path, base_config(repair=repair), f"{name}.json")
            outs.append(tmp_path / name)
            assert main(["bounds-check", "--config", cfg, "--out", str(outs[-1])]) == 0
        assert (outs[0] / "bounds.csv").read_bytes() == (outs[1] / "bounds.csv").read_bytes()


@pytest.mark.parametrize("args", [
    ["simulate-sgrp"], ["simulate-approx", "--method", "algorithm1"],
    ["simulate-approx", "--method", "thinning"], ["bounds-check"],
    ["figures", "--which", "fig5"], ["rate-curve"]], ids=" ".join)
def test_manifest_records_output_scheme(tmp_path, args):
    cfg = write_config(tmp_path, base_config(run={"n_events": 200, "seed": 4,
                                                  "bin_width": 200.0}))
    if args == ["rate-curve"]:
        main(["simulate-sgrp", "--config", cfg, "--out", str(tmp_path / "sim")])
        args = ["rate-curve", str(tmp_path / "sim" / "events.csv")]
    out = tmp_path / "out"
    assert main([*args[:1], "--config", cfg, "--out", str(out), *args[1:]]) == 0
    manifest = read_manifest(out / "manifest.json")
    assert manifest["output_scheme"] == 6
    assert manifest["versions"] == {"numpy": np.__version__}


class TestRateCurveCommand:
    def test_from_event_log(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        sim_out = tmp_path / "sim"
        main(["simulate-sgrp", "--config", cfg, "--out", str(sim_out)])
        rc_out = tmp_path / "rc"
        code = main(["rate-curve", str(sim_out / "events.csv"),
                     "--config", cfg, "--out", str(rc_out)])
        assert code == 0
        starts, counts, rates = read_rates_csv(rc_out / "rates.csv")
        assert counts.sum() == 400
        assert np.all(np.diff(starts) == 200.0)
        assert np.all(rates >= 0.0)

    def test_horizon_drops_the_partial_tail_bin(self, tmp_path):
        cfg = write_config(tmp_path, base_config(
            run={"horizon": 2500.0, "seed": 11, "bin_width": 1000.0}))
        sim_out = tmp_path / "sim"
        assert main(["simulate-sgrp", "--config", cfg, "--out", str(sim_out)]) == 0
        rc_out = tmp_path / "rc"
        assert main(["rate-curve", str(sim_out / "events.csv"),
                     "--config", cfg, "--out", str(rc_out)]) == 0
        times, _ = read_events_csv(sim_out / "events.csv")
        starts, counts, _ = read_rates_csv(rc_out / "rates.csv")
        assert list(starts) == [0.0, 1000.0]  # [2000, 3000) is partial
        assert list(counts) == [np.sum(times < 1000.0),
                                np.sum((times >= 1000.0) & (times < 2000.0))]

    def test_horizon_drops_an_event_past_the_integer_range(self, tmp_path):
        # a bin index past int64 is dropped with the other events past the
        # horizon: exit 0, and nothing on stderr
        cfg = write_config(tmp_path, base_config(
            run={"horizon": 10.0, "seed": 1, "bin_width": 1.0}))
        (tmp_path / "events.csv").write_text("index,time,component\n1,0.5,\n2,3e19,\n")
        proc = run_cli(["rate-curve", "events.csv", "--config", cfg, "--out", "out"], tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "")
        starts, counts, _ = read_rates_csv(tmp_path / "out" / "rates.csv")
        assert list(starts) == list(range(10))
        assert list(counts) == [1] + [0] * 9

    def test_printed_bins_are_the_edges(self, tmp_path):
        # at width 0.1 the edge fl(5 * 0.1) is 0.5: the event there is
        # counted in the row that starts at 0.5, and each row ends where the
        # next one starts
        cfg = write_config(tmp_path, base_config(run={"n_events": 2, "seed": 1, "bin_width": 0.1}))
        (tmp_path / "events.csv").write_text("index,time,component\n1,0.05,\n2,0.5,\n")
        assert main(["rate-curve", str(tmp_path / "events.csv"), "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "rates.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
        assert [row[2] for row in rows] == ["1", "0", "0", "0", "0", "1"]
        assert rows[-1][0] == "0.5"
        assert all(row[1] == after[0] for row, after in zip(rows, rows[1:]))

    def test_seed_override_is_recorded(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        events = tmp_path / "events.csv"
        events.write_text("index,time,component\n1,0.5,\n2,3.0,\n")
        for args, seed in (([], 11), (["--seed", "5"], 5)):
            out = tmp_path / f"rc{seed}"
            assert main(["rate-curve", str(events), "--config", cfg,
                         "--out", str(out), *args]) == 0
            assert read_manifest(out / "manifest.json")["seed"] == seed


class TestFigures:
    def test_fig5_curves(self, tmp_path):
        cfg = write_config(tmp_path, base_config(run={"n_events": 1500, "seed": 3,
                                                      "bin_width": 500.0}))
        out = tmp_path / "figs"
        code = main(["figures", "--config", cfg, "--out", str(out),
                     "--which", "fig5", "--method", "algorithm1"])
        assert code == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["fig5_delta0_rates.csv", "fig5_delta1_rates.csv",
                         "fig5_sgrp_rates.csv", "manifest.json"]

    #: sha256 of every file ``figures --which all --method algorithm1`` writes
    #: for the README config at seed 3 with 1,500 events per curve; the
    #: manifest's is taken with its ``versions`` set to GOLDEN_VERSIONS, the
    #: numpy the digests were recorded with
    GOLDEN = {
        "fig3_rho0.3_rates.csv":
            "6d6c116080f05271719d81349afb49e3c8b99e48dd8ee856f2151f34010cef6a",
        "fig3_rho0.6_rates.csv":
            "10f03e52773780813ea3f1f3811970c18f67652a76378b14400ae3618f373c3b",
        "fig3_rho0.9_rates.csv":
            "2575fee6b2c60f6a09cb3a769997ca1e9245c2662108e363add416d1d6614974",
        "fig4_delta0.2_rates.csv":
            "70ab8bbcb72b88f15a3301aba5501247d901bc070f8fa35ab34fdb5d8ece218b",
        "fig4_delta0.4_rates.csv":
            "2441d886f06ddfb1b7ebf5ff7d969aea3e3de8a744bc0ae3eea5c55e0ac39373",
        "fig4_delta0.6_rates.csv":
            "ab82a0f1cf2c6f3114fbeebb89bf644cead0fe93fcd08ac3ebb2b56d1b485b05",
        "fig4_delta0.8_rates.csv":
            "77aca062cec9041f3f61f5a729e1113822865e5e7b20991b50ee939aad43bba9",
        "fig4_delta0_rates.csv":
            "c146493ef9aea5df22eefb7d126026aed195171887b4e736fdf02fcf01616405",
        "fig4_delta1_rates.csv":
            "15b84dc4afd0869626504356dbc8edb26fccd59c139ee18702823aefad8ecdf9",
        "fig5_delta0_rates.csv":
            "fc8f33129ebe666310f76b0795605eb0d5012001fd8daf5834f63978c60d0015",
        "fig5_delta1_rates.csv":
            "75feeda614846ec9aa5520cd1e27de4d5189b7d355822ca0af01cea67a3d6ecc",
        "fig5_sgrp_rates.csv":
            "93bedc838f06346a181ee5bdf9a111706e2fb4d546824f5be4040cfe33f05b5a",
        "fig6_delta0_rates.csv":
            "1f30df42640c2a6ace68dabad7f93501b32b7fe63900ebd2c19596f70c897334",
        "fig6_delta1_rates.csv":
            "9cc04f1b8065f3475e0357be12c174e187f70692d979a354b891fa094be54ecc",
        "fig6_sgrp_rates.csv":
            "9e227533258c51aca28f7d3a5bf493d1a138ef8d8e71d189dd23459d76417c95",
        "manifest.json":
            "19ae855a3d2f393af06be67c2dfb95f678a8b4c6e13e47ca2cd5e00a8263d670",
    }

    def test_all_curves_match_golden_digests(self, tmp_path):
        cfg = write_config(tmp_path, base_config(
            system={"n": 100}, run={"n_events": 1500, "seed": 3, "bin_width": 1000.0}))
        out = tmp_path / "figs"
        assert main(["figures", "--config", cfg, "--out", str(out),
                     "--which", "all", "--method", "algorithm1"]) == 0
        assert read_manifest(out / "manifest.json")["output_scheme"] == 6
        assert tree_digests(out) == self.GOLDEN

    #: sha256 of every file ``figures --which all`` writes for ``base_config()``
    #: (five streams, seed 11) with the thinning sampler, and for the same
    #: config run to a horizon with algorithm1; manifests as in GOLDEN
    GOLDEN_BY_RUN = {
        "thinning": {
            "fig3_rho0.3_rates.csv":
                "6b39574aeaa4fd5ffee46f157ee57b3a6563b7273db12ebe33621d34272a1b75",
            "fig3_rho0.6_rates.csv":
                "582ece4c840d34018a2b22017397d27d5a6620b48771109848e332f0303d1138",
            "fig3_rho0.9_rates.csv":
                "cdb15df53aed945e67500192fcafa85a0794972eeea8e2cfe23e1a14d97d975d",
            "fig4_delta0.2_rates.csv":
                "f7c1231024337daf54dc8ff46ab702a387f085b442913c4faa665475aef10576",
            "fig4_delta0.4_rates.csv":
                "9205a1a36541e93003cf21cd123b50c033e8000d4ce2c09011eadbbd09af73d6",
            "fig4_delta0.6_rates.csv":
                "cb321729f12f0af28c2be6252fdd60d881797a2ad46d837c53fed17743a90610",
            "fig4_delta0.8_rates.csv":
                "3639d9fe87a7f33e07865d182a6a32eafadde9ce9e1be0f727177df41b873393",
            "fig4_delta0_rates.csv":
                "7910f3cc43332da75e72e8c06168db9c6dab3ab4705f60998085a3b3f3bf0e32",
            "fig4_delta1_rates.csv":
                "4312c3e8883a000d94416223e03182af1bbcde9dc54837cb8b89ed45f9e48265",
            "fig5_delta0_rates.csv":
                "d5ae7bc7a9f025467bdabc59851fa23399b43f7ea291039be24d37e8004d48a3",
            "fig5_delta1_rates.csv":
                "8e0dcf02b1d5b151b11f9631dc757129d242795e50712857eae70a029abe866f",
            "fig5_sgrp_rates.csv":
                "3df143a3c5b497573e06eb4c3ae5dd168ff942f91c1284f7f8ac2ab329018ff0",
            "fig6_delta0_rates.csv":
                "33f8907df28c24be87ea4383aef692e89abbabe0d1c7fa422828409a77962341",
            "fig6_delta1_rates.csv":
                "141987519d9cd3d61724214ce737692a888bbdebb2c1528aba866e8d135740e0",
            "fig6_sgrp_rates.csv":
                "f759fd3b8c9fd148a9625aa57cb933e261c641bb89b544472d5fec9b26db9e45",
            "manifest.json":
                "f8272de4d988cd33b05ca270b5de60919a8ecc67587ee25f19b71cddfd44f42c",
        },
        "horizon": {
            "fig3_rho0.3_rates.csv":
                "5bb46cc3e661d4762e82d24a9d723834ee4d51eed26e30f12fec4d1fc110c322",
            "fig3_rho0.6_rates.csv":
                "9f7f8c5647b529c0ce14da354c7608b665b9311c1560e0994ff864ec40f05f58",
            "fig3_rho0.9_rates.csv":
                "350ae82560d08114097656528ee1badbded257ae68898ae2366f94f1227a539e",
            "fig4_delta0.2_rates.csv":
                "0b1462c1fd50f0b36acdb928ce8242c299d7b3c609b08fded9c638b4234d28e2",
            "fig4_delta0.4_rates.csv":
                "7a2f23937210c7363079605515d43ddcbbe150dbb964b7dc5e5730ea649f2650",
            "fig4_delta0.6_rates.csv":
                "fb859e6e46ddecc4c48c3d55cfd6a1b61a3c3c8156436a52be4d78838f14db5c",
            "fig4_delta0.8_rates.csv":
                "17310bbfa19d8dd6f6a2e3b0dbb06ea359687d16b054b0bc8072f1ad64acc1fc",
            "fig4_delta0_rates.csv":
                "a08f8648514738024c829eb1b2b99c17f1f6710e5b24e0d2cbe354e20973ff76",
            "fig4_delta1_rates.csv":
                "7080a03b1b6727bc89b41021f40ba2ed4db381ac6577012b79c331e6b73e391d",
            "fig5_delta0_rates.csv":
                "eaed9d5bb230643c485efe8eeb6ce216b81e59e218ee8c7687504f462a68f547",
            "fig5_delta1_rates.csv":
                "3f35afb3418b17914849d2fcfe5ca6a84306891642bd5fb58bb2ef0d8f8d2995",
            "fig5_sgrp_rates.csv":
                "cbb0146921f8bb2f6fde6585db492f8e042a586124ffc48a85472a42f04dc184",
            "fig6_delta0_rates.csv":
                "ada2d43ec88e810a0e70f700b26d6301ef083be7fda456baa53ec4341bffff84",
            "fig6_delta1_rates.csv":
                "6939d1cc249c112e5fe71be39f73f26d1a2297b44b6be670b6dffc14b33cdd90",
            "fig6_sgrp_rates.csv":
                "79896883767be304eb67ad72274c39c7d53ed8ea853d3efa3caec759bddf89b5",
            "manifest.json":
                "8758407655837fb371dcf0d6a7712c4283e282930aedc0aa96b65cb088b04676",
        },
    }

    @pytest.mark.parametrize("label,method,run", [
        ("thinning", "thinning", None),
        ("horizon", "algorithm1", {"horizon": 2500.0, "seed": 3, "bin_width": 1000.0})])
    def test_thinning_and_horizon_curves_match_golden_digests(self, tmp_path, label,
                                                              method, run):
        cfg = write_config(tmp_path, base_config(**({"run": run} if run else {})))
        out = tmp_path / "figs"
        assert main(["figures", "--config", cfg, "--out", str(out),
                     "--which", "all", "--method", method]) == 0
        assert tree_digests(out) == self.GOLDEN_BY_RUN[label]

    def test_jobs_do_not_change_outputs(self, tmp_path):
        cfg = write_config(tmp_path, base_config(run={"n_events": 800, "seed": 5,
                                                      "bin_width": 500.0}))
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        main(["figures", "--config", cfg, "--out", str(serial),
              "--which", "fig5", "--jobs", "1"])
        main(["figures", "--config", cfg, "--out", str(parallel),
              "--which", "fig5", "--jobs", "3"])
        assert tree_bytes(serial) == tree_bytes(parallel)

    def test_batches_do_not_change_outputs(self, tmp_path):
        # two workers split the 15 curves into engine batches of 7 and 8
        cfg = write_config(tmp_path, base_config(run={"n_events": 400, "seed": 7,
                                                      "bin_width": 200.0}))
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        for out, jobs in ((serial, "1"), (parallel, "2")):
            assert main(["figures", "--config", cfg, "--out", str(out),
                         "--which", "all", "--jobs", jobs]) == 0
        assert tree_bytes(serial) == tree_bytes(parallel)

    def test_one_stacked_step_per_failure_row(self, tmp_path, monkeypatch):
        # every lock-step curve of the job advances in one engine call, all
        # rejuvenating streams of all curves in one vector step per failure
        # row: the README config at 6,000 events per curve makes about 100
        # inverse-cumulative calls, where stepping each curve alone made 1,190
        calls = []
        kernel = PowerLawHazard.inverse_cumulative_unchecked

        def counted(hazard, u):
            calls.append(1)
            return kernel(hazard, u)

        monkeypatch.setattr(PowerLawHazard, "inverse_cumulative_unchecked", counted)
        cfg = write_config(tmp_path, base_config(
            system={"n": 100}, run={"n_events": 6000, "seed": 1, "bin_width": 1000.0}))
        assert main(["figures", "--config", cfg, "--out", str(tmp_path / "figs"),
                     "--which", "all", "--method", "algorithm1"]) == 0
        assert len(calls) <= 150

    def test_jobs_cap_the_pool_at_the_task_count(self, tmp_path, monkeypatch):
        # fig5 is three curves, so --jobs 1000 asks for three workers. The
        # stub pool records its size and maps in this process: no worker
        # starts, whichever module the CLI takes the executor from
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool, raising=False)
        cfg = write_config(tmp_path, base_config(run={"n_events": 200, "seed": 5,
                                                      "bin_width": 100.0}))
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        assert main(["figures", "--config", cfg, "--out", str(serial),
                     "--which", "fig5", "--jobs", "1"]) == 0
        assert sizes == []
        assert main(["figures", "--config", cfg, "--out", str(pooled),
                     "--which", "fig5", "--jobs", "1000"]) == 0
        assert sizes == [3]
        assert tree_bytes(serial) == tree_bytes(pooled)


class TestManifestGolden:
    """Golden bytes of every other subcommand; ``TestFigures.GOLDEN`` pins ``figures``.

    sha256 of every file each subcommand writes for ``base_config()`` (five
    streams, 400 events, seed 11), its manifest's taken by ``tree_digests``.
    ``rate-curve`` bins the ``simulate-sgrp`` log by a relative path, which
    its manifest records as ``source``.
    """

    GOLDEN = {
        "simulate-sgrp": {
            "events.csv": "1426e252675816e2291d127d57317f5b56e6bdbea9b74fc280dadec864f8d131",
            "events_masked.csv":
                "5089edb69cb10e892b085b2964e04d7ec0e22e83286e61aaf251be339439ab3d",
            "manifest.json": "e7297dda9258bb01647ab04025ba0fd9644d34a95cdb9cc3b91aeabf7d8a011b",
        },
        "simulate-approx --method algorithm1": {
            "events.csv": "4d6e38012154279dd45916cb2acf659cfed23123341a5c07b80018455f64d6f7",
            "manifest.json": "758447eabe0c45ce20f14eac17fe94e3f607857a336cc2a93394c37aacad3956",
        },
        "simulate-approx --method thinning": {
            "events.csv": "a7fe32bcce03b1b643b2020d1d44288ab9a334bf326bc86daf3607b549f2588f",
            "manifest.json": "088efd8cf1d13f0c80274d5cadd93c5c4f7bfbc79733c9bdeff58e671a681a7d",
        },
        "bounds-check": {
            "bounds.csv": "970916bbaf117656b25a1c10e0bbe85c8dc1d6d6dd1d80f1bbbdf673c7b82bea",
            "manifest.json": "62a02d39d2c74a8fca3ef63f9ff0cd37446458327c0a834a0e26a2d91c2e4683",
        },
        "rate-curve": {
            "rates.csv": "4d39d86febed9e6d522d6548cb4f5cafd3a4e088a94605cae41b6bb2cccf3455",
            "manifest.json": "bf01f48f786917ef215d876a721c4c548eee2302a4ea55cb297babafad137cf9",
        },
    }

    @pytest.mark.parametrize("command", list(GOLDEN))
    def test_outputs_match_golden_digests(self, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, base_config())
        args = command.split()
        if args == ["rate-curve"]:
            assert main(["simulate-sgrp", "--config", cfg, "--out", "sim"]) == 0
            args.append(str(Path("sim", "events.csv")))
        assert main([args[0], "--config", cfg, "--out", "out", *args[1:]]) == 0
        assert tree_digests(tmp_path / "out") == self.GOLDEN[command]


class TestNarrowGolden:
    """Golden bytes of the five-stream lock step; ``TestFigures.GOLDEN`` pins 100 streams.

    sha256 of the CSVs of the README hazard at n = 5 and seed 3. The CSVs
    hold no version, so no field is pinned.
    """

    GOLDEN = {
        # bounds-check, Kijima a = 0.7, 1,500 events
        "bounds.csv": "41bafa9216a1935b5a6681a782f6d2214b1d3720b844bcb6022eda37ebe0a445",
        # simulate-sgrp, ARA(3, 0.5), horizon 2500
        "events.csv": "18214d9da9a62b4f6109e3af674e6b5712a475c7a6f262cd13a09c30bf7502d7",
        "events_masked.csv":
            "76fdff6f152e1d2909452c1c864641d593299c2cfd1d466f83c9842bdb810e22",
    }

    def run(self, tmp_path, command, **overrides):
        cfg = write_config(tmp_path, base_config(system={"n": 5}, **overrides))
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                for f in out.iterdir() if f.suffix == ".csv"}

    def test_kijima_bounds_check(self, tmp_path):
        digests = self.run(tmp_path, "bounds-check",
                           repair={"model": "kijima1", "a": 0.7},
                           run={"n_events": 1500, "seed": 3})
        assert digests == {"bounds.csv": self.GOLDEN["bounds.csv"]}

    def test_deep_memory_simulate_sgrp_to_a_horizon(self, tmp_path):
        digests = self.run(tmp_path, "simulate-sgrp",
                           repair={"model": "ara", "m": 3, "rho": 0.5},
                           run={"horizon": 2500.0, "seed": 3})
        assert digests == {name: self.GOLDEN[name]
                           for name in ("events.csv", "events_masked.csv")}


class TestHorizonConfigs:
    HORIZON = {"horizon": 2500.0, "seed": 3, "bin_width": 1000.0}

    def test_figures_algorithm1_runs_to_a_horizon(self, tmp_path):
        cfg = write_config(tmp_path, base_config(run=self.HORIZON))
        proc = run_cli(["figures", "--config", cfg, "--out", "figs", "--which", "fig4",
                        "--method", "algorithm1"], tmp_path)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert len(list((tmp_path / "figs").glob("fig4_*_rates.csv"))) == 6

    @pytest.mark.parametrize("which,method", [("fig3", "algorithm1"), ("fig5", "algorithm1"),
                                              ("fig5", "thinning")])
    def test_figures_drop_the_partial_tail_bin(self, tmp_path, which, method):
        cfg = write_config(tmp_path, base_config(run=self.HORIZON))
        out = tmp_path / "figs"
        assert main(["figures", "--config", cfg, "--out", str(out),
                     "--which", which, "--method", method]) == 0
        curves = sorted(out.glob("*_rates.csv"))
        assert curves
        for csv in curves:
            starts, _, _ = read_rates_csv(csv)
            assert list(starts) == [0.0, 1000.0]  # [2000, 3000) is partial

    def test_deep_memory_overshoot_config_runs(self, tmp_path):
        cfg = write_config(tmp_path, base_config(
            hazard={"family": "power_law", "beta": 0.3, "eta": 1.0},
            repair={"model": "ara", "m": 9, "rho": 0.999999}, system={"n": 1},
            run={"n_events": 5000, "seed": 0}))
        proc = run_cli(["simulate-sgrp", "--config", cfg, "--out", "out"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        times, _ = read_events_csv(tmp_path / "out" / "events.csv")
        assert times.size == 5000 and np.all(np.diff(times) > 0.0)


# a RuntimeWarning would print its own stderr line in the real CLI, which
# pytest's warnings capture hides from capsys: it fails the case instead
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestErrorPaths:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["simulate-sgrp", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: missing-file:")

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["simulate-sgrp", "--config", str(bad),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: config:")

    def test_missing_section(self, tmp_path, capsys):
        cfg = base_config()
        del cfg["run"]
        code = main(["simulate-sgrp", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "run" in capsys.readouterr().err

    def test_domain_error_is_distinct(self, tmp_path, capsys):
        cfg = base_config(repair={"model": "ara", "m": 1, "rho": 1.5})
        code = main(["simulate-sgrp", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 4
        assert capsys.readouterr().err.startswith("error: domain:")

    def test_missing_event_log(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        code = main(["rate-curve", str(tmp_path / "ghost.csv"),
                     "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 3

    @pytest.mark.parametrize("args", [["simulate-sgrp"], ["figures", "--which", "fig5"]],
                             ids=" ".join)
    def test_output_path_naming_a_file(self, tmp_path, capsys, args):
        # the output directory cannot be made: one io line and exit 1
        cfg = write_config(tmp_path, base_config())
        code = main([args[0], "--config", cfg, "--out", cfg, *args[1:]])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: io: ")

    def test_stop_rule_xor(self, tmp_path, capsys):
        cfg = base_config()
        cfg["run"] = {"n_events": 10, "horizon": 100.0, "seed": 1}
        code = main(["simulate-sgrp", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_thinning_refuses_a_majorant_past_the_float_range(self, tmp_path):
        # at beta = 1e4 the model rate overflows within about 50 rate calls,
        # and the clock once went NaN and looped forever
        cfg = write_config(tmp_path, base_config(
            hazard={"family": "power_law", "beta": 1e4, "eta": 1.0},
            repair={"model": "minimal"}, system={"n": 100},
            approx={"delta": 1.0, "normalization": "component"},
            run={"n_events": 300, "seed": 1}))
        proc = run_cli(["simulate-approx", "--method", "thinning", "--config", cfg,
                        "--out", str(tmp_path / "o")], tmp_path, timeout=5)
        assert proc.returncode == 4
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("error: domain: ")
        assert not (tmp_path / "o").exists()

    @staticmethod
    def tie_config(tmp_path):
        # beta = 1e13 gives exact ties across components
        return write_config(tmp_path, base_config(
            hazard={"family": "power_law", "beta": 1e13, "eta": 1.0},
            repair={"model": "minimal"}, system={"n": 100},
            approx={"delta": 1.0, "normalization": "component"},
            run={"n_events": 300, "seed": 1}))

    def test_ties_end_every_run_cleanly(self, tmp_path, capsys):
        # both exact samplers nudge ties apart alike, so each run exits 0 or
        # with one error line, and delta = 1 is the masked exact run byte for
        # byte. Thinning's majorant at this steepness is past the float range
        cfg = self.tie_config(tmp_path)
        for args, code, kind in [(["simulate-sgrp"], 0, None),
                                 (["simulate-approx", "--method", "algorithm1"], 0, None),
                                 (["simulate-approx", "--method", "thinning"], 4, "domain")]:
            got = main([*args, "--config", cfg, "--out", str(tmp_path / args[-1])])
            if kind:
                self.assert_one_line(capsys, got, code, kind)
            else:
                assert got == code and capsys.readouterr().err == ""
        exact = (tmp_path / "simulate-sgrp" / "events_masked.csv").read_bytes()
        assert (tmp_path / "algorithm1" / "events.csv").read_bytes() == exact

    def test_bounds_check_on_ties_finds_no_violation(self, tmp_path, capsys):
        code = main(["bounds-check", "--config", self.tie_config(tmp_path),
                     "--out", str(tmp_path / "o")])
        assert code == 0 and capsys.readouterr().err == ""

    def test_slack_scales_with_the_rates(self):
        # a one-ulp gap at 1e13 is rounding of equal sums, far past the
        # absolute 1e-9; a true value 1e-6 relative below the lower is not
        lower = np.array([1e13])
        upper = np.nextafter(lower, np.inf)
        assert cli._violations(100, lower, upper, upper) == 0
        assert cli._violations(100, upper, lower, lower) == 0
        assert cli._violations(100, lower * (1.0 - 1e-6), lower, upper) == 1
        assert cli._violations(5, np.array([1.0 - 2e-9]), np.array([1.0]), np.array([1.0])) == 1

    def assert_one_line(self, capsys, code, expected_code, kind):
        assert code == expected_code
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith(f"error: {kind}: ")
        return lines[0]

    def test_config_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe" + json.dumps(base_config()).encode("utf-16-le"))
        code = main(["simulate-sgrp", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert "UTF-8" in self.assert_one_line(capsys, code, 2, "config")

    def test_event_log_not_utf8(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        events = tmp_path / "events.csv"
        events.write_bytes(b"\xff\xfe" + "index,time,component\n1,0.5,\n".encode("utf-16-le"))
        code = main(["rate-curve", str(events), "--config", cfg, "--out", str(tmp_path / "o")])
        assert "UTF-8" in self.assert_one_line(capsys, code, 2, "config")

    def test_config_nested_past_the_recursion_limit(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        code = main(["simulate-sgrp", "--config", str(deep), "--out", str(tmp_path / "o")])
        self.assert_one_line(capsys, code, 2, "config")

    def test_integer_past_the_digit_limit(self, tmp_path, capsys):
        # Python's int parser refuses over 4,300 digits with a ValueError
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(base_config()).replace('"seed": 11', '"seed": 1' + "0" * 5000))
        code = main(["simulate-sgrp", "--config", str(cfg), "--out", str(tmp_path / "o")])
        self.assert_one_line(capsys, code, 2, "config")

    @pytest.mark.parametrize("argv", [
        ["simulate-sgrp", "--config", "c.json", "--out", "o", "--seed", "abc"],
        ["simulate-sgrp", "--config", "c.json"],
        ["frobnicate"],
        ["figures", "--config", "c.json", "--out", "o", "--which", "fig9"],
        [],
    ], ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_usage_error_is_one_line(self, capsys, argv):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        self.assert_one_line(capsys, stop.value.code, 2, "usage")

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_zero(self, capsys, flag):
        with pytest.raises(SystemExit) as stop:
            main([flag])
        assert stop.value.code == 0
        out, err = capsys.readouterr()
        assert out and not err

    @pytest.mark.parametrize("key", ["horizon", "bin_width"])
    def test_infinite_run_value(self, tmp_path, capsys, key):
        # an infinite horizon never stops a sampler and an infinite bin has
        # no start, so both are config errors. rate-curve reads both and
        # simulates nothing, so the test ends even where the horizon passes
        cfg = write_config(tmp_path, base_config(run={"horizon": 500.0, "seed": 1,
                                                      key: math.inf}))
        events = tmp_path / "events.csv"
        events.write_text("index,time,component\n1,0.5,\n")
        code = main(["rate-curve", str(events), "--config", cfg, "--out", str(tmp_path / "o")])
        assert f"run.{key}" in self.assert_one_line(capsys, code, 2, "config")

    @pytest.mark.parametrize("run,last", [
        ({"n_events": 10, "bin_width": 1e-12}, 1000.0),
        ({"horizon": 1e300, "bin_width": 1e-300}, 0.5)], ids=["tiny-width", "inf-bins"])
    def test_rate_curve_refuses_an_absurd_bin_count(self, tmp_path, capsys, run, last):
        # one CSV row per bin: 1e15 rows (8 PB of counts), or a count past
        # the float range, is a domain error before anything is allocated
        cfg = write_config(tmp_path, base_config(run=dict(run, seed=1)))
        events = tmp_path / "events.csv"
        events.write_text(f"index,time,component\n1,0.5,\n2,{last!r},\n")
        code = main(["rate-curve", str(events), "--config", cfg, "--out", str(tmp_path / "o")])
        assert "bins" in self.assert_one_line(capsys, code, 4, "domain")

    def test_rate_curve_refuses_inf_bins_past_the_last_event(self, tmp_path):
        # 1e300 // 1e-300 overflows to inf: one domain error line, without
        # numpy's overflow warnings
        cfg = write_config(tmp_path, base_config(run={"n_events": 10, "seed": 1,
                                                      "bin_width": 1e-300}))
        (tmp_path / "events.csv").write_text("index,time,component\n1,1e300,\n")
        proc = run_cli(["rate-curve", "events.csv", "--config", cfg, "--out", "out"], tmp_path)
        assert proc.returncode == 4
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("error: domain: ") and "inf bins" in lines[0]

    def test_rate_curve_refuses_an_infinite_event_time(self, tmp_path):
        # one domain error line, without numpy's warnings or a traceback
        cfg = write_config(tmp_path, base_config())
        (tmp_path / "events.csv").write_text("index,time,component\n1,0.5,\n2,inf,\n")
        proc = run_cli(["rate-curve", "events.csv", "--config", cfg, "--out", "out"], tmp_path)
        assert proc.returncode == 4
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("error: domain: ")

    def test_decreasing_hazard_runs_and_its_envelopes_are_refused(self, tmp_path, capsys):
        # beta < 1 needs no opt-in: the exact process runs, and bounds-check
        # is one domain error. A leftover allow_decreasing key, as older
        # manifests carry, changes no output byte
        hazard = {"family": "power_law", "beta": 0.8, "eta": 40.0}
        plain = write_config(tmp_path, base_config(hazard=hazard))
        leftover = write_config(tmp_path, base_config(hazard=dict(hazard, allow_decreasing=True)),
                                name="leftover.json")
        for cfg, out in ((plain, "a"), (leftover, "b")):
            assert main(["simulate-sgrp", "--config", cfg, "--out", str(tmp_path / out)]) == 0
        for name in ("events.csv", "events_masked.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        capsys.readouterr()
        code = main(["bounds-check", "--config", plain, "--out", str(tmp_path / "c")])
        line = self.assert_one_line(capsys, code, 4, "domain")
        assert line == "error: domain: envelopes require a nondecreasing hazard rate"

    @pytest.mark.parametrize("case", ["inf-event", "harmful-repair", "missing-log"])
    def test_refused_run_leaves_no_out_it_made(self, tmp_path, capsys, case):
        # the directories made for --out go again while empty; one that was
        # there before the run stays as found
        cfg = base_config(repair={"model": "ara", "m": 1, "rho": -5.0}) \
            if case == "harmful-repair" else base_config()
        cfg = write_config(tmp_path, cfg)
        (tmp_path / "events.csv").write_text("index,time,component\n1,0.5,\n2,inf,\n")
        args = {"inf-event": ["rate-curve", str(tmp_path / "events.csv")],
                "harmful-repair": ["bounds-check"],
                "missing-log": ["rate-curve", str(tmp_path / "ghost.csv")]}[case]
        code = 3 if case == "missing-log" else 4
        kind = "missing-file" if case == "missing-log" else "domain"
        for out in (tmp_path / "o", tmp_path / "new" / "nested" / "o"):
            got = main([*args, "--config", cfg, "--out", str(out)])
            self.assert_one_line(capsys, got, code, kind)
            assert not out.exists()
        assert not (tmp_path / "new").exists()
        found = tmp_path / "found"
        found.mkdir()
        assert main([*args, "--config", cfg, "--out", str(found)]) == code
        assert found.is_dir() and not any(found.iterdir())

    @pytest.mark.parametrize("rho", [-math.inf, -1e300])
    def test_harmful_repair_past_the_float_range(self, tmp_path, rho):
        # an age that overflows is one domain error line, without numpy's
        # warnings, and leaves no --out
        cfg = write_config(tmp_path, base_config(repair={"model": "ara", "m": 1, "rho": rho}))
        proc = run_cli(["simulate-sgrp", "--config", cfg, "--out", "out"], tmp_path)
        assert proc.returncode == 4
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("error: domain: ")
        assert not (tmp_path / "out").exists()


def with_value(section, key, value):
    cfg = base_config()
    cfg[section] = dict(cfg[section], **{key: value})
    return cfg


class TestConfigContract:
    """A bad input gives one ``error: config:`` line and exit 2, never a traceback.

    A bad command-line value is refused by the parser, as ``error: usage:``.
    """

    def assert_config_error(self, proc, mentions, kind="config"):
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {kind}: ")
        assert mentions in lines[0]

    @pytest.mark.parametrize("section,key,value,mentions", [
        ("hazard", "beta", "abc", "hazard.beta"),
        ("repair", "rho", "x", "repair.rho"),
        ("run", "n_events", "many", "run.n_events"),
        ("system", "n", None, "system.n"),
        ("system", "n", 2.5, "system.n"),
        ("run", "n_events", 10.9, "run.n_events"),
        ("repair", "m", 1.5, "repair.m"),
        ("system", "n", True, "system.n"),
        ("system", "n", False, "system.n"),
        ("hazard", "beta", True, "hazard.beta"),
        ("hazard", "beta", False, "hazard.beta"),
        ("run", "seed", True, "run.seed"),
        ("run", "seed", False, "run.seed"),
    ])
    def test_non_numeric_config_value(self, tmp_path, section, key, value, mentions):
        cfg = write_config(tmp_path, with_value(section, key, value))
        proc = run_cli(["simulate-sgrp", "--config", cfg, "--out", "out"], tmp_path)
        self.assert_config_error(proc, mentions)

    def test_negative_seed_override(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        proc = run_cli(["simulate-sgrp", "--config", cfg, "--out", "out",
                        "--seed", "-5"], tmp_path)
        self.assert_config_error(proc, "--seed", kind="usage")

    def test_negative_seed_override_of_rate_curve(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        events = tmp_path / "events.csv"
        events.write_text("index,time,component\n1,0.5,\n")
        proc = run_cli(["rate-curve", str(events), "--config", cfg, "--out", "rc",
                        "--seed", "-1"], tmp_path)
        self.assert_config_error(proc, "--seed", kind="usage")
        assert not (tmp_path / "rc").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs(self, tmp_path, jobs):
        cfg = write_config(tmp_path, base_config())
        proc = run_cli(["figures", "--config", cfg, "--out", "out", "--jobs", jobs], tmp_path)
        self.assert_config_error(proc, f"--jobs must be >= 1, got {jobs}", kind="usage")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("log,mentions", [
        ("index,time,component\n1,0.5,\n2,soon,\n", "line 3"),
        ("", "not an event log"),
    ])
    def test_malformed_event_log(self, tmp_path, log, mentions):
        cfg = write_config(tmp_path, base_config())
        events = tmp_path / "events.csv"
        events.write_text(log)
        proc = run_cli(["rate-curve", str(events), "--config", cfg, "--out", "rc"],
                       tmp_path)
        self.assert_config_error(proc, mentions)


def test_quadrature_runs_without_scipy():
    # scipy is a test dependency only: with it blocked, the package imports
    # and integrates the model intensity over a simulated history
    code = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None",
        "import sgrpsim.cli",
        "from sgrpsim import (ARA, ApproxModel, MaskedHistory, PowerLawHazard,",
        "                     approx_intensity, intensity_integral, simulate_thinning)",
        "am = ApproxModel(5, 0.5, PowerLawHazard(1.3, 40.0), ARA(1, 0.3))",
        "times = simulate_thinning(am, n_events=20, seed=3).times",
        "hist = MaskedHistory(times[:-1], am.n, t_obs=float(times[-2]))",
        "value = intensity_integral(lambda u: approx_intensity(am, hist, u))(",
        "    float(times[-2]), float(times[-1]))",
        "print(value > 0.0)",
    ])
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random loads with the first stream, not with the package
    code = "import sys, sgrpsim.cli; print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_the_process_pool_unloaded():
    # only figures --jobs > 1 imports the pool
    code = "import sys, sgrpsim.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_simulate_run_leaves_package_metadata_unloaded(tmp_path):
    # the manifest records numpy's version only, so no run reads installed
    # package metadata
    cfg = write_config(tmp_path, base_config())
    code = ("import sys; from sgrpsim.cli import main; "
            f"code = main(['simulate-sgrp', '--config', {cfg!r}, '--out', 'out']); "
            "print(code, 'importlib.metadata' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 False"
