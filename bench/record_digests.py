"""Record the sha256 digest of each workload's outputs for a range of seeds.

    python3 bench/record_digests.py --seeds 0-99

Runs one plain repetition per (workload, seed), rewrites
``bench/digests.json`` and exits 1 if any output check failed. The
benchmark's ``io.outputs_identical`` compares each run against this record,
so rerun this after a deliberate, versioned change of the outputs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-99", help="inclusive range lo-hi")
    args = parser.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    run.import_package()
    from workloads import WORKLOADS

    record, status = {}, 0
    for name, wl in WORKLOADS.items():
        workdir = run.OUT / f"record-{name}"
        record[name] = {}
        for seed in range(lo, hi + 1):
            wl.prepare(workdir, seed)
            _, result = run.run_rep(wl, workdir, seed)
            failed = [op for op, ok in wl.verify(workdir, result) if not ok]
            if failed:
                print(f"{name} seed {seed}: checks failed: {failed}", file=sys.stderr)
                status = 1
            record[name][str(seed)] = wl.digest(workdir, result)
            print(name, seed, record[name][str(seed)], flush=True)
        shutil.rmtree(workdir)
    run.DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
