#!/usr/bin/env python3
"""Write reference.json: SHA-256 digests of every CLI job's output.

The digests were taken at the seed commit and must not be regenerated to make
a changed program pass; run this only to add the digests of a new job:

    python3 perfbench/make_reference.py
"""

import json
import sys

import run


def main() -> int:
    run.load_luspec()
    digests = {}
    for workload in run.WORKLOADS.values():
        run.set_up(workload)
        for job in workload.jobs:
            if not job.argv:
                continue
            outcome = run.run_job(job, deadline=float("inf"))
            if outcome.error or outcome.result != 0:
                raise SystemExit(f"{job.label}: {outcome.error or outcome.result}")
            digests[job.label] = run.output_digest(job, outcome.output)
            print(job.label, digests[job.label])
    with open(run.HERE / "reference.json", "w") as fp:
        json.dump({"sha256": digests}, fp, indent=2)
        fp.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
