"""Capture the seed digests that every benchmark run checks against.

Runs each workload command once as a child, records its exit code, stdout
sha256 and byte count, and records the irreps count of every tensor power
for each oracle command.  Run it only at a commit whose output is the
reference (the CLI promises byte-identical stdout across changes):

    python3 perfbench/capture.py
"""

from __future__ import annotations

import json
import sys
import time

import run


def main() -> int:
    commands = sorted({run.SETUP_COMMAND, *(c for cs in run.WORKLOADS.values() for c in cs)})
    digests = {"commands": {}, "irreps_per_power": {}}
    for command in commands:
        check = run.OutputCheck(command)
        argv = [sys.executable, "-m", "adjoint_powers", *command.split()]
        code, seconds, _ = run.spawn(argv, check.write_bytes, time.perf_counter() + 600)
        digests["commands"][command] = {
            "exit": code,
            "sha256": check.digest.hexdigest(),
            "bytes": check.bytes,
        }
        print(f"{command}: exit {code}, {check.bytes} bytes, {seconds:.2f} s", file=sys.stderr)
    lie = run.import_package()["lie"]
    for command in commands:
        if run.is_oracle(command):
            k_max, rank = run.oracle_args(command)
            state = {lie.trivial_labels(rank): 1}
            counts = []
            for _ in range(k_max):
                state = lie.tensor_with_adjoint(state, rank)
                counts.append(len(state))
            digests["irreps_per_power"][command] = counts
    with open(run.DIGESTS, "w") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
