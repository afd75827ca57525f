"""Record the output digests that the benchmark checks for fixed seeds.

    python3 bench/record_golden.py

Runs the warm-up pass of every workload for each seed in SEEDS, requires
every output to pass the invariant checks, and writes the sha256 of each
job's output to bench/golden.json. Run it only when the job lists change;
outputs themselves are meant to stay byte-identical.
"""

import json
import sys

import gen
import run

SEEDS = (1, 2)


def main() -> int:
    km = run.import_library()
    digests = {}
    for name in gen.WORKLOADS:
        for seed in SEEDS:
            wl = run.Workload(km, name, seed)
            wl.run_pass(warmup=True)
            if wl.failures:
                print("\n".join(wl.failures), file=sys.stderr)
                return 1
            digests.setdefault(name, {})[str(seed)] = wl.reference
            print(f"{name} seed {seed}: {len(wl.reference)} digests")
    with open(run.BENCH / "golden.json", "w", encoding="utf-8") as handle:
        json.dump({"seeds": list(SEEDS), "digests": digests}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
