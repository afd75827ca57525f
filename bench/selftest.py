"""Self-test of the benchmark's input generator.

    python3 bench/selftest.py

Checks that
  * the same seed gives a byte-identical job list, also in a fresh
    interpreter with another string-hash seed;
  * different seeds give different job lists;
  * every generated Keller-family map (Frobenius and indicator maps,
    conjugated triangular maps, the maps of probe, descent, fiber and zero
    count jobs) passes is_keller, and the deliberately broken one fails it.
Exits with 1 on the first failure.
"""

import os
import subprocess
import sys

import gen
import run

SEEDS = range(1, 6)
KELLER_OPS = ("check", "keller", "probe", "restrict", "fiber", "fiber_at", "zerocount", "bezout")


def main() -> int:
    km = run.import_library()
    failures = []
    for name in gen.WORKLOADS:
        texts = set()
        for seed in SEEDS:
            text = gen.job_list_text(name, seed)
            if text != gen.job_list_text(name, seed):
                failures.append(f"{name} seed {seed}: job list differs between calls")
            texts.add(text)
            maps = 0
            for job in gen.job_list(name, seed):
                if job["op"] not in KELLER_OPS or "exit" in job["expect"]:
                    continue
                _, f, _ = km.parsing.parse_map_document(job["doc"])
                want = job["expect"].get("keller", True)
                if km.is_keller(f) != want:
                    failures.append(f"{job['id']} seed {seed}: is_keller != {want}")
                maps += 1
            print(f"{name} seed {seed}: {maps} Keller-family maps checked")
        if len(texts) != len(SEEDS):
            failures.append(f"{name}: two seeds gave the same job list")
        code = "import sys; sys.path.insert(0, 'bench'); import gen; " \
               f"sys.stdout.write(gen.job_list_text({name!r}, 1))"
        env = dict(os.environ, PYTHONHASHSEED="12345")
        fresh = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               env=env, cwd=run.ROOT, check=True).stdout
        if fresh != gen.job_list_text(name, 1):
            failures.append(f"{name}: job list differs in a fresh interpreter")
    for line in failures:
        print(f"FAILED {line}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
