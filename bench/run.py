"""Benchmark for kellermaps: three seeded workloads, end-to-end and per layer.

    python3 bench/run.py --workload scan|algebra|cli --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: the next job starts when
the previous one ends. A pass runs the workload's seeded job list once; a
run repeats whole passes for S seconds after one warm-up pass. Every job
parses its document into fresh objects inside its timed region, so the
per-map Keller cache never carries over between jobs.

  scan     in-process residue scans (check, zero counts, constructions
           that re-scan), where ring arithmetic, PolyMap.eval and the
           enumeration do nearly all the work
  algebra  in-process Hensel lifts at precision 16-256, fibers, univariate
           roots, is_keller up to n = 6, probes and descents
  cli      one `python -m kellermaps.cli - --json` subprocess per job,
           covering all 7 commands, so interpreter start and import count

Outputs are checked in the warm-up pass against golden.json (seeds with
recorded digests) and against invariants (every seed); later passes must
reproduce the warm-up digests. With --trace 0 the last line holds the
end-to-end metrics, with job times scaled to a reference host speed (see
calibrate); with --trace 1 it holds the per-layer metrics of a traced run
(tracer.py) and the microbenchmark rows, plus the tracing overhead. The
comment lines before the JSON list every metric with its unit and sample
count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import checks
import gen
import tracer as tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

COMMANDS = ("check", "lift", "fiber", "restrict", "probe", "bound", "construct")
MIN_PASSES = 3
# host-speed calibration: a fixed loop, and its time on the reference host
CAL_LOOPS = 20_000
CAL_REF_NS = 4_000_000
CLI_TIMEOUT_S = 60
MICRO_REPS = 7
KELLER_REPS = 3  # is_keller at n = 6 takes a few hundred ms
# a fresh interpreter up to the first job being ready (setup_s)
SETUP_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import kellermaps, kellermaps.cli, gen; "
               "gen.job_list(sys.argv[3], int(sys.argv[4])); print('ready', flush=True)")
# microseconds per ring construction in a fresh interpreter, where every
# modulus search is cold, as in a CLI job (rings.build_us)
BUILD_PROBE = """\
import json, sys, time
import kellermaps as km
params = json.loads(sys.argv[1])
build = {"zp": lambda p, prec, deg: km.truncated_zp(p, prec),
         "fpt": lambda p, prec, deg: km.truncated_fpt(p, prec),
         "unram": lambda p, prec, deg: km.build_unramified(p, deg, prec)}
t = time.perf_counter_ns()
for kind, p, prec, deg in params:
    build[kind](p, prec, deg)
print((time.perf_counter_ns() - t) / len(params) / 1e3)
"""


def calibrate() -> int:
    """Nanoseconds for a fixed pure-Python loop that calls no library code.

    The host this benchmark was built on changes speed by up to 1.5x for
    seconds to minutes at a time, and interpreted code slows down with it.
    Each timed job is scaled by CAL_REF_NS over the mean of this loop's time
    just before and just after it, which turns its wall time into wall time
    at the reference speed; raw figures are printed alongside.
    """
    t0 = time.perf_counter_ns()
    table, x = {}, 1
    for i in range(CAL_LOOPS):
        x = (x * 7 + i) % 1_000_003
        table[i & 255] = (x, i)
        tuple(table[i & 255])
    return time.perf_counter_ns() - t0


def _at_reference(ns: float, before: int, after: int) -> float:
    return ns * 2 * CAL_REF_NS / (before + after)


# ---------------------------------------------------------------------------
# the library, from this checkout only


def import_library():
    """Import kellermaps from this checkout's src/, or exit without a result."""
    if not (SRC / "kellermaps" / "__init__.py").is_file():
        raise SystemExit(f"error: no kellermaps sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kellermaps
    import kellermaps.cli  # noqa: F401  (jobs use the CLI's job API)

    if Path(kellermaps.__file__).resolve().parent != SRC / "kellermaps":
        raise SystemExit(f"error: imported kellermaps from {kellermaps.__file__}")
    return kellermaps


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# running one job


def run_inprocess(km, job: dict) -> str:
    """Run a job through the public API; returns its canonical output text."""
    op = job["op"]
    if op in COMMANDS:
        spec = km.cli.parse_input(job["doc"], op, job["options"])
        return km.cli.render_json(km.cli.run_job(spec))
    ring, f, _ = km.parsing.parse_map_document(job["doc"])
    args = job["args"]
    if op == "zerocount":
        out = {"count": km.unimodular.residue_zero_count(f, args["ext"])}
    elif op == "bezout":
        r = km.unimodular.bezout_check(f, args["ext"])
        out = {"bound": r.bound, "count": r.count, "satisfied": r.satisfied}
    elif op == "keller":
        out = {"keller": km.jacobian.is_keller(f)}
    elif op == "hensel":
        r = km.hensel.hensel_lift(f, tuple(ring.from_coeffs(c) for c in args["point"]))
        out = {"beta": [list(x.coeffs()) for x in r.beta], "m": r.m,
               "iterations": r.iterations, "uniqueness_exponent": r.uniqueness_exponent,
               "precision": r.precision, "progress": list(r.progress)}
    elif op == "fiber_at":
        pts = km.hensel.fiber_points(f, tuple(ring.from_coeffs(c) for c in args["target"]))
        out = {"points": [[list(x.coeffs()) for x in pt] for pt in pts]}
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


class _Popen(subprocess.Popen):
    """Popen that keeps the resource usage the kernel reports at reaping."""

    rusage = None

    def _try_wait(self, wait_flags):
        try:
            pid, sts, usage = os.wait4(self.pid, wait_flags)
        except ChildProcessError:
            return (self.pid, 0)
        if pid == self.pid:
            self.rusage = usage
        return (pid, sts)


def run_subprocess(argv: list, stdin: bytes, env: dict, timeout: float) -> tuple:
    """(exit code, stdout, stderr, wall ns, peak RSS in KiB) of one child."""
    t0 = time.perf_counter_ns()
    with _Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, env=env, cwd=ROOT) as proc:
        try:
            out, err = proc.communicate(stdin, timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    wall = time.perf_counter_ns() - t0
    return proc.returncode, out, err, wall, proc.rusage.ru_maxrss


def cli_argv(job: dict, entry: list) -> list:
    argv = [sys.executable] + entry + ["-", "--json", "--cmd", job["op"]]
    for key, value in sorted(job["options"].items()):
        argv += [f"--{key}", str(value)]
    return argv


# ---------------------------------------------------------------------------
# passes


class Workload:
    """One workload's job list and what its passes have seen so far."""

    def __init__(self, km, name: str, seed: int):
        self.km, self.name, self.seed = km, name, seed
        self.jobs = gen.job_list(name, seed)
        self.cli = name == "cli"
        self.env = _child_env()
        self.tracer = None  # set for the traced passes of in-process workloads
        self.reference = [None] * len(self.jobs)
        self.attempted = 0
        self.failures = []
        self.child_rss_kib = 0
        self.calibration_ns = []
        self.trace_dir = ROOT / ".bench_build" / "trace"

    def _fail(self, job: dict, why: str):
        self.failures.append(f"{job['id']} ({job['op']}): {why}")

    def _run_one(self, i: int, job: dict, traced: bool):
        """(output or None, wall ns)."""
        if self.cli:
            entry = ["-m", "kellermaps.cli"]
            env = self.env
            if traced:
                entry = [str(BENCH / "trace_child.py")]
                env = dict(self.env, KELLERMAPS_BENCH_TRACE=str(self.trace_dir / f"{i}.json"))
            try:
                code, out, err, wall, rss = run_subprocess(
                    cli_argv(job, entry), job["doc"].encode(), env, CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self._fail(job, "timeout")
                return None, CLI_TIMEOUT_S * 10**9
            self.child_rss_kib = max(self.child_rss_kib, rss)
            return (code, out, err), wall
        if self.tracer is not None:
            self.tracer.job = i
        t0 = time.perf_counter_ns()
        try:
            out = run_inprocess(self.km, job)
        except Exception as exc:  # a failed job is counted, the run goes on
            wall = time.perf_counter_ns() - t0
            self._fail(job, f"{type(exc).__name__}: {exc}")
            out = None
        else:
            wall = time.perf_counter_ns() - t0
        if self.tracer is not None:
            self.tracer.end_job()
        return out, wall

    def run_pass(self, traced: bool = False, warmup: bool = False, golden=None) -> dict:
        """One pass over the job list; returns wall time, latencies, points."""
        if traced and self.cli:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
        outputs, walls, raw = [], [], []
        before = calibrate()
        for i, job in enumerate(self.jobs):
            out, wall = self._run_one(i, job, traced)
            after = calibrate()
            outputs.append(out)
            raw.append(wall)
            walls.append(_at_reference(wall, before, after))
            self.calibration_ns.append(after)
            before = after
        self.attempted += len(self.jobs)
        points, point_ns, point_jobs = 0, 0, 0
        for i, (job, out) in enumerate(zip(self.jobs, outputs)):
            if out is None:
                continue
            digest = checks.digest(out)
            if warmup:
                try:
                    checks.check_output(self.km, job, out)
                except (checks.CheckFailed, KeyError, ValueError) as exc:
                    self._fail(job, f"check: {exc}")
                    continue
                if golden is not None and golden[i] != digest:
                    self._fail(job, "output differs from the recorded digest")
                    continue
                self.reference[i] = digest
            elif digest != self.reference[i]:
                self._fail(job, "output differs from the warm-up pass")
                continue
            n = _points(job, out)
            if n:
                points += n
                point_ns += walls[i]
                point_jobs += 1
        return {"wall_ns": sum(walls), "raw_ns": sum(raw), "job_ns": walls, "raw_job_ns": raw,
                "points": points, "point_ns": point_ns, "point_jobs": point_jobs}


def _points(job: dict, out) -> int:
    """Residue points the job's report says were checked or counted."""
    if "scanned" in job["expect"]:
        return job["expect"]["scanned"]
    if job["op"] not in ("check", "construct") or job["expect"].get("exit"):
        return 0
    text = out if isinstance(out, str) else out[1].decode()
    return json.loads(text).get("points_checked", 0)


def run_passes(wl: Workload, seconds: float, traced: bool = False, on_pass=None) -> list:
    """Whole passes until their wall time adds up to `seconds`; `on_pass(n)`
    runs after pass n, outside the measured time."""
    passes, spent = [], 0
    while len(passes) < MIN_PASSES or spent < seconds * 1e9:
        passes.append(wl.run_pass(traced=traced))
        spent += passes[-1]["raw_ns"]
        if on_pass is not None:
            on_pass(len(passes))
    return passes


# ---------------------------------------------------------------------------
# set-up time: a fresh interpreter up to the first job being ready


def setup_seconds(name: str, seed: int) -> float:
    """Seconds from launching a SETUP_PROBE interpreter to its "ready" line.

    A run takes one such sample before its passes and one after each pass,
    so that the samples spread over the run rather than over one moment of
    the host's load."""
    argv = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH), name, str(seed)]
    before = calibrate()
    t0 = time.perf_counter_ns()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter_ns()
        proc.stdout.read()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise SystemExit("error: set-up probe failed")
    return _at_reference(t1 - t0, before, calibrate()) / 1e9


# ---------------------------------------------------------------------------
# microbenchmark rows, on rings and operands from the workload's own inputs


def _per_op(fn, count: int) -> float:
    """Median over repetitions of the seconds per operation of fn()."""
    times = []
    for _ in range(MICRO_REPS):
        t0 = time.perf_counter_ns()
        fn()
        times.append((time.perf_counter_ns() - t0) / count / 1e9)
    return median(times)


def micro_rows(km, wl: Workload) -> dict:
    rng = random.Random(f"kellermaps-bench-micro:{wl.name}:{wl.seed}")
    specs = sorted({tuple(job["doc"].split("\n", 1)[0].split()[1:]) for job in wl.jobs
                    if job["doc"].startswith("ring ") and not job["expect"].get("exit")})
    rings = {"zp": [], "fpt": [], "unram": []}
    params = []
    for spec in specs:
        kv = dict(item.split("=") for item in spec[1:])
        p, prec, deg = int(kv["p"]), int(kv["prec"]), int(kv.get("deg", 1))
        params.append((spec[0], p, prec, deg))
        rings[spec[0]].append(km.parsing.parse_ring_line("ring " + " ".join(spec)))
    rings["gfq"] = [r.residue_ring() for r in rings["unram"]]
    rows = {}
    for kind in ("zp", "fpt", "gfq", "unram"):
        pool = rings[kind]
        pairs = []
        for i in range(200):
            r = pool[i % len(pool)]
            pairs.append((r.from_index(rng.randrange(r.element_count)),
                          r.from_index(rng.randrange(r.element_count))))

        def mul_loop(pairs=pairs):
            for a, b in pairs:
                a * b

        rows[f"rings.mul_ns.{kind}"] = (_per_op(mul_loop, len(pairs)) * 1e9, "ns")
    units = []
    while len(units) < 50:
        r = rings["unram"][len(units) % len(rings["unram"])]
        x = r.from_index(rng.randrange(r.element_count))
        if x.is_unit:
            units.append(x)

    def inverse_loop():
        for x in units:
            x.inverse()

    rows["rings.inverse_us.unram"] = (_per_op(inverse_loop, len(units)) * 1e6, "us")
    builds = []
    for _ in range(MICRO_REPS):
        code, out, _, _, _ = run_subprocess([sys.executable, "-c", BUILD_PROBE, json.dumps(params)],
                                            b"", wl.env, 30)
        if code:
            raise SystemExit("error: ring build probe failed")
        builds.append(float(out))
    rows["rings.build_us"] = (median(builds), "us")
    zp = max(rings["zp"], key=lambda r: (r.precision, r.p))
    docs = gen.micro_docs(wl.name, wl.seed, zp.p, zp.precision)
    keller_ms, lift_ms = [], []
    for _ in range(KELLER_REPS):
        _, f, _ = km.parsing.parse_map_document(docs["keller_n6"])
        t0 = time.perf_counter_ns()
        km.is_keller(f)
        keller_ms.append((time.perf_counter_ns() - t0) / 1e6)
    for _ in range(MICRO_REPS):
        ring, f, _ = km.parsing.parse_map_document(docs["lift_doc"])
        alpha = tuple(ring.from_coeffs(c) for c in docs["lift_point"])
        t0 = time.perf_counter_ns()
        km.hensel_lift(f, alpha)
        lift_ms.append((time.perf_counter_ns() - t0) / 1e6)
    rows["jacobian.is_keller_ms.n6"] = (median(keller_ms), "ms")
    rows["hensel.lift_ms.prec256"] = (median(lift_ms), "ms")
    interp, imports = [], []
    probe = ("import time; t = time.perf_counter(); import kellermaps.cli; "
             "print((time.perf_counter() - t) * 1e3)")
    for _ in range(MICRO_REPS):
        code, _, _, wall, _ = run_subprocess([sys.executable, "-c", "pass"], b"", wl.env, 30)
        interp.append(wall / 1e6)
        code2, out, _, _, _ = run_subprocess([sys.executable, "-c", probe], b"", wl.env, 30)
        if code or code2:
            raise SystemExit("error: interpreter probe failed")
        imports.append(float(out))
    rows["cli.interpreter_ms"] = (median(interp), "ms")
    rows["cli.import_ms"] = (median(imports), "ms")
    return rows


# ---------------------------------------------------------------------------
# per-layer metrics from tracer snapshots


def _diff(after: dict, before: dict) -> dict:
    out = {}
    for key, value in after.items():
        if isinstance(value, dict):
            out[key] = {k: v - before[key].get(k, 0) for k, v in value.items()}
        else:
            out[key] = value - before[key]
    return out


def _sum(snapshots: list) -> dict:
    total = {}
    for snap in snapshots:
        for key, value in snap.items():
            if isinstance(value, dict):
                acc = total.setdefault(key, {})
                for name, v in value.items():
                    acc[name] = acc.get(name, 0) + v
            else:
                total[key] = total.get(key, 0) + value
    return total


def layer_metrics(s: dict) -> dict:
    ms = 1e-6
    g, gc, calls, self_ns = s["group_ns"], s["group_calls"], s["calls"], s["self_ns"]
    scan_ns = g["scan"] - s["not_scan_ns"]
    eval_calls = gc["eval"]
    rows = {
        "rings.mul_calls": (s["mul_calls"], "count"),
        "rings.arith_busy_ms": (s["arith_ns"] * ms, "ms"),
        "polynomials.eval_calls": (eval_calls, "count"),
        "polynomials.eval_busy_ms": (g["eval"] * ms, "ms"),
        "polynomials.eval_us_per_call": (g["eval"] / 1e3 / eval_calls if eval_calls else 0.0, "us"),
        "polynomials.mul_busy_ms": (g["mul"] * ms, "ms"),
        "polynomials.compose_busy_ms": (g["compose"] * ms, "ms"),
        "jacobian.is_keller_calls": (calls.get("jacobian.is_keller", 0), "count"),
        "jacobian.is_keller_busy_ms": (g["is_keller"] * ms, "ms"),
        "jacobian.det_scalar_busy_ms": (g["det_scalar"] * ms, "ms"),
        "unimodular.check_calls": (calls.get("unimodular.check_unimodular", 0), "count"),
        "unimodular.scan_busy_ms": (scan_ns * ms, "ms"),
        "unimodular.points_checked": (s["points_checked"], "count"),
        "unimodular.points_per_s": (s["points_checked"] / (scan_ns / 1e9) if scan_ns else 0.0, "1/s"),
        "unimodular.scan_useful_ratio": (
            s["scans_distinct"] / s["scans_run"] if s["scans_run"] else 1.0, "ratio"),
        "hensel.lift_calls": (calls.get("hensel.hensel_lift", 0), "count"),
        "hensel.lift_busy_ms": (g["lift"] * ms, "ms"),
        "hensel.iterations": (s["hensel_iterations"], "count"),
        "hensel.fiber_busy_ms": (g["fiber"] * ms, "ms"),
        "hensel.univariate_busy_ms": (g["univariate"] * ms, "ms"),
        "constructions.probe_busy_ms": (g["probe"] * ms, "ms"),
        "constructions.construct_busy_ms": (g["construct"] * ms, "ms"),
        "constructions.restrict_busy_ms": (g["restrict"] * ms, "ms"),
        "parsing.parse_busy_ms": (g["parse"] * ms, "ms"),
        "parsing.digest_busy_ms": (g["digest"] * ms, "ms"),
        "cli.main_busy_ms": (g["cli"] * ms, "ms"),
    }
    for layer, ns in self_ns.items():
        rows[f"{layer}.self_ms"] = (ns * ms, "ms")
    return rows


COUNT_UNITS = ("count", "ratio")


def traced_run(km, wl: Workload, seconds: float) -> tuple:
    """Untraced passes, microbenchmarks, then traced passes."""
    untraced = run_passes(wl, seconds / 2)
    rows = micro_rows(km, wl)
    samples = {name: KELLER_REPS if name == "jacobian.is_keller_ms.n6" else MICRO_REPS
               for name in rows}
    tr = tracing.Tracer()
    snaps = []
    spans = []
    if wl.cli:
        def on_pass(n):
            parts = []
            for i in range(len(wl.jobs)):
                path = wl.trace_dir / f"{i}.json"
                if not path.exists():  # the job failed before the CLI could write it
                    continue
                with open(path, encoding="utf-8") as handle:
                    doc = json.load(handle)
                path.unlink()
                parts.append(doc["snapshot"])
                if n == 1:
                    spans.extend([i] + span[1:] for span in doc["spans"])
            snaps.append(_sum(parts))
    else:
        tracing.instrument(tr)
        wl.tracer = tr
        tr.active = True
        last = [tr.snapshot()]

        def on_pass(n):
            tr.active = False
            snap = tr.snapshot()
            snaps.append(_diff(snap, last[0]))
            last[0] = snap
            if n == 1:
                spans.extend(tr.spans())
                tr.record = False
            tr.active = True
    traced = run_passes(wl, seconds / 2, traced=True, on_pass=on_pass)
    tr.active = False
    per_pass = [layer_metrics(s) for s in snaps]
    for name, (value, unit) in per_pass[0].items():
        if unit in COUNT_UNITS:
            rows[name], samples[name] = (value, unit), 1
            if any(p[name][0] != value for p in per_pass):
                wl.failures.append(f"trace count {name} differs between passes")
        else:
            rows[name] = (median([p[name][0] for p in per_pass]), unit)
            samples[name] = len(per_pass)
    overhead = (median([p["wall_ns"] for p in traced]) - median([p["wall_ns"] for p in untraced])) / 1e9
    rows["trace.overhead_s"] = (overhead, "s")
    samples["trace.overhead_s"] = len(traced)
    wl.trace_dir.mkdir(parents=True, exist_ok=True)
    out = wl.trace_dir / f"{wl.name}-seed{wl.seed}.spans.tsv"
    with open(out, "w", encoding="utf-8") as handle:
        handle.write("job\tspan\tparent\tname\tstart_ns\tend_ns\n")
        for span in spans:
            handle.write("\t".join(str(v) for v in span) + "\n")
    return rows, samples, len(spans), out


# ---------------------------------------------------------------------------


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "cpu": cpu, "nproc": os.cpu_count(),
            "peak_rss_units": "ru_maxrss KiB, reported as MiB"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    km = import_library()
    with open(BENCH / "golden.json", encoding="utf-8") as handle:
        golden = json.load(handle)["digests"].get(args.workload, {}).get(str(args.seed))
    wl = Workload(km, args.workload, args.seed)
    if golden is not None and len(golden) != len(wl.jobs):
        raise SystemExit("error: golden.json does not match the job list")
    print(f"# environment {json.dumps(environment(), sort_keys=True)}")
    print(f"# workload {wl.name} seed {wl.seed}: {len(wl.jobs)} jobs per pass, "
          f"golden digests {'checked' if golden else 'absent, invariants only'}")
    wl.run_pass(warmup=True, golden=golden)
    if args.trace:
        rows, samples, nspans, out = traced_run(km, wl, args.seconds)
        print(f"# {nspans} spans of the first traced pass written to {out.relative_to(ROOT)}")
    else:
        setup = [setup_seconds(wl.name, wl.seed)]
        passes = run_passes(wl, args.seconds,
                            on_pass=lambda n: setup.append(setup_seconds(wl.name, wl.seed)))
        jobs_ms = [ns / 1e6 for p in passes for ns in p["job_ns"]]
        points = sum(p["points"] for p in passes)
        point_s = sum(p["point_ns"] for p in passes) / 1e9
        rss_kib = wl.child_rss_kib if wl.cli else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rows = {
            "setup_s": (median(setup), "s"),
            "wall_s": (median([p["wall_ns"] for p in passes]) / 1e9, "s"),
            "job_ms_p50": (median(jobs_ms), "ms"),
            "job_ms_p90": (statistics.quantiles(jobs_ms, n=10)[8], "ms"),
            "points_per_s": (points / point_s if point_s else 0.0, "1/s"),
            "peak_rss_mb": (rss_kib / 1024, "MiB"),
        }
        raw_ms = [ns / 1e6 for p in passes for ns in p["raw_job_ns"]]
        print(f"# unscaled: wall_s {median([p['raw_ns'] for p in passes]) / 1e9:.6f}, "
              f"job_ms_p50 {median(raw_ms):.6f}, job_ms_p90 "
              f"{statistics.quantiles(raw_ms, n=10)[8]:.6f}; calibration loop median "
              f"{median(wl.calibration_ns) / 1e6:.3f} ms, reference {CAL_REF_NS / 1e6:.3f} ms")
        njobs = len(jobs_ms)
        samples = {"setup_s": len(setup), "wall_s": len(passes), "job_ms_p50": njobs,
                   "job_ms_p90": njobs, "points_per_s": sum(p["point_jobs"] for p in passes),
                   "peak_rss_mb": wl.attempted if wl.cli else 1}
    failed = len(wl.failures)
    for line in wl.failures[:20]:
        print(f"# FAILED {line}")
    print(f"# fail_ratio {failed / wl.attempted:.6f} ({failed} of {wl.attempted} jobs)")
    for name, (value, unit) in rows.items():
        print(f"# {name:36s} {value:>16.6f} {unit:6s} n={samples[name]}")
    result = {
        "correct": failed == 0,
        "attempted": wl.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in rows.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
