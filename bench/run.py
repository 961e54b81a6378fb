"""pontsys benchmark: seeded closed-loop workloads with certified answers.

Run from the repository root:

    python3 bench/run.py --workload scalar_factor --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

One client in one process sends one job at a time.  Each job is timed on
its own; its answer is checked against an independent reference outside
the timed region.  The loop runs a fixed number of whole cycles of the
workload's strata, sized so that the run lasts about ``--seconds`` on the
reference host: a seed then gives the same jobs, and the same failures,
however fast the host is, and every run measures the same mix.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a traced pass over the first cycle.  The line before it
records the environment, the failure and wrong-answer shares and the
percentile behind ``job_tail_ms``.  ``--workload all`` runs every
workload in a fresh process and prints one table.
"""

import os

# the BLAS thread count is fixed before numpy loads
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("scalar_factor", "matrix_kernel", "state_space", "cli")
SETUP_REPEATS = 7
MIN_CYCLES = 2
# a run stops after the cycle that passes this, so that it ends in time on
# a host much slower than the reference host
MAX_MEASURE_S = 120.0
# Other load on a shared host slows every job for stretches of a fraction
# of a second, by up to 2x.  The 10th percentile of a stratum's job times
# in one run is the stratum's cost outside those stretches; over seeds it
# spread a fifth or less as much as the median over all jobs did.
QUIET_PERCENTILE = 10
# Load on the host also slows every job by up to 1.5x for minutes at a
# time, longer than a run.  A fixed probe, timed after every cycle, slows
# with it.  The quiet timings are scaled by PROBE_REF_S, the probe's quiet
# time on the reference host (2 vCPUs of an Intel Xeon, one BLAS thread),
# over its quiet time in the run: they read as times on that host.
PROBE_REPEATS = 3
PROBE_REF_S = 0.0107


def load_program():
    """Import pontsys from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import pontsys
    except ImportError as exc:
        raise SystemExit(f"cannot import pontsys from {src}: {exc}")
    if not Path(pontsys.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"pontsys was loaded from {pontsys.__file__}, not {src}")
    return pontsys


def environment():
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": int(BLAS_THREADS),
            "nproc": os.cpu_count(), "cpu": cpu}


def set_up(name, seed):
    """Import, input generation (and file writes) and one warm-up job."""
    load_program()
    import workloads
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    wl = workloads.WORKLOADS[name](seed, workdir)
    job = wl.warmup()
    answer = job.run()
    bad = job.check(answer)
    if job.cleanup:
        job.cleanup()
    if bad:
        raise SystemExit(f"warm-up job failed its reference check: {bad}")
    return wl


def setup_seconds(name, seed):
    """Median wall time of fresh processes that only set up."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                        "--workload", name, "--seed", str(seed)],
                       check=True, timeout=170, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Tally:
    """Outcome counts and job times of the jobs run so far."""

    def __init__(self, cycle_len):
        self.cycle_len = cycle_len
        self.times = []
        self.by_slot = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.untyped = 0
        self.by_kind = {}
        self.examples = []

    def run(self, index, job):
        from pontsys.exceptions import PontsysError
        from workloads import Abstained
        answer = error = None
        t0 = time.perf_counter()
        try:
            answer = job.run()
        except PontsysError as exc:
            error = exc
        except Exception as exc:  # an untyped error still ends the job
            error = exc
            self.untyped += 1
        elapsed = time.perf_counter() - t0
        if error is None:
            try:
                bad = job.check(answer)
            except Abstained as exc:
                bad = [str(exc)]
            else:
                self.wrong += bool(bad)
        else:
            bad = [f"{type(error).__name__}: {error}"]
        if job.cleanup:
            job.cleanup()
        self.times.append(elapsed)
        self.by_slot.setdefault(index % self.cycle_len, []).append(elapsed)
        self.attempted += 1
        kind = self.by_kind.setdefault(job.kind, {"jobs": 0, "failed": 0, "seconds": 0.0})
        kind["jobs"] += 1
        kind["seconds"] += elapsed
        if bad:
            self.failed += 1
            kind["failed"] += 1
            if len(self.examples) < 5:
                self.examples.append({"job": index, "kind": job.kind, "why": bad[:3]})
        return elapsed


def cycle_count(wl, seconds):
    """Whole cycles in a run: at least two, so the cli byte-identity check
    sees every command twice."""
    return max(MIN_CYCLES, round(seconds * wl.cycles_per_second))


def measure(wl, seconds):
    """The run's cycles, each followed by PROBE_REPEATS timed host probes."""
    tally = Tally(len(wl.cycle))
    systems = probe_inputs()
    probes = []
    start = time.perf_counter()
    index = 0
    for _ in range(cycle_count(wl, seconds)):
        if time.perf_counter() - start > MAX_MEASURE_S:
            print(f"stopped after {index // len(wl.cycle)} cycles at {MAX_MEASURE_S:g} s",
                  file=sys.stderr)
            break
        for _ in wl.cycle:
            tally.run(index, wl.make(index))
            index += 1
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            host_probe(systems)
            probes.append(time.perf_counter() - t0)
    return tally, index // len(wl.cycle), probes


def quiet_seconds(tally):
    """Each stratum's QUIET_PERCENTILE job time."""
    return np.array([np.percentile(t, QUIET_PERCENTILE) for t in tally.by_slot.values()])


def probe_inputs():
    """Fixed inputs of the host probe: contractive state matrices of four
    sizes, with two inputs and two outputs."""
    rng = np.random.default_rng(0)
    systems = []
    for n in (6, 12, 24, 40):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        systems.append((A / (1.1 * np.linalg.norm(A, 2)), rng.standard_normal((n, 2)),
                        rng.standard_normal((2, n))))
    return systems


def host_probe(systems):
    """Small dense linear algebra and per-point Python work, the mix that
    pontsys runs, without calling pontsys: a change to the program cannot
    change the probe's time."""
    acc = 0.0
    for A, B, C in systems:
        eye = np.eye(A.shape[0])
        for k in range(24):
            M = eye - 0.9 * np.exp(2j * np.pi * k / 24) * A
            acc += np.linalg.svd(M, compute_uv=False)[-1]
            acc += np.abs(C @ np.linalg.solve(M, B)).sum()
        acc += np.linalg.eigvalsh(A @ A.conj().T)[0] + np.abs(np.linalg.eigvals(A)).max()
    return acc


def tail_percentile(count):
    """The highest of p99.9, p99, p95, p90 and p75 with ten jobs beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0):
        if count * (100.0 - q) / 100.0 >= 10:
            return q
    return 75.0


def traced(wl, seconds):
    """Alternate untraced and traced passes over the first cycle.  A pair of
    passes costs about three cycles of a plain run."""
    import tracer
    tally = Tally(len(wl.cycle))
    plain, passes = [], []
    start = time.perf_counter()
    for _ in range(max(1, cycle_count(wl, seconds) // 3)):
        if passes and time.perf_counter() - start > MAX_MEASURE_S:
            print(f"stopped after {len(passes)} passes at {MAX_MEASURE_S:g} s", file=sys.stderr)
            break
        jobs = [wl.make(i) for i in range(len(wl.cycle))]
        plain.append(sum(tally.run(i, job) for i, job in enumerate(jobs)))
        jobs = [wl.make(i) for i in range(len(wl.cycle))]
        tr = tracer.Tracer()
        wall = 0.0
        written = wl.bytes_written
        tr.install()
        try:
            for i, job in enumerate(jobs):
                tr.job = i
                wall += tally.run(i, job)
        finally:
            tr.uninstall()
        summary = tracer.summarize(tr.spans, wall)
        summary["cli.bytes_written"] = (wl.bytes_written - written, "count")
        passes.append(summary)
    tr.write(OUT / f"trace-{wl.name}.jsonl")
    metrics = {k: (statistics.median(p[k][0] for p in passes), unit)
               for k, (_, unit) in passes[0].items()}
    walls = [p["trace.wall_s"][0] for p in passes]
    metrics["trace.overhead_share"] = (
        (statistics.median(walls) - statistics.median(plain)) / statistics.median(plain), "ratio")
    return tally, metrics, len(passes)


def run_workload(args):
    name = args.workload
    load_program()
    setup_s = None if args.trace else setup_seconds(name, args.seed)
    wl = set_up(name, args.seed)
    try:
        result = measure_workload(wl, args, setup_s)
    finally:
        shutil.rmtree(wl.workdir, ignore_errors=True)
    print(json.dumps(result))


def measure_workload(wl, args, setup_s):
    name = args.workload
    if args.inject_wrong:
        inject_wrong()
    info = {"workload": name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": environment()}
    if args.trace:
        tally, metrics, passes = traced(wl, args.seconds)
        info["traced_passes"] = passes
    else:
        t0 = time.perf_counter()
        tally, cycles, probes = measure(wl, args.seconds)
        info["wall_s"] = time.perf_counter() - t0
        info["cycles"] = cycles
        q = tail_percentile(tally.attempted)
        info["job_p50_ms"] = statistics.median(tally.times) * 1e3
        info["job_tail_percentile"] = q
        info["job_tail_ms"] = float(np.percentile(tally.times, q)) * 1e3
        info["jobs_per_s"] = tally.attempted / sum(tally.times)
        quiet = quiet_seconds(tally)
        info["quiet_job_ms"] = float(np.median(quiet)) * 1e3
        info["quiet_slowest_job_ms"] = float(quiet.max()) * 1e3
        info["quiet_jobs_per_s"] = len(quiet) / float(quiet.sum())
        info["probe_s"] = float(np.percentile(probes, QUIET_PERCENTILE))
        quiet *= PROBE_REF_S / info["probe_s"]
        metrics = {
            "quiet_job_ms": (float(np.median(quiet)) * 1e3, "ms"),
            "quiet_slowest_job_ms": (float(quiet.max()) * 1e3, "ms"),
            "quiet_jobs_per_s": (len(quiet) / float(quiet.sum()), "1/s"),
            "answered_share": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    info.update({
        "attempted": tally.attempted, "failed": tally.failed, "wrong": tally.wrong,
        "untyped_errors": tally.untyped,
        "fail_share": tally.failed / tally.attempted,
        "wrong_share": tally.wrong / tally.attempted,
        "by_kind": tally.by_kind, "failure_examples": tally.examples,
    })
    print(json.dumps({"info": info}))
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def inject_wrong():
    """Make every negative-squares estimate one too high, without raising:
    a silent wrong answer the reference check must catch."""
    import dataclasses
    import tracer
    from pontsys import schur

    def make(fn, name, layer):
        def wrong(*args, **kwargs):
            est = fn(*args, **kwargs)
            return dataclasses.replace(est, estimate=(est.estimate or 0) + 1)
        return wrong

    tracer.replace_everywhere({schur.negative_squares_estimate: ("", "")}, make)


def run_all(args):
    """Each workload in a fresh process; one table of every metric."""
    rows = []
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{name} (trace {trace}) exited with {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            rows.append((name, trace, json.loads(lines[-2])["info"], json.loads(lines[-1])))
    for name, trace, info, result in rows:
        print(f"\n{name}  trace={trace}  correct={result['correct']}  "
              f"attempted={result['attempted']}  failed={result['failed']}")
        print(f"  {'fail_share':<52} {info['fail_share']:.4f} ratio")
        print(f"  {'wrong_share':<52} {info['wrong_share']:.4f} ratio")
        if not trace:
            print(f"  {'job_p50_ms':<52} {info['job_p50_ms']:.6g} ms")
            print(f"  {'job_tail_ms (p' + format(info['job_tail_percentile'], 'g') + ')':<52} "
                  f"{info['job_tail_ms']:.6g} ms")
            print(f"  {'jobs_per_s':<52} {info['jobs_per_s']:.6g} 1/s")
        for key, m in result["metrics"].items():
            print(f"  {key:<52} {m['value']:.6g} {m['unit']}")
    print("\nenvironment:", json.dumps(rows[0][2]["env"]))
    return 0 if all(r[3]["correct"] for r in rows) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--inject-wrong", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        shutil.rmtree(set_up(args.workload, args.seed).workdir, ignore_errors=True)
        return 0
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
