"""Benchmark of the confan CLI: a user's wait for a checked answer.

Run from the root of a checkout (stdlib only, nothing to build):

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 40 --trace 0

Each workload (lattice, fans, certs; see workloads.py) is a fixed list of
jobs on inputs generated from --seed.  A pass runs the jobs one at a time as
fresh ``python -m confan.cli ...`` subprocesses (a closed loop with a single
client).  Every job's exit code and stdout are checked against independent
oracles; a wrong exit code, a failed check or a timeout (a job is killed
after JOB_TIMEOUT_S, and no job starts after RUN_DEADLINE_S) counts as a
failed job.

--trace 0 makes rounds, each one pass followed by SETUP_PER_ROUND runs of
``confan --help``, for as long as another round fits into --seconds (at
least MIN_ROUNDS), and reports the end-to-end metrics below.  Each job's
time is the median of its samples.

Times are scaled to a fixed host speed.  The shared host this runs on
speeds up and slows down by a third and more over tens of seconds, and a
job's time moves with it.  So a fixed piece of pure-Python work
(reference_work) is timed after every job, and every time a round measures
is multiplied by REFERENCE_S over the round's median reference time: the
times read as on a host that does the reference work in REFERENCE_S.  The
reference work is the benchmark's own, so a change to the program cannot
move it.  The unscaled figures are printed on the line before the result.
  pass_s         wall time of one pass: the sum of the jobs' times
  cpu_s          user+sys CPU time of the jobs (each child's own, from wait4)
  slowest_job_s  wall time of the slowest job
  job_p50_s      median job wall time
  peak_rss_mb    peak RSS of the largest job (each child's own, from wait4;
                 not scaled)
  setup_s        median wall time of ``python -m confan.cli --help``:
                 interpreter start, package import and parser build

--trace 1 makes one pass untraced (unscaled), then one in this process through
``confan.cli.main(argv)`` with the tracer of layertrace.py installed.  It
checks that every traced job prints exactly the untraced bytes and that its
layers' self times add up to its traced wall time, and reports the per-layer
metrics (layer self times, and the times and call counts of the functions in
PER_LAYER_TIMES and PER_LAYER_CALLS) and trace.overhead_ratio: the traced
pass time over the untraced pass time less one start-up (setup_s) per job.

--ladder runs every CLI command once on the fixed ladder inputs (square
chord, K4, U(3,6), W4, K5, W6) under LADDER_BUDGET_S seconds each and prints
the seconds or "timeout" of each; it is informational and not a workload.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; each metric's unit is the one BENCHMARK.json gives it.
The working files go to .perfbench-work/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import itertools
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

JOB_TIMEOUT_S = 60.0
LADDER_BUDGET_S = 60.0
RUN_DEADLINE_S = 150.0
MEMORY_LIMIT_MB = 2048
SETUP_REPEATS = 8
SETUP_PER_ROUND = 3
MIN_ROUNDS = 3
# The reference work's time that the scaled times assume: about its median
# on a shared 2-core x86-64 host with Python 3.11.7 (0.016-0.027 s there).
REFERENCE_S = 0.025
WORKDIR = ".perfbench-work"

PER_LAYER_TIMES = (
    "matroid.flats", "classes.motivic_class", "fans.refines", "fans.maximal_cones",
    "fans.fan_to_json", "fans.is_unimodular", "fans.maps_into_coordinate_fan",
    "config.psi_det", "config.psi_basis_expansion", "matroid.matroid_from_matrix",
    "charp.lead_term_certificate", "charp.fedder_witness", "charp.spair_reduction_check",
)
PER_LAYER_CALLS = (
    "matroid.rank_of", "matroid.closure", "matroid.contract", "arith.solve_exact",
    "fans.is_unimodular", "arith.det", "arith.matrix_rank", "charp.divide_remainder",
)


class Env:
    """Where the checkout is, and the launcher (spawner.py) that starts its
    CLI; use as a context manager, which stops the launcher."""

    def __init__(self, root):
        self.root = root
        self.src = os.path.join(root, "src")
        env = dict(os.environ)
        env.pop("CONFIG_RESOLVE_MAX_N", None)
        env["PYTHONPATH"] = self.src
        env["PYTHONIOENCODING"] = "utf-8"
        self.env = env
        self.cli = [sys.executable, "-m", "confan.cli"]
        self._launcher = None

    def __enter__(self):
        self._launcher = subprocess.Popen(
            [sys.executable, "-S", os.path.join(HERE, "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=self.root,
            env=self.env, text=True,
        )
        return self

    def __exit__(self, *exc):
        self._launcher.stdin.close()
        try:
            self._launcher.wait(timeout=JOB_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self._launcher.kill()
            self._launcher.wait()
        self._launcher.stdout.close()

    def launch(self, argv, timeout, stdout_path):
        request = {"argv": self.cli + argv, "timeout": timeout,
                   "stdout": stdout_path, "mem_mb": MEMORY_LIMIT_MB}
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = self._launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the job launcher exited")
        return json.loads(reply)


class Result:
    def __init__(self, job, status, rc=None, wall=0.0, cpu=0.0, rss_mb=0.0, stdout=""):
        self.job = job
        self.status = status  # "ok", "timeout" or "skipped"
        self.rc = rc
        self.wall = wall
        self.cpu = cpu
        self.rss_mb = rss_mb
        self.stdout = stdout
        self.error = None
        self.scale = 1.0


def run_child(env, argv, timeout, workdir):
    """Run one CLI process; return (status, rc, wall, cpu, rss_mb, stdout).

    CPU time and peak RSS are that child's own (see spawner.py), not a
    running maximum over children.
    """
    if timeout <= 0:
        return "skipped", None, 0.0, 0.0, 0.0, ""
    out_path = os.path.join(workdir, "stdout.txt")
    r = env.launch(argv, timeout, out_path)
    with open(out_path, "rb") as fh:
        stdout = fh.read().decode("utf-8", "replace")
    return r["status"], r["rc"], r["wall"], r["cpu"], r["rss_kb"] / 1024.0, stdout


def run_pass(env, jobs, deadline, workdir):
    results = []
    for job in jobs:
        timeout = min(JOB_TIMEOUT_S, deadline - time.perf_counter())
        status, rc, wall, cpu, rss, out = run_child(env, job.argv, timeout, workdir)
        results.append(Result(job, status, rc, wall, cpu, rss, out))
    return results


def check(results):
    """Mark each result's error; return the number of failed jobs."""
    failed = 0
    for res in results:
        if res.status != "ok":
            res.error = res.status
        elif res.rc != res.job.expect_rc:
            res.error = "exit %s, expected %d" % (res.rc, res.job.expect_rc)
        else:
            try:
                res.job.check(res.stdout)
            except oracles.CheckFailed as exc:
                res.error = "check failed: %s" % exc
            except Exception as exc:  # a malformed output must not stop the run
                res.error = "check raised %s: %s" % (type(exc).__name__, exc)
        failed += res.error is not None
    return failed


def measure_setup(env, repeats, workdir, times):
    for _ in range(repeats):
        status, rc, wall, _, _, out = run_child(env, ["--help"], JOB_TIMEOUT_S, workdir)
        if status != "ok" or rc != 0 or not out.startswith("usage: confan"):
            raise SystemExit("confan --help failed (%s, exit %s)" % (status, rc))
        times.append(wall)
    return times


def reference_work():
    """A fixed piece of pure-Python work (about REFERENCE_S seconds), timed
    between jobs: its time tracks how fast the host runs Python code at that
    moment."""
    acc = 0
    seen = set()
    for i in range(40000):
        t = (i * 2654435761) & 0xFFFF
        seen.add((t & 0xFF, t >> 8))
        acc += t * t % 7
    return acc + len(seen)


def median_of_samples(results, scaled=True):
    """End-to-end metrics from each job's median sample."""
    samples = {}
    for res in results:
        samples.setdefault(res.job.id, []).append(res)
    k = (lambda r: r.scale) if scaled else (lambda r: 1.0)
    wall = [statistics.median(r.wall * k(r) for r in s) for s in samples.values()]
    return {
        "pass_s": sum(wall),
        "cpu_s": sum(statistics.median(r.cpu * k(r) for r in s) for s in samples.values()),
        "slowest_job_s": max(wall),
        "job_p50_s": statistics.median(wall),
        "peak_rss_mb": max(statistics.median(r.rss_mb for r in s) for s in samples.values()),
    }


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


class JobTimeout(BaseException):
    """Raised into a traced job by SIGALRM; a BaseException so that no
    handler in the program under test can swallow it."""


def _alarm(signum, frame):
    raise JobTimeout()


def run_traced_pass(tracer, cli, jobs, deadline):
    """Run the jobs through cli.main in this process; return per-job
    (rc, stdout, wall, self_sum), with rc None for a job that timed out or
    was not started after the deadline."""
    out = []
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for i, job in enumerate(jobs):
            timeout = min(JOB_TIMEOUT_S, deadline - time.perf_counter())
            if timeout <= 0:
                out.append((None, "", 0.0, 0.0))
                continue
            tracer.job = i
            buf = io.StringIO()
            before = sum(tracer.self_s.values())
            start = time.perf_counter()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                signal.setitimer(signal.ITIMER_REAL, timeout)
                try:
                    rc = cli.main(job.argv)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
                except JobTimeout:
                    rc = None
                    tracer.abandon_job()
                except Exception:
                    traceback.print_exc()
                    rc = 1
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - start
            out.append((rc, buf.getvalue(), wall, sum(tracer.self_s.values()) - before))
    finally:
        signal.signal(signal.SIGALRM, previous)
        tracer.job = None
    return out


def layer_metrics(tracer, traced_wall, untraced_wall, setup, njobs):
    m = {"%s.self_s" % layer: tracer.self_s[layer] for layer in layertrace.LAYERS}
    for name in PER_LAYER_TIMES:
        m[name + ".s"] = tracer.total_s[name]
    for name in PER_LAYER_CALLS:
        m[name + ".calls"] = tracer.calls[name]
    m["matroid.flats.size"] = tracer.counts["matroid.flats.size"]
    solves = tracer.calls["arith.solve_exact"]
    m["arith.solve_exact.solved_ratio"] = (
        tracer.counts["arith.solve_exact.solved"] / solves if solves else 0.0
    )
    m["fans.build_s"] = tracer.counts["fans.build_s"]
    m["fans.faces"] = tracer.counts["fans.faces"]
    m["trace.overhead_ratio"] = traced_wall / max(untraced_wall - njobs * setup, 1e-9)
    return m


def metric_units(trace):
    """The name and unit of each metric a run reports, from BENCHMARK.json."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------------------
# ladder report
# ---------------------------------------------------------------------------


def run_ladder(env, workdir):
    inp = workloads.Inputs(workdir)
    # columns (1, j, j^2) for j = 1..6: every 3x3 minor is a nonzero
    # Vandermonde determinant, so this matrix realizes U(3,6)
    vander = [[j ** i for j in range(1, 7)] for i in range(3)]
    # (case, input, ground-set size, a prime for charp that divides no
    # denominator of the standard form)
    ladder = [
        ("square-chord", inp.graph("sq", workloads.square_chord()), 5, 2),
        ("K4", inp.graph("k4", workloads.complete_graph(4)), 6, 3),
        ("U(3,6)", inp.matrix("u36", vander, "Q", None), 6, 7),
        ("W4", inp.graph("w4", workloads.wheel(4)), 8, 3),
        ("K5", inp.graph("k5", workloads.complete_graph(5)), 10, 3),
        ("W6", inp.graph("w6", workloads.wheel(6)), 12, 3),
    ]
    report = []
    for (case, path, n, p), cmd in itertools.product(ladder, _ladder_commands()):
        argv = [cmd[0], path] + cmd[1:]
        if cmd[0] == "charp":
            argv += ["--p", str(p)] + (["--strict"] if n <= 6 else [])
        status, rc, wall, _, rss, _ = run_child(env, argv, LADDER_BUDGET_S, workdir)
        entry = {"case": case, "command": " ".join(argv[:1] + argv[2:]),
                 "seconds": round(wall, 3) if status == "ok" else "timeout",
                 "exit": rc, "peak_rss_mb": round(rss, 1)}
        report.append(entry)
        print(json.dumps(entry, ensure_ascii=False), flush=True)
    return report


def _ladder_commands():
    verify = ["--verify-unimodular", "--verify-maps", "--verify-refines"]
    return (
        [["matroid-info"], ["psi", "--check-det"], ["classes"], ["charp"]]
        + [["fan", "--which", w] + verify for w in workloads.FAN_KINDS]
        + [["resolve-report", "--flat", "1", "--subset", "E"]]
    )


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ladder", action="store_true", help="print the ladder report")
    args = ap.parse_args(argv)
    if not args.ladder and not args.workload:
        ap.error("--workload is required")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "confan", "cli.py")):
        print("no confan source at %s/src/confan; run from a checkout" % root, file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_DEADLINE_S
    tag = "ladder" if args.ladder else "%s-%d-%d" % (args.workload, args.seed, args.trace)
    workdir = os.path.join(root, WORKDIR, tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    with Env(root) as env:
        if args.ladder:
            report = run_ladder(env, workdir)
            print(json.dumps({"python": sys.version.split()[0], "cpus": os.cpu_count(),
                              "budget_s": LADDER_BUDGET_S, "ladder": report},
                             ensure_ascii=False))
            return 0
        return run_workload(env, args, deadline, workdir)


def run_workload(env, args, deadline, workdir):
    jobs, manifest = workloads.build(args.workload, args.seed, workdir)
    print("workload %s seed %d: %d jobs; inputs %s" % (
        args.workload, args.seed, len(jobs), json.dumps(manifest, sort_keys=True)))
    measure_setup(env, 1, workdir, [])  # warm the bytecode cache
    if args.trace:
        setups = measure_setup(env, SETUP_REPEATS, workdir, [])
        metrics, attempted, failed = traced(env, jobs, deadline, workdir, setups)
    else:
        metrics, attempted, failed = untraced(env, jobs, args, deadline, workdir)
    units = metric_units(args.trace)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def _report(results, label):
    for res in results:
        print("  %-28s %8.3fs %s" % (res.job.id, res.wall, res.error or "ok"), file=sys.stderr)
    bad = [res for res in results if res.error]
    print("%s: %d jobs, %d failed" % (label, len(results), len(bad)))
    for res in bad:
        print("  FAILED %s: %s" % (res.job.id, res.error))


def untraced(env, jobs, args, deadline, workdir):
    """Rounds of every job, one after another, while another round of the
    last one's length fits into --seconds (at least MIN_ROUNDS rounds).

    The reference work is timed after each job, and every time a round
    measures, `setup_s` included, is scaled by REFERENCE_S over the round's
    median reference time.
    """
    samples, setups, refs = [], [], []
    failed = 0
    start = time.perf_counter()
    last = 0.0
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start + last <= args.seconds:
        begun = time.perf_counter()
        results = []
        round_refs = []
        for job in jobs:
            results += run_pass(env, [job], deadline, workdir)
            ref_start = time.perf_counter()
            reference_work()
            round_refs.append(time.perf_counter() - ref_start)
        round_setups = measure_setup(env, SETUP_PER_ROUND, workdir, [])
        scale = REFERENCE_S / statistics.median(round_refs)
        for res in results:
            res.scale = scale
        setups += [wall * scale for wall in round_setups]
        refs += round_refs
        rounds += 1
        failed += check(results)
        samples += results
        _report(results, "round %d" % rounds)
        last = time.perf_counter() - begun
    metrics = median_of_samples(samples)
    metrics["setup_s"] = statistics.median(setups)
    unscaled = median_of_samples(samples, scaled=False)
    print("reference work: median %.6f s over %d samples; unscaled %s" % (
        statistics.median(refs), len(refs), json.dumps(unscaled)))
    return metrics, len(samples), failed


def traced(env, jobs, deadline, workdir, setups):
    """One untraced pass through the CLI, then one traced pass in process."""
    results = run_pass(env, jobs, deadline, workdir)
    check(results)
    sys.path.insert(0, env.src)
    tracer = layertrace.Tracer()
    modules = tracer.install()
    try:
        traced_out = run_traced_pass(tracer, modules["cli"], jobs, deadline)
    finally:
        tracer.uninstall()
    for res, (rc, out, wall, self_sum) in zip(results, traced_out):
        if res.error:
            continue
        if rc is None:
            res.error = "traced run timed out"
        elif rc != res.rc or out != res.stdout:
            res.error = "traced output differs from the untraced output"
        elif abs(self_sum - wall) > 0.02 * wall + 0.002:
            res.error = "layer self times %.4fs != traced wall %.4fs" % (self_sum, wall)
    _report(results, "traced pass")
    path = os.path.join(workdir, "trace.json")
    with open(path, "w") as fh:
        json.dump({"spans": tracer.spans, "spans_dropped": tracer.spans_dropped(),
                   "self_s": tracer.self_s, "calls": tracer.calls,
                   "total_s": tracer.total_s, "counts": tracer.counts}, fh)
    print("trace: %d spans written to %s" % (len(tracer.spans), path))
    metrics = layer_metrics(
        tracer, sum(t[2] for t in traced_out), sum(r.wall for r in results),
        statistics.median(setups), len(jobs))
    return metrics, len(results), sum(1 for res in results if res.error)


if __name__ == "__main__":
    sys.exit(main())
