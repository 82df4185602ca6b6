"""The benchmark's own tests.  Run from the root of a checkout:

    python3 -m unittest perfbench/test_perfbench.py

The byte-identity test runs every job of every workload twice, through the
CLI and traced in one process, and takes a few minutes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

WORK = os.path.join(ROOT, run.WORKDIR, "tests")


def fresh_dir(name):
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def files(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for wl in workloads.WORKLOADS:
            a, b, c = fresh_dir("gen-a"), fresh_dir("gen-b"), fresh_dir("gen-c")
            jobs_a, man_a = workloads.build(wl, 7, a)
            jobs_b, man_b = workloads.build(wl, 7, b)
            _, man_c = workloads.build(wl, 8, c)
            self.assertEqual(man_a, man_b)
            self.assertEqual(files(a), files(b))
            self.assertNotEqual(man_a, man_c)
            self.assertEqual(
                [(j.id, j.argv[0], j.expect_rc) for j in jobs_a],
                [(j.id, j.argv[0], j.expect_rc) for j in jobs_b],
            )

    def test_draws_stay_in_domain(self):
        import random

        rng = random.Random(0)
        for _ in range(20):
            rows = workloads.random_configuration(rng, 6, 3, "Q", 3)
            _, pivots = oracles.rref(rows)
            self.assertEqual(len(pivots), 3)
            edges = workloads.random_biconnected_graph(rng, 6, 11)
            pairs = [(u - 1, v - 1) for u, v in edges]
            self.assertTrue(workloads.is_biconnected(6, pairs))


def cli(argv):
    env = run.Env(ROOT)
    proc = subprocess.run(env.cli + argv, cwd=ROOT, env=env.env, capture_output=True)
    return proc.returncode, proc.stdout.decode("utf-8")


class CheckerTest(unittest.TestCase):
    """Each checker accepts the real output and rejects a tampered copy."""

    @classmethod
    def setUpClass(cls):
        cls.jobs = {}
        for wl in workloads.WORKLOADS:
            jobs, _ = workloads.build(wl, 3, fresh_dir("check-" + wl))
            cls.jobs.update({j.id: j for j in jobs})

    def assert_rejects(self, job_id, old, new):
        job = self.jobs[job_id]
        rc, out = cli(job.argv)
        self.assertEqual(rc, job.expect_rc)
        job.check(out)
        self.assertIn(old, out)
        with self.assertRaises(oracles.CheckFailed):
            job.check(out.replace(old, new, 1))

    def test_bases_count(self):
        self.assert_rejects("k5/matroid-info", "bases: 125", "bases: 124")

    def test_char_poly(self):
        self.assert_rejects("u36/matroid-info", "chi = t^3-6t^2+15t-10", "chi = t^3-6t^2+14t-9")

    def test_motivic_class(self):
        self.assert_rejects("u36/classes", "[Λ] = L^4+2L^3+3L^2+2L+1", "[Λ] = L^4+2L^3+3L^2+2L+2")

    def test_fan_counts_and_verdicts(self):
        self.assert_rejects("sq/square-conormal", "rays: 19", "rays: 18")
        self.assert_rejects("sq/square-conormal", "maximal cones: 56", "maximal cones: 55")
        self.assert_rejects("sq/delta", "-π2: FAIL", "-π2: pass")
        self.assert_rejects("sq/delta-tilde/refines", "refines: pass", "refines: FAIL")

    def test_fan_json(self):
        self.assert_rejects("k4/delta-tilde/json", '"which": "delta-tilde"', '"which": "delta"')

    def test_psi(self):
        job = self.jobs["c3x6Q/psi"]
        _, out = cli(job.argv)
        line = next(x for x in out.splitlines() if x.startswith("psi = "))
        first = line[len("psi = "):].split("+")[0]
        self.assert_rejects("c3x6Q/psi", first, "2*" + first)

    def test_charp(self):
        self.assert_rejects("c3x6F7/charp", "-> pass", "-> fail")

    def test_wrong_exit_code_fails_the_job(self):
        job = self.jobs["sq/delta"]
        res = run.Result(job, "ok", rc=0, stdout=cli(job.argv)[1])
        self.assertEqual(run.check([res]), 1)
        timed_out = run.Result(self.jobs["sq/bergman"], "timeout")
        self.assertEqual(run.check([timed_out]), 1)


class SamplesTest(unittest.TestCase):
    def test_jobs_take_their_median_scaled_sample(self):
        a, b = workloads.Job("a", ["a"], 0, None), workloads.Job("b", ["b"], 0, None)
        results = []
        for scale, walls in ((1.0, (3.0, 1.0)), (0.5, (4.0, 1.0)), (2.0, (1.0, 1.0))):
            for job, wall in zip((a, b), walls):
                res = run.Result(job, "ok", wall=wall, cpu=wall / 2, rss_mb=10.0 + wall)
                res.scale = scale
                results.append(res)
        m = run.median_of_samples(results)
        # a: 3.0, 2.0, 2.0 -> 2.0; b: 1.0, 0.5, 2.0 -> 1.0
        self.assertEqual((m["pass_s"], m["cpu_s"]), (3.0, 1.5))
        self.assertEqual((m["slowest_job_s"], m["job_p50_s"], m["peak_rss_mb"]), (2.0, 1.5, 13.0))
        self.assertEqual(run.median_of_samples(results, scaled=False)["pass_s"], 4.0)


class LauncherTest(unittest.TestCase):
    def test_peak_rss_is_the_childs_own(self):
        ballast = bytearray(200 << 20)
        ballast[::4096] = b"\1" * len(ballast[::4096])
        work = fresh_dir("launch")
        with run.Env(ROOT) as env:
            status, rc, _, _, rss_mb, out = run.run_child(env, ["--help"], 60, work)
        self.assertEqual((status, rc), ("ok", 0))
        self.assertTrue(out.startswith("usage: confan"))
        self.assertLess(rss_mb, 100)
        del ballast

    def test_timeout_is_recorded(self):
        work = fresh_dir("launch")
        jobs, _ = workloads.build("lattice", 1, work)
        g11 = next(j for j in jobs if j.id == "g11/classes")
        with run.Env(ROOT) as env:
            results = run.run_pass(env, [g11], deadline=run.time.perf_counter() + 0.5,
                                   workdir=work)
        self.assertEqual(results[0].status, "timeout")
        self.assertEqual(run.check(results), 1)


class TraceTest(unittest.TestCase):
    def test_traced_output_is_byte_identical(self):
        env = run.Env(ROOT)
        sys.path.insert(0, env.src)
        tracer = layertrace.Tracer()
        modules = tracer.install()
        try:
            for wl in workloads.WORKLOADS:
                work = fresh_dir("trace-" + wl)
                jobs, _ = workloads.build(wl, 5, work)
                untraced = [cli(j.argv) for j in jobs]
                traced = run.run_traced_pass(
                    tracer, modules["cli"], jobs, run.time.perf_counter() + 600)
                for job, (rc, out), (trc, tout, wall, self_sum) in zip(jobs, untraced, traced):
                    with self.subTest(job=job.id):
                        self.assertEqual((trc, tout), (rc, out))
                        self.assertLess(abs(self_sum - wall), 0.02 * wall + 0.002)
        finally:
            tracer.uninstall()
        self.assertTrue(tracer.spans)
        self.assertGreater(tracer.calls["matroid.rank_of"], 0)
        self.assertGreater(tracer.calls["fans.delta_fan"], 0)  # reached through a cli dict

    def test_traced_job_times_out(self):
        sys.path.insert(0, run.Env(ROOT).src)
        jobs, _ = workloads.build("lattice", 1, fresh_dir("trace-timeout"))
        g11 = [j for j in jobs if j.id == "g11/classes"]
        tracer = layertrace.Tracer()
        modules = tracer.install()
        try:
            traced = run.run_traced_pass(
                tracer, modules["cli"], g11, run.time.perf_counter() + 0.5)
        finally:
            tracer.uninstall()
        self.assertIsNone(traced[0][0])
        self.assertFalse(tracer._stack)

    def test_uninstall_restores_bindings(self):
        sys.path.insert(0, run.Env(ROOT).src)
        tracer = layertrace.Tracer()
        modules = tracer.install()
        wrapped = modules["matroid"].rank_of
        self.assertIs(modules["classes"].rank_of, wrapped)
        tracer.uninstall()
        self.assertIsNot(modules["matroid"].rank_of, wrapped)
        self.assertIs(modules["classes"].rank_of, modules["matroid"].rank_of)


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_the_program(self):
        bare = fresh_dir("bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "certs", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
