"""Seeded inputs and the CLI jobs of each workload.

``build(workload, seed, workdir)`` writes the workload's input files into
workdir and returns its jobs, each with the exit code it must end with and an
independent check of its stdout (see oracles.py).  The same seed gives the
same files byte for byte.  Draws outside a command's domain (a graph that is
not 2-connected, a rank drop, a zero column mod p, a denominator divisible by
p) are redrawn here, so no job is ever dropped after it has run.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable

import oracles as o

WORKLOADS = ("lattice", "fans", "certs")


@dataclass
class Job:
    id: str
    argv: list
    expect_rc: int
    check: Callable[[str], None]


# ---------------------------------------------------------------------------
# input families
# ---------------------------------------------------------------------------


def complete_graph(k):
    return list(combinations(range(1, k + 1), 2))


def wheel(k):
    """Hub 0 joined to a k-cycle: 2k edges."""
    return [(0, i) for i in range(1, k + 1)] + [(i, i % k + 1) for i in range(1, k + 1)]


def square_chord():
    """Four-cycle with one chord: 5 edges, rank 3."""
    return [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)]


def _components(nv, pairs):
    parent = list(range(nv))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in pairs:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(nv)})


def is_biconnected(nv, pairs):
    """Connected, and still connected after deleting any one vertex."""
    if _components(nv, pairs) != 1:
        return False
    for x in range(nv):
        rest = [(u - (u > x), v - (v > x)) for u, v in pairs if x not in (u, v)]
        if _components(nv - 1, rest) != 1:
            return False
    return True


def random_biconnected_graph(rng, nv, ne):
    """Uniform simple graph with nv vertices and ne edges, redrawn until it is
    2-connected (so its cycle matroid is connected and `classes` applies)."""
    pairs = list(combinations(range(nv), 2))
    while True:
        edges = rng.sample(pairs, ne)
        if is_biconnected(nv, edges):
            return [(u + 1, v + 1) for u, v in edges]


def relabel_graph(edges, rng):
    """Shuffle edge order, vertex names and edge orientation."""
    verts = sorted({v for e in edges for v in e})
    names = list(range(1, len(verts) + 1))
    rng.shuffle(names)
    name = dict(zip(verts, names))
    out = [
        (name[u], name[v]) if rng.random() < 0.5 else (name[v], name[u])
        for u, v in edges
    ]
    rng.shuffle(out)
    return out


def relabel_uniform_bases(r, n, rng):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    bases = [sorted(perm[i - 1] for i in c) for c in combinations(range(1, n + 1), r)]
    rng.shuffle(bases)
    return {"n": n, "bases": bases}


def random_configuration(rng, n, r, field, p):
    """An r x n matrix in the domain of `psi` and `charp --p p`.

    Over Q: nonzero integers in [-3, 3] plus exactly two entries a/2^k.
    Over F_p: nonzero entries, drawn from 1..p-1 (zero entries would make
    the number of bases, and so the work, vary widely with the seed).
    Redrawn until the matrix has full row rank over its field and its
    standard form [I | B] reduces mod p to a matrix with no zero column.
    """
    pf = None if field == "Q" else p
    while True:
        if field == "Q":
            rows = [[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)] for _ in range(r)]
            for _ in range(2):
                i, j = rng.randrange(r), rng.randrange(n)
                rows[i][j] = Fraction(rng.choice((-3, -1, 1, 3)), 2 ** rng.randint(1, 3))
        else:
            rows = [[rng.randrange(1, p) for _ in range(n)] for _ in range(r)]
        _, pivots = o.rref(rows, pf)
        if len(pivots) < r:
            continue
        perm = pivots + [j for j in range(n) if j not in pivots]
        std, _ = o.rref([[row[j] for j in perm] for row in rows], pf)
        std = [[Fraction(x) for x in row] for row in std]
        if any(x.denominator % p == 0 for row in std for x in row):
            continue
        if any(all(std[i][j].numerator % p == 0 for i in range(r)) for j in range(r, n)):
            continue
        return rows


# ---------------------------------------------------------------------------
# writing inputs
# ---------------------------------------------------------------------------


class Inputs:
    """Writes input files into workdir and records each one's digest."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.manifest = {}

    def _write(self, name, text):
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.manifest[name] = hashlib.sha256(text.encode()).hexdigest()[:16]
        return path

    def graph(self, name, edges):
        return self._write(name + ".graph", "".join("%s %s\n" % e for e in edges))

    def bases(self, name, data):
        return self._write(name + ".bases.json", json.dumps(data) + "\n")

    def matrix(self, name, rows, field, p):
        data = {"rows": [[str(x) for x in row] for row in rows]}
        if field != "Q":
            data.update(field="Fp", p=p)
        return self._write(name + ".json", json.dumps(data) + "\n")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


# The lattice workload's 11-edge graph: one fixed draw, relabelled by the
# workload seed like the named graphs.  Different 2-connected graphs of this
# size differ up to twofold in the work `classes` does, so drawing the graph
# itself from the seed would make the runs of one program differ that much.
GRAPH11 = random_biconnected_graph(random.Random("lattice-graph11"), 6, 11)


def _lattice(rng, inp):
    graphs = [
        ("k5", relabel_graph(complete_graph(5), rng)),
        ("w5", relabel_graph(wheel(5), rng)),
        ("g11", relabel_graph(GRAPH11, rng)),
    ]
    jobs = []
    for name, edges in graphs:
        path = inp.graph(name, edges)
        oracle = _lazy(lambda e=edges: o.MatroidOracle.of_graph(e))
        jobs += _matroid_jobs(name, path, oracle)
    path = inp.bases("u36", relabel_uniform_bases(3, 6, rng))
    jobs += _matroid_jobs("u36", path, _lazy(lambda: o.MatroidOracle.uniform(3, 6)))
    return jobs


def _matroid_jobs(name, path, oracle):
    return [
        Job(name + "/matroid-info", ["matroid-info", path], 0,
            lambda out: o.check_matroid_info(oracle(), out)),
        Job(name + "/classes", ["classes", path], 0,
            lambda out: o.check_classes(oracle(), out)),
    ]


def _lazy(make):
    """Compute an oracle on first use and keep it for later passes."""
    box = []

    def get():
        if not box:
            box.append(make())
        return box[0]

    return get


FAN_KINDS = ("delta-tilde", "delta", "bergman", "square-conormal")


def _fans(rng, inp):
    sq = relabel_graph(square_chord(), rng)
    k4 = relabel_graph(complete_graph(4), rng)
    cases = [
        ("sq", inp.graph("sq", sq), o.MatroidOracle.of_graph(sq), True),
        ("u25", inp.bases("u25", relabel_uniform_bases(2, 5, rng)),
         o.MatroidOracle.uniform(2, 5), True),
        # K4 with --verify-refines takes about half a minute; it is left to
        # the ladder report so that a run holds several rounds.
        ("k4", inp.graph("k4", k4), o.MatroidOracle.of_graph(k4), False),
    ]
    jobs = []
    for name, path, mo, with_refines in cases:
        for which in FAN_KINDS:
            fo = o.FanOracle(mo, which)
            if name == "sq" and which in ("square-conormal", "delta-tilde"):
                o.expect(len(fo.labels) == 19 and len(fo.maximal) == 56,
                         "square chord biflat fan must have 19 rays, 56 maximal cones")
            jobs.append(_fan_job(name, path, which, fo, with_refines and which == "delta-tilde"))
    tilde_k4 = o.FanOracle(cases[2][2], "delta-tilde")
    jobs.append(Job("k4/delta-tilde/json",
                    ["fan", cases[2][1], "--which", "delta-tilde", "--output", "json"], 0,
                    lambda out: o.check_fan_json(tilde_k4, out, "delta-tilde")))
    return jobs


def _fan_job(name, path, which, fo, refine):
    flags = ["--verify-maps", "--verify-unimodular"] + (["--verify-refines"] if refine else [])
    return Job(
        "%s/%s%s" % (name, which, "/refines" if refine else ""),
        ["fan", path, "--which", which] + flags,
        o.expected_fan_rc(fo),
        lambda out: o.check_fan_text(fo, out, which, refine),
    )


CERT_SHAPES = ((6, 3), (7, 3), (8, 4), (9, 4), (10, 5), (11, 5))


def _certs(rng, inp):
    jobs = []
    for n, r in CERT_SHAPES:
        for field in ("Q", "F7"):
            p = rng.choice((3, 5, 7, 11, 13)) if field == "Q" else 7
            pf = None if field == "Q" else 7
            rows = random_configuration(rng, n, r, field, p)
            point = [rng.randint(1, 9) for _ in range(n)]
            name = "c%dx%d%s" % (r, n, field)
            path = inp.matrix(name, rows, field, 7)
            strict = n <= 6
            jobs.append(Job(
                name + "/psi", ["psi", path, "--check-det"], 0,
                lambda out, rows=rows, pf=pf, pt=point: o.check_psi(
                    rows, pf, [[1] * len(pt), pt], out),
            ))
            jobs.append(Job(
                name + "/charp",
                ["charp", path, "--p", str(p)] + (["--strict"] if strict else []), 0,
                lambda out, rows=rows, pf=pf, p=p, s=strict: o.check_charp(
                    rows, pf, p, s, out),
            ))
    return jobs


def build(workload, seed, workdir):
    """Write the workload's inputs for this seed; return (jobs, manifest)."""
    rng = random.Random("%s:%d" % (workload, seed))
    inp = Inputs(workdir)
    make = {"lattice": _lattice, "fans": _fans, "certs": _certs}[workload]
    jobs = make(rng, inp)
    return jobs, inp.manifest
