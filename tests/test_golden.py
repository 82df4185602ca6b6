"""Golden CLI transcripts: the stdout and exit code of fixed fan, fibre,
classes, matroid-info and matrix commands must stay byte-identical.

The transcripts in tests/data/golden/ were recorded from a known-good tree;
`python -m tests.test_golden` (run from the repository root, with src on
PYTHONPATH) writes them again from the current tree.  Rewrite them only when
a change of output is intended, and say so in the change description.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from confan.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
EXITS = GOLDEN / "exits.json"


def _cases():
    inputs = {"sq": "square_chord.graph", "u25": "u25.bases.json"}
    kinds = ("bergman", "square-conormal", "delta", "delta-tilde")
    cases = {}
    for tag, name in inputs.items():
        for kind in kinds:
            for output in ("text", "json"):
                cases["fan-%s-%s-%s" % (kind, tag, output)] = [
                    "fan", name, "--which", kind, "--verify-maps",
                    "--verify-unimodular", "--output", output,
                ]
        # square-conormal reaches Δ̃ for --verify-refines through minus_shear
        for kind in ("delta-tilde", "square-conormal"):
            for output in ("text", "json"):
                cases["fan-%s-refines-%s-%s" % (kind, tag, output)] = [
                    "fan", name, "--which", kind, "--verify-maps",
                    "--verify-unimodular", "--verify-refines", "--output", output,
                ]
        for output in ("text", "json"):
            cases["matroid-info-%s-%s" % (tag, output)] = [
                "matroid-info", name, "--output", output,
            ]
    fibres = {"sq": ("square_chord.graph", "124"), "u25": ("u25.bases.json", "1")}
    for tag, (name, flat) in fibres.items():
        for output in ("text", "json"):
            cases["resolve-report-%s-%s" % (tag, output)] = [
                "resolve-report", name, "--flat", flat,
                "--subset", "2345", "--output", output,
            ]
    # the fibre over (E, E): every square biflat of the square chord
    for output in ("text", "json"):
        cases["resolve-report-sq-all-%s" % output] = [
            "resolve-report", "square_chord.graph", "--flat", "E",
            "--subset", "E", "--output", output,
        ]
    # the invariant classes: the square chord is not round (no cohomology
    # ranks), U(2,5) is
    for tag, name in inputs.items():
        for output in ("text", "json"):
            cases["classes-%s-%s" % (tag, output)] = ["classes", name, "--output", output]
    # matrix inputs: Q with integer entries, Q with a/2^k entries whose rows
    # clear to different scales, and F_7; each with the prime charp is run at
    matrices = {
        "sqmat": ("square_chord.mat.json", ["--p", "3", "--strict"]),
        "u34": ("u34_witness.mat.json", ["--p", "5", "--strict"]),
        "q48": ("q48_halves.mat.json", ["--p", "5"]),
        "f7": ("f7_3x7.mat.json", ["--p", "7"]),
    }
    for tag, (name, charp) in matrices.items():
        for output in ("text", "json"):
            tail = ["--output", output]
            cases["psi-%s-%s" % (tag, output)] = ["psi", name, "--check-det"] + tail
            cases["charp-%s-%s" % (tag, output)] = ["charp", name] + charp + tail
            cases["matroid-info-%s-%s" % (tag, output)] = ["matroid-info", name] + tail
    # 3 divides a denominator of the lex-first standard form, so charp takes
    # the lex-first basis whose minor is a unit mod 3
    cases["charp-q48-p3-text"] = ["charp", "q48_halves.mat.json", "--p", "3"]
    return cases


CASES = _cases()


def run(argv):
    """Exit code and stdout bytes of one in-process CLI run on tests/data."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(DATA / argv[1]) if i == 1 else a for i, a in enumerate(argv)])
    return code, out.getvalue().encode("utf-8")


@pytest.mark.parametrize("case", sorted(CASES))
def test_transcript_unchanged(case):
    code, out = run(CASES[case])
    assert out == (GOLDEN / (case + ".out")).read_bytes()
    assert code == json.loads(EXITS.read_text())[case]


def test_resolve_report_builds_no_cone(monkeypatch):
    # the report reads the fibre's biflats; every cone of a fan comes
    # from _chains
    def no_chains(*args, **kwargs):
        raise AssertionError("a cone was enumerated")

    monkeypatch.setattr("confan.fans._chains", no_chains)
    code, out = run(CASES["resolve-report-sq-text"])
    assert code == 0
    assert out == (GOLDEN / "resolve-report-sq-text.out").read_bytes()


def record():
    GOLDEN.mkdir(exist_ok=True)
    exits = {}
    for case, argv in sorted(CASES.items()):
        exits[case], out = run(argv)
        (GOLDEN / (case + ".out")).write_bytes(out)
    EXITS.write_text(json.dumps(exits, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
