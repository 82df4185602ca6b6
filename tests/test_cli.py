import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import confan.arith
import confan.charp
import confan.config
import confan.fans
import confan.inputs
from confan.cli import build_parser, main
from confan.errors import Mismatch
from confan.fans import Fan, LatticeVector, delta_tilde_fan, fan_from_json
from confan.matroid import Matroid

from .oracles import naive_det, standard_basis_mod_p


W4_GRAPH = "h 1\nh 2\nh 3\nh 4\n1 2\n2 3\n3 4\n4 1\n"
K4_GRAPH = "".join("%d %d\n" % e for e in combinations(range(1, 5), 2))
K5_GRAPH = "".join("%d %d\n" % e for e in combinations(range(1, 6), 2))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class RecordingStdout:
    """A stdout that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


class TestBatchedOutput:
    @pytest.mark.parametrize(
        "graph, argv",
        [
            (K4_GRAPH, ["fan", "--which", "delta-tilde", "--output", "json"]),
            # 91,000 lines of text, many batches of them
            (K5_GRAPH, ["resolve-report", "--flat", "1", "--subset", "E"]),
        ],
        ids=["k4-delta-tilde-json", "k5-report-text"],
    )
    def test_output_is_written_in_batches(self, tmp_path, monkeypatch, graph, argv):
        path = tmp_path / "in.graph"
        path.write_text(graph)
        argv = [argv[0], str(path), *argv[1:]]
        args = build_parser().parse_args(argv)
        lines, payload, failures = args.fn(args, 12)
        assert failures == []
        if args.output == "json":
            payload = {"command": args.command, "seed": 0, **payload}
            whole = json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
        else:
            whole = "\n".join(["seed: 0", *lines]) + "\n"
        stdout = RecordingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == 0
        assert "".join(stdout.writes) == whole
        # no write holds the document, nor even half of it
        assert max(map(len, stdout.writes)) <= len(whole) // 2


class TestMatroidInfo:
    def test_graph_input(self, capsys, data_dir):
        code, out, _ = run_cli(capsys, "matroid-info", str(data_dir / "square_chord.graph"))
        assert code == 0
        assert "seed: 0" in out
        assert "rank: 3" in out
        assert "bases: 8" in out
        assert "round: false" in out
        assert "non-round flats: 124, 135" in out
        assert "chi = t^3-5t^2+8t-4" in out.replace("*", "")

    def test_bases_input(self, capsys, data_dir):
        code, out, _ = run_cli(capsys, "matroid-info", str(data_dir / "u25.bases.json"))
        assert code == 0
        assert "rank: 2" in out
        assert "round: true" in out

    def test_disconnected_graph_exits_1(self, capsys, data_dir):
        # matroid-info builds the matroid, psi the configuration matrix
        for command in ("matroid-info", "psi"):
            code, _, err = run_cli(capsys, command, str(data_dir / "disconnected.graph"))
            assert code == 1
            assert err == "error: graph is not connected\n"

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "matroid-info", "/no/such/file.graph")
        assert code == 2
        assert "parse error" in err

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code, _, err = run_cli(capsys, "matroid-info", str(bad))
        assert code == 2

    def test_ground_cap_env(self, capsys, data_dir, monkeypatch):
        monkeypatch.setenv("CONFIG_RESOLVE_MAX_N", "3")
        code, _, err = run_cli(
            capsys, "matroid-info", str(data_dir / "square_chord.mat.json")
        )
        assert code == 2
        assert "CONFIG_RESOLVE_MAX_N" in err

    @pytest.mark.parametrize("cap", ["1_0", " 7 ", "0", "-3"])
    def test_ground_cap_is_a_positive_decimal_integer(self, capsys, data_dir, monkeypatch, cap):
        # int() reads the first two as 10 and 7; the last two refused every input
        monkeypatch.setenv("CONFIG_RESOLVE_MAX_N", cap)
        code, out, err = run_cli(capsys, "matroid-info", str(data_dir / "square_chord.graph"))
        assert (code, out) == (2, "")
        assert err == (
            "parse error: CONFIG_RESOLVE_MAX_N must be a positive integer, got %r\n" % cap
        )

    @pytest.mark.parametrize(
        "graph, cap, message",
        [
            (
                ("1 2" + " 3" * 50_000)[:100_000],
                "12",
                "line 1: expected 'u v', got '1 2 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 '...",
            ),
            (
                "1 2",
                "x" * 5_001,
                "CONFIG_RESOLVE_MAX_N must be a positive integer, got %r..." % ("x" * 40),
            ),
        ],
        ids=["graph-line", "cap"],
    )
    def test_long_bad_input_is_quoted_short(self, tmp_path, tree_env, graph, cap, message):
        path = tmp_path / "long.graph"
        path.write_text(graph)
        proc = subprocess.run(
            [sys.executable, "-m", "confan.cli", "matroid-info", str(path)],
            capture_output=True,
            text=True,
            env={**tree_env, "CONFIG_RESOLVE_MAX_N": cap},
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "parse error: %s\n" % message
        assert len(proc.stderr.encode()) < 200

    @pytest.mark.parametrize("n", [10, 11, 12])
    def test_non_matroid_bases_exit_2(self, capsys, tmp_path, n):
        path = tmp_path / "pairs.bases.json"
        path.write_text(json.dumps({"n": n, "bases": [[1, 2], [3, 4]]}))
        code, out, err = run_cli(capsys, "matroid-info", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("parse error: not a matroid:")

    def test_repeated_basis_element_exits_2(self, capsys, tmp_path):
        path = tmp_path / "repeats.bases.json"
        path.write_text(json.dumps({"n": 3, "bases": [[1, 1], [2, 2]]}))
        code, out, err = run_cli(capsys, "matroid-info", str(path))
        assert code == 2
        assert out == ""
        assert err == "parse error: basis repeats an element\n"

    @pytest.mark.parametrize(
        "bases", [[[1]], [[1, 2], [3, 4]]], ids=["matroid", "non-matroid"]
    )
    def test_bases_above_cap_exit_2_before_any_rank_table(
        self, capsys, tmp_path, monkeypatch, bases
    ):
        def no_table(self):
            raise AssertionError("rank table built for an input above the cap")

        monkeypatch.delenv("CONFIG_RESOLVE_MAX_N", raising=False)
        monkeypatch.setattr(Matroid, "rank_table", no_table)
        path = tmp_path / "wide.bases.json"
        path.write_text(json.dumps({"n": 40, "bases": bases}))
        code, out, err = run_cli(capsys, "matroid-info", str(path))
        assert code == 2
        assert out == ""
        assert err == (
            "parse error: ground set size 40 exceeds the cap 12 (CONFIG_RESOLVE_MAX_N)\n"
        )

    def test_huge_n_exits_2_before_any_mask(self, capsys, tmp_path, monkeypatch):
        # the ground-set mask alone would take n bits, 12.5 GB here
        monkeypatch.delenv("CONFIG_RESOLVE_MAX_N", raising=False)
        path = tmp_path / "huge.bases.json"
        path.write_text(json.dumps({"n": 10**11, "bases": [[1]]}))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "matroid-info", str(path))
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err == (
            "parse error: ground set size 100000000000 exceeds the cap 12"
            " (CONFIG_RESOLVE_MAX_N)\n"
        )

    @pytest.mark.parametrize("command", ["matroid-info", "psi"])
    def test_matrix_above_cap_exits_2_before_any_scalar(
        self, capsys, tmp_path, monkeypatch, command
    ):
        # matroid-info reads the matrix by load_matroid, psi by load_configuration
        def no_scalar(*args):
            raise AssertionError("scalar parsed for an input above the cap")

        monkeypatch.delenv("CONFIG_RESOLVE_MAX_N", raising=False)
        monkeypatch.setattr(confan.inputs, "parse_scalar", no_scalar)
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"rows": [["1"] * 13] * 3}))
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert err == (
            "parse error: ground set size 13 exceeds the cap 12 (CONFIG_RESOLVE_MAX_N)\n"
        )

    def test_seed_echo(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys, "matroid-info", str(data_dir / "triangle.graph"), "--seed", "7"
        )
        assert code == 0
        assert out.startswith("seed: 7")

    def test_non_integer_bases_exit_2(self, capsys, tmp_path):
        path = tmp_path / "u24.bases.json"
        path.write_text('{"n": 4.9, "bases": [[1.5, 2], [1, 3.2], [2, 3]]}')
        code, out, err = run_cli(capsys, "matroid-info", str(path))
        assert (code, out) == (2, "")
        assert "4.9 is not an integer" in err


class TestPsi:
    def test_check_det(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys, "psi", str(data_dir / "square_chord.mat.json"), "--check-det"
        )
        assert code == 0
        assert "det check: pass" in out
        assert out.count("+") == 7  # eight monomials

    def test_format_override(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys, "psi", str(data_dir / "square_chord.mat.json"), "--format", "matrix"
        )
        assert code == 0

    def test_det_mismatch_exits_3(self, capsys, data_dir, monkeypatch):
        def disagree(c):
            raise Mismatch("determinant route disagrees with the basis expansion")

        monkeypatch.setattr(confan.config, "psi_det", disagree)
        code, out, err = run_cli(
            capsys, "psi", str(data_dir / "square_chord.mat.json"), "--check-det"
        )
        assert code == 3
        assert out == ""
        assert err == (
            "verification failure: determinant route disagrees with the basis expansion\n"
        )

    def test_bases_input_rejected(self, capsys, data_dir):
        # psi needs a realization; bases alone cannot provide one
        code, _, err = run_cli(capsys, "psi", str(data_dir / "u25.bases.json"))
        assert code == 2
        assert "realization" in err

    def test_exponent_notation_exits_2(self, capsys, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"rows": [["1e5000", "0", "1"], ["0", "1", "1"]]}))
        code, out, err = run_cli(capsys, "psi", str(path))
        assert (code, out, err) == (2, "", "parse error: bad scalar '1e5000'\n")

    @pytest.mark.parametrize("entry", ["12345678901234567891.5", "0.1"])
    def test_json_non_integer_entry_exits_2(self, capsys, tmp_path, entry):
        # read as a float, the first entry would lose its last digits
        path = tmp_path / "float.json"
        path.write_text('{"rows": [[%s, 0, 1], [0, 1, 1]]}' % entry)
        code, out, err = run_cli(capsys, "psi", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("parse error: entry ")
        assert err.endswith('write it as a string, as "0.1" or "1/10"\n')

    def test_decimal_string_entry(self, capsys, tmp_path):
        path = tmp_path / "decimal.json"
        path.write_text('{"rows": [["0.1", 0, 1], [0, 1, 1]]}')
        code, out, _ = run_cli(capsys, "psi", str(path))
        assert (code, out) == (0, "seed: 0\npsi = 1/100*x1*x2+1/100*x1*x3+x2*x3\n")

    @pytest.mark.parametrize(
        "name,text",
        [
            ("entry.json", '{"rows": [["%s", "0", "1"], ["0", "1", "1"]]}'),
            ("integer.json", '{"rows": [[%s, 0, 1], [0, 1, 1]]}'),
            ("p.json", '{"rows": [["1", "0", "1"], ["0", "1", "1"]], "field": "Fp", "p": %s}'),
            ("n.bases.json", '{"n": %s, "bases": [[1]]}'),
        ],
    )
    def test_long_literal_exits_2_at_once(self, capsys, tmp_path, name, text):
        # converting 300,000 digits would take seconds: int <-> str is quadratic
        path = tmp_path / name
        path.write_text(text % ("7" * 300_000))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "matroid-info", str(path))
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err == "parse error: literal %r... is longer than 4300 characters\n" % (
            "7" * 40
        )

    def test_huge_p_is_not_echoed(self, capsys, data_dir):
        code, out, err = run_cli(
            capsys, "charp", str(data_dir / "square_chord.graph"), "--p", "7" * 130_000
        )
        assert (code, out) == (2, "")
        assert err == (
            "parse error: p is too large: primality is decided below"
            " 3317044064679887385961981\n"
        )

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_coefficients_past_the_int_string_limit(self, tmp_path, tree_env, output):
        # a 2,200-digit entry squares to 4,399 digits, past CPython's default
        # limit of 4,300 for int <-> str; a fresh process starts at that limit
        a = "1" + "0" * 2199
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"rows": [[a, "0", "1"], ["0", "1", "1"]]}))
        proc = subprocess.run(
            [sys.executable, "-m", "confan.cli", "psi", str(path), "--output", output],
            capture_output=True,
            text=True,
            env=tree_env,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        square = "1" + "0" * 4398
        psi = "%s*x1*x2+%s*x1*x3+x2*x3" % (square, square)
        if output == "json":
            assert json.loads(proc.stdout)["psi"] == psi
        else:
            assert proc.stdout == "seed: 0\npsi = %s\n" % psi


class TestFan:
    def test_square_conormal_with_verifications(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys,
            "fan",
            str(data_dir / "square_chord.graph"),
            "--which", "square-conormal",
            "--verify-unimodular",
            "--verify-maps",
            "--verify-refines",
        )
        assert code == 0
        assert "rays: 19" in out
        assert "maximal cones: 56" in out
        assert "dimension: 3" in out
        assert "unimodular: pass" in out
        assert "π1: pass" in out and "-π2: pass" in out
        assert "refines: pass" in out

    def test_delta_fails_maps_exits_3(self, capsys, data_dir):
        code, out, err = run_cli(
            capsys,
            "fan",
            str(data_dir / "square_chord.graph"),
            "--which", "delta",
            "--verify-maps",
        )
        assert code == 3
        assert "-π2: FAIL on 14 maximal cones" in out

    def test_non_unimodular_fan_exits_3(self, capsys, data_dir, monkeypatch):
        # cone spanned by (1,0,0) and (1,2,0) has index 2 in its span
        rays = (LatticeVector((1, 0, 0), (0, 0, 0)),
                LatticeVector((1, 2, 0), (0, 0, 0)))
        index_two = Fan(3, rays, ("a", "b"), [frozenset([0, 1])])
        monkeypatch.setattr(confan.fans, "delta_fan", lambda m: index_two)
        argv = ["fan", str(data_dir / "square_chord.graph"), "--which", "delta",
                "--verify-unimodular"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 3
        assert "unimodular: FAIL on 1 maximal cones: {a, b}" in out.splitlines()
        assert "unimodular: pass" not in out
        code, out, _ = run_cli(capsys, *argv, "--output", "json")
        assert code == 3
        data = json.loads(out)
        assert data["verify"]["unimodular"] == "fail"
        assert data["failures"] == ["unimodular: FAIL on 1 maximal cones: {a, b}"]

    def test_pi1_failure_names_its_cone(self, capsys, data_dir, monkeypatch):
        # the first blocks are least only at coordinates 1 and 2: no
        # coordinate is least on both, while the zero second blocks pass
        rays = (LatticeVector((1, 0, 1), (0, 0, 0)),
                LatticeVector((1, 1, 0), (0, 0, 0)))
        split = Fan(3, rays, ("a", "b"), [frozenset([0, 1])])
        monkeypatch.setattr(confan.fans, "delta_fan", lambda m: split)
        argv = ["fan", str(data_dir / "square_chord.graph"), "--which", "delta",
                "--verify-maps"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 3
        assert out.splitlines()[-2:] == ["-π2: pass", "π1: FAIL on 1 maximal cones: {a, b}"]
        code, out, _ = run_cli(capsys, *argv, "--output", "json")
        assert code == 3
        data = json.loads(out)
        assert data["verify"] == {"pi1": "fail", "minus_pi2": "pass"}
        assert data["failures"] == ["π1: FAIL on 1 maximal cones: {a, b}"]

    def test_refines_failure_prints_its_witness(self, capsys, data_dir, monkeypatch):
        # the fine fan less its first maximal cone: a facet inside that
        # cone's flag pair now bounds one cone instead of two
        def dropped(m):
            fine = delta_tilde_fan(m)
            return Fan(fine.n, fine.rays, fine.labels, fine.maximal[1:])

        monkeypatch.setattr(confan.fans, "delta_tilde_fan", dropped)
        witness = "facet {124⊆E, 1⊆1} in home 1⊂124 | 1: count 1, not 2"
        argv = ["fan", str(data_dir / "square_chord.graph"), "--which", "bergman",
                "--verify-refines"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 3
        assert out.splitlines()[-1] == "refines: FAIL: " + witness
        code, out, _ = run_cli(capsys, *argv, "--output", "json")
        assert code == 3
        data = json.loads(out)
        assert data["verify"] == {"refines": "fail", "refines_witness": witness}
        assert data["failures"] == ["refines: FAIL: " + witness]

    def test_dimension_of_non_pure_fan(self, capsys, data_dir, monkeypatch):
        # the largest cone has four coplanar rays (rank 2); the dimension
        # comes from the smaller cone of three independent rays
        e = lambda *x: LatticeVector(x, (0, 0, 0))
        f = lambda *x: LatticeVector((0, 0, 0), x)
        rays = (e(1, 0, 0), e(0, 1, 0), e(1, 1, 0), e(2, 1, 0),
                f(1, 0, 0), f(0, 1, 0), e(0, 0, 1))
        mixed = Fan(3, rays, "abcdefg", [frozenset(range(4)), frozenset({4, 5, 6})])
        assert [mixed.cone_dim(c) for c in mixed.maximal_cones()] == [2, 3]
        monkeypatch.setattr(confan.fans, "delta_fan", lambda m: mixed)
        code, out, _ = run_cli(
            capsys, "fan", str(data_dir / "square_chord.graph"), "--which", "delta"
        )
        assert code == 0
        assert "dimension: 3" in out.splitlines()

    def test_json_output_round_trips(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys,
            "fan",
            str(data_dir / "square_chord.graph"),
            "--which", "delta-tilde",
            "--output", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["command"] == "fan"
        assert data["which"] == "delta-tilde"
        fan = fan_from_json(data)
        from confan.matroid import matroid_from_graph

        edges = [("a", "c"), ("a", "b"), ("c", "d"), ("b", "c"), ("d", "a")]
        assert fan == delta_tilde_fan(matroid_from_graph(edges))

    def test_bergman(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys, "fan", str(data_dir / "square_chord.graph"),
            "--which", "bergman",
        )
        assert code == 0
        assert "rays: 11" in out
        assert "maximal cones: 14" in out


class TestResolveReport:
    def test_square_chord_singleton_flat(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys,
            "resolve-report",
            str(data_dir / "square_chord.graph"),
            "--flat", "1",
            "--subset", "2345",
        )
        assert code == 0
        assert "fibre rays (4)" in out
        assert "∅⊆24 | ∅⊆35: disjoint" in out
        assert "1⊆E | 1⊆1: incident" in out

    def test_seven_ray_flat(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys,
            "resolve-report",
            str(data_dir / "square_chord.graph"),
            "--flat", "124",
            "--subset", "2345",
        )
        assert code == 0
        assert "fibre rays (7)" in out

    def test_non_flat_exits_1(self, capsys, data_dir):
        code, _, err = run_cli(
            capsys,
            "resolve-report",
            str(data_dir / "square_chord.graph"),
            "--flat", "12",
            "--subset", "345",
        )
        assert code == 1

    def test_two_digit_element_of_k5(self, capsys, tmp_path):
        # n = 10: the label "10" is element 10, as subset_label prints it
        path = tmp_path / "k5.graph"
        path.write_text(K5_GRAPH)
        code, out, _ = run_cli(
            capsys, "resolve-report", str(path), "--flat", "10", "--subset", "E",
        )
        assert code == 0
        assert "fibre rays (426): 10⊆E, " in out

    @pytest.mark.parametrize("flat", ["1.+2.4", "1,,2", "0", ""])
    def test_label_subset_label_never_prints_exits_2(self, capsys, data_dir, flat):
        code, out, _ = run_cli(
            capsys,
            "resolve-report",
            str(data_dir / "square_chord.graph"),
            "--flat", flat,
            "--subset", "E",
        )
        assert (code, out) == (2, "")

    def test_underscore_in_k5_label_exits_2(self, capsys, tmp_path):
        path = tmp_path / "k5.graph"
        path.write_text(K5_GRAPH)
        code, out, _ = run_cli(
            capsys, "resolve-report", str(path), "--flat", "1_0", "--subset", "E",
        )
        assert (code, out) == (2, "")

    def test_bad_label_exits_2(self, capsys, data_dir):
        code, _, err = run_cli(
            capsys,
            "resolve-report",
            str(data_dir / "square_chord.graph"),
            "--flat", "9",
            "--subset", "12",
        )
        assert code == 2


class TestClasses:
    def test_round_bases_input(self, capsys, data_dir):
        code, out, _ = run_cli(capsys, "classes", str(data_dir / "u25.bases.json"))
        assert code == 0
        assert "[Λ] = L^3+2L^2+2L+1" in out
        assert "bidegree = H^5+2H^4H*+H^3H*^2" in out
        assert "a-inv = -4" in out
        assert "type = 2" in out
        assert "cohomology ranks: 1,2,2,1" in out

    def test_square_chord_nonround(self, capsys, data_dir):
        code, out, _ = run_cli(capsys, "classes", str(data_dir / "square_chord.graph"))
        assert code == 0
        assert "[Λ] = L^3+4L^2+2L+1" in out
        assert "cohomology: n/a" in out

    def test_json_payload(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys, "classes", str(data_dir / "u25.bases.json"),
            "--output", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["cohomology_ranks"] == [1, 2, 2, 1]
        assert data["a_invariant"] == -4
        assert data["type"] == 2
        assert data["truncation_boundary"] is False


class TestCharp:
    def test_matrix_commands_build_no_rank_table(self, capsys, data_dir, monkeypatch):
        def refuse(self):
            raise AssertionError("rank table built")

        monkeypatch.setattr(Matroid, "rank_table", refuse)
        matrix = str(data_dir / "square_chord.mat.json")
        assert run_cli(capsys, "psi", matrix, "--check-det")[0] == 0
        assert run_cli(capsys, "charp", matrix, "--p", "3", "--strict")[0] == 0

    def test_one_minor_table_per_run(self, capsys, data_dir, monkeypatch):
        # charp reads the input's echelon form, never its minor table, when
        # the lex-first standard form is p-integral, as it is here
        calls = []
        real = confan.arith.maximal_minors

        def counted(a):
            calls.append(a)
            return real(a)

        for module in (confan.arith, confan.config):
            monkeypatch.setattr(module, "maximal_minors", counted)
        matrix = str(data_dir / "square_chord.mat.json")
        assert run_cli(capsys, "charp", matrix, "--p", "3", "--strict")[0] == 0
        assert len(calls) == 0
        assert run_cli(capsys, "psi", matrix, "--check-det")[0] == 0
        assert len(calls) == 1

    def test_one_elimination_of_the_input_per_run(self, capsys, data_dir, monkeypatch):
        # config_new's rank check, first_basis, the standard form and
        # psi_det's factor A = A_P R all read the one echelon form of the
        # input; charp reduces only the entries of B mod p, by no elimination
        calls = []
        real = confan.config._rref

        def counted(m):
            calls.append(m)
            return real(m)

        def mod_p(m):
            return any(isinstance(x, confan.arith.Fp) for row in m.rows for x in row)

        monkeypatch.setattr(confan.config, "_rref", counted)
        for argv, inputs, reductions in [
            (["charp", "square_chord.mat.json", "--p", "3", "--strict"], 1, 0),
            (["psi", "square_chord.mat.json", "--check-det"], 2, 0),
            (["charp", "square_chord.graph", "--p", "5"], 3, 0),
        ]:
            argv[1] = str(data_dir / argv[1])
            assert run_cli(capsys, *argv)[0] == 0
            assert sum(not mod_p(m) for m in calls) == inputs
            assert sum(map(mod_p, calls)) == reductions

    def test_certificates_do_no_polynomial_work(self, capsys, data_dir, monkeypatch):
        # without --strict the leads and the witness are derived from the
        # standard form, never read off the bilinear forms
        def refuse(c):
            raise AssertionError("lambda_system called")

        for module in (confan.config, confan.charp):
            monkeypatch.setattr(module, "lambda_system", refuse)
        for name in ("square_chord.mat.json", "q48_halves.mat.json", "f7_3x7.mat.json"):
            p = "7" if name.startswith("f7") else "3"
            assert run_cli(capsys, "charp", str(data_dir / name), "--p", p)[0] == 0
        matrix = str(data_dir / "square_chord.mat.json")
        with pytest.raises(AssertionError, match="lambda_system called"):
            run_cli(capsys, "charp", matrix, "--p", "3", "--strict")

    def test_standard_form_with_a_zero_column_mod_p_exits_1(self, capsys, tmp_path):
        # the refusal names the input column, whatever the permutation
        path = tmp_path / "loop.json"
        for rows, p, err in [
            ([["1", "0", "7", "1"], ["0", "1", "0", "1"]], "7",
             "error: column 3 vanishes mod 7 (a loop)\n"),
            ([["1", "2", "0"], ["0", "0", "1"]], "2",
             "error: column 2 vanishes mod 2 (a loop)\n"),
        ]:
            path.write_text(json.dumps({"rows": rows}))
            assert run_cli(capsys, "charp", str(path), "--p", p) == (1, "", err)
        # the second input, at p = 3: its standard form puts column 3 second
        assert run_cli(capsys, "charp", str(path), "--p", "3")[1].splitlines()[1] == (
            "permutation: 1 3 2"
        )

    def test_prime_dividing_the_lex_first_minor_is_certified(self, capsys, data_dir, tmp_path):
        # the lex-first standard forms have denominators divisible by 3;
        # bases {1, 3, 5, 6} (minor -4) and {1, 3} (minor -1) are units mod 3
        path = tmp_path / "m2x4.json"
        path.write_text(json.dumps({"rows": [["1", "1", "1", "0"], ["1", "-2", "0", "1"]]}))
        for input_, perm in [
            (data_dir / "q48_halves.mat.json", "1 3 5 6 2 4 7 8"),
            (path, "1 3 2 4"),
        ]:
            code, out, _ = run_cli(capsys, "charp", str(input_), "--p", "3", "--strict")
            assert code == 0
            assert out.splitlines()[1] == "permutation: %s" % perm
            assert out.splitlines()[-1] == "s-pair reduction: pass"

    def test_every_prime_up_to_50(self, capsys, tmp_path):
        # seeded configurations over Q, integer and rational, loopless and of
        # full rank: charp --p P exits 0 on the oracle's basis, or exits 1
        # exactly when the oracle has a column vanish mod P, naming the least
        rng = random.Random(32)
        primes = [p for p in range(2, 51) if all(p % d for d in range(2, p))]
        entries = ["0", "0", "1", "-1", "2", "3", "-4", "5", "6", "7", "-10", "14",
                   "1/2", "-2/3", "3/5", "7/4", "11/6", "13"]
        path = tmp_path / "c.json"
        outcomes = Counter()
        drawn = 0
        while drawn < 40:
            n = rng.randint(2, 6)
            r = rng.randint(1, n - 1)
            rows = [[rng.choice(entries) for _ in range(n)] for _ in range(r)]
            if not all(any(Fraction(row[j]) for row in rows) for j in range(n)):
                continue
            lex_first = next((
                cols for cols in combinations(range(n), r)
                if naive_det([[Fraction(rows[i][j]) for j in cols] for i in range(r)])
            ), None)
            if lex_first is None:
                continue
            drawn += 1
            path.write_text(json.dumps({"rows": rows}))
            for p in primes:
                basis, loops = standard_basis_mod_p(rows, p)
                code, out, err = run_cli(capsys, "charp", str(path), "--p", str(p))
                if loops:
                    assert (code, out) == (1, "")
                    assert err == "error: column %d vanishes mod %d (a loop)\n" % (
                        loops[0] + 1, p
                    )
                    outcomes["loop"] += 1
                    continue
                assert code == 0, err
                perm = list(basis) + [j for j in range(n) if j not in basis]
                assert out.splitlines()[1:] == [
                    "permutation: %s" % " ".join(str(j + 1) for j in perm),
                    "initial ideal: pass (leads %s)"
                    % ", ".join("x%d*u%d" % (i, i) for i in range(1, r + 1)),
                    "fedder witness (p=%d): %s -> pass" % (p, "*".join(
                        "%s%d%s" % (v, i, "" if p == 2 else "^%d" % (p - 1))
                        for v in "xu" for i in range(1, r + 1)
                    )),
                ]
                outcomes["lex-first" if basis == lex_first else "other basis"] += 1
        # every branch is reached
        assert len(outcomes) == 3, outcomes

    def test_square_chord_p2_strict(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys, "charp", str(data_dir / "square_chord.mat.json"),
            "--p", "2", "--strict",
        )
        assert code == 0
        assert "permutation: 1 2 3 4 5" in out
        assert "initial ideal: pass (leads x1*u1, x2*u2, x3*u3)" in out
        assert "fedder witness (p=2): x1*x2*x3*u1*u2*u3 -> pass" in out
        assert "s-pair reduction: pass" in out

    def test_composite_p_exits_2(self, capsys, data_dir):
        code, _, err = run_cli(
            capsys, "charp", str(data_dir / "square_chord.mat.json"), "--p", "4"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "p,code",
        [(2 ** 61 - 1, 0), (1000000007 * 998244353, 2), (3317044064679887385961981, 2)],
        ids=["mersenne-61", "semiprime", "bound"],
    )
    def test_large_p_is_decided_at_once(self, capsys, data_dir, tmp_path, p, code):
        fp = tmp_path / "fp.json"
        fp.write_text(json.dumps({"rows": [["1", "0", "1"], ["0", "1", "1"]],
                                  "field": "Fp", "p": p}))
        for path in (data_dir / "square_chord.graph", fp):
            start = time.perf_counter()
            got, _, err = run_cli(capsys, "charp", str(path), "--p", str(p))
            assert time.perf_counter() - start < 1
            assert got == code
            # a p past the exact range is refused with the bound named
            assert ("decided below 3317044064679887385961981" in err) == (
                p >= 3317044064679887385961981
            )

    def test_json_certificates_parse_back(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys, "charp", str(data_dir / "square_chord.mat.json"),
            "--p", "5", "--output", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["initial"]["verdict"] == "pass"
        assert data["fpurity"]["witness"] == "x1^4*x2^4*x3^4*u1^4*u2^4*u3^4"

    def test_graph_input_works(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys, "charp", str(data_dir / "square_chord.graph"), "--p", "3"
        )
        assert code == 0


REPO = Path(__file__).resolve().parent.parent

# The launcher pip (via distlib) writes for a console-script entry point.
LAUNCHER = """#!{python}
# -*- coding: utf-8 -*-
import re
import sys
from {module} import {import_name}
if __name__ == '__main__':
    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])
    sys.exit({func}())
"""


def declared_script(name):
    """The ``module:func`` target of ``name`` in ``[project.scripts]``."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


@pytest.fixture
def tree_env():
    """The environment with this checkout's ``src`` as the only PYTHONPATH."""
    return {**os.environ, "PYTHONPATH": str(REPO / "src")}


class TestEntryPoint:
    def test_installed_script(self, data_dir, tmp_path, tree_env):
        module, func = declared_script("confan").split(":")
        script = tmp_path / "confan"
        script.write_text(LAUNCHER.format(
            python=sys.executable, module=module,
            import_name=func.split(".")[0], func=func,
        ))
        script.chmod(0o755)
        path = os.pathsep.join([str(tmp_path), tree_env.get("PATH", "")])

        def confan(*argv):
            return subprocess.run(
                ["confan", *argv],
                capture_output=True,
                text=True,
                env={**tree_env, "PATH": path},
                cwd=tmp_path,
            )

        proc = confan("matroid-info", str(data_dir / "square_chord.graph"))
        assert proc.returncode == 0, proc.stderr
        assert "rank: 3" in proc.stdout

        # The exit status is what sys.exit(main()) adds over an in-process call.
        proc = confan("matroid-info", str(tmp_path / "missing.graph"))
        assert proc.returncode == 2
        assert "parse error:" in proc.stderr

    def test_module_invocation(self, data_dir, tmp_path, tree_env):
        proc = subprocess.run(
            [sys.executable, "-m", "confan.cli", "psi",
             str(data_dir / "square_chord.mat.json"), "--check-det"],
            capture_output=True,
            text=True,
            env=tree_env,
            cwd=tmp_path,
        )
        assert proc.returncode == 0
        assert "det check: pass" in proc.stdout

    @pytest.mark.parametrize(
        "output, graph, first",
        [
            ("json", W4_GRAPH, b"{\n"),
            # W4's text report (about 51 KB) fits in the pipe; K5's is 3.7 MB
            ("text", K5_GRAPH, b"seed: 0\n"),
        ],
        ids=["json", "text"],
    )
    def test_closed_stdout_exits_141_quietly(self, tmp_path, tree_env, output, graph, first):
        # the fibre report (W4's JSON is about 128 KB) outgrows the pipe, so
        # closing it after the first line always fails a later write
        path = tmp_path / "in.graph"
        path.write_text(graph)
        proc = subprocess.Popen(
            [sys.executable, "-m", "confan.cli", "resolve-report", str(path),
             "--flat", "1", "--subset", "E", "--output", output],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=tree_env,
            cwd=tmp_path,
        )
        assert proc.stdout.readline() == first
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert stderr == b""
