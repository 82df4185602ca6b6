"""The package namespace loads its names on first use, and each CLI command
imports only the layers its own code path runs."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import confan

REPO = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"

# The public names of the package, by home module.
PUBLIC = {
    "arith": "Fp Matrix MultiPoly det kernel_basis matrix_rank",
    "charp": "fedder_witness lead_term_certificate linkage_generators "
    "row_reduce_to_standard spair_reduction_check",
    "classes": "BettiTable BiDegree a_invariant chow_bidegree cohomology_basis "
    "motivic_class resolution_betti",
    "config": "Configuration config_from_graph config_new lambda_system "
    "psi_basis_expansion psi_det q_w_matrix",
    "fans": "Fan LatticeVector bergman_fan cones_off_coordinate_fans delta_fan "
    "delta_tilde_fan divisor_incidence fan_from_json fan_to_json fibre_fan "
    "non_unimodular_cones refines square_biflats square_conormal_fan",
    "incidence": "Point XRankClass dual_config duality_map hadamard_square "
    "iota_differential_check jacobian_rank nonround_flats on_lambda "
    "sample_stratum_point sample_torus_point singular_witness x_rank_class",
    "matroid": "Matroid char_poly closure contract delete dual flats is_connected is_round "
    "matroid_from_bases matroid_from_graph matroid_from_matrix rank_of "
    "reduced_char_poly uniform_matroid",
}
HOME = {name: module for module, names in PUBLIC.items() for name in names.split()}

LAYERS = {"arith", "charp", "classes", "config", "fans", "incidence", "inputs", "matroid"}


def fresh(code, *argv):
    """Run code in a new interpreter on this checkout's src; its last stderr
    line is the sorted confan submodules it loaded."""
    probe = code + (
        "\nimport sys\n"
        "print(' '.join(sorted(m[7:] for m in sys.modules if m.startswith('confan.'))),"
        " file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        cwd=REPO,
    )
    assert proc.returncode == 0, proc.stderr
    return proc, set(proc.stderr.splitlines()[-1].split())


# cli.main on the process's arguments, required to succeed
RUN_MAIN = (
    "import sys\n"
    "from confan.cli import main\n"
    "try:\n"
    "    code = main(sys.argv[1:])\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    "assert code == 0, code\n"
)


def loaded_by(*argv, then=""):
    """The confan submodules a fresh process has loaded after cli.main(argv)
    succeeded; the code then runs after main, in the same process."""
    return fresh(RUN_MAIN + then, *argv)[1]


class TestNamespace:
    def test_all_lists_the_public_names(self):
        assert sorted(confan.__all__) == sorted(HOME)
        assert len(confan.__all__) == len(set(confan.__all__)) == 67

    @pytest.mark.parametrize("name", sorted(HOME))
    def test_name_is_its_home_modules_object(self, name):
        home = importlib.import_module("confan." + HOME[name])
        assert getattr(confan, name) is getattr(home, name)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            confan.no_such_name
        with pytest.raises(ImportError):
            exec("from confan import no_such_name", {})

    def test_submodules_resolve_as_attributes(self):
        _, loaded = fresh("import confan\nassert confan.fans.Fan is confan.Fan")
        assert "fans" in loaded

    def test_import_loads_no_layer(self):
        _, loaded = fresh("import confan\nassert 'Fan' in dir(confan)")
        assert not loaded & LAYERS

    def test_from_import_loads_only_the_home_layers(self):
        # tests/conftest.py imports these two
        _, loaded = fresh("from confan import matroid_from_bases")
        assert loaded == {"errors", "matroid"}
        _, loaded = fresh("from confan import config_new, matroid_from_bases")
        assert loaded == {"arith", "config", "errors", "matroid"}

    def test_config_new_loads_no_matroid(self):
        _, loaded = fresh("from confan import config_new")
        assert loaded == {"arith", "config", "errors"}


class TestCommandImports:
    def test_help_loads_no_layer(self):
        assert not loaded_by("--help") & LAYERS
        assert not loaded_by("fan", "--help") & LAYERS

    @pytest.mark.parametrize(
        "argv",
        [["--help"], ["classes", str(DATA / "square_chord.graph")]],
        ids=["help", "classes-graph"],
    )
    def test_text_output_on_graph_input_skips_json(self, argv):
        loaded_by(*argv, then="assert 'json' not in sys.modules\n")

    def test_json_output_loads_json(self):
        loaded_by(
            "classes", str(DATA / "square_chord.graph"), "--output", "json",
            then="assert 'json' in sys.modules\n",
        )

    @pytest.mark.parametrize("command", ["matroid-info", "classes"])
    @pytest.mark.parametrize("data", ["square_chord.graph", "u25.bases.json"])
    def test_matroid_commands_skip_arith_and_config(self, command, data):
        loaded = loaded_by(command, str(DATA / data))
        assert "matroid" in loaded
        assert not loaded & {"arith", "config", "fans", "charp"}
        assert ("classes" in loaded) == (command == "classes")

    @pytest.mark.parametrize("data", ["square_chord.graph", "square_chord.mat.json"])
    def test_psi_skips_fans_charp_classes(self, data):
        loaded = loaded_by("psi", str(DATA / data), "--check-det")
        assert "config" in loaded
        assert not loaded & {"fans", "charp", "classes", "incidence"}

    @pytest.mark.parametrize("data", ["square_chord.graph", "square_chord.mat.json"])
    def test_fan_skips_charp_classes_config(self, data):
        loaded = loaded_by(
            "fan", str(DATA / data), "--which", "delta-tilde", "--verify-refines"
        )
        assert "fans" in loaded
        assert not loaded & {"charp", "classes", "config"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["fan", "--which", "square-conormal", "--verify-unimodular", "--verify-maps"],
            ["fan", "--which", "delta", "--verify-refines"],
            ["resolve-report", "--flat", "1", "--subset", "E"],
        ],
        ids=["fan-square-conormal", "fan-delta-refines", "resolve-report"],
    )
    @pytest.mark.parametrize("data", ["square_chord.graph", "u25.bases.json"])
    def test_fan_commands_skip_arith_and_fractions(self, argv, data):
        command, *options = argv
        loaded = loaded_by(
            command, str(DATA / data), *options,
            then="assert 'fractions' not in sys.modules\n",
        )
        assert "fans" in loaded
        assert "arith" not in loaded

    @pytest.mark.parametrize(
        "argv",
        [["psi", "--check-det"], ["charp", "--p", "7"]],
        ids=["psi", "charp"],
    )
    @pytest.mark.parametrize("data", ["square_chord.mat.json", "f7_3x7.mat.json"])
    def test_matrix_certificates_skip_matroid(self, argv, data):
        command, *options = argv
        loaded = loaded_by(command, str(DATA / data), *options)
        assert {"arith", "config"} <= loaded
        assert not loaded & {"matroid", "incidence"}
