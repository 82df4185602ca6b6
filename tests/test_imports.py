"""Each public name has one home: the module that defines it, which is its
import path, while the package binds none of them, and `import confan`
loads no submodule.  The incidence variety, which no command runs, has its
home in tests/incidence.py, and no package module binds its names.  The
README's library example, the one place that shows those paths to users,
runs as written.  Each CLI command imports only the
layers its own code path runs."""

import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import confan

from . import incidence

REPO = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"


MODULES = [
    importlib.import_module("confan." + info.name)
    for info in pkgutil.iter_modules(confan.__path__)
]


def homes():
    """Public name -> the confan modules that define a function or class of
    that name, read from the modules themselves."""
    found = {}
    for module in MODULES:
        for name, value in vars(module).items():
            if (
                not name.startswith("_")
                and (inspect.isclass(value) or inspect.isfunction(value))
                and value.__module__ == module.__name__
            ):
                found.setdefault(name, []).append(module)
    return found


HOMES = homes()

LAYERS = {"arith", "charp", "classes", "config", "fans", "inputs", "matroid"}

# the public names of the incidence variety and of the solvers only it calls:
# no command runs them, so tests/incidence.py holds them, not the package
MOVED = {
    "NotOnLambda", "Point", "XRankClass", "ZeroCoordinate", "ZeroVector",
    "dual_config", "duality_map", "hadamard_square",
    "iota_differential_check", "jacobian_rank", "kernel_basis", "matrix_rank",
    "nonround_flats", "on_lambda", "sample_stratum_point", "sample_torus_point",
    "singular_witness", "solve_exact", "span_coordinates", "stratum_kernel",
    "x_rank_class",
}


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
    @pytest.mark.parametrize("name", sorted(HOMES))
    def test_name_is_its_home_modules_object(self, name):
        (home,) = HOMES[name]
        value = getattr(home, name)
        # a module that imports the name binds the home's object
        for other in MODULES:
            assert getattr(other, name, value) is value
        assert not hasattr(confan, name)

    @pytest.mark.parametrize("name", sorted(MOVED))
    def test_moved_name_has_its_home_in_tests_incidence(self, name):
        assert getattr(incidence, name).__module__ == incidence.__name__
        bound = [module.__name__ for module in MODULES if name in vars(module)]
        assert not bound, bound

    def test_import_loads_no_layer(self):
        _, loaded = fresh("import confan")
        assert not loaded

    def test_from_import_loads_only_the_home_layers(self):
        _, loaded = fresh("from confan.matroid import matroid_from_bases")
        assert loaded == {"errors", "matroid"}

    def test_config_new_loads_no_matroid(self):
        _, loaded = fresh("from confan.config import config_new")
        assert loaded == {"arith", "config", "errors"}


class TestReadme:
    def test_library_block_runs_as_written(self):
        text = (REPO / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"^## Library\n\n```python\n(.*?)^```$", text, re.M | re.S)
        ns = {}
        exec(block, ns)
        c, fan = ns["c"], ns["fan"]
        # the values its comments give
        assert len(ns["psi_det"](c).terms) == 8
        labels = [ns["subset_label"](f, c.n) for f in ns["roundness_witnesses"](c.matroid)]
        assert labels == ["124", "135"]
        assert (len(fan.rays), len(fan.maximal)) == (19, 56)
        assert ns["refines"](c.matroid, fan) is None


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

    def test_text_output_on_json_input_skips_the_writer(self):
        # json reads the input; the writer is for `--output json` alone
        loaded = loaded_by(
            "classes", str(DATA / "u25.bases.json"), then="assert 'json' in sys.modules\n"
        )
        assert "jsonwriter" not in loaded

    def test_json_output_loads_json(self):
        loaded = loaded_by(
            "classes", str(DATA / "square_chord.graph"), "--output", "json",
            then="assert 'json' in sys.modules\n",
        )
        assert "jsonwriter" in loaded

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
        assert not loaded & {"fans", "charp", "classes"}

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
        assert "matroid" not in loaded
