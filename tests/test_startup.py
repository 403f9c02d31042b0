"""What a fresh process loads: `import kahlergrad` loads no submodule, and
the CLI loads only the library modules its command runs (the process pool
only under --jobs N > 1, and `traceback` only for a task that raised).
Each case runs in its own interpreter, since this one has loaded every
module already."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kahlergrad

SRC = Path(__file__).resolve().parents[1] / "src"
PROBE = ("import sys\n{}\n"
         "print(' '.join(sorted(k for k in sys.modules\n"
         "                      if k.startswith(('kahlergrad', 'concurrent', 'traceback')))))")
LIBRARY = {"bochner", "clifford", "envalg", "gtrep", "linalg", "report", "weights"}
MAIN = "import kahlergrad.cli as cli; cli.main({})"


def _loaded(code: str) -> set:
    out = subprocess.run([sys.executable, "-c", PROBE.format(code)], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    return set(out.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("code, absent", [
    ("import kahlergrad", {f"kahlergrad.{name}" for name in LIBRARY | {"cli"}}),
    ("import kahlergrad.cli as cli; cli.build_parser()",
     {"kahlergrad.clifford", "kahlergrad.bochner", "kahlergrad.envalg", "kahlergrad.gtrep",
      "kahlergrad.linalg", "concurrent.futures", "traceback"}),
    (MAIN.format(["verify", "--suite", "envalg", "--m", "2", "--q", "1"]),
     {"kahlergrad.linalg", "kahlergrad.gtrep", "kahlergrad.clifford", "kahlergrad.bochner"}),
    (MAIN.format(["verify", "--suite", "gtrep", "--m", "2", "--bound", "1", "--q", "1"]),
     {"kahlergrad.clifford", "kahlergrad.bochner", "kahlergrad.envalg", "concurrent.futures",
      "traceback"}),
    (MAIN.format(["verify", "--suite", "adjoint", "--m", "2", "--bound", "1", "--q", "1"]),
     {"kahlergrad.bochner", "kahlergrad.envalg", "concurrent.futures", "traceback"}),
    (MAIN.format(["verify", "--suite", "spinor", "--m", "2-3"]),
     {"kahlergrad.bochner", "kahlergrad.envalg", "concurrent.futures", "traceback"}),
], ids=["package", "parser", "envalg-suite", "gtrep-suite", "adjoint-suite", "spinor-suite"])
def test_a_process_loads_only_what_it_runs(code, absent):
    loaded = _loaded(code)
    assert "kahlergrad" in loaded
    assert loaded & absent == set()


def test_a_pooled_run_loads_its_suite_modules_before_the_workers_fork():
    loaded = _loaded(MAIN.format(["verify", "--suite", "gtrep", "--m", "2", "--bound", "1",
                                  "--q", "1", "--jobs", "2"]))
    assert {"concurrent.futures", "kahlergrad.gtrep", "kahlergrad.linalg"} <= loaded
    assert "kahlergrad.clifford" not in loaded
    # the cross relations load bochner on first use, in the parent here, so
    # no clifford worker compiles it again
    loaded = _loaded(MAIN.format(["verify", "--suite", "clifford", "--m", "2", "--bound", "0",
                                  "--q", "1", "--jobs", "2"]))
    assert {"concurrent.futures", "kahlergrad.clifford", "kahlergrad.bochner",
            "kahlergrad.envalg"} <= loaded


# the 37 names `kahlergrad` re-exports, by the submodule that defines them
EXPORTS = {
    "linalg": ["Matrix", "gram_adjoint", "lagrange_projector"],
    "weights": ["HighestWeight", "casimir_eigenvalue", "conformal_table", "dominant_weights",
                "is_dominant", "shift", "transpose_weight", "weyl_dimension"],
    "envalg": ["PBWElement", "casimir_element", "e_power", "k_central", "k_of_casimirs",
               "pbw_normalize", "tilde_e_power", "verify_binomial_relations"],
    "gtrep": ["Representation", "build_rep", "casimir_matrix", "gt_patterns"],
    "clifford": ["CliffordSystem", "build_system", "derived_representation",
                 "verify_adjoint_pairing", "verify_relations", "verify_spinor_model"],
    "bochner": ["BochnerIdentity", "EigenvalueBound", "bochner_identity",
                "constant_curvature_scalar", "cpm_holomorphic_eigenvalue",
                "dolbeault_identities", "kirchberg_bound", "weitzenboeck"],
}


def test_each_export_is_its_submodules_own_object():
    assert sum(map(len, EXPORTS.values())) == 37
    for module, names in EXPORTS.items():
        source = __import__(f"kahlergrad.{module}", fromlist=["_"])
        for name in names:
            assert getattr(kahlergrad, name) is getattr(source, name), name
    assert kahlergrad.__version__ == "0.1.0"


def test_an_unknown_name_is_an_error():
    with pytest.raises(AttributeError):
        kahlergrad.nope
    with pytest.raises(ImportError):
        from kahlergrad import nope  # noqa: F401
