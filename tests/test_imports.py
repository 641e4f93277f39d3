"""Import hygiene: each subcommand loads only the layers it uses.

Every test runs a fresh interpreter, so the modules this test session has
already imported do not hide what a cold ``fockindex`` process loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fockindex

SRC = str(Path(fockindex.__file__).resolve().parents[1])

X0 = '{"signature": 1, "euler": 2, "stein": true}'
X1 = '{"signature": 1, "euler": -2, "h02": 1}'
TOPO_ARGS = ["topo", "--x0", X0, "--x1", X1]

_REPORT_LOADED = """
import json, sys
print(json.dumps(sorted(sys.modules)))
"""


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env,
        check=True,
    )


def _modules_after(code):
    """Modules, by dotted name, loaded once ``code`` has run in a fresh process."""
    out = _python("-c", code + _REPORT_LOADED).stdout
    return set(json.loads(out.splitlines()[-1]))


def _loaded_after(code):
    """Top-level packages loaded once ``code`` has run in a fresh process."""
    return {name.split(".")[0] for name in _modules_after(code)}


def _main_code(argv):
    return (
        "import contextlib, io\n"
        "from fockindex.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
    )


def _loaded_after_main(argv):
    return _loaded_after(_main_code(argv))


def test_importing_the_cli_loads_neither_numpy_nor_scipy():
    loaded = _loaded_after("import fockindex.cli")
    assert "fockindex" in loaded
    assert not loaded & {"numpy", "scipy"}


def test_topo_loads_neither_numpy_nor_scipy():
    assert not _loaded_after_main(TOPO_ARGS) & {"numpy", "scipy"}


@pytest.mark.parametrize(
    "argv",
    [
        ["relindex", "--dim", "8", "--trials", "2", "--seed", "9"],
        ["toeplitz", "--window", "16", "--k", "3"],
        ["verify-symbols", "--n", "2", "--samples", "4",
         "--quadrature-samples", "1", "--seed", "3"],
        ["verify-algebra", "--n", "2", "--cutoff", "16", "--seed", "7"],
        ["model-invert", "--chirality", "both", "--n", "2", "--theta", "0.3",
         "--seed", "5"],
    ],
    ids=lambda argv: argv[0],
)
def test_numpy_only_subcommands_load_no_scipy(argv):
    loaded = _loaded_after_main(argv)
    assert "numpy" in loaded
    assert "scipy" not in loaded


def test_verify_symbols_loads_no_fock_space_code():
    argv = ["verify-symbols", "--n", "2", "--samples", "4",
            "--quadrature-samples", "1", "--seed", "3"]
    loaded = _modules_after(_main_code(argv))
    assert "fockindex.symbols" in loaded
    assert not loaded & {"fockindex.fock", "fockindex.sparse", "fockindex.spinors"}


def test_model_invert_does_not_load_numpy_ma():
    argv = ["model-invert", "--chirality", "both", "--n", "2", "--theta", "0.3",
            "--seed", "5"]
    loaded = _modules_after(_main_code(argv))
    assert "fockindex.models" in loaded
    assert "numpy.ma" not in loaded


@pytest.mark.parametrize(
    "argv",
    [
        ["relindex", "--dim", "100000"],
        ["toeplitz", "--window", "100000"],
        ["verify-symbols", "--n", "40"],
        ["verify-algebra", "--n", "12", "--cutoff", "40"],
    ],
    ids=lambda argv: argv[0],
)
def test_oversized_requests_are_refused_before_numpy_loads(argv):
    code = (
        "import contextlib, io\n"
        "from fockindex.cli import main\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert main({argv!r}) == 2\n"
    )
    assert not _loaded_after(code) & {"numpy", "scipy"}


def test_no_module_loads_scipy():
    modules = [name for name in fockindex.__all__ if not name.startswith("__")]
    code = "".join(f"import fockindex.{name}\n" for name in modules)
    loaded = _loaded_after(code)
    assert "numpy" in loaded
    assert "scipy" not in loaded


@pytest.mark.parametrize(
    "argv",
    [
        ["model-invert", "--alpha", "0"],
        ["model-invert", "--alpha=-2.5"],
        ["model-invert", "--tol", "0"],
        ["model-invert", "--tol=-1e-9"],
    ],
    ids=lambda argv: " ".join(argv[1:]),
)
def test_non_positive_alpha_and_tol_are_refused_before_numpy_loads(argv):
    code = (
        "import contextlib, io\n"
        "from fockindex.cli import main\n"
        "with contextlib.redirect_stderr(io.StringIO()) as err:\n"
        f"    assert main({argv!r}) == 1\n"
        "assert 'must be greater than 0' in err.getvalue()\n"
    )
    assert not _loaded_after(code) & {"numpy", "scipy"}


def test_submodules_resolve_on_attribute_access():
    code = (
        "import sys, fockindex\n"
        "assert 'fockindex.models' not in sys.modules\n"
        "assert fockindex.models is sys.modules['fockindex.models']\n"
        "assert 'models' in dir(fockindex)\n"
    )
    _python("-c", code)


def test_star_import_binds_every_public_name():
    code = (
        "from fockindex import *\n"
        "import fockindex\n"
        "missing = [n for n in fockindex.__all__ if n not in globals()]\n"
        "assert not missing, missing\n"
    )
    _python("-c", code)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        getattr(fockindex, "nope")


def test_cli_chirality_names_match_the_spinor_sectors():
    from fockindex import cli, spinors

    assert cli._CHIRALITIES == (spinors.EVEN, spinors.ODD)


@pytest.mark.parametrize(
    "module", ["cli", "fock", "spinors", "symbols", "models", "pairs", "topo", "sparse"]
)
def test_every_name_in_all_resolves(module):
    # the benchmark tracer calls getattr on each name, so a stale entry
    # left behind by a deletion would break traced runs
    submodule = getattr(fockindex, module)
    missing = [name for name in submodule.__all__ if not hasattr(submodule, name)]
    assert not missing, missing
