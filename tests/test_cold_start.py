"""Imports stay off the paths that never call them.

A linear, polynomial or constant kernel, and a ``verify`` refused before any
draw, run without importing scipy; the RBF kernel and the Gaussian sampler
import it through ``kernels.cdist``/``kernels.pdist`` and ``oracle.ndtri``.
``import mmdvar`` gives the estimator API alone, and only ``verify`` loads the
verification layer, ``mmdvar.oracle`` and ``mmdvar.montecarlo``.
"""

import json
import os
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import mmdvar
from mmdvar import KernelSpec, build_gram_pack, kernels, oracle

SRC = Path(__file__).resolve().parents[1] / "src"

#: Runs each argv list (JSON in argv[1]) through ``cli.main`` in this fresh
#: interpreter, then prints the exit codes and the modules of package argv[2] loaded.
_SCRIPT = """\
import json, sys
import mmdvar, mmdvar.cli
codes = [mmdvar.cli.main(argv) for argv in json.loads(sys.argv[1])]
package = sys.argv[2]
loaded = sorted(k for k in sys.modules if k == package or k.startswith(package + "."))
print(json.dumps({"codes": codes, package: loaded}))
"""

#: What ``import mmdvar, mmdvar.cli`` loads of the package: no verification layer.
_ESTIMATOR_MODULES = ["mmdvar", "mmdvar.cli", "mmdvar.estimators", "mmdvar.kernels"]

#: The package namespace: the public names of ``kernels`` and ``estimators``.
_PUBLIC = {"MEDIAN", "GramPack", "GramStats", "KernelSpec", "build_gram_pack", "eval_kernel",
           "kernel_matrix", "median_heuristic", "resolve_bandwidth", "EstimateReport",
           "falling_factorial", "full_report", "mmd2_u", "mmd2_var", "mmd2_diff_var"}


def _fresh_run(*commands, package="scipy"):
    path = [str(SRC), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, json.dumps(commands), package],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture
def csvs(tmp_path):
    rng = np.random.default_rng(0)
    paths = []
    for name in ("x", "y", "z"):
        path = tmp_path / f"{name}.csv"
        np.savetxt(path, rng.normal(size=(5, 2)), delimiter=",")
        paths.append(str(path))
    return paths


def test_import_loads_no_scipy():
    assert _fresh_run() == {"codes": [], "scipy": []}


def test_non_rbf_runs_and_refused_verify_load_no_scipy(csvs):
    x, y, z = csvs
    got = _fresh_run(["mmd", x, y],
                     ["mmd", x, y, "--kernel", "poly", "--degree", "3"],
                     ["mmd", x, y, "--kernel", "const"],
                     ["relmmd", x, y, z, "--kernel", "poly", "--degree", "3"],
                     ["verify", "--targets", "mmd2", "--m", "3"])
    assert got == {"codes": [0, 0, 0, 0, 2], "scipy": []}


def test_package_namespace_is_the_estimator_api():
    names = {n for n, v in vars(mmdvar).items()
             if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert names == _PUBLIC


def test_import_and_estimator_runs_load_no_verification_layer(csvs):
    x, y, z = csvs
    assert _fresh_run(package="mmdvar") == {"codes": [], "mmdvar": _ESTIMATOR_MODULES}
    got = _fresh_run(["mmd", x, y],
                     ["mmd", x, y, "--kernel", "poly", "--degree", "3"],
                     ["mmd", x, y, "--kernel", "const"],
                     ["relmmd", x, y, z, "--kernel", "poly", "--degree", "3"], package="mmdvar")
    assert got == {"codes": [0, 0, 0, 0], "mmdvar": _ESTIMATOR_MODULES}


def test_verify_loads_the_verification_layer():
    got = _fresh_run(["verify", "--targets", "mmd2", "--m", "3"], package="mmdvar")
    assert got["codes"] == [2]
    assert {"mmdvar.oracle", "mmdvar.montecarlo"} <= set(got["mmdvar"])


def test_rbf_run_loads_scipy(csvs):
    x, y, _ = csvs
    got = _fresh_run(["mmd", x, y, "--kernel", "rbf"])
    assert got["codes"] == [0]
    assert "scipy.spatial.distance" in got["scipy"]


def test_scipy_is_reached_through_the_module_wrappers(monkeypatch):
    calls = Counter()
    for module, name in ((kernels, "cdist"), (kernels, "pdist"), (oracle, "ndtri")):
        def counted(*args, _inner=getattr(module, name), _name=name):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(module, name, counted)
    rng = np.random.default_rng(1)
    build_gram_pack(rng.normal(size=(20, 2)), rng.normal(size=(20, 2)), spec=KernelSpec.rbf())
    assert calls["cdist"] > 0 and calls["pdist"] > 0 and calls["ndtri"] == 0
    oracle.gaussian_draw(rng, 0.0, 1.0, 8)
    assert calls["ndtri"] == 1
