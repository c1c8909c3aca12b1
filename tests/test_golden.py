"""Pinned outputs, so that a refactor cannot move them unseen.

``tests/golden/regenerate.py`` wrote the files.  The replicate streams are
compared exactly: NumPy keeps a bit generator's raw stream stable across
versions (NEP 19), and the harness's map of it is pinned with it.  The
``verify`` run is compared within 1e-12 relative, with every verdict, count
and name exact, because the inverse-CDF Gaussian map may round differently
across NumPy and SciPy builds.
"""

import json
import math
import pathlib

import numpy as np
import pytest

from mmdvar.cli import main
from mmdvar.montecarlo import replicate_rng

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def load(name):
    return json.loads((GOLDEN / name).read_text())


STREAMS = load("replicate_rng.json")


@pytest.mark.parametrize("key", STREAMS["keys"], ids=lambda k: f"{k['seed']}-{k['replicate']}")
def test_replicate_rng_draws_are_pinned(key):
    n = STREAMS["n_draws"]
    raw = replicate_rng(key["seed"], key["replicate"]).bit_generator.random_raw(n)
    ints = replicate_rng(key["seed"], key["replicate"]).integers(1, 1 << 53, size=n)
    np.testing.assert_array_equal(raw, np.array(key["random_raw"], dtype=np.uint64))
    np.testing.assert_array_equal(ints, np.array(key["integers"], dtype=np.int64))


def assert_matches(have, want, path="output"):
    """Floats within 1e-12 relative; everything else, including each float's
    place and type, exactly."""
    assert type(have) is type(want), path
    if isinstance(want, dict):
        assert list(have) == list(want), path
        for k in want:
            assert_matches(have[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        assert len(have) == len(want), path
        for i, (h, w) in enumerate(zip(have, want)):
            assert_matches(h, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(have, want, rel_tol=1e-12, abs_tol=0.0), (path, have, want)
    else:
        assert have == want, path


def test_verify_run_is_pinned(capsys):
    golden = load("verify_m8.json")
    code = main(golden["argv"])
    assert code == golden["exit_code"]
    assert_matches(json.loads(capsys.readouterr().out), golden["output"])
