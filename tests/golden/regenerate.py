"""Regenerate the golden files that ``tests/test_golden.py`` compares against.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py

It pins two things:

- ``replicate_rng.json``: the first draws of :func:`mmdvar.montecarlo.replicate_rng`
  for a few (seed, replicate) keys, both the bit generator's raw 64-bit words
  and the harness's ``integers(1, 2**53)`` map of them, compared exactly;
- ``verify_m8.json``: one ``mmdvar verify`` run at m = 8 with a z model over
  all targets, compared within 1e-12 relative, with verdicts exact.

A change that moves a pinned value reruns this script and names the moved
fields, and the size of the move, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

from mmdvar.cli import main
from mmdvar.montecarlo import replicate_rng

HERE = pathlib.Path(__file__).resolve().parent

#: 2**64 - 1 and -1 name the same key; both are pinned because both are valid seeds.
SEEDS = (0, 2**64 - 1, -1)
REPLICATES = (0, 1, 2**40)
N_DRAWS = 8
VERIFY_ARGV = ["verify", "--targets", "all", "--m", "8", "--mean-z", "0.25", "--var-z", "1",
               "--replicates", "1000", "--seed", "-1"]


def streams() -> dict:
    keys = []
    for seed in SEEDS:
        for r in REPLICATES:
            raw = replicate_rng(seed, r).bit_generator.random_raw(N_DRAWS)
            ints = replicate_rng(seed, r).integers(1, 1 << 53, size=N_DRAWS)
            keys.append({"seed": seed, "replicate": r,
                         "random_raw": [int(v) for v in raw],
                         "integers": [int(v) for v in ints]})
    return {"n_draws": N_DRAWS, "keys": keys}


def verify_run(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return {"argv": list(argv), "exit_code": code, "output": json.loads(out.getvalue())}


def write(name: str, payload: dict) -> None:
    (HERE / name).write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    write("replicate_rng.json", streams())
    write("verify_m8.json", verify_run(VERIFY_ARGV))
