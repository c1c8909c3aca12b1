"""One set-up of a workload in a fresh interpreter: import mmdvar, run one op.

    python3 bench/setup_probe.py WORKLOAD SEED INDEX

``run.py`` times this whole process; the op's input is made from
(SEED, set-up stream, INDEX), so set-ups never reuse the timed ops' inputs.
"""

import sys
from pathlib import Path

import workloads

name, seed, index = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
wl = workloads.make(name, Path.cwd())
wl.run(wl.make_input(seed, workloads.SETUP_STREAM, index))
