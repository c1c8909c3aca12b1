"""Run the mmdvar CLI in this interpreter with spans around its layers.

    python3 bench/cli_traced.py SPANS.json mmd X.csv Y.csv

Times the package import, installs span wrappers on the attributes the CLI
looks up, runs ``mmdvar.cli.main`` on the remaining arguments, writes the
spans as JSON to SPANS.json and exits with the CLI's exit code.
"""

import json
import sys
from pathlib import Path

import layers
import spans

rec = spans.Recorder()
with rec.span("cli.import"):
    import mmdvar.cli

with spans.patched(rec, layers.CLI), rec.span("cli.main"):
    code = mmdvar.cli.main(sys.argv[2:])
Path(sys.argv[1]).write_text(json.dumps(rec.take()))
sys.exit(code)
