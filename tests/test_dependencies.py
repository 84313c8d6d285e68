"""The package runs on the standard library alone.

numpy is a test-only oracle, so a fresh interpreter that cannot import it
must still run the CLI, and no command may pull in `xml.sax` (whose import
chain loads the urllib, http, ssl and email packages).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import contextlib, io, json, sys

class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockNumpy())
from cantorvis.cli import main

codes = []
for argv in (["gds-dim", "--lambda", "1/3", "--slope-t", "1/2"],
             ["boxdim", "--lambda", "1/5", "--family", "quotient"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes.append(main(argv))
    json.loads(out.getvalue())
print(json.dumps({"codes": codes,
                  "loaded": [m for m in ("numpy", "xml.sax") if m in sys.modules]}))
"""


def test_cli_runs_without_numpy_or_xml_sax():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0], "loaded": []}
