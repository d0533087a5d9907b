"""The core package imports only NumPy and the standard library."""

import json
import subprocess
import sys

OPTIONAL = ("scipy", "networkx", "sympy", "hypothesis")


def test_import_tnq_loads_no_optional_dependency():
    code = (
        "import json, sys, tnq; "
        f"print(json.dumps([m for m in {OPTIONAL!r} if m in sys.modules]))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True)
    assert json.loads(proc.stdout) == []
