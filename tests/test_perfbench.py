"""The benchmark harness in ``perfbench/`` binds package names: the sweep calls
``cli.main``, ``descent.descent_compositions_lambda`` and the ribbon
round trip, and the tracer wraps the ``Echelon`` methods it lists in
``ECHELON_METHODS``.  A rename in the package breaks those bindings; this
test makes that a test failure.

It runs in its own interpreter, so the tracer's wrappers never reach the
package objects the other tests use.  ``-B`` keeps it from writing bytecode.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import sweep
import tracer
assert sweep.run_cli(["verify", "2,1"])[0] == 0
assert sweep.run_roundtrip([(3, 1), (2, 2)]) == []
tracer.install()
assert sweep.run_cli(["hall-littlewood", "2,1"])[0] == 0
"""


def test_benchmark_harness_binds_the_package():
    script = SCRIPT.format(perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-B", "-c", script], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
