"""The names other code looks up in ``evrect``: every entry of
``evrect.__all__``, and every function the benchmark under ``evbench/``
imports or wraps by name (its ``traced.LAYERS``).  A rename or a deletion
in ``src`` that breaks one of these lookups fails here, not in a benchmark
run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# run as the benchmark's stages run: the package from src, and evbench/ as
# the script directory, first on sys.path
_CHECK = """
import sys
sys.path.insert(0, "evbench")
import evrect
import traced  # imports ops, verify, oracle and workloads, and what they import from evrect

missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _ in traced.LAYERS
           if not callable(getattr(owner, attr, None))]
missing += [f"evrect.{name}" for name in evrect.__all__ if not hasattr(evrect, name)]
print(" ".join(missing))
"""


def test_benchmark_layers_and_public_names_resolve():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _CHECK], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
