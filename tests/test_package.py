"""The package namespace: what ``import polarsec`` loads and exports."""
import subprocess
import sys
from pathlib import Path

import polarsec

CHILD = """
import sys
import numpy
import polarsec
key = polarsec.generate_key(polarsec.reference_params(), numpy.random.default_rng(1))
polarsec.serialize_key(key)
loaded = sorted(m for m in sys.modules if m in ("polarsec.analysis", "polarsec.attacks"))
assert not loaded, loaded
missing = [name for name in polarsec.__all__ if not hasattr(polarsec, name)]
assert not missing, missing
assert polarsec.analysis.simulate_round_trip is polarsec.simulate_round_trip
"""


def test_keys_and_cipher_leave_analysis_and_attacks_unloaded():
    # a fresh process, so that no earlier test has imported them already
    src = str(Path(polarsec.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", CHILD], check=True, cwd=src, timeout=120)
