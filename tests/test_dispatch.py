"""Payloads do not depend on the SIMD kernels numpy dispatches on this CPU.

numpy picks a kernel for each CPU feature it finds at import, and kernels
for different features may round the last bit differently.  The golden
corpus and the lane contract run again in a child process that
NPY_DISABLE_CPU_FEATURES holds to numpy's baseline kernels (on x86-64,
X86_V2: it disables X86_V3, X86_V4, AVX512_ICL and AVX512_SPR).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

_ROOT = Path(__file__).resolve().parents[1]
_COUNT = ("from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__; "
          "print(sum(__cpu_features__[name] for name in __cpu_dispatch__))")
_REPLAYED = ["tests/test_golden.py::test_every_corpus_entry_gives_its_recorded_output",
             "tests/test_lanes_contract.py"]


def test_the_corpus_and_the_lane_contract_hold_under_baseline_dispatch():
    dispatched = sum(__cpu_features__[name] for name in __cpu_dispatch__)
    if not dispatched:
        pytest.skip("numpy dispatches nothing beyond its baseline on this CPU")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(__cpu_dispatch__)}
    child = subprocess.run([sys.executable, "-c", _COUNT], env=env, capture_output=True,
                           text=True, check=True)
    assert int(child.stdout) < dispatched
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                             *_REPLAYED], cwd=_ROOT, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]
