"""Package surface tests."""

import os
import subprocess
import sys

import pytest

import callab


def test_all_names_resolve_once():
    assert len(callab.__all__) == len(set(callab.__all__))
    missing = [name for name in callab.__all__ if not hasattr(callab, name)]
    assert not missing, missing


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("user, want", [
    ({}, ["1", "1", "1"]),
    ({"OPENBLAS_NUM_THREADS": "2"}, ["2", None, None]),
    ({"OMP_NUM_THREADS": "2"}, [None, "2", None]),
])
def test_import_sets_one_blas_thread_unless_the_user_chose(user, want):
    """Read in a new interpreter, where the import comes before numpy's."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    code = ("import os, sys, callab; assert 'numpy' in sys.modules; "
            f"print(repr([os.environ.get(v) for v in {BLAS_THREAD_VARS!r}]))")
    proc = subprocess.run([sys.executable, "-c", code], env={**env, **user, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == repr(want)
