import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def fresh():
    """fresh(*argv, threads=None): ``python -W error *argv`` in a new interpreter that imports
    this checkout's src, at OPENBLAS_NUM_THREADS=threads if given; its CompletedProcess, with
    stdout and stderr as text. Every fresh interpreter the tests start is this one."""
    def run(*argv, threads=None):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = str(threads)
        return subprocess.run([sys.executable, "-W", "error", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
    return run
