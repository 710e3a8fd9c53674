"""The command line when its reader closes stdout: a quiet exit, not a usage error."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.mark.parametrize("argv", [["check", "all", "--seed", "0"],
                                  ["constant", "--d", "3", "--q", "2"]])
def test_a_closed_stdout_exits_quietly(argv):
    # the read end is closed before the command writes: a long report fails on a write, a
    # one-line one on the flush that main makes before it returns
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "biasrank", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert stderr == b""
