"""The study scripts run end to end: nothing imports them, so an API change
that breaks one would otherwise go unseen."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trabessel

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script", ["confining_well_study.py", "residual_decay_study.py"])
def test_study_script_runs(script):
    src = os.path.dirname(os.path.dirname(os.path.abspath(trabessel.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(SCRIPTS / script)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0 and proc.stdout.strip(), proc.stderr
