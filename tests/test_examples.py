"""Examples run end to end, so an API they use cannot be removed silently."""

import os
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]


def _run_example(name: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.pop("REPRO_FAULTS", None)
    return subprocess.run(
        [sys.executable, str(_ROOT / "examples" / name)], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300)


def test_fault_injection_example_runs(tmp_path):
    proc = _run_example("fault_injection.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "never an unstructured crash" in proc.stdout
