"""Run the workflow's `CLI smoke test` step locally.

Usage: python tools/run_ci_smoke.py

The step runs `tools/ci_smoke.sh` with `bash -e` from the repository root, and
so does this script.  The interpreter that runs this script stands in for the
workflow's: `windmills` and `python` on PATH are shims that call it, with the
repository's `src/` on PYTHONPATH, so no install is needed.  RUNNER_TEMP is a
fresh temporary directory.  The exit code is the script's.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "tools" / "ci_smoke.sh"


def write_shim(directory: Path, name: str, command: str) -> None:
    path = directory / name
    path.write_text(f'#!/bin/sh\nexec {command} "$@"\n')
    path.chmod(0o755)


def main() -> int:
    python = shlex.quote(sys.executable)
    with tempfile.TemporaryDirectory(prefix="ci-smoke-") as tmp:
        tmp_path = Path(tmp)
        bin_dir = tmp_path / "bin"
        runner_temp = tmp_path / "runner-temp"
        bin_dir.mkdir()
        runner_temp.mkdir()
        write_shim(bin_dir, "windmills", f"{python} -m windmills.cli")
        write_shim(bin_dir, "python", python)
        env = dict(os.environ)
        src = str(REPO / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        env["PATH"] = str(bin_dir) + os.pathsep + env.get("PATH", "")
        env["RUNNER_TEMP"] = str(runner_temp)
        start = time.perf_counter()
        code = subprocess.run(["bash", "-e", str(SCRIPT)], cwd=REPO, env=env).returncode
        elapsed = time.perf_counter() - start
    version = ".".join(map(str, sys.version_info[:3]))
    status = "passed" if code == 0 else f"failed with exit code {code}"
    print(f"CLI smoke test {status} in {elapsed:.1f} s (Python {version})", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
