"""Run the workflow's `CLI smoke test` step locally.

Usage: python tools/run_ci_smoke.py

The step's `run:` block is read from `.github/workflows/tests.yml` and run
with `bash -e` from the repository root, as the workflow runs it.  The
interpreter that runs this script stands in for the workflow's: `windmills`
and `python` on PATH are shims that call it, with the repository's `src/` on
PYTHONPATH, so no install is needed.  RUNNER_TEMP is a fresh temporary
directory.  The exit code is the step's; it is 2 if the step is not found.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKFLOW = REPO / ".github" / "workflows" / "tests.yml"
STEP = "CLI smoke test"


def indent(line: str) -> int:
    return len(line) - len(line.lstrip(" "))


def smoke_block(text: str) -> str | None:
    """The `run: |` block of the step named STEP, dedented; None if absent."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.strip() != f"- name: {STEP}":
            continue
        key_indent = indent(line) + 2  # the step's other keys line up with `name:`
        for j in range(i + 1, len(lines)):
            stripped = lines[j].strip()
            if stripped and indent(lines[j]) < key_indent:
                return None  # the step ended without a run block
            if stripped in ("run: |", "run: |-") and indent(lines[j]) == key_indent:
                block = []
                for body in lines[j + 1 :]:
                    if body.strip() and indent(body) <= key_indent:
                        break
                    block.append(body)
                while block and not block[-1].strip():
                    block.pop()
                return textwrap.dedent("\n".join(block)) + "\n" if block else None
        return None
    return None


def write_shim(directory: Path, name: str, command: str) -> None:
    path = directory / name
    path.write_text(f'#!/bin/sh\nexec {command} "$@"\n')
    path.chmod(0o755)


def main() -> int:
    script = smoke_block(WORKFLOW.read_text())
    if script is None:
        print(f"no `run: |` block for step {STEP!r} in {WORKFLOW}", file=sys.stderr)
        return 2
    python = shlex.quote(sys.executable)
    with tempfile.TemporaryDirectory(prefix="ci-smoke-") as tmp:
        tmp_path = Path(tmp)
        bin_dir = tmp_path / "bin"
        runner_temp = tmp_path / "runner-temp"
        bin_dir.mkdir()
        runner_temp.mkdir()
        write_shim(bin_dir, "windmills", f"{python} -m windmills.cli")
        write_shim(bin_dir, "python", python)
        step = tmp_path / "step.sh"
        step.write_text(script)
        env = dict(os.environ)
        src = str(REPO / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        env["PATH"] = str(bin_dir) + os.pathsep + env.get("PATH", "")
        env["RUNNER_TEMP"] = str(runner_temp)
        start = time.perf_counter()
        code = subprocess.run(["bash", "-e", str(step)], cwd=REPO, env=env).returncode
        elapsed = time.perf_counter() - start
    version = ".".join(map(str, sys.version_info[:3]))
    status = "passed" if code == 0 else f"failed with exit code {code}"
    print(f"CLI smoke test {status} in {elapsed:.1f} s (Python {version})", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
