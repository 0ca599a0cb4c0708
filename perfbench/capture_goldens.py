"""Capture the golden outputs every benchmark op is checked against.

    python3 perfbench/capture_goldens.py [workload ...]

Runs every pool entry of the kernel workloads once and stores the digest
of its canonical output (goldens/<workload>.json: group -> concatenated
digests, DIGEST_CHARS hex characters per pool index), and runs each
README command once and stores its stdout bytes and exit code
(goldens/cli-readme/).  The goldens are the byte-identical oracle later
versions are judged against: re-capture only when an output change is
intended, and say so.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def capture_kernel(workload: str) -> None:
    table: dict[str, str] = {}
    for op in workloads.pool(workload):
        args = workloads.inputs(op)
        result = workloads.execute(op, args, tracing.direct)
        parts = workloads.verify(op, args, result, {})
        if len(table.get(op[1], "")) != op[2] * workloads.DIGEST_CHARS:
            raise RuntimeError(f"pool of {workload} is not in index order at {op[:3]}")
        table[op[1]] = table.get(op[1], "") + workloads.digest(parts)
    with open(workloads.GOLDEN_DIR / f"{workload}.json", "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=0)
        handle.write("\n")


def capture_cli() -> None:
    folder = workloads.GOLDEN_DIR / "cli-readme"
    folder.mkdir(parents=True, exist_ok=True)
    workdir = run.WORK / "capture"
    workdir.mkdir(parents=True, exist_ok=True)
    commands = []
    try:
        for name, argv in workloads.README_COMMANDS:
            done = subprocess.run(
                workloads.CLI_PREFIX + argv,
                cwd=workdir,
                env=run.isolated_env(),
                capture_output=True,
                timeout=workloads.CLI_TIMEOUT_S,
            )
            stdout_file = f"{name}.stdout"
            (folder / stdout_file).write_bytes(done.stdout)
            commands.append({"name": name, "argv": argv, "exit": done.returncode, "stdout": stdout_file})
        shutil.copyfile(workdir / workloads.REPORT_FILE, folder / workloads.REPORT_FILE)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(folder / "manifest.json", "w", encoding="utf-8") as handle:
        json.dump({"commands": commands}, handle, indent=1)
        handle.write("\n")


def main(names) -> int:
    for name in names or workloads.WORKLOADS:
        print(f"capturing {name}", flush=True)
        if name == "cli-readme":
            capture_cli()
        else:
            capture_kernel(name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
