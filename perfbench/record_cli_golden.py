"""Record the exit code and a digest of stdout for every cli_cold command.

    python3 perfbench/record_cli_golden.py

Run once from the root of a checkout of the commit whose output is the
reference; writes perfbench/cli_golden.json, which cli_cold checks against.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def main():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("TRA_NUM_THREADS", None)
    golden = {}
    for key, args in workloads.CLI_COMMANDS.items():
        proc = subprocess.run(workloads.cli_argv(args), capture_output=True, env=env, cwd=ROOT,
                              timeout=60)
        golden[key] = {"exit": proc.returncode,
                       "stdout_sha256": workloads.stdout_digest(proc.stdout),
                       "stdout_bytes": len(proc.stdout)}
        print(key, golden[key])
    workloads.CLI_GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
