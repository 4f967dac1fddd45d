"""Wall time of every CLI subcommand on every demo config, in fresh interpreters.

    python3 tools/cli_walltime.py --src src --rounds 3

runs ``python -m temperedwalk <subcommand> --config configs/<demo>.json`` for
each subcommand and each file in ``configs/``, every run in a new process
with ``PYTHONPATH`` set to ``--src``, so the interpreter start and the
imports count as they do for a user.  Pointing ``--src`` at another
checkout's ``src`` times that program on the same demos.  Prints one JSON
object: per ``<subcommand> <demo>``, the exit code and the wall seconds of
each round.  ``paths`` needs a time grid, so on a demo without one it
exits 2 after reading the config: its time is the start-up alone.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("simulate", "paths", "cf-check", "diagnose", "density")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)
    env = {**os.environ, "PYTHONPATH": str(Path(args.src).resolve())}
    results = {}
    with tempfile.TemporaryDirectory() as out:
        for _ in range(args.rounds):
            for demo in sorted((ROOT / "configs").glob("*.json")):
                for command in COMMANDS:
                    started = time.perf_counter()
                    done = subprocess.run(
                        [sys.executable, "-m", "temperedwalk", command, "--config", str(demo),
                         "--out", str(Path(out) / command)],
                        capture_output=True, env=env, cwd=out)
                    row = results.setdefault(f"{command} {demo.stem}",
                                             {"exit": done.returncode, "wall_s": []})
                    row["wall_s"].append(round(time.perf_counter() - started, 4))
    print(json.dumps(results, indent=1))


if __name__ == "__main__":
    main()
