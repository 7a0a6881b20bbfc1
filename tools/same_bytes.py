"""Byte check: two versions of the package give the same verify output.

Exports two revisions, or a revision and the working tree, into fresh
directories without ``__pycache__``, and runs ``qlambda verify --suite all``
in each at seeds 0, 7 and 102, clean and with each fault of ``FAULTS``,
plus ``verify --suite thm4 --fault stirling2r:1:3:2`` (a usage error).
Each command's stdout, stderr and exit code must be the same on both sides.

    python tools/same_bytes.py [BASE [OTHER]]

BASE is a git revision (default ``HEAD``); OTHER is a revision, or the
working tree when absent.  Exits 0 when every command agrees, 1 otherwise.
Runs about 9 s a side; it is not part of the tier-1 suite.
"""

from __future__ import annotations

import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 7, 102)
# each adds its delta to one triangle entry (FAMILY:R:N:K[:DELTA]); the last lies in a row no
# check reads, so verify refuses it
FAULTS = ("stirling2r:1:3:2", "stirling2r:3:6:5", "stirling2d:0:4:2", "stirling1ru:1:2:1",
          "stirling2d:0:4:2:1/3", "stirling2r:1:3:2:1/3", "stirling2r:2:5:1:3",
          "stirling2r:0:8:8:0/1", "stirling2r:1:12:2")
COMMANDS = [["verify", "--suite", "all", "--seed", str(seed), *fault]
            for seed in SEEDS for fault in ([], *(["--fault", f] for f in FAULTS))]
COMMANDS.append(["verify", "--suite", "thm4", "--fault", "stirling2r:1:3:2"])


def _export(rev: str | None, dest: Path) -> None:
    """``src/`` of git revision ``rev``, or of the working tree when None, into ``dest``."""
    if rev is None:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        return
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, capture_output=True,
                             check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def _outputs(dest: Path) -> list[tuple[int, str, str]]:
    env = dict(os.environ, PYTHONPATH=str(dest / "src"), PYTHONDONTWRITEBYTECODE="1")
    runs = [subprocess.run([sys.executable, "-m", "qlambda", *args], cwd=dest, env=env,
                           capture_output=True, text=True) for args in COMMANDS]
    return [(proc.returncode, proc.stdout, proc.stderr) for proc in runs]


def main(argv: list[str]) -> int:
    if len(argv) > 2:
        print("usage: python tools/same_bytes.py [BASE [OTHER]]", file=sys.stderr)
        return 2
    base, other = (argv + ["HEAD"])[0], (argv[1] if len(argv) == 2 else None)
    with tempfile.TemporaryDirectory(prefix="qlambda-bytes-") as tmp:
        sides = []
        for i, rev in enumerate((base, other)):
            dest = Path(tmp) / str(i)
            _export(rev, dest)
            sides.append(_outputs(dest))
    differing = 0
    for args, left, right in zip(COMMANDS, *sides):
        same = left == right
        differing += not same
        print(f"{'same' if same else 'DIFFERS':8s} exit {left[0]}/{right[0]}  {' '.join(args)}")
    print(f"{len(COMMANDS) - differing} of {len(COMMANDS)} commands agree "
          f"({base} against {other or 'the working tree'})")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
