"""Hash the output of every default `dgalab` CLI job.

Usage: python tools/cli_hashes.py [CHECKOUT]

CHECKOUT is a source tree holding `src/dgalab` (default: the tree this file
sits in). Each job runs that tree's CLI in a fresh temporary directory with
OPENBLAS_NUM_THREADS=1, so two checkouts can be compared byte for byte:

  sparsity       each of the four samplers       -> sparsity.csv
  coding                                         -> condnum.csv, trace.csv
  noise                                          -> noise.csv, noise_alt.csv, klnoise.csv
  dga-check      standard output (it writes no file when it passes)
  decode-bench   defaults, and --L 2048 --d 64 --m 16 --gamma 0.1 --steps 256
                                                 -> decode_trace.csv, ledger_summary.csv

It prints one `sha256  job/file` line per output, sorted by path, and exits 1
if a job fails.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

JOBS = {
    **{f"sparsity-{s}": ["sparsity", "--sampler", s]
       for s in ("gaussian", "student_t", "mixture", "attention")},
    "coding": ["coding"],
    "noise": ["noise"],
    "dga-check": ["dga-check"],
    "decode-bench": ["decode-bench"],
    "decode-bench-2048": ["decode-bench", "--L", "2048", "--d", "64", "--m", "16",
                          "--gamma", "0.1", "--steps", "256"],
}


def job_hashes(src: Path, name: str, argv: list) -> dict:
    """{job/file: sha256} of the files one job writes, and of its stdout for dga-check."""
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        run = subprocess.run([sys.executable, "-m", "dgalab.cli", *argv, "--out", str(out)],
                             cwd=tmp, env=env, capture_output=True)
        if run.returncode != 0:
            raise RuntimeError(f"{name} exited {run.returncode}: {run.stderr.decode()}")
        files = {f"{name}/{p.name}": p.read_bytes() for p in out.glob("*")}
        if name == "dga-check":
            files[f"{name}/stdout"] = run.stdout
    return {path: hashlib.sha256(data).hexdigest() for path, data in files.items()}


def main(argv: list) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    src = root.resolve() / "src"
    if not (src / "dgalab").is_dir():
        print(f"error: {src / 'dgalab'} not found", file=sys.stderr)
        return 2
    hashes = {}
    try:
        for name, job in JOBS.items():
            hashes.update(job_hashes(src, name, job))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in sorted(hashes):
        print(f"{hashes[path]}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
