"""Write reference/runall_rd.json: run-all's report names, and the sha256
of each artifact for master seeds 0 to REFERENCE_SEEDS - 1.

    python3 perfbench/make_reference.py

Run from the root of a checkout; about 10 s per seed. run-all is run in
this process through the runall_rd workload of worker.py. Each seed's
verdicts are printed; a seed that fails is recorded like any other, and the
benchmark counts its runs as failed.

The benchmark reports the count of artifacts whose hash differs from this
reference as ``cli.files_changed_vs_reference`` and never fails on it.
Regenerate the file only in a change that declares new artifact bytes.
"""

import json
import os
import shutil
import sys
from pathlib import Path

import worker
from run import BLAS_ENV, ROOT

REFERENCE_SEEDS = 16


def main():
    os.environ.update(BLAS_ENV)   # before numpy loads, as in run.py
    work = ROOT / ".perfbench_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    os.chdir(work)                # run-all writes to RUNALL_OUT under here
    setup, timed, check = worker.WORKLOADS["runall_rd"]
    names, files = None, {}
    for seed in range(REFERENCE_SEEDS):
        state = setup(seed)
        state.update(reports=[], files={})
        problems, _ = check(state, timed(state, None))
        out = Path(worker.RUNALL_OUT)
        reports = [r["name"] for r in
                   json.loads((out / "reports.json").read_text())]
        if names is None:
            names = reports
        elif reports != names:
            sys.exit(f"seed {seed} reports {reports}, seed 0 {names}")
        files[str(seed)] = json.loads((out / "manifest.json").read_text())["files"]
        print(f"runall_rd seed {seed}: {'; '.join(problems) or 'pass'}",
              flush=True)
    worker.RUNALL_REFERENCE.write_text(json.dumps(
        {"reports": names, "files": files}, indent=1, sort_keys=True) + "\n")
    os.chdir(ROOT)
    shutil.rmtree(work)


if __name__ == "__main__":
    main()
