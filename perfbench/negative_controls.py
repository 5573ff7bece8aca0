"""Show that every correctness check of the benchmark can fail.

    python3 perfbench/negative_controls.py

Run from the root of a checkout; about 30 s. Every workload runs on SEED. Each check is first run on
real outputs of the current code, where it must pass, and then on a broken
input, where it must fail. Exits 1 if a check passes a broken input or
fails a good one.
"""

import dataclasses
import json
import os
import sys

import checks
import worker
from run import BLAS_ENV

SEED = 0
RESULTS = []


def expect(name, problems, should_fail):
    ok = bool(problems) == should_fail
    RESULTS.append(ok)
    verdict = "fails" if problems else "passes"
    status = "ok" if ok else "WRONG"
    detail = f": {problems[0]}" if problems else ""
    print(f"[{status}] {name}: check {verdict}{detail}")


def runall_controls():
    names, reference_files = worker.runall_reference(SEED)
    good = {n: "pass" for n in names}
    expect("runall_rd reference verdicts", checks.check_runall(0, good, names),
           False)
    flipped = dict(good, **{names[-1]: "fail"})
    expect("runall_rd with one verdict flipped",
           checks.check_runall(0, flipped, names), True)
    expect("runall_rd exiting 1", checks.check_runall(1, good, names), True)
    dropped = {n: v for n, v in good.items() if n != names[0]}
    expect("runall_rd with one audit missing",
           checks.check_runall(0, dropped, names), True)
    manifest = json.dumps({"files": reference_files}).encode()
    expect("runall_rd replay of identical manifests",
           list(checks.check_replay([manifest, manifest]).values()), False)
    changed = bytearray(manifest)
    changed[-3] ^= 1
    expect("runall_rd replay with one manifest byte changed",
           list(checks.check_replay([manifest, bytes(changed)]).values()), True)
    files = dict(reference_files)
    files[sorted(files)[0]] = "0" * 64
    count = checks.files_changed(files, reference_files)
    print(f"[{'ok' if count == 1 else 'WRONG'}] runall_rd reference with one "
          f"hash changed: files_changed_vs_reference = {count}")
    RESULTS.append(count == 1)


def oracle_controls():
    state = worker.lq_setup(SEED)
    rows, converged = worker.lq_timed(state, None)
    expect("oracle_lq against the Riccati solution",
           checks.check_oracle(worker.lq_truth(state["solution"], rows),
                               converged), False)
    from hjblab.models import riccati_solve
    import numpy as np
    bent = dataclasses.replace(state["oracle"], q_state=1.5)
    bent_sol = riccati_solve(bent, np.linspace(0.0, bent.horizon, 801))
    expect("oracle_lq against the Riccati solution of q_state=1.5",
           checks.check_oracle(worker.lq_truth(bent_sol, rows), converged), True)
    expect("oracle_lq with policy iteration not converged",
           checks.check_oracle(worker.lq_truth(state["solution"], rows), False),
           True)


def oneshot_controls():
    state = worker.sdde_setup(SEED)
    fk, rep = worker.sdde_timed(state, None)
    c = rep.constants
    expect("oneshot_sdde dpp and Feynman-Kac",
           checks.check_oneshot(rep.verdict, fk.mean, fk.std_error, c["lhs"],
                                c["lhs_se"]), False)
    expect("oneshot_sdde with a failed dpp verdict",
           checks.check_oneshot("fail", fk.mean, fk.std_error, c["lhs"],
                                c["lhs_se"]), True)
    syn = state["synthesis"]
    zero = syn.feynman_kac_value(state["problem"], syn.zero_policy(state["problem"]),
                                 0.0, state["x0"], n_paths=worker.SDDE_PATHS,
                                 n_steps=worker.SDDE_STEPS, seed=SEED)
    expect("oneshot_sdde Feynman-Kac of the zero policy against the dpp lhs",
           checks.check_oneshot(rep.verdict, zero.mean, zero.std_error,
                                c["lhs"], c["lhs_se"]), True)


def main():
    os.environ.update(BLAS_ENV)   # before numpy loads, as in run.py
    runall_controls()
    oracle_controls()
    oneshot_controls()
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
