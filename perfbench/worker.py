"""One timed run of one workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED MODE RESULT_JSON

MODE is ``setup`` (set up, then stop before the timed call), ``time`` (one
untraced timed call) or ``trace`` (one timed call with the tracer
installed; spans go next to RESULT_JSON). hjblab is imported from the
``src`` directory next to this one. run.py starts this program in the
workload's scratch directory and reads RESULT_JSON back.

Workloads (each is a closed loop of one client: run.py starts the next run
when this one has exited). SEED is passed unchanged to hjblab as the master
seed of every random stream:

- runall_rd: ``hjblab run-all`` on reaction_diffusion with every key pinned
  in runall_rd.ini to its resolved default, except that the semiconcavity
  scan is left out (the ini says why). The CLI users run; bound by the
  model callbacks (softplus reaction, running cost evaluated twice per
  interior state) and by contestant loops, not by noise.
- oracle_lq: a scaled-down acceptance test c1 on the scalar LQ problem,
  checked against the Riccati solution. Noise-bound with heavy reuse: the
  same increment blocks are requested again by every candidate, round and
  +-h leg, so it is where noise-layer work shows.
- oneshot_sdde: one large Feynman-Kac run on the 21-dimensional delay lift
  plus one dpp_check. Every increment is drawn once, so a noise cache is
  bypassed; bound by the step loop and feedback on a big batch.
"""

import hashlib
import json
import os
import resource
import shutil
import sys
import time
import warnings
from pathlib import Path

import checks
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

RUNALL_CONFIG = HERE / "runall_rd.ini"
RUNALL_OUT = "hjblab_out"   # [output] directory in runall_rd.ini
# run-all's report names and, per master_seed, its artifact hashes; written
# by make_reference.py.
RUNALL_REFERENCE = HERE / "reference" / "runall_rd.json"

# oracle_lq sizes: c1's three steps with fewer paths, about 15 s on two
# cores. c1 uses 833 paths per candidate, 3000 per point on a 3x9 grid and
# 4000 for the gradient; the 3x5 grid here keeps c1's checked x values.
LQ_POINTS = [(t, x) for t in (0.0, 0.4, 0.8) for x in (-1.5, 0.5, 1.0)]
LQ_FAMILY = dict(n_candidates=12, paths_per_candidate=600, n_steps=200)
LQ_PI_T = (0.0, 0.4, 0.8)
LQ_PI_X = (-2.0, -1.5, 0.5, 1.0, 2.0)
LQ_PI = dict(n_rounds=6, paths_per_point=1000, n_steps=120)
LQ_GRADIENT = dict(n_paths=3000, n_steps=150)

# oneshot_sdde sizes: one 20k-path batch, large enough that the step loop
# and feedback dominate (about 3 s with dpp_check), and dpp_check at its
# default path counts with the same time step, so that the Feynman-Kac mean
# and the dpp left-hand side differ only by Monte Carlo noise. dpp_check's
# own slack is the check's, checks.SE_MULT standard errors. At 50k paths a
# step's arrays no longer fit in cache: each path cost 40% more and the run
# time swung with the host's load about twice as much as runall_rd's.
SDDE_PATHS = 20_000
SDDE_STEPS = 200
SDDE_SPLIT = 0.5


def runall_reference(seed):
    """run-all's report names and the sha256 of each artifact for
    master_seed = seed. The hashes are empty for a seed outside the range
    make_reference.py covers, so that every artifact counts as changed."""
    ref = json.loads(RUNALL_REFERENCE.read_text())
    return ref["reports"], ref["files"].get(str(seed), {})


def _import_hjblab():
    sys.path.insert(0, str(SRC))
    import hjblab
    where = Path(hjblab.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"hjblab imported from {where}, not from {SRC}")
    return hjblab


# -- runall_rd ---------------------------------------------------------------


def runall_setup(seed):
    _import_hjblab()
    import hjblab.cli
    shutil.rmtree(RUNALL_OUT, ignore_errors=True)
    reports, files = runall_reference(seed)
    return {"cli": hjblab.cli, "reports": reports, "files": files,
            "argv": ["run-all", "--config", str(RUNALL_CONFIG),
                     "--seed", str(seed)]}


def runall_timed(state, tracer):
    return state["cli"].main(state["argv"])


def runall_check(state, exit_code):
    out = Path(RUNALL_OUT)
    reports = json.loads((out / "reports.json").read_text())
    verdicts = {r["name"]: r["verdict"] for r in reports}
    manifest = (out / "manifest.json").read_bytes()
    problems = checks.check_runall(exit_code, verdicts, state["reports"])
    files = json.loads(manifest)["files"]
    return problems, {
        "manifest_sha256": hashlib.sha256(manifest).hexdigest(),
        "files_changed": checks.files_changed(files, state["files"]),
        "bytes_written": sum(p.stat().st_size for p in out.iterdir()),
    }


# -- oracle_lq -----------------------------------------------------------------


def lq_setup(seed):
    _import_hjblab()
    import numpy as np
    from hjblab import models, synthesis, value
    problem, oracle = models.build_lq_benchmark()
    sol = models.riccati_solve(oracle, np.linspace(0.0, problem.horizon, 801))
    policy = synthesis.make_riccati_policy(problem, sol)
    return {"np": np, "value": value, "problem": problem, "oracle": oracle,
            "solution": sol, "policy": policy, "seed": seed}


def lq_timed(state, tracer):
    np, value, seed = state["np"], state["value"], state["seed"]
    problem, policy = state["problem"], state["policy"]
    if tracer is not None:
        problem = tracer.wrap_problem(problem)
        policy = tracer.wrap_control(policy)
    family = value.ControlFamily(base_candidates=(policy,))
    rows = []   # (what, t, x, estimate, std_error); truth added by the check
    for t, x in LQ_POINTS:
        fv = value.estimate_value_family(problem, t, np.array([x]), family,
                                         seed=seed, **LQ_FAMILY)
        rows.append(("value_family", t, x, fv.estimate.mean,
                     fv.estimate.std_error))
    cfg = value.PolicyIterationConfig(paths_per_point=LQ_PI["paths_per_point"],
                                      n_steps=LQ_PI["n_steps"])
    res = value.policy_iteration(problem, LQ_PI_T, np.array(LQ_PI_X)[:, None],
                                 n_rounds=LQ_PI["n_rounds"], cfg=cfg, seed=seed)
    for (t, x), est in zip(res.value_field.points, res.value_field.estimates):
        rows.append(("policy_iteration", t, float(x[0]), est.mean,
                     est.std_error))
    evaluator = value.make_policy_evaluator(problem, policy, **LQ_GRADIENT)
    with warnings.catch_warnings():
        # the noise-floor warning is judged by the err/tol check instead
        warnings.simplefilter("ignore")
        for t, x in LQ_POINTS:
            grad, se = value.gradient_fd(evaluator, t, np.array([x]), seed=seed)
            rows.append(("gradient", t, x, float(grad[0]), float(se[0])))
    return rows, res.converged


def lq_truth(solution, rows):
    """Attach the Riccati V (or DV for gradient rows) to each row."""
    import numpy as np
    out = []
    for what, t, x, est, se in rows:
        xv = np.array([x])
        truth = (solution.gradient(t, xv)[0] if what == "gradient"
                 else solution.value(t, xv))
        out.append((what, t, x, est, se, float(np.squeeze(truth))))
    return out


def lq_check(state, result):
    rows, converged = result
    checked = lq_truth(state["solution"], rows)
    worst = max(abs(e - v) / checks.oracle_tolerance(v, s)
                for _, _, _, e, s, v in checked)
    return checks.check_oracle(checked, converged), {"worst_err_tol": worst}


# -- oneshot_sdde ----------------------------------------------------------------


def sdde_setup(seed):
    _import_hjblab()
    import numpy as np
    from hjblab import models, synthesis
    problem = models.build_sdde_lift()
    policy = synthesis.make_gamma_policy(problem, lambda s, xb: 2.0 * xb,
                                         label="dv_2x")
    return {"synthesis": synthesis, "problem": problem, "policy": policy,
            "x0": 0.3 * np.ones(problem.dim), "seed": seed}


def sdde_timed(state, tracer):
    syn, seed, x0 = state["synthesis"], state["seed"], state["x0"]
    problem, policy = state["problem"], state["policy"]
    if tracer is not None:
        problem = tracer.wrap_problem(problem)
        policy = tracer.wrap_control(policy)
    fk = syn.feynman_kac_value(problem, policy, 0.0, x0, n_paths=SDDE_PATHS,
                               n_steps=SDDE_STEPS, seed=seed)
    rep = syn.dpp_check(problem, policy, 0.0, x0, SDDE_SPLIT,
                        cfg=syn.DppConfig(n_steps=SDDE_STEPS,
                                          se_mult=checks.SE_MULT),
                        seed=seed)
    return fk, rep


def sdde_check(state, result):
    fk, rep = result
    c = rep.constants
    problems = checks.check_oneshot(rep.verdict, fk.mean, fk.std_error,
                                    c["lhs"], c["lhs_se"])
    return problems, {"fk_mean": fk.mean, "dpp_lhs": c["lhs"]}


WORKLOADS = {
    "runall_rd": (runall_setup, runall_timed, runall_check),
    "oracle_lq": (lq_setup, lq_timed, lq_check),
    "oneshot_sdde": (sdde_setup, sdde_timed, sdde_check),
}


def environment():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv):
    name, seed, mode, result_path = argv[1], int(argv[2]), argv[3], argv[4]
    setup, timed, check = WORKLOADS[name]
    state = setup(seed)
    ready = time.perf_counter()
    result = {"ready": ready}
    if mode == "setup":
        result["env"] = environment()
    else:
        tracer = None
        if mode == "trace":
            tracer = Tracer(f"{name}-{seed}-{os.getpid()}")
            tracer.install()
        t0 = time.perf_counter()
        out = timed(state, tracer)
        result["wall_s"] = time.perf_counter() - t0
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["problems"], result["facts"] = check(state, out)
        if tracer is not None:
            result["layers"] = tracer.summary()
            result["absent"] = tracer.absent
            tracer.write_spans(Path(result_path).with_suffix(".spans.jsonl"))
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
