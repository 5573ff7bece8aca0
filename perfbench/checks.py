"""Correctness checks for the benchmark's workloads.

Each check returns its problems; an empty result is a pass. The checks
take plain numbers and strings so that negative_controls.py can feed them
corrupted inputs and show that each one can fail.
"""

import math

# Standard errors of slack in the statistical checks. The benchmark takes
# any seed and one measurement runs dozens of them, so a check must almost
# never fail a correct program; at 3 SE these checks did now and then.
# - oracle_lq: the nine value_family rows share one seed and so one noise
#   draw. On 1 of 21 seeds they all sat about 2 SE high, and the worst row
#   was 3.01 SE off, outside c1's tolerance.
# - oneshot_sdde: the cost of the delay lift has a heavy right tail. On 2 of
#   47 seeds the Feynman-Kac mean was more than 3 combined SE from the
#   2000-path dpp left-hand side, at most 3.5 SE.
# The negative controls still fail by far more.
SE_MULT = 5.0


def check_runall(exit_code, verdicts, reference_names):
    """run-all must exit 0 with every verdict PASS and no audit that the
    reference run produced missing. Added audits are allowed."""
    problems = []
    if exit_code != 0:
        problems.append(f"run-all exited {exit_code}")
    for name, verdict in verdicts.items():
        if verdict != "pass":
            problems.append(f"report {name} verdict {verdict}")
    for name in reference_names:
        if name not in verdicts:
            problems.append(f"report {name} missing")
    return problems


def check_replay(manifests):
    """Runs of one seed must write bitwise-identical manifest.json files.
    Returns {run index: problem} for each run that differs from the first."""
    return {i: f"manifest of run {i} differs from run 0"
            for i, m in enumerate(manifests) if m != manifests[0]}


def files_changed(files, reference_files):
    """Artifacts whose sha256 differs from the reference, plus artifacts
    present on one side only. Reported, never a failure."""
    names = set(files) | set(reference_files)
    return sum(files.get(n) != reference_files.get(n) for n in names)


def oracle_tolerance(truth, se):
    """The c1 acceptance tolerance, 5% of the truth or 3 standard errors,
    with SE_MULT standard errors in place of 3."""
    return max(0.05 * abs(truth), SE_MULT * se)


def check_oracle(rows, converged):
    """rows: (what, t, x, estimate, std_error, truth). Every err/tol <= 1
    and policy iteration converged."""
    problems = []
    if not rows:
        problems.append("no estimates to check")
    for what, t, x, est, se, truth in rows:
        ratio = abs(est - truth) / oracle_tolerance(truth, se)
        if not ratio <= 1.0:
            problems.append(f"{what} at t={t:g} x={x:g}: err/tol {ratio:.2f}")
    if not converged:
        problems.append("policy iteration did not converge")
    return problems


def check_oneshot(dpp_verdict, fk_mean, fk_se, lhs_mean, lhs_se):
    """dpp_check passes, and the Feynman-Kac mean agrees with the dpp
    left-hand side (an independent stream) within SE_MULT combined SE."""
    problems = []
    if dpp_verdict != "pass":
        problems.append(f"dpp_check verdict {dpp_verdict}")
    gap = abs(fk_mean - lhs_mean)
    tol = SE_MULT * math.hypot(fk_se, lhs_se)
    if not gap <= tol:
        problems.append(f"Feynman-Kac {fk_mean:.6g} vs dpp lhs {lhs_mean:.6g}: "
                        f"gap {gap:.3g} > {tol:.3g}")
    return problems
