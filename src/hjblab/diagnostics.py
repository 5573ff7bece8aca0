"""Numerical audits of value regularity and coupled-trajectory estimates.

The regularity statements these audits target come with unknowable constants,
so every check here tests the FORM of a bound rather than a magic number:
scaling exponents from log-log regressions, finiteness and stability of
estimated constants under sample growth, and per-triple convexity defects
with explicit Monte Carlo slack. Each report says which of those it did.

Value-based scans speak to evaluators with the (t, xs (K, N), seed) ->
samples (K, P) contract from the value layer: the points of one statistic
(a pair, or a scan pair with the midpoints of its whole lambda grid) go in
one call on one seed, so differences of value estimates are paired and their
noise largely cancels.
Trajectory checks couple all variants for the same reason: the legs of one
pair or probe are contestants of one engine call, on one increment block
(seed, stream label, path and step counts), with no block passed around.
Paired means and standard errors all come from value.MCEstimate.from_samples.

Verdicts are three-way: a scan whose extreme statistic is smaller than its
own noise reports inconclusive rather than pass.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .controls import convex_combination, zero_signal
from .engine import gaussian_increments, simulate_ensemble
from .hilbert import semigroup_matrix, space_norm
from .report import PASS, FAIL, INCONCLUSIVE, DiagnosticReport
from .seeds import stream
from .value import MCEstimate

__all__ = [
    "ScanConfig",
    "MidpointProbe",
    "lipschitz_estimate",
    "three_point_defect",
    "semiconcavity_scan",
    "semiconvexity_scan",
    "nu_threshold_scan",
    "c11_modulus",
    "trajectory_stability_check",
    "midpoint_trajectory_check",
    "comparison_check",
]


def _samples(evaluator, t, xs, seed):
    """(K, P) samples at the K points xs, evaluated in one call."""
    xs = np.asarray(xs, dtype=float)
    out = np.asarray(evaluator(t, xs, seed), dtype=float)
    if out.ndim != 2 or out.shape[0] != xs.shape[0]:
        raise ValueError(f"evaluator gave samples of shape {out.shape} for "
                         f"{xs.shape[0]} points; need one row per point")
    return out


# ---------------------------------------------------------------------------
# Lipschitz ratios
# ---------------------------------------------------------------------------


def lipschitz_estimate(
    value_evaluator,
    point_pairs,
    space,
    norm_tag="H",
    b_op=None,
    seed=0,
    declared_bound=None,
    se_mult=3.0,
) -> DiagnosticReport:
    """Largest sampled ratio |V(t,x) - V(t,y)| / ||x - y|| over the pairs.

    point_pairs is a sequence of (t, x, y) sharing one t. Both members of a
    pair are evaluated on the same seed, so the difference is paired and its
    standard error is of the difference. With declared_bound given the
    verdict tests every ratio against bound + se_mult * se; without it the
    scan is an estimate and passes on finiteness alone.
    """
    pairs = list(point_pairs)
    if not pairs:
        raise ValueError("need at least one point pair")
    ts = {float(p[0]) for p in pairs}
    if len(ts) != 1:
        raise ValueError("all pairs must share the same t")
    t = ts.pop()
    norm = space_norm(space, b_op, norm_tag)

    kept = []
    for i, (_, x, y) in enumerate(pairs):
        d = float(norm(np.asarray(x, float) - np.asarray(y, float)))
        if d == 0.0:
            continue
        vx, vy = _samples(value_evaluator, t, [x, y], seed)
        est = MCEstimate.from_samples(vx - vy)
        kept.append((i, (abs(est.mean) / d, est.std_error / d)))
    skipped = len(pairs) - len(kept)
    if not kept:
        return DiagnosticReport(
            name="lipschitz_ratio", verdict=INCONCLUSIVE, samples_used=0,
            constants={"n_pairs": 0, "skipped_pairs": skipped},
            witness=None, tolerance=declared_bound,
            notes="every pair was degenerate",
        )
    ratios = np.array([r[0] for _, r in kept])
    ses = np.array([r[1] for _, r in kept])
    top = int(np.argmax(ratios))
    c_hat = float(ratios[top])
    c_se = float(ses[top])

    if declared_bound is None:
        if c_se > 0 and se_mult * c_se >= c_hat:
            verdict = INCONCLUSIVE
            note = "estimate below its own noise; no declared bound to test"
        else:
            verdict = PASS if np.all(np.isfinite(ratios)) else FAIL
            note = f"finiteness only, norm '{norm_tag}'"
    else:
        bad = ratios > declared_bound + se_mult * ses
        verdict = FAIL if bool(np.any(bad)) else PASS
        note = f"ratio vs declared bound {declared_bound:g}, norm '{norm_tag}'"

    worst_pair = pairs[kept[top][0]]
    return DiagnosticReport(
        name="lipschitz_ratio",
        verdict=verdict,
        samples_used=len(kept),
        constants={
            "c_hat": c_hat, "c_hat_se": c_se,
            "n_pairs": len(kept), "skipped_pairs": skipped,
            "declared_bound": declared_bound,
        },
        witness={
            "t": t,
            "x": np.asarray(worst_pair[1], float).tolist(),
            "y": np.asarray(worst_pair[2], float).tolist(),
            "ratio": c_hat, "se": c_se, "seed": seed,
        },
        tolerance=declared_bound,
        notes=note,
    )


# ---------------------------------------------------------------------------
# convexity defects
# ---------------------------------------------------------------------------


def _defect_samples(evaluator, t, x, x_prime, lams, seed):
    """(L, P) defect samples, one row per lambda, from one evaluator call on
    x, x' and the L midpoints."""
    x, x_prime = np.asarray(x, float), np.asarray(x_prime, float)
    mids = [lam * x + (1.0 - lam) * x_prime for lam in lams]
    vx, vp, *vms = _samples(evaluator, t, [x, x_prime, *mids], seed)
    return np.stack([lam * vx + (1.0 - lam) * vp - vm
                     for lam, vm in zip(lams, vms)])


def three_point_defect(value_evaluator, t, x, x_prime, lam, seed=0) -> float:
    """lam*v(x) + (1-lam)*v(x') - v(lam*x + (1-lam)*x'), positive for convex v.

    The endpoints lam in {0, 1} are algebraic identities and return 0.0
    without touching the evaluator.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    if lam == 0.0 or lam == 1.0:
        return 0.0
    d, = _defect_samples(value_evaluator, t, x, x_prime, [lam], seed)
    return float(d.mean())


@dataclass(frozen=True)
class ScanConfig:
    """Point cloud and lambda grid for the defect scans."""

    n_pairs: int = 30
    radius: float = 1.0
    lambdas: tuple = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    center: Optional[np.ndarray] = None
    se_mult: float = 3.0
    stability_tol: float = 0.2

    def __post_init__(self):
        if self.n_pairs < 2:
            raise ValueError("need at least two pairs for the prefix check")
        if not all(0.0 < l < 1.0 for l in self.lambdas):
            raise ValueError("lambda grid must lie strictly inside (0, 1)")


def _scan_cloud(cfg, dim, seed):
    rng = stream(seed, "scan_cloud", 0)
    center = np.zeros(dim) if cfg.center is None else np.asarray(cfg.center, float)
    return center + cfg.radius * rng.normal(size=(cfg.n_pairs, 2, dim))


def _scan_triples(evaluator, t, space, cfg, norm_tag, b_op, seed):
    """Per-triple (ratio, defect, se, q) rows in pair-major order."""
    norm = space_norm(space, b_op, norm_tag)
    cloud = _scan_cloud(cfg, space.dim, seed)

    rows = []
    for i in range(cfg.n_pairs):
        x, xp = cloud[i, 0], cloud[i, 1]
        q0 = float(norm(x - xp)) ** 2
        defects = _defect_samples(evaluator, t, x, xp, cfg.lambdas, seed)
        for lam, d in zip(cfg.lambdas, defects):
            est = MCEstimate.from_samples(d)
            q = lam * (1.0 - lam) * q0
            rows.append((est.mean / q, est.mean, est.std_error, q, i, lam))
    return cloud, rows


def _prefix_max(values, n_pairs, per_pair):
    half = (n_pairs // 2) * per_pair
    return max(values[:half])


def semiconcavity_scan(value_evaluator, t, space, cfg=None, norm_tag="H",
                       b_op=None, seed=0) -> DiagnosticReport:
    """Estimate the semiconcavity constant as the largest defect ratio.

    C_hat = max over sampled triples of defect / (lam (1-lam) ||x - x'||^2).
    The theorem's constant is unknowable, so the verdict tests form:
    C_hat must be finite and move by less than cfg.stability_tol when the
    sample is cut to its first half (prefix doubling read backwards).
    """
    cfg = cfg or ScanConfig()
    cloud, rows = _scan_triples(value_evaluator, t, space, cfg, norm_tag,
                                b_op, seed)
    ratios = [r[0] for r in rows]
    top = int(np.argmax(ratios))
    c_hat = float(ratios[top])
    c_half = float(_prefix_max(ratios, cfg.n_pairs, len(cfg.lambdas)))
    rel = abs(c_hat - c_half) / max(abs(c_hat), abs(c_half), 1e-12)
    _, defect, se, q, pair_i, lam = rows[top]

    noise_dominated = se > 0 and cfg.se_mult * se >= abs(defect)
    if noise_dominated:
        verdict = INCONCLUSIVE
    elif np.isfinite(c_hat) and rel < cfg.stability_tol:
        verdict = PASS
    else:
        verdict = FAIL
    return DiagnosticReport(
        name=f"semiconcavity_{norm_tag}",
        verdict=verdict,
        samples_used=len(rows),
        constants={
            "c_hat": c_hat, "c_hat_prefix": c_half, "rel_change": float(rel),
            "n_triples": len(rows), "argmax_se": se,
        },
        witness={
            "x": cloud[pair_i, 0].tolist(), "x_prime": cloud[pair_i, 1].tolist(),
            "lambda": lam, "defect": defect, "q": q, "seed": seed,
        },
        tolerance=cfg.stability_tol,
        notes="form test: finiteness and prefix stability, constant is informative",
    )


def semiconvexity_scan(value_evaluator, t, space, cfg=None, norm_tag="H",
                       b_op=None, seed=0, c_bound=0.0) -> DiagnosticReport:
    """Sign-flipped defect scan against an explicit constant.

    Every sampled triple must satisfy -defect <= c_bound * q + slack where
    q = lam (1-lam) ||x - x'||^2 and the slack is se_mult standard errors of
    the defect. c_bound = 0 is a convexity audit; a positive c_bound tests
    semiconvexity with that constant. The worst offender is the witness.
    """
    cfg = cfg or ScanConfig()
    cloud, rows = _scan_triples(value_evaluator, t, space, cfg, norm_tag,
                                b_op, seed)
    margins = []
    for ratio, defect, se, q, i, lam in rows:
        slack = cfg.se_mult * se + 1e-10 * (1.0 + abs(c_bound) * q)
        margins.append((-defect) - c_bound * q - slack)
    top = int(np.argmax(margins))
    worst = float(margins[top])
    _, defect, se, q, pair_i, lam = rows[top]
    flipped_ratios = [-r[0] for r in rows]

    verdict = FAIL if worst > 0.0 else PASS
    return DiagnosticReport(
        name=f"semiconvexity_{norm_tag}",
        verdict=verdict,
        samples_used=len(rows),
        constants={
            "c_hat_flipped": float(max(flipped_ratios)),
            "c_bound": float(c_bound),
            "worst_margin": worst,
            "n_triples": len(rows),
        },
        witness={
            "x": cloud[pair_i, 0].tolist(), "x_prime": cloud[pair_i, 1].tolist(),
            "lambda": lam, "defect": defect, "q": q, "se": se, "seed": seed,
        },
        tolerance=float(c_bound),
        notes="per-triple bound with Monte Carlo slack",
    )


def nu_threshold_scan(make_evaluator, nu_list, t, space, cfg=None,
                      norm_tag="H", b_op=None, seed=0,
                      c_bound=0.0) -> DiagnosticReport:
    """Semiconvexity threshold in the control-cost weight.

    make_evaluator(nu) must return a value evaluator for the problem whose
    quadratic control cost carries weight nu. The same point cloud and seed
    are reused for every nu, so the reported per-nu worst margins are
    directly comparable. nu_star is the smallest nu whose worst margin is
    nonpositive; the scan fails when no nu in the list qualifies.
    """
    nus = [float(v) for v in nu_list]
    if len(nus) < 2 or any(b <= a for a, b in zip(nus, nus[1:])):
        raise ValueError("nu_list must be increasing with at least two entries")
    cfg = cfg or ScanConfig()
    worst_per_nu = []
    for nu in nus:
        rep = semiconvexity_scan(make_evaluator(nu), t, space, cfg=cfg,
                                 norm_tag=norm_tag, b_op=b_op, seed=seed,
                                 c_bound=c_bound)
        worst_per_nu.append(float(rep.constants["worst_margin"]))
    passing = [nu for nu, w in zip(nus, worst_per_nu) if w <= 0.0]
    nu_star = min(passing) if passing else None
    return DiagnosticReport(
        name=f"nu_threshold_{norm_tag}",
        verdict=PASS if nu_star is not None else FAIL,
        samples_used=len(nus) * cfg.n_pairs * len(cfg.lambdas),
        constants={
            "nu_list": nus,
            "worst_margin_per_nu": worst_per_nu,
            "nu_star": nu_star,
            "c_bound": float(c_bound),
        },
        witness=None if nu_star is not None else {"seed": seed},
        tolerance=float(c_bound),
        notes="shared cloud and seed across the nu sweep",
    )


# ---------------------------------------------------------------------------
# gradient modulus
# ---------------------------------------------------------------------------


def c11_modulus(
    value_evaluator,
    gradient_evaluator,
    point_pairs,
    space,
    norm_tag="H",
    b_op=None,
    seed=0,
    c_semiconcave=None,
    c_semiconvex=None,
    se_mult=3.0,
    rel_slack=0.1,
) -> DiagnosticReport:
    """Largest sampled gradient-difference ratio ||DV(x) - DV(y)|| / ||x - y||.

    gradient_evaluator(t, x, seed) returns (gradient, se_vector); pass None
    to derive both from value_evaluator by paired central differences.
    When the two one-sided defect constants are supplied the verdict tests
    the two-sided bound 2 max(c_sc, 0) + 2 max(c_sv, 0) (defect ratios are
    half the quadratic coefficient, hence the factor). Without them the
    check is finiteness only. Identical pairs are skipped and counted.
    """
    if gradient_evaluator is None:
        from .value import gradient_fd

        def gradient_evaluator(gt, gx, gseed):
            return gradient_fd(value_evaluator, gt, gx, seed=gseed,
                               weights=space.weights)

    pairs = list(point_pairs)
    if not pairs:
        raise ValueError("need at least one point pair")
    ts = {float(p[0]) for p in pairs}
    if len(ts) != 1:
        raise ValueError("all pairs must share the same t")
    t = ts.pop()
    norm = space_norm(space, b_op, norm_tag)

    ratios, ses, kept_idx = [], [], []
    skipped = 0
    for i, (_, x, y) in enumerate(pairs):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        d = float(norm(x - y))
        if d == 0.0:
            skipped += 1
            continue
        gx, sx = gradient_evaluator(t, x, seed)
        gy, sy = gradient_evaluator(t, y, seed)
        ratios.append(float(norm(np.asarray(gx) - np.asarray(gy))) / d)
        ses.append(float(norm(np.sqrt(np.asarray(sx) ** 2
                                      + np.asarray(sy) ** 2))) / d)
        kept_idx.append(i)

    if not ratios:
        return DiagnosticReport(
            name=f"c11_modulus_{norm_tag}", verdict=INCONCLUSIVE,
            samples_used=0,
            constants={"n_pairs": 0, "skipped_pairs": skipped},
            witness=None, tolerance=None, notes="every pair was degenerate",
        )
    ratios = np.array(ratios)
    ses = np.array(ses)
    top = int(np.argmax(ratios))
    c_hat = float(ratios[top])

    bound = None
    if c_semiconcave is not None and c_semiconvex is not None:
        bound = 2.0 * max(float(c_semiconcave), 0.0) \
            + 2.0 * max(float(c_semiconvex), 0.0)
        bad = ratios - se_mult * ses > bound * (1.0 + rel_slack)
        verdict = FAIL if bool(np.any(bad)) else PASS
        note = f"two-sided bound {bound:g} with {rel_slack:.0%} slack"
    else:
        verdict = PASS if np.all(np.isfinite(ratios)) else FAIL
        note = "finiteness only (no one-sided constants supplied)"

    worst = pairs[kept_idx[top]]
    return DiagnosticReport(
        name=f"c11_modulus_{norm_tag}",
        verdict=verdict,
        samples_used=len(ratios),
        constants={
            "c_hat": c_hat, "c_hat_se": float(ses[top]),
            "two_sided_bound": bound,
            "n_pairs": len(ratios), "skipped_pairs": skipped,
        },
        witness={
            "t": t, "x": np.asarray(worst[1], float).tolist(),
            "y": np.asarray(worst[2], float).tolist(),
            "ratio": c_hat, "seed": seed,
        },
        tolerance=bound,
        notes=note,
    )


# ---------------------------------------------------------------------------
# coupled-trajectory checks
# ---------------------------------------------------------------------------


def _sup_norm_gap(states_a, states_b, norm):
    """Per-path sup over time of ||X_a(s) - X_b(s)|| (first power)."""
    return np.max(norm(states_a - states_b), axis=-1)


def trajectory_stability_check(
    problem,
    t,
    pairs,
    exponent_grid=None,
    variant="state",
    control=None,
    n_paths=200,
    n_steps=100,
    seed=0,
    norm_tag="H",
    slope_band=(0.9, 1.1),
) -> DiagnosticReport:
    """Scaling audit for E[sup ||X_1 - X_0||^2] against the input gap.

    variant "state": pairs are (x0, x1); the perturbed leg starts at
    x0 + eps (x1 - x0) and shares the control. variant "control": pairs are
    (x0, a0, a1); both legs start at x0 and the perturbed leg runs
    a0 + eps (a1 - a0). Either way the regression of log mean-square sup gap
    on log eps^2 must have slope one: the bound is quadratic in its input
    with a finite prefactor (the intercept), and that form is what is
    testable when the constants are not.

    All legs of all magnitudes ride one shared noise stream, so a degenerate
    pair (zero difference) reproduces the base leg bitwise; those pairs are
    verified to do exactly that and are excluded from the regression.
    """
    if variant not in ("state", "control"):
        raise ValueError("variant must be 'state' or 'control'")
    eps = np.asarray(
        exponent_grid if exponent_grid is not None
        else (1.0, 0.5, 0.25, 0.125, 0.0625), dtype=float)
    if len(eps) < 4:
        raise ValueError("need at least four magnitudes to regress")
    norm = space_norm(problem.space, problem.b_op, norm_tag)
    base_control = control if control is not None \
        else zero_signal(problem.control_spec.dim)

    slopes, intercepts, exact_zero = [], [], 0
    for item in pairs:
        if variant == "state":
            x0, x1 = item
            x0 = np.asarray(x0, float)
            d = np.asarray(x1, float) - x0
            inits = [x0] + [x0 + e * d for e in eps]
            controls = [base_control] * (len(eps) + 1)
            degenerate = float(norm(d)) == 0.0
        else:
            x0, a0, a1 = item
            x0 = np.asarray(x0, float)
            inits = [x0] * (len(eps) + 1)
            controls = [a0] + [convex_combination(a0, a1, float(e)) for e in eps]
            degenerate = a0 is a1
        runs = simulate_ensemble(problem, t, inits, controls, n_paths,
                                 n_steps, seed, "stability")
        base = runs[0].states
        gaps = np.array([
            float(np.mean(_sup_norm_gap(r.states, base, norm) ** 2))
            for r in runs[1:]
        ])
        if degenerate or np.all(gaps == 0.0):
            if np.any(gaps != 0.0):
                slopes.append(float("nan"))
            exact_zero += 1
            continue
        coef = np.polyfit(np.log(eps**2), np.log(gaps), 1)
        slopes.append(float(coef[0]))
        intercepts.append(float(coef[1]))

    if not slopes:
        return DiagnosticReport(
            name=f"trajectory_stability_{variant}_{norm_tag}",
            verdict=INCONCLUSIVE, samples_used=exact_zero,
            constants={"exact_zero_pairs": exact_zero},
            witness=None, tolerance=slope_band,
            notes="every pair was degenerate (differences identically zero)",
        )
    slopes_arr = np.array(slopes)
    devs = np.abs(slopes_arr - 1.0)
    worst = int(np.argmax(np.where(np.isnan(devs), np.inf, devs)))
    in_band = np.all((slopes_arr >= slope_band[0]) & (slopes_arr <= slope_band[1]))
    ok = bool(in_band) and np.all(np.isfinite(intercepts))
    return DiagnosticReport(
        name=f"trajectory_stability_{variant}_{norm_tag}",
        verdict=PASS if ok else FAIL,
        samples_used=len(slopes) * len(eps) * n_paths,
        constants={
            "slopes": [float(s) for s in slopes],
            "intercepts": [float(v) for v in intercepts],
            "eps_grid": eps.tolist(),
            "exact_zero_pairs": exact_zero,
        },
        witness=None if ok else {"pair_index": worst,
                                 "slope": float(slopes_arr[worst]),
                                 "seed": seed},
        tolerance=slope_band,
        notes=f"variant '{variant}', slope of log gap vs log eps^2",
    )


@dataclass(frozen=True)
class MidpointProbe:
    """Inputs for one midpoint comparison: endpoints, mixing weight, controls.

    x_mid is the exact convex combination of the endpoint states and a_mid
    the pointwise combination of the endpoint controls, matching how the
    interpolated trajectory is launched.
    """

    x0: np.ndarray
    x1: np.ndarray
    lam: float
    a0: object
    a1: object

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lambda must lie in [0, 1]")

    @property
    def x_mid(self):
        return self.lam * np.asarray(self.x1, float) \
            + (1.0 - self.lam) * np.asarray(self.x0, float)

    @property
    def a_mid(self):
        return convex_combination(self.a0, self.a1, self.lam)


def _direction_key(x0, x1):
    d = np.asarray(x1, float) - np.asarray(x0, float)
    n = np.linalg.norm(d)
    if n == 0.0:
        return None
    u = d / n
    nz = np.flatnonzero(np.abs(u) > 1e-12)
    if nz.size and u[nz[0]] < 0:
        u = -u
    center = (np.asarray(x0, float) + np.asarray(x1, float)) / 2.0
    return tuple(np.round(u, 9)) + tuple(np.round(center, 9))


def midpoint_trajectory_check(
    problem,
    t,
    probes: Sequence[MidpointProbe],
    n_paths=300,
    n_steps=100,
    seed=0,
    norm_tag="H",
    stability_tol=0.2,
    slope_band=(1.8, 2.2),
    se_mult=3.0,
) -> DiagnosticReport:
    """Audit of the interpolated-trajectory gap E[sup ||X^lam - X_lam||].

    X^lam is the convex combination of the endpoint trajectories, X_lam the
    trajectory launched from the combined state with the combined control;
    all three legs share one noise stream. The estimated constant is
    K_hat = max E[sup gap] / (lam (1-lam) ||x1 - x0||^2); the verdict needs
    endpoint probes (lam 0 or 1) to produce a gap of exactly zero, K_hat to
    be prefix-stable, and collinear probe groups (three or more probes along
    one direction through one center) to regress with slope two in
    log ||x1 - x0||. Affine dynamics collapse the numerator to rounding
    noise; that shows up as K_hat at the floor and is a pass with a note.
    """
    probes = list(probes)
    if not probes:
        raise ValueError("need at least one probe")
    # the bound's right side uses the same norm as the gap, so one norm
    # serves both
    norm = space_norm(problem.space, problem.b_op, norm_tag)

    ratios, prefix_ratios = [], []
    endpoint_bad = None
    rows = []
    for k, pr in enumerate(probes):
        runs = simulate_ensemble(
            problem, t, [np.asarray(pr.x0, float), np.asarray(pr.x1, float),
                         pr.x_mid], [pr.a0, pr.a1, pr.a_mid],
            n_paths, n_steps, seed, "midpoint")
        interp = pr.lam * runs[1].states + (1.0 - pr.lam) * runs[0].states
        est = MCEstimate.from_samples(
            _sup_norm_gap(interp, runs[2].states, norm))
        num = est.mean
        dist2 = float(norm(np.asarray(pr.x1, float)
                           - np.asarray(pr.x0, float))) ** 2
        q = pr.lam * (1.0 - pr.lam) * dist2
        rows.append((num, est.std_error, q))
        if pr.lam in (0.0, 1.0):
            if num != 0.0 and endpoint_bad is None:
                endpoint_bad = {"probe_index": k, "lambda": pr.lam,
                                "numerator": num, "seed": seed}
            continue
        if q > 0.0:
            ratios.append(num / q)
            if k < max(1, len(probes) // 2):
                prefix_ratios.append(num / q)

    k_hat = float(max(ratios)) if ratios else 0.0
    k_half = float(max(prefix_ratios)) if prefix_ratios else k_hat
    rel = abs(k_hat - k_half) / max(abs(k_hat), abs(k_half), 1e-12)
    at_floor = k_hat <= 1e-8

    # collinear groups: same direction and center, three or more sizes
    groups = {}
    for k, pr in enumerate(probes):
        if pr.lam in (0.0, 1.0):
            continue
        key = _direction_key(pr.x0, pr.x1)
        if key is not None:
            groups.setdefault((pr.lam, key), []).append(k)
    slopes = []
    for members in groups.values():
        if len(members) < 3:
            continue
        nums = np.array([rows[k][0] for k in members])
        dists = np.array([
            float(norm(np.asarray(probes[k].x1, float)
                       - np.asarray(probes[k].x0, float)))
            for k in members
        ])
        if np.any(nums <= 0.0) or at_floor:
            continue
        slopes.append(float(np.polyfit(np.log(dists), np.log(nums), 1)[0]))

    top = int(np.argmax([r[0] / r[2] if r[2] > 0 else -np.inf for r in rows])) \
        if ratios else 0
    num_top, se_top, q_top = rows[top]
    noise_dominated = (not at_floor and se_top > 0
                       and se_mult * se_top >= num_top)

    if endpoint_bad is not None:
        verdict = FAIL
        note = "endpoint probe produced a nonzero gap"
    elif noise_dominated:
        verdict = INCONCLUSIVE
        note = "largest gap is below its Monte Carlo noise"
    elif at_floor:
        verdict = PASS
        note = "midpoint gap at rounding floor (affine dynamics)"
    elif rel >= stability_tol:
        verdict = FAIL
        note = "constant unstable under prefix halving"
    elif any(not (slope_band[0] <= s <= slope_band[1]) for s in slopes):
        verdict = FAIL
        note = "collinear group slope outside the quadratic band"
    else:
        verdict = PASS
        note = "stable constant, quadratic scaling confirmed" if slopes \
            else "stable constant (no collinear groups to regress)"

    return DiagnosticReport(
        name=f"midpoint_gap_{norm_tag}",
        verdict=verdict,
        samples_used=len(probes) * 3 * n_paths,
        constants={
            "k_hat": k_hat, "k_hat_prefix": k_half, "rel_change": float(rel),
            "group_slopes": slopes, "n_probes": len(probes),
            "argmax_se": float(se_top),
        },
        witness=endpoint_bad if endpoint_bad is not None else {
            "probe_index": top, "numerator": float(num_top),
            "q": float(q_top), "seed": seed,
        },
        tolerance=stability_tol,
        notes=note,
    )


# ---------------------------------------------------------------------------
# order preservation
# ---------------------------------------------------------------------------


def _as_forcing(f, dim):
    if f is None:
        z = np.zeros(dim)
        return lambda s: z
    if callable(f):
        return lambda s: np.asarray(f(s), dtype=float)
    arr = np.asarray(f, dtype=float)
    if arr.shape != (dim,):
        raise ValueError(f"forcing must have shape ({dim},)")
    return lambda s: arr


def _is_metzler(matrix, tol=1e-12):
    off = matrix - np.diag(np.diag(matrix))
    return float(off.min()) >= -tol


def comparison_check(
    problem,
    x1,
    x2,
    f1,
    f2,
    n_paths=1000,
    n_steps=200,
    seed=0,
    t=0.0,
    strict=True,
    tol_scale=1e-8,
) -> DiagnosticReport:
    """Pathwise ordering audit: larger start and forcing keep the state larger.

    Simulates dX = [A X + r(X) + f_i(s)] ds + sigma dW for the two inputs on
    one noise realization, where A is the problem's operator, r its scalar
    reaction (may be absent) and sigma its additive noise. The control plays
    no role here; the forcings take its place. Internally the loop advances
    Y(s) = e^{C(s-t)} X(s) with C the reaction's Lipschitz constant, which
    makes the per-step reaction map nondecreasing regardless of step size;
    ordering can then only be broken by rounding or a genuinely
    order-breaking operator. Pass iff the minimum of X1 - X2 over paths,
    steps and components stays above -tol_scale * scale.

    strict=True enforces the hypotheses (ordered inputs, Metzler operator,
    additive noise) and raises on violation; strict=False runs anyway, which
    is how a broken hypothesis is demonstrated to break the conclusion.
    """
    dim = problem.dim
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    g1 = _as_forcing(f1, dim)
    g2 = _as_forcing(f2, dim)
    grid = np.linspace(t, problem.horizon, n_steps + 1)
    dt = float(grid[1] - grid[0])

    if not problem.additive_noise:
        raise ValueError("comparison needs additive noise")
    if strict:
        if not np.all(x1 >= x2):
            raise ValueError("initial states are not ordered: need x1 >= x2")
        if not all(np.all(g1(s) >= g2(s)) for s in grid[:-1]):
            raise ValueError("forcings are not ordered: need f1 >= f2")
        if not _is_metzler(problem.op.matrix):
            raise ValueError("operator is not order preserving (off-diagonal "
                             "entries must be nonnegative)")

    c_lip = float(problem.reaction.lipschitz) if problem.reaction else 0.0
    r_fn = problem.reaction.fn if problem.reaction else None
    sigma = np.asarray(problem.noise, dtype=float)
    eA = semigroup_matrix(problem.op, dt)
    dw = gaussian_increments(seed, "comparison", n_paths, n_steps,
                             problem.noise_dim, dt)

    y1 = np.tile(x1, (n_paths, 1))
    y2 = np.tile(x2, (n_paths, 1))
    min_margin = float(np.min(x1 - x2))
    witness = {"step": 0, "time": float(t), "path": 0,
               "component": int(np.argmin(x1 - x2)), "seed": seed}
    sup_scale = max(float(np.max(np.abs(x1))), float(np.max(np.abs(x2))), 1.0)

    for k in range(n_steps):
        s = float(grid[k])
        scale = math.exp(c_lip * (s - t))
        noise = dw[:, k] @ sigma.T
        for y, g in ((y1, g1), (y2, g2)):
            drift = c_lip * y + scale * g(s)
            if r_fn is not None:
                drift = drift + scale * r_fn(y / scale)
            y += dt * drift + scale * noise
        y1 = y1 @ eA.T
        y2 = y2 @ eA.T
        scale_next = math.exp(c_lip * (grid[k + 1] - t))
        gap = (y1 - y2) / scale_next
        step_min = float(gap.min())
        if step_min < min_margin:
            flat = int(np.argmin(gap))
            witness = {"step": k + 1, "time": float(grid[k + 1]),
                       "path": flat // dim, "component": flat % dim,
                       "seed": seed}
            min_margin = step_min
        sup_scale = max(sup_scale, float(np.max(np.abs(y1))) / scale_next,
                        float(np.max(np.abs(y2))) / scale_next)

    tol = tol_scale * sup_scale
    ok = min_margin >= -tol
    return DiagnosticReport(
        name="order_preservation",
        verdict=PASS if ok else FAIL,
        samples_used=n_paths * (n_steps + 1),
        constants={
            "min_margin": min_margin, "tol": tol, "sup_scale": sup_scale,
            "reaction_lipschitz": c_lip,
        },
        witness=witness,
        tolerance=tol,
        notes="exponential transform loop"
        + ("" if strict else "; hypotheses not enforced"),
    )
