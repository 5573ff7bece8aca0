"""Numerical audits of value regularity and coupled-trajectory estimates.

The regularity statements these audits target come with unknowable constants,
so every check here tests the FORM of a bound rather than a magic number:
scaling exponents from log-log regressions, finiteness and stability of
estimated constants under sample growth, and per-triple convexity defects
with explicit Monte Carlo slack. Each report says which of those it did.

Value-based scans speak to evaluators with the (t, xs (K, N), seed) ->
samples (K, P) contract from the value layer: the points of one statistic
(every pair of the Lipschitz scan, or a scan pair with the midpoints of its
whole lambda grid) go in one call on one seed, so differences of value
estimates are paired and their noise largely cancels.
Trajectory checks couple all variants for the same reason: the legs of one
stability pair or midpoint segment, or the two ordered inputs of the
comparison check, are contestants of one engine call, on one increment block
(seed, stream label, path and step counts), with no block passed around.
The midpoint check audits one family of segments, one radius each, through
a common centre along a common direction; that family is also the one its
scaling regression runs over.
Paired means and standard errors all come from value.MCEstimate.from_samples.

Verdicts are three-way: a scan whose extreme statistic is smaller than its
own noise reports inconclusive rather than pass.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .controls import ConstantSignal, zero_signal
from .engine import simulate_sup
from .hilbert import h_norm, space_norm
from .report import PASS, FAIL, INCONCLUSIVE, DiagnosticReport
from .seeds import derive_seed, stream
from .value import MCEstimate, below_noise_floor, gradient_fd

__all__ = [
    "ScanConfig",
    "lipschitz_estimate",
    "semiconcavity_scan",
    "semiconvexity_scan",
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
    t,
    pairs,
    space,
    norm_tag="H",
    b_op=None,
    seed=0,
    declared_bound=None,
    se_mult=3.0,
) -> DiagnosticReport:
    """Largest sampled ratio |V(t,x) - V(t,y)| / ||x - y|| over the pairs.

    pairs is a nonempty sequence of (x, y), all at time t. The points of
    every pair with x != y go to the evaluator in one call on one seed, so
    each difference is paired and its standard error is of the difference;
    a pair with x == y is skipped and counted. With declared_bound given the
    verdict tests every ratio against bound + se_mult * se; without it the
    scan is an estimate and passes on finiteness alone.
    """
    if not pairs:
        raise ValueError("need at least one point pair")
    norm = space_norm(space, b_op, norm_tag)

    dists = [float(norm(np.asarray(x, float) - np.asarray(y, float)))
             for x, y in pairs]
    live = [i for i, d in enumerate(dists) if d != 0.0]
    kept = []
    if live:
        # every pair's two points in one call, x then y for each pair
        samples = _samples(value_evaluator, t,
                           [p for i in live for p in pairs[i]], seed)
        for i, vx, vy in zip(live, samples[0::2], samples[1::2]):
            est = MCEstimate.from_samples(vx - vy)
            kept.append((i, (abs(est.mean) / dists[i], est.std_error / dists[i])))
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
            "x": np.asarray(worst_pair[0], float).tolist(),
            "y": np.asarray(worst_pair[1], float).tolist(),
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


# the mixing weights of every scan pair's midpoints
_LAMBDAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


@dataclass(frozen=True)
class ScanConfig:
    """Point cloud for the defect scans."""

    n_pairs: int = 30
    radius: float = 1.0
    center: Optional[np.ndarray] = None
    se_mult: float = 3.0
    stability_tol: float = 0.2

    def __post_init__(self):
        if self.n_pairs < 2:
            raise ValueError("need at least two pairs for the prefix check")


def _scan_cloud(cfg, dim, seed):
    rng = stream(seed, "scan_cloud", 0)
    center = np.zeros(dim) if cfg.center is None else np.asarray(cfg.center, float)
    return center + cfg.radius * rng.normal(size=(cfg.n_pairs, 2, dim))


def _scan_triples(evaluator, t, space, cfg, seed):
    """Per-triple (ratio, defect, se, q) rows in pair-major order; q is in the
    space's norm."""
    cloud = _scan_cloud(cfg, space.dim, seed)

    rows = []
    for i in range(cfg.n_pairs):
        x, xp = cloud[i, 0], cloud[i, 1]
        q0 = float(h_norm(space, x - xp)) ** 2
        defects = _defect_samples(evaluator, t, x, xp, _LAMBDAS, seed)
        for lam, d in zip(_LAMBDAS, defects):
            est = MCEstimate.from_samples(d)
            q = lam * (1.0 - lam) * q0
            rows.append((est.mean / q, est.mean, est.std_error, q, i, lam))
    return cloud, rows


def semiconcavity_scan(value_evaluator, t, space, cfg=None,
                       seed=0) -> DiagnosticReport:
    """Estimate the semiconcavity constant as the largest defect ratio.

    C_hat = max over sampled triples of defect / (lam (1-lam) ||x - x'||^2),
    in the space's norm.
    The theorem's constant is unknowable, so the verdict tests form:
    C_hat must be finite and move by less than cfg.stability_tol when the
    sample is cut to its first half (prefix doubling read backwards).
    """
    cfg = cfg or ScanConfig()
    cloud, rows = _scan_triples(value_evaluator, t, space, cfg, seed)
    ratios = [r[0] for r in rows]
    top = int(np.argmax(ratios))
    c_hat = float(ratios[top])
    # rows are pair-major, so the first half of the pairs is a prefix
    c_half = float(max(ratios[:(cfg.n_pairs // 2) * len(_LAMBDAS)]))
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
        name="semiconcavity_H",
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


def semiconvexity_scan(value_evaluator, t, space, cfg=None, seed=0,
                       c_bound=0.0) -> DiagnosticReport:
    """Sign-flipped defect scan against an explicit constant.

    Every sampled triple must satisfy -defect <= c_bound * q + slack where
    q = lam (1-lam) ||x - x'||^2 in the space's norm and the slack is
    se_mult standard errors of the defect. c_bound = 0 is a convexity audit;
    a positive c_bound tests semiconvexity with that constant. The worst
    offender is the witness.
    """
    cfg = cfg or ScanConfig()
    cloud, rows = _scan_triples(value_evaluator, t, space, cfg, seed)
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
        name="semiconvexity_H",
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


# ---------------------------------------------------------------------------
# gradient modulus
# ---------------------------------------------------------------------------


def c11_modulus(
    value_evaluator,
    gradient_evaluator,
    t,
    pairs,
    space,
    seed=0,
    c_semiconcave=None,
    c_semiconvex=None,
    se_mult=3.0,
) -> DiagnosticReport:
    """Largest sampled gradient-difference ratio ||DV(t,x) - DV(t,y)|| /
    ||x - y|| in the space's norm, over a nonempty sequence of pairs (x, y).

    gradient_evaluator(t, x, seed) returns (gradient, se_vector); pass None
    to derive both from value_evaluator by paired central differences.
    When the two one-sided defect constants are supplied the verdict tests
    the two-sided bound 2 max(c_sc, 0) + 2 max(c_sv, 0) (defect ratios are
    half the quadratic coefficient, hence the factor) with 10% slack on the
    bound. Without them the check is finiteness only. Identical pairs are
    skipped and counted. The report also counts the gradient calls with a
    component below the Monte Carlo noise floor (value.below_noise_floor):
    the calls on which value.gradient_fd warns, so those warnings show on
    the report and not only on stderr.
    """
    if not pairs:
        raise ValueError("need at least one point pair")
    if gradient_evaluator is None:
        def gradient_evaluator(gt, gx, gseed):
            return gradient_fd(value_evaluator, gt, gx, seed=gseed,
                               weights=space.weights)

    ratios, ses, kept_idx = [], [], []
    skipped = noisy = 0
    for i, (x, y) in enumerate(pairs):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        d = float(h_norm(space, x - y))
        if d == 0.0:
            skipped += 1
            continue
        gx, sx = gradient_evaluator(t, x, seed)
        gy, sy = gradient_evaluator(t, y, seed)
        noisy += sum(bool(np.any(below_noise_floor(g, s)))
                     for g, s in ((gx, sx), (gy, sy)))
        ratios.append(float(h_norm(space, np.asarray(gx) - np.asarray(gy))) / d)
        ses.append(float(h_norm(space, np.sqrt(np.asarray(sx) ** 2
                                               + np.asarray(sy) ** 2))) / d)
        kept_idx.append(i)

    if not ratios:
        return DiagnosticReport(
            name="c11_modulus_H", verdict=INCONCLUSIVE,
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
        bad = ratios - se_mult * ses > bound * 1.1
        verdict = FAIL if bool(np.any(bad)) else PASS
        note = f"two-sided bound {bound:g} with 10% slack"
    else:
        verdict = PASS if np.all(np.isfinite(ratios)) else FAIL
        note = "finiteness only (no one-sided constants supplied)"

    worst = pairs[kept_idx[top]]
    return DiagnosticReport(
        name="c11_modulus_H",
        verdict=verdict,
        samples_used=len(ratios),
        constants={
            "c_hat": c_hat, "c_hat_se": float(ses[top]),
            "two_sided_bound": bound,
            "n_pairs": len(ratios), "skipped_pairs": skipped,
            "noise_floor_gradients": noisy,
        },
        witness={
            "t": t, "x": np.asarray(worst[0], float).tolist(),
            "y": np.asarray(worst[1], float).tolist(),
            "ratio": c_hat, "seed": seed,
        },
        tolerance=bound,
        notes=note,
    )


# ---------------------------------------------------------------------------
# coupled-trajectory checks
# ---------------------------------------------------------------------------


# the input magnitudes eps of the stability regression, and the band its
# slope must fall in
_STABILITY_EPS = (1.0, 0.5, 0.25, 0.125, 0.0625)
_STABILITY_SLOPE_BAND = (0.9, 1.1)


def trajectory_stability_check(
    problem,
    t,
    pairs,
    n_paths=200,
    n_steps=100,
    seed=0,
    norm_tag="H",
) -> DiagnosticReport:
    """Scaling audit for E[sup ||X_1 - X_0||^2] against the initial gap.

    Pairs are (x0, x1); the perturbed leg starts at x0 + eps (x1 - x0) and
    both legs run the zero signal, as the paper's estimates perturb the
    initial state and keep the control fixed. The regression of log
    mean-square sup gap on log eps^2 over _STABILITY_EPS must have slope
    one, within _STABILITY_SLOPE_BAND: the bound is quadratic in the gap
    with a finite prefactor (the intercept), and that form is what is
    testable when the constants are not.

    All legs of all magnitudes ride one shared noise stream, so a degenerate
    pair (zero difference) reproduces the base leg bitwise; those pairs are
    verified to do exactly that and are excluded from the regression. The
    engine keeps each path's sup over time of every leg's gap as it steps
    (engine.simulate_sup), so no state path is recorded.
    """
    if len(pairs) == 0:
        raise ValueError("need at least one point pair")
    eps = np.asarray(_STABILITY_EPS)
    norm = space_norm(problem.space, problem.b_op, norm_tag)
    controls = [zero_signal(problem.control_spec.dim)] * (len(eps) + 1)

    def leg_gaps(X):
        return norm(X[1:] - X[0]).T

    slopes, intercepts, exact_zero = [], [], 0
    for x0, x1 in pairs:
        x0 = np.asarray(x0, float)
        d = np.asarray(x1, float) - x0
        inits = [x0] + [x0 + e * d for e in eps]
        sup_gap, _ = simulate_sup(problem, t, inits, controls, n_paths, n_steps,
                                  seed, "stability", leg_gaps, len(eps))
        gaps = np.array([float(np.mean(sup_gap[:, i] ** 2))
                         for i in range(len(eps))])
        if float(norm(d)) == 0.0 or np.all(gaps == 0.0):
            if np.any(gaps != 0.0):
                slopes.append(float("nan"))
            exact_zero += 1
            continue
        coef = np.polyfit(np.log(eps**2), np.log(gaps), 1)
        slopes.append(float(coef[0]))
        intercepts.append(float(coef[1]))

    if not slopes:
        return DiagnosticReport(
            name=f"trajectory_stability_state_{norm_tag}",
            verdict=INCONCLUSIVE, samples_used=exact_zero,
            constants={"exact_zero_pairs": exact_zero},
            witness=None, tolerance=_STABILITY_SLOPE_BAND,
            notes="every pair was degenerate (differences identically zero)",
        )
    slopes_arr = np.array(slopes)
    devs = np.abs(slopes_arr - 1.0)
    worst = int(np.argmax(np.where(np.isnan(devs), np.inf, devs)))
    lo, hi = _STABILITY_SLOPE_BAND
    in_band = np.all((slopes_arr >= lo) & (slopes_arr <= hi))
    ok = bool(in_band) and np.all(np.isfinite(intercepts))
    return DiagnosticReport(
        name=f"trajectory_stability_state_{norm_tag}",
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
        tolerance=_STABILITY_SLOPE_BAND,
        notes="variant 'state', slope of log gap vs log eps^2",
    )


def midpoint_trajectory_check(
    problem,
    t,
    center,
    direction,
    radii,
    n_paths=300,
    n_steps=100,
    seed=0,
    norm_tag="H",
    stability_tol=0.2,
    se_mult=3.0,
) -> DiagnosticReport:
    """Audit of the midpoint gap E[sup ||X^mid - X_mid||] on the segments
    [x0, x1] = [center - r direction, center + r direction], one per radius.

    X^mid is the average of the two endpoint trajectories, X_mid the
    trajectory launched from the segment's midpoint; all three legs run the
    zero signal on one noise stream, in one engine call per radius, which
    keeps each path's sup over time of the gap as it steps
    (engine.simulate_sup) and records no state path. The estimated constant
    is K_hat = max E[sup gap] / q with q = ||x1 - x0||^2 / 4; the verdict
    needs K_hat to be stable when the radii are cut to their first half, in
    the order given, and with three or more radii the regression of
    log E[sup gap] on log ||x1 - x0|| to have a slope in [1.8, 2.2]. Affine
    dynamics collapse the numerator to rounding noise; that shows up as
    K_hat at the floor and is a pass with a note. The report's probe counts
    and indices are over the radii.
    """
    if len(radii) == 0:
        raise ValueError("need at least one radius")
    # the bound's right side uses the same norm as the gap, so one norm
    # serves both
    norm = space_norm(problem.space, problem.b_op, norm_tag)
    center = np.asarray(center, float)
    direction = np.asarray(direction, float)
    zero = zero_signal(problem.control_spec.dim)

    def midpoint_gap(X):
        return norm(0.5 * X[1] + 0.5 * X[0] - X[2])[:, None]

    rows = []
    for r in radii:
        x0, x1 = center - r * direction, center + r * direction
        dist = float(norm(x1 - x0))
        if dist == 0.0:
            raise ValueError(f"the segment of radius {r:g} is degenerate")
        sup_gap, _ = simulate_sup(problem, t, [x0, x1, 0.5 * x1 + 0.5 * x0],
                                  [zero] * 3, n_paths, n_steps, seed, "midpoint",
                                  midpoint_gap, 1)
        est = MCEstimate.from_samples(sup_gap[:, 0])
        rows.append((est.mean, est.std_error, 0.25 * dist ** 2, dist))

    ratios = [num / q for num, _, q, _ in rows]
    k_hat = float(max(ratios))
    k_half = float(max(ratios[:max(1, len(ratios) // 2)]))
    rel = abs(k_hat - k_half) / max(abs(k_hat), abs(k_half), 1e-12)
    at_floor = k_hat <= 1e-8

    nums = np.array([row[0] for row in rows])
    slopes = []
    if len(rows) >= 3 and not (np.any(nums <= 0.0) or at_floor):
        dists = np.array([row[3] for row in rows])
        slopes.append(float(np.polyfit(np.log(dists), np.log(nums), 1)[0]))

    top = int(np.argmax(ratios))
    num_top, se_top, q_top, _ = rows[top]
    noise_dominated = (not at_floor and se_top > 0
                       and se_mult * se_top >= num_top)

    if noise_dominated:
        verdict = INCONCLUSIVE
        note = "largest gap is below its Monte Carlo noise"
    elif at_floor:
        verdict = PASS
        note = "midpoint gap at rounding floor (affine dynamics)"
    elif rel >= stability_tol:
        verdict = FAIL
        note = "constant unstable under prefix halving"
    elif any(not (1.8 <= s <= 2.2) for s in slopes):
        verdict = FAIL
        note = "collinear group slope outside the quadratic band"
    else:
        verdict = PASS
        note = "stable constant, quadratic scaling confirmed" if slopes \
            else "stable constant (no collinear groups to regress)"

    return DiagnosticReport(
        name=f"midpoint_gap_{norm_tag}",
        verdict=verdict,
        samples_used=len(rows) * 3 * n_paths,
        constants={
            "k_hat": k_hat, "k_hat_prefix": k_half, "rel_change": float(rel),
            "group_slopes": slopes, "n_probes": len(rows),
            "argmax_se": float(se_top),
        },
        witness={
            "probe_index": top, "numerator": float(num_top),
            "q": float(q_top), "seed": seed,
        },
        tolerance=stability_tol,
        notes=note,
    )


# ---------------------------------------------------------------------------
# order preservation
# ---------------------------------------------------------------------------


# the paths run in chunks, each its own noise request, of as many rows as
# both contestants' states over every step would fit in this many bytes: no
# state is recorded any more, so the budget fixes the chunks and so the seeds
# of each path (part of the frozen seed mapping), not the audit's memory
_COMPARISON_CHUNK_BYTES = 16 * 2**20
# the ordering tolerance, relative to the largest state magnitude
_COMPARISON_TOL_SCALE = 1e-8


def comparison_check(
    problem,
    x1,
    x2,
    f1,
    f2,
    n_paths=1000,
    n_steps=200,
    seed=0,
    strict=True,
) -> DiagnosticReport:
    """Pathwise ordering audit: larger start and forcing keep the state larger.

    Runs dX = [A X + r(X) + f_i] ds + sigma dW on [0, T] from the two inputs
    as two contestants of one engine call, on one noise realization; the
    drift is r(x) - a, so the constant forcing f_i (an array, or None for
    zero) enters as the control a = -f_i. The explicit step keeps order when
    E_dt >= 0 entrywise (a Metzler generator) and x + dt r(x) is
    nondecreasing, which dt L <= 1 gives for the reaction's slope bound L.
    Pass iff the minimum of X1 - X2 over paths, steps and components stays
    above -_COMPARISON_TOL_SCALE * sup |X|. The engine keeps, per path and
    component, the running maximum of -(X1 - X2) and the first step at it,
    and per path the largest |X| (engine.simulate_sup), so no state path is
    recorded; the witness is the first minimum in (path, step, component)
    order, and min_margin carries its bits, the sign of a zero included.
    Paths run in chunks of the rows whose two state paths would fill
    _COMPARISON_CHUNK_BYTES, chunk j on seed derive_seed(seed, "comparison",
    j).

    strict=True enforces the hypotheses (ordered inputs, Metzler operator,
    a declared reaction with a control channel of -I, dt L <= 1) and raises
    on violation; strict=False runs anyway, which is how a broken hypothesis
    is demonstrated to break the conclusion.
    """
    dim = problem.dim
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    f1, f2 = (np.zeros(dim) if f is None else np.asarray(f, dtype=float)
              for f in (f1, f2))
    dt = problem.horizon / n_steps
    lip = float(problem.reaction.lipschitz) if problem.reaction else 0.0

    if not problem.additive_noise:
        raise ValueError("comparison needs additive noise")
    if n_paths < 1:
        raise ValueError("comparison needs at least one path")
    if strict:
        if not np.all(x1 >= x2):
            raise ValueError("initial states are not ordered: need x1 >= x2")
        if not np.all(f1 >= f2):
            raise ValueError("forcings are not ordered: need f1 >= f2")
        if problem.op.matrix[~np.eye(dim, dtype=bool)].min(initial=0.0) < -1e-12:
            raise ValueError("operator is not order preserving (off-diagonal "
                             "entries must be nonnegative)")
        cost = problem.cost_structure
        if (problem.reaction is None or cost is None
                or not np.array_equal(cost.control_matrix, -np.eye(dim))):
            raise ValueError("drift is not of the form r(x) - a: need a "
                             "declared reaction and a control channel of -I")
        if dt * lip > 1.0:
            raise ValueError(f"explicit step is not order preserving: dt * L "
                             f"= {dt * lip:.3g} exceeds 1")

    def order_gap(X):
        # -(X1 - X2) per component, whose maximum is minus the minimum of
        # X1 - X2 with its bits, a zero's sign included; then the row's
        # largest |X| over both contestants
        stat = np.empty((X.shape[1], dim + 1))
        np.negative(X[0] - X[1], out=stat[:, :dim])
        stat[:, dim] = np.abs(X).max(axis=(0, 2))
        return stat

    controls = [ConstantSignal(-f1), ConstantSignal(-f2)]
    max_rows = max(1, _COMPARISON_CHUNK_BYTES // (2 * (n_steps + 1) * dim * 8))
    n_chunks = -(-n_paths // max_rows)
    bounds = [n_paths * j // n_chunks for j in range(n_chunks + 1)]
    min_margin, witness, sup_scale = math.inf, None, 1.0
    for j, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        peak, first = simulate_sup(problem, 0.0, [x1, x2], controls, hi - lo,
                                   n_steps, derive_seed(seed, "comparison", j),
                                   "comparison", order_gap, dim + 1)
        sup_scale = max(sup_scale, float(peak[:, dim].max()))
        flipped = peak[:, :dim]
        # the first minimum of X1 - X2 in (path, step, component) order: the
        # first path that reaches it, its earliest step there, and the
        # smallest component at that step
        at_top = flipped == flipped.max()
        path = int(np.argmax(at_top.any(axis=1)))
        components = np.flatnonzero(at_top[path])
        component = int(components[np.argmin(first[path, components])])
        step = int(first[path, component])
        margin = -float(flipped[path, component])
        if margin < min_margin:
            min_margin = margin
            # the engine's time grid point t + step * dt at t = 0
            witness = {"step": step, "time": dt * step, "path": lo + path,
                       "component": component, "seed": seed}

    tol = _COMPARISON_TOL_SCALE * sup_scale
    ok = min_margin >= -tol
    return DiagnosticReport(
        name="order_preservation",
        verdict=PASS if ok else FAIL,
        samples_used=n_paths * (n_steps + 1),
        constants={
            "min_margin": min_margin, "tol": tol, "sup_scale": sup_scale,
            "reaction_lipschitz": lip, "dt_lipschitz": dt * lip,
        },
        witness=witness,
        tolerance=tol,
        notes="two contestants of the engine's step loop"
        + ("" if strict else "; hypotheses not enforced"),
    )
