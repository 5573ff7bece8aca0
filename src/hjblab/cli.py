"""Config-driven experiment runner.

One INI config describes a whole run: the problem instance, simulation
budgets, value-estimation knobs, which diagnostic scans to execute, and
where the artifacts go. Every default is materialized into the resolved
config written next to the outputs, so a published run replays from that
single file. No artifact contains a timestamp; rerunning a config with the
same seed reproduces every output byte for byte.

Exit status: 0 when every report passes, 1 on any fail or inconclusive
verdict, 2 on configuration or stage errors.
"""

import argparse
import configparser
import dataclasses
import hashlib
import inspect
import json
import os
import sys

import numpy as np

from . import diagnostics as dg
from .engine import moment_bound_check, simulate_ensemble, write_ensemble_csv
from .hilbert import check_b_condition, check_positivity_preserving
from .models import (
    build_lq_benchmark,
    build_reaction_diffusion,
    build_sdde_lift,
    riccati_solve,
)
from .report import all_pass, format_report_lines, write_csv, write_reports_json
from .seeds import derive_seed, stream
from .synthesis import (
    DppConfig,
    dpp_check,
    make_riccati_policy,
    scale_policy,
    verify_optimality,
    zero_policy,
)
from .value import (
    ControlFamily,
    below_noise_floor,
    estimate_value_family,
    gradient_fd,
    make_policy_evaluator,
    truncation_scan,
)


_BUILDERS = {
    "lq": build_lq_benchmark,
    "reaction_diffusion": build_reaction_diffusion,
    "sdde": build_sdde_lift,
}

SCAN_NAMES = (
    "structural",
    "lipschitz",
    "semiconcavity",
    "semiconvexity",
    "c11",
    "stability",
    "midpoint",
    "dpp",
)

DEFAULT_SCANS = ("structural", "lipschitz", "semiconcavity", "stability",
                 "midpoint")

SECTIONS = ("problem", "simulation", "value", "diagnostics", "output")

SIMULATION_SCHEMA = {
    "n_paths": ("int", 10000),
    "n_steps": ("int", 200),
    "master_seed": ("int", 42),
}

VALUE_SCHEMA = {
    "family_size": ("int", 12),
    "n_segments": ("int", 4),
    "truncation_list": ("floatlist", (2.0, 4.0, 8.0)),
    "fd_step": ("optfloat", None),
    "gain_scale": ("float", 1.0),
}

DIAGNOSTICS_SCHEMA = {
    "scans": ("strlist", DEFAULT_SCANS),
    "n_pairs": ("int", 8),
    "radius": ("float", 0.8),
    "se_mult": ("float", 3.0),
    "stability_tol": ("float", 0.2),
    "c_bound": ("float", 0.0),
    "eval_paths": ("int", 400),
    "eval_steps": ("int", 60),
    "probe_paths": ("int", 150),
}

OUTPUT_SCHEMA = {
    "directory": ("str", "hjblab_out"),
    "formats": ("strlist", ("json", "csv", "txt")),
}


def _problem_schema(kind):
    """Allowed [problem] keys for a kind, read off the builder signature."""
    schema = {"kind": ("str", "lq")}
    for pname, param in inspect.signature(_BUILDERS[kind]).parameters.items():
        if pname in ("name", "kernel"):
            continue  # not representable in a flat text config
        d = param.default
        if isinstance(d, bool):
            raise AssertionError("no boolean builder parameters expected")
        if isinstance(d, int):
            schema[pname] = ("int", d)
        elif isinstance(d, float):
            schema[pname] = ("float", d)
        elif isinstance(d, str):
            schema[pname] = ("str", d)
        elif d is None:
            schema[pname] = ("optfloat", None)
    return schema


def _parse_value(raw, tag, key, section):
    raw = raw.strip()
    try:
        if tag == "int":
            return int(raw)
        if tag == "float":
            return float(raw)
        if tag == "optfloat":
            return None if raw.lower() in ("none", "") else float(raw)
        if tag == "floatlist":
            return tuple(float(p) for p in raw.split(",") if p.strip())
        if tag == "strlist":
            return tuple(p.strip() for p in raw.split(",") if p.strip())
        return raw
    except ValueError:
        raise ValueError(
            f"key '{key}' in [{section}] expects {tag}, got {raw!r}"
        ) from None


def _format_value(v):
    if v is None:
        return "none"
    if isinstance(v, tuple):
        return ", ".join(str(p) for p in v)
    return str(v)


def _read_section(cp, section, schema):
    present = dict(cp.items(section)) if cp.has_section(section) else {}
    for key in present:
        if key not in schema:
            raise ValueError(
                f"unknown key '{key}' in [{section}]; allowed keys: "
                f"{', '.join(sorted(schema))}"
            )
    out = {}
    for key, (tag, default) in schema.items():
        if key in present:
            out[key] = _parse_value(present[key], tag, key, section)
        else:
            out[key] = default
    return out


@dataclasses.dataclass
class ExperimentConfig:
    """One run, fully resolved: every key present, every default explicit."""

    problem: dict
    simulation: dict
    value: dict
    diagnostics: dict
    output: dict

    @property
    def kind(self):
        return self.problem["kind"]

    @property
    def master_seed(self):
        return self.simulation["master_seed"]


def default_config(kind="lq"):
    """The config of a kind with every other key at its default."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_dict({"problem": {"kind": kind}})
    return _config_from(cp)


def _validate(cfg: ExperimentConfig):
    sim = cfg.simulation
    for key in ("n_paths", "n_steps"):
        if sim[key] < 1:
            raise ValueError(f"key '{key}' in [simulation] must be positive")
    trunc = cfg.value["truncation_list"]
    if (len(trunc) < 3 or trunc[0] <= 0
            or any(b <= a for a, b in zip(trunc, trunc[1:]))):
        raise ValueError("key 'truncation_list' in [value] must hold at least "
                         "three strictly increasing positive radii")
    for key in ("family_size", "n_segments"):
        if cfg.value[key] < 1:
            raise ValueError(f"key '{key}' in [value] must be positive")
    # the prefix check needs two pairs, the scans a positive radius and a
    # step; evaluations and probes need two paths, since one gives a zero
    # standard error and a vacuous pass, as a negative se_mult does by
    # flipping the sign of every slack
    for key in ("n_pairs", "eval_paths", "probe_paths"):
        if cfg.diagnostics[key] < 2:
            raise ValueError(f"key '{key}' in [diagnostics] must be at least 2")
    for key in ("radius", "eval_steps"):
        if not cfg.diagnostics[key] > 0:
            raise ValueError(f"key '{key}' in [diagnostics] must be positive")
    if not cfg.diagnostics["se_mult"] >= 0:
        raise ValueError("key 'se_mult' in [diagnostics] must be nonnegative")
    for scan in cfg.diagnostics["scans"]:
        if scan not in SCAN_NAMES:
            raise ValueError(
                f"unknown scan {scan!r} in [diagnostics]; available: "
                f"{', '.join(SCAN_NAMES)}"
            )
    for fmt in cfg.output["formats"]:
        if fmt not in ("json", "csv", "txt"):
            raise ValueError(f"unknown format {fmt!r} in [output]; available: "
                             "json, csv, txt")
    return cfg


def parse_config(path) -> ExperimentConfig:
    """Read an INI config, rejecting unknown sections and keys, and fill in
    every documented default."""
    cp = configparser.ConfigParser(interpolation=None)
    if not cp.read(path):
        raise FileNotFoundError(f"config file not found: {path}")
    return _config_from(cp)


def _config_from(cp) -> ExperimentConfig:
    """The validated config that a ConfigParser holds, defaults filled in."""
    for section in cp.sections():
        if section not in SECTIONS:
            raise ValueError(
                f"unknown section [{section}]; allowed sections: "
                f"{', '.join(SECTIONS)}"
            )
    kind = "lq"
    if cp.has_option("problem", "kind"):
        kind = cp.get("problem", "kind").strip()
    if kind not in _BUILDERS:
        raise ValueError(
            f"unknown problem kind {kind!r}; expected one of "
            f"{', '.join(sorted(_BUILDERS))}"
        )
    cfg = ExperimentConfig(
        problem=_read_section(cp, "problem", _problem_schema(kind)),
        simulation=_read_section(cp, "simulation", SIMULATION_SCHEMA),
        value=_read_section(cp, "value", VALUE_SCHEMA),
        diagnostics=_read_section(cp, "diagnostics", DIAGNOSTICS_SCHEMA),
        output=_read_section(cp, "output", OUTPUT_SCHEMA),
    )
    return _validate(cfg)


def emit_config(cfg: ExperimentConfig, path):
    """Write the resolved config; parse_config(emit_config(cfg)) == cfg."""
    cp = configparser.ConfigParser(interpolation=None)
    for section in SECTIONS:
        cp.add_section(section)
        data = getattr(cfg, section)
        if section == "problem":  # kind first, it selects the schema
            cp.set(section, "kind", data["kind"])
        for key in sorted(data):
            if section == "problem" and key == "kind":
                continue
            cp.set(section, key, _format_value(data[key]))
    with open(path, "w") as fh:
        cp.write(fh)
    return path


def apply_overrides(cfg: ExperimentConfig, seed=None, out=None):
    sim = dict(cfg.simulation)
    output = dict(cfg.output)
    if seed is not None:
        sim["master_seed"] = int(seed)
    if out is not None:
        output["directory"] = str(out)
    return dataclasses.replace(cfg, simulation=sim, output=output)


# --- experiment state --------------------------------------------------------


class RunState:
    """Everything the stages share: the built problem, the policy under
    audit, the probe state, and the sinks for reports and artifacts."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.kind = cfg.kind
        params = {k: v for k, v in cfg.problem.items() if k != "kind"}
        built = _BUILDERS[self.kind](**params)
        # the Riccati solution of the lq oracle; None for the other kinds
        self.solution = None
        if self.kind == "lq":
            self.problem, oracle = built
            grid = np.linspace(0.0, self.problem.horizon, 801)
            self.solution = riccati_solve(oracle, grid)
        else:
            self.problem = built
        self.probe = _probe_state(self.problem, self.kind)
        self.policy = _build_policy(self.problem, self.solution,
                                    cfg.value["gain_scale"])
        self.reports = []
        self.out_dir = cfg.output["directory"]
        self.formats = cfg.output["formats"]
        self.files = []
        self._evaluator = None

    def seed(self, label):
        return derive_seed(self.cfg.master_seed, f"cli_{label}", 0)

    def path(self, relname):
        self.files.append(relname)
        return os.path.join(self.out_dir, relname)

    def wants(self, fmt):
        return fmt in self.formats

    def evaluator(self):
        # shared across scans so the diagnose stage prices one policy once
        if self._evaluator is None:
            d = self.cfg.diagnostics
            self._evaluator = make_policy_evaluator(
                self.problem, self.policy, n_paths=d["eval_paths"],
                n_steps=d["eval_steps"])
        return self._evaluator


def _probe_state(problem, kind):
    dim = problem.dim
    if kind == "lq":
        return np.array([1.0])
    if kind == "reaction_diffusion":
        grid = np.arange(1, dim + 1) / (dim + 1)
        return 0.3 * np.sin(np.pi * grid)
    return 0.3 * np.ones(dim)  # present value and flat past segment


def _build_policy(problem, solution, gain_scale):
    if solution is not None:
        policy = make_riccati_policy(problem, solution)
    else:
        # dissipative instances: the separated selector at zero gradient
        policy = zero_policy(problem)
    if gain_scale != 1.0:
        policy = scale_policy(policy, gain_scale,
                              label=f"gain_scaled_{gain_scale:g}")
    return policy


def _probe_direction(problem):
    if problem.dim == 1:
        return np.ones(1)  # the cos profile would vanish at the midpoint
    grid = np.arange(1, problem.dim + 1) / (problem.dim + 1)
    return np.cos(np.pi * grid)


# --- stages ------------------------------------------------------------------


def stage_simulate(st: RunState):
    sim = st.cfg.simulation
    rep = moment_bound_check(
        st.problem, 0.0, st.probe, st.policy,
        p=st.problem.control_spec.p_integrability,
        n_paths=min(sim["n_paths"], 2000), n_steps=min(sim["n_steps"], 100),
        seed=st.seed("moment"))
    st.reports.append(rep)
    if st.wants("csv"):
        ens = simulate_ensemble(st.problem, 0.0, st.probe, st.policy,
                                n_paths=4, n_steps=sim["n_steps"],
                                seed=st.seed("ensemble"))
        write_ensemble_csv(st.path("sample_paths.csv"), ens)


def stage_value(st: RunState):
    sim, val = st.cfg.simulation, st.cfg.value
    family = ControlFamily(n_segments=val["n_segments"],
                           m_truncation=max(val["truncation_list"]))
    ppc = max(200, sim["n_paths"] // 10)
    fv = estimate_value_family(
        st.problem, 0.0, st.probe, family, n_candidates=val["family_size"],
        paths_per_candidate=ppc, n_steps=sim["n_steps"],
        seed=st.seed("family"))
    if st.wants("csv"):
        rows = [(label, est.mean, est.std_error, est.n_paths)
                for label, est in zip(fv.candidate_labels,
                                      fv.candidate_estimates)]
        write_csv(st.path("value_family.csv"),
                  ("candidate", "estimate", "std_error", "n_paths"), rows)
    rep = truncation_scan(
        st.problem, 0.0, st.probe, val["truncation_list"], family=family,
        n_candidates=val["family_size"], paths_per_candidate=ppc,
        n_steps=min(sim["n_steps"], 120), seed=st.seed("truncation"))
    st.reports.append(rep)
    grad, grad_se = gradient_fd(st.evaluator(), 0.0, st.probe,
                                h=val["fd_step"], seed=st.seed("gradient"),
                                weights=st.problem.space.weights)
    if st.wants("csv"):
        floor = below_noise_floor(grad, grad_se).astype(int)
        rows = list(zip(range(len(grad)), grad, grad_se, floor))
        write_csv(st.path("value_gradient.csv"),
                  ("component", "gradient", "std_error", "below_noise_floor"),
                  rows)


def stage_synthesize(st: RunState):
    sim = st.cfg.simulation
    rep = verify_optimality(
        st.problem, st.policy, 0.0, st.probe, n_challengers=12,
        n_paths=max(500, sim["n_paths"] // 10),
        n_steps=min(sim["n_steps"], 150), seed=st.seed("tournament"))
    st.reports.append(rep)
    if st.kind == "lq" and st.wants("csv"):
        sol = st.solution
        ts = np.linspace(0.0, st.problem.horizon, 11)
        rows = [(t, sol.p_at(t), sol.gain_at(t)) for t in ts]
        write_csv(st.path("feedback_gain.csv"), ("t", "p", "gain"), rows)


def stage_diagnose(st: RunState):
    d = st.cfg.diagnostics
    problem, space = st.problem, st.problem.space
    scans = d["scans"]
    cloud = stream(st.cfg.master_seed, "cli_pairs", 0)
    pairs = [(st.probe + d["radius"] * cloud.normal(size=problem.dim),
              st.probe + d["radius"] * cloud.normal(size=problem.dim))
             for _ in range(d["n_pairs"])]
    scan_cfg = dg.ScanConfig(
        n_pairs=d["n_pairs"], radius=d["radius"], center=st.probe,
        se_mult=d["se_mult"], stability_tol=d["stability_tol"])

    if "structural" in scans:
        if problem.b_op is not None:
            st.reports.append(check_b_condition(problem.op, problem.b_op))
        st.reports.append(check_positivity_preserving(
            problem.op, (1e-3, 1e-2, 1e-1), seed=st.seed("positivity")))
    if "lipschitz" in scans:
        st.reports.append(dg.lipschitz_estimate(
            st.evaluator(), 0.0, pairs, space, seed=st.seed("lipschitz"),
            se_mult=d["se_mult"]))
    if "semiconcavity" in scans:
        st.reports.append(dg.semiconcavity_scan(
            st.evaluator(), 0.0, space, scan_cfg, seed=st.seed("scan")))
    if "semiconvexity" in scans:
        st.reports.append(dg.semiconvexity_scan(
            st.evaluator(), 0.0, space, scan_cfg, seed=st.seed("scan"),
            c_bound=d["c_bound"]))
    if "c11" in scans:
        def gev(t, x, seed):
            return gradient_fd(st.evaluator(), t, x, h=st.cfg.value["fd_step"],
                               seed=seed, weights=space.weights)

        st.reports.append(dg.c11_modulus(
            st.evaluator(), gev, 0.0, pairs, space, seed=st.seed("c11"),
            se_mult=d["se_mult"]))
    if "stability" in scans:
        u = _probe_direction(problem)
        st.reports.append(dg.trajectory_stability_check(
            problem, 0.0, [(st.probe, st.probe + d["radius"] * u)],
            n_paths=d["probe_paths"], n_steps=d["eval_steps"],
            seed=st.seed("stability")))
    if "midpoint" in scans:
        st.reports.append(dg.midpoint_trajectory_check(
            problem, 0.0, st.probe, _probe_direction(problem),
            d["radius"] * np.array([1.0, 0.5, 0.25, 0.125]),
            n_paths=d["probe_paths"], n_steps=d["eval_steps"],
            seed=st.seed("midpoint"), stability_tol=d["stability_tol"],
            se_mult=d["se_mult"]))
    if "dpp" in scans:
        cfg = DppConfig(n_paths=d["eval_paths"], n_outer=60, n_inner=8,
                        n_steps=d["eval_steps"], se_mult=d["se_mult"])
        st.reports.append(dpp_check(
            problem, st.policy, 0.0, st.probe, s_mid=problem.horizon / 2,
            cfg=cfg, seed=st.seed("dpp")))


def stage_compare(st: RunState):
    if st.kind != "reaction_diffusion":
        raise ValueError(
            "the comparison stage needs a reaction_diffusion problem "
            f"(pointwise reaction, Metzler operator); got kind {st.kind!r}"
        )
    sim = st.cfg.simulation
    dim = st.problem.dim
    x1 = 0.05 * np.sin(np.pi * np.arange(1, dim + 1) / (dim + 1))
    x1[dim // 3:max(dim // 3 + 1, (2 * dim) // 3)] += 0.2
    # x1 > 0 in every component, so the margin is the ordering's, not a tie
    st.reports.append(dg.comparison_check(
        st.problem, x1, np.zeros(dim), None, None,
        n_paths=min(sim["n_paths"], 1000), n_steps=sim["n_steps"],
        seed=st.seed("comparison")))


_STAGES = {
    "simulate": stage_simulate,
    "value": stage_value,
    "synthesize": stage_synthesize,
    "diagnose": stage_diagnose,
    "compare": stage_compare,
}

PIPELINE = ("simulate", "value", "synthesize", "diagnose", "compare")


def _plan_stages(cfg, stages):
    if stages is not None:
        return list(stages)
    chosen = list(PIPELINE)
    if cfg.kind != "reaction_diffusion":
        chosen.remove("compare")  # needs a pointwise reaction
    return chosen


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def run_experiment(cfg: ExperimentConfig, stages=None, dry_run=False,
                   echo=print) -> int:
    """Execute the configured pipeline and write artifacts.

    Returns 0 iff every emitted report passes, 1 otherwise. Stage errors
    propagate as RuntimeError naming the stage.
    """
    _validate(cfg)
    plan = _plan_stages(cfg, stages)
    for name in plan:
        if name not in _STAGES:
            raise ValueError(f"unknown stage {name!r}")
    if dry_run:
        echo(f"problem kind: {cfg.kind}")
        echo(f"master seed:  {cfg.master_seed}")
        echo(f"output dir:   {cfg.output['directory']} "
             f"(formats: {', '.join(cfg.output['formats'])})")
        echo(f"stages:       {' -> '.join(plan)}")
        if "diagnose" in plan:
            echo(f"scans:        {', '.join(cfg.diagnostics['scans'])}")
        echo("dry run, nothing executed")
        return 0

    st = RunState(cfg)
    os.makedirs(st.out_dir, exist_ok=True)
    emit_config(cfg, st.path("config_resolved.ini"))
    for name in plan:
        try:
            _STAGES[name](st)
        except Exception as exc:
            raise RuntimeError(f"stage '{name}' failed: {exc}") from exc

    code = 0 if (st.reports and all_pass(st.reports)) else 1
    if st.wants("json"):
        write_reports_json(st.path("reports.json"), st.reports)
    if st.wants("csv"):
        rows = [(r.name, r.verdict, r.samples_used,
                 "" if r.tolerance is None else r.tolerance,
                 json.dumps(r.constants, sort_keys=True, default=str))
                for r in st.reports]
        write_csv(st.path("reports.csv"),
                  ("name", "verdict", "samples_used", "tolerance",
                   "constants"), rows)
    if st.wants("txt"):
        head = (f"kind={cfg.kind} seed={cfg.master_seed} "
                f"stages={','.join(plan)}\n")
        with open(st.path("summary.txt"), "w") as fh:
            fh.write(head)
            fh.write(format_report_lines(st.reports))
            fh.write(f"exit {code}\n")
    manifest = {
        "exit_status": code,
        "n_reports": len(st.reports),
        "all_pass": code == 0,
        "files": {rel: _sha256(os.path.join(st.out_dir, rel))
                  for rel in sorted(st.files)},
    }
    with open(os.path.join(st.out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    echo(format_report_lines(st.reports).rstrip("\n"))
    echo(f"artifacts in {st.out_dir} (exit {code})")
    return code


# --- entry point -------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hjblab",
        description="Monte Carlo experiments on controlled SDEs: simulate, "
                    "estimate values, synthesize feedback, audit regularity.")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "simulate": "moment audit and sample paths for the configured model",
        "value": "candidate-family value estimate and truncation scan",
        "synthesize": "feedback policy tournament against open-loop rivals",
        "diagnose": "regularity and trajectory scans from the config",
        "compare": "pathwise ordering audit (reaction_diffusion only)",
        "run-all": "full pipeline: simulate, value, synthesize, diagnose"
                   " and, where supported, compare",
    }
    for name in (*PIPELINE, "run-all"):
        sp = sub.add_parser(name, help=helps[name])
        sp.add_argument("--config", help="INI config file; defaults apply "
                                         "when omitted")
        sp.add_argument("--seed", type=int, help="override master_seed")
        sp.add_argument("--out", help="override the output directory")
        sp.add_argument("--dry-run", action="store_true",
                        help="validate and print the plan, run nothing")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config) if args.config else default_config()
    except (ValueError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    cfg = apply_overrides(cfg, seed=args.seed, out=args.out)
    stages = None if args.command == "run-all" else [args.command]
    try:
        return run_experiment(cfg, stages=stages, dry_run=args.dry_run)
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
