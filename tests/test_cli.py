"""Config schema, pipeline orchestration, artifact and replay contracts."""

import contextlib
import csv
import dataclasses
import hashlib
import json
import os
import warnings

import pytest

from hjblab import engine
from hjblab.cli import (
    ExperimentConfig,
    RunState,
    apply_overrides,
    default_config,
    emit_config,
    main,
    parse_config,
    run_experiment,
    stage_simulate,
)
from hjblab.value import gradient_fd


def fast_cfg(out_dir, kind="lq", **problem_overrides):
    """Desk-scale budgets so a full pipeline runs in well under a second."""
    cfg = default_config(kind)
    cfg.problem.update(problem_overrides)
    cfg.simulation.update(n_paths=400, n_steps=50)
    cfg.value.update(family_size=4)
    cfg.diagnostics.update(scans=("structural", "stability", "midpoint"),
                           eval_paths=150, eval_steps=40, probe_paths=80,
                           n_pairs=4)
    cfg.output["directory"] = str(out_dir)
    return cfg


# --- config schema -----------------------------------------------------------


def test_minimal_config_fills_documented_defaults(tmp_path):
    p = tmp_path / "min.ini"
    p.write_text("[problem]\nkind = lq\n")
    cfg = parse_config(p)
    assert cfg.simulation["n_paths"] == 10000
    assert cfg.simulation["n_steps"] == 200
    assert cfg.simulation["master_seed"] == 42
    assert cfg.value["truncation_list"] == (2.0, 4.0, 8.0)
    assert cfg.value["fd_step"] is None
    assert cfg.problem["horizon"] == 1.0
    assert "scans" in cfg.diagnostics


@pytest.mark.parametrize("kind", ["lq", "reaction_diffusion", "sdde"])
def test_empty_sections_equal_default_config(tmp_path, kind):
    p = tmp_path / "empty.ini"
    # a [problem] section without a kind is lq
    p.write_text("[problem]\n" + ("" if kind == "lq" else f"kind = {kind}\n"))
    assert parse_config(p) == default_config(kind)


def test_unknown_key_rejected_by_name(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[problem]\nkind = lq\nsigma_control_dependent = 1.0\n")
    with pytest.raises(ValueError, match="sigma_control_dependent"):
        parse_config(p)


def test_unknown_section_rejected(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[problem]\nkind = lq\n\n[plotting]\ndpi = 300\n")
    with pytest.raises(ValueError, match="plotting"):
        parse_config(p)


def test_type_violation_names_key_and_type(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[simulation]\nn_paths = many\n")
    with pytest.raises(ValueError, match="'n_paths'.*expects int"):
        parse_config(p)


def test_problem_schema_follows_declared_kind(tmp_path):
    p = tmp_path / "rd.ini"
    p.write_text("[problem]\nkind = reaction_diffusion\nn_grid = 6\n"
                 "reaction = zero\n")
    cfg = parse_config(p)
    assert cfg.problem["n_grid"] == 6
    assert cfg.problem["reaction"] == "zero"
    # an lq-only knob is unknown under this kind
    p2 = tmp_path / "bad.ini"
    p2.write_text("[problem]\nkind = reaction_diffusion\na_lin = 0.5\n")
    with pytest.raises(ValueError, match="a_lin"):
        parse_config(p2)


def test_unknown_kind_rejected(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[problem]\nkind = heston\n")
    with pytest.raises(ValueError, match="heston"):
        parse_config(p)
    with pytest.raises(ValueError, match="unknown problem kind"):
        default_config("heston")


def test_config_validation_rules(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[value]\ntruncation_list = 8, 4, 2\n")
    with pytest.raises(ValueError, match="truncation_list"):
        parse_config(p)
    p.write_text("[diagnostics]\nscans = lipschitz, phase_portrait\n")
    with pytest.raises(ValueError, match="phase_portrait"):
        parse_config(p)
    p.write_text("[output]\nformats = json, xml\n")
    with pytest.raises(ValueError, match="xml"):
        parse_config(p)


@pytest.mark.parametrize("section, line, key", [
    ("value", "truncation_list = 2, 4", "truncation_list"),
    ("value", "truncation_list = 0, 2, 4", "truncation_list"),
    ("diagnostics", "n_pairs = 1", "n_pairs"),
    ("diagnostics", "eval_paths = 1", "eval_paths"),
    ("diagnostics", "probe_paths = 1", "probe_paths"),
    ("value", "n_segments = 0", "n_segments"),
    ("diagnostics", "eval_steps = 0", "eval_steps"),
    ("diagnostics", "radius = 0", "radius"),
    ("diagnostics", "radius = -0.5", "radius"),
    ("diagnostics", "se_mult = -1", "se_mult"),
])
def test_config_rejects_what_a_stage_rejects(tmp_path, section, line, key):
    # the truncation scan needs three positive radii and the defect scans
    # two pairs and a positive radius; a config without them, without a
    # step or a segment, would fail mid-run. One evaluation or probe path
    # makes every standard error zero, and a negative se_mult every slack
    # negative: run-all would then pass on no evidence
    p = tmp_path / "bad.ini"
    p.write_text(f"[{section}]\n{line}\n")
    with pytest.raises(ValueError, match=key):
        parse_config(p)


def test_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        parse_config(tmp_path / "nope.ini")


def test_round_trip_identity(tmp_path):
    cfg = default_config("sdde")
    cfg.problem.update(n_past=8, c_nl=0.4, control_bound=2.0)
    cfg.simulation.update(n_paths=1234, master_seed=7)
    cfg.value.update(truncation_list=(1.0, 3.0, 5.0), fd_step=1e-4)
    cfg.diagnostics.update(scans=("structural", "dpp"))
    cfg.output.update(directory="some/dir", formats=("json",))
    path = emit_config(cfg, tmp_path / "emitted.ini")
    assert parse_config(path) == cfg


def test_apply_overrides_copies(tmp_path):
    cfg = default_config("lq")
    over = apply_overrides(cfg, seed=99, out="elsewhere")
    assert over.master_seed == 99
    assert over.output["directory"] == "elsewhere"
    assert cfg.master_seed == 42  # original untouched
    assert over.problem == cfg.problem


# --- orchestration -----------------------------------------------------------


def test_dry_run_prints_plan_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "never"
    cfg = fast_cfg(out)
    assert run_experiment(cfg, dry_run=True) == 0
    text = capsys.readouterr().out
    assert "simulate -> value -> synthesize -> diagnose" in text
    assert not out.exists()


def test_full_pipeline_artifacts_and_exit_zero(tmp_path):
    out = tmp_path / "run"
    cfg = fast_cfg(out)
    assert run_experiment(cfg, echo=lambda *_: None) == 0

    expected = {"config_resolved.ini", "reports.json", "reports.csv",
                "summary.txt", "manifest.json", "sample_paths.csv",
                "value_family.csv", "value_gradient.csv", "feedback_gain.csv"}
    assert expected <= set(os.listdir(out))

    reports = json.loads((out / "reports.json").read_text())
    assert reports and all(r["verdict"] == "pass" for r in reports)
    names = {r["name"] for r in reports}
    assert {"moment_bound", "truncation_scan", "optimality_tournament",
            "trajectory_stability_state_H", "midpoint_gap_H"} <= names

    # resolved config reparses to the exact configuration that ran
    assert parse_config(out / "config_resolved.ini") == cfg

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_status"] == 0 and manifest["all_pass"]
    listed = set(manifest["files"])
    assert listed == set(os.listdir(out)) - {"manifest.json"}
    blob = (out / "summary.txt").read_bytes()
    digest = hashlib.sha256(blob).hexdigest()
    assert manifest["files"]["summary.txt"] == digest
    assert blob.decode().rstrip().endswith("exit 0")


def test_single_stage_run(tmp_path):
    out = tmp_path / "sim"
    cfg = fast_cfg(out)
    assert run_experiment(cfg, stages=["simulate"],
                          echo=lambda *_: None) == 0
    reports = json.loads((out / "reports.json").read_text())
    assert [r["name"] for r in reports] == ["moment_bound"]


def test_moment_audit_uses_declared_integrability(tmp_path):
    st = RunState(fast_cfg(tmp_path / "moment"))
    spec = dataclasses.replace(st.problem.control_spec, p_integrability=6.0)
    st.problem = dataclasses.replace(st.problem, control_spec=spec)
    st.formats = ("json",)
    stage_simulate(st)
    assert st.reports[0].name == "moment_bound"
    assert st.reports[0].constants["p"] == 6.0


def test_corrupted_gain_fails_tournament(tmp_path):
    out = tmp_path / "bad"
    cfg = fast_cfg(out)
    cfg.value["gain_scale"] = 2.0
    assert run_experiment(cfg, stages=["synthesize"],
                          echo=lambda *_: None) == 1
    reports = json.loads((out / "reports.json").read_text())
    assert reports[0]["name"] == "optimality_tournament"
    assert reports[0]["verdict"] == "fail"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_status"] == 1


def test_stage_errors_name_the_stage(tmp_path):
    cfg = fast_cfg(tmp_path / "cmp")  # lq has no pointwise reaction
    with pytest.raises(RuntimeError, match="stage 'compare'"):
        run_experiment(cfg, stages=["compare"], echo=lambda *_: None)


def test_run_all_includes_compare_only_for_reaction_kind(tmp_path):
    out = tmp_path / "rd"
    cfg = fast_cfg(out, kind="reaction_diffusion", n_grid=6, noise_modes=1,
                   horizon=0.3)
    with pytest.warns(UserWarning, match="noise floor"):
        assert run_experiment(cfg, echo=lambda *_: None) == 0
    names = [r["name"] for r in json.loads((out / "reports.json").read_text())]
    assert "order_preservation" in names


def test_compare_stage_margin_is_the_orderings(tmp_path):
    # strictly ordered inputs: the smallest gap is a positive margin met
    # after the start, not the tie of equal components at step 0
    out = tmp_path / "cmp"
    cfg = fast_cfg(out, kind="reaction_diffusion")
    run_experiment(cfg, stages=["compare"], echo=lambda *_: None)
    report, = json.loads((out / "reports.json").read_text())
    assert report["verdict"] == "pass"
    assert report["constants"]["min_margin"] > 0.0
    assert report["witness"]["step"] >= 1


@pytest.mark.parametrize("kind, overrides", [
    ("reaction_diffusion", {}), ("sdde", {}),
    # a coarse short instance whose gradient has components below the floor
    ("reaction_diffusion", dict(n_grid=6, noise_modes=1, horizon=0.3)),
], ids=["reaction_diffusion", "sdde", "rd_below_noise_floor"])
def test_value_gradient_csv_is_the_weighted_gradient(tmp_path, kind, overrides):
    # DV in the space's inner product: on these spaces the weights are not
    # all one, so coordinate slopes would differ from it
    out = tmp_path / kind
    cfg = fast_cfg(out, kind=kind, **overrides)
    # only the coarse instance is below the floor; any other warning fails
    with (pytest.warns(UserWarning, match="noise floor") if overrides
          else contextlib.nullcontext()):
        run_experiment(cfg, stages=["value"], echo=lambda *_: None)
    with open(out / "value_gradient.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    st = RunState(cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        grad, se = gradient_fd(st.evaluator(), 0.0, st.probe,
                               h=cfg.value["fd_step"], seed=st.seed("gradient"),
                               weights=st.problem.space.weights)
    assert header == ["component", "gradient", "std_error", "below_noise_floor"]
    assert [float(r[1]) for r in rows] == grad.tolist()
    assert [float(r[2]) for r in rows] == se.tolist()
    # the artifact flags the components that the noise-floor warning names
    flagged = [int(r[0]) for r in rows if r[3] == "1"]
    assert all(r[3] in ("0", "1") for r in rows)
    assert flagged == [i for i in range(len(grad)) if abs(se[i]) > abs(grad[i])]
    assert bool(flagged) == bool(overrides)
    named = [str(w.message) for w in caught if "noise floor" in str(w.message)]
    assert named == ([f"gradient components {flagged} are below the Monte "
                      "Carlo noise floor; increase paths or the step"]
                     if flagged else [])


def test_formats_limit_artifacts(tmp_path):
    out = tmp_path / "lean"
    cfg = fast_cfg(out)
    cfg.output["formats"] = ("json",)
    assert run_experiment(cfg, stages=["simulate"],
                          echo=lambda *_: None) == 0
    files = set(os.listdir(out))
    assert "reports.json" in files
    assert "reports.csv" not in files and "summary.txt" not in files
    assert "sample_paths.csv" not in files


def test_replay_is_bitwise(tmp_path):
    out = tmp_path / "replay"
    cfg = fast_cfg(out)

    def digest_dir():
        return {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in sorted(os.listdir(out))
        }

    assert run_experiment(cfg, echo=lambda *_: None) == 0
    first = digest_dir()
    assert run_experiment(cfg, echo=lambda *_: None) == 0
    assert digest_dir() == first


# sha256 of the artifacts that hold no output path, at fast_cfg budgets with
# the scans below; a change that moves any byte of any stage shows up here
PINNED_SCANS = ("structural", "lipschitz", "stability", "midpoint", "dpp")
PINNED_DIGESTS = {
    "lq": {
        "feedback_gain.csv": "6d33f84af9031ee9ffb93f0dd0aff3364d3f8bfb5a62dd0282997b124c5e1ff5",
        "reports.csv": "22e4f69245293cc46d7aeaf766371d41e580323304ae235ef24824e1815dd14d",
        "reports.json": "80ab7d5e771c4cd5a3450db9fab842429b3f9817b550050e23b9ae8170dbcdf8",
        "sample_paths.csv": "09f5da388e8e5614a17f6ebf3a7748daa91ad69ad0602b60cbaf2504d0979551",
        "value_family.csv": "b2b528831998c9cb88a41e805dfe50a49a8490c45fabefa8365c221a3f2c96c7",
        "value_gradient.csv": "9f7a5d78ce3c27fb691befac85f6a27be05404d22c798a76f5fc1e024eff2460",
    },
    "reaction_diffusion": {
        "reports.csv": "bd4f750ef8710cb69e9a3a75c6385ae3812fe158de0ecb1bb1ac4fe559d4b19f",
        "reports.json": "92880df9b52073a9cea0af14989a232c7a0161775f76a6ccb3ee3ebd247d3d65",
        "sample_paths.csv": "f1814f1b72cc793ca1640dcc3ec9ae886ba80121f4b3d9eaa5dc0a5e54bdeef2",
        "value_family.csv": "e4bbf8d79a88401ec680465b0998e82142c77118827b853c1d2935ac484ad6c8",
        "value_gradient.csv": "bf11e92ee24ceb89e01fc15f0af42b6b7bb0c4ea46c954dc8e8dffeabf1f9411",
    },
    "sdde": {
        "reports.csv": "286c6c171351fea4af8c7abd16112c4947e5ed6ce0fa1496268499a6c3bdc59d",
        "reports.json": "17e1615a54000da4691d81fc3382c1ca554a1fa9a1a105fb2ec985c87dda3581",
        "sample_paths.csv": "aaf89d13c9b1833e774869f8773b6c8cd57a9c9f639e7c5faf30526c677c8eb5",
        "value_family.csv": "84fc1fae944c45f9bd5b71232b5d3c5d666f4d2cb0a9a5751508761a58d94f57",
        "value_gradient.csv": "5b25dbcd9f4e5c9641b77b39473a472a004041a02ede3cbd107ffc3b18345fab",
    },
}


@pytest.mark.parametrize("kind, processes", [
    pytest.param(kind, processes, id=kind if processes == 1 else f"{kind}-{processes}")
    for processes in (1, 2, 3) for kind in sorted(PINNED_DIGESTS)])
def test_artifacts_match_pinned_digests(tmp_path, monkeypatch, kind, processes):
    # test_replay_is_bitwise compares a version with itself; this pins the
    # bytes across versions, serially and with every engine call split
    # across 2 or 3 processes. config_resolved.ini and manifest.json record
    # the output directory, so they are left out.
    monkeypatch.setattr(engine, "_PROCESSES", processes)
    if processes > 1:
        monkeypatch.setattr(engine, "_FORK_MIN_WORK", 1)
    out = tmp_path / kind
    cfg = fast_cfg(out, kind=kind)
    cfg.diagnostics.update(scans=PINNED_SCANS)
    assert run_experiment(cfg, echo=lambda *_: None) == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in sorted(os.listdir(out))
        if name == "reports.json" or name.endswith(".csv")
    }
    assert digests == PINNED_DIGESTS[kind]


# sha256 of the diagnose stage's reports with the two scans PINNED_SCANS
# leaves out, at fast_cfg budgets
GRADIENT_SCAN_DIGESTS = {
    "lq": {
        "reports.csv": "ae220252dc3b74929bfd3a4e34bf6cf226276e2ae0daab9ff0c640865c3de3fd",
        "reports.json": "3ab49202e74c97315ffd8ee2d9d46d3ba16453e53538fe002144a509a7492f55",
    },
    "reaction_diffusion": {
        "reports.csv": "ccf063b7b634e68ecdf8a0545a04802dd4a58a4a5121213000e14f447ce09897",
        "reports.json": "1287107c14bb245b7415057d863669eb0a31355a8e654e7ce8e89fbf8a35866b",
    },
    "sdde": {
        "reports.csv": "20d8ca324006b6e9c6cd0c9a00ea42a53908dcbceb4810c8a7a420e914840f6f",
        "reports.json": "af46f4d58608e3b875572d09be69ddd3d2f297b4dc6eeb463edade9757040ae5",
    },
}


@pytest.mark.parametrize("kind", sorted(GRADIENT_SCAN_DIGESTS))
def test_c11_and_semiconvexity_reports_match_pinned_digests(tmp_path, kind):
    out = tmp_path / kind
    cfg = fast_cfg(out, kind=kind)
    cfg.diagnostics.update(scans=("c11", "semiconvexity"))
    # on reaction_diffusion some finite-difference gradient components of
    # the c11 legs sit below the noise floor; elsewhere any warning fails
    with (pytest.warns(UserWarning, match="noise floor")
          if kind == "reaction_diffusion" else contextlib.nullcontext()):
        assert run_experiment(cfg, stages=["diagnose"],
                              echo=lambda *_: None) == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in sorted(os.listdir(out))
        if name == "reports.json" or name.endswith(".csv")
    }
    assert digests == GRADIENT_SCAN_DIGESTS[kind]


# --- entry point -------------------------------------------------------------


def test_main_runs_configured_command(tmp_path, capsys):
    ini = tmp_path / "cfg.ini"
    out = tmp_path / "out"
    emit_config(fast_cfg(out), ini)
    code = main(["simulate", "--config", str(ini)])
    assert code == 0
    assert "moment_bound" in capsys.readouterr().out
    assert (out / "manifest.json").exists()


def test_main_seed_override_recorded(tmp_path):
    ini = tmp_path / "cfg.ini"
    out = tmp_path / "out"
    emit_config(fast_cfg(out), ini)
    assert main(["simulate", "--config", str(ini), "--seed", "7"]) == 0
    resolved = parse_config(out / "config_resolved.ini")
    assert resolved.master_seed == 7


def test_main_rejects_removed_jobs_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run-all", "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_main_reports_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[simulation]\nn_paths = lots\n")
    assert main(["run-all", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["run-all", "--config", str(tmp_path / "missing.ini")]) == 2


def test_main_reports_stage_errors(tmp_path, capsys):
    ini = tmp_path / "cfg.ini"
    emit_config(fast_cfg(tmp_path / "out"), ini)
    assert main(["compare", "--config", str(ini)]) == 2
    assert "stage 'compare'" in capsys.readouterr().err


def test_main_dry_run_without_config_uses_defaults(capsys):
    assert main(["run-all", "--dry-run"]) == 0
    text = capsys.readouterr().out
    assert "problem kind: lq" in text
    assert "dry run" in text
