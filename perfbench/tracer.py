"""Outside-in span tracer for hjblab.

The tracer changes nothing in the package. It replaces module attributes
with timing wrappers, in every hjblab module that binds the same function
object (``value`` imports ``simulate_costs`` by name, so wrapping only
``engine.simulate_costs`` would miss its calls), and it wraps callbacks on
the objects that carry them: model callbacks on a built ``ControlProblem``
and ``Policy.feedback`` on every control handed to the engine, both through
``dataclasses.replace``.

A span is recorded at each layer boundary: (run id, span id, parent id,
layer, name, start, end). A call into the layer that is already open, such
as one ``stream`` per path inside ``gaussian_increments``, is counted but is
not a boundary and records no span. A layer's self time is its spans'
durations minus the time covered by their child spans. Spans stay in memory
until ``write_spans`` runs after the timed call.

A hook whose module or attribute does not exist is listed in ``absent`` and
its layer reports zero work; it never raises.
"""

import dataclasses
import functools
import importlib
import inspect
import json
import time

LAYERS = ("noise", "engine", "models", "feedback", "value", "synthesis",
          "diagnostics", "hilbert", "cli")

# Layers whose nested calls into themselves are not boundaries.
_COLLAPSED = frozenset({"noise", "models", "feedback", "hilbert"})

# (layer, module, attribute). Orchestration layers list only functions that
# do not run once per time step, so that per-step work stays with the layer
# that does it (gamma_separated inside a feedback map stays feedback).
HOOKS = (
    ("noise", "engine", "gaussian_increments"),
    ("noise", "seeds", "stream"),
    ("engine", "engine", "simulate_costs"),
    ("engine", "engine", "simulate_ensemble"),
    ("engine", "engine", "moment_bound_check"),
    ("value", "value", "cost_samples"),
    ("value", "value", "evaluate_cost"),
    ("value", "value", "estimate_value_family"),
    ("value", "value", "truncation_scan"),
    ("value", "value", "gradient_fd"),
    ("value", "value", "policy_iteration"),
    ("value", "value", "make_policy_evaluator"),
    ("synthesis", "synthesis", "hamiltonian_min"),
    ("synthesis", "synthesis", "make_gamma_policy"),
    ("synthesis", "synthesis", "make_riccati_policy"),
    ("synthesis", "synthesis", "scale_policy"),
    ("synthesis", "synthesis", "zero_policy"),
    ("synthesis", "synthesis", "feynman_kac_value"),
    ("synthesis", "synthesis", "verify_optimality"),
    ("synthesis", "synthesis", "dpp_check"),
    ("diagnostics", "diagnostics", "lipschitz_estimate"),
    ("diagnostics", "diagnostics", "three_point_defect"),
    ("diagnostics", "diagnostics", "semiconcavity_scan"),
    ("diagnostics", "diagnostics", "semiconvexity_scan"),
    ("diagnostics", "diagnostics", "nu_threshold_scan"),
    ("diagnostics", "diagnostics", "c11_modulus"),
    ("diagnostics", "diagnostics", "trajectory_stability_check"),
    ("diagnostics", "diagnostics", "midpoint_trajectory_check"),
    ("diagnostics", "diagnostics", "comparison_check"),
    ("hilbert", "hilbert", "semigroup_matrix"),
    ("hilbert", "hilbert", "semigroup_apply"),
    ("hilbert", "hilbert", "check_b_condition"),
    ("hilbert", "hilbert", "check_positivity_preserving"),
    ("cli", "cli", "main"),
    ("cli", "cli", "run_experiment"),
    ("cli", "cli", "stage_simulate"),
    ("cli", "cli", "stage_value"),
    ("cli", "cli", "stage_synthesize"),
    ("cli", "cli", "stage_diagnose"),
    ("cli", "cli", "stage_compare"),
    ("cli", "cli", "emit_config"),
    ("cli", "cli", "write_csv"),
    ("cli", "cli", "write_reports_json"),
    ("cli", "cli", "write_ensemble_csv"),
    ("cli", "cli", "format_report_lines"),
    ("cli", "cli", "_sha256"),
)

CLI_STAGES = ("simulate", "value", "synthesize", "diagnose", "compare")
_ARTIFACT_WRITERS = frozenset({"emit_config", "write_csv", "write_reports_json",
                               "write_ensemble_csv", "format_report_lines",
                               "_sha256"})
_ENGINE_CALLS = frozenset({"simulate_costs", "simulate_ensemble",
                           "moment_bound_check"})
_BUILDERS = ("build_lq_benchmark", "build_reaction_diffusion", "build_sdde_lift")
_MODEL_CALLBACKS = ("drift", "running_cost", "terminal_cost")


def _rows(batch):
    shape = getattr(batch, "shape", ())
    return int(shape[0]) if len(shape) >= 2 else 1


class _Span:
    __slots__ = ("sid", "parent", "layer", "name", "start", "end", "child")

    def __init__(self, sid, parent, layer, name, start):
        self.sid, self.parent, self.layer, self.name = sid, parent, layer, name
        self.start, self.end, self.child = start, 0.0, 0.0


class _FeedbackProxy:
    """A control without dataclass fields whose feedback is traced."""

    def __init__(self, control, feedback):
        self._control = control
        self.feedback = feedback

    def __getattr__(self, name):
        return getattr(self._control, name)


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.stack = []
        self.absent = []
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.rows = {"models": 0, "feedback": 0}
        self.engine_ms = []
        self.engine_path_steps = 0
        self.noise_requested = 0
        self.noise_blocks = {}   # (seed, label, n_steps, n_w) -> max paths
        self.cost_evals = 0
        self.shared_block_evals = 0
        self.semigroup_calls = 0
        self.stage_s = dict.fromkeys(CLI_STAGES, 0.0)
        self.artifacts_s = 0.0

    # -- spans -------------------------------------------------------------

    def _open(self, layer, name):
        parent = self.stack[-1] if self.stack else None
        span = _Span(len(self.spans), parent.sid if parent else -1, layer,
                     name, time.perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        self.calls[layer] += 1
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self.stack.pop()
        dur = span.end - span.start
        self.self_s[span.layer] += dur - span.child
        if self.stack:
            self.stack[-1].child += dur
        return dur

    def _inside(self, layer):
        return bool(self.stack) and self.stack[-1].layer == layer

    def wrap(self, layer, name, fn, on_enter=None):
        """fn with a span of `layer` around it; on_enter(bound args) counts."""
        sig = inspect.signature(fn) if on_enter else None
        collapse = layer in _COLLAPSED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_enter is not None:
                args, kwargs = on_enter(sig, args, kwargs)
            if collapse and self._inside(layer):
                return fn(*args, **kwargs)
            span = self._open(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = self._close(span)
                if layer == "engine":
                    self.engine_ms.append(1e3 * dur)
                elif name.startswith("stage_"):
                    stage = name[len("stage_"):]
                    self.stage_s[stage] = self.stage_s.get(stage, 0.0) + dur
                elif name in _ARTIFACT_WRITERS:
                    self.artifacts_s += dur

        traced.__traced__ = True
        return traced

    # -- callbacks on built objects ----------------------------------------

    def _wrap_rows(self, layer, name, fn):
        if getattr(fn, "__traced__", False):
            return fn

        batch_arg = 1 if layer == "feedback" else 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._inside(layer):
                return fn(*args, **kwargs)
            rows = _rows(args[batch_arg]) if len(args) > batch_arg else 1
            self.rows[layer] += rows
            if name == "drift" and self._inside("engine"):
                self.engine_path_steps += rows
            span = self._open(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        traced.__traced__ = True
        return traced

    def wrap_problem(self, problem):
        """The problem with drift and cost callbacks traced as `models`."""
        if not dataclasses.is_dataclass(problem) or not hasattr(problem, "drift"):
            return problem
        fields = {name: self._wrap_rows("models", name, getattr(problem, name))
                  for name in _MODEL_CALLBACKS if hasattr(problem, name)}
        return dataclasses.replace(problem, **fields)

    def wrap_control(self, control):
        """The control with its feedback map traced, if it has one."""
        fb = getattr(control, "feedback", None)
        if fb is None or getattr(fb, "__traced__", False):
            return control
        traced = self._wrap_rows("feedback", "feedback", fb)
        if dataclasses.is_dataclass(control):
            return dataclasses.replace(control, feedback=traced)
        return _FeedbackProxy(control, traced)

    # -- counters at the boundaries ------------------------------------------

    def _count_noise(self, sig, args, kwargs):
        b = sig.bind(*args, **kwargs).arguments
        n_paths, n_steps, n_w = int(b["n_paths"]), int(b["n_steps"]), int(b["n_w"])
        self.noise_requested += n_paths * n_steps * n_w
        key = (b["master_seed"], b["label"], n_steps, n_w)
        self.noise_blocks[key] = max(self.noise_blocks.get(key, 0), n_paths)
        return args, kwargs

    def _enter_engine(self, sig, args, kwargs):
        bound = sig.bind(*args, **kwargs)
        b = bound.arguments
        if "control" in b:
            b["control"] = self.wrap_control(b["control"])
        if self._inside("value"):
            self.cost_evals += 1
            if b.get("dw") is not None:
                self.shared_block_evals += 1
        return bound.args, bound.kwargs

    def _count_semigroup(self, sig, args, kwargs):
        self.semigroup_calls += 1
        return args, kwargs

    def _traced_builder(self, fn):
        @functools.wraps(fn)
        def build(*args, **kwargs):
            built = fn(*args, **kwargs)
            if isinstance(built, tuple):
                return tuple(self.wrap_problem(b) for b in built)
            return self.wrap_problem(built)
        return build

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every hook in every hjblab module that binds it."""
        loaded = {}
        for name in {mod for _, mod, _ in HOOKS} | {"models"}:
            try:
                loaded[name] = importlib.import_module(f"hjblab.{name}")
            except ModuleNotFoundError:
                loaded[name] = None
        pkg = importlib.import_module("hjblab")
        mods = [m for m in vars(pkg).values()
                if inspect.ismodule(m) and m.__name__.startswith("hjblab.")]
        for layer, mod_name, attr in HOOKS:
            mod = loaded[mod_name]
            target = getattr(mod, attr, None)
            if not callable(target):
                self.absent.append(f"{mod_name}.{attr}")
                continue
            hook = None
            if layer == "noise" and attr == "gaussian_increments":
                hook = self._count_noise
            elif layer == "engine" and attr in _ENGINE_CALLS:
                hook = self._enter_engine
            elif attr == "semigroup_matrix":
                hook = self._count_semigroup
            _rebind(mods, target, self.wrap(layer, attr, target, hook))
        models = loaded["models"]
        for attr in _BUILDERS:
            target = getattr(models, attr, None)
            if callable(target):
                _rebind(mods, target, self._traced_builder(target))
            else:
                self.absent.append(f"models.{attr}")

    # -- results -------------------------------------------------------------

    def summary(self):
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        distinct = sum(n * steps * n_w for (_, _, steps, n_w), n
                       in self.noise_blocks.items())
        req = self.noise_requested
        out.update({
            "noise.calls": (self.calls["noise"], "count"),
            "noise.values_requested": (req, "count"),
            "noise.values_distinct": (distinct, "count"),
            "noise.distinct_share": (distinct / req if req else 0.0, "ratio"),
            "models.calls": (self.calls["models"], "count"),
            "models.rows": (self.rows["models"], "count"),
            "engine.calls": (self.calls["engine"], "count"),
            "engine.path_steps": (self.engine_path_steps, "count"),
            "feedback.calls": (self.calls["feedback"], "count"),
            "feedback.rows": (self.rows["feedback"], "count"),
            "value.cost_evals": (self.cost_evals, "count"),
            "value.shared_block_evals": (self.shared_block_evals, "count"),
            "hilbert.semigroup_calls": (self.semigroup_calls, "count"),
            "cli.artifacts_s": (self.artifacts_s, "s"),
        })
        p50, tail, pct = call_percentiles(self.engine_ms)
        out["engine.call_ms.p50"] = (p50, "ms")
        out["engine.call_ms.tail"] = (tail, "ms")
        out["engine.call_ms.tail_pct"] = (pct, "%")
        for stage in CLI_STAGES:
            out[f"cli.stage.{stage}_s"] = (self.stage_s.get(stage, 0.0), "s")
        return out

    def write_spans(self, path):
        """One JSON line per span, then one line listing absent hooks."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([self.run_id, s.sid, s.parent, s.layer,
                                     s.name, s.start, s.end]) + "\n")
            fh.write(json.dumps({"run_id": self.run_id,
                                 "absent": self.absent}) + "\n")


def _rebind(mods, target, wrapper):
    """Point every module attribute and module-level dict value that is
    `target` at `wrapper` (the CLI dispatches builders and stages by dict)."""
    for mod in mods:
        for name, value in list(vars(mod).items()):
            if value is target:
                setattr(mod, name, wrapper)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is target:
                        value[key] = wrapper


_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def call_percentiles(samples):
    """(p50, tail, tail_pct): tail is the highest percentile on the ladder
    with at least ten samples above it, else the median."""
    if not samples:
        return 0.0, 0.0, 0.0
    xs = sorted(samples)
    n = len(xs)

    def pct(p):
        return xs[min(n - 1, int(p / 100.0 * n))]

    for p in _LADDER:
        if n * (1.0 - p / 100.0) >= 10:
            return pct(50.0), pct(p), p
    return pct(50.0), pct(50.0), 50.0
