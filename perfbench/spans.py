"""Tracing of cloneopt's public functions from outside the package.

Tracer.install wraps each function listed in TRACED at the layer
boundary: it replaces the name in every cloneopt module namespace that
binds the original object (modules that import a function by name hold
their own binding) and the Channel methods on the class itself.
Tracer.uninstall puts every original object back.

A span is (name, start, end, parent, job): parent is the index of the
enclosing span or -1.  Spans stay in memory until write_spans.  Self
time is a span's duration minus the durations of its direct children;
children of one span never overlap, because each job runs on one thread.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

# (module, attribute) of every traced function; "Class.method" names a method.
TRACED = [
    ("tensor_core", "occupation_basis"),
    ("tensor_core", "product_power"),
    ("tensor_core", "single_site_marginal"),
    ("tensor_core", "one_body_operator"),
    ("tensor_core", "sym_embed"),
    ("tensor_core", "haar_state"),
    ("cloner", "optimal_cloner"),
    ("cloner", "Channel.apply"),
    ("cloner", "Channel.apply_observable"),
    ("cloner", "Channel.apply_fast"),
    ("cloner", "single_clone_marginal"),
    ("cloner", "all_clone_overlap"),
    ("cloner", "delta_all_numeric"),
    ("cloner", "refine_supremum"),
    ("channels", "choi"),
    ("channels", "symmetric_rep"),
    ("channels", "kron_power"),
    ("channels", "covariance_defect"),
    ("channels", "omega_measure"),
    ("channels", "delta_one_numeric"),
    ("rep_theory", "check_dominant"),
    ("rep_theory", "adjoint_multiplicity"),
    ("omega_opt", "enumerate_W1"),
    ("omega_opt", "maximize_brute"),
    ("omega_opt", "maximize_greedy"),
    ("omega_opt", "omega_of_point"),
    ("serialize", "dumps"),
    ("serialize", "matrix_to_json"),
]
# Called too often for a span each: these are only counted.
COUNTED = [("omega_opt", "f2")]
SAMPLERS = ("channels.delta_one_numeric", "cloner.delta_all_numeric")
HOOK = "trace.hook"

# Per-layer metrics besides <function>.calls and <function>.self_s:
# name -> (unit, better).
COUNT_METRICS = {
    "cloner.kraus_emitted": ("count", "lower"),
    "cloner.kraus_distinct_ratio": ("ratio", "higher"),
    "channels.sampler_evals": ("count", "lower"),
    "channels.sampler_evals_per_sample": ("evals/sample", "lower"),
    "omega_opt.domain_points": ("count", "lower"),
    "omega_opt.f2.calls": ("count", "lower"),
    "omega_opt.greedy_f2_per_solve": ("calls/solve", "lower"),
    "serialize.bytes_out": ("B", "lower"),
    "cli.run.self_s": ("s", "lower"),
    "cli.exit_0": ("count", "higher"),
    "cli.exit_1": ("count", "lower"),
    "cli.exit_2": ("count", "lower"),
    "cli.exit_3": ("count", "lower"),
    "cli.timeout": ("count", "lower"),
    "cli.crash": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def per_layer_names() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in report order."""
    names = {}
    for module, attr in TRACED:
        names[f"{module}.{attr}.calls"] = ("count", "lower")
        names[f"{module}.{attr}.self_s"] = ("s", "lower")
    names.update(COUNT_METRICS)
    return names


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._patches: list = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _record(self, name, start, end, parent):
        self.spans.append((name, start, end, parent, self.job))

    def wrap(self, name: str, fn, after=None):
        """fn inside a span called name; after(args, kwargs, result) runs
        once the span has closed, as a span of its own named HOOK so that
        its cost is not charged to the caller."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            tracer._open[name] += 1
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                tracer._open[name] -= 1
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.job)
            if after is not None:
                hook_start = tracer.clock()
                after(args, kwargs, result)
                tracer._record(HOOK, hook_start, tracer.clock(), parent)
            return result

        return traced

    def count(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            if tracer._open["omega_opt.maximize_greedy"]:
                tracer.counts[name + ".in_greedy"] += 1
            return fn(*args, **kwargs)

        return counted

    # -- counters recorded at the same boundaries --------------------------

    def _hooks(self, originals):
        counts = self.counts

        def kraus(args, kwargs, channel):
            counts["cloner.kraus_emitted"] += len(channel.kraus)
            counts["cloner.kraus_distinct"] += len({K.tobytes() for K in channel.kraus})

        def samples(fn):
            signature = inspect.signature(fn)

            def hook(args, kwargs, result):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts["channels.samples_requested"] += bound.arguments["samples"]

            return hook

        def evaluation(args, kwargs, result):
            if any(self._open[s] for s in SAMPLERS):
                counts["channels.sampler_evals"] += 1

        def domain(args, kwargs, points):
            counts["omega_opt.domain_points"] += len(points)

        def dumped(args, kwargs, text):
            counts["serialize.bytes_out"] += len(text.encode())

        return {
            "cloner.optimal_cloner": kraus,
            "cloner.delta_all_numeric": samples(originals["cloner.delta_all_numeric"]),
            "channels.delta_one_numeric": samples(originals["channels.delta_one_numeric"]),
            "cloner.Channel.apply_fast": evaluation,
            "omega_opt.enumerate_W1": domain,
            "serialize.dumps": dumped,
        }

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every TRACED and COUNTED function of the loaded package."""
        modules = {m: importlib.import_module(f"cloneopt.{m}") for m, _ in TRACED + COUNTED}
        originals = {}
        for module, attr in TRACED + COUNTED:
            owner = modules[module]
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part)
            originals[f"{module}.{attr}"] = vars(owner)[attr.split(".")[-1]]
        hooks = self._hooks(originals)
        namespaces = [
            mod for name, mod in list(sys.modules.items())
            if name == "cloneopt" or name.startswith("cloneopt.")
        ]
        for module, attr in TRACED + COUNTED:
            name = f"{module}.{attr}"
            orig = originals[name]
            if (module, attr) in COUNTED:
                wrapper = self.count(name, orig)
            else:
                wrapper = self.wrap(name, orig, hooks.get(name))
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(modules[module], cls_name)
                self._patches.append((cls, method, orig))
                setattr(cls, method, wrapper)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        self._patches.append((ns, key, orig))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> dict[str, list[float]]:
    """name -> [calls, self seconds]; HOOK spans only reduce their parent."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list[float]] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        if name == HOOK:
            continue
        entry = out.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += end - start - child[i]
    return out


def layer_metrics(traces, cli_exits: Counter | None = None, overhead: float = 0.0) -> dict:
    """Per-layer metrics from (spans, counts) pairs, one pair per process."""
    stats: dict[str, list[float]] = {}
    counts: Counter = Counter()
    for spans, trace_counts in traces:
        for name, (calls, self_s) in self_times(spans).items():
            entry = stats.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        counts.update(trace_counts)

    def ratio(num, den):
        return num / den if den else 0.0

    exits = cli_exits or Counter()
    derived = {
        "cloner.kraus_emitted": counts["cloner.kraus_emitted"],
        "cloner.kraus_distinct_ratio": ratio(counts["cloner.kraus_distinct"],
                                             counts["cloner.kraus_emitted"]),
        "channels.sampler_evals": counts["channels.sampler_evals"],
        "channels.sampler_evals_per_sample": ratio(counts["channels.sampler_evals"],
                                                   counts["channels.samples_requested"]),
        "omega_opt.domain_points": counts["omega_opt.domain_points"],
        "omega_opt.f2.calls": counts["omega_opt.f2.calls"],
        "omega_opt.greedy_f2_per_solve": ratio(
            counts["omega_opt.f2.in_greedy"],
            stats.get("omega_opt.maximize_greedy", [0, 0.0])[0]),
        "serialize.bytes_out": counts["serialize.bytes_out"],
        "cli.run.self_s": stats.get("cli.run", [0, 0.0])[1],
        "cli.exit_0": exits["ok"],
        "cli.exit_1": exits["exit1"],
        "cli.exit_2": exits["exit2"],
        "cli.exit_3": exits["exit3"],
        "cli.timeout": exits["timeout"],
        "cli.crash": exits["crash"],
        "trace.overhead_frac": overhead,
    }
    metrics = {}
    for name, (unit, _) in per_layer_names().items():
        if name.endswith(".calls") and name not in derived:
            value = stats.get(name[: -len(".calls")], [0, 0.0])[0]
        elif name.endswith(".self_s") and name not in derived:
            value = stats.get(name[: -len(".self_s")], [0, 0.0])[1]
        else:
            value = derived[name]
        metrics[name] = {"value": value, "unit": unit}
    return metrics
