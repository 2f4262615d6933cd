"""Spans and counts recorded from the benchmark's side of the qbmlab API.

A span is ``[name, start, end, parent, job]``: ``parent`` is the index of the
enclosing span (-1 for none) and ``job`` the index of the job it belongs to.
Spans are kept in memory and written out once the run ends.  Nothing inside
qbmlab is edited: the traced run wraps the entry points the benchmark calls,
puts a thin proxy around every Liouvillian it gets back (so each ``apply`` /
``__call__`` is a span), and rebinds the names that ``qbmlab.cli`` and
``qbmlab.propagation`` look up at call time, restoring them afterwards.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

import qbmlab
import qbmlab.cli
import qbmlab.fokker_planck
import qbmlab.propagation

from workloads import Api


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.job = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
               self.job]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def count(self, name, value=1):
        self.counts[name] += value

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


class TracedLiouvillian:
    """Forwards to a Liouvillian, recording each application as a span."""

    def __init__(self, inner, tracer):
        self.cfg = inner.cfg
        self.kind = inner.kind
        self.coeffs = inner.coeffs
        self.collision = inner.collision
        self.apply = tracer.wrap("liouvillians.apply", inner.apply)

    def __call__(self, rho):
        return self.apply(rho)


def _traced_builder(tracer, build):
    traced = tracer.wrap("liouvillians.build", build)

    @functools.wraps(build)
    def build_liouvillian(cfg, spec):
        return TracedLiouvillian(traced(cfg, spec), tracer)

    return build_liouvillian


def _traced_propagate(tracer, propagate):
    traced = tracer.wrap("propagation.propagate", propagate)

    @functools.wraps(propagate)
    def counted(rho0, liouvillian, icfg):
        record = traced(rho0, liouvillian, icfg)
        tracer.count("propagation.steps_accepted", record.accepted_steps)
        tracer.count("propagation.steps_rejected", record.rejected_steps)
        tracer.count("propagation.monitor_samples", record.times.size)
        return record

    return counted


def _counted_fp_step(tracer, fp_step):
    @functools.wraps(fp_step)
    def counted(grid, eta, d_v, dt):
        tracer.count("fokker_planck.steps")
        tracer.count("fokker_planck.cell_updates", grid.n_cells)
        return fp_step(grid, eta, d_v, dt)

    return counted


def traced_api(tracer):
    """Api whose entry points record spans, plus the module rebindings.

    Returns ``(api, rebind)``; ``rebind`` is a context manager that swaps
    the traced callables into the qbmlab modules whose code looks them up.
    """
    state_prep = {name: tracer.wrap("operators.state_prep", getattr(qbmlab, name))
                  for name in ("vacuum_state", "number_state", "coherent_state",
                               "squeezed_state", "thermal_state")}
    build = _traced_builder(tracer, qbmlab.build_liouvillian)
    propagate = _traced_propagate(tracer, qbmlab.propagate)
    sum_rule = "structure_factor.sum_rule"
    rebindings = {
        qbmlab.cli: dict(
            state_prep,
            build_liouvillian=build,
            propagate=propagate,
            load_config=tracer.wrap("config.load", qbmlab.cli.load_config),
            compute_dpp=tracer.wrap("microcoeffs.compute_dpp", qbmlab.compute_dpp),
            s_mb=tracer.wrap("structure_factor.s_mb", qbmlab.s_mb),
            sum_rule_zero=tracer.wrap(sum_rule, qbmlab.sum_rule_zero),
            sum_rule_f=tracer.wrap(sum_rule, qbmlab.sum_rule_f),
            fp_solve=tracer.wrap("fokker_planck.fp_solve", qbmlab.fp_solve)),
        qbmlab.propagation: dict(
            min_eigenvalue=tracer.wrap("operators.min_eigenvalue",
                                       qbmlab.propagation.min_eigenvalue),
            validate_density_matrix=tracer.wrap(
                "operators.validate_density_matrix",
                qbmlab.propagation.validate_density_matrix)),
        qbmlab.fokker_planck: dict(
            fp_step=_counted_fp_step(tracer, qbmlab.fokker_planck.fp_step)),
    }
    api = dataclasses.replace(
        Api(),
        build_liouvillian=build,
        propagate=propagate,
        superoperator_matrix=tracer.wrap("liouvillians.superop",
                                         qbmlab.superoperator_matrix),
        stationary_state=tracer.wrap("propagation.stationary", qbmlab.stationary_state),
        squeezed_state=state_prep["squeezed_state"],
        coherent_state=state_prep["coherent_state"],
        thermal_state=state_prep["thermal_state"],
        cli_main=tracer.wrap("cli.main", qbmlab.cli.main),
        span=tracer.span,
        count=tracer.count)

    @contextlib.contextmanager
    def rebind():
        saved = {mod: {name: getattr(mod, name) for name in names}
                 for mod, names in rebindings.items()}
        try:
            for mod, names in rebindings.items():
                for name, fn in names.items():
                    setattr(mod, name, fn)
            yield
        finally:
            for mod, names in saved.items():
                for name, fn in names.items():
                    setattr(mod, name, fn)

    return api, rebind()


def layer_metrics(tracer, n_jobs):
    """Per-layer metrics, averaged per traced job unless the unit says otherwise."""
    total = defaultdict(float)
    calls = Counter()
    child = defaultdict(float)
    applies_in_propagate = 0
    spans = tracer.spans
    for name, start, end, parent, _ in spans:
        dur = end - start
        total[name] += dur
        calls[name] += 1
        if parent >= 0:
            child[parent] += dur
            if name == "liouvillians.apply" and spans[parent][0] == "propagation.propagate":
                applies_in_propagate += 1
    self_time = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        self_time[name] += end - start - child[i]

    counts = tracer.counts
    n = max(n_jobs, 1)
    accepted = counts["propagation.steps_accepted"]
    attempted = accepted + counts["propagation.steps_rejected"]

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "liouvillians.apply_calls": (calls["liouvillians.apply"] / n, "calls/job"),
        "liouvillians.apply_s": (total["liouvillians.apply"] / n, "s/job"),
        "liouvillians.apply_us_per_call": (
            1e6 * ratio(total["liouvillians.apply"], calls["liouvillians.apply"]), "us"),
        "liouvillians.build_s": (total["liouvillians.build"] / n, "s/job"),
        "liouvillians.superop_calls": (calls["liouvillians.superop"] / n, "calls/job"),
        "liouvillians.superop_s": (total["liouvillians.superop"] / n, "s/job"),
        "propagation.propagate_s": (total["propagation.propagate"] / n, "s/job"),
        "propagation.self_s": (self_time["propagation.propagate"] / n, "s/job"),
        "propagation.steps_accepted": (accepted / n, "steps/job"),
        "propagation.steps_rejected": (counts["propagation.steps_rejected"] / n,
                                       "steps/job"),
        "propagation.accept_ratio": (ratio(accepted, attempted), "ratio"),
        "propagation.applies_per_step": (ratio(applies_in_propagate, attempted),
                                         "calls/step"),
        "propagation.monitor_samples": (counts["propagation.monitor_samples"] / n,
                                        "samples/job"),
        "propagation.stationary_calls": (calls["propagation.stationary"] / n,
                                         "calls/job"),
        "propagation.stationary_s": (total["propagation.stationary"] / n, "s/job"),
        "operators.min_eigenvalue_calls": (calls["operators.min_eigenvalue"] / n,
                                           "calls/job"),
        "operators.min_eigenvalue_s": (total["operators.min_eigenvalue"] / n, "s/job"),
        "operators.state_prep_s": (total["operators.state_prep"] / n, "s/job"),
        "microcoeffs.compute_dpp_calls": (calls["microcoeffs.compute_dpp"] / n,
                                          "calls/job"),
        "microcoeffs.compute_dpp_s": (total["microcoeffs.compute_dpp"] / n, "s/job"),
        "structure_factor.sum_rule_calls": (calls["structure_factor.sum_rule"] / n,
                                            "calls/job"),
        "structure_factor.sum_rule_s": (total["structure_factor.sum_rule"] / n, "s/job"),
        "structure_factor.s_mb_s": (total["structure_factor.s_mb"] / n, "s/job"),
        "fokker_planck.fp_solve_s": (total["fokker_planck.fp_solve"] / n, "s/job"),
        "fokker_planck.steps": (counts["fokker_planck.steps"] / n, "steps/job"),
        "fokker_planck.cell_updates_per_s": (
            ratio(counts["fokker_planck.cell_updates"], total["fokker_planck.fp_solve"]),
            "1/s"),
        "config.load_s": (total["config.load"] / n, "s/job"),
        "cli.main_s": (total["cli.main"] / n, "s/job"),
        "cli.self_s": (self_time["cli.main"] / n, "s/job"),
        "cli.output_bytes": (counts["cli.output_bytes"] / n, "bytes/job"),
        "bench.check_s": (total["bench.check"] / n, "s/job"),
        "bench.job_self_s": (self_time["bench.job"] / n, "s/job"),
    }
