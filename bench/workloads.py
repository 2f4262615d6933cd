"""Seeded job streams, job runners and per-job correctness checks.

A job is one full experiment request: build the generator (or write the
config), prepare the state, run, and check the result against physics
invariants that hold for every seed.  Jobs are produced in fixed-size
blocks whose composition (job kinds and problem sizes) is the same for
every seed; the seed draws the physics parameters and the order inside a
block.  That keeps the amount of work per block, and so the timings,
comparable between seeds while no two seeds send the same inputs.

The runners call qbmlab only through an ``Api`` object, so the traced run
can substitute wrapped entry points and a self-test can substitute a
deliberately broken generator.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterator

import numpy as np

import qbmlab
from qbmlab import cli

WORKLOADS = ("evolve_dense", "collision_steady", "kinetic_cli")


@dataclass(frozen=True)
class Job:
    """One request: which runner handles it and the inputs generated for it."""

    kind: str
    params: dict


@contextlib.contextmanager
def _no_span(name):
    yield


def _no_count(name, value=1):
    pass


@dataclass(frozen=True)
class Api:
    """The qbmlab entry points a job calls, plus tracing hooks."""

    build_liouvillian: Callable = qbmlab.build_liouvillian
    propagate: Callable = qbmlab.propagate
    superoperator_matrix: Callable = qbmlab.superoperator_matrix
    stationary_state: Callable = qbmlab.stationary_state
    squeezed_state: Callable = qbmlab.squeezed_state
    coherent_state: Callable = qbmlab.coherent_state
    thermal_state: Callable = qbmlab.thermal_state
    cli_main: Callable = cli.main
    span: Callable = _no_span
    count: Callable = _no_count


# ---------------------------------------------------------------------------
# job streams


def _uniform(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def _log_uniform(rng, lo, hi):
    return float(10.0 ** rng.uniform(np.log10(lo), np.log10(hi)))


# evolve_dense: four bilinear-family generators, two pool entries each
EVOLVE_VARIANTS = ("caldeira_leggett", "bilinear", "minimal_double", "minimal_single")
EVOLVE_DIMS = (38, 42)
EVOLVE_STATES = ("squeezed", "coherent", "thermal")
RK45_PER_BLOCK = 2
EVOLVE_STRIDES = (1, 10)
RK4_STEPS = (60, 80, 100)
CP_BREACH_THRESHOLD = -1e-8
CL_BREACH_THRESHOLD = -1e-6


def _evolve_spec(rng, variant, dim):
    spec = {"variant": variant, "dim": dim, "omega_trap": _uniform(rng, 0.8, 1.2)}
    if variant == "caldeira_leggett":
        spec.update(beta=_uniform(rng, 5.0, 15.0), gamma=_uniform(rng, 0.3, 0.7))
    elif variant == "bilinear":
        gamma = _uniform(rng, 0.1, 0.4)
        d_pp = _uniform(rng, 0.1, 0.5)
        d_xp = _uniform(rng, 0.02, 0.1) * float(rng.choice([-1.0, 1.0]))
        # strictly inside the CP bound d_xx d_pp - d_xp^2 >= (gamma hbar / 2)^2
        d_xx = (d_xp**2 + (0.5 * gamma) ** 2) / d_pp * _uniform(rng, 1.1, 2.0)
        spec.update(gamma=gamma, d_pp=d_pp, d_xx=d_xx, d_xp=d_xp,
                    mu=_uniform(rng, 0.05, 0.2))
    else:
        spec.update(beta=_uniform(rng, 5.0, 15.0), d_pp=_uniform(rng, 0.05, 0.2),
                    fugacity_z=_uniform(rng, 0.5, 1.0))
    return spec


def _evolve_state(rng, kind):
    if kind == "squeezed":
        return {"kind": kind, "r": _uniform(rng, 0.6, 1.2)}
    if kind == "coherent":
        return {"kind": kind, "alpha_re": _uniform(rng, -1.5, 1.5),
                "alpha_im": _uniform(rng, -1.5, 1.5)}
    return {"kind": kind, "nbar": _uniform(rng, 0.5, 2.0)}


def _evolve_integrator(rng, adaptive, stride, n_steps):
    if adaptive:
        return {"method": "rk45_adaptive", "t_final": _uniform(rng, 0.5, 1.0),
                "dt_init": 1e-3, "rtol": 1e-9, "atol": 1e-11, "monitor_stride": stride}
    dt = _uniform(rng, 0.002, 0.004)
    return {"method": "rk4_fixed", "t_final": n_steps * dt, "dt": dt,
            "monitor_stride": stride}


def _evolve_block(rng, pool):
    """12 jobs: every generator variant from every initial-state kind."""
    slots = []
    for v, variant in enumerate(EVOLVE_VARIANTS):
        picks = rng.permutation([0, 1, int(rng.integers(2))])
        for state, pick in zip(EVOLVE_STATES, picks):
            slots.append((v * len(EVOLVE_DIMS) + int(pick), state))
    adaptive = set(rng.choice(len(slots), RK45_PER_BLOCK, replace=False).tolist())
    strides = rng.permutation(EVOLVE_STRIDES * (len(slots) // len(EVOLVE_STRIDES)))
    n_steps = rng.permutation(RK4_STEPS * (len(slots) // len(RK4_STEPS)))
    jobs = []
    for i in rng.permutation(len(slots)):
        spec_id, state = slots[i]
        jobs.append(Job("evolve", {
            "spec_id": spec_id, "spec": pool[spec_id],
            "state": _evolve_state(rng, state),
            "integrator": _evolve_integrator(rng, i in adaptive, int(strides[i]),
                                             int(n_steps[i]))}))
    return jobs


def _evolve_pool(rng):
    return [_evolve_spec(rng, variant, dim)
            for variant in EVOLVE_VARIANTS for dim in EVOLVE_DIMS]


# collision_steady: collision generators and SVD-bound minimal generators,
# interleaved; the sizes are fixed so each block costs the same.
# The collision generator matches the minimal one only up to corrections
# that grow with beta * q_max and with truncation of a hot state at dim 12:
# over this parameter box the trace distance stays below about 1.2e-5.
COLLISION_DIMS = (12, 13, 14)
COLLISION_NODES = 40
MINIMAL_SS_DIMS = (23, 24, 25)
STATIONARY_AGREEMENT_TOL = 1e-4


def _collision_job(rng, dim, n_nodes):
    kind = str(rng.choice(["constant", "gaussian"]))
    tmatrix = {"kind": kind, "t0": _uniform(rng, 0.03, 0.08)}
    if kind == "gaussian":
        tmatrix["sigma_q"] = _uniform(rng, 0.5, 1.5)
    return Job("collision", {
        "dim": dim, "n_nodes": n_nodes, "q_max": _uniform(rng, 0.15, 0.3),
        "beta": _uniform(rng, 1.5, 3.0), "gas_mass": _uniform(rng, 0.5, 2.0),
        "fugacity_z": _uniform(rng, 0.5, 1.0), "tmatrix": tmatrix,
        "omega_trap": _uniform(rng, 0.9, 1.2)})


def _minimal_ss_job(rng, dim):
    return Job("minimal_stationary", {
        "dim": dim, "beta": _uniform(rng, 1.0, 3.0), "d_pp": _uniform(rng, 0.1, 0.5),
        "fugacity_z": _uniform(rng, 0.5, 1.0), "omega_trap": _uniform(rng, 0.8, 1.2)})


def _collision_block(rng):
    col = [_collision_job(rng, COLLISION_DIMS[i], COLLISION_NODES)
           for i in rng.permutation(3)]
    mini = [_minimal_ss_job(rng, MINIMAL_SS_DIMS[i]) for i in rng.permutation(3)]
    return [job for pair in zip(col, mini) for job in pair]


# kinetic_cli: INI configs for the command-line front door
STATISTICS = ("maxwell_boltzmann", "bose", "fermi")
BETA_RANGE = (0.05, 50.0)  # three decades
DSF_Q_COUNTS = (3, 4, 5, 7)
FP_CELLS = (40, 50, 60, 80)
FP_STATIONARY_TOL = 1e-3
COMPARE_TOL = 0.02


def _ini(sections):
    lines = []
    for name, values in sections.items():
        lines.append("[%s]" % name)
        lines.extend("%s = %s" % (k, v if isinstance(v, str) else repr(v))
                     for k, v in values.items())
    return "\n".join(lines) + "\n"


def _coeffs_job(rng, statistics, tmatrix_kind):
    fugacity = {"maxwell_boltzmann": (0.2, 2.0), "bose": (0.1, 0.9),
                "fermi": (0.1, 2.0)}[statistics]
    gas = {"beta": _log_uniform(rng, *BETA_RANGE), "gas_mass": _uniform(rng, 0.5, 2.0),
           "fugacity": _uniform(rng, *fugacity), "statistics": statistics}
    tmatrix = {"kind": tmatrix_kind, "t0": _log_uniform(rng, 0.01, 0.1)}
    if tmatrix_kind == "gaussian":
        tmatrix["sigma_q"] = _uniform(rng, 0.5, 2.0)
    mass = _uniform(rng, 0.5, 2.0)
    return Job("cli_coeffs", {
        "command": "coeffs", "gas": gas, "tmatrix": tmatrix, "mass": mass,
        "ini": _ini({"hilbert": {"mass": mass}, "gas": gas, "tmatrix": tmatrix})})


def _dsf_job(rng, n_q):
    gas = {"beta": _log_uniform(rng, *BETA_RANGE), "gas_mass": _uniform(rng, 0.5, 2.0)}
    q_values = sorted(_log_uniform(rng, 0.1, 10.0) for _ in range(n_q))
    dsf = {"q_values": ", ".join(repr(q) for q in q_values), "n_e": 41}
    return Job("cli_dsf", {"command": "dsf", "n_q": n_q, "n_e": 41,
                           "ini": _ini({"gas": gas, "dsf": dsf})})


def _fp_job(rng, n_cells):
    # equipartition: d_v / eta = 1 / (M beta); the grid spans +-8 sigma and the
    # run lasts 5 relaxation times, so the step count depends on n_cells only
    eta = _uniform(rng, 0.5, 2.0)
    var = 1.0 / (_uniform(rng, 0.5, 2.0) * _log_uniform(rng, *BETA_RANGE))
    sigma = float(np.sqrt(var))
    fp = {"eta": eta, "d_v": eta * var, "v_min": -8.0 * sigma, "v_max": 8.0 * sigma,
          "n_cells": n_cells, "initial": "gaussian",
          "initial_mean": _uniform(rng, -1.0, 1.0) * sigma,
          "initial_var": _uniform(rng, 0.3, 3.0) * var, "t_final": 5.0 / eta}
    return Job("cli_fp", {"command": "fp", "stationary_var": fp["d_v"] / eta,
                          "ini": _ini({"fp": fp})})


def _compare_job(rng):
    compare = {"beta": _uniform(rng, 0.5, 2.0), "mass": _uniform(rng, 0.8, 1.25),
               "d_pp": _uniform(rng, 0.5, 3.0), "fugacity_z": _uniform(rng, 0.5, 1.0),
               "dim": 20, "t_final": 0.125, "n_samples": 5, "n_cells": 60}
    return Job("cli_compare", {"command": "compare", "ini": _ini({"compare": compare})})


def _kinetic_block(rng):
    """13 jobs: four each of coeffs, dsf and fp, and one compare.

    compare propagates a density matrix; one per block keeps the
    liouvillians layer a small share of this workload's time.
    """
    stats = STATISTICS + (str(rng.choice(STATISTICS)),)
    kinds = ["constant", "gaussian"] * 2
    jobs = [_coeffs_job(rng, s, kinds[i])
            for s, i in zip(stats, rng.permutation(4))]
    jobs += [_dsf_job(rng, n) for n in DSF_Q_COUNTS]
    jobs += [_fp_job(rng, n) for n in FP_CELLS]
    jobs.append(_compare_job(rng))
    return [jobs[i] for i in rng.permutation(len(jobs))]


def _blocks(workload, rng):
    if workload == "evolve_dense":
        pool = _evolve_pool(rng)
        while True:
            yield _evolve_block(rng, pool)
    elif workload == "collision_steady":
        while True:
            yield _collision_block(rng)
    elif workload == "kinetic_cli":
        while True:
            yield _kinetic_block(rng)
    else:
        raise ValueError("unknown workload %r" % (workload,))


def job_stream(workload: str, seed: int) -> Iterator[Job]:
    """The endless, seed-determined job sequence of a workload."""
    index = WORKLOADS.index(workload)
    return itertools.chain.from_iterable(
        _blocks(workload, np.random.default_rng([seed, index])))


def warmup_jobs(workload: str, seed: int) -> list[Job]:
    """Jobs run untimed before measuring, drawn from a separate stream.

    One job per job kind (per generator variant for evolve_dense, from the
    same pool as the timed jobs), so lazy imports, BLAS start-up and any
    caches the program keeps are in place before the first timed job.
    """
    index = WORKLOADS.index(workload)
    rng = np.random.default_rng([seed, index, 1])
    if workload == "evolve_dense":
        pool = _evolve_pool(np.random.default_rng([seed, index]))
        block = _evolve_block(rng, pool)
        key = lambda job: job.params["spec"]["variant"]
    else:
        block = next(_blocks(workload, rng))
        key = lambda job: job.kind
    first = {}
    for job in block:
        first.setdefault(key(job), job)
    return list(first.values())


# ---------------------------------------------------------------------------
# runners and checks; each returns a list of failed-check messages


def _herm_drift(rho):
    return float(np.max(np.abs(rho - rho.conj().T)))


def _check_density(rho, problems, label, eig_floor):
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > 1e-10:
        problems.append("%s trace %r" % (label, tr))
    herm = _herm_drift(rho)
    if herm > 1e-10:
        problems.append("%s not Hermitian (%.2e)" % (label, herm))
    low = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    if low < eig_floor:
        problems.append("%s min eigenvalue %.3e < %.1e" % (label, low, eig_floor))


def _evolve_liouvillian_spec(spec):
    variant = spec["variant"]
    common = dict(hamiltonian_kind="harmonic", omega_trap=spec["omega_trap"])
    if variant == "caldeira_leggett":
        return qbmlab.LiouvillianSpec(
            kind=qbmlab.CALDEIRA_LEGGETT, beta=spec["beta"],
            coeffs=qbmlab.BilinearCoefficients(gamma=spec["gamma"]), **common)
    if variant == "bilinear":
        return qbmlab.LiouvillianSpec(
            kind=qbmlab.BILINEAR, coeffs=qbmlab.BilinearCoefficients(
                gamma=spec["gamma"], d_pp=spec["d_pp"], d_xx=spec["d_xx"],
                d_xp=spec["d_xp"], mu=spec["mu"]), **common)
    assembly = (qbmlab.DOUBLE_COMMUTATOR if variant == "minimal_double"
                else qbmlab.SINGLE_GENERATOR)
    return qbmlab.LiouvillianSpec(
        kind=qbmlab.MINIMAL_QBM, beta=spec["beta"], assembly=assembly,
        coeffs=qbmlab.BilinearCoefficients(d_pp=spec["d_pp"],
                                           fugacity_z=spec["fugacity_z"]), **common)


def run_evolve(api, p, workdir):
    spec, state = p["spec"], p["state"]
    cfg = qbmlab.HilbertConfig(dim=spec["dim"])
    liouv = api.build_liouvillian(cfg, _evolve_liouvillian_spec(spec))
    if state["kind"] == "squeezed":
        rho0 = api.squeezed_state(cfg, state["r"])
    elif state["kind"] == "coherent":
        rho0 = api.coherent_state(cfg, complex(state["alpha_re"], state["alpha_im"]))
    else:
        rho0 = api.thermal_state(cfg, state["nbar"])
    record = api.propagate(rho0, liouv, qbmlab.IntegratorConfig(**p["integrator"]))

    with api.span("bench.check"):
        problems = []
        final = record.final_state
        if not np.all(np.isfinite(final)):
            return ["final state not finite"]
        trace_drift = max(float(np.max(np.abs(record.trace - 1.0))),
                          abs(complex(np.trace(final)) - 1.0))
        if trace_drift > 1e-10:
            problems.append("trace drift %.2e" % trace_drift)
        # The adaptive scheme runs at its stability limit, so round-off in the
        # anti-Hermitian part grows until the error control holds it near
        # rtol; the fixed-step runs stay at round-off.
        icfg = p["integrator"]
        herm_tol = 10.0 * (icfg["rtol"] + icfg["atol"]) if "rtol" in icfg else 1e-10
        herm = max(float(np.max(record.herm_drift)), _herm_drift(final))
        if herm > herm_tol:
            problems.append("Hermiticity drift %.2e > %.1e" % (herm, herm_tol))
        floor = float(np.min(record.min_eig))
        if spec["variant"] == "caldeira_leggett":
            if state["kind"] == "squeezed" and not floor < CL_BREACH_THRESHOLD:
                problems.append("Caldeira-Leggett squeezed run did not breach "
                                "(floor %.2e)" % floor)
        elif state["kind"] == "thermal" and floor < CP_BREACH_THRESHOLD:
            problems.append("CP generator breached positivity from a mixed "
                            "state (floor %.2e)" % floor)
        return problems


def _trace_distance(a, b):
    diff = a - b
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T)))))


def run_collision(api, p, workdir):
    cfg = qbmlab.HilbertConfig(dim=p["dim"])
    tm = p["tmatrix"]
    nodes, weights = qbmlab.radial_grid(p["q_max"], p["n_nodes"])
    params = qbmlab.CollisionParameters(
        gas_mass=p["gas_mass"], beta=p["beta"], fugacity_z=p["fugacity_z"],
        tmatrix=qbmlab.TMatrixModel(kind=tm["kind"], t0=tm["t0"],
                                    sigma_q=tm.get("sigma_q")),
        q_nodes=nodes, q_weights=weights, q_max=p["q_max"])
    liouv = api.build_liouvillian(cfg, qbmlab.LiouvillianSpec(
        kind=qbmlab.BOLTZMANN_COLLISION, hamiltonian_kind="harmonic",
        omega_trap=p["omega_trap"], collision=params))
    rho = api.stationary_state(api.superoperator_matrix(liouv))

    twin = api.build_liouvillian(cfg, qbmlab.LiouvillianSpec(
        kind=qbmlab.MINIMAL_QBM, hamiltonian_kind="harmonic",
        omega_trap=p["omega_trap"], beta=p["beta"],
        coeffs=qbmlab.BilinearCoefficients(
            d_pp=qbmlab.collision_dpp(params, cfg.hbar), fugacity_z=p["fugacity_z"])))
    rho_twin = api.stationary_state(api.superoperator_matrix(twin))

    with api.span("bench.check"):
        problems = []
        _check_density(rho, problems, "collision stationary state", -1e-10)
        gap = _trace_distance(rho, rho_twin)
        if gap > STATIONARY_AGREEMENT_TOL:
            problems.append("collision vs minimal stationary states differ: "
                            "trace distance %.2e" % gap)
        return problems


def run_minimal_stationary(api, p, workdir):
    cfg = qbmlab.HilbertConfig(dim=p["dim"])
    liouv = api.build_liouvillian(cfg, qbmlab.LiouvillianSpec(
        kind=qbmlab.MINIMAL_QBM, hamiltonian_kind="harmonic",
        omega_trap=p["omega_trap"], beta=p["beta"],
        coeffs=qbmlab.BilinearCoefficients(d_pp=p["d_pp"],
                                           fugacity_z=p["fugacity_z"])))
    rho = api.stationary_state(api.superoperator_matrix(liouv))
    with api.span("bench.check"):
        problems = []
        _check_density(rho, problems, "minimal stationary state", -1e-10)
        return problems


def _summary(stdout):
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out.setdefault(key.strip(), []).append(float(value))
    return out


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    return dict(zip(header, rows.T))


def _cli_checks(p, summary, table):
    problems = []
    command = p["command"]
    if command == "coeffs":
        gas, tm = p["gas"], p["tmatrix"]
        chi = summary["chi"][0]
        if abs(chi - 0.125) > 1e-12:
            problems.append("chi = %r, expected 1/8" % chi)
        bound = (0.5 * table["gamma"][0]) ** 2
        margin = summary["cp_margin"][0]
        if abs(margin) > 1e-12 * bound:
            problems.append("cp_margin %.3e not ~0 (bound %.3e)" % (margin, bound))
        expected = {"maxwell_boltzmann": 1.0, "bose": 1.0 - gas["fugacity"],
                    "fermi": 1.0 + gas["fugacity"]}[gas["statistics"]]
        ratio = summary["friction_ratio"][0]
        if abs(ratio - expected) > 1e-15 * expected:
            problems.append("friction_ratio %r, expected %r" % (ratio, expected))
        if tm["kind"] == "constant":
            closed = (256.0 * np.pi**3 / 3.0 * gas["gas_mass"] ** 4 * tm["t0"] ** 2
                      / gas["beta"] ** 3)
            rel = abs(table["D_pp"][0] - closed) / closed
            if rel > 1e-9:
                problems.append("D_pp off the constant-amplitude closed form by %.2e"
                                % rel)
    elif command == "dsf":
        zeroth = np.array(summary.get("sum_rule_0", []))
        first = np.array(summary.get("sum_rule_f_ratio", []))
        if zeroth.size != p["n_q"] or first.size != p["n_q"]:
            problems.append("expected %d sum-rule pairs" % p["n_q"])
        elif max(np.max(np.abs(zeroth - 1.0)), np.max(np.abs(first - 1.0))) > 1e-8:
            problems.append("sum rules off: zeroth %s, f %s" % (zeroth, first))
        s = table["S"]
        if s.size != p["n_q"] * p["n_e"] or not np.all(np.isfinite(s)) or np.any(s < 0):
            problems.append("structure factor table malformed")
    elif command == "fp":
        var = summary["stationary_var"][0]
        rel = abs(var - p["stationary_var"]) / p["stationary_var"]
        if rel > FP_STATIONARY_TOL:
            problems.append("stationary variance off d_v/eta by %.2e" % rel)
        if np.max(np.abs(table["mass"] - 1.0)) > 1e-12:
            problems.append("Fokker-Planck mass not conserved")
    elif command == "compare":
        diff = summary["max_rel_diff"][0]
        if not diff < COMPARE_TOL:
            problems.append("matched compare max_rel_diff %.3e >= %.2f"
                            % (diff, COMPARE_TOL))
    return problems


def run_cli(api, p, workdir):
    name = "job"
    config = os.path.join(workdir, name + ".ini")
    out_dir = os.path.join(workdir, "out")
    with open(config, "w") as fh:
        fh.write(p["ini"] + _ini({"output": {"dir": out_dir, "basename": name}}))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = api.cli_main([p["command"], config])
    with api.span("bench.check"):
        if code != 0:
            return ["exit code %d: %s" % (code, stderr.getvalue().strip())]
        outputs = [os.path.join(out_dir, name + ext) for ext in (".csv", ".meta.txt")]
        api.count("cli.output_bytes", sum(os.path.getsize(f) for f in outputs))
        problems = _cli_checks(p, _summary(stdout.getvalue()), _read_csv(outputs[0]))
        for f in outputs + [config]:
            os.remove(f)
        return problems


RUNNERS = {
    "evolve": run_evolve,
    "collision": run_collision,
    "minimal_stationary": run_minimal_stationary,
    "cli_coeffs": run_cli,
    "cli_dsf": run_cli,
    "cli_fp": run_cli,
    "cli_compare": run_cli,
}


def execute(api, job, workdir):
    """Run one job; an exception counts as a failed job, not a crashed run."""
    try:
        return RUNNERS[job.kind](api, job.params, workdir)
    except Exception:  # the closed loop must keep going; report the failure
        return ["raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]]


@dataclass
class LoopResult:
    latencies: list
    failures: list  # (job index, job, problems)
    elapsed: float
    jobs: list


def closed_loop(api, jobs, seconds, workdir, tracer=None, first_index=0):
    """One client: send the next job only when the previous one returned.

    Stops after the first job that ends past the deadline, so every job
    counted ran to completion.
    """
    latencies, failures, ran = [], [], []
    start = perf_counter()
    deadline = start + seconds
    for index, job in enumerate(jobs, first_index):
        t0 = perf_counter()
        if tracer is None:
            problems = execute(api, job, workdir)
        else:
            tracer.job = index
            with tracer.span("bench.job"):
                problems = execute(api, job, workdir)
        t1 = perf_counter()
        latencies.append(t1 - t0)
        if problems:
            failures.append((index, job, problems))
        ran.append(job)
        if t1 >= deadline:
            break
    return LoopResult(latencies, failures, t1 - start, ran)


def repeat_share(jobs):
    """Share of jobs whose generator spec (or config) appeared earlier in the run."""
    keys = [job.params.get("spec_id", json.dumps(job.params, sort_keys=True))
            for job in jobs]
    return 1.0 - len(set(keys)) / len(keys) if keys else 0.0
