"""Closed-loop benchmark of the rsvm solvers: solve rate and reconstruction SNR.

    python3 perfbench/run.py --workload completion-15x30 --seed 1 \
        --seconds 35 --trace 0

Run from the repository root. The benchmark imports the package from
``src/`` next to this directory and exits with code 2 when it is missing.

One process solves one instance at a time with BLAS and OpenMP pinned to one
thread. From ``--seed`` it builds a fixed set of instances with the public
constructors of ``rsvm.sensing``; a round takes one instance of each
sampling ratio and solves it with every algorithm of the workload, in an
order that rotates from instance to instance. Every solve goes through
``rsvm.bench.run_algorithm``, the dispatch a sweep uses, with a sweep's
settings. Rounds cycle through the set until ``--seconds`` have passed and
the whole set has been solved at least once.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` count solves; ``metrics`` holds the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``). The line
before it records the run's settings and versions.
"""

import os
import time

# One BLAS/OpenMP thread, set before numpy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SNR_DB = 20.0
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    scenario: str
    p: int
    q: int
    r: int
    m_fractions: tuple
    variant: str          # the workload's fast/structured Bayesian solver
    n_rounds: int         # rounds in the fixed instance set
    psd_truth: bool = False

    @property
    def algorithms(self) -> tuple:
        return ("rsvm", self.variant, "nuclear")


WORKLOADS = {
    # Acceptance criterion 5; the two ratios sit on either side of the
    # Woodbury/direct switch at m = pq/2.
    "completion-15x30": Workload("completion", 15, 30, 3, (0.4, 0.7),
                                 "rsvm-accel", 16),
    # Criterion 6; dense sensing makes the operator and nuclear layers show.
    "reconstruction-15x15": Workload("reconstruction", 15, 15, 2, (0.3, 0.6),
                                     "rsvm-accel", 40),
    # Criterion 9; the only workload that runs the symmetric solver.
    "symmetric-10x10": Workload("completion", 10, 10, 2, (0.7,),
                                "rsvm-symmetric", 150, psd_truth=True),
}

END_TO_END = (
    ("setup_s", "s"),
    ("trials_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("rsvm.solves_per_s", "1/s"),
    ("variant.solves_per_s", "1/s"),
    ("nuclear.solves_per_s", "1/s"),
    ("rsvm.recon_snr_db", "dB"),
    ("variant.recon_snr_db", "dB"),
    ("nuclear.recon_snr_db", "dB"),
)

# Wrapped call sites: (owner inside rsvm, attribute, layer it reports as).
WRAP_SITES = (
    ("bench", "run_algorithm", "bench.run_algorithm"),
    ("bench", "solve", "core.solve"),
    ("accel", "solve_accelerated", "accel.solve_accelerated"),
    ("symmetric", "solve_symmetric", "symmetric.solve_symmetric"),
    ("nuclear", "solve_constrained", "nuclear.solve_constrained"),
    ("core", "map_estimate", "core.map_estimate"),
    ("core", "update_precisions", "core.update_precisions"),
    ("accel", "update_precisions", "core.update_precisions"),
    ("core", "balance_precisions", "core.balance_precisions"),
    ("accel", "balance_precisions", "core.balance_precisions"),
    ("core", "update_noise_precision", "core.update_noise_precision"),
    ("core", "neg_log_joint", "core.neg_log_joint"),
    ("core", "posterior_covariance", "kronops.posterior_covariance"),
    ("symmetric", "posterior_covariance", "kronops.posterior_covariance"),
    ("kronops", "spd_inverse", "kronops.spd_inverse"),
    ("core", "spd_inverse", "kronops.spd_inverse"),
    ("symmetric", "spd_inverse", "kronops.spd_inverse"),
    ("accel", "spd_inverse", "accel.spd_inverse"),
    ("core", "trace_contract_left", "kronops.trace_contract_left"),
    ("core", "trace_contract_right", "kronops.trace_contract_right"),
    ("symmetric", "nearest_kron_sum", "kronops.nearest_kron_sum"),
    ("symmetric", "update_precision_symmetric",
     "symmetric.update_precision_symmetric"),
    ("nuclear", "svt_prox", "nuclear.svt_prox"),
    ("nuclear", "nuclear_norm", "nuclear.nuclear_norm"),
    ("nuclear", "largest_gram_eigenvalue", "nuclear.largest_gram_eigenvalue"),
    ("sensing.MeasurementOperator", "apply",
     "sensing.MeasurementOperator.apply"),
    ("sensing.MeasurementOperator", "apply_adjoint",
     "sensing.MeasurementOperator.apply_adjoint"),
    ("sensing.MeasurementOperator", "trace_quadratic",
     "sensing.MeasurementOperator.trace_quadratic"),
)

_APPLY = ("sensing.MeasurementOperator.apply", ("s", "calls"))
_ADJOINT = ("sensing.MeasurementOperator.apply_adjoint", ("s", "calls"))
_TRACE_Q = ("sensing.MeasurementOperator.trace_quadratic", ("s", "calls"))
_DISPATCH = ("bench.run_algorithm", ("self_s",))

# Per-layer metrics reported per solve of each algorithm: (layer, fields).
LAYERS = {
    "rsvm": (
        ("kronops.posterior_covariance", ("s", "calls")),
        ("kronops.spd_inverse", ("s", "calls")),
        ("kronops.trace_contract_left", ("s",)),
        ("kronops.trace_contract_right", ("s",)),
        ("core.solve", ("self_s",)),
        ("core.map_estimate", ("self_s",)),
        ("core.update_precisions", ("self_s",)),
        ("core.balance_precisions", ("s",)),
        ("core.update_noise_precision", ("self_s",)),
        ("core.neg_log_joint", ("s",)),
        _APPLY, _ADJOINT, _TRACE_Q, _DISPATCH,
    ),
    "rsvm-accel": (
        ("accel.solve_accelerated", ("self_s",)),
        ("accel.spd_inverse", ("s", "calls")),
        ("core.update_precisions", ("self_s",)),
        ("kronops.spd_inverse", ("s", "calls")),
        ("kronops.trace_contract_left", ("s",)),
        ("kronops.trace_contract_right", ("s",)),
        ("core.balance_precisions", ("s",)),
        ("core.neg_log_joint", ("s",)),
        _APPLY, _DISPATCH,
    ),
    "rsvm-symmetric": (
        ("symmetric.solve_symmetric", ("self_s",)),
        ("symmetric.update_precision_symmetric", ("self_s",)),
        ("kronops.posterior_covariance", ("s", "calls")),
        ("kronops.nearest_kron_sum", ("s", "calls")),
        ("kronops.spd_inverse", ("s", "calls")),
        _APPLY, _ADJOINT, _TRACE_Q, _DISPATCH,
    ),
    "nuclear": (
        ("nuclear.solve_constrained", ("self_s",)),
        ("nuclear.svt_prox", ("s", "calls")),
        ("nuclear.nuclear_norm", ("s", "calls")),
        ("nuclear.largest_gram_eigenvalue", ("s",)),
        _APPLY, _ADJOINT, _DISPATCH,
    ),
}
FIELD_UNITS = {"s": "s/solve", "self_s": "s/solve", "calls": "calls/solve"}


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in output order."""
    out = [("setup.sensing.generate.s", "s")]
    for alg, layers in LAYERS.items():
        out.append((f"{alg}.iterations", "count"))
        for layer, fields in layers:
            out += [(f"{alg}.{layer}.{f}", FIELD_UNITS[f]) for f in fields]
    out.append(("nuclear.svd_per_iteration", "ratio"))
    return out


def layer_metrics(tracer, solves, iters_pass, iters_total) -> dict:
    """Per-solve layer figures; 0 for an algorithm the workload does not run."""
    metrics = {}
    for alg, layers in LAYERS.items():
        n = solves.get(alg, 0)
        metrics[f"{alg}.iterations"] = iters_pass.get(alg, 0)
        for layer, fields in layers:
            s, self_s, calls = tracer.get(alg, layer)
            per = {"s": s, "self_s": self_s, "calls": calls}
            for f in fields:
                metrics[f"{alg}.{layer}.{f}"] = per[f] / n if n else 0.0
    svds = sum(tracer.get("nuclear", layer)[2]
               for layer in ("nuclear.svt_prox", "nuclear.nuclear_norm"))
    nuc_iters = iters_total.get("nuclear", 0)
    metrics["nuclear.svd_per_iteration"] = svds / nuc_iters if nuc_iters else 0.0
    return metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_seconds() -> float:
    """Wall time for a fresh interpreter to start and import the package."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import rsvm"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
    return time.perf_counter() - start


def git_sha():
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = git / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def versions(np, scipy) -> dict:
    def blas(show_config):
        try:
            return show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return None
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_openblas": blas(np.show_config),
            "scipy_openblas": blas(scipy.show_config)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rsvm" / "__init__.py").is_file():
        print(f"run.py: no rsvm package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    import numpy as np
    import scipy

    import checks
    import rsvm
    from rsvm import bench
    from rsvm.core import SolverDivergenceError
    from rsvm.sensing import (completion_operator, gaussian_operator,
                              generate_low_rank, measure, noise_sigma_for_snr)
    from spans import Tracer

    if Path(rsvm.__file__).resolve().parent != (SRC / "rsvm").resolve():
        print(f"run.py: imported rsvm from {rsvm.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    algs = wl.algorithms
    cfg = bench.ExperimentConfig(
        scenario=wl.scenario, p=wl.p, q=wl.q, r=wl.r,
        m_fraction=list(wl.m_fractions), algorithms=algs, seed=args.seed,
        psd_truth=wl.psd_truth)
    bisect_tol = cfg.nuclear_cfg.bisect_tol

    def make_instances():
        """Rounds of instances, seeded like a sweep's trial grid."""
        snr = 10.0 ** (SNR_DB / 10.0)
        rounds = []
        for k in range(wl.n_rounds):
            row = []
            for ci, frac in enumerate(wl.m_fractions):
                m = bench.m_from_fraction(wl.p, wl.q, frac)
                if wl.psd_truth:
                    left = np.random.default_rng(
                        [args.seed, ci, k, 0]).standard_normal((wl.p, wl.r))
                    truth = left @ left.T
                else:
                    truth = generate_low_rank(wl.p, wl.q, wl.r,
                                              [args.seed, ci, k, 0])
                if wl.scenario == "completion":
                    op = completion_operator(wl.p, wl.q, m, [args.seed, ci, k, 1])
                else:
                    op = gaussian_operator(wl.p, wl.q, m, [args.seed, ci, k, 1])
                sigma_n = noise_sigma_for_snr(wl.scenario, wl.p, wl.q, wl.r,
                                              m, snr)
                row.append(measure(op, truth, sigma_n, [args.seed, ci, k, 2]))
            rounds.append(row)
        return rounds

    # Set-up, repeated: a fresh interpreter importing the package, and
    # instance generation plus one warm-up solve per algorithm. setup_s adds
    # the medians, which keeps one slow moment of the machine out of it.
    import_times = [import_seconds() for _ in range(SETUP_REPEATS)]
    gen_times, setup_times = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        rounds = make_instances()
        gen_times.append(time.perf_counter() - t0)
        for name in algs:
            bench.run_algorithm(name, rounds[0][0], cfg)
        setup_times.append(time.perf_counter() - t0)
    setup_s = statistics.median(import_times) + statistics.median(setup_times)

    tracer = Tracer() if args.trace else None
    oracle = {}
    if tracer:
        def observe_map(call_args, result):
            if tracer.algorithm == "rsvm" and "x" not in oracle:
                prec = call_args[0].precisions
                oracle.update(alpha_l=prec.alpha_l.copy(),
                              alpha_r=prec.alpha_r.copy(), beta=prec.beta,
                              x=np.array(result[0], dtype=float))
        for owner, attr, layer in WRAP_SITES:
            tracer.wrap(owner, attr, layer,
                        observe_map if layer == "core.map_estimate" else None)

    failures = []
    solve_s = dict.fromkeys(algs, 0.0)
    solves = dict.fromkeys(algs, 0)
    iters_total = dict.fromkeys(algs, 0)
    iters_pass = dict.fromkeys(algs, 0)
    err_sq = dict.fromkeys(algs, 0.0)
    signal_sq = dict.fromkeys(algs, 0.0)
    first_err = {}
    attempted = failed = trials = 0

    def check(msg):
        if msg:
            failures.append(msg)

    start = time.perf_counter()
    n_round = 0
    try:
        while n_round < wl.n_rounds or time.perf_counter() - start < args.seconds:
            for ci, inst in enumerate(rounds[n_round % wl.n_rounds]):
                key = (n_round % wl.n_rounds) * len(wl.m_fractions) + ci
                first_pass = n_round < wl.n_rounds
                op = inst.operator
                raw = (op.vec_indices, op.matrix)
                truth = inst.ground_truth
                shift = key % len(algs)
                all_ok = True
                for name in algs[shift:] + algs[:shift]:
                    attempted += 1
                    if tracer:
                        tracer.algorithm = name
                        oracle.clear()
                    t0 = time.perf_counter()
                    try:
                        est = bench.run_algorithm(name, inst, cfg)
                    except (SolverDivergenceError, np.linalg.LinAlgError) as exc:
                        failed += 1
                        all_ok = False
                        print(f"failed solve: {name} on instance {key}: {exc}",
                              file=sys.stderr)
                        continue
                    solve_s[name] += time.perf_counter() - t0
                    solves[name] += 1
                    iters_total[name] += est.iterations
                    x = est.x_hat
                    bad = checks.check_shape_finite(x, inst.p, inst.q)
                    check(bad and f"{name}: {bad}")
                    if bad:
                        continue
                    err = float(np.sum((truth - x) ** 2))
                    if first_pass:
                        first_err[key, name] = err
                        err_sq[name] += err
                        signal_sq[name] += float(np.sum(truth * truth))
                        iters_pass[name] += est.iterations
                    elif err != first_err.get((key, name), err):
                        failures.append(f"{name}: instance {key} solved twice "
                                        "gave different estimates")
                    if name == "rsvm-symmetric":
                        check(checks.check_symmetric(x))
                    if name == "nuclear":
                        delta = checks.constraint_radius(inst.m, inst.sigma_n)
                        if est.converged:
                            check(checks.check_nuclear_residual(
                                x, inst.y, *raw, delta, bisect_tol))
                        check(checks.check_nuclear_norm_bound(
                            x, truth, inst.y, *raw, delta))
                    if tracer and name == "rsvm":
                        if "x" not in oracle:
                            failures.append("traced run saw no rsvm "
                                            "map_estimate call")
                        else:
                            check(checks.check_posterior_mean(
                                oracle["x"], oracle["alpha_l"],
                                oracle["alpha_r"], oracle["beta"], inst.y,
                                *raw))
                if all_ok:
                    trials += 1
            n_round += 1
        elapsed = time.perf_counter() - start
    finally:
        if tracer:
            tracer.restore()

    snr = {name: checks.snr_db(err_sq[name], signal_sq[name]) for name in algs}
    for name in algs:
        if name != "nuclear":
            check(checks.check_beats_baseline(name, snr[name], snr["nuclear"]))
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)

    def rate(name):
        return solves[name] / solve_s[name] if solve_s[name] > 0 else 0.0

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "elapsed_s": elapsed, "rounds": n_round,
        "import_s": import_times, "setup_repeats_s": setup_times,
        "instances": wl.n_rounds * len(wl.m_fractions),
        "trials_per_s": trials / elapsed,
        "variant": wl.variant, "git_sha": git_sha(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "omp_threads": os.environ["OMP_NUM_THREADS"],
        "nproc": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
        **versions(np, scipy),
    }
    if tracer:
        info["absent"] = tracer.absent
    print(json.dumps({"info": info}))

    if tracer:
        metrics = layer_metrics(tracer, solves, iters_pass, iters_total)
        metrics["setup.sensing.generate.s"] = statistics.median(gen_times)
        units = dict(per_layer_names())
    else:
        metrics = {
            "setup_s": setup_s,
            "trials_per_s": trials / elapsed,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for label, name in (("rsvm", "rsvm"), ("variant", wl.variant),
                            ("nuclear", "nuclear")):
            metrics[f"{label}.solves_per_s"] = rate(name)
            metrics[f"{label}.recon_snr_db"] = snr[name]
        units = dict(END_TO_END)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
