"""Command-line front end: configuration, orchestration, CSV/manifest output.

Configuration comes from a flat JSON file (--config) overridden by flags;
every run writes its artifacts to <out>/<run_id>/ where run_id hashes the
fully resolved configuration, the command and the tool version. CSV bytes
are deterministic for a given config and seed, independent of --threads.

Exit codes: 0 ok, 1 invalid configuration, 2 budget/guard violation,
3 internal numerical assertion.
"""

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from . import estimators as est
from .disorder import DisorderLaw, PathRng, freeze_zero_disorder, sample_disorder
from .errors import ConfigError, GuardError, NumericsError
from .kernel import KernelKind, KernelSpec, build_kernel
from .observables import contact_profile, sample_path
from .oracle import (brute_force_partition, homogeneous_pinning_free_energy,
                     inequality_suite, log_srw_mass)
from .partition import ModelParams, forward_tables, log_partition_curve

_DEFAULTS = {
    "seed": 1,
    "replicas": 100,
    "n": 256,
    "n_ladder": None,
    "threads": os.cpu_count() or 1,
    "lam": 0.0,
    "h": 0.0,
    "lam_tilde": 1.0,
    "h_tilde": 0.5,
    "kernel": "srw",
    "alpha": 1.5,
    "n_max": None,
    "law_omega": "gaussian",
    "law_tilde": "gaussian",
    "distances": "4:64",
    "k_list": None,
    "site": None,
    "s_min": 4,
    "s_max": None,
    "paths": 10,
    "epsilons": "0,0.1,0.2,0.3,0.4,0.5,0.6",
    "windows": "4,8,12,16,24,32",
    "axis1": "lam_tilde",
    "axis2": "h_tilde",
    "values1": "0.5,1.0,1.5",
    "values2": "-0.5,0,0.5",
}

_LAW_ALIASES = {
    "rademacher": DisorderLaw.RADEMACHER,
    "gaussian": DisorderLaw.GAUSSIAN,
    "uniform": DisorderLaw.UNIFORM_SYM,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); remap to config error
        raise ConfigError(message)


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def _write_csv(outdir, name, header, rows):
    path = os.path.join(outdir, name)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return name


def _parse_list(val, kind):
    """A list option: a comma string (flag or config file) or a JSON list."""
    items = (str(val).replace(" ", "").split(",") if isinstance(val, str)
             else val)
    try:
        return [kind(v) for v in items if v != ""]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {kind.__name__} list {val!r}") from exc


def _parse_distances(val):
    """``lo:hi`` (inclusive range) or any list form ``_parse_list`` reads."""
    if isinstance(val, str) and ":" in val:
        lo, hi = val.replace(" ", "").split(":", 1)
        try:
            return list(range(int(lo), int(hi) + 1))
        except ValueError as exc:
            raise ConfigError(f"bad distance range {val!r}") from exc
    return _parse_list(val, int)


def _is_negative_list(token):
    if not token.startswith("-") or "," not in token:
        return False
    try:
        _parse_list(token, float)
    except ConfigError:
        return False
    return True


def _glue_negative_lists(argv):
    """Rewrite '--values2 -0.5,0,0.5' as '--values2=-0.5,0,0.5': argparse
    reads a comma list with a leading minus as an unknown flag."""
    out = []
    for token in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and _is_negative_list(token)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def build_parser():
    parser = _Parser(prog="copolymer",
                     description="Disordered copolymer-with-adsorption toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _DISPATCH:
        sp = sub.add_parser(name, add_help=True)
        sp.add_argument("--config", help="flat JSON config file")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--replicas", type=int)
        sp.add_argument("--n", type=int)
        sp.add_argument("--n-ladder", dest="n_ladder")
        sp.add_argument("--threads", type=int)
        sp.add_argument("--out")
        sp.add_argument("--lam", type=float)
        sp.add_argument("--h", type=float)
        sp.add_argument("--lam-tilde", dest="lam_tilde", type=float)
        sp.add_argument("--h-tilde", dest="h_tilde", type=float)
        sp.add_argument("--kernel", choices=["srw", "powerlaw"])
        sp.add_argument("--alpha", type=float)
        sp.add_argument("--n-max", dest="n_max", type=int)
        sp.add_argument("--law-omega", dest="law_omega",
                        choices=sorted(_LAW_ALIASES))
        sp.add_argument("--law-tilde", dest="law_tilde",
                        choices=sorted(_LAW_ALIASES))
        sp.add_argument("--zero-disorder", action="store_true", default=None)
        sp.add_argument("--distances")
        sp.add_argument("--k-list", dest="k_list")
        sp.add_argument("--site", type=int)
        sp.add_argument("--s-min", dest="s_min", type=int)
        sp.add_argument("--s-max", dest="s_max", type=int)
        sp.add_argument("--paths", type=int)
        sp.add_argument("--epsilons")
        sp.add_argument("--windows")
        sp.add_argument("--axis1")
        sp.add_argument("--axis2")
        sp.add_argument("--values1")
        sp.add_argument("--values2")
    return parser


def resolve_config(args):
    cfg = dict(_DEFAULTS)
    cfg["zero_disorder"] = False
    cfg["out"] = os.environ.get("COPOLYMER_OUT", "runs")
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}")
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a flat JSON object")
        for key, val in file_cfg.items():
            key = {"lambda": "lam", "lambda_tilde": "lam_tilde"}.get(key, key)
            if key not in cfg:
                raise ConfigError(f"unknown config key {key!r}")
            cfg[key] = val
    for key in list(cfg):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    cfg["command"] = args.command
    return cfg


def _int_field(cfg, key, minimum=None):
    """cfg[key] as an int of at least ``minimum``: an int, or a float with
    an integral value; strings, bools and fractions are config errors."""
    val = cfg[key]
    if isinstance(val, float) and val.is_integer():
        val = int(val)
    if type(val) is not int:   # JSON and argparse give no other int types
        raise ConfigError(f"{key} must be an integer, got {val!r}")
    if minimum is not None and val < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {val}")
    return val


def _float_field(cfg, key):
    """cfg[key] as a finite float."""
    try:
        val = float(cfg[key])
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {cfg[key]!r}")
    if not np.isfinite(val):
        raise ConfigError(f"{key} must be finite, got {val}")
    return val


def _model(cfg) -> ModelParams:
    return ModelParams(*(_float_field(cfg, key)
                         for key in ("lam", "h", "lam_tilde", "h_tilde")))


def _laws(cfg):
    try:
        return (_LAW_ALIASES[str(cfg["law_omega"]).lower()],
                _LAW_ALIASES[str(cfg["law_tilde"]).lower()])
    except KeyError as exc:
        raise ConfigError(f"unknown disorder law {exc}")


def _ladder(cfg):
    lad = (_parse_list(cfg["n_ladder"], int) if cfg["n_ladder"] is not None
           else [_int_field(cfg, "n", 1)])
    if not lad or any(v < 1 for v in lad):
        raise ConfigError("ladder lengths must be positive")
    return sorted(lad)


def _kernel_for(cfg, horizon):
    n_max = horizon if cfg["n_max"] is None else _int_field(cfg, "n_max", 1)
    try:
        kind = KernelKind(cfg["kernel"])
    except (TypeError, ValueError):
        raise ConfigError(f"unknown kernel {cfg['kernel']!r}")
    return build_kernel(KernelSpec(kind=kind, n_max=n_max,
                                   alpha=_float_field(cfg, "alpha")))


def _setup(cfg, min_n=None):
    """(params, laws or None, kernel, sizes) of a command: sizes is the
    sorted ladder, or N alone (at least ``min_n``) for one-size commands."""
    p = _model(cfg)
    laws = None if cfg.get("zero_disorder") else _laws(cfg)
    if min_n is None:
        sizes = _ladder(cfg)
        horizon = max(sizes)
    else:
        sizes = horizon = _int_field(cfg, "n", min_n)
    return p, laws, _kernel_for(cfg, horizon), sizes


def _run_id(cfg):
    body = json.dumps(cfg, sort_keys=True, default=str) + "|" + __version__
    return hashlib.sha256(body.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# subcommand bodies: each returns a list of written file names

def _cmd_free_energy(cfg, outdir):
    p, laws, kern, ladder = _setup(cfg)
    seed, reps, thr = cfg["seed"], _int_field(cfg, "replicas", 2), cfg["threads"]
    ests = est.estimate_free_energy(p, kern, laws, ladder, reps, seed, thr)
    rows = [(e.n, e.replicas, e.f_hat, e.stderr, e.f_extrapolated) for e in ests]
    return [_write_csv(outdir, "free_energy.csv",
                       ["N", "replicas", "f_hat", "stderr", "f_extrapolated"],
                       rows)]


def _cmd_mu(cfg, outdir):
    p, laws, kern, ladder = _setup(cfg)
    ests = est.estimate_mu(p, kern, laws, ladder,
                           _int_field(cfg, "replicas", 2), cfg["seed"],
                           cfg["threads"])
    rows = [(e.n, e.mu_hat, e.mu_hat_symmetric, e.f_hat) for e in ests]
    return [_write_csv(outdir, "mu.csv",
                       ["N", "mu_hat", "mu_hat_symmetric", "f_hat"], rows)]


def _cmd_profile(cfg, outdir):
    p, laws, kern, n = _setup(cfg, 1)
    d = est._draw_disorder(laws, n, p.h, cfg["seed"], 0)
    tables = forward_tables(d, p, kern)
    prof = contact_profile(tables, d, p, kern)
    rows = [(k, prof.p_contact[k], prof.p_neg[k]) for k in range(1, n + 1)]
    return [_write_csv(outdir, "profile.csv",
                       ["site", "p_contact", "p_neg"], rows)]


def _cmd_correlations(cfg, outdir):
    p, laws, kern, n = _setup(cfg, 8)
    fit = est.fit_correlation_decay(p, kern, laws, n,
                                    _int_field(cfg, "replicas", 2),
                                    _parse_distances(cfg["distances"]),
                                    cfg["seed"], cfg["threads"])
    rows = list(zip(fit.distances, fit.mean_abs_cov, fit.stderr))
    files = [_write_csv(outdir, "decay.csv",
                        ["distance", "mean_abs_cov", "stderr"], rows)]
    files.append(_write_csv(outdir, "decay_fit.csv",
                            ["c2_hat", "c1_hat", "r_squared", "anchor"],
                            [(fit.c2_hat, fit.c1_hat, fit.r_squared,
                              fit.anchor)]))
    return files


def _cmd_boundary(cfg, outdir):
    p, laws, kern, n = _setup(cfg, 8)
    if cfg["k_list"] is not None:
        k_list = _parse_list(cfg["k_list"], int)
    else:
        k_list = [k for k in (n // 8, n // 4, n // 2, 3 * n // 4) if k >= 2]
    rep = est.boundary_influence(p, kern, laws, n, k_list,
                                 _int_field(cfg, "replicas", 2), cfg["seed"],
                                 cfg["threads"])
    rows = list(zip(rep.k_values, rep.distances, rep.mean_abs_diff, rep.stderr))
    files = [_write_csv(outdir, "boundary.csv",
                        ["k", "distance", "mean_abs_diff", "stderr"], rows)]
    files.append(_write_csv(outdir, "boundary_fit.csv",
                            ["rate", "r_squared"],
                            [(rep.rate, rep.r_squared)]))
    return files


def _cmd_excursions(cfg, outdir):
    p, laws, kern, n = _setup(cfg, 8)
    k = n // 2 if cfg["site"] is None else _int_field(cfg, "site")
    s_max = None if cfg["s_max"] is None else _int_field(cfg, "s_max")
    rep = est.excursion_rate_check(p, kern, laws, n, k,
                                   _int_field(cfg, "replicas", 2),
                                   cfg["seed"], s_min=_int_field(cfg, "s_min"),
                                   s_max=s_max, threads=cfg["threads"])
    files = [_write_csv(outdir, "excursion_law.csv", ["s", "mean_pmf"],
                        [(int(s), rep.mean_pmf[s]) for s in rep.s_values])]
    files.append(_write_csv(outdir, "excursion_rates.csv",
                            ["replica", "rate"],
                            list(enumerate(rep.replica_rates))))
    files.append(_write_csv(
        outdir, "excursion_summary.csv",
        ["k", "annealed_rate", "annealed_rate_raw", "median_replica_rate",
         "f_hat", "mu_hat"],
        [(rep.k, rep.annealed_rate, rep.annealed_rate_raw,
          float(np.median(rep.replica_rates)), rep.f_hat, rep.mu_hat)]))
    return files


def _cmd_maxexc(cfg, outdir):
    p, laws, kern, ladder = _setup(cfg)
    studies = est.max_excursion_study(p, kern, laws, ladder,
                                      _int_field(cfg, "replicas", 2),
                                      _int_field(cfg, "paths", 1),
                                      cfg["seed"], threads=cfg["threads"])
    rows = []
    summary = []
    for s in studies:
        for r in range(s.deltas.shape[0]):
            for i in range(s.deltas.shape[1]):
                rows.append((s.n, r, i, int(s.deltas[r, i])))
        summary.append((s.n, s.mu_hat, s.f_hat, s.f_stderr,
                        int(s.localized_guard),
                        s.frac_within.get(0.3, float("nan")),
                        s.frac_within.get(0.5, float("nan"))))
    files = [_write_csv(outdir, "maxexc.csv",
                        ["N", "replica", "path_index", "delta_n"], rows)]
    files.append(_write_csv(
        outdir, "maxexc_summary.csv",
        ["N", "mu_hat", "f_hat", "f_stderr", "localized",
         "frac_eps_03", "frac_eps_05"], summary))
    return files


def _cmd_sample(cfg, outdir):
    p, laws, kern, n = _setup(cfg, 1)
    reps = _int_field(cfg, "replicas", 1)
    paths = _int_field(cfg, "paths", 1)
    rows = []
    for r in range(reps):
        d = est._draw_disorder(laws, n, p.h, cfg["seed"], r)
        tables = forward_tables(d, p, kern)
        for i in range(paths):
            path = sample_path(tables, d, p, kern, PathRng(cfg["seed"], r, i))
            for site, sign in zip(path.returns, path.signs):
                rows.append((r, i, site, sign))
    return [_write_csv(outdir, "sample.csv",
                       ["replica", "path_index", "return_site", "sign"], rows)]


def _cmd_clt(cfg, outdir):
    p, laws, kern, ladder = _setup(cfg)
    rep = est.clt_study(p, kern, laws, ladder, _int_field(cfg, "replicas", 8),
                        cfg["seed"], cfg["threads"])
    rows = list(zip(rep.n_ladder, rep.var_over_n, rep.skewness,
                    rep.excess_kurtosis, rep.ks_statistic))
    return [_write_csv(outdir, "clt.csv",
                       ["N", "var_over_n", "skewness", "kurtosis", "ks"], rows)]


def _cmd_finite_size(cfg, outdir):
    p, laws, kern, ladder = _setup(cfg)
    rep = est.finite_size_study(p, kern, laws, ladder,
                                _int_field(cfg, "replicas", 2), cfg["seed"],
                                cfg["threads"])
    # the top rung has no pair: its gap columns read NaN
    rows = list(zip(rep.n_ladder, rep.f_n, rep.f_stderr,
                    [*rep.scaled_gap, float("nan")],
                    [*rep.gap_stderr, float("nan")]))
    files = [_write_csv(outdir, "finite_size.csv",
                        ["N", "f_hat", "stderr", "scaled_gap", "gap_stderr"],
                        rows)]
    files.append(_write_csv(outdir, "finite_size_verdict.csv", ["verdict"],
                            [(rep.verdict,)]))
    return files


def _cmd_entropy(cfg, outdir):
    # the bound needs a Gaussian omega_tilde: --zero-disorder does not apply
    p, _, kern, n = _setup(cfg, 8)
    rep = est.entropy_bound(p, kern, _laws(cfg),
                            _int_field(cfg, "replicas", 2), n,
                            _parse_list(cfg["epsilons"], float), cfg["seed"],
                            cfg["threads"])
    files = [_write_csv(outdir, "entropy.csv", ["epsilon", "bound", "stderr"],
                        list(zip(rep.epsilon_grid, rep.bound_values,
                                 rep.bound_stderr)))]
    files.append(_write_csv(
        outdir, "entropy_summary.csv",
        ["best_epsilon", "best_bound", "mu_hat", "f_hat", "f_stderr", "gap"],
        [(rep.best_epsilon, rep.best_bound, rep.mu_hat, rep.f_hat,
          rep.f_stderr, rep.gap)]))
    return files


def _cmd_meet(cfg, outdir):
    p, laws, kern, n = _setup(cfg, 8)
    rep = est.meet_probability(p, kern, laws, n,
                               _parse_list(cfg["windows"], int),
                               _int_field(cfg, "replicas", 2),
                               _int_field(cfg, "paths", 1), cfg["seed"],
                               cfg["threads"])
    files = [_write_csv(outdir, "meet.csv", ["window", "prob", "stderr"],
                        list(zip(rep.window_sizes, rep.mean_prob, rep.stderr)))]
    files.append(_write_csv(outdir, "meet_fit.csv", ["rate", "r_squared"],
                            [(rep.rate, rep.r_squared)]))
    return files


def _cmd_phase_scan(cfg, outdir):
    p, laws, kern, n = _setup(cfg, 8)
    points = est.phase_scan(cfg["axis1"], cfg["axis2"],
                            _parse_list(cfg["values1"], float),
                            _parse_list(cfg["values2"], float), p,
                            kern, laws, n, _int_field(cfg, "replicas", 2),
                            cfg["seed"], cfg["threads"])
    rows = [(pt.axis1_value, pt.axis2_value, pt.f_hat, pt.stderr,
             pt.localized) for pt in points]
    return [_write_csv(outdir, "phase.csv",
                       ["axis1", "axis2", "f_hat", "stderr", "localized"],
                       rows)]


def _cmd_selftest(cfg, outdir):
    import itertools

    from .kernel import build_srw_kernel

    rows = []
    failures = []

    def record(check, violation, tol):
        ok = violation <= tol
        rows.append((check, violation, "PASS" if ok else "FAIL"))
        if not ok:
            failures.append(check)

    # DP vs enumeration on randomized instances
    rng = np.random.default_rng(cfg["seed"])
    kern12 = build_srw_kernel(16)
    worst = 0.0
    laws_cycle = itertools.cycle(list(DisorderLaw))
    for i in range(20):
        n = int(rng.integers(1, 13))
        params = ModelParams(*rng.uniform(0.0, 2.0, size=4))
        law = next(laws_cycle)
        d = sample_disorder(law, law, n, params.h, cfg["seed"], i)
        dp = log_partition_curve(d, params, kern12)[n]
        bf = brute_force_partition(d, params, kern12)
        worst = max(worst, abs(dp - bf))
    record("dp_vs_enumeration", worst, 1e-9)

    # free-case identity against the closed binomial form
    worst = 0.0
    zero = ModelParams(0.0, 0.0, 0.0, 0.0)
    for n in range(1, 13):
        d = freeze_zero_disorder(n, 0.0)
        worst = max(worst, abs(log_partition_curve(d, zero, kern12)[n]
                               - log_srw_mass(n)))
    record("free_case_identity", worst, 1e-12)

    # homogeneous pinning: DP extrapolation vs characteristic equation
    kern_big = build_srw_kernel(4096)
    b_star = homogeneous_pinning_free_energy(kern_big, 1.0)
    hom = ModelParams(0.0, 0.0, 1.0, 1.0)
    d = freeze_zero_disorder(4096, 0.0)
    zf = log_partition_curve(d, hom, kern_big)
    extrap = 2.0 * zf[4096] / 4096 - zf[2048] / 2048
    record("homogeneous_pinning_root", abs(extrap - b_star), 1e-3)

    # exact inequality suite over enumerated binary disorder
    suite = inequality_suite(ModelParams(0.4, 0.1, 0.6, 0.2),
                             build_srw_kernel(8), 5)
    record("inequality_suite", max(suite.values()), 1e-12)

    files = [_write_csv(outdir, "selftest.csv",
                        ["check", "max_violation", "status"], rows)]
    if failures:
        raise NumericsError(f"selftest failures: {', '.join(failures)}")
    return files


_DISPATCH = {
    "free-energy": _cmd_free_energy,
    "mu": _cmd_mu,
    "profile": _cmd_profile,
    "correlations": _cmd_correlations,
    "boundary": _cmd_boundary,
    "excursions": _cmd_excursions,
    "maxexc": _cmd_maxexc,
    "sample": _cmd_sample,
    "clt": _cmd_clt,
    "finite-size": _cmd_finite_size,
    "entropy-bound": _cmd_entropy,
    "meet": _cmd_meet,
    "phase-scan": _cmd_phase_scan,
    "selftest": _cmd_selftest,
}


def run_command(cfg) -> str:
    """Validate, run, write artifacts; returns the run directory."""
    command = cfg["command"]
    _model(cfg)   # early validation: model params
    _laws(cfg)    # early validation: laws
    # the commands read these two directly
    cfg["seed"] = _int_field(cfg, "seed", -(1 << 63))
    cfg["threads"] = _int_field(cfg, "threads", 1)
    run_id = _run_id(cfg)
    outdir = os.path.join(str(cfg["out"]), run_id)
    os.makedirs(outdir, exist_ok=True)
    started = time.perf_counter()
    try:
        outputs = _DISPATCH[command](cfg, outdir)
    except Exception:
        # no output files on validation failure: drop partial artifacts
        for name in os.listdir(outdir):
            os.unlink(os.path.join(outdir, name))
        os.rmdir(outdir)
        raise
    command_done = time.perf_counter()
    manifest = {
        "run_id": run_id,
        "version": __version__,
        "command": command,
        "config": {k: v for k, v in sorted(cfg.items())},
        "timings": {"command_s": command_done - started,
                    "total_s": time.perf_counter() - started},
        "outputs": outputs,
    }
    tmp = os.path.join(outdir, "manifest.json.tmp")
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=2, default=str)
        fh.write("\n")
    os.replace(tmp, os.path.join(outdir, "manifest.json"))
    return outdir


def main(argv=None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = build_parser().parse_args(_glue_negative_lists(argv))
        cfg = resolve_config(args)
        outdir = run_command(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except GuardError as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical assertion: {exc}", file=sys.stderr)
        return 3
    print(outdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
