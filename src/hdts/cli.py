"""Command-line interface.

Subcommands: simulate, estimate, ci, covtest, experiment,
check-conditions.  Global flags --seed / --threads / --print-defaults.
Only simulate, experiment and check-conditions read a config; estimate,
ci and covtest take their settings from flags.  Exit codes:
0 success, 2 validation error (a size too large to allocate included),
3 numerical failure (a float overflow included), with a JSON error body
on stderr.  Results are bit-identical to in-process library calls with
the same seed, and independent of --threads.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import sys
from pathlib import Path


from . import io
from .depmeasure import DependenceProfile, closed_form_profile, ga_condition_check
from .errors import NumericalError, ValidationError
from .covinf import cov_simultaneous_test, pair_indices
from .experiments import (ExperimentConfig, TOOL_VERSION, counterexample_demo,
                          coverage_experiment, ecdf_dump_rows, ga_distance,
                          mc_long_run_sigma, mdep_rate_check, rate_experiment)
from .gboot import simultaneous_ci
from .longrun import plan_blocks, sigma_tilde
from .model import InnovationLaw, Panel, ProcessSpec, simulate
from .rng import RngContract
from .util import sha256_file

DEFAULT_CONFIG = """\
[process]
family = linear
p = 5
alpha = 1.0
K = 200
h = 0
rho = 0.0
theta1 = 0.3
theta2 = 0.3
burn_in = 1024

[innovation]
kind = standard-gaussian
df = 8.0
tail_index = 4.0
u0 = 7.38905609893065
body = uniform

[simulate]
n = 1000

[experiment]
kind = coverage
R = 200
B = 2000
n = 500
p =
M = 0
theta = 0.95
n_grid = 512,1024,2048,4096
m_grid = 16,32,64,128,256
p_grid = 64,512,4096
q = 8.0
tail_index = 4.0
body = shell
n_perm = 0
"""


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def _known_keys() -> dict[str, set[str]]:
    ref = configparser.ConfigParser()
    ref.read_string(DEFAULT_CONFIG)
    return {s: set(ref.options(s)) for s in ref.sections()}


def _load_config(path) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    cfg.read_string(DEFAULT_CONFIG)  # defaults first, file overrides
    try:
        with open(path, encoding="utf-8") as f:
            cfg.read_file(f, source=str(path))
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValidationError(f"malformed config: {exc}")
    known = _known_keys()
    for section in cfg.sections():
        if section not in known:
            raise ValidationError(f"config has unknown section [{section}]")
        extra = set(cfg.options(section)) - known[section]
        if extra:
            raise ValidationError(
                f"config has unknown key(s) in [{section}]: {', '.join(sorted(extra))}")
    return cfg


def _get(cfg, section, key, conv, what):
    try:
        return conv(cfg.get(section, key))
    except (configparser.NoSectionError, configparser.NoOptionError):
        raise ValidationError(f"config missing [{section}] {key}")
    except ValueError as exc:
        raise ValidationError(
            f"config field [{section}] {key} is not a valid {what}: {exc}")


def _int_list(text: str) -> list[int]:
    return [int(v.strip()) for v in text.split(",") if v.strip()]


def _float_list(text: str) -> list[float]:
    return [float(v.strip()) for v in text.split(",") if v.strip()]


def build_innovation(cfg) -> InnovationLaw:
    kind = _get(cfg, "innovation", "kind", str, "string").strip()
    if kind == "standard-gaussian":
        return InnovationLaw.gaussian()
    if kind == "student-t":
        return InnovationLaw.student_t(_get(cfg, "innovation", "df", float, "float"))
    if kind == "symmetric-pareto":
        return InnovationLaw.symmetric_pareto(
            _get(cfg, "innovation", "tail_index", float, "float"),
            u0=_get(cfg, "innovation", "u0", float, "float"),
            body=_get(cfg, "innovation", "body", str, "string").strip())
    raise ValidationError(f"config field [innovation] kind: unknown kind {kind!r}")


def build_spec(cfg) -> ProcessSpec:
    return ProcessSpec(
        family=_get(cfg, "process", "family", str, "string").strip(),
        p=_get(cfg, "process", "p", int, "integer"),
        innovation=build_innovation(cfg),
        alpha=_get(cfg, "process", "alpha", float, "float"),
        K=_get(cfg, "process", "K", int, "integer"),
        h=_get(cfg, "process", "h", int, "integer"),
        rho=_get(cfg, "process", "rho", float, "float"),
        theta1=_get(cfg, "process", "theta1", float, "float"),
        theta2=_get(cfg, "process", "theta2", float, "float"),
        burn_in=_get(cfg, "process", "burn_in", int, "integer"),
    )


def _opt_M(value: int) -> int | None:
    return None if value == 0 else value


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _write_outputs(args, command: str, manifest_path: Path, outputs,
                   config_path=None) -> None:
    """Write each (path, writer, *writer args) of outputs, then a manifest
    holding their digests at manifest_path."""
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    man = io.RunManifest(
        tool_version=TOOL_VERSION, command=command, base_seed=args.seed,
        threads=args.threads,
        config_digest=sha256_file(config_path) if config_path else None)
    for path, write, *write_args in outputs:
        write(path, *write_args)
        man.add_output(path)
    man.write(manifest_path)


def _beside(base: Path, suffix: str) -> Path:
    return base.parent / (base.name + suffix)


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    spec = build_spec(cfg)
    n = _get(cfg, "simulate", "n", int, "integer")
    panel = simulate(spec, n, RngContract(args.seed))
    base = Path(args.out or "panel")
    csv_path = _beside(base, ".csv")
    bin_path = _beside(base, ".bin")
    _write_outputs(args, "simulate", _beside(base, ".manifest.json"),
                   [(csv_path, io.write_panel_csv, panel.data),
                    (bin_path, io.write_array_binary, panel.data)], args.config)
    print(f"wrote {csv_path} and {bin_path} (n={n}, p={spec.p})")
    return 0


def cmd_estimate(args) -> int:
    data = io.read_panel_any(args.panel)
    panel = Panel.from_data(data)
    plan = plan_blocks(panel.n, _opt_M(args.M))
    est = sigma_tilde(panel, plan)
    base = Path(args.out or "estimate")
    csv_path = _beside(base, ".sigma.csv")
    _write_outputs(args, "estimate", _beside(base, ".manifest.json"), [
        (csv_path, io.write_matrix_csv, est.sigma),
        (_beside(base, ".sigma.bin"), io.write_array_binary, est.sigma),
        (_beside(base, ".sigma.json"), io.write_json,
         {"kind": "tilde", "n": plan.n, "M": plan.M, "w": plan.w,
          "unused": plan.unused})])
    print(f"wrote {csv_path} (p={panel.p}, M={plan.M}, w={plan.w})")
    return 0


def cmd_ci(args) -> int:
    data = io.read_panel_any(args.panel)
    panel = Panel.from_data(data)
    report = simultaneous_ci(panel, args.theta, _opt_M(args.M), args.B,
                             RngContract(args.seed))
    columns = {"j": list(range(1, panel.p + 1)), "mu_hat": report.mu_hat.tolist(),
               "lo": report.lo.tolist(), "hi": report.hi.tolist(),
               "sigma_tilde_jj": report.sigma_diag.tolist()}
    base = Path(args.out or "ci")
    csv_path = _beside(base, ".ci.csv")
    _write_outputs(args, "ci", _beside(base, ".manifest.json"), [
        (csv_path, io.write_rows_csv, columns),
        (_beside(base, ".ci.json"), io.write_json, report.sidecar_dict())])
    print(f"wrote {csv_path} (chi={report.chi:.6g}, M={report.M}, w={report.w})")
    return 0


def cmd_covtest(args) -> int:
    data = io.read_panel_any(args.panel)
    panel = Panel.from_data(data)
    null_gamma = io.read_matrix_csv(args.null) if args.null else None
    res = cov_simultaneous_test(panel, args.theta, _opt_M(args.M), args.B,
                                RngContract(args.seed), null_gamma=null_gamma)
    js, ks = pair_indices(panel.p)
    columns = {"j": (js + 1).tolist(), "k": (ks + 1).tolist(),
               "gamma_hat": res.gamma_hat.tolist(), "stat": res.pair_stats.tolist(),
               "threshold": res.threshold, "flag": res.flags.astype(int).tolist()}
    base = Path(args.out or "covtest")
    csv_path = _beside(base, ".covtest.csv")
    _write_outputs(args, "covtest", _beside(base, ".manifest.json"), [
        (csv_path, io.write_rows_csv, columns),
        (_beside(base, ".covtest.json"), io.write_json,
         {"theta": res.theta, "statistic": res.statistic,
          "threshold": res.threshold, "reject": res.reject,
          "n": res.n, "M": res.M, "w": res.w, "B": res.B})])
    print(f"wrote {csv_path} (stat={res.statistic:.6g}, "
          f"threshold={res.threshold:.6g}, reject={res.reject})")
    return 0


# Each experiment kind maps (cfg, spec, R, rng, args) to (rows, meta,
# cell runtimes, ecdf cells); an ecdf cell is (name, sample, gauss).

def _run_coverage(cfg, spec, R, rng, args):
    config = ExperimentConfig(
        spec=spec, R=R,
        B=_get(cfg, "experiment", "B", int, "integer"),
        base_seed=args.seed,
        n_list=_get(cfg, "experiment", "n", _int_list, "integer list"),
        p_list=_get(cfg, "experiment", "p", _int_list, "integer list"),
        M_list=[_opt_M(m) for m in
                _get(cfg, "experiment", "M", _int_list, "integer list")],
        theta_list=_get(cfg, "experiment", "theta", _float_list, "float list"),
        threads=args.threads)
    report = coverage_experiment(config)
    return report.rows, {}, report.runtimes, []


def _run_ga(cfg, spec, R, rng, args):
    n = _get(cfg, "experiment", "n", int, "integer")
    n_perm = _get(cfg, "experiment", "n_perm", int, "integer")
    sigma, meta = None, {}
    if spec.family not in ("iid", "linear"):
        sigma = mc_long_run_sigma(spec, rng=rng.derive("sigma-oracle"))
        meta["sigma_oracle"] = "approximate-batched-mean"
    res = ga_distance(spec, n, R, rng, sigma=sigma,
                      n_perm=n_perm, threads=args.threads)
    rows = [{"n": res.n, "p": res.p, "R": res.R, "ks": res.ks,
             "pvalue": float("nan") if res.pvalue is None else res.pvalue}]
    cell = (f"ga_n{res.n}_p{res.p}", res.sample_stats, res.gauss_stats)
    return rows, meta, res.runtimes, [cell]


def _run_rate(cfg, spec, R, rng, args):
    res = rate_experiment(
        spec, _get(cfg, "experiment", "n_grid", _int_list, "integer list"),
        R, rng, q=_get(cfg, "experiment", "q", float, "float"),
        threads=args.threads)
    meta = {"empirical_slope": res.empirical_slope,
            "theoretical_slope": res.theoretical_slope}
    return res.rows, meta, res.runtimes, []


def _run_mdep(cfg, spec, R, rng, args):
    res = mdep_rate_check(
        spec, _get(cfg, "experiment", "q", float, "float"), spec.alpha,
        _get(cfg, "experiment", "m_grid", _int_list, "integer list"),
        R, rng, n=_get(cfg, "experiment", "n", int, "integer"),
        threads=args.threads)
    return res.rows, {"slope": res.slope, "target_slope": res.target_slope}, res.runtimes, []


def _run_counterexample(cfg, spec, R, rng, args):
    res = counterexample_demo(
        _get(cfg, "experiment", "tail_index", float, "float"),
        _get(cfg, "experiment", "n", int, "integer"),
        _get(cfg, "experiment", "p_grid", _int_list, "integer list"),
        R, rng, body=_get(cfg, "experiment", "body", str, "string").strip(),
        threads=args.threads)
    cells = [(f"ctrex_p{p_val}", samp, gauss)
             for p_val, (samp, gauss) in res.samples.items()]
    return res.rows, {}, res.runtimes, cells


_EXPERIMENTS = {
    "coverage": _run_coverage,
    "ga": _run_ga,
    "rate": _run_rate,
    "mdep": _run_mdep,
    "counterexample": _run_counterexample,
}


def cmd_experiment(args) -> int:
    cfg = _load_config(args.config)
    spec = build_spec(cfg)
    kind = _get(cfg, "experiment", "kind", str, "string").strip()
    if kind not in _EXPERIMENTS:
        raise ValidationError(
            f"config field [experiment] kind: unknown kind {kind!r}; "
            f"expected one of {sorted(_EXPERIMENTS)}")
    R = _get(cfg, "experiment", "R", int, "integer")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows, meta, runtimes, ecdf_cells = _EXPERIMENTS[kind](
        cfg, spec, R, RngContract(args.seed), args)

    csv_path = out_dir / "report.csv"
    outputs = [(csv_path, io.write_rows_csv, io.rows_to_columns(rows))]
    if args.dump_ecdf:
        outputs += [(out_dir / f"{name}.ecdf.csv", io.write_rows_csv,
                     io.rows_to_columns(ecdf_dump_rows(sample, gauss)))
                    for name, sample, gauss in ecdf_cells]
    io.write_json(out_dir / "report.meta.json",
                  {"meta": {"kind": kind, "family": spec.family, **meta},
                   "cell_runtimes_sec": runtimes})
    _write_outputs(args, f"experiment:{kind}", out_dir / "manifest.json", outputs,
                   args.config)
    print(f"wrote {csv_path} ({len(rows)} cells)")
    return 0


def cmd_check_conditions(args) -> int:
    if (args.profile is None) == (args.config is None):
        raise ValidationError("check-conditions needs exactly one of --profile and --config")
    if args.profile is not None:
        profile = DependenceProfile.from_json_dict(io.read_json(args.profile))
    else:
        spec = build_spec(_load_config(args.config))
        profile = closed_form_profile(spec, args.q, args.alpha, nu=args.nu)
    report = ga_condition_check(profile, args.n, p=args.p, nu=args.nu).to_json_dict()
    if args.out:
        out = Path(args.out)
        _write_outputs(args, "check-conditions", _beside(out, ".manifest.json"),
                       [(out, io.write_json, report)], args.config)
        print(f"wrote {out}")
    else:
        sys.stdout.write(io.json_text(report))
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; each parse_args call fills a
    fresh namespace, so calls share no state through it."""
    import os
    ap = argparse.ArgumentParser(
        prog="hdts",
        description="Simultaneous inference for high-dimensional stationary time series")
    ap.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    ap.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                    help="worker threads (default: all cores); results are "
                         "independent of this")
    ap.add_argument("--print-defaults", action="store_true",
                    help="print the default config and exit")
    sub = ap.add_subparsers(dest="command")

    sp = sub.add_parser("simulate", help="simulate a panel from a config")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", default=None, help="output base path (no suffix)")

    sp = sub.add_parser("estimate", help="batched-mean long-run covariance")
    sp.add_argument("--panel", required=True)
    sp.add_argument("--M", type=int, default=0, help="block length; 0 = floor(n^(1/3))")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("ci", help="simultaneous confidence intervals")
    sp.add_argument("--panel", required=True)
    sp.add_argument("--theta", type=float, default=0.95)
    sp.add_argument("--M", type=int, default=0)
    sp.add_argument("--B", type=int, default=2000)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("covtest", help="simultaneous covariance test")
    sp.add_argument("--panel", required=True)
    sp.add_argument("--theta", type=float, default=0.95)
    sp.add_argument("--M", type=int, default=0)
    sp.add_argument("--B", type=int, default=2000)
    sp.add_argument("--null", default=None, help="CSV with the null covariance matrix")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out-dir", required=True)
    sp.add_argument("--dump-ecdf", action="store_true")

    sp = sub.add_parser("check-conditions", help="evaluate approximation conditions")
    sp.add_argument("--profile", default=None, help="profile JSON path")
    sp.add_argument("--config", default=None, help="spec config (closed-form profile)")
    sp.add_argument("--q", type=float, default=8.0)
    sp.add_argument("--alpha", type=float, default=1.5)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--nu", type=float, default=None,
                    help="psi_nu order; selects the sub-exponential check "
                         "(default: the profile's stored nu, if any)")
    sp.add_argument("--out", default=None)
    return ap


_DISPATCH = {
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
    "ci": cmd_ci,
    "covtest": cmd_covtest,
    "experiment": cmd_experiment,
    "check-conditions": cmd_check_conditions,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.print_defaults:
        print(DEFAULT_CONFIG, end="")
        return 0
    if not args.command:
        ap.print_help()
        return 0
    try:
        if args.threads < 1:
            raise ValidationError(f"--threads must be >= 1, got {args.threads}")
        return _DISPATCH[args.command](args)
    except (NumericalError, OverflowError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "type": "numerical"}) + "\n")
        return 3
    except (ValidationError, OSError, MemoryError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "type": "validation"}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
