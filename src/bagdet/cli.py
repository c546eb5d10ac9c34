"""Command-line front end.

One executable, four modes:

- ``determinant``: compute the log-determinant ratio and write it as
  JSON or CSV.
- ``verify``: run the cross-check suites (symbol identities, Green
  residuals, quadrature oracles) against named tolerances and write a
  pass/fail report.
- ``ellipticity``: rank checks for the disk boundary condition plus the
  four-dimensional chiral obstruction demonstration.
- ``sweep``: tabulate the determinant over a parameter grid as plot-ready
  CSV.

Configuration comes from an optional key = value file, whose keys are
the option names (``radius``, ``tol.pde_residual``, ...), plus flag
overrides (flags win); one parser reads and checks both.  Exit codes:
0 ok, 1 usage error (also an unknown key or an abbreviated flag),
2 tolerance failure, 3 domain error (e.g. w = 0).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field, asdict

import numpy as np

from . import calderon, determinant, greens, seeley
from .clifford import make_rep_2d
from .errors import BagdetError, DomainError
from .greens import DiskProblem, PlanePoint
from .profiles import PROFILES, make_profile

__all__ = ["RunConfig", "run", "main"]

DEFAULT_TOLERANCES = {
    "q_idempotent": 1e-12,
    "q_lambda_match": 1e-8,
    "d_tilde_match": 1e-8,
    "boundary_residual": 1e-10,
    "pde_residual": 1e-6,
    "singularity_rel": 1e-4,
    "w4_vs_w3_rel": 1e-6,
    "bulk_bessel_rel": 1e-6,
    "boundary_oracle_rel": 1e-6,
    "alpha_quadrature": 1e-8,
    "k_nu": 1e-6,
    "residue": 1e-8,
}

# Oracle residual keys of DeterminantResult.diagnostics and the tolerance
# each is gated by, in both determinant and verify mode.  A key that is
# absent (the boundary oracle off its sheet) is not gated.
ORACLE_GATES = {
    "w4_vs_w3_rel": "w4_vs_w3_rel",
    "bulk_bessel_rel": "bulk_bessel_rel",
    "alpha_quadrature_residual": "alpha_quadrature",
    "boundary_oracle_rel": "boundary_oracle_rel",
}

MODES = ("determinant", "verify", "ellipticity", "sweep")


@dataclass
class RunConfig:
    """Everything a run needs; mirrors the flag set."""

    radius: float = 1.0
    w_re: float = 1.0
    w_im: float = 0.0
    profile: str = "poly2"
    profile_params: list = field(default_factory=lambda: [1.0])
    alpha: float = 1.0
    mode: str = "determinant"
    sweep_spec: tuple | None = None          # (param name, list of values)
    tolerances: dict = field(default_factory=dict)
    output_path: str | None = None
    format: str = "json"

    @property
    def w(self) -> complex:
        return complex(self.w_re, self.w_im)

    def tol(self, name: str) -> float:
        return self.tolerances.get(name, DEFAULT_TOLERANCES[name])

    def problem(self) -> DiskProblem:
        gauge = make_profile(self.profile, self.profile_params, self.radius)
        return DiskProblem(R=self.radius, w=self.w, alpha=self.alpha,
                           gauge=gauge)


def _parse_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, val = (part.strip() for part in line.split("=", 1))
            out[key] = val
    return out


def _one_of(options):
    def convert(text: str) -> str:
        if text not in options:
            raise argparse.ArgumentTypeError(
                f"invalid choice {text!r} (choose from {', '.join(options)})")
        return text
    return convert


def _complex(text: str) -> complex:
    return complex(text.replace(" ", ""))


def _floats(text: str) -> list:
    return [float(v) for v in text.split(",") if v.strip()]


def _parse_sweep(text: str) -> tuple:
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            "sweep spec must look like name=v1,v2,...")
    name, vals = text.split("=", 1)
    name = name.strip()
    if name not in ("w", "radius", "phi0"):
        raise argparse.ArgumentTypeError(
            f"cannot sweep {name!r}; choose w, radius or phi0")
    values = _floats(vals)
    if not values:
        raise argparse.ArgumentTypeError("sweep grid is empty")
    return name, values


# RunConfig field set by each option other than --w and --tol.<name>.
_OPTION_FIELDS = {"radius": "radius", "profile": "profile",
                  "params": "profile_params", "alpha": "alpha",
                  "mode": "mode", "sweep": "sweep_spec",
                  "out": "output_path", "format": "format"}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bagdet", allow_abbrev=False,
        description="Dirac-disk determinant under bag-like boundary "
                    "conditions")
    parser.add_argument("--config", help="key = value configuration file; "
                                         "its keys are the option names")
    parser.add_argument("--radius", type=float)
    parser.add_argument("--w", type=_complex,
                        help="bag parameter, complex accepted "
                             "(e.g. 1, 0.5, 1+0.5j)")
    parser.add_argument("--profile", type=_one_of(PROFILES))
    parser.add_argument("--params", type=_floats,
                        help="comma-separated profile parameters")
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--mode", type=_one_of(MODES))
    parser.add_argument("--sweep", type=_parse_sweep,
                        help="parameter grid, e.g. w=0.5,1,2")
    parser.add_argument("--out", help="output file path")
    parser.add_argument("--format", type=_one_of(("json", "csv")))
    for name in DEFAULT_TOLERANCES:
        parser.add_argument(f"--tol.{name}", type=float, metavar="TOL")
    return parser


def _attach_dash_values(argv) -> list:
    """``--opt -x`` as ``--opt=-x``: every option but --help takes a value,
    and argparse reads one that starts with '-' and is not a plain decimal
    (-1e-3, -1+0.5j, -1,2) as a flag."""
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        if (prev.startswith("--") and "=" not in prev and prev != "--help"
                and tok.startswith("-") and not tok.startswith("--")):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def build_config(argv) -> RunConfig:
    """RunConfig from command-line flags and an optional --config file.

    The file's keys are the option names without the leading dashes; its
    values become the parser's defaults, so flags win and every value
    goes through the same converter.
    """
    parser = _parser()
    argv = _attach_dash_values(argv)
    args = parser.parse_args(argv)
    if args.config is not None:
        file_vals = _parse_config_file(args.config)
        unknown = sorted(file_vals.keys() - (vars(args).keys() - {"config"}))
        if unknown:
            parser.error(f"{args.config}: unknown keys {', '.join(unknown)}")
        parser.set_defaults(**file_vals)
        args = parser.parse_args(argv)
    opts = vars(args)
    cfg = RunConfig(**{fld: opts[key] for key, fld in _OPTION_FIELDS.items()
                       if opts[key] is not None})
    if args.w is not None:
        cfg.w_re, cfg.w_im = args.w.real, args.w.imag
    cfg.tolerances = {name: opts[f"tol.{name}"] for name in DEFAULT_TOLERANCES
                      if opts[f"tol.{name}"] is not None}
    return cfg


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _oracle_checks(cfg: RunConfig, result) -> list:
    """(tolerance name, residual, tolerance) for each oracle that ran."""
    diag = result.diagnostics
    return [(tol_name, diag[key], cfg.tol(tol_name))
            for key, tol_name in ORACLE_GATES.items() if key in diag]


def _run_determinant(cfg: RunConfig) -> int:
    result = determinant.ln_det_ratio(cfg.problem())
    if cfg.format == "json":
        _write_text(cfg.output_path,
                    json.dumps(result.to_json_dict(), indent=2))
    else:
        rows = [result.csv_header(), result.csv_row()]
        _write_csv(cfg.output_path, rows)
    print(f"bulk = {result.bulk_term:.12g}  "
          f"boundary = {result.boundary_term:.12g}  "
          f"total = {result.total:.12g}")
    failed = [name for name, value, tol in _oracle_checks(cfg, result)
              if not value <= tol]
    if failed:
        print("oracle residuals exceeded their tolerances: "
              + ", ".join(failed), file=sys.stderr)
        return 2
    return 0


def _write_csv(path: str | None, rows) -> None:
    if path is None:
        writer = csv.writer(sys.stdout)
        writer.writerows(rows)
    else:
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)


def _run_sweep(cfg: RunConfig) -> int:
    if cfg.sweep_spec is None:
        raise ValueError("sweep mode needs --sweep name=v1,v2,...")
    name, values = cfg.sweep_spec
    rows = [[name, *determinant.CSV_FIELDS]]
    for v in values:
        radius = cfg.radius
        w = cfg.w
        params = list(cfg.profile_params)
        if name == "w":
            w = complex(v)
        elif name == "radius":
            radius = float(v)
        elif name == "phi0":
            params[0] = float(v)
        gauge = make_profile(cfg.profile, params, radius)
        problem = DiskProblem(R=radius, w=w, alpha=cfg.alpha, gauge=gauge)
        r = determinant.ln_det_ratio(problem, run_oracles=False)
        rows.append([v, *r.values()])
    _write_csv(cfg.output_path, rows)
    print(f"swept {name} over {len(values)} values")
    return 0


def _run_ellipticity(cfg: RunConfig) -> int:
    bc = calderon.disk_boundary_condition(cfg.w)
    samples = [(theta, xi) for theta in np.linspace(0.0, 2 * np.pi, 8,
                                                    endpoint=False)
               for xi in (1.0, -1.0, 2.0, -2.0)]
    disk_report = calderon.check_ellipticity(
        bc, lambda theta, xi: calderon.disk_q_lambda(theta, xi, 0.0), samples)

    rng = np.random.default_rng(11)
    obstruction = []
    for _ in range(8):
        b1, b2 = rng.uniform(0.2, 2.0, size=2)
        xi = calderon.chiral_obstruction_witness(b1, b2)
        row = np.array([[b1, b2]]) @ calderon.q_chiral(xi)
        obstruction.append({
            "beta": [b1, b2],
            "witness_xi": xi.tolist(),
            "bq_norm": float(np.max(np.abs(row))),
        })
    payload = {
        "disk": asdict(disk_report),
        "chiral_obstruction": obstruction,
        "passed": bool(disk_report.passed),
    }
    _write_text(cfg.output_path, json.dumps(payload, indent=2))
    print("ellipticity:", "pass" if disk_report.passed else "FAIL")
    return 0 if disk_report.passed else 2


def _verify_checks(cfg: RunConfig):
    """All cross-checks as (name, value, tolerance) triples."""
    problem = cfg.problem()
    rep = make_rep_2d()
    rng = np.random.default_rng(2024)
    checks = []

    theta, xi = np.array([
        (rng.uniform(0, 2 * np.pi),
         (-1.0, 1.0)[rng.integers(0, 2)] * rng.uniform(0.5, 3.0))
        for _ in range(200)]).T
    n = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    tangent = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
    q = calderon.q_principal(rep, n, xi[:, None] * tangent)
    worst_q = max(float(np.max(np.abs(q @ q - q))),
                  float(np.max(np.abs(np.trace(q, axis1=-2, axis2=-1) - 1.0))))
    checks.append(("q_idempotent", worst_q, cfg.tol("q_idempotent")))

    a1 = seeley.a1_symbol(rep)
    worst = 0.0
    for _ in range(12):
        theta = rng.uniform(0, 2 * np.pi)
        xi = (-1.0, 1.0)[rng.integers(0, 2)] * rng.uniform(0.5, 2.0)
        lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        closed = calderon.disk_q_lambda(theta, xi, lam)
        contour = calderon.q_lambda_contour(a1, theta, xi, lam)
        worst = max(worst, float(np.max(np.abs(closed - contour))))
    checks.append(("q_lambda_match", worst, cfg.tol("q_lambda_match")))

    theta, t, u, xi, lam_re, lam_im = np.array([
        (rng.uniform(0, 2 * np.pi), *rng.uniform(0.05, 1.0, size=2),
         (-1.0, 1.0)[rng.integers(0, 2)] * rng.uniform(0.6, 2.0),
         rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        for _ in range(20)]).T
    lam = lam_re + 1j * lam_im
    closed = seeley.d_tilde_minus1(theta, t, u, xi, lam, problem.w)
    oracle = seeley.d_tilde_minus1_contour(theta, t, u, xi, lam, problem.w)
    scale = np.maximum(np.max(np.abs(closed), axis=(-2, -1)), 1e-30)
    worst = float(np.max(np.max(np.abs(closed - oracle), axis=(-2, -1))
                         / scale))
    checks.append(("d_tilde_match", worst, cfg.tol("d_tilde_match")))

    samples = greens.random_boundary_samples(problem, 50, seed=5)
    checks.append(("boundary_residual",
                   greens.boundary_residual(problem, samples),
                   cfg.tol("boundary_residual")))
    worst = 0.0
    for _ in range(5):
        x = PlanePoint(rng.uniform(0.2, 0.7) * problem.R,
                       rng.uniform(0, 2 * np.pi))
        y = PlanePoint(rng.uniform(0.2, 0.7) * problem.R,
                       rng.uniform(0, 2 * np.pi))
        if abs(x.X - y.X) < 0.2 * problem.R:
            continue
        worst = max(worst, greens.pde_residual(problem, x, y))
    checks.append(("pde_residual", worst, cfg.tol("pde_residual")))
    _, _, sing_rel = greens.diagonal_singularity_coefficient(
        problem, 0.55 * problem.R, 1.2)
    checks.append(("singularity_rel", sing_rel, cfg.tol("singularity_rel")))

    for nu in (2, 3, 4):
        err = abs(seeley.k_nu_bessel(nu) - seeley.k_nu(nu))
        checks.append((f"k_nu (nu={nu})", err, cfg.tol("k_nu")))

    result = determinant.ln_det_ratio(problem)
    checks.extend(_oracle_checks(cfg, result))
    rc = determinant.residue_check(problem)
    checks.append(("residue", max(rc["interior_max_norm"],
                                  rc["boundary_contraction_abs"]),
                   cfg.tol("residue")))
    return checks, result


def _run_verify(cfg: RunConfig) -> int:
    checks, result = _verify_checks(cfg)
    entries = [{"name": name, "value": float(value), "tol": float(tol),
                "pass": bool(value <= tol)} for name, value, tol in checks]
    passed = all(e["pass"] for e in entries)
    payload = {
        "config": {k: v for k, v in asdict(cfg).items()
                   if k not in ("tolerances",)},
        "checks": entries,
        "determinant": result.to_json_dict(),
        "passed": passed,
    }
    _write_text(cfg.output_path, json.dumps(payload, indent=2))
    for e in entries:
        status = "pass" if e["pass"] else "FAIL"
        print(f"{status}  {e['name']:<22} {e['value']:.3e} <= {e['tol']:.1e}")
    print("verify:", "pass" if passed else "FAIL")
    return 0 if passed else 2


def run(cfg: RunConfig) -> int:
    """Execute one mode; returns the process exit status."""
    if cfg.mode == "determinant":
        return _run_determinant(cfg)
    if cfg.mode == "sweep":
        return _run_sweep(cfg)
    if cfg.mode == "ellipticity":
        return _run_ellipticity(cfg)
    if cfg.mode == "verify":
        return _run_verify(cfg)
    raise ValueError(f"unknown mode {cfg.mode!r}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        cfg = build_config(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return run(cfg)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except BagdetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
