"""Command-line front end.

Subcommands: ``pae run <config>`` executes a declarative experiment file and
writes CSV/SVG tables, ``pae angles`` synthesizes and saves one angle
sequence, ``pae verify`` runs the built-in invariant suites.  The default
output directory can also be set through ``PAE_OUTPUT_DIR``.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import os
import sys

from . import circuit, driver, experiments, plotting, qsp, verify
from .config import ConfigError, parse_config, validate_config
from .core_model import DomainError


def _check_output_dir(path: str) -> None:
    """Fail before an experiment, not after it, when ``path`` cannot become
    its output directory: the nearest existing ancestor must be a directory."""
    existing = path
    while existing and not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if existing and not os.path.isdir(existing):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), existing)


def _cmd_run(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    overrides = {}
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.backend is not None:
        overrides["backend"] = args.backend
    if args.out is not None:
        overrides["output_dir"] = args.out
    elif os.environ.get("PAE_OUTPUT_DIR") and cfg.output_dir == "pae-out":
        overrides["output_dir"] = os.environ["PAE_OUTPUT_DIR"]
    cfg = dataclasses.replace(cfg, **overrides)
    validate_config(cfg)

    kind = cfg.experiment
    if kind != "single_run":
        _check_output_dir(cfg.output_dir)
    if kind in ("rmse_vs_queries", "rmse_vs_depth"):
        rows = experiments.run_rmse_sweep(cfg)
    elif kind == "bias_sweep":
        rows = experiments.run_bias_sweep(cfg)
    elif kind == "tl_curve":
        rows = experiments.run_tl_curve(cfg)
    else:
        for a, estimate, report, _ in experiments.run_single(cfg):
            print(f"a={a:.12g}  a_hat={estimate.a_hat:.12g}  "
                  f"phi_hat={estimate.phi_hat:.12g}  N={report.n_queries}  "
                  f"depth={report.oracle_depth}  width={report.width}")
        return 0
    for path in plotting.render(rows, kind, cfg.output_dir):
        print(f"wrote {path}")
    return 0


def _cmd_angles(args) -> int:
    spec = qsp.synthesize_shifter(args.T, L=args.L, eps_oc=args.eps_oc)
    qsp.save_angles(args.out, spec)
    print(f"T={spec.T:g} L={spec.L} residual={spec.angles.residual:.3e} "
          f"state-error budget={spec.eps_oc:.3e}")
    print(f"wrote {args.out}")
    return 0


def _cmd_verify(_args) -> int:
    return 0 if verify.run_all() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pae",
        description="Parallel amplitude estimation: simulation, phase-shifter "
                    "synthesis, and resource benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config file")
    p_run.add_argument("config")
    p_run.add_argument("--jobs", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--backend", choices=driver.BACKENDS, default=None)
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_ang = sub.add_parser("angles", help="synthesize and save an angle sequence")
    p_ang.add_argument("--T", type=float, required=True)
    group = p_ang.add_mutually_exclusive_group()
    group.add_argument("--L", type=int, default=None)
    group.add_argument("--eps-oc", dest="eps_oc", type=float, default=None)
    p_ang.add_argument("--out", required=True)
    p_ang.set_defaults(func=_cmd_angles)

    p_ver = sub.add_parser("verify", help="run the built-in invariant suites")
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, driver.ConfigurationError, DomainError, qsp.SynthesisError,
            circuit.CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
