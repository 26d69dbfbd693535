"""Command-line driver: run, convergence, certify, presets."""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import __version__
from .configio import format_kv
from .errors import (CannotBoundError, CannotEstimateError, MvflowError,
                     ReferenceInvalidError, SolverFailure)
from .experiments import cmd_certify, cmd_convergence, cmd_run, presets

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_SOLVER = 3
EXIT_CHECK = 4


@functools.cache  # parsing leaves the parser as it was; one build serves every call
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mvflow",
        description="ensemble experiments for regularized compressible flow "
                    "with certified stability checks")
    p.add_argument("--version", action="version",
                   version=f"mvflow {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    # the options the subcommands share, each declared once
    spec_out = argparse.ArgumentParser(add_help=False)
    spec_out.add_argument("--spec", required=True, help="path to a spec file")
    spec_out.add_argument("--out", help="output directory")
    runs = argparse.ArgumentParser(add_help=False, parents=[spec_out])
    runs.add_argument("--seed", type=int, help="override the spec seed")
    runs.add_argument("--jobs", type=int,
                      help="accepted and ignored: the ensemble runs as one "
                           "stacked solve")

    sub.add_parser("run", parents=[runs],
                   help="run an experiment spec and its checks"
                   ).set_defaults(handler=_do_run)
    conv_p = sub.add_parser("convergence", parents=[runs],
                            help="refinement table across mesh or delta levels")
    conv_p.add_argument("--levels",
                        help="comma-separated mesh sizes, e.g. 64,128,256")
    conv_p.set_defaults(handler=_do_convergence)
    sub.add_parser("certify", parents=[spec_out],
                   help="grid-witnessed certificates for a pressure law"
                   ).set_defaults(handler=_do_certify)
    pre_p = sub.add_parser("presets", help="list or write built-in specs")
    pre_p.add_argument("--write", metavar="DIR",
                       help="write each preset as DIR/<name>.spec")
    pre_p.set_defaults(handler=_do_presets)
    return p


def _do_run(args) -> int:
    manifest = cmd_run(args.spec, out=args.out, seed=args.seed)
    for r in manifest.results:
        status = "pass" if r.passed else "FAIL"
        print(f"check {r.name}: {status}  ({r.detail})")
    print(f"manifest: {manifest.manifest_path}")
    print(f"manifest_hash: {manifest.manifest_hash}")
    return EXIT_OK if manifest.all_passed else EXIT_CHECK


def _do_convergence(args) -> int:
    levels = None
    if args.levels:
        levels = tuple(int(v) for v in args.levels.split(","))
    path, header, rows = cmd_convergence(args.spec, levels=levels,
                                         out=args.out, seed=args.seed)
    print("  ".join(header))
    for row in rows:
        print("  ".join(f"{v:.6g}" if isinstance(v, float) else str(v)
                        for v in row))
    print(f"table: {path}")
    return EXIT_OK


def _do_certify(args) -> int:
    path, _, rows = cmd_certify(args.spec, out=args.out)
    ok = all(row[-1] for row in rows)
    print(f"certificates: {'pass' if ok else 'FAIL'} ({len(rows)} rows)")
    print(f"table: {path}")
    return EXIT_OK if ok else EXIT_CHECK


def _do_presets(args) -> int:
    specs = presets()
    if args.write:
        os.makedirs(args.write, exist_ok=True)
        for name, cfg in sorted(specs.items()):
            path = os.path.join(args.write, f"{name}.spec")
            with open(path, "w") as fh:
                fh.write(format_kv(cfg))
            print(path)
    else:
        for name in sorted(specs):
            print(name)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (SolverFailure, ReferenceInvalidError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except (CannotBoundError, CannotEstimateError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CHECK
    except (MvflowError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
