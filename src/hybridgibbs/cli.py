"""Command-line interface.

Subcommands:
  analyze    build the configured kernels and report their spectra
  check      run certification suites
  simulate   run a trajectory and cross-validate the asymptotic variance
  demo       print (or run) a builtin demo model
  list-demos list builtin demo names

Exit codes: 0 when nothing fails, 1 when a bound or the simulation check
fails, 2 on an input or file error or a model too large for memory.  The
state-space cap honours the HYBRIDGIBBS_STATE_CAP environment variable.
"""

import argparse
import json
import sys

import numpy as np

from .config import canonicalize, parse_config, serialize
from .demos import demo_config, list_demos
from .errors import HybridGibbsError, InvalidArgument, positive_int
from .gibbs import da_exact, da_hybrid, exact_random_scan, hybrid_random_scan
from .simulate import _cross_validate, simulate, write_trajectory
from .spectral import as_values, eigvals_summary
from .suite import run_suite


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hybridgibbs",
        description="Exact spectral certification of hybrid Gibbs chains "
        "on finite state spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="build kernels and report spectra")
    p_analyze.add_argument("config")
    p_analyze.add_argument("--out", default=None)
    p_analyze.set_defaults(handler=_cmd_analyze)

    p_check = sub.add_parser("check", help="run certification suites")
    p_check.add_argument("config")
    p_check.add_argument(
        "--suite",
        default=None,
        help="comma-separated: random-scan,da,block,slice,selection,supplement or all",
    )
    p_check.add_argument("--t", default=None, help="comma-separated step counts, e.g. 2,4,8")
    p_check.add_argument("--tol", type=float, default=None)
    p_check.add_argument("--out", default=None, help="write the JSON report here")
    p_check.add_argument("--csv", default=None, help="also write a CSV table here")
    p_check.set_defaults(handler=_cmd_check)

    p_sim = sub.add_parser("simulate", help="simulate and cross-validate variance")
    p_sim.add_argument("config")
    p_sim.add_argument("--kernel", choices=["exact", "hybrid"], default="exact")
    p_sim.add_argument("--steps", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--f", default="coord:0", help="coord:<i> or vector:<csv>")
    p_sim.add_argument("--batch", type=int, default=None)
    p_sim.add_argument("--traj-out", default=None, help="write the trajectory here")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_demo = sub.add_parser("demo", help="print or run a builtin demo")
    p_demo.add_argument("name")
    p_demo.add_argument("--run", action="store_true")
    p_demo.add_argument("--out", default=None)
    p_demo.set_defaults(handler=_cmd_demo)

    p_list = sub.add_parser("list-demos", help="list builtin demo names")
    p_list.set_defaults(handler=_cmd_list_demos)
    return parser


def _parse_suites(raw):
    if raw is None or raw == "all":
        return raw
    return [s.strip() for s in raw.split(",") if s.strip()]


def _number(convert, raw, what):
    """``convert(raw)``, with a named error when ``raw`` is not a number."""
    try:
        return convert(raw)
    except ValueError:
        raise InvalidArgument(f"{what}: {raw!r} is not a valid {convert.__name__}") from None


def _observable(raw, rev, space):
    """The --f observable; ``space`` is the joint's, None for a slice model."""
    if raw.startswith("coord:"):
        i = _number(int, raw.split(":", 1)[1], "coord:<i>")
        if space is None:
            if i != 0:
                raise HybridGibbsError("slice models have a single coordinate")
            return np.arange(rev.n, dtype=float)
        if not 0 <= i < space.ncoords:
            raise HybridGibbsError(f"coordinate {i} out of range")
        return np.array([space.decode(s)[i] for s in range(space.total)], dtype=float)
    if raw.startswith("vector:"):
        values = raw.split(":", 1)[1].split(",")
        return as_values([_number(float, v, "vector:<csv>") for v in values], rev.n)
    raise HybridGibbsError("--f must look like coord:<i> or vector:<csv>")


def _emit(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_analyze(args):
    config = parse_config(args.config)
    report = run_suite(config, suites=[])
    _emit(report.to_json(), args.out)
    return 0


def _cmd_check(args, config=None):
    config = config if config is not None else parse_config(args.config)
    suites = _parse_suites(args.suite)
    t_values = None
    if args.t:
        t_values = [_number(int, v, "--t") for v in args.t.split(",") if v.strip()]
    report = run_suite(config, suites=suites, t_values=t_values, tol=args.tol)
    _emit(report.to_json(), args.out)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(report.to_csv())
    return report.exit_status()


def _cmd_simulate(args):
    steps = positive_int(args.steps, "--steps")
    seed = positive_int(args.seed, "--seed", low=0)
    batch = None if args.batch is None else positive_int(args.batch, "--batch")
    config = parse_config(args.config)
    if config.is_slice:
        model = config.build_slice_model()
        rev = da_exact(model) if args.kernel == "exact" else da_hybrid(model)
        space = None
    else:
        joint = config.build_joint()
        if args.kernel == "exact":
            rev = exact_random_scan(joint, config.selection())
        else:
            rev = hybrid_random_scan(joint, config.selection(), config.approximator_spec())
        space = joint.space
    f = _observable(args.f, rev, space)
    traj = simulate(rev, rev.stationary, steps, seed)
    report = _cross_validate(rev, f, traj, batch=batch, fingerprint=config.fingerprint)
    if args.traj_out:
        write_trajectory(traj, args.traj_out)
    out = {
        "kernel": args.kernel,
        "spectral": eigvals_summary(rev).to_dict(),
        "report": report.to_dict(),
    }
    sys.stdout.write(json.dumps(out, sort_keys=True, indent=2) + "\n")
    return 0 if report.status != "fail" else 1


def _cmd_demo(args):
    config = canonicalize(demo_config(args.name))
    if not args.run:
        _emit(serialize(config), args.out)
        return 0
    ns = argparse.Namespace(suite=None, t=None, tol=None, out=args.out, csv=None)
    return _cmd_check(ns, config=config)


def _cmd_list_demos(args):
    sys.stdout.write("\n".join(list_demos()) + "\n")
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (HybridGibbsError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
