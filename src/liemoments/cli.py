"""Command-line front end.

Subcommands::

    info GROUP                     root datum and center summary
    weights GROUP LAMBDA           weight multiplicities and moment matrix
    exact    --group --lam --a [--b] [--N]      exact integer moment
    quad     --group --lam --a [--b] --N ...    torus-quadrature moment
    asym     --group --lam --a [--b] --N ...    leading-order estimate
    converge CONFIG [--out ...] [--format ...]  full convergence experiment
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import asymptotics, charring, harness, repweights, rootsys


def _add_moment_args(p, need_n):
    p.add_argument("--group", required=True, help="group spec, e.g. A2")
    p.add_argument("--lam", "--lambda", dest="lam", required=True,
                   help="highest weight, comma separated, e.g. 1,1")
    p.add_argument("--a", required=True,
                   help="cycle type a_1,a_2,..., e.g. 0,1")
    p.add_argument("--b", default="", help="conjugated cycle type")
    p.add_argument("--N", type=int, default=1 if not need_n else None,
                   required=need_n, help="power index N")
    p.add_argument("--f", default="1",
                   help="class function: '1' or 'w1,..:coeff;...'")


def _moment_inputs(args):
    rs = rootsys.build_root_system(args.group)
    lam = harness.parse_weight(args.lam, rs.rank)
    a = charring.CycleType.parse(args.a)
    b = charring.CycleType.parse(args.b)
    f = harness.parse_class_function(args.f, rs.rank)
    return rs, lam, a, b, f


def _cmd_info(args):
    rs = rootsys.build_root_system(args.group)
    fg = rs.center
    print(f"group            {rs.describe()}")
    print(f"rank             {rs.rank}")
    print(f"dim              {rs.dim_group}")
    print(f"positive roots   {rs.num_positive_roots}")
    print(f"weyl order       {rs.weyl_order}")
    print(f"center order     {fg.order}")
    print(f"invariant factors {list(fg.invariant_factors)}")
    for i, psi in enumerate(fg.elements):
        print(f"  center[{i}] = ({', '.join(str(x) for x in psi)})")
    return 0


def _cmd_weights(args):
    if args.limit < 0:
        raise rootsys.ConfigurationError(
            f"--limit must be >= 0 (0 lists all), got {args.limit}")
    rs = rootsys.build_root_system(args.group)
    lam = harness.parse_weight(args.lam, rs.rank)
    ws = repweights.weight_system(rs, lam)
    sm = repweights.a_lambda(rs, lam)
    print(f"dim              {repweights.weyl_dimension(rs, lam)}")
    print(f"weights          {ws.support_size}")
    print(f"regular          {repweights.is_regular(rs, lam)}")
    print(f"moment matrix    {[[str(x) for x in row] for row in sm.matrix]}")
    print(f"det              {sm.det}")
    shown = sorted(ws.entries.items(), reverse=True)
    if args.limit and len(shown) > args.limit:
        shown = shown[: args.limit]
        print(f"first {args.limit} weights by coordinate order:")
    for w, m in shown:
        print(f"  {','.join(str(c) for c in w)}  x{m}")
    return 0


def _cmd_exact(args):
    rs, lam, a, b, f = _moment_inputs(args)
    print(harness.route_value("exact", rs, lam, a, b, args.N, f))
    return 0


def _cmd_quad(args):
    rs, lam, a, b, f = _moment_inputs(args)
    sizes = harness.parse_grid(args.grid, rs.rank) if args.grid else None
    print(repr(harness.route_value("quad", rs, lam, a, b, args.N, f,
                                   grid_sizes=sizes)))
    return 0


def _cmd_asym(args):
    rs, lam, a, b, f = _moment_inputs(args)
    est = harness.route_value("asymptotic", rs, lam, a, b, args.N, f)
    print(harness._json_text(est.to_dict()))
    return 0


def _cmd_converge(args):
    cfg = harness.ExperimentConfig.from_file(args.config)
    cfg = dataclasses.replace(cfg, out=args.out or cfg.out,
                              fmt=args.format or cfg.fmt)
    report = harness.run_experiment(cfg)
    text = harness.write_report(report, cfg, include_timings=args.timings)
    if not cfg.out:
        sys.stdout.write(text)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="liemoments",
        description="Moments of traces over compact simply connected Lie "
                    "groups: exact, quadrature and asymptotic routes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="print root datum summary")
    p.add_argument("group")
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("weights", help="weight system of an irreducible")
    p.add_argument("group")
    p.add_argument("lam", metavar="lambda")
    p.add_argument("--limit", type=int, default=40,
                   help="weights to list (0 lists all)")
    p.set_defaults(fn=_cmd_weights)

    p = sub.add_parser("exact", help="exact integer moment")
    _add_moment_args(p, need_n=False)
    p.set_defaults(fn=_cmd_exact)

    p = sub.add_parser("quad", help="torus-quadrature moment")
    _add_moment_args(p, need_n=True)
    p.add_argument("--grid", default="",
                   help="per-axis grid sizes, e.g. 64,64")
    p.set_defaults(fn=_cmd_quad)

    p = sub.add_parser("asym", help="leading-order estimate")
    _add_moment_args(p, need_n=True)
    p.set_defaults(fn=_cmd_asym)

    p = sub.add_parser("converge", help="run a convergence experiment")
    p.add_argument("config", help="key = value config file")
    p.add_argument("--out", default="")
    p.add_argument("--format", choices=("json", "csv"), default="")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings in the report")
    p.set_defaults(fn=_cmd_converge)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (rootsys.ConfigurationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (asymptotics.HypothesisError, charring.SupportCapExceeded,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        # a failed internal cross-check (SupportCapExceeded, a subclass,
        # is a refusal and is handled above)
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
