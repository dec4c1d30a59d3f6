"""Command-line front end.

Every computation in the library is reachable as a subcommand with JSON
or CSV output, so figure data and batch sweeps never require writing
Python. Outputs begin with a metadata header (tool version, seed,
tolerances; never timestamps, so reruns diff clean) and CSV numbers carry
17 significant digits for exact double round trips.

Exit codes: 0 success, 1 invalid configuration (bad flags, unreadable or
malformed input files, parameter preconditions, unwritable output path),
2 numeric failure inside a computation. Numeric ranges (--eps, --delta,
--tol, the count in --n) are the library's: its ValueError exits 1 with
its message. The command line checks only flag presence, the --seed
range, the shape of --n and the file fields.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from . import asymptotics, broadcast, divergences, ns_meta, prob, protocols
from . import selfcheck
from .lp import LpNumericsError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2


class _ConfigError(Exception):
    """Invalid flags, files, or parameter ranges; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; that code is reserved for
    # numeric failures here, so route usage errors to EXIT_CONFIG.
    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _parse_n(raw: str | None) -> tuple[int, ...]:
    if raw is None:
        return ()
    try:
        if ".." in raw:
            lo, hi = raw.split("..", 1)
            lo_i, hi_i = int(lo), int(hi)
            if lo_i > hi_i:
                raise ValueError
            return tuple(range(lo_i, hi_i + 1))
        return (int(raw),)
    except ValueError:
        raise _ConfigError(f"--n expects INT or LO..HI, got {raw!r}")


def _check_args(args) -> None:
    """Range-check --seed and expand --n, where declared."""
    if not 0 <= getattr(args, "seed", 0) < 1 << 64:
        raise _ConfigError(f"--seed must lie in [0, 2^64), got {args.seed}")
    if hasattr(args, "n"):
        args.n = _parse_n(args.n)


def _read_object(args) -> dict:
    """The --channel file; its top level must be a JSON object."""
    try:
        with open(args.channel, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _ConfigError(f"cannot read {args.channel}: {exc}")
    except json.JSONDecodeError as exc:
        raise _ConfigError(f"{args.channel} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise _ConfigError(f"{args.channel}: the file must hold a JSON "
                           f"object, not a {type(data).__name__}")
    return data


def _read_channel(args, is_broadcast: bool = False):
    """The --channel file as a point-to-point or a broadcast channel."""
    w = prob.channel_from_json(_read_object(args))
    if isinstance(w, prob.BroadcastDmc) != is_broadcast:
        kind = "broadcast" if is_broadcast else "point-to-point"
        raise _ConfigError(f"{args.subcommand} expects a {kind} channel")
    return w


def _need(**flags):
    """Check that required flags are present; None means missing."""
    for name, value in flags.items():
        if value is None:
            raise _ConfigError(f"--{name} is required for this subcommand")


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _meta_lines(**extra) -> list[str]:
    pairs = {"tool": f"channelsim {__version__}"}
    pairs.update({k: v for k, v in extra.items() if v is not None})
    return [f"# {k}: {v}" for k, v in pairs.items()]


def _meta_object(**extra) -> dict:
    meta = {"tool": "channelsim", "version": __version__}
    meta.update({k: v for k, v in extra.items() if v is not None})
    return meta


def _emit(args, text: str) -> None:
    if args.out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _ConfigError(f"cannot write {args.out}: {exc}")


def _emit_json(args, payload: dict) -> None:
    _emit(args, json.dumps(payload, indent=2, sort_keys=False) + "\n")


def _emit_csv(args, header_meta: list[str], columns: list[str],
              rows: list[tuple]) -> None:
    lines = list(header_meta)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _emit(args, "\n".join(lines) + "\n")


def _emit_table(args, meta: dict, columns: list[str], rows: list[tuple],
                **fields) -> None:
    """Rows as CSV, or as JSON ``rows`` dicts keyed by the column names.

    meta goes to the CSV comment lines or the JSON meta object; fields
    are extra top-level JSON values, placed before ``rows``.
    """
    if args.format == "csv":
        _emit_csv(args, _meta_lines(**meta), columns, rows)
    else:
        _emit_json(args, {"meta": _meta_object(**meta), **fields,
                          "rows": [dict(zip(columns, row)) for row in rows]})


def _cmd_divergence(args) -> int:
    data = _read_object(args)
    p = prob.pmf_field(data, "p")
    q = prob.pmf_field(data, "q")
    kind = args.kind
    if kind in ("dh", "dsplus", "dmax-smooth"):
        _need(eps=args.eps)
    if kind == "kl":
        value = divergences.kl(p.probs, q.probs)
    elif kind == "dmax":
        value = divergences.d_max(p.probs, q.probs)
    elif kind == "dh":
        value = divergences.d_h(args.eps, p.probs, q.probs)
    elif kind == "dsplus":
        value = divergences.d_s_plus(args.eps, p.probs, q.probs)
    else:
        value = divergences.d_max_smooth(args.eps, p.probs, q.probs)
    _emit_json(args, {"meta": _meta_object(eps=args.eps),
                      "kind": kind, "bits": value})
    return EXIT_OK


def _cmd_imax(args) -> int:
    w = _read_channel(args)
    if args.eps is None or args.eps == 0.0:
        _emit_json(args, {"meta": _meta_object(eps=0.0),
                          "bits": ns_meta.i_max(w)})
        return EXIT_OK
    smooth = ns_meta.i_max_smooth(w, args.eps)
    _emit_json(args, {"meta": _meta_object(eps=args.eps),
                      "bits": smooth.value})
    return EXIT_OK


def _cmd_ns_cost(args) -> int:
    w = _read_channel(args)
    _need(eps=args.eps)
    result = ns_meta.ns_cost(w, args.eps)
    _emit_json(args, {"meta": _meta_object(eps=args.eps),
                      "i_max_eps": result.i_max_eps, "cost": result.cost})
    return EXIT_OK


def _cmd_ns_eps(args) -> int:
    w = _read_channel(args)
    if len(args.n) != 1:
        raise _ConfigError("--n must be a single integer cost")
    cost = args.n[0]
    result = ns_meta.ns_eps_for_cost(w, cost)
    _emit_json(args, {"meta": _meta_object(cost=cost), "eps": result.eps})
    return EXIT_OK


def _second_order_columns(params, ns, eps):
    """Simulation and coding expansions at every n, as lists of floats."""
    return (asymptotics.second_order_simulation(params, ns, eps).tolist(),
            asymptotics.second_order_coding(params, ns, eps).tolist())


def _cmd_bsc_curve(args) -> int:
    _need(eps=args.eps, delta=args.delta)
    if not args.n:
        raise _ConfigError("--n LO..HI is required")
    # the closed form's crossover rule, (0, 0.5], answers before Dmc.bsc's
    costs = ns_meta.bsc_ns_log2_costs(args.n, args.delta, args.eps).tolist()
    params = asymptotics.dispersion(prob.Dmc.bsc(args.delta))
    sims, cods = _second_order_columns(params, args.n, args.eps)
    rows = [(n, cost, cost / n, sim / n, cod / n, params.capacity)
            for n, cost, sim, cod in zip(args.n, costs, sims, cods)]
    _emit_csv(args, _meta_lines(eps=args.eps, delta=args.delta),
              ["n", "log2_ns_cost", "log2_ns_cost_per_n",
               "simulation_second_order_per_n", "coding_second_order_per_n",
               "capacity"], rows)
    return EXIT_OK


def _cmd_capacity(args) -> int:
    w = _read_channel(args)
    trace = asymptotics.capacity_ba(w, tol=args.tol)
    _emit_json(args, {"meta": _meta_object(tol=trace.tol),
                      "capacity_bits": trace.value,
                      "iterations": len(trace.estimates),
                      "final_bound": trace.final_bound})
    return EXIT_OK


def _cmd_dispersion(args) -> int:
    w = _read_channel(args)
    params = asymptotics.dispersion(w)
    _emit_json(args, {"meta": _meta_object(tol=params.tol_cap),
                      "capacity_bits": params.capacity,
                      "v_min": params.v_min, "v_max": params.v_max,
                      "capacity_achieving_inputs":
                          [p.probs.tolist()
                           for p in params.capacity_achieving_inputs]})
    return EXIT_OK


def _cmd_second_order(args) -> int:
    w = _read_channel(args)
    _need(eps=args.eps)
    if not args.n:
        raise _ConfigError("--n INT or LO..HI is required")
    params = asymptotics.dispersion(w)
    rows = list(zip(args.n,
                    *_second_order_columns(params, args.n, args.eps)))
    _emit_table(args, {"eps": args.eps, "band": "unquantified"},
                ["n", "simulation_bits", "coding_bits"], rows,
                capacity_bits=params.capacity)
    return EXIT_OK


def _cmd_moderate(args) -> int:
    w = _read_channel(args)
    if not args.n:
        raise _ConfigError("--n INT or LO..HI is required")
    params = asymptotics.dispersion(w)
    rows = []
    for n in args.n:
        r = asymptotics.moderate_deviation_rates(params, n)
        rows.append((n, r.a_n, r.eps_n, r.simulation_at_eps,
                     r.simulation_at_complement, r.coding_at_eps,
                     r.coding_at_complement))
    _emit_table(args, {"band": "unquantified"},
                ["n", "a_n", "eps_n", "simulation_at_eps",
                 "simulation_at_complement", "coding_at_eps",
                 "coding_at_complement"], rows)
    return EXIT_OK


def _cmd_broadcast_region(args) -> int:
    w = _read_channel(args, is_broadcast=True)
    region = broadcast.rate_region(w, tol=args.tol)
    constraints = sorted(region.constraints.items(),
                         key=lambda kv: (len(kv[0]), sorted(kv[0])))
    payload = {
        "meta": _meta_object(tol=region.tol),
        "num_receivers": region.k,
        # receivers are 1-based on the wire, 0-based in the library
        "constraints": [{"subset": [i + 1 for i in sorted(sub)],
                         "bits": bits} for sub, bits in constraints],
    }
    if region.k == 2:
        payload["corners"] = [list(c)
                              for c in broadcast.region_corners_k2(region)]
    _emit_json(args, payload)
    return EXIT_OK


def _cmd_ba_trace(args) -> int:
    w = prob.channel_from_json(_read_object(args))
    if isinstance(w, prob.BroadcastDmc):
        subset = tuple(range(w.num_receivers))
        trace = broadcast.tilde_c_ba(w, subset, tol=args.tol)
    else:
        trace = asymptotics.capacity_ba(w, tol=args.tol)
    rows = [(t, est, trace.bound(t)) for t, est in trace.iterates]
    _emit_csv(args, _meta_lines(tol=trace.tol),
              ["iteration", "estimate", "bound"], rows)
    return EXIT_OK


def _cmd_reject_sim(args) -> int:
    data = _read_object(args)
    p = prob.pmf_field(data, "p")
    q = prob.pmf_field(data, "q")
    m = prob.count_field(data, "m")
    if len(args.n) > 1:
        raise _ConfigError("--n (trials) must be a single integer")
    trials = args.n[0] if args.n else 100000
    plan = protocols.RejectionPlan.build(p, q, m)
    marginal, rho = protocols.rejection_exact_marginal(plan)
    run = protocols.rejection_sample_run(plan, protocols.RngStream(args.seed),
                                         trials)
    _emit_json(args, {
        "meta": _meta_object(seed=args.seed),
        "tvd_exact": prob.tvd(marginal, p),
        "bound": rho,
        "trials": trials,
        "seed": args.seed,
        "empirical_tvd_to_exact": prob.tvd(run.empirical, marginal),
        "accept_counts": [int(c) for c in run.accept_counts],
    })
    return EXIT_OK


def _cmd_convex_split_check(args) -> int:
    data = _read_object(args)
    joint = prob.JointPmf(prob.numbers_field(data, "joint"),
                          prob.counts_field(data, "factor_sizes"))
    q = prob.pmf_field(data, "q")
    r = prob.pmf_field(data, "r")
    m, n = prob.count_field(data, "m"), prob.count_field(data, "n")
    budget = prob.numbers_field(data, "eps_params")
    if budget.size != 6 or not np.all(budget > 0.0):
        raise _ConfigError("'eps_params' must be six positive numbers")
    pars = protocols.ConvexSplitParams(*budget.tolist())
    report = protocols.convex_split_check(joint, q, r, m, n, pars)
    # Nothing is drawn; the seed fields keep the format of reject-sim's.
    _emit_json(args, {
        "meta": _meta_object(seed=0),
        "tvd_exact": report.tvd,
        "bound": report.bound,
        "holds": report.hypotheses_hold,
        "thresholds_bits": list(report.thresholds),
        "trials": 0,
        "seed": 0,
    })
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = selfcheck.run_all(args.seed)
    width = max(len(name) for name, _, _ in results)
    lines = []
    for name, ok, detail in results:
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  {detail}")
    failed = sum(1 for _, ok, _ in results if not ok)
    lines.append(f"{len(results) - failed} passed, {failed} failed")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if failed == 0 else EXIT_NUMERIC


# Each subcommand's handler, help and the flags it reads. build_parser
# adds exactly these flags plus --out, so any other flag is a usage error.
_COMMANDS = {
    "divergence": (_cmd_divergence, "pairwise divergence of pmfs",
                   ("channel", "eps")),
    "imax": (_cmd_imax, "channel max-information (optionally smoothed)",
             ("channel", "eps")),
    "ns-cost": (_cmd_ns_cost, "exact one-shot simulation cost",
                ("channel", "eps")),
    "ns-eps": (_cmd_ns_eps, "best tolerance at a fixed integer cost",
               ("channel", "n")),
    "bsc-curve": (_cmd_bsc_curve, "cost sweep for a binary symmetric channel",
                  ("eps", "delta", "n")),
    "capacity": (_cmd_capacity, "iterative capacity with certificate",
                 ("channel", "tol")),
    "dispersion": (_cmd_dispersion, "capacity and dispersion extremes",
                   ("channel",)),
    "second-order": (_cmd_second_order, "second-order rate expansions",
                     ("channel", "eps", "n", "format")),
    "moderate": (_cmd_moderate, "moderate deviation rate pairs",
                 ("channel", "n", "format")),
    "broadcast-region": (_cmd_broadcast_region,
                         "simulation rate region constraints",
                         ("channel", "tol")),
    "ba-trace": (_cmd_ba_trace, "per-iteration estimates and certificates",
                 ("channel", "tol")),
    "reject-sim": (_cmd_reject_sim,
                   "rejection sampler run on an instance file",
                   ("channel", "n", "seed")),
    "convex-split-check": (_cmd_convex_split_check,
                           "exact convex-split TVD vs bound", ("channel",)),
    "verify": (_cmd_verify, "run the built-in property battery", ("seed",)),
}

_FLAGS = {
    "channel": dict(metavar="PATH", required=True,
                    help="input JSON file (channel or instance)"),
    "eps": dict(type=float, help="tolerance parameter"),
    "delta": dict(type=float, help="slack parameter"),
    "n": dict(help="integer or LO..HI range"),
    "tol": dict(type=float, help="numeric tolerance"),
    "seed": dict(type=int, default=0, help="RNG seed (u64)"),
    "format": dict(choices=("csv", "json"), default="json",
                   help="output format"),
    "out": dict(metavar="PATH", help="output file path"),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="channelsim",
                     description="channel simulation cost calculator")
    parser.add_argument("--version", action="version",
                        version=f"channelsim {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        if name == "divergence":
            sub.add_argument("kind", choices=("kl", "dmax", "dh", "dsplus",
                                              "dmax-smooth"))
        for flag in flags + ("out",):
            sub.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def dispatch(args) -> int:
    handler = _COMMANDS[args.subcommand][0]
    try:
        return handler(args)
    except (LpNumericsError, ArithmeticError) as exc:
        print(f"channelsim: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        # precondition rejections from library calls are config errors
        raise _ConfigError(str(exc))


@functools.cache
def _shared_parser() -> _Parser:
    # Building the parser costs about a hundred times what parsing does,
    # so in-process callers that run many commands share one.
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        _check_args(args)
        return dispatch(args)
    except _ConfigError as exc:
        print(f"channelsim: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
