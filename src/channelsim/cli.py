"""Command-line front end.

Every computation in the library is reachable as a subcommand with JSON
or CSV output, so figure data and batch sweeps never require writing
Python. Outputs begin with a metadata header (tool version, seed,
tolerances; never timestamps, so reruns diff clean) and CSV numbers carry
17 significant digits for exact double round trips.

Exit codes: 0 success, 1 invalid configuration (bad flags, unreadable or
malformed input files, parameter preconditions), 2 numeric failure inside
a computation.
"""

from __future__ import annotations

import argparse
import dataclasses
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


@dataclasses.dataclass
class RunConfig:
    """Validated per-invocation settings shared by all subcommands."""

    subcommand: str
    channel: str | None
    kind: str | None
    eps: float | None
    delta: float | None
    n_values: tuple[int, ...]
    tol: float | None
    seed: int
    out: str | None
    fmt: str


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


def _config_from_args(args) -> RunConfig:
    seed = getattr(args, "seed", 0)
    if not 0 <= seed < 1 << 64:
        raise _ConfigError(f"--seed must lie in [0, 2^64), got {seed}")
    tol = getattr(args, "tol", None)
    if tol is not None and not 0.0 < tol < float("inf"):
        raise _ConfigError(f"--tol must be positive and finite, got {tol}")
    return RunConfig(
        subcommand=args.subcommand,
        channel=getattr(args, "channel", None),
        kind=getattr(args, "kind", None),
        eps=getattr(args, "eps", None),
        delta=getattr(args, "delta", None),
        n_values=_parse_n(getattr(args, "n", None)),
        tol=tol,
        seed=seed,
        out=getattr(args, "out", None),
        fmt=getattr(args, "format", "json"),
    )


def _load_json_file(path: str | None):
    if path is None:
        raise _ConfigError("--channel PATH is required for this subcommand")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _ConfigError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise _ConfigError(f"{path} is not valid JSON: {exc}")


def _load_instance(cfg: RunConfig) -> dict:
    """An instance file; its top level must be a JSON object."""
    data = _load_json_file(cfg.channel)
    if not isinstance(data, dict):
        raise _ConfigError(f"{cfg.channel}: an instance file must hold a "
                           f"JSON object, not a {type(data).__name__}")
    return data


def _load_channel(cfg: RunConfig):
    data = _load_json_file(cfg.channel)
    try:
        return prob.channel_from_json(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise _ConfigError(f"{cfg.channel}: {exc}")


def _load_dmc(cfg: RunConfig) -> prob.Dmc:
    w = _load_channel(cfg)
    if not isinstance(w, prob.Dmc):
        raise _ConfigError(f"{cfg.subcommand} expects a point-to-point "
                           "channel; use broadcast-region for broadcast "
                           "channels")
    return w


def _load_pmf(data, key) -> prob.Pmf:
    try:
        return prob.Pmf(np.asarray(data[key], dtype=np.float64))
    except KeyError:
        raise _ConfigError(f"instance file is missing {key!r}")
    except ValueError as exc:
        raise _ConfigError(f"bad pmf under {key!r}: {exc}")


def _count_field(data, key: str) -> int:
    """A positive integer from an instance file; booleans and floats fail."""
    value = data.get(key)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise _ConfigError(
            f"instance file needs a positive integer {key!r}, got {value!r}")
    return value


def _need(cfg: RunConfig, **bounds):
    """Check numeric preconditions before dispatch; None means missing."""
    for name, (value, lo, hi, lo_open, hi_open) in bounds.items():
        if value is None:
            raise _ConfigError(f"--{name} is required for this subcommand")
        # written so that NaN, which fails every comparison, fails it too
        above_lo = value > lo if lo_open else value >= lo
        below_hi = value < hi if hi_open else value <= hi
        if not (above_lo and below_hi):
            lo_b = "(" if lo_open else "["
            hi_b = ")" if hi_open else "]"
            raise _ConfigError(
                f"--{name} must lie in {lo_b}{lo}, {hi}{hi_b}, got {value}")


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _meta_lines(cfg: RunConfig, **extra) -> list[str]:
    pairs = {"tool": f"channelsim {__version__}"}
    pairs.update({k: v for k, v in extra.items() if v is not None})
    return [f"# {k}: {v}" for k, v in pairs.items()]


def _meta_object(cfg: RunConfig, **extra) -> dict:
    meta = {"tool": "channelsim", "version": __version__}
    meta.update({k: v for k, v in extra.items() if v is not None})
    return meta


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(cfg: RunConfig, payload: dict) -> None:
    _emit(cfg, json.dumps(payload, indent=2, sort_keys=False) + "\n")


def _emit_csv(cfg: RunConfig, header_meta: list[str], columns: list[str],
              rows: list[tuple]) -> None:
    lines = list(header_meta)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _emit(cfg, "\n".join(lines) + "\n")


def _cmd_divergence(cfg: RunConfig) -> int:
    data = _load_instance(cfg)
    p = _load_pmf(data, "p")
    q = _load_pmf(data, "q")
    kind = cfg.kind
    if kind in ("dh", "dsplus", "dmax-smooth"):
        _need(cfg, eps=(cfg.eps, 0.0, 1.0, True, True))
    if kind == "kl":
        value = divergences.kl(p.probs, q.probs)
    elif kind == "dmax":
        value = divergences.d_max(p.probs, q.probs)
    elif kind == "dh":
        value = divergences.d_h(cfg.eps, p.probs, q.probs)
    elif kind == "dsplus":
        value = divergences.d_s_plus(cfg.eps, p.probs, q.probs)
    else:
        value = divergences.d_max_smooth(cfg.eps, p.probs, q.probs)
    _emit_json(cfg, {"meta": _meta_object(cfg, eps=cfg.eps),
                     "kind": kind, "bits": value})
    return EXIT_OK


def _cmd_imax(cfg: RunConfig) -> int:
    w = _load_dmc(cfg)
    if cfg.eps is None or cfg.eps == 0.0:
        _emit_json(cfg, {"meta": _meta_object(cfg, eps=0.0),
                         "bits": ns_meta.i_max(w)})
        return EXIT_OK
    _need(cfg, eps=(cfg.eps, 0.0, 1.0, True, True))
    smooth = ns_meta.i_max_smooth(w, cfg.eps)
    _emit_json(cfg, {"meta": _meta_object(cfg, eps=cfg.eps),
                     "bits": smooth.value})
    return EXIT_OK


def _cmd_ns_cost(cfg: RunConfig) -> int:
    w = _load_dmc(cfg)
    _need(cfg, eps=(cfg.eps, 0.0, 1.0, False, True))
    result = ns_meta.ns_cost(w, cfg.eps)
    _emit_json(cfg, {"meta": _meta_object(cfg, eps=cfg.eps),
                     "i_max_eps": result.i_max_eps, "cost": result.cost})
    return EXIT_OK


def _cmd_ns_eps(cfg: RunConfig) -> int:
    w = _load_dmc(cfg)
    if len(cfg.n_values) != 1:
        raise _ConfigError("--n must be a single integer cost")
    cost = cfg.n_values[0]
    if cost < 2:
        raise _ConfigError("--n (the cost) must be at least 2")
    result = ns_meta.ns_eps_for_cost(w, cost)
    _emit_json(cfg, {"meta": _meta_object(cfg, cost=cost),
                     "eps": result.eps})
    return EXIT_OK


def _second_order_columns(params, ns, eps):
    """Simulation and coding expansions at every n, as lists of floats."""
    return (asymptotics.second_order_simulation(params, ns, eps).tolist(),
            asymptotics.second_order_coding(params, ns, eps).tolist())


def _cmd_bsc_curve(cfg: RunConfig) -> int:
    _need(cfg, eps=(cfg.eps, 0.0, 1.0, True, True),
          delta=(cfg.delta, 0.0, 0.5, True, True))
    if not cfg.n_values:
        raise _ConfigError("--n LO..HI is required")
    params = asymptotics.dispersion(prob.Dmc.bsc(cfg.delta))
    ns = sorted(cfg.n_values)
    costs = ns_meta.bsc_ns_log2_costs(ns, cfg.delta, cfg.eps).tolist()
    sims, cods = _second_order_columns(params, ns, cfg.eps)
    rows = [(n, cost, cost / n, sim / n, cod / n, params.capacity)
            for n, cost, sim, cod in zip(ns, costs, sims, cods)]
    _emit_csv(cfg, _meta_lines(cfg, eps=cfg.eps, delta=cfg.delta),
              ["n", "log2_ns_cost", "log2_ns_cost_per_n",
               "simulation_second_order_per_n", "coding_second_order_per_n",
               "capacity"], rows)
    return EXIT_OK


def _cmd_capacity(cfg: RunConfig) -> int:
    w = _load_dmc(cfg)
    tol = cfg.tol if cfg.tol is not None else 1e-9
    trace = asymptotics.capacity_ba(w, tol=tol)
    _emit_json(cfg, {"meta": _meta_object(cfg, tol=tol),
                     "capacity_bits": trace.value,
                     "iterations": len(trace.estimates),
                     "final_bound": trace.final_bound})
    return EXIT_OK


def _cmd_dispersion(cfg: RunConfig) -> int:
    w = _load_dmc(cfg)
    params = asymptotics.dispersion(w)
    _emit_json(cfg, {"meta": _meta_object(cfg, tol=params.tol_cap),
                     "capacity_bits": params.capacity,
                     "v_min": params.v_min, "v_max": params.v_max,
                     "capacity_achieving_inputs":
                         [p.probs.tolist()
                          for p in params.capacity_achieving_inputs]})
    return EXIT_OK


def _cmd_second_order(cfg: RunConfig) -> int:
    w = _load_dmc(cfg)
    _need(cfg, eps=(cfg.eps, 0.0, 1.0, True, True))
    if not cfg.n_values:
        raise _ConfigError("--n INT or LO..HI is required")
    params = asymptotics.dispersion(w)
    rows = list(zip(cfg.n_values,
                    *_second_order_columns(params, cfg.n_values, cfg.eps)))
    if cfg.fmt == "csv":
        _emit_csv(cfg, _meta_lines(cfg, eps=cfg.eps, band="unquantified"),
                  ["n", "simulation_bits", "coding_bits"], rows)
    else:
        _emit_json(cfg, {
            "meta": _meta_object(cfg, eps=cfg.eps, band="unquantified"),
            "capacity_bits": params.capacity,
            "rows": [{"n": n, "simulation_bits": s, "coding_bits": c}
                     for n, s, c in rows]})
    return EXIT_OK


def _cmd_moderate(cfg: RunConfig) -> int:
    w = _load_dmc(cfg)
    if not cfg.n_values:
        raise _ConfigError("--n INT or LO..HI is required")
    params = asymptotics.dispersion(w)
    rows = []
    for n in cfg.n_values:
        r = asymptotics.moderate_deviation_rates(params, n)
        rows.append((n, r.a_n, r.eps_n, r.simulation_at_eps,
                     r.simulation_at_complement, r.coding_at_eps,
                     r.coding_at_complement))
    if cfg.fmt == "csv":
        _emit_csv(cfg, _meta_lines(cfg, band="unquantified"),
                  ["n", "a_n", "eps_n", "simulation_at_eps",
                   "simulation_at_complement", "coding_at_eps",
                   "coding_at_complement"], rows)
    else:
        _emit_json(cfg, {
            "meta": _meta_object(cfg, band="unquantified"),
            "rows": [{"n": n, "a_n": a, "eps_n": e,
                      "simulation_at_eps": s1, "simulation_at_complement": s2,
                      "coding_at_eps": c1, "coding_at_complement": c2}
                     for n, a, e, s1, s2, c1, c2 in rows]})
    return EXIT_OK


def _cmd_broadcast_region(cfg: RunConfig) -> int:
    w = _load_channel(cfg)
    if not isinstance(w, prob.BroadcastDmc):
        raise _ConfigError("broadcast-region expects a broadcast channel "
                           "(JSON with output_sizes)")
    region = broadcast.rate_region(w, tol=cfg.tol)
    constraints = sorted(region.constraints.items(),
                         key=lambda kv: (len(kv[0]), sorted(kv[0])))
    payload = {
        "meta": _meta_object(cfg, tol=cfg.tol),
        "num_receivers": region.k,
        # receivers are 1-based on the wire, 0-based in the library
        "constraints": [{"subset": [i + 1 for i in sorted(sub)],
                         "bits": bits} for sub, bits in constraints],
    }
    if region.k == 2:
        payload["corners"] = [list(c)
                              for c in broadcast.region_corners_k2(region)]
    _emit_json(cfg, payload)
    return EXIT_OK


def _cmd_ba_trace(cfg: RunConfig) -> int:
    w = _load_channel(cfg)
    tol = cfg.tol
    if isinstance(w, prob.BroadcastDmc):
        subset = tuple(range(w.num_receivers))
        trace = broadcast.tilde_c_ba(w, subset, tol=tol)
    else:
        trace = asymptotics.capacity_ba(w, tol=tol if tol else 1e-9)
    rows = [(t, est, trace.bound(t)) for t, est in trace.iterates]
    _emit_csv(cfg, _meta_lines(cfg, tol=tol),
              ["iteration", "estimate", "bound"], rows)
    return EXIT_OK


def _cmd_reject_sim(cfg: RunConfig) -> int:
    data = _load_instance(cfg)
    p = _load_pmf(data, "p")
    q = _load_pmf(data, "q")
    m = _count_field(data, "m")
    trials = cfg.n_values[0] if cfg.n_values else 100000
    if len(cfg.n_values) > 1 or trials < 1:
        raise _ConfigError("--n (trials) must be one positive integer")
    try:
        plan = protocols.RejectionPlan.build(p, q, m)
    except ValueError as exc:
        raise _ConfigError(str(exc))
    marginal, _ = protocols.rejection_exact_marginal(plan)
    run = protocols.rejection_sample_run(plan, protocols.RngStream(cfg.seed),
                                         trials)
    _emit_json(cfg, {
        "meta": _meta_object(cfg, seed=cfg.seed),
        "tvd_exact": prob.tvd(marginal, p),
        "bound": (1.0 - plan.lam) ** plan.m,
        "trials": trials,
        "seed": cfg.seed,
        "empirical_tvd_to_exact": prob.tvd(run.empirical, marginal),
        "accept_counts": [int(c) for c in run.accept_counts],
    })
    return EXIT_OK


def _cmd_convex_split_check(cfg: RunConfig) -> int:
    data = _load_instance(cfg)
    q = _load_pmf(data, "q")
    r = _load_pmf(data, "r")
    try:
        joint = prob.JointPmf(
            probs=np.asarray(data["joint"], dtype=np.float64),
            factor_sizes=tuple(data["factor_sizes"]))
        pars = protocols.ConvexSplitParams(*data["eps_params"])
    except (KeyError, TypeError, ValueError) as exc:
        raise _ConfigError(f"bad instance file: {exc}")
    m, n = _count_field(data, "m"), _count_field(data, "n")
    report = protocols.convex_split_check(joint, q, r, m, n, pars)
    _emit_json(cfg, {
        "meta": _meta_object(cfg, seed=cfg.seed),
        "tvd_exact": report.tvd,
        "bound": report.bound,
        "holds": report.hypotheses_hold,
        "thresholds_bits": list(report.thresholds),
        "trials": 0,
        "seed": cfg.seed,
    })
    return EXIT_OK


def _cmd_verify(cfg: RunConfig) -> int:
    results = selfcheck.run_all(cfg.seed)
    width = max(len(name) for name, _, _ in results)
    lines = []
    for name, ok, detail in results:
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  {detail}")
    failed = sum(1 for _, ok, _ in results if not ok)
    lines.append(f"{len(results) - failed} passed, {failed} failed")
    _emit(cfg, "\n".join(lines) + "\n")
    return EXIT_OK if failed == 0 else EXIT_NUMERIC


_HANDLERS = {
    "divergence": _cmd_divergence,
    "imax": _cmd_imax,
    "ns-cost": _cmd_ns_cost,
    "ns-eps": _cmd_ns_eps,
    "bsc-curve": _cmd_bsc_curve,
    "capacity": _cmd_capacity,
    "dispersion": _cmd_dispersion,
    "second-order": _cmd_second_order,
    "moderate": _cmd_moderate,
    "broadcast-region": _cmd_broadcast_region,
    "ba-trace": _cmd_ba_trace,
    "reject-sim": _cmd_reject_sim,
    "convex-split-check": _cmd_convex_split_check,
    "verify": _cmd_verify,
}


def _add_common(sub, channel=True):
    if channel:
        sub.add_argument("--channel", metavar="PATH",
                         help="input JSON file (channel or instance)")
    sub.add_argument("--eps", type=float, help="tolerance parameter")
    sub.add_argument("--delta", type=float, help="slack parameter")
    sub.add_argument("--n", help="integer or LO..HI range")
    sub.add_argument("--tol", type=float, help="numeric tolerance")
    sub.add_argument("--seed", type=int, default=0, help="RNG seed (u64)")
    sub.add_argument("--out", metavar="PATH", help="output file path")
    sub.add_argument("--format", choices=("csv", "json"), default=None,
                     help="output format where both are supported")


def build_parser() -> _Parser:
    parser = _Parser(prog="channelsim",
                     description="channel simulation cost calculator")
    parser.add_argument("--version", action="version",
                        version=f"channelsim {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    div = subs.add_parser("divergence", help="pairwise divergence of pmfs")
    div.add_argument("kind",
                     choices=("kl", "dmax", "dh", "dsplus", "dmax-smooth"))
    _add_common(div)
    for name, help_text in (
            ("imax", "channel max-information (optionally smoothed)"),
            ("ns-cost", "exact one-shot simulation cost"),
            ("ns-eps", "best tolerance at a fixed integer cost"),
            ("bsc-curve", "cost sweep for a binary symmetric channel"),
            ("capacity", "iterative capacity with certificate"),
            ("dispersion", "capacity and dispersion extremes"),
            ("second-order", "second-order rate expansions"),
            ("moderate", "moderate deviation rate pairs"),
            ("broadcast-region", "simulation rate region constraints"),
            ("ba-trace", "per-iteration estimates and certificates"),
            ("reject-sim", "rejection sampler run on an instance file"),
            ("convex-split-check", "exact convex-split TVD vs bound"),
            ("verify", "run the built-in property battery")):
        sub = subs.add_parser(name, help=help_text)
        _add_common(sub, channel=(name != "verify"))
    return parser


def dispatch(cfg: RunConfig) -> int:
    handler = _HANDLERS[cfg.subcommand]
    if cfg.fmt is None:
        cfg.fmt = "csv" if cfg.subcommand in ("bsc-curve", "ba-trace") \
            else "json"
    try:
        return handler(cfg)
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
        cfg = _config_from_args(args)
        return dispatch(cfg)
    except _ConfigError as exc:
        print(f"channelsim: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
