"""What the command line accepts: the flags of each subcommand and the
fields of each channel or instance file."""

import contextlib
import importlib.util
import io
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from channelsim import asymptotics, broadcast, cli, divergences, ns_meta, prob

# The flags each subcommand reads, besides --out.
FLAGS = {
    "divergence": {"channel", "eps"},
    "imax": {"channel", "eps"},
    "ns-cost": {"channel", "eps"},
    "ns-eps": {"channel", "n"},
    "bsc-curve": {"eps", "delta", "n"},
    "capacity": {"channel", "tol"},
    "dispersion": {"channel"},
    "second-order": {"channel", "eps", "n", "format"},
    "moderate": {"channel", "n", "format"},
    "broadcast-region": {"channel", "tol"},
    "ba-trace": {"channel", "tol"},
    "reject-sim": {"channel", "n", "seed"},
    "convex-split-check": {"channel"},
    "verify": {"seed"},
}
VALUES = {"channel": "in.json", "eps": "0.1", "delta": "0.1", "n": "3",
          "tol": "1e-9", "seed": "5", "format": "csv", "out": "out.txt"}

CHANNEL = {"input_size": 2, "output_sizes": [3],
           "rows": [[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]]}
BROADCAST = {"input_size": 2, "output_sizes": [2, 2],
             "rows": [[0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4]]}
PAIR = {"p": [0.5, 0.3, 0.2], "q": [0.25, 0.25, 0.5]}
REJECT = {**PAIR, "m": 3}
CONVEX = {"joint": np.einsum("a,b,c->abc", [0.4, 0.6], [0.3, 0.7],
                             [0.55, 0.45]).reshape(-1).tolist(),
          "factor_sizes": [2, 2, 2], "q": [0.3, 0.7], "r": [0.55, 0.45],
          "m": 3, "n": 3,
          "eps_params": [0.035, 0.035, 0.035, 0.578, 0.578, 0.34]}

# The kind of every field of each file, as the fuzz below mutates it.
CHANNEL_FIELDS = {"input_size": "count", "output_sizes": "counts",
                  "rows": "rows"}
PAIR_FIELDS = {"p": "pmf", "q": "pmf"}
REJECT_FIELDS = {**PAIR_FIELDS, "m": "count"}
CONVEX_FIELDS = {"joint": "pmf", "factor_sizes": "counts", "q": "pmf",
                 "r": "pmf", "m": "count", "n": "count",
                 "eps_params": "numbers"}

# Every subcommand that reads a file, with the file and its fields.
FILE_COMMANDS = [
    (["divergence", "kl"], PAIR, PAIR_FIELDS),
    (["divergence", "dmax"], PAIR, PAIR_FIELDS),
    (["divergence", "dh", "--eps", "0.1"], PAIR, PAIR_FIELDS),
    (["divergence", "dsplus", "--eps", "0.1"], PAIR, PAIR_FIELDS),
    (["divergence", "dmax-smooth", "--eps", "0.1"], PAIR, PAIR_FIELDS),
    (["imax", "--eps", "0.1"], CHANNEL, CHANNEL_FIELDS),
    (["ns-cost", "--eps", "0.1"], CHANNEL, CHANNEL_FIELDS),
    (["ns-eps", "--n", "2"], CHANNEL, CHANNEL_FIELDS),
    (["capacity"], CHANNEL, CHANNEL_FIELDS),
    (["dispersion"], CHANNEL, CHANNEL_FIELDS),
    (["second-order", "--eps", "0.1", "--n", "100..101"], CHANNEL,
     CHANNEL_FIELDS),
    (["moderate", "--n", "100"], CHANNEL, CHANNEL_FIELDS),
    (["ba-trace"], CHANNEL, CHANNEL_FIELDS),
    (["ba-trace"], BROADCAST, CHANNEL_FIELDS),
    (["broadcast-region"], BROADCAST, CHANNEL_FIELDS),
    (["reject-sim", "--n", "50", "--seed", "3"], REJECT, REJECT_FIELDS),
    (["convex-split-check"], CONVEX, CONVEX_FIELDS),
]


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _main(argv):
    """Exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_config_error(code, out, err, *needles):
    assert code == cli.EXIT_CONFIG, err
    assert out == "" and "Traceback" not in err
    assert err.startswith("channelsim")
    for needle in needles:
        assert needle in err


class TestFlagTable:
    def test_parser_adds_exactly_the_declared_flags(self):
        subs = next(a for a in cli.build_parser()._actions
                    if a.dest == "subcommand").choices
        assert set(subs) == set(FLAGS)
        for name, sub in subs.items():
            got = {opt[2:] for a in sub._actions for opt in a.option_strings
                   if opt.startswith("--") and opt != "--help"}
            assert got == FLAGS[name] | {"out"}, name
        assert sum(len(flags) + 1 for flags in FLAGS.values()) == 44

    @pytest.mark.parametrize("name", sorted(FLAGS))
    def test_undeclared_flags_exit_config(self, name):
        head = [name] + (["kl"] if name == "divergence" else [])
        if "channel" in FLAGS[name]:
            head += ["--channel", VALUES["channel"]]
        parser = cli.build_parser()
        for flag, value in VALUES.items():
            argv = head + [f"--{flag}", value]
            if flag in FLAGS[name] | {"out"}:
                args = parser.parse_args(argv)
                assert getattr(args, flag) is not None
            else:
                code, out, err = _main(argv)
                _assert_config_error(code, out, err, f"--{flag}")

    @pytest.mark.parametrize("argv", [
        ["bsc-curve", "--delta", "0.1", "--eps", "0.05", "--n", "3",
         "--format", "json"],
        ["capacity", "--format", "csv"],
        ["capacity", "--eps", "7"],
        ["dispersion", "--tol", "1e-3"],
        ["verify", "--format", "csv"],
        ["convex-split-check", "--seed", "5"],
    ])
    def test_flags_once_ignored_exit_config(self, tmp_path, argv):
        path = _write(tmp_path / "bsc.json", CHANNEL)
        if "channel" in FLAGS[argv[0]]:
            argv = argv + ["--channel", path]
        code, out, err = _main(argv)
        _assert_config_error(code, out, err, "unrecognized arguments")

    def test_convex_split_writes_seed_zero(self, tmp_path):
        code, out, _ = _main(["convex-split-check", "--channel",
                              _write(tmp_path / "cs.json", CONVEX)])
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert payload["seed"] == 0 and payload["meta"]["seed"] == 0


def _load_workloads():
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["oneshot", "asymptotic-mc"])
@pytest.mark.parametrize("seed", [11, 2026])
def test_benchmark_jobs_parse(tmp_path, workload, seed):
    # A flag change that would break the benchmark's CLI jobs fails here.
    jobs = _load_workloads().make_jobs(workload, seed, str(tmp_path))
    parser = cli.build_parser()
    argvs = [job["argv"] for job in jobs if job["kind"] == "cli"]
    assert argvs
    for argv in argvs:
        parser.parse_args(argv)


class TestFileFields:
    @pytest.mark.parametrize("argv, payload, needle", [
        (["capacity"], {**CHANNEL, "rows": [0.5, 0.5]}, "'rows'"),
        (["divergence", "kl"], {"p": {"a": 1}, "q": [0.5, 0.5]}, "'p'"),
        (["convex-split-check"],
         {**CONVEX, "eps_params": ["0.035"] + CONVEX["eps_params"][1:]},
         "'eps_params'"),
    ])
    def test_no_traceback(self, tmp_path, argv, payload, needle):
        path = _write(tmp_path / "in.json", payload)
        code, out, err = _main(argv + ["--channel", path])
        _assert_config_error(code, out, err, needle)

    @pytest.mark.parametrize("argv, payload, needle", [
        (["capacity"], {**CHANNEL, "input_size": 2.7}, "'input_size'"),
        (["capacity"], {**CHANNEL, "input_size": "2"}, "'input_size'"),
        (["capacity"], {**CHANNEL, "input_size": True,
                        "rows": CHANNEL["rows"][:1]}, "'input_size'"),
        (["capacity"], {**CHANNEL, "output_sizes": [2.9]},
         "'output_sizes'"),
        (["convex-split-check"], {**CONVEX, "factor_sizes": [2.5, 2, 2]},
         "'factor_sizes'"),
        (["divergence", "kl"], {"p": [True, False], "q": [0.5, 0.5]}, "'p'"),
        (["divergence", "kl"], {"p": [0.5, 0.5], "q": ["0.5", "0.5"]},
         "'q'"),
        (["capacity"], {**CHANNEL, "rows": [["0.7", 0.2, 0.1],
                                            [0.1, 0.3, 0.6]]}, "'rows'"),
        (["capacity"], {**CHANNEL, "rows": [[True, False, False],
                                            [0.1, 0.3, 0.6]]}, "'rows'"),
        (["convex-split-check"],
         {**CONVEX, "eps_params": [True] + CONVEX["eps_params"][1:]},
         "'eps_params'"),
        (["convex-split-check"],
         {**CONVEX, "eps_params": CONVEX["eps_params"][:5] + [-0.34]},
         "'eps_params'"),
        (["capacity"], {**CHANNEL, "rows": [[10 ** 400, 0.2, 0.1],
                                            [0.1, 0.3, 0.6]]}, "'rows'"),
    ])
    def test_coercions_exit_config(self, tmp_path, argv, payload, needle):
        path = _write(tmp_path / "in.json", payload)
        code, out, err = _main(argv + ["--channel", path])
        _assert_config_error(code, out, err, needle)


_BAD_COUNTS = (math.nan, math.inf, -math.inf, 0, True, False, None, "x")
_BAD_NUMBERS = (math.nan, math.inf, -math.inf, True, False, None, "x")
_EXTRA_VALUES = st.one_of(st.none(), st.booleans(), st.integers(),
                          st.text(max_size=3), st.lists(st.integers(),
                                                        max_size=2))


def _bad_count(x):
    return st.sampled_from(_BAD_COUNTS + (-x, x + 0.5, float(x), str(x),
                                          [x]))


def _bad_number(x, mass):
    bad = st.sampled_from(_BAD_NUMBERS + (-x, str(x), [x]))
    if not mass:
        return bad
    # mass moved by more than MASS_TOL, in either direction
    return st.one_of(bad, st.floats(1e-11, 0.5).map(lambda d: x + d),
                     st.floats(1e-11, 0.5).map(lambda d: x - d))


@st.composite
def _mutated(draw, obj, fields):
    """One defect applied to a copy of obj: (kind of defect, new object)."""
    obj = json.loads(json.dumps(obj))
    op = draw(st.sampled_from(("top", "missing", "extra", "value")))
    if op == "top":
        return op, draw(st.sampled_from(([obj], "x", 1.5, None, True)))
    if op == "extra":
        key = draw(st.text(min_size=1, max_size=4).filter(
            lambda k: k not in obj))
        obj[key] = draw(_EXTRA_VALUES)
        return op, obj
    key = draw(st.sampled_from(sorted(fields)))
    if op == "missing":
        del obj[key]
        return op, obj
    kind, value = fields[key], obj[key]
    if kind == "count":
        obj[key] = draw(_bad_count(value))
        return op, obj
    if kind == "rows":
        r = draw(st.integers(0, len(value) - 1))
        shape = draw(st.sampled_from(("entry", "ragged", "flat")))
        if shape == "ragged":
            value[r].pop()
            return op, obj
        if shape == "flat":
            obj[key] = value[r]
            return op, obj
        value = value[r]
    i = draw(st.integers(0, len(value) - 1))
    value[i] = draw(_bad_count(value[i]) if kind == "counts"
                    else _bad_number(value[i], kind != "numbers"))
    return op, obj


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("argv, valid, fields", FILE_COMMANDS,
                         ids=[f"{i:02d}-{c[0][0]}"
                              for i, c in enumerate(FILE_COMMANDS)])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_mutated_files(fuzz_dir, argv, valid, fields, data):
    # Extra keys are ignored; every other defect makes the file invalid,
    # which exits 1 with a message, never a traceback.
    path = _write(fuzz_dir / "valid.json", valid)
    code, want, err = _main(argv + ["--channel", path])
    assert code == cli.EXIT_OK, err
    op, obj = data.draw(_mutated(valid, fields))
    path = _write(fuzz_dir / "mutated.json", obj)
    code, out, err = _main(argv + ["--channel", path])
    if op == "extra":
        assert (code, out) == (cli.EXIT_OK, want), err
    else:
        _assert_config_error(code, out, err)


_W = prob.Dmc(CHANNEL["rows"])
_P, _Q = np.array(PAIR["p"]), np.array(PAIR["q"])


def _bsc_curve(delta, eps, ns=(1, 2, 3)):
    ns_meta.bsc_ns_log2_costs(ns, delta, eps)
    params = asymptotics.dispersion(prob.Dmc.bsc(delta))
    asymptotics.second_order_simulation(params, ns, eps)
    asymptotics.second_order_coding(params, ns, eps)


def _second_order(eps, ns=(100,)):
    params = asymptotics.dispersion(_W)
    asymptotics.second_order_simulation(params, ns, eps)
    asymptotics.second_order_coding(params, ns, eps)


# Each ranged flag: the command line up to the flag, the file it reads,
# the flag, the library calls the command makes with the value, and the
# values the library accepts.
RANGED = {
    "dh": (["divergence", "dh"], PAIR, "eps",
           lambda v: divergences.d_h(v, _P, _Q), {"0", "0.5"}),
    "dsplus": (["divergence", "dsplus"], PAIR, "eps",
               lambda v: divergences.d_s_plus(v, _P, _Q),
               {"0", "0.5", "1", "1.5", "inf"}),
    "dmax-smooth": (["divergence", "dmax-smooth"], PAIR, "eps",
                    lambda v: divergences.d_max_smooth(v, _P, _Q),
                    {"0", "0.5"}),
    "imax": (["imax"], CHANNEL, "eps",
             lambda v: ns_meta.i_max_smooth(_W, v), {"0", "0.5"}),
    "ns-cost": (["ns-cost"], CHANNEL, "eps",
                lambda v: ns_meta.ns_cost(_W, v), {"0", "0.5"}),
    "bsc-curve-delta": (["bsc-curve", "--eps", "0.1", "--n", "1..3"], None,
                        "delta", lambda v: _bsc_curve(v, 0.1), {"0.5"}),
    "bsc-curve-eps": (["bsc-curve", "--delta", "0.1", "--n", "1..3"], None,
                      "eps", lambda v: _bsc_curve(0.1, v), {"0.5"}),
    "second-order": (["second-order", "--n", "100"], CHANNEL, "eps",
                     _second_order, {"0.5"}),
    "capacity": (["capacity"], CHANNEL, "tol",
                 lambda v: asymptotics.capacity_ba(_W, tol=v),
                 {"0.5", "1", "1.5"}),
    "ba-trace": (["ba-trace"], BROADCAST, "tol",
                 lambda v: broadcast.tilde_c_ba(
                     prob.channel_from_json(BROADCAST), (0, 1), tol=v),
                 {"0.5", "1", "1.5"}),
    "broadcast-region": (["broadcast-region"], BROADCAST, "tol",
                         lambda v: broadcast.rate_region(
                             prob.channel_from_json(BROADCAST), tol=v),
                         {"0.5", "1", "1.5"}),
}
RANGED_VALUES = ("-1", "0", "0.5", "1", "1.5", "nan", "inf")


def _differential(tmp_path, head, payload, flag, call, value, parsed):
    argv = head + [f"--{flag}={value}"]
    if payload is not None:
        argv += ["--channel", _write(tmp_path / "in.json", payload)]
    try:
        call(parsed)
    except ValueError as exc:
        message = str(exc)
    else:
        message = None
    code, out, err = _main(argv)
    if message is None:
        assert code == cli.EXIT_OK, err
    else:
        _assert_config_error(code, out, err, f"channelsim: error: {message}")
    return message is None


@pytest.mark.parametrize("value", RANGED_VALUES)
@pytest.mark.parametrize("case", sorted(RANGED))
def test_ranged_flags_follow_the_library(tmp_path, case, value):
    # The command line accepts a value exactly when the library does, and
    # otherwise exits 1 with the library's message.
    head, payload, flag, call, documented = RANGED[case]
    accepted = _differential(tmp_path, head, payload, flag, call, value,
                             float(value))
    assert accepted == (value in documented)


@pytest.mark.parametrize("cost", ["-1", "0", "1", "2", "3"])
def test_ns_eps_cost_follows_the_library(tmp_path, cost):
    accepted = _differential(tmp_path, ["ns-eps"], CHANNEL, "n",
                             lambda c: ns_meta.ns_eps_for_cost(_W, c),
                             cost, int(cost))
    assert accepted == (int(cost) >= 2)
