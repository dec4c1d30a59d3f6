"""Command-line surface: exit codes, formats, headers, determinism."""

import json
import math

import numpy as np
import pytest

from channelsim import cli, divergences, ns_meta, prob, protocols


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def bsc_file(tmp_path):
    return _write(tmp_path / "bsc.json",
                  {"input_size": 2, "output_sizes": [2],
                   "rows": [[0.9, 0.1], [0.1, 0.9]]})


@pytest.fixture
def degraded_file(tmp_path):
    return _write(tmp_path / "degraded.json",
                  {"input_size": 2, "output_sizes": [2, 2],
                   "rows": [[0.49, 0.21, 0.09, 0.21],
                            [0.21, 0.09, 0.21, 0.49]]})


@pytest.fixture
def pair_file(tmp_path):
    return _write(tmp_path / "pair.json",
                  {"p": [0.5, 0.5], "q": [0.25, 0.75]})


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_unknown_subcommand_exits_config(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == cli.EXIT_CONFIG

    def test_bad_flag_exits_config(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["capacity", "--no-such-flag"])
        assert exc.value.code == cli.EXIT_CONFIG

    def test_missing_required_eps(self, capsys, pair_file):
        code, _, err = _run(capsys, ["divergence", "dh",
                                     "--channel", pair_file])
        assert code == cli.EXIT_CONFIG
        assert "--eps" in err

    def test_missing_file(self, capsys):
        code, _, err = _run(capsys, ["capacity", "--channel", "/no/file"])
        assert code == cli.EXIT_CONFIG
        assert "cannot read" in err

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = _run(capsys, ["capacity", "--channel", str(bad)])
        assert code == cli.EXIT_CONFIG

    def test_library_precondition_is_config(self, capsys, bsc_file):
        code, _, err = _run(capsys, ["ns-eps", "--channel", bsc_file,
                                     "--n", "1"])
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("out", ["no/such/dir/x.json", "."])
    def test_unwritable_out_is_config_error(self, capsys, bsc_file,
                                            tmp_path, out):
        code, stdout, err = _run(capsys, ["capacity", "--channel", bsc_file,
                                          "--out", str(tmp_path / out)])
        assert code == cli.EXIT_CONFIG
        assert stdout == "" and "Traceback" not in err
        assert err.startswith("channelsim: error: cannot write")

    def test_numeric_failure_maps_to_two(self, capsys, bsc_file,
                                         monkeypatch):
        def boom(*args, **kwargs):
            raise ArithmeticError("synthetic")
        monkeypatch.setattr(cli.asymptotics, "capacity_ba", boom)
        code, _, err = _run(capsys, ["capacity", "--channel", bsc_file])
        assert code == cli.EXIT_NUMERIC
        assert "numeric failure" in err

    @pytest.mark.parametrize("seed, want", [
        ("-1", cli.EXIT_CONFIG),
        (str(1 << 64), cli.EXIT_CONFIG),
        (str((1 << 64) + 1), cli.EXIT_CONFIG),
        (str((1 << 64) - 1), cli.EXIT_OK)])
    def test_seed_must_be_u64(self, capsys, tmp_path, seed, want):
        inst = _write(tmp_path / "inst.json",
                      {"p": [0.8, 0.2], "q": [0.5, 0.5], "m": 2})
        code, out, err = _run(capsys, ["reject-sim", "--channel", inst,
                                       "--n", "10", "--seed", seed])
        assert code == want
        if want == cli.EXIT_CONFIG:
            assert "--seed" in err and out == ""
        else:
            assert json.loads(out)["seed"] == int(seed)

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9"])
    @pytest.mark.parametrize("command", ["capacity", "ba-trace",
                                         "broadcast-region"])
    def test_tol_must_be_positive_and_finite(self, capsys, bsc_file,
                                             degraded_file, command, tol):
        path = degraded_file if command == "broadcast-region" else bsc_file
        code, out, err = _run(capsys, [command, "--channel", path,
                                       f"--tol={tol}"])
        assert code == cli.EXIT_CONFIG
        assert "tolerance must be positive and finite" in err and out == ""

    def test_reject_sim_rejects_trial_range(self, capsys, tmp_path):
        inst = _write(tmp_path / "inst.json",
                      {"p": [0.8, 0.2], "q": [0.5, 0.5], "m": 2})
        code, out, err = _run(capsys, ["reject-sim", "--channel", inst,
                                       "--n", "10..20"])
        assert code == cli.EXIT_CONFIG
        assert "--n" in err and out == ""

    @pytest.mark.parametrize("m", [True, 2.7, 2.0, "2", 0, None])
    def test_reject_sim_m_must_be_integer(self, capsys, tmp_path, m):
        inst = _write(tmp_path / "inst.json",
                      {"p": [0.8, 0.2], "q": [0.5, 0.5], "m": m})
        code, out, err = _run(capsys, ["reject-sim", "--channel", inst,
                                       "--n", "10"])
        assert code == cli.EXIT_CONFIG
        assert "'m'" in err and out == ""

    @pytest.mark.parametrize("m", [10 ** 30, protocols.MAX_ROUNDS + 1])
    def test_reject_sim_round_budget_is_capped(self, capsys, tmp_path, m):
        # Rejected before the per-round counts are allocated.
        inst = _write(tmp_path / "inst.json",
                      {"p": [0.5, 0.5], "q": [0.5, 0.5], "m": m})
        code, out, err = _run(capsys, ["reject-sim", "--channel", inst,
                                       "--n", "10"])
        assert code == cli.EXIT_CONFIG
        assert (f"round budget m must be at most {protocols.MAX_ROUNDS}"
                in err)
        assert "Traceback" not in err and out == ""

    @pytest.mark.parametrize("key, value", [
        ("m", 2.7), ("n", 2.7), ("m", True), ("n", 0)])
    def test_convex_split_counts_must_be_integers(self, capsys, tmp_path,
                                                  key, value):
        cube = np.einsum("a,b,c->abc", [0.4, 0.6], [0.3, 0.7], [0.55, 0.45])
        payload = {"joint": cube.reshape(-1).tolist(),
                   "factor_sizes": [2, 2, 2],
                   "q": [0.3, 0.7], "r": [0.55, 0.45], "m": 3, "n": 3,
                   "eps_params": [0.035, 0.035, 0.035, 0.578, 0.578, 0.34]}
        payload[key] = value
        inst = _write(tmp_path / "cs.json", payload)
        code, out, err = _run(capsys, ["convex-split-check",
                                       "--channel", inst])
        assert code == cli.EXIT_CONFIG
        assert repr(key) in err and out == ""

    def test_convex_split_list_copies_limit(self, capsys, tmp_path):
        # A one-letter Y factor keeps m = 26 copies inside the state cap.
        cube = np.einsum("a,b,c->abc", [0.4, 0.6], [1.0], [0.55, 0.45])
        payload = {"joint": cube.reshape(-1).tolist(),
                   "factor_sizes": [2, 1, 2],
                   "q": [1.0], "r": [0.55, 0.45], "m": 26, "n": 1,
                   "eps_params": [0.05, 0.05, 0.05, 0.1, 0.1, 0.1]}
        inst = _write(tmp_path / "cs.json", payload)
        code, out, err = _run(capsys, ["convex-split-check",
                                       "--channel", inst])
        assert code == cli.EXIT_CONFIG
        assert "25" in err and out == ""
        assert "Traceback" not in err
        payload["m"] = 24
        inst = _write(tmp_path / "cs.json", payload)
        code, out, _ = _run(capsys, ["convex-split-check", "--channel", inst])
        assert code == 0
        assert json.loads(out)["tvd_exact"] <= 1e-14

    @pytest.mark.parametrize("argv", [
        ["reject-sim", "--n", "10"],
        ["divergence", "kl"],
        ["convex-split-check"]])
    def test_instance_must_be_a_json_object(self, capsys, tmp_path, argv):
        inst = _write(tmp_path / "list.json", [1, 2])
        code, out, err = _run(capsys, argv + ["--channel", inst])
        assert code == cli.EXIT_CONFIG
        assert inst in err and "JSON object" in err and out == ""
        assert "Traceback" not in err

    def test_nan_eps_is_config_error(self, capsys, pair_file):
        code, out, err = _run(capsys, ["divergence", "dsplus",
                                       "--channel", pair_file,
                                       "--eps", "nan"])
        assert code == cli.EXIT_CONFIG
        assert err.startswith("channelsim: error: eps must be nonnegative")
        assert "Traceback" not in err and out == ""

    def test_main_builds_the_parser_once(self, capsys, monkeypatch,
                                         pair_file):
        real = cli.build_parser
        built = []

        def counting():
            built.append(1)
            return real()
        monkeypatch.setattr(cli, "build_parser", counting)
        cli._shared_parser.cache_clear()
        for kind in ("kl", "dmax", "kl"):
            code, _, _ = _run(capsys, ["divergence", kind,
                                       "--channel", pair_file])
            assert code == cli.EXIT_OK
        assert len(built) == 1
        assert real() is not real()

    def test_verify_passes(self, capsys):
        code, out, _ = _run(capsys, ["verify"])
        assert code == cli.EXIT_OK
        lines = [ln for ln in out.splitlines() if ln]
        assert all(ln.startswith("PASS") for ln in lines[:-1])
        assert lines[-1].endswith("0 failed")


class TestJsonOutputs:
    def test_capacity(self, capsys, bsc_file):
        code, out, _ = _run(capsys, ["capacity", "--channel", bsc_file])
        assert code == 0
        payload = json.loads(out)
        assert payload["capacity_bits"] == pytest.approx(0.531004406,
                                                         abs=1e-6)
        assert payload["meta"]["tool"] == "channelsim"
        assert isinstance(payload["iterations"], int)
        assert payload["final_bound"] == pytest.approx(
            1.0 / payload["iterations"], abs=1e-12)

    def test_divergence_kinds(self, capsys, pair_file):
        code, out, _ = _run(capsys, ["divergence", "kl",
                                     "--channel", pair_file])
        assert code == 0
        want = divergences.kl(np.array([0.5, 0.5]), np.array([0.25, 0.75]))
        assert json.loads(out)["bits"] == pytest.approx(want, abs=0.0)
        code, out, _ = _run(capsys, ["divergence", "dsplus", "--eps", "0.1",
                                     "--channel", pair_file])
        assert code == 0
        want = divergences.d_s_plus(0.1, np.array([0.5, 0.5]),
                                    np.array([0.25, 0.75]))
        assert json.loads(out)["bits"] == pytest.approx(want, abs=0.0)

    def test_imax_plain_and_smoothed(self, capsys, bsc_file):
        code, out, _ = _run(capsys, ["imax", "--channel", bsc_file])
        assert code == 0
        assert json.loads(out)["bits"] == pytest.approx(math.log2(1.8),
                                                        abs=1e-9)
        code, out, _ = _run(capsys, ["imax", "--channel", bsc_file,
                                     "--eps", "0.05"])
        assert code == 0
        assert json.loads(out)["bits"] == pytest.approx(0.765534746362977,
                                                        abs=1e-9)

    def test_ns_cost_and_eps(self, capsys, bsc_file):
        code, out, _ = _run(capsys, ["ns-cost", "--channel", bsc_file,
                                     "--eps", "0.05"])
        assert code == 0
        payload = json.loads(out)
        want = ns_meta.ns_cost(prob.Dmc.bsc(0.1), 0.05)
        assert payload["cost"] == want.cost
        assert payload["i_max_eps"] == pytest.approx(want.i_max_eps, abs=0.0)
        code, out, _ = _run(capsys, ["ns-eps", "--channel", bsc_file,
                                     "--n", "4"])
        assert code == 0
        want_eps = ns_meta.ns_eps_for_cost(prob.Dmc.bsc(0.1), 4).eps
        assert json.loads(out)["eps"] == pytest.approx(want_eps, abs=0.0)

    def test_dispersion(self, capsys, bsc_file):
        code, out, _ = _run(capsys, ["dispersion", "--channel", bsc_file])
        assert code == 0
        payload = json.loads(out)
        assert payload["v_min"] == pytest.approx(0.904358, abs=1e-5)
        assert payload["v_max"] == pytest.approx(payload["v_min"], abs=1e-9)
        inputs = payload["capacity_achieving_inputs"]
        assert len(inputs) == 1
        assert inputs[0] == pytest.approx([0.5, 0.5], abs=1e-6)

    @pytest.mark.parametrize("argv", [
        ["dispersion"],
        ["second-order", "--eps", "0.05", "--n", "100..102",
         "--format", "json"],
        ["moderate", "--n", "100..102", "--format", "json"],
    ])
    def test_four_input_channel(self, capsys, tmp_path, argv):
        rows = np.full((4, 4), 0.1) + 0.6 * np.eye(4)
        path = _write(tmp_path / "sym4.json",
                      {"input_size": 4, "output_sizes": [4],
                       "rows": rows.tolist()})
        code, out, _ = _run(capsys, argv + ["--channel", path])
        assert code == 0
        payload = json.loads(out)
        if argv[0] == "dispersion":
            logs = np.log2(4.0 * rows[0])
            assert payload["capacity_bits"] == pytest.approx(
                float(rows[0] @ logs), abs=1e-12)
            want_v = float(rows[0] @ (logs - rows[0] @ logs) ** 2)
            assert payload["v_min"] == pytest.approx(want_v, rel=1e-9)
            assert payload["v_max"] == pytest.approx(want_v, rel=1e-9)
        else:
            assert len(payload["rows"]) == 3

    def test_second_order_json_band(self, capsys, bsc_file):
        code, out, _ = _run(capsys, ["second-order", "--channel", bsc_file,
                                     "--eps", "0.05", "--n", "100..102"])
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["band"] == "unquantified"
        assert len(payload["rows"]) == 3
        assert payload["rows"][0]["n"] == 100
        assert payload["rows"][0]["simulation_bits"] > \
            payload["rows"][0]["coding_bits"]

    def test_moderate_rows(self, capsys, bsc_file):
        code, out, _ = _run(capsys, ["moderate", "--channel", bsc_file,
                                     "--n", "1000"])
        assert code == 0
        row = json.loads(out)["rows"][0]
        for key in ("a_n", "eps_n", "simulation_at_eps",
                    "simulation_at_complement", "coding_at_eps",
                    "coding_at_complement"):
            assert key in row
        assert row["simulation_at_eps"] == pytest.approx(0.665493, abs=2e-3)

    def test_broadcast_region(self, capsys, degraded_file):
        code, out, _ = _run(capsys, ["broadcast-region",
                                     "--channel", degraded_file])
        assert code == 0
        payload = json.loads(out)
        assert payload["num_receivers"] == 2
        subsets = [c["subset"] for c in payload["constraints"]]
        assert subsets == [[1], [2], [1, 2]]
        bits = {tuple(c["subset"]): c["bits"]
                for c in payload["constraints"]}
        assert bits[(1,)] == pytest.approx(0.118709, abs=1e-4)
        assert bits[(2,)] == pytest.approx(0.018546, abs=1e-4)
        assert bits[(1, 2)] == pytest.approx(0.237419, abs=1e-4)
        assert len(payload["corners"]) == 2

    def test_reject_sim(self, capsys, tmp_path):
        inst = _write(tmp_path / "inst.json",
                      {"p": [1.0, 0.0], "q": [0.5, 0.5], "m": 4})
        code, out, _ = _run(capsys, ["reject-sim", "--channel", inst,
                                     "--n", "2000", "--seed", "7"])
        assert code == 0
        payload = json.loads(out)
        assert payload["tvd_exact"] == pytest.approx(0.0625, abs=1e-12)
        assert payload["bound"] == pytest.approx(0.0625, abs=1e-12)
        assert payload["trials"] == 2000
        assert payload["seed"] == 7
        assert len(payload["accept_counts"]) == 4
        assert payload["empirical_tvd_to_exact"] <= 0.05

    def test_convex_split_check(self, capsys, tmp_path):
        cube = np.einsum("a,b,c->abc", [0.4, 0.6], [0.3, 0.7], [0.55, 0.45])
        inst = _write(tmp_path / "cs.json", {
            "joint": cube.reshape(-1).tolist(),
            "factor_sizes": [2, 2, 2],
            "q": [0.3, 0.7], "r": [0.55, 0.45], "m": 3, "n": 3,
            "eps_params": [0.035, 0.035, 0.035, 0.578, 0.578, 0.34]})
        code, out, _ = _run(capsys, ["convex-split-check", "--channel", inst])
        assert code == 0
        payload = json.loads(out)
        assert payload["holds"] is True
        assert payload["tvd_exact"] <= 1e-14
        assert payload["tvd_exact"] <= payload["bound"]
        assert len(payload["thresholds_bits"]) == 3


class TestCsvOutputs:
    def test_bsc_curve_header_and_columns(self, capsys):
        code, out, _ = _run(capsys, ["bsc-curve", "--delta", "0.1",
                                     "--eps", "0.05", "--n", "1..5"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# tool: channelsim ")
        assert not any("time" in ln.lower() or "date" in ln.lower()
                       for ln in lines if ln.startswith("#"))
        header = next(ln for ln in lines if not ln.startswith("#"))
        cols = header.split(",")
        assert cols == ["n", "log2_ns_cost", "log2_ns_cost_per_n",
                        "simulation_second_order_per_n",
                        "coding_second_order_per_n", "capacity"]
        data = [ln.split(",") for ln in lines[lines.index(header) + 1:]]
        assert [int(row[0]) for row in data] == [1, 2, 3, 4, 5]
        for row in data:
            n = int(row[0])
            assert float(row[2]) == pytest.approx(float(row[1]) / n,
                                                  abs=1e-12)
            assert float(row[5]) == pytest.approx(0.531004406, abs=1e-6)

    def test_csv_numbers_round_trip_doubles(self, capsys):
        code, out, _ = _run(capsys, ["bsc-curve", "--delta", "0.1",
                                     "--eps", "0.05", "--n", "3"])
        assert code == 0
        data_line = out.splitlines()[-1]
        got = float(data_line.split(",")[1])
        want = ns_meta.bsc_ns_cost(3, 0.1, 0.05).log2_cost
        assert got == want

    def test_ba_trace(self, capsys, bsc_file):
        code, out, _ = _run(capsys, ["ba-trace", "--channel", bsc_file])
        assert code == 0
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert lines[0] == "iteration,estimate,bound"
        rows = [ln.split(",") for ln in lines[1:]]
        ests = [float(r[1]) for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(ests, ests[1:]))
        for r in rows:
            assert float(r[2]) == pytest.approx(1.0 / int(r[0]), abs=1e-12)

    def test_ba_trace_broadcast_runs_full_subset(self, capsys,
                                                 degraded_file):
        code, out, _ = _run(capsys, ["ba-trace", "--channel", degraded_file])
        assert code == 0
        last = out.splitlines()[-1].split(",")
        assert float(last[1]) == pytest.approx(0.237419, abs=1e-4)

    def test_headers_name_the_tol_used(self, capsys, tmp_path, bsc_file,
                                       degraded_file):
        # Without --tol each header names the default the run used: the
        # trace's stopping increment (1e-6 from three receivers on) and
        # the region's certified gap; with --tol, the value given.
        rows = np.random.default_rng(3).dirichlet(np.ones(8), size=2)
        three = _write(tmp_path / "three.json",
                       {"input_size": 2, "output_sizes": [2, 2, 2],
                        "rows": rows.tolist()})
        for path, flags, want in ((bsc_file, [], "1e-09"),
                                  (degraded_file, [], "1e-09"),
                                  (three, [], "1e-06"),
                                  (three, ["--tol", "1e-05"], "1e-05")):
            code, out, _ = _run(capsys, ["ba-trace", "--channel", path]
                                + flags)
            assert code == 0
            assert f"# tol: {want}" in out.splitlines(), (path, flags)
        for command, path, flags, want in (
                ("broadcast-region", degraded_file, [], 1e-12),
                ("broadcast-region", degraded_file, ["--tol", "1e-10"],
                 1e-10),
                ("capacity", bsc_file, [], 1e-9)):
            code, out, _ = _run(capsys, [command, "--channel", path]
                                + flags)
            assert code == 0
            assert json.loads(out)["meta"]["tol"] == want, (command, flags)

    def test_second_order_csv_band_header(self, capsys, bsc_file):
        code, out, _ = _run(capsys, ["second-order", "--channel", bsc_file,
                                     "--eps", "0.05", "--n", "100",
                                     "--format", "csv"])
        assert code == 0
        assert "# band: unquantified" in out.splitlines()


class TestDeterminism:
    def test_curve_reruns_identical(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            code, out, _ = _run(capsys, ["bsc-curve", "--delta", "0.1",
                                         "--eps", "0.05", "--n", "1..6",
                                         "--out", str(path)])
            assert code == 0
            assert out == ""
        assert a.read_bytes() == b.read_bytes()

    def test_bsc_curve_past_float_range(self, capsys):
        # binom(1030, 515) overflows a double; the sweep must still succeed
        code, out, _ = _run(capsys, ["bsc-curve", "--delta", "0.11",
                                     "--eps", "0.05", "--n", "1030..1030"])
        assert code == 0
        row = out.splitlines()[-1].split(",")
        assert row[0] == "1030"
        assert float(row[1]) == ns_meta.bsc_ns_cost(1030, 0.11, 0.05).log2_cost

    def test_bsc_curve_rows_match_bsc_ns_cost(self, capsys):
        # a range across the sweep's block boundaries and past the double
        # range of C_k, and a single blocklength
        for n_arg, ns in (("1025..1034", range(1025, 1035)), ("7", [7])):
            code, out, _ = _run(capsys, ["bsc-curve", "--delta", "0.11",
                                         "--eps", "0.05", "--n", n_arg])
            assert code == 0
            rows = [ln.split(",") for ln in out.splitlines()
                    if ln[:1].isdigit()]
            assert [int(r[0]) for r in rows] == list(ns)
            for r in rows:
                assert float(r[1]) == ns_meta.bsc_ns_cost(
                    int(r[0]), 0.11, 0.05).log2_cost

    def test_tiny_eps_stays_finite(self, capsys, bsc_file):
        # 1 - eps rounds to 1.0 at this eps
        code, out, _ = _run(capsys, ["bsc-curve", "--delta", "0.11",
                                     "--eps", "1e-17", "--n", "1..4"])
        assert code == 0
        rows = [ln.split(",") for ln in out.splitlines() if ln[:1].isdigit()]
        assert len(rows) == 4
        assert all(math.isfinite(float(v)) for r in rows for v in r)
        code, out, _ = _run(capsys, ["second-order", "--channel", bsc_file,
                                     "--eps", "1e-17", "--n", "100"])
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert math.isfinite(row["simulation_bits"])
        assert math.isfinite(row["coding_bits"])

    def test_sweep_threads_do_not_change_bytes(self, tmp_path, capsys):
        # Two runs of one sweep write the same bytes.
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        _run(capsys, ["bsc-curve", "--delta", "0.2", "--eps", "0.1",
                      "--n", "1..8", "--out", str(a)])
        _run(capsys, ["bsc-curve", "--delta", "0.2", "--eps", "0.1",
                      "--n", "1..8", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_reject_sim_seed_controls_output(self, tmp_path, capsys):
        inst = _write(tmp_path / "inst.json",
                      {"p": [0.8, 0.2], "q": [0.5, 0.5], "m": 3})
        outs = []
        for seed in ("5", "5", "6"):
            path = tmp_path / f"run{len(outs)}.json"
            code, _, _ = _run(capsys, ["reject-sim", "--channel", inst,
                                       "--n", "4000", "--seed", seed,
                                       "--out", str(path)])
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0] != outs[2]


class TestChannelSchema:
    def test_round_trip_through_files(self, tmp_path, capsys):
        w = prob.Dmc(rows=[[0.7, 0.2, 0.1], [0.1, 0.1, 0.8]])
        path = _write(tmp_path / "w.json", prob.channel_to_json(w))
        code, out, _ = _run(capsys, ["capacity", "--channel", str(path)])
        assert code == 0
        assert json.loads(out)["capacity_bits"] > 0.0

    def test_region_rejects_point_to_point(self, capsys, bsc_file):
        code, _, err = _run(capsys, ["broadcast-region",
                                     "--channel", bsc_file])
        assert code == cli.EXIT_CONFIG

    def test_capacity_rejects_broadcast(self, capsys, degraded_file):
        code, _, err = _run(capsys, ["capacity",
                                     "--channel", degraded_file])
        assert code == cli.EXIT_CONFIG
        assert "capacity expects a point-to-point channel" in err

    @pytest.mark.parametrize("sub", ["imax", "ns-cost", "ns-eps",
                                     "dispersion", "second-order",
                                     "moderate"])
    def test_point_to_point_commands_reject_broadcast(self, capsys,
                                                      degraded_file, sub):
        code, _, err = _run(capsys, [sub, "--channel", degraded_file])
        assert code == cli.EXIT_CONFIG
        assert f"{sub} expects a point-to-point channel" in err
