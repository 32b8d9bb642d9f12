import dataclasses
import json
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stochpert import cli
from stochpert.cli import (DEFAULT_SEED, _build_parser, _cluster, _json_leaf,
                           main)
from stochpert.model import PcaModel, SiteGraph


@pytest.fixture
def model_config(tmp_path):
    def write(doc, name="model.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)
    return write


def reference_jsonable(obj):
    """The recursive walk ``main`` ran over every result before the report
    was encoded; ``json.dumps(..., default=_json_leaf)`` must give the same
    bytes."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        return {k: reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_jsonable(v) for v in obj]
    return obj


def encoded(result, **kwargs):
    return json.dumps(result, indent=2, sort_keys=True, **kwargs)


@pytest.fixture(autouse=True)
def results_encode_as_after_the_old_walk(monkeypatch):
    """Every result a test gets from a command through ``main`` encodes
    byte for byte as the old walk's output does."""
    results = []
    for name, (fn, needs_config) in list(cli._COMMANDS.items()):
        def recorded(cfg, args, fn=fn):
            result, table = fn(cfg, args)
            results.append(result)
            return result, table
        monkeypatch.setitem(cli._COMMANDS, name, (recorded, needs_config))
    yield
    for result in results:
        assert encoded(result, default=_json_leaf) == encoded(
            reference_jsonable(result))


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


PATH2 = {"graph": {"nodes": 2, "edges": [[0, 1]]}, "alpha": 0.0,
         "epsilon": 0.1, "beta_override": None}
PATH3 = {"graph": {"nodes": 3, "edges": [[0, 1], [1, 2]]}, "alpha": 0.0,
         "epsilon": 0.1, "beta_override": None}
SINGLE = {"graph": {"nodes": 1, "edges": []}, "alpha": 0.0, "epsilon": 0.1,
          "beta_override": None}


def path_config(n):
    return {"graph": {"nodes": n, "edges": [[i, i + 1] for i in range(n - 1)]},
            "alpha": 0.2, "epsilon": 0.05, "beta_override": None}


def reference_cluster(eigs, tol=1e-8):
    """The O(c^2) clustering ``_cluster`` must reproduce exactly: every
    eigenvalue, in (re, im) order, scans every cluster."""
    clusters = []
    for lam in sorted(eigs, key=lambda z: (z.real, z.imag)):
        for members in clusters:
            center = sum(members) / len(members)
            if abs(lam - center) <= tol:
                members.append(lam)
                break
        else:
            clusters.append([lam])
    out = []
    for members in clusters:
        center = sum(members) / len(members)
        out.append({"center_re": center.real, "center_im": center.imag,
                    "count": len(members)})
    out.sort(key=lambda c: (-c["count"], c["center_re"]))
    return out


class TestSpectrum:
    @pytest.mark.parametrize("doc,expect", [
        (SINGLE, {1.0: 2, 0.0: 1}),
        (PATH2, {1.0: 4, 0.0: 5}),
        (PATH3, {1.0: 8, 0.0: 19}),
    ])
    def test_zero_eps_clusters(self, capsys, model_config, doc, expect):
        code, rep = run_json(capsys, ["spectrum", "--config",
                                      model_config(doc), "--eps", "0"])
        assert code == 0
        clusters = {round(c["center_re"], 6): c["count"]
                    for c in rep["result"]["clusters"]}
        assert clusters == expect
        assert rep["result"]["gap"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("doc", [PATH2, PATH3, dict(PATH3, alpha=0.3)])
    def test_gap_is_smallest_pairwise_centre_distance(self, capsys,
                                                      model_config, doc):
        code, rep = run_json(capsys, ["spectrum", "--config",
                                      model_config(doc)])
        assert code == 0
        centres = [complex(c["center_re"], c["center_im"])
                   for c in rep["result"]["clusters"]]
        assert len(centres) > 2
        assert rep["result"]["gap"] == min(
            abs(a - b) for i, a in enumerate(centres) for b in centres[i + 1:])


    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 4), alpha=st.floats(0.0, 0.5),
           frac=st.floats(0.0, 1.0), rate=st.none() | st.floats(0.5, 2.0))
    def test_flip_symmetric_models_match_full_eigvals(self, n, alpha, frac,
                                                      rate):
        beta = None if rate is None else (rate, rate)
        cap = 1.0 / (rate if rate else 1.0 + 2.0 * alpha)
        mdl = PcaModel(SiteGraph.path(n), alpha, 0.99 * frac * cap, beta)
        assert mdl.flip_symmetric
        args = _build_parser().parse_args(["spectrum"])
        cfg = {"graph": {"nodes": n, "edges": [list(e) for e in
                                               mdl.graph.edges]},
               "alpha": alpha, "epsilon": mdl.epsilon,
               "beta_override": None if rate is None else {"plus": rate,
                                                           "minus": rate}}
        got = cli.cmd_spectrum(cfg, args)[0]["clusters"]
        expected = _cluster(np.linalg.eigvals(mdl.operator()))
        assert len(got) == len(expected)
        for c in got:
            # the partner with the same count and the nearest centre
            z = complex(c["center_re"], c["center_im"])
            dist, k = min((abs(z - complex(e["center_re"], e["center_im"])),
                           k) for k, e in enumerate(expected)
                          if e["count"] == c["count"])
            assert dist <= 1e-12
            expected.pop(k)

    def test_unequal_rates_beyond_seven_sites_refused_up_front(
            self, capsys, model_config):
        doc = dict(path_config(8), beta_override={"plus": 1.5, "minus": 1.0})
        start = time.perf_counter()
        code = main(["spectrum", "--config", model_config(doc)])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == ("domain error: spectrum runs up to 7 sites "
                                "when the fixed rates differ, got 8\n")
        assert captured.out == ""

    def test_unequal_rates_take_the_full_eigvals(self, capsys, model_config):
        doc = dict(PATH2, beta_override={"plus": 1.5, "minus": 1.0})
        code, rep = run_json(capsys, ["spectrum", "--config",
                                      model_config(doc)])
        assert code == 0
        eigs = np.linalg.eigvals(PcaModel(SiteGraph.path(2), 0.0, 0.1,
                                          (1.5, 1.0)).operator())
        assert rep["result"]["clusters"] == _cluster(eigs)


class TestCluster:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 4), alpha=st.floats(0.0, 0.5),
           frac=st.floats(0.0, 1.0))
    def test_random_models_match_reference(self, n, alpha, frac):
        # eps up to the cap 1 / (1 + 2 alpha) of a path's degree-2 sites
        eps = frac / (1.0 + 2.0 * alpha)
        eigs = np.linalg.eigvals(
            PcaModel(SiteGraph.path(n), alpha, eps).operator())
        assert _cluster(eigs) == reference_cluster(eigs)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-4, 4)),
                    min_size=1, max_size=40),
           st.sampled_from([0.3e-8, 0.5e-8, 0.7e-8, 1e-8]))
    def test_near_degenerate_lists_match_reference(self, points, spacing):
        # lattice points a fraction of the tolerance apart, so clusters
        # chain, compete for members and drift as members join
        eigs = np.array([complex(0.5 + spacing * i, spacing * j)
                         for i, j in points])
        assert _cluster(eigs) == reference_cluster(eigs)

    def test_conjugate_pairs_and_exact_ties(self):
        eigs = np.array([1.0, 1.0, 1.0 + 1e-8, 0.5 + 1e-9j, 0.5 - 1e-9j,
                         0.5 + 0.3j, 0.5 - 0.3j, 0.5 + 2e-8, -0.2, -0.2])
        assert _cluster(eigs) == reference_cluster(eigs)


class TestErgodicity:
    def test_contraction_regime(self, capsys, model_config):
        code, rep = run_json(capsys, ["ergodicity", "--config",
                                      model_config(PATH3)])
        assert code == 0
        assert rep["result"]["geometrically_ergodic"] is True
        assert rep["result"]["linf_norm"] <= 0.9 + 1e-12

    def test_zero_eps_certificate_false(self, capsys, model_config):
        code, rep = run_json(capsys, ["ergodicity", "--config",
                                      model_config(PATH3), "--eps", "0"])
        assert code == 0
        assert rep["result"]["geometrically_ergodic"] is False
        assert rep["result"]["linf_norm"] == pytest.approx(1.0, abs=1e-12)

    def test_supercritical_alpha(self, capsys, model_config):
        doc = dict(PATH3, alpha=0.6, epsilon=0.3)
        code, rep = run_json(capsys, ["ergodicity", "--config",
                                      model_config(doc)])
        assert code == 0
        assert rep["result"]["closed_form_bound"] >= 1.0
        assert rep["result"]["linf_norm"] == pytest.approx(
            1 - 0.3 + 2 * 0.6 * 0.3, abs=1e-12)


class TestSepAndSylvester:
    def test_sep_scalar(self, capsys, model_config):
        cfg = model_config({"A": [[2.0]], "B": [[1.0]]}, "sep.json")
        code, rep = run_json(capsys, ["sep", "--config", cfg])
        assert code == 0
        assert rep["result"]["sep"] == pytest.approx(1.0)
        assert rep["result"]["norm"] == "frobenius"

    def test_sylvester_scalar(self, capsys, model_config):
        cfg = model_config({"A": [[2.0]], "B": [[1.0]], "C": [[3.0]]},
                           "syl.json")
        code, rep = run_json(capsys, ["sylvester", "--config", cfg])
        assert code == 0
        assert rep["result"]["X"] == [[3.0]]

    def test_shared_eigenvalue_is_domain_error(self, capsys, model_config):
        cfg = model_config({"A": [[1.0]], "B": [[1.0]], "C": [[1.0]]},
                           "syl.json")
        assert main(["sylvester", "--config", cfg]) == 1
        assert "eigenvalue" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["kron", "schur"])
    def test_non_finite_rhs_is_domain_error(self, capsys, model_config,
                                            method):
        # Python's JSON reader accepts the NaN literal
        cfg = model_config({"A": [[2.0]], "B": [[1.0]], "C": [[np.nan]],
                            "method": method}, "syl.json")
        assert main(["sylvester", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert "C has non-finite entries" in captured.err
        assert captured.out == ""

    def test_kronecker_solver_beyond_its_cap_refused(self, capsys,
                                                     model_config):
        a = np.diag(np.arange(1.0, 71.0))
        cfg = model_config({"A": a.tolist(), "B": (-a).tolist(),
                            "C": np.ones((70, 70)).tolist()}, "syl.json")
        assert main(["sylvester", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert 'method="schur"' in captured.err
        assert captured.out == ""

    def test_slow_series_is_numerical_failure(self, capsys, model_config):
        cfg = model_config({"A": [[0.9999]], "B": [[1.0001]], "C": [[1.0]],
                            "method": "series"}, "syl.json")
        assert main(["sylvester", "--config", cfg]) == 2
        assert "numerical" in capsys.readouterr().err


class TestDobrushinCommand:
    def test_point_mass_measure(self, capsys, model_config):
        doc = dict(PATH2, measure={"point_masses": [[0, 0], [2, 0]]})
        code, rep = run_json(capsys, ["dobrushin", "--config",
                                      model_config(doc)])
        assert code == 0
        assert rep["result"]["z_norm_primal"] == pytest.approx(1.0, abs=1e-9)
        assert rep["result"]["z_norm_dual"] == pytest.approx(1.0, abs=1e-9)

    def test_tangent_norm_default(self, capsys, model_config):
        code, rep = run_json(capsys, ["dobrushin", "--config",
                                      model_config(SINGLE)])
        assert code == 0
        assert rep["result"]["tangent_norm"] > 0

    def test_tangent_norm_beyond_two_sites_refused_up_front(self, capsys,
                                                            model_config):
        start = time.perf_counter()
        code = main(["dobrushin", "--config", model_config(PATH3)])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        err = capsys.readouterr().err
        assert "83214 linear programs" in err
        assert "at most 2 sites of 3 states" in err

    def test_tangent_norm_at_eight_sites_refused_before_the_operators(
            self, capsys, model_config, monkeypatch):
        def family(self):
            raise AssertionError("operators built before the size check")
        monkeypatch.setattr(PcaModel, "family", family)
        start = time.perf_counter()
        code = main(["dobrushin", "--config", model_config(path_config(8))])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert "the tangent norm runs on at most 2 sites of 3 states" in \
            capsys.readouterr().err

    def test_point_masses_at_five_sites_refused_up_front(self, capsys,
                                                         model_config):
        doc = dict(path_config(5),
                   measure={"point_masses": [[0] * 5, [2] * 5]})
        start = time.perf_counter()
        code = main(["dobrushin", "--config", model_config(doc)])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert capsys.readouterr().err == (
            "domain error: the zero-charge norm runs on at most 3 sites of 3 "
            "states; this product space needs 27393328531206 polar "
            "generators, above the limit of 1000000\n")

    def test_point_masses_at_three_sites_pass_the_size_check(
            self, model_config, monkeypatch):
        # the whole run takes about 20 s, nearly all in the dual LP over
        # 166,374 polar generators; the test stops at that LP
        class Reached(Exception):
            pass

        real = cli.dobrushin.lp_solve

        def lp_solve(lp, **kwargs):
            if lp.lhs.shape[1] == 166_374:
                raise Reached
            return real(lp, **kwargs)

        monkeypatch.setattr(cli.dobrushin, "lp_solve", lp_solve)
        doc = dict(path_config(3),
                   measure={"point_masses": [[0] * 3, [2] * 3]})
        with pytest.raises(Reached):
            main(["dobrushin", "--config", model_config(doc)])


    @pytest.mark.parametrize("pair, where", [
        ([["+", "-"], [0, 1]], "[0][0]"),
        ([[-1, 0], [0, 1]], "[0][0]"),
        ([[5, 0], [0, 1]], "[0][0]"),
        ([[1.7, 0], [0, 1]], "[0][0]"),
        ([[0, 0], [0, True]], "[1][1]"),
        ([[0], [0, 1]], "[0]"),
        ([[0, 0], 4], "[1]"),
    ])
    def test_bad_point_masses_are_config_errors(self, capsys, model_config,
                                                pair, where):
        doc = dict(PATH2, measure={"point_masses": pair})
        assert main(["dobrushin", "--config", model_config(doc)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"config error: $.measure.point_masses{where}: expected ")
        assert captured.out == ""

    @pytest.mark.parametrize("measure, where", [
        ("values", "$.measure: "),
        ({"values": ["a", 1, -1]}, "$.measure.values: "),
    ])
    def test_malformed_measure_is_config_error(self, capsys, model_config,
                                               measure, where):
        doc = dict(SINGLE, measure=measure)
        assert main(["dobrushin", "--config", model_config(doc)]) == 3
        assert capsys.readouterr().err.startswith(f"config error: {where}")


class TestEffectiveAndContinue:
    def test_effective_matrix(self, capsys, model_config):
        code, rep = run_json(capsys, ["effective", "--config",
                                      model_config(SINGLE), "--eps", "0.1",
                                      "--order", "2"])
        assert code == 0
        m = np.array(rep["result"]["matrix"])
        assert np.abs(m - [[0.95, 0.05], [0.05, 0.95]]).max() < 1e-10

    def test_effective_sweep_writes_csv(self, capsys, model_config, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(["effective", "--config", model_config(SINGLE),
                     "--eps", "0.02,0.04", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert len(rep["result"]["sweep"]) == 2
        csv_text = (tmp_path / "sweep.csv").read_text().splitlines()
        assert csv_text[0].startswith("eps,order1_error,order2_error")
        assert len(csv_text) == 3

    def test_continue_report_and_csv(self, capsys, model_config, tmp_path):
        out = tmp_path / "cont.json"
        code = main(["continue", "--config", model_config(PATH2),
                     "--eps", "0.05", "--steps", "4", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["result"]["rank"] == 4
        assert len(rep["result"]["path"]) == 5
        assert (tmp_path / "cont.csv").exists()

    def test_continue_evaluates_one_operator_per_node(self, capsys,
                                                      model_config,
                                                      monkeypatch):
        calls = []
        family = PcaModel.family

        def counted_family(mdl):
            fam = family(mdl)

            def at(eps):
                calls.append(eps)
                return fam.at(eps)
            return dataclasses.replace(fam, at=at)

        monkeypatch.setattr(PcaModel, "family", counted_family)
        code, rep = run_json(capsys, ["continue", "--config",
                                      model_config(path_config(3)),
                                      "--steps", "4"])
        assert code == 0
        # the reported gap and sep are taken on the operators the
        # continuation evaluated, one per grid node
        assert calls == list(np.linspace(0.0, 0.05, 5))
        assert [pt["eps"] for pt in rep["result"]["path"]] == calls

    def test_continue_beyond_four_sites_refused_up_front(self, capsys,
                                                         model_config):
        start = time.perf_counter()
        code = main(["continue", "--config", model_config(path_config(5))])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert "continue runs up to 4 sites" in capsys.readouterr().err

    def test_continue_at_four_sites_runs(self, capsys, model_config):
        code, rep = run_json(capsys, ["continue", "--config",
                                      model_config(path_config(4)),
                                      "--steps", "1"])
        assert code == 0
        assert rep["result"]["rank"] == 16
        assert all(pt["sep"] > 0 for pt in rep["result"]["path"])

    @pytest.mark.parametrize("argv", [["--order", "exact"],
                                      ["--eps", "0.01,0.05"]])
    def test_exact_reduction_beyond_five_sites_refused_up_front(
            self, capsys, model_config, monkeypatch, argv):
        def family(self):
            raise AssertionError("operators built before the size check")
        monkeypatch.setattr(PcaModel, "family", family)
        start = time.perf_counter()
        code = main(["effective", "--config", model_config(path_config(6)),
                     *argv])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert "the exact reduction (--order exact, or a sweep of several " \
            "eps) runs up to 5 sites" in capsys.readouterr().err

    def test_exact_reduction_at_five_sites_runs(self, capsys, model_config):
        # one transport step to a small eps keeps it under a second on one
        # core; eps = 0.05 with the CLI default of 64 steps takes 14-20 s
        code, rep = run_json(capsys, ["effective", "--config",
                                      model_config(path_config(5)),
                                      "--order", "exact", "--eps", "0.02",
                                      "--steps", "1"])
        assert code == 0
        m = np.array(rep["result"]["matrix"])
        assert m.shape == (32, 32)
        assert np.abs(m.sum(axis=1) - 1.0).max() <= 1e-8

    def test_too_few_steps_name_the_step_count(self, capsys, model_config):
        start = time.perf_counter()
        code = main(["effective", "--config", model_config(SINGLE),
                     "--order", "exact", "--eps", "0.1", "--steps", "1"])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "at node 1 of 1 exceeds 1e-08; more steps reduce it" in \
            capsys.readouterr().err

    def test_order_two_at_five_sites(self, capsys, model_config):
        code, rep = run_json(capsys, ["effective", "--config",
                                      model_config(path_config(5)),
                                      "--order", "2"])
        assert code == 0
        m = np.array(rep["result"]["matrix"])
        assert m.shape == (32, 32)
        assert np.abs(m.sum(axis=1) - 1.0).max() <= 1e-8
        assert m.min() >= -1e-12


class TestReportEncoding:
    def test_every_leaf_the_old_walk_converted(self):
        result = {
            "array": np.arange(3.0), "ints": np.arange(2),
            "bool": np.bool_(True), "py_bool": False, "int": np.int64(7),
            "float32": np.float32(0.1), "float64": np.float64(1 / 3),
            "complex": 1 - 2j, "np_complex": np.complex128(0.5 + 1e-17j),
            "nested": [(np.int32(1), {"x": np.float16(2.5)})],
            "none": None, "inf": np.inf,
        }
        assert encoded(result, default=_json_leaf) == encoded(
            reference_jsonable(result))

    def test_unknown_leaf_is_still_an_error(self):
        with pytest.raises(TypeError, match="object"):
            encoded({"x": object()}, default=_json_leaf)

    @pytest.mark.parametrize("doc", [
        {"A": [[0.5, 0.1], [0.0, 0.3]], "B": [[1.5]], "method": "brute"},
        {"A": [[0.5, 0.1], [0.0, 0.3]], "B": [[1.5]], "method": "series",
         "lam": 1.5},
        {"A": [[1.5]], "B": [[0.5, 0.1], [0.0, 0.3]], "method": "ct"},
    ])
    def test_sep_constants(self, capsys, model_config, doc):
        # the results are compared with the old walk by the autouse fixture
        assert main(["sep", "--config", model_config(doc, "sep.json")]) == 0


class TestErrorsAndReproducibility:
    def test_malformed_json_is_config_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["spectrum", "--config", str(bad)]) == 3
        assert "line 1" in capsys.readouterr().err

    def test_missing_field_is_config_error(self, capsys, model_config):
        cfg = model_config({"alpha": 0.1}, "missing.json")
        assert main(["spectrum", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "graph" in err

    def test_unknown_subcommand_is_config_error(self, capsys):
        assert main(["frobnicate"]) == 3

    def test_missing_config_is_config_error(self, capsys):
        assert main(["spectrum"]) == 3

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--eps", "abc"],
        ["spectrum", "--eps", "nan"],
        ["spectrum", "--eps", "0.1,0.2"],
        ["effective", "--eps", "0.02,x"],
        ["continue", "--eps", "0.05", "--steps", "-1"],
        ["continue", "--eps", "0.05", "--steps", "0"],
        ["effective", "--steps", "0"],
        ["effective", "--order", "exact", "--steps", "-2"],
    ])
    def test_bad_eps_or_steps_is_config_error(self, capsys, model_config,
                                              argv):
        cfg = model_config(SINGLE)
        assert main([*argv, "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: --")
        assert captured.out == ""

    def test_one_parser_keeps_no_options_between_calls(self, capsys,
                                                       model_config):
        assert _build_parser() is _build_parser()
        cfg = model_config(SINGLE)
        code, rep = run_json(capsys, ["continue", "--eps", "0.05", "--steps",
                                      "2", "--config", cfg])
        assert code == 0 and rep["result"]["steps"] == 2
        code, rep = run_json(capsys, ["continue", "--config", cfg])
        assert code == 0
        assert rep["meta"]["options"] == {"eps": None, "order": None,
                                          "seed": DEFAULT_SEED, "steps": None}
        assert rep["result"]["steps"] == 8
        assert main(["continue", "--config", cfg, "--stpes", "2"]) == 3
        assert "--stpes" in capsys.readouterr().err

    def test_reports_identical_modulo_duration(self, capsys, model_config,
                                               tmp_path):
        cfg = model_config(PATH2)
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert main(["ergodicity", "--config", cfg, "--out",
                         str(path)]) == 0
            doc = json.loads(path.read_text())
            doc["meta"]["duration_s"] = None
            outs.append(json.dumps(doc, sort_keys=True))
        capsys.readouterr()
        assert outs[0] == outs[1]

    def test_report_embeds_metadata(self, capsys, model_config):
        code, rep = run_json(capsys, ["ergodicity", "--config",
                                      model_config(PATH2)])
        meta = rep["meta"]
        assert meta["config"]["alpha"] == 0.0
        assert meta["version"]
        assert "seed" in meta and "duration_s" in meta


class TestVerifyCommand:
    def test_verify_passes(self, capsys, tmp_path):
        out = tmp_path / "verify.json"
        code = main(["verify", "--out", str(out)])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "10/10 criteria passed" in stdout
        rep = json.loads(out.read_text())
        assert rep["result"]["all_passed"] is True


def test_console_script_entry_point(tmp_path):
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps(SINGLE))
    proc = subprocess.run(
        [sys.executable, "-m", "stochpert.cli", "spectrum", "--config",
         str(cfg), "--eps", "0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["command"] == "spectrum"
