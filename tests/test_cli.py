import argparse
import hashlib
import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from pillowcase import cli
from pillowcase.cli import (EXIT_BAD_INPUT, EXIT_CONTRACT, EXIT_NOT_FOUND,
                            EXIT_OK, load_model, main, parse_gluing)
from pillowcase.families import builtin_model, torus_knot_model
from pillowcase.geometry import PillowcasePoint, PillowcasePolyline, canonicalize
from pillowcase.gluer import search_nonabelian_rep, splice
from pillowcase.presentations import GluingMatrix
from pillowcase.render import (_fold_curve_paths, _xy, image_to_csv, image_to_svg,
                               mark_points, polylines_to_svg)
from pillowcase.solver import SolverConfig, sample_pillowcase_image

from images import image


# the trefoil group <x, y | xyx = yxy> with two meridians as meridian and
# longitude: one free H1 coordinate, and peripheral words that do not commute
_NON_COMMUTING = {"generators": 2, "relators": [[1, 2, 1, -2, -1, -2]],
                  "meridian": [1], "longitude": [2]}
# the free group on two generators: two free H1 coordinates, and free
# generators as meridian and longitude, which do not commute either
_FREE = {"generators": 2, "relators": [], "meridian": [1], "longitude": [2]}
# H1 = Z/2 has no free coordinate, and the longitude is not nullhomologous
_NO_FREE_H1 = {"generators": 1, "relators": [[1, 1]], "meridian": [], "longitude": [1]}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHomologyCommands:
    def test_glue_fiber_swap(self, capsys):
        code, out, _ = run(capsys, "homology", "glue", "trefoil", "trefoil-neg",
                           "--gluing", "fiber-swap")
        assert code == EXIT_OK
        assert "Z/37" in out

    def test_glue_json_deterministic(self, capsys):
        args = ("homology", "glue", "trefoil", "trefoil", "--gluing", "swap",
                "--json")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        assert json.loads(out1)["invariant_factors"] == []

    def test_fill(self, capsys):
        code, out, _ = run(capsys, "homology", "fill", "klein", "3", "1",
                           "--json")
        assert code == EXIT_OK
        assert json.loads(out)["invariant_factors"] == [12]

    def test_seifert(self, capsys):
        code, out, _ = run(capsys, "homology", "seifert", "--",
                           "2", "1", "3", "1", "5", "-4")
        assert code == EXIT_OK
        assert "order formula 1" in out

    def test_standard_form(self, capsys):
        code, out, _ = run(capsys, "homology", "standard-form", "7", "24",
                           "17", "5", "--json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert (data["a"], data["b"], data["c"]) == (2, 1, 2)

    def test_tuples(self, capsys):
        code, out, _ = run(capsys, "homology", "tuples", "7", "--json")
        assert code == EXIT_OK
        assert len(json.loads(out)["tuples"]) == 3

    def test_determinant_violation_exit_3(self, capsys):
        code, _, err = run(capsys, "homology", "glue", "trefoil", "trefoil",
                           "--gluing", "1,0,0,1")
        assert code == EXIT_CONTRACT
        assert "determinant" in err

    def test_unknown_model_exit_2(self, capsys):
        code, _, err = run(capsys, "homology", "fill", "granny", "1", "1")
        assert code == EXIT_BAD_INPUT

    def test_nonprimitive_slope_exit_2(self, capsys):
        code, _, _ = run(capsys, "homology", "fill", "trefoil", "2", "4")
        assert code == EXIT_BAD_INPUT


# (argv, exit code, stdout, stderr) of each homology subcommand, in text and
# --json, and of the gluing and standard-form refusals, byte for byte
_HOMOLOGY_GOLDEN = [
    ("glue trefoil trefoil-neg --gluing fiber-swap", EXIT_OK, "H1 = Z/37  (37)\n", ""),
    ("glue trefoil trefoil-neg --gluing fiber-swap --json", EXIT_OK,
     '{"group": "Z/37", "invariant_factors": [37], "rank": 0}\n', ""),
    ("fill klein 3 1", EXIT_OK, "H1 = Z/12  (12)\n", ""),
    ("fill klein 3 1 --json", EXIT_OK,
     '{"group": "Z/12", "invariant_factors": [12], "rank": 0}\n', ""),
    ("seifert -- 2 1 3 1 5 -4", EXIT_OK, "H1 = 0  order formula 1\n", ""),
    ("seifert --json -- 2 1 3 1 5 -4", EXIT_OK,
     '{"invariant_factors": [], "order": 1, "rank": 0}\n', ""),
    ("standard-form 7 24 17 5", EXIT_OK,
     "(a, b, c) = (2, 1, 2)  moves [(2, 3), (1, 1)]\n", ""),
    ("standard-form 7 24 17 5 --json", EXIT_OK,
     '{"a": 2, "b": 1, "c": 2, "orientation_reversed": false, "p": 5, '
     '"twist_moves": [[2, 3], [1, 1]]}\n', ""),
    ("standard-form 4 3 5 7 --allow-reversal", EXIT_OK,
     "(a, b, c) = (3, 1, 2)  moves [(2, 1), (1, -1)]  orientation reversed\n", ""),
    ("standard-form 4 3 5 7 --allow-reversal --json", EXIT_OK,
     '{"a": 3, "b": 1, "c": 2, "orientation_reversed": true, "p": 7, '
     '"twist_moves": [[2, 1], [1, -1]]}\n', ""),
    ("tuples 7", EXIT_OK,
     "(a, b, c) = (-1, 0, 1)\n(a, b, c) = (3, 1, 2)\n(a, b, c) = (2, 1, 3)\n", ""),
    ("tuples 7 --json", EXIT_OK,
     '{"p": 7, "tuples": [[-1, 0, 1], [3, 1, 2], [2, 1, 3]]}\n', ""),
    ("glue trefoil trefoil --gluing 1,0,0,1", EXIT_CONTRACT, "",
     "contract violation: gluing determinant must be -1, got 1\n"),
    ("glue trefoil trefoil --gluing 1,2", EXIT_BAD_INPUT, "",
     "error: cannot parse gluing '1,2'\n"),
    ("glue trefoil trefoil --gluing skew:x", EXIT_BAD_INPUT, "",
     "error: bad skew gluing 'skew:x'\n"),
    ("glue klein trefoil --gluing fiber-swap", EXIT_BAD_INPUT, "",
     "error: fiber-swap needs models with fiber slopes\n"),
    ("fill trefoil 2 4", EXIT_BAD_INPUT, "", "error: slope (2, 4) is not primitive\n"),
    ("seifert 2 1 0 1 5 1", EXIT_BAD_INPUT, "",
     "error: fiber multiplicities must be >= 2\n"),
    ("standard-form 1 0 1 4", EXIT_CONTRACT, "",
     "contract violation: p must be prime, got 4\n"),
    ("standard-form 1 0 1 5", EXIT_CONTRACT, "",
     "contract violation: determinant a*c - b*p must be -1, got 1\n"),
    ("tuples 9", EXIT_CONTRACT, "", "contract violation: p must be an odd prime, got 9\n"),
]


@pytest.mark.parametrize("argv, code, out, err", _HOMOLOGY_GOLDEN,
                         ids=[case[0] for case in _HOMOLOGY_GOLDEN])
def test_homology_output_is_pinned(capsys, argv, code, out, err):
    assert run(capsys, "homology", *argv.split()) == (code, out, err)


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        progs.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    try:
        assert run(capsys, "homology", "tuples", "7")[0] == EXIT_OK
        assert run(capsys, "homology", "fill", "klein", "3", "1")[0] == EXIT_OK
    finally:
        cli.build_parser.cache_clear()
    # the top parser once, and each subcommand's parser once
    assert progs.count("pillowcase") == 1
    assert len(progs) == len(set(progs))


class TestImageCommand:
    def test_unknot_image(self, capsys, tmp_path):
        svg = tmp_path / "img.svg"
        csv = tmp_path / "img.csv"
        code, out, _ = run(capsys, "image", "unknot", "--resolution", "30",
                           "--out-svg", str(svg), "--out-csv", str(csv))
        assert code == EXIT_OK
        assert "essential curve: none" in out
        assert svg.read_text().startswith("<svg")
        assert csv.read_text().startswith("kind,index,alpha,beta")

    def test_trefoil_image_layout(self, capsys, tmp_path):
        svg_path = tmp_path / "trefoil.svg"
        code, out, _ = run(capsys, "image", "trefoil", "--resolution", "100",
                           "--out-svg", str(svg_path), "--json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert abs(data["essential_curve"]) == 1
        assert data["lifts_to_cut_open"] is True
        svg = svg_path.read_text()
        # reducible line plus the two slanted runs of the folded branch
        assert svg.count("<polyline") >= 3

    def test_zero_generator_model_image(self, capsys, tmp_path):
        path = tmp_path / "point.json"
        path.write_text(json.dumps({"generators": 0, "relators": [],
                                    "meridian": [], "longitude": []}))
        code, out, _ = run(capsys, "image", str(path), "--json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert (data["points"], data["arcs"]) == (1, 1)

    def test_non_commuting_peripherals_exit_2(self, capsys, tmp_path):
        path = tmp_path / "free.json"
        path.write_text(json.dumps(_NON_COMMUTING))
        code, out, err = run(capsys, "image", str(path), "--resolution", "10")
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err.startswith("error: model 'model': peripheral holonomies do not commute")

    def test_no_free_h1_coordinate_exit_2(self, capsys, tmp_path):
        path = tmp_path / "torsion.json"
        path.write_text(json.dumps(_NO_FREE_H1))
        code, out, err = run(capsys, "image", str(path), "--resolution", "10")
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err == "error: model 'model': model does not have a single free H1 coordinate\n"

    def test_h1_fault_is_reported_before_any_node_is_solved(self, capsys, tmp_path,
                                                             monkeypatch):
        # the free model fails both checks; the H1 one depends on the model
        # alone, so it comes first and no sweep runs
        from pillowcase import solver

        def refuse(*_):
            raise AssertionError("a node was solved")
        monkeypatch.setattr(solver, "_solve_nodes", refuse)
        path = tmp_path / "free.json"
        path.write_text(json.dumps(_FREE))
        code, out, err = run(capsys, "image", str(path), "--resolution", "10")
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err == "error: model 'model': model does not have a single free H1 coordinate\n"

    def test_image_json_sweep_counts(self, capsys):
        code, out, _ = run(capsys, "image", "trefoil", "--resolution", "100", "--json")
        assert code == EXIT_OK
        sweep = json.loads(out)["sweep"]
        img = image(torus_knot_model(2, 3), 100)
        assert sweep == asdict(img.sweep)
        assert (sweep["discovery_nodes"], sweep["discovery_rows"]) == (26, 520)
        assert sweep["tracked_witnesses"] > 0
        code, out, _ = run(capsys, "image", "trefoil", "--resolution", "100")
        assert f"{sweep['tracked_witnesses']} tracked witnesses" in out

    def test_image_json_deterministic(self, capsys):
        args = ("image", "trefoil", "--resolution", "25", "--json")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        assert json.loads(out1)["resolution"] == 25

    def test_invalid_model_json_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"generators": 2}')
        code, _, err = run(capsys, "image", str(bad))
        assert code == EXIT_BAD_INPUT
        # mistyped values are refused, not truncated or coerced, by every
        # command that loads a model
        model = {"generators": 2, "relators": [[1, 1, -2, -2, -2]],
                 "meridian": [1], "longitude": [2], "fiber_slope": [6, 1]}
        for change in ({"generators": 2.9}, {"generators": "2"},
                       {"relators": [[1, 1, -2.7, -2, -2]]}, {"meridian": [True]},
                       {"longitude": ["-2"]}, {"fiber": [1.0]}, {"fiber": [3]},
                       {"fiber_slope": ["6", 1]}, {"fiber_slope": [6, 1, 1]}):
            bad.write_text(json.dumps({**model, **change}))
            for argv in (("homology", "fill", str(bad), "1", "0", "--json"),
                         ("homology", "glue", str(bad), "trefoil", "--gluing", "fiber-swap")):
                code, out, err = run(capsys, *argv)
                assert (code, out) == (EXIT_BAD_INPUT, ""), (change, argv)
                assert "invalid model JSON" in err
        bad.write_text(json.dumps(model))
        code, out, _ = run(capsys, "homology", "fill", str(bad), "1", "0", "--json")
        assert code == EXIT_OK and json.loads(out)["group"] == "Z/3"

    @pytest.mark.parametrize("text", ['{"threads": 2}', '{"tol": 1e-9,',
                                      '{"restarts": "5"}', '{"restarts": true}',
                                      '{"tol": "1e-9"}', '[]', '["tol"]',
                                      '{"tol": 1' + '0' * 400 + '}'],
                             ids=["unknown-key", "invalid-json", "str-for-int",
                                  "bool-for-int", "str-for-float", "array-empty", "array",
                                  "int-beyond-float"])
    def test_malformed_config_exit_2(self, capsys, tmp_path, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, _, err = run(capsys, "image", "unknot", "--config", str(cfg))
        assert code == EXIT_BAD_INPUT
        assert "invalid solver config" in err

    @pytest.mark.parametrize("name, value", [
        ("restarts", "-1"), ("restarts", "0"), ("seed", "-1"), ("resolution", "1"),
        ("tol", "0"), ("tol", "-1e-9"), ("tol", "nan"), ("tol", "inf"),
        ("restarts", "1" + "0" * 400), ("resolution", "1" + "0" * 400)],
        ids=["restarts-negative", "restarts-zero", "seed-negative", "resolution-1",
             "tol-zero", "tol-negative", "tol-nan", "tol-inf", "restarts-huge",
             "resolution-huge"])
    def test_out_of_range_flag_exit_2(self, capsys, name, value):
        code, out, err = run(capsys, "image", "unknot", f"--{name}={value}")
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert f"solver config {name!r} must be" in err

    @pytest.mark.parametrize("text", [
        '{"tol": -1.0}', '{"min_gap": -0.5}', '{"resolution": 0}',
        '{"tol": 1e999}', '{"min_gap": 1e999}', '{"resolution": 1' + '0' * 400 + '}',
        '{"restarts": 1' + '0' * 400 + '}'],
        ids=["tol", "min_gap", "resolution", "tol-inf", "min_gap-inf", "resolution-huge",
             "restarts-huge"])
    def test_out_of_range_config_exit_2(self, capsys, tmp_path, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, _, err = run(capsys, "image", "unknot", "--config", str(cfg))
        assert code == EXIT_BAD_INPUT
        assert "invalid solver config" in err and "must be" in err

    @pytest.mark.parametrize("key, value", [
        ("dedup_tol", 1e-6), ("irreducible_gap", 1e-4), ("max_iter", 60),
        ("polish_steps", 5), ("chain_factor", 8.0)],
        ids=["dedup_tol", "irreducible_gap", "max_iter", "polish_steps", "chain_factor"])
    def test_retired_config_key_exit_2(self, capsys, tmp_path, key, value):
        # a retired key is refused even at the value it used to default to
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code, out, err = run(capsys, "image", "unknot", "--config", str(cfg))
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert "invalid solver config" in err
        assert f"unknown solver config keys: [{key!r}]" in err

    def test_live_config_keys_exit_0(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": 1e-8, "restarts": 5, "seed": 1,
                                   "resolution": 10, "min_gap": 0.1}))
        code, out, _ = run(capsys, "image", "unknot", "--config", str(cfg), "--json")
        assert code == EXIT_OK
        assert json.loads(out)["resolution"] == 10

    def test_config_fields(self):
        assert list(SolverConfig.__dataclass_fields__) == [
            "tol", "restarts", "seed", "resolution", "min_gap"]

    def test_config_range_bounds(self):
        # every bound itself is accepted where it is inclusive
        SolverConfig(tol=1e-300, restarts=1, seed=0, resolution=2, min_gap=0.0)
        for field, value in [("tol", 0.0), ("restarts", 0), ("seed", -1),
                             ("resolution", 1), ("min_gap", -1e-300)]:
            with pytest.raises(ValueError, match=f"'{field}' must be"):
                SolverConfig(**{field: value})
        # the counts fit in an int32
        SolverConfig(restarts=2**31 - 1, resolution=2**31 - 1)
        for field in ("restarts", "resolution"):
            with pytest.raises(ValueError, match=f"'{field}' must be <= 2147483647, got"):
                SolverConfig(**{field: 2**31})
        # the float fields are finite too; a huge int is finite
        SolverConfig(tol=1e308, min_gap=10 ** 400)
        for field in ("tol", "min_gap"):
            with pytest.raises(ValueError, match=f"'{field}' must be finite and"):
                SolverConfig(**{field: math.inf})

    @pytest.mark.parametrize("flag, directory", [("--out-svg", False), ("--out-csv", True)])
    def test_unwritable_output_exit_2(self, capsys, tmp_path, flag, directory):
        # a missing directory, or a path that is a directory
        path = tmp_path if directory else tmp_path / "missing" / "out"
        code, out, err = run(capsys, "image", "unknot", "--resolution", "4",
                             flag, str(path))
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert err.startswith(f"error: cannot write {path}: ")

    def test_config_value_types(self):
        cfg = SolverConfig.from_dict({"tol": 1, "min_gap": 0.2, "restarts": 5})
        assert (cfg.tol, cfg.min_gap, cfg.restarts) == (1, 0.2, 5)
        with pytest.raises(ValueError, match="'seed' must be int"):
            SolverConfig.from_dict({"seed": 1.0})

    def test_model_json_loading(self, tmp_path):
        model = torus_knot_model(2, 3)
        path = tmp_path / "trefoil.json"
        path.write_text(model.to_json())
        assert load_model(str(path)) == model


class TestSpliceCommand:
    def test_swap_job_succeeds(self, capsys, tmp_path):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({
            "model1": "trefoil", "model2": "trefoil", "gluing": "swap",
            "resolution": 80, "seed": 1}))
        out_path = tmp_path / "out.json"
        code, out, _ = run(capsys, "splice", str(job), "--out", str(out_path))
        assert code == EXIT_OK
        data = json.loads(out_path.read_text())
        assert data["found"] is True
        assert data["gap"] > 0.1
        assert data["residual"] < 1e-8

    def test_splice_json_deterministic(self, capsys, tmp_path):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({
            "model1": "trefoil", "model2": "trefoil", "gluing": "swap",
            "resolution": 40, "seed": 1}))
        code1, out1, _ = run(capsys, "splice", str(job))
        code2, out2, _ = run(capsys, "splice", str(job))
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        assert json.loads(out1)["found"] is True

    def test_legacy_job_keys_ignored(self, capsys, tmp_path):
        fields = {"model1": "unknot", "model2": "unknot", "resolution": 10}
        job = tmp_path / "job.json"
        job.write_text(json.dumps(fields))
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps({**fields, "threads": 4, "deterministic": True}))
        code, out, _ = run(capsys, "splice", str(job))
        legacy_code, legacy_out, _ = run(capsys, "splice", str(legacy))
        assert (legacy_code, legacy_out) == (code, out)
        assert code == EXIT_NOT_FOUND

    def test_job_sets_every_config_field(self, capsys, tmp_path, monkeypatch):
        from pillowcase import gluer
        configs = []

        def recording(spliced, config=None, image1=None, image2=None):
            configs.append(config)
            return search_nonabelian_rep(spliced, config, image1=image1, image2=image2)

        monkeypatch.setattr(gluer, "search_nonabelian_rep", recording)
        fields = {"tol": 1e-9, "restarts": 3, "seed": 5, "resolution": 7, "min_gap": 0.2}
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"model1": "unknot", "model2": "unknot", **fields}))
        code, out, _ = run(capsys, "splice", str(job))
        assert code == EXIT_NOT_FOUND
        assert configs == [SolverConfig(**fields)]
        assert (json.loads(out)["resolution"], json.loads(out)["seed"]) == (7, 5)

    def test_non_commuting_model_exit_2(self, capsys, tmp_path):
        model = tmp_path / "free.json"
        model.write_text(json.dumps(_NON_COMMUTING))
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"model1": str(model), "model2": "trefoil",
                                   "gluing": "swap", "resolution": 10}))
        code, out, err = run(capsys, "splice", str(job))
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err.startswith("error: model 'model': peripheral holonomies do not commute")

    def test_no_free_h1_model_exit_2(self, capsys, tmp_path):
        model = tmp_path / "torsion.json"
        model.write_text(json.dumps(_NO_FREE_H1))
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"model1": str(model), "model2": "trefoil",
                                   "gluing": "swap", "resolution": 10}))
        code, out, err = run(capsys, "splice", str(job))
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err == "error: model 'model': model does not have a single free H1 coordinate\n"

    def test_out_of_range_job_field_exit_2(self, capsys, tmp_path):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({
            "model1": "trefoil", "model2": "trefoil", "restarts": 0}))
        code, _, err = run(capsys, "splice", str(job))
        assert code == EXIT_BAD_INPUT
        assert "invalid job" in err and "'restarts' must be >= 1" in err

    def test_infinite_job_field_exit_2(self, capsys, tmp_path):
        # a min_gap that no gap can meet would make any search come up empty
        job = tmp_path / "job.json"
        job.write_text('{"model1": "trefoil", "model2": "trefoil", "min_gap": 1e999}')
        code, out, err = run(capsys, "splice", str(job))
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert "invalid job" in err and "'min_gap' must be finite and >= 0" in err

    @pytest.mark.parametrize("flag", ["--out", "--svg"])
    def test_unwritable_output_exit_2(self, capsys, tmp_path, flag):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"model1": "unknot", "model2": "unknot", "resolution": 10}))
        path = tmp_path / "missing" / "out"
        code, out, err = run(capsys, "splice", str(job), flag, str(path))
        assert code == EXIT_BAD_INPUT
        assert err.startswith(f"error: cannot write {path}: ")
        # --out is written before the result is printed, --svg after it
        assert (out == "") == (flag == "--out")

    def test_mistyped_job_field_exit_2(self, capsys, tmp_path):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({
            "model1": "trefoil", "model2": "trefoil", "resolution": "40"}))
        code, _, err = run(capsys, "splice", str(job))
        assert code == EXIT_BAD_INPUT
        assert "'resolution' must be int" in err
        job.write_text('{"model1": "unknot", "model2": "unknot", "resolution": 10, '
                       '"tol": 1' + '0' * 400 + '}')
        code, _, err = run(capsys, "splice", str(job))
        assert code == EXIT_BAD_INPUT
        assert err == "error: invalid job: solver config 'tol' is an int beyond float range\n"
        for field in ("resolution", "restarts"):
            job.write_text(f'{{"model1": "unknot", "model2": "unknot", "{field}": 1'
                           + '0' * 400 + '}')
            code, out, err = run(capsys, "splice", str(job))
            assert (code, out) == (EXIT_BAD_INPUT, "")
            assert err == (f"error: invalid job: solver config {field!r} must be "
                           f"<= 2147483647, got 1{'0' * 400}\n")

    def test_self_splice_sweeps_once(self, capsys, tmp_path, monkeypatch):
        from pillowcase import solver
        calls = []

        def counting_sweep(*args, **kwargs):
            calls.append(args[0].name)
            return sample_pillowcase_image(*args, **kwargs)

        monkeypatch.setattr(solver, "sample_pillowcase_image", counting_sweep)
        job = tmp_path / "job.json"
        job.write_text(json.dumps({
            "model1": "trefoil", "model2": "trefoil", "gluing": "swap",
            "resolution": 40, "seed": 1}))
        code, out, _ = run(capsys, "splice", str(job))
        assert code == EXIT_OK
        assert calls == ["torus(2,3)"]
        # the same answer as from two images swept apart
        cfg = SolverConfig(resolution=40, seed=1)
        model = load_model("trefoil")
        img1, img2 = (sample_pillowcase_image(model, config=cfg) for _ in range(2))
        assert img1 is not img2
        result = search_nonabelian_rep(splice(model, model, GluingMatrix.swap()), cfg,
                                       image1=img1, image2=img2)
        expected = {
            "model1": "torus(2,3)", "model2": "torus(2,3)",
            "gluing": {"a": 0, "b": 1, "p": 1, "c": 0}, "resolution": 40, "seed": 1,
            "found": True,
            "representation": [[q.w, q.x, q.y, q.z] for q in result.representation.images],
            "boundary_point": list(result.boundary_point.as_tuple()),
            "residual": result.residual, "gap": result.gap,
            "gap_side1": result.gap_side1, "gap_side2": result.gap_side2}
        assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"

    def test_svg_reuses_search_images(self, capsys, tmp_path, monkeypatch):
        from pillowcase import solver
        calls = []

        def counting_sweep(*args, **kwargs):
            calls.append(args[0].name)
            return sample_pillowcase_image(*args, **kwargs)

        monkeypatch.setattr(solver, "sample_pillowcase_image", counting_sweep)
        job = tmp_path / "job.json"
        job.write_text(json.dumps({
            "model1": "trefoil", "model2": "trefoil-neg", "gluing": "skew:3",
            "resolution": 40, "seed": 1}))
        svg_path = tmp_path / "splice.svg"
        code, out, _ = run(capsys, "splice", str(job), "--svg", str(svg_path))
        assert code == EXIT_OK
        assert calls == ["torus(2,3)", "torus(-2,3)"]
        # the same drawing as from images swept apart from the search
        cfg = SolverConfig(resolution=40, seed=1)
        img1 = image(load_model("trefoil"), 40, cfg)
        img2 = image(load_model("trefoil-neg"), 40, cfg)
        g = parse_gluing("skew:3")
        svg = polylines_to_svg(
            list(img1.arcs) + list(img2.transform_arcs(g)),
            title="torus(2,3) glued to torus(-2,3)")
        svg = mark_points(svg, [PillowcasePoint(*json.loads(out)["boundary_point"])])
        assert svg_path.read_text() == svg

    def test_motegi_job_exit_1(self, capsys, tmp_path):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({
            "model1": "trefoil", "model2": "trefoil-neg",
            "gluing": {"a": -6, "b": 1, "p": 37, "c": -6},
            "resolution": 60, "seed": 0}))
        code, out, _ = run(capsys, "splice", str(job))
        assert code == EXIT_NOT_FOUND
        assert json.loads(out)["found"] is False
        # every intersection is a crossing of the two reducible lines, where
        # both sides are forced abelian
        assert json.loads(out)["diagnostics"]["candidates_tried"] == 0
        assert json.loads(out)["diagnostics"]["candidates"] == {
            "arc_arc": 0, "arc_line": 0, "line_line": 19, "both_abelian": 19, "no_witness": 0}
        assert run(capsys, "splice", str(job))[1] == out

    def test_malformed_gluing_exit_2(self, capsys, tmp_path):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({
            "model1": "trefoil", "model2": "trefoil",
            "gluing": {"a": 1, "b": 0, "p": 0, "c": 1}}))
        code, _, err = run(capsys, "splice", str(job))
        assert code == EXIT_BAD_INPUT

    @pytest.mark.parametrize("content", [
        [1, 2],
        {"model1": 5, "model2": "trefoil"},
        {"model1": "trefoil", "model2": 5},
        {"model1": "trefoil", "model2": "trefoil", "gluing": 7},
        {"model1": "trefoil", "model2": "DIR/"},
        "DIR",
        {"model1": "trefoil", "model2": "trefoil",
         "gluing": {"a": 0.5, "b": 1, "p": 1, "c": 0}},
        {"model1": "trefoil", "model2": "trefoil",
         "gluing": {"a": 0, "b": True, "p": 1, "c": 0}},
        {"model1": "trefoil", "model2": "trefoil",
         "gluing": {"a": 0, "b": "1", "p": 1, "c": 0}},
    ], ids=["not-an-object", "int-model1", "int-model2", "int-gluing",
            "model-path-is-directory", "job-path-is-directory",
            "float-gluing-entry", "bool-gluing-entry", "string-gluing-entry"])
    def test_malformed_job_exit_2(self, capsys, tmp_path, content):
        # a traceback would exit 1, the code of a search that found nothing
        folder = tmp_path / "folder"
        folder.mkdir()
        if content == "DIR":
            path = folder
        else:
            path = tmp_path / "job.json"
            text = json.dumps(content).replace("DIR/", str(folder) + "/")
            path.write_text(text)
        code, _, err = run(capsys, "splice", str(path))
        assert code == EXIT_BAD_INPUT
        assert err.startswith("error: ")

    def test_missing_job_exit_2(self, capsys):
        code, _, _ = run(capsys, "splice", "/nonexistent/job.json")
        assert code == EXIT_BAD_INPUT


class TestGluingParsing:
    def test_named(self):
        assert parse_gluing("swap").rows() == ((0, 1), (1, 0))
        assert parse_gluing("skew").rows() == ((-1, 0), (2, 1))
        assert parse_gluing("skew:5").rows() == ((-1, 0), (5, 1))
        assert parse_gluing("-6,1,37,-6").rows() == ((-6, 1), (37, -6))

    def test_fiber_swap_requires_slopes(self):
        from pillowcase.cli import InputError
        from pillowcase.families import klein_bottle_model
        with pytest.raises(InputError):
            parse_gluing("fiber-swap", klein_bottle_model(),
                         torus_knot_model(2, 3))


def _fold_reference(curve):
    """The scalar SVG fold: 9 samples per lifted segment, a break at a step over 40."""
    runs, current, prev = [], [], None
    for (x1, y1), (x2, y2) in curve.lifted_segments():
        for i in range(9):
            t = i / 8
            pt = canonicalize(x1 + t * (x2 - x1), y1 + t * (y2 - y1))
            xy = _xy(pt.alpha, pt.beta)
            if prev is not None and math.hypot(xy[0] - prev[0], xy[1] - prev[1]) > 40:
                if len(current) > 1:
                    runs.append(current)
                current = []
            current.append(xy)
            prev = xy
    if len(current) > 1:
        runs.append(current)
    return runs


class TestRender:
    def test_svg_and_csv(self):
        img = image(torus_knot_model(2, 3), 25)
        svg = image_to_svg(img)
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "polyline" in svg
        csv = image_to_csv(img)
        header, *rows = csv.strip().splitlines()
        assert header == "kind,index,alpha,beta,gap"
        kinds = {row.split(",")[0] for row in rows}
        assert kinds == {"arc", "point"}

    def test_fold_is_pinned(self):
        # the reprs of the runs _fold_curve_paths has always drawn, on images,
        # their gluing images and hand-built lines across the domain's edges
        curves = []
        for name in ("trefoil", "trefoil-neg", "klein"):
            for resolution in (60, 200):
                for seed in (0, 1):
                    img = image(builtin_model(name), resolution, SolverConfig(seed=seed))
                    curves += img.arcs
                    curves += img.transform_arcs(GluingMatrix.swap())
                    curves += img.transform_arcs(GluingMatrix.skew(3))
        curves += [
            # across alpha = 0, alpha = pi and beta = 0 = 2pi
            PillowcasePolyline.from_lifts([(0.4, 1.0), (-0.3, 1.2), (-0.5, 2.0)]),
            PillowcasePolyline.from_lifts([(2.9, 4.0), (3.5, 4.1), (3.3, 5.0)]),
            PillowcasePolyline.from_lifts([(1.0, 6.0), (1.2, 6.6), (1.5, -0.4)]),
            # a zero-length segment
            PillowcasePolyline.from_lifts([(1.0, 1.0), (1.0, 1.0), (2.0, 3.0)]),
            # closed, through a corner
            PillowcasePolyline.from_lifts([(0.0, 0.0), (0.6, 3.0), (-0.6, 5.0), (0.0, 0.0)],
                                          closed=True),
            PillowcasePolyline((canonicalize(0.2, 6.1), canonicalize(3.0, 0.3),
                                canonicalize(1.0, 3.0)), closed=True),
        ]
        digest = hashlib.sha256("\n".join(repr(_fold_curve_paths(c)) for c in curves).encode())
        assert digest.hexdigest() == \
            "616043485b068fa096b9622853bcdf73c3abc71736a7251958735dd35d656aa1"

    def test_fold_steps_near_40_pixels_follow_math_hypot(self):
        # 2000 segments of eight 40-pixel steps in random directions: steps
        # that np.hypot would put on the other side of 40 fold as the scalar
        # loop folds them
        theta = np.random.default_rng(5).uniform(0.0, 2 * math.pi, 2000)
        steps = np.column_stack([math.pi * np.cos(theta), -math.pi * np.sin(theta)])
        curve = PillowcasePolyline.from_lifts(np.cumsum(np.vstack([[1.5, 3.0], steps]), axis=0))
        assert _fold_curve_paths(curve) == _fold_reference(curve)
