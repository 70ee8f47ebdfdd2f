"""The package surface and the modules each entry point loads.

``pillowcase`` resolves its public names on first use, and each CLI command
imports the layers it runs, so a homology command never loads the sweep
(``solver``), search (``gluer``), render or ``su2`` layers, nor ``geometry``
and numpy.
"""

import dataclasses
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pillowcase

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SUBMODULES = ("cli", "families", "geometry", "gluer", "homology", "presentations",
              "render", "solver", "su2")

# what ``pillowcase/__init__.py`` exported when it imported every layer eagerly
EXPORTS = {
    "geometry": ["GluingMatrix", "LineForm", "PillowcasePoint", "PillowcasePolyline",
                 "canonicalize", "essential_class", "induced_boundary_transform",
                 "pillowcase_distance", "polyline", "polyline_intersections",
                 "sigma", "sigma_p", "tau", "P_POINT", "Q_POINT"],
    "presentations": ["GroupPresentation", "KnotExteriorModel"],
    "su2": ["Representation", "UnitQuaternion", "boundary_angles",
            "evaluate_word", "irreducibility_gap", "relator_residual"],
    "homology": ["AbelianGroup", "abelianization", "classify_gluing",
                 "enumerate_standard_tuples", "filling_homology", "glue_homology",
                 "rational_longitude", "seifert_h1", "smith_normal_form",
                 "standard_form_reduce"],
    "families": ["builtin_model", "klein_bottle_model", "klein_filling_analysis",
                 "klein_rep", "torus_knot_model", "unknot_model"],
    "solver": ["PillowcaseImage", "SolverConfig", "extract_essential_curve",
               "find_surgery_representation", "lift_to_cut_open",
               "sample_pillowcase_image"],
    "gluer": ["SplicedManifold", "p_avoiding_certificate", "search_nonabelian_rep",
              "slope_line_certificates", "splice"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)
HEAVY = ("pillowcase.solver", "pillowcase.gluer", "pillowcase.render", "pillowcase.su2")
NUMERIC = ("numpy", "pillowcase.geometry")


def loaded_after(code):
    """The ``pillowcase.*`` modules and numpy that code loads in a fresh interpreter."""
    script = (f"import json, sys\n{code}\n"
              "print(json.dumps([m for m in sys.modules\n"
              "                  if m.startswith('pillowcase.') or m == 'numpy']))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", script], env=env, text=True,
                          capture_output=True, timeout=120, check=True)
    return set(json.loads(done.stdout.splitlines()[-1]))


def main_call(*argv):
    return ("import contextlib, io\nfrom pillowcase.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({list(argv)!r}) == 0\n")


class TestImportGraph:
    def test_bare_import_loads_no_submodule(self):
        assert loaded_after("import pillowcase") == set()

    @pytest.mark.parametrize("argv", [
        ("homology", "glue", "trefoil", "trefoil-neg", "--gluing", "fiber-swap", "--json"),
        ("homology", "tuples", "5", "--json"),
    ])
    def test_homology_commands_skip_sweep_search_render_and_su2(self, argv):
        loaded = loaded_after(main_call(*argv))
        assert "pillowcase.homology" in loaded
        assert loaded.isdisjoint(HEAVY), sorted(loaded & set(HEAVY))
        assert loaded.isdisjoint(NUMERIC), sorted(loaded & set(NUMERIC))

    def test_image_loads_solver_and_render_but_not_gluer(self):
        loaded = loaded_after(main_call("image", "unknot", "--resolution", "10", "--json"))
        assert {"pillowcase.solver", "pillowcase.render"} <= loaded
        assert "pillowcase.gluer" not in loaded


class TestPackageSurface:
    def test_each_name_is_the_defining_modules_object(self):
        wrong = [name for module, names in EXPORTS.items() for name in names
                 if getattr(pillowcase, name)
                 is not getattr(importlib.import_module(f"pillowcase.{module}"), name)]
        assert wrong == []

    @pytest.mark.parametrize("name", ["GluingMatrix", "_is_prime"])
    def test_geometry_rebinds_the_presentations_object(self, name):
        geometry = importlib.import_module("pillowcase.geometry")
        presentations = importlib.import_module("pillowcase.presentations")
        assert getattr(geometry, name) is getattr(presentations, name)

    def test_all_lists_the_exports(self):
        assert len(NAMES) == 50
        assert sorted(pillowcase.__all__) == NAMES

    def test_dir_lists_the_exports(self):
        assert set(NAMES) <= set(dir(pillowcase))

    def test_star_import_binds_every_export(self):
        namespace = {}
        exec("from pillowcase import *", namespace)
        assert set(NAMES) <= set(namespace)

    def test_submodule_resolves_after_bare_import(self):
        code = "import pillowcase\nassert pillowcase.solver.__name__ == 'pillowcase.solver'"
        assert "pillowcase.solver" in loaded_after(code)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            pillowcase.no_such_name
        assert not hasattr(pillowcase, "solve_at_meridian_angle")


class TestReadme:
    def test_dotted_references_resolve(self):
        # a backticked `module.name` or `Class.attr` in README.md names
        # something the code has; dataclass fields count as attributes, and
        # file names (`solver.py`) are skipped
        modules = {name: importlib.import_module(f"pillowcase.{name}") for name in SUBMODULES}
        classes = {obj.__name__: obj for module in modules.values()
                   for obj in vars(module).values()
                   if inspect.isclass(obj) and obj.__module__ == module.__name__}

        def has(owner, name):
            fields = dataclasses.fields(owner) if dataclasses.is_dataclass(owner) else ()
            return hasattr(owner, name) or name in {f.name for f in fields}

        text = (ROOT / "README.md").read_text()
        checked, missing = 0, []
        for head, name in sorted(set(re.findall(r"`([A-Za-z_]\w*)\.(\w+)`", text))):
            owner = modules.get(head) or classes.get(head)
            if owner is None or name == "py":
                continue
            checked += 1
            if not has(owner, name):
                missing.append(f"{head}.{name}")
        assert missing == []
        assert checked
