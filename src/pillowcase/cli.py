"""Command-line interface: image sweeps, homology queries, splice search.

Exit codes: 0 success; 1 a splice search that ran but found nothing;
2 malformed input (bad model/job/arguments, or an output file that cannot
be written); 3 contract violations such as a gluing determinant different
from -1.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import TYPE_CHECKING

from .families import builtin_model, MODEL_NAMES
from .homology import (ModelInvalidError, enumerate_standard_tuples, filling_homology,
                       glue_homology, seifert_h1, standard_form_reduce)
from .presentations import GluingMatrix, KnotExteriorModel

# geometry, solver, gluer, render and su2 are imported by the commands that
# run them, so a homology command loads none of the geometry, sweep, search
# and render layers, nor numpy.
if TYPE_CHECKING:
    from .solver import SolverConfig

EXIT_OK = 0
EXIT_NOT_FOUND = 1
EXIT_BAD_INPUT = 2
EXIT_CONTRACT = 3


class InputError(Exception):
    pass


class ContractError(Exception):
    pass


def load_model(ref: str) -> KnotExteriorModel:
    if ref.endswith(".json") or "/" in ref:
        path = Path(ref)
        if not path.exists():
            raise InputError(f"model file not found: {ref}")
        try:
            return KnotExteriorModel.from_json(path.read_text())
        except (OSError, ValueError) as exc:
            raise InputError(f"invalid model JSON {ref}: {exc}") from exc
    try:
        return builtin_model(ref)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def parse_gluing(spec, model1: KnotExteriorModel | None = None,
                 model2: KnotExteriorModel | None = None) -> GluingMatrix:
    """Parse swap | fiber-swap | skew | skew:p | a,b,p,c | mapping.

    swap and skew:p have determinant -1 for every p; the other entries are
    checked at one site, where another determinant is a contract violation.
    """
    if isinstance(spec, dict):
        # bool is an int subclass, so it is refused by name, as in SolverConfig.from_dict
        entries = {k: spec.get(k) for k in ("a", "b", "p", "c")}
        if any(isinstance(v, bool) or not isinstance(v, int) for v in entries.values()):
            raise InputError(f"gluing mapping needs integer a,b,p,c: {spec}")
    elif not isinstance(spec, str):
        raise InputError(f"gluing must be a string or a mapping: {spec!r}")
    elif spec == "swap":
        return GluingMatrix.swap()
    elif spec in ("skew", "sigma"):
        return GluingMatrix.skew(2)
    elif spec.startswith("skew:") or spec.startswith("sigma:"):
        try:
            p = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise InputError(f"bad skew gluing {spec!r}") from exc
        return GluingMatrix.skew(p)
    elif spec == "fiber-swap":
        if model1 is None or model2 is None:
            raise InputError("fiber-swap needs both models")
        if model1.fiber_slope is None or model2.fiber_slope is None:
            raise InputError("fiber-swap needs models with fiber slopes")
        f1, e1 = model1.fiber_slope
        f2, e2 = model2.fiber_slope
        if abs(e1) != 1:
            raise InputError("side-1 fiber slope is not dual to the meridian")
        # mu1 = fiber2 and fiber1 = mu2
        entries = {"a": f2, "b": e2, "p": (1 - f1 * f2) * e1, "c": -f1 * e2 * e1}
    else:
        try:
            a, b, p, c = (int(v) for v in spec.split(","))
        except ValueError as exc:
            raise InputError(f"cannot parse gluing {spec!r}") from exc
        entries = {"a": a, "b": b, "p": p, "c": c}
    try:
        return GluingMatrix(**entries)
    except ValueError as exc:
        raise ContractError(str(exc)) from exc


def _config_from_args(args, job: dict | None = None) -> SolverConfig:
    """Solver config: the --config file, then job fields, then CLI flags.

    Job fields and flags named after a SolverConfig field set it; any other
    job key is ignored.
    """
    from .solver import SolverConfig
    path = getattr(args, "config", None)
    try:
        config = SolverConfig.from_json(path) if path else SolverConfig()
    except (OSError, TypeError, ValueError) as exc:
        raise InputError(f"invalid solver config {path}: {exc}") from exc
    names = SolverConfig.__dataclass_fields__
    if job:
        fields = {k: job[k] for k in names if k in job}
        try:
            config = SolverConfig.from_dict({**asdict(config), **fields})
        except ValueError as exc:
            raise InputError(f"invalid job: {exc}") from exc
    flags = {k: getattr(args, k) for k in names if getattr(args, k, None) is not None}
    try:
        return replace(config, **flags)
    except ValueError as exc:
        raise InputError(f"invalid option: {exc}") from exc


def _write(path: str, text: str) -> None:
    """Write an output file; one that cannot be written is bad input."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(data: dict, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(data, sort_keys=True))
    else:
        print(text)


# ---------------------------------------------------------------------------
# image command

def _image(model: KnotExteriorModel, config: SolverConfig):
    """sample_pillowcase_image; a model it refuses is bad input.

    Refused are a model without exactly one free H1 coordinate and a model
    whose peripheral words do not commute.
    """
    from .solver import sample_pillowcase_image
    from .su2 import NonCommutingPeripheralsError
    try:
        return sample_pillowcase_image(model, config.resolution, config)
    except (ModelInvalidError, NonCommutingPeripheralsError) as exc:
        raise InputError(f"model {model.name!r}: {exc}") from exc


def cmd_image(args) -> int:
    from .geometry import essential_class
    from .render import image_to_csv, image_to_svg
    from .solver import corner_diagnostics, extract_essential_curve, lift_to_cut_open
    model = load_model(args.model)
    config = _config_from_args(args)
    img = _image(model, config)
    curve = extract_essential_curve(img)
    lift = lift_to_cut_open(img)
    corners = corner_diagnostics(img)
    summary = {
        "model": model.name,
        "resolution": img.resolution,
        "arcs": len(img.arcs),
        "points": len(img.points),
        "isolated_points": len(img.isolated),
        "essential_curve": essential_class(curve) if curve is not None else None,
        "lifts_to_cut_open": lift.ok,
        "corner_witnesses": [rec.point.as_tuple() for rec in corners],
        "seed": config.seed,
        "sweep": asdict(img.sweep),
    }
    if args.out_svg:
        _write(args.out_svg, image_to_svg(img))
        summary["svg"] = args.out_svg
    if args.out_csv:
        _write(args.out_csv, image_to_csv(img))
        summary["csv"] = args.out_csv
    lines = [
        f"model {model.name}: {len(img.arcs)} arcs, {len(img.points)} witness points "
        f"({len(img.isolated)} isolated) at resolution {img.resolution}",
        "essential curve: " + (
            f"found, class {summary['essential_curve']}" if curve is not None
            else "none"),
        "cut-open lift: " + ("ok" if lift.ok else
                             f"fails at {len(lift.violations)} witnesses and "
                             f"{len(lift.arc_points)} arc vertices"),
        "corner diagnostics: " + (
            ", ".join(str(rec.point) for rec in corners) if corners else "clear"),
        f"sweep: {img.sweep.discovery_nodes} discovery nodes, "
        f"{img.sweep.tracks_started} tracks, "
        f"{img.sweep.tracked_witnesses} tracked witnesses",
    ]
    _emit(summary, args.json, "\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# homology commands

def _emit_group(group, as_json: bool) -> int:
    _emit({"invariant_factors": list(group.torsion), "rank": group.rank,
           "group": str(group)},
          as_json, f"H1 = {group}  ({group.pretty_factors()})")
    return EXIT_OK


def cmd_glue(args) -> int:
    m1 = load_model(args.model1)
    m2 = load_model(args.model2)
    return _emit_group(glue_homology(m1, m2, parse_gluing(args.gluing, m1, m2)), args.json)


def cmd_fill(args) -> int:
    model = load_model(args.model)
    if math.gcd(args.p, args.q) != 1:
        raise InputError(f"slope ({args.p}, {args.q}) is not primitive")
    return _emit_group(filling_homology(model, (args.p, args.q)), args.json)


def cmd_seifert(args) -> int:
    vals = args.values
    data = [(vals[0], vals[1]), (vals[2], vals[3]), (vals[4], vals[5])]
    try:
        res = seifert_h1(data)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit({"invariant_factors": list(res.group.torsion),
           "rank": res.group.rank, "order": res.order_formula},
          args.json,
          f"H1 = {res.group}  order formula {res.order_formula}"
          + ("  (b1 > 0)" if res.positive_rank else ""))
    return EXIT_OK


def cmd_standard_form(args) -> int:
    # standard_form_reduce refuses only a non-prime p and a determinant other than -1
    try:
        res = standard_form_reduce(args.a, args.b, args.c, args.p,
                                   allow_reversal=args.allow_reversal)
    except ValueError as exc:
        raise ContractError(str(exc)) from exc
    _emit({"a": res.a, "b": res.b, "c": res.c, "p": res.p,
           "twist_moves": [list(m) for m in res.twist_moves],
           "orientation_reversed": res.orientation_reversed},
          args.json,
          f"(a, b, c) = ({res.a}, {res.b}, {res.c})  moves "
          f"{list(res.twist_moves)}"
          + ("  orientation reversed" if res.orientation_reversed else ""))
    return EXIT_OK


def cmd_tuples(args) -> int:
    try:
        tuples = enumerate_standard_tuples(args.p)
    except ValueError as exc:
        raise ContractError(str(exc)) from exc
    _emit({"p": args.p, "tuples": [list(t) for t in tuples]},
          args.json,
          "\n".join(f"(a, b, c) = ({a}, {b}, {c})" for a, b, c in tuples))
    return EXIT_OK


# ---------------------------------------------------------------------------
# splice command

def cmd_splice(args) -> int:
    from .gluer import search_nonabelian_rep, splice
    from .render import mark_points, polylines_to_svg
    path = Path(args.job)
    if not path.exists():
        raise InputError(f"job file not found: {args.job}")
    try:
        job = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise InputError(f"invalid job JSON: {exc}") from exc
    if not isinstance(job, dict):
        raise InputError("job JSON must be an object")
    for key in ("model1", "model2"):
        if key not in job:
            raise InputError(f"job is missing {key!r}")
        if not isinstance(job[key], str):
            raise InputError(f"job {key} must be a string: {job[key]!r}")
    m1 = load_model(job["model1"])
    m2 = load_model(job["model2"])
    try:
        g = parse_gluing(job.get("gluing", "swap"), m1, m2)
    except ContractError as exc:
        # a malformed gluing makes the whole job malformed
        raise InputError(str(exc)) from exc
    config = _config_from_args(args, job)
    spliced = splice(m1, m2, g)
    img1 = _image(m1, config)
    img2 = _image(m2, config)
    result = search_nonabelian_rep(spliced, config, image1=img1, image2=img2)
    payload = {
        "model1": m1.name,
        "model2": m2.name,
        "gluing": {"a": g.a, "b": g.b, "p": g.p, "c": g.c},
        "resolution": config.resolution,
        "seed": config.seed,
        "found": result.found,
    }
    if result.found:
        payload["representation"] = [
            [q.w, q.x, q.y, q.z] for q in result.representation.images]
        payload["boundary_point"] = list(result.boundary_point.as_tuple())
        payload["residual"] = result.residual
        payload["gap"] = result.gap
        payload["gap_side1"] = result.gap_side1
        payload["gap_side2"] = result.gap_side2
    else:
        payload["diagnostics"] = {
            "candidates": asdict(result.candidates),
            "candidates_tried": len(result.diagnostics),
            "details": [d for d in result.diagnostics],
        }
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.out:
        _write(args.out, text + "\n")
    print(text)
    if args.svg:
        curves = list(img1.arcs) + list(img2.transform_arcs(g))
        svg = polylines_to_svg(curves, title=f"{m1.name} glued to {m2.name}")
        if result.found:
            svg = mark_points(svg, [result.boundary_point])
        _write(args.svg, svg)
    return EXIT_OK if result.found else EXIT_NOT_FOUND


# ---------------------------------------------------------------------------
# parser

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; each leaf command's func runs it."""
    parser = argparse.ArgumentParser(
        prog="pillowcase",
        description="SU(2) pillowcase images, splice search, and homology calculus")
    sub = parser.add_subparsers(dest="command", required=True)

    p_img = sub.add_parser("image", help="sweep a model into the pillowcase")
    p_img.add_argument("model", help=f"model name ({', '.join(MODEL_NAMES)}, "
                                     "torus:p,q) or JSON path")
    p_img.add_argument("--resolution", type=int, default=None)
    p_img.add_argument("--restarts", type=int, default=None)
    p_img.add_argument("--tol", type=float, default=None)
    p_img.add_argument("--seed", type=int, default=None)
    p_img.add_argument("--config", default=None, help="solver config JSON file")
    p_img.add_argument("--out-svg", default=None)
    p_img.add_argument("--out-csv", default=None)
    p_img.add_argument("--json", action="store_true")
    p_img.set_defaults(func=cmd_image)

    p_hom = sub.add_parser("homology", help="exact integer homology queries")
    hom_sub = p_hom.add_subparsers(required=True)

    p_glue = hom_sub.add_parser("glue", help="H1 of a glued pair of exteriors")
    p_glue.add_argument("model1")
    p_glue.add_argument("model2")
    p_glue.add_argument("--gluing", required=True,
                        help="swap | fiber-swap | skew[:p] | a,b,p,c")
    p_glue.add_argument("--json", action="store_true")
    p_glue.set_defaults(func=cmd_glue)

    p_fill = hom_sub.add_parser("fill", help="H1 of a Dehn filling")
    p_fill.add_argument("model")
    p_fill.add_argument("p", type=int)
    p_fill.add_argument("q", type=int)
    p_fill.add_argument("--json", action="store_true")
    p_fill.set_defaults(func=cmd_fill)

    p_sfs = hom_sub.add_parser("seifert", help="H1 of a 3-fiber Seifert space")
    p_sfs.add_argument("values", type=int, nargs=6,
                       metavar=("N"), help="a1 b1 a2 b2 a3 b3")
    p_sfs.add_argument("--json", action="store_true")
    p_sfs.set_defaults(func=cmd_seifert)

    p_std = hom_sub.add_parser("standard-form", help="normalize a gluing tuple")
    p_std.add_argument("a", type=int)
    p_std.add_argument("b", type=int)
    p_std.add_argument("c", type=int)
    p_std.add_argument("p", type=int)
    p_std.add_argument("--allow-reversal", action="store_true")
    p_std.add_argument("--json", action="store_true")
    p_std.set_defaults(func=cmd_standard_form)

    p_tup = hom_sub.add_parser("tuples", help="standard tuples for a prime")
    p_tup.add_argument("p", type=int)
    p_tup.add_argument("--json", action="store_true")
    p_tup.set_defaults(func=cmd_tuples)

    p_spl = sub.add_parser("splice", help="search a splice for representations")
    p_spl.add_argument("job", help="job spec JSON file")
    p_spl.add_argument("--out", default=None, help="write result JSON here")
    p_spl.add_argument("--svg", default=None, help="write combined image SVG")
    p_spl.set_defaults(func=cmd_splice)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ContractError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
