"""The three benchmark workloads: set-up, one timed op, and its answer check.

Each workload is a closed loop with one client: the next op starts only
after the previous one returns.  ``op(i)`` is the timed call; ``check(i,
answer)`` runs outside the timed interval and raises ``AssertionError``
when the answer is wrong.  The checks reuse the oracles of the acceptance
criteria.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path

PI = math.pi


class ImageWorkload:
    """The north-star CLI job: ``pillowcase image trefoil`` at r=200.

    Most of an op is the sweep (``solve_at_meridian_angle``), so sweep-engine
    work shows here and intersection work should not.
    """

    block = 1  # ops that run together, so traced runs cover whole blocks
    setup_repeats = 5  # set-ups per run; setup_s is their median

    def __init__(self, seed: int, out_dir: Path):
        from pillowcase import cli
        self.cli = cli  # cli.main is looked up per op, so a tracer can wrap it
        svg, self._csv = out_dir / "image.svg", out_dir / "image.csv"
        self.argv = ["image", "trefoil", "--resolution", "200", "--json",
                     "--out-svg", str(svg), "--out-csv", str(self._csv),
                     "--seed", str(seed)]
        self._first_json = None

    def op(self, i):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(self.argv)
        return code, out.getvalue()

    def check(self, i, answer):
        from pillowcase.geometry import canonicalize, line_offset
        code, text = answer
        assert code == 0, f"exit code {code}"
        summary = json.loads(text)
        assert summary["essential_curve"] in (1, -1), summary["essential_curve"]
        assert summary["lifts_to_cut_open"] is True
        if self._first_json is None:
            self._first_json = text
        assert text == self._first_json, "--json output differs between ops"
        irreducible = on_branch = 0
        for row in self._csv.read_text().splitlines()[1:]:
            kind, _, alpha, beta, gap = row.split(",")
            if kind == "point" and float(gap) > 1e-4:
                irreducible += 1
                pt = canonicalize(float(alpha), float(beta))
                on_branch += line_offset(pt, 6, 1, PI) <= 1e-6
        assert irreducible and on_branch >= 0.95 * irreducible, \
            f"{on_branch}/{irreducible} witnesses on 6a+b=pi"


def swap_branch_oracle():
    """Residue-branch intersections of 6a+b=pi with its coordinate swap."""
    from pillowcase.geometry import canonicalize
    out = []
    for K in range(1, 7):
        for L in range(-2, 3):
            if (K - 1 + L) % 2 != 0:
                continue
            pt = canonicalize(PI * K / 7 + PI * L / 5, PI * K / 7 - PI * L / 5)
            swapped = canonicalize(pt.beta, pt.alpha)
            if PI / 6 < pt.alpha < 5 * PI / 6 and PI / 6 < swapped.alpha < 5 * PI / 6:
                out.append(pt)
    return out


class SearchWorkload:
    """Library reuse path: searches and certificates on images swept once.

    Set-up sweeps trefoil and trefoil-neg at r=200; one op is a pass over a
    fixed list of searches, curve extractions, surgeries and certificates.
    Intersections dominate a search, and its refine step uses the solver
    with one row, four generators and long amalgamated words.
    """

    block = 1
    setup_repeats = 1  # one set-up sweeps two images, tens of seconds

    def __init__(self, seed: int, out_dir: Path):
        from pillowcase import gluer, solver
        from pillowcase.families import torus_knot_model
        from pillowcase.geometry import GluingMatrix
        from pillowcase.gluer import splice
        from pillowcase.solver import SolverConfig, sample_pillowcase_image
        # the op looks functions up on their modules, so a tracer can wrap them
        self.gluer, self.solver = gluer, solver
        self.config = SolverConfig(resolution=200, seed=seed)
        models = {"tre": torus_knot_model(2, 3), "neg": torus_knot_model(-2, 3)}
        self.images = {k: sample_pillowcase_image(m, 200, self.config)
                       for k, m in models.items()}
        gluings = (
            ("swap", "tre", "tre", GluingMatrix.swap()),
            ("swap-neg", "neg", "neg", GluingMatrix.swap()),
            ("skew:2", "tre", "tre", GluingMatrix.skew(2)),
            ("skew:3", "tre", "neg", GluingMatrix.skew(3)),
            ("motegi", "tre", "neg", GluingMatrix(a=-6, b=1, p=37, c=-6)),
        )
        self.searches = [(name, splice(models[a], models[b], g), a, b)
                         for name, a, b, g in gluings]
        self.oracle = swap_branch_oracle()

    def op(self, i):
        gluer, solver = self.gluer, self.solver
        tre, neg = self.images["tre"], self.images["neg"]
        out = {"search": {}}
        for name, spliced, a, b in self.searches:
            out["search"][name] = gluer.search_nonabelian_rep(
                spliced, self.config, image1=self.images[a], image2=self.images[b])
        out["curves"] = (solver.extract_essential_curve(tre),
                         solver.extract_essential_curve(neg))
        out["surgery"] = (solver.find_surgery_representation(tre, 1, 1, self.config),
                          solver.find_surgery_representation(tre, 1, 0, self.config))
        out["certificates"] = [
            (gluer.slope_line_certificates(tre, p),
             gluer.p_avoiding_certificate(out["curves"][0], p, partner=out["curves"][1]))
            for p in (3, 5, 7)]
        return out

    def check(self, i, answer):
        from pillowcase.geometry import essential_class, pillowcase_distance
        from pillowcase.su2 import irreducibility_gap, relator_residual
        cfg = self.config
        for name, spliced, _, _ in self.searches:
            result = answer["search"][name]
            if result.found:
                rep = result.representation
                assert relator_residual(rep, spliced.amalgamated) < cfg.tol, name
                assert irreducibility_gap(spliced.restrict(rep, 1)) > cfg.min_gap, name
                assert irreducibility_gap(spliced.restrict(rep, 2)) > cfg.min_gap, name
        swap = answer["search"]["swap"]
        assert swap.found, "swap(tre, tre) not found"
        assert min(pillowcase_distance(swap.boundary_point, b)
                   for b in self.oracle) < 1e-3, "swap point off the branch oracle"
        assert not answer["search"]["motegi"].found, "Motegi splice found"
        for curve in answer["curves"]:
            assert curve is not None and abs(essential_class(curve)) == 1
        found, none = answer["surgery"]
        assert found is not None, "(1,1) surgery not found"
        alpha = found[1].alpha
        assert min(abs(alpha - PI / 5), abs(alpha - 3 * PI / 5)) < 1e-3, alpha
        assert none is None, "(1,0) surgery found"


def _random_snf(rng, n):
    return "smith_normal_form", [[rng.randint(-9, 9) for _ in range(n)]
                                 for _ in range(n)]


class HomologyWorkload:
    """Exact pure-Python homology queries from a seeded mix.

    Neither other workload reaches this layer, so it is the bypass case for
    solver and geometry changes.  The mix is a fixed block of queries, an
    equal number of each kind in an order and with arguments drawn from the
    seed, and is cycled.  Equal shares keep the op-time distribution the same
    across seeds; a traced run covers whole blocks, so its per-op counts
    repeat exactly.
    """

    KINDS = ("snf5", "snf8", "glue", "fiber_swap", "fill", "seifert", "standard")
    block = 150 * len(KINDS)
    setup_repeats = 5
    PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)

    def __init__(self, seed: int, out_dir: Path):
        from pillowcase import homology
        from pillowcase.cli import parse_gluing
        from pillowcase.families import builtin_model
        from pillowcase.geometry import GluingMatrix
        self.homology = homology  # looked up per op, so a tracer can wrap it
        self.models = {n: builtin_model(n) for n in ("trefoil", "trefoil-neg", "klein")}
        fiber_swap = parse_gluing("fiber-swap", self.models["trefoil"],
                                  self.models["trefoil-neg"])
        rng = random.Random(seed)
        kinds = list(self.KINDS) * (self.block // len(self.KINDS))
        rng.shuffle(kinds)
        self.queries = []
        for kind in kinds:
            if kind in ("snf5", "snf8"):
                query = _random_snf(rng, 5 if kind == "snf5" else 8)
            elif kind == "glue":
                p = rng.choice(self.PRIMES)
                a, b, c = rng.choice(homology.enumerate_standard_tuples(p))
                query = ("glue_homology", rng.choice(list(self.models)),
                         rng.choice(list(self.models)), GluingMatrix(a=a, b=b, p=p, c=c))
            elif kind == "fiber_swap":
                query = ("glue_homology", "trefoil", "trefoil-neg", fiber_swap)
            elif kind == "fill":
                while True:
                    slope = (rng.randint(-12, 12), rng.randint(0, 6))
                    if math.gcd(*slope) == 1:
                        break
                query = ("filling_homology", rng.choice(list(self.models)), slope)
            elif kind == "seifert":
                query = ("seifert_h1", [(rng.randint(2, 8), rng.randint(-9, 9))
                                        for _ in range(3)])
            else:
                query = ("standard_form_reduce",) + _random_gluing_tuple(rng)
            self.queries.append(query)

    def op(self, i):
        query = self.queries[i % self.block]
        kind, args = query[0], query[1:]
        h = self.homology
        if kind == "glue_homology":
            return h.glue_homology(self.models[args[0]], self.models[args[1]], args[2])
        if kind == "filling_homology":
            return h.filling_homology(self.models[args[0]], args[1])
        if kind == "standard_form_reduce":
            a, b, c, p = args
            return h.standard_form_reduce(a, b, c, p, allow_reversal=True)
        return getattr(h, kind)(*args)

    def check(self, i, answer):
        query = self.queries[i % self.block]
        kind, args = query[0], query[1:]
        if kind == "smith_normal_form":
            _check_snf(args[0], answer)
        elif kind == "glue_homology":
            m1, m2, g = args
            if "klein" not in (m1, m2):
                # knot exteriors in S^3 glued by (a, b, p, c): H1 = Z/|p|, so
                # the fiber-swap gluing of trefoil and trefoil-neg gives Z/37
                assert (answer.rank, answer.torsion) == (0, (abs(g.p),)), (query, answer)
        elif kind == "filling_homology":
            model, (p, q) = args
            if model != "klein":
                expected = (1, ()) if p == 0 else (0, (abs(p),) if abs(p) > 1 else ())
                assert (answer.rank, answer.torsion) == expected, (query, answer)
            elif q == 1:
                assert answer.order() == 4 * abs(p), (query, answer)
        elif kind == "seifert_h1":
            if answer.order_formula != 0:
                assert answer.group.order() == answer.order_formula, query
            else:
                assert answer.group.rank > 0, query
        else:
            a, b, c, p = args
            assert answer.a * answer.c - answer.b * p == -1
            assert 0 <= answer.b < answer.c <= p / 2, (query, answer)
            assert self.homology.replay_standard_form(answer) == (a, b, c), query


def _random_gluing_tuple(rng):
    """A gluing tuple (a, b, c, p) with a*c - b*p = -1, scrambled by twists."""
    from pillowcase.homology import enumerate_standard_tuples
    p = rng.choice((2, 3, 5, 7, 11, 13))
    a, b, c = (-1, 0, 1) if p == 2 else rng.choice(enumerate_standard_tuples(p))
    for _ in range(rng.randint(1, 5)):
        if rng.random() < 0.5:
            q = rng.randint(-9, 9)
            a, b, c = a, b + q * a, c + q * p
        else:
            n = rng.randint(-9, 9)
            a, b, c = a + n * p, b + n * c, c
    if rng.random() < 0.5:
        a, b, c = -a, b, -c
    return a, b, c, p


def _check_snf(M, answer):
    """D == U*M*V exactly, D diagonal with nonnegative divisibility chain."""
    D, U, V = answer
    n = len(M)

    def mul(A, B):
        return [[sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
                for i in range(len(A))]

    assert mul(mul(U, M), V) == D, "D != U M V"
    diag = [D[i][i] for i in range(n)]
    assert all(D[i][j] == 0 for i in range(n) for j in range(n) if i != j)
    assert all(d >= 0 for d in diag)
    for d, e in zip(diag, diag[1:]):
        assert (e == 0) if d == 0 else (e % d == 0), diag


WORKLOADS = {"image": ImageWorkload, "search": SearchWorkload,
             "homology": HomologyWorkload}
