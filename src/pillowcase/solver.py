"""Numerical engine: sweep representation varieties into the pillowcase.

The core solver is a batched Levenberg-Marquardt iteration on the product
of unit 3-spheres (one per generator): each generator steps in its tangent
space, followed by quaternion renormalization.  Residuals are quaternion
differences rho(word) - target for the relators and for the meridian
constraint rho(mu) = e^{i alpha}.
An image sweep solves a coarse set of discovery nodes cold, from random
restarts that explore the basins, and fills the grid nodes between them by
tracking: each solution steps node by node, one warm-started LM row per
step.  Cold and tracked rows pass one accept pass, which deduplicates
solutions by their conjugation invariants (generator and pair-product
traces plus the meridian angle).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .geometry import (DegenerateCurveError, LineForm, PillowcasePoint,
                       PillowcasePolyline, _canonical_array, _distance_rows,
                       _row_blocks, _step_distances,
                       canonicalize, detailed_intersections,
                       distance_components, essential_class, line_offset,
                       pillowcase_distance, pillowcase_distances, TWO_PI)
from .homology import ModelInvalidError, _boundary_coordinates
from .presentations import (GluingMatrix, GroupPresentation, KnotExteriorModel,
                            concat, pow_word)
from .su2 import (Representation, UnitQuaternion, boundary_angles, irreducibility_gap,
                  peripheral_point, relator_residual)

__all__ = [
    "SolverConfig", "PillowcaseImage", "ImagePoint", "SweepStats", "LiftResult",
    "sample_pillowcase_image", "lift_to_cut_open", "extract_essential_curve",
    "find_surgery_representation", "corner_diagnostics", "refine_representation",
]


#: a witness with irreducibility gap above this counts as irreducible
IRREDUCIBLE_GAP = 1e-4
#: an LM row takes at most _MAX_ITER + _POLISH_STEPS steps, and at most
#: _POLISH_STEPS of them after it has converged
_MAX_ITER = 60
_POLISH_STEPS = 5
#: two solutions of a node are one when every conjugation invariant is this close
_SIGNATURE_TOL = 1e-6
#: witnesses closer than this many grid steps are chained into one arc
_CHAIN_FACTOR = 8.0
#: discovery nodes of an image sweep lie at most pi / _DISCOVERY_PER_PI apart
_DISCOVERY_PER_PI = 24
#: corner_diagnostics reports irreducible witnesses closer than this to a corner
_CORNER_RADIUS = 0.05

_CONFIG_RANGES = (
    ("tol", ">", 0), ("restarts", ">=", 1), ("seed", ">=", 0),
    ("resolution", ">=", 2), ("min_gap", ">=", 0),
)


@dataclass(frozen=True)
class SolverConfig:
    """Tunable solver parameters; defaults suit the built-in models."""

    tol: float = 1e-8
    restarts: int = 20
    seed: int = 0
    resolution: int = 200
    min_gap: float = 0.1

    def __post_init__(self):
        for name, op, bound in _CONFIG_RANGES:
            value = getattr(self, name)
            # a NaN fails both comparisons, so it is out of range too
            in_range = value > bound if op == ">" else value >= bound
            if isinstance(self.__dataclass_fields__[name].default, float):
                # inf meets a lower bound, but no tolerance or gap can use it
                in_range = in_range and value < math.inf
                op = f"finite and {op}"
            if not in_range:
                raise ValueError(f"solver config {name!r} must be {op} {bound}, "
                                 f"got {value!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "SolverConfig":
        """Config from a JSON object; unknown keys or mistyped values raise ValueError.

        Int fields take ints only (not bools); float fields take ints or floats.
        """
        fields = cls.__dataclass_fields__
        extra = set(data) - set(fields)
        if extra:
            raise ValueError(f"unknown solver config keys: {sorted(extra)}")
        for key, value in data.items():
            kind = type(fields[key].default)
            allowed = (int, float) if kind is float else (kind,)
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ValueError(f"solver config {key!r} must be {kind.__name__}, "
                                 f"got {value!r}")
        return cls(**data)

    @classmethod
    def from_json(cls, path: str) -> "SolverConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# batched quaternion arithmetic
#
# Batches run component-major: a batch of quaternions is a (4, B) array of
# (w, x, y, z) component rows, and a batch of parameter stacks is an
# (n, 4, B) array.
#
# The scalar product a * g (UnitQuaternion.__mul__) sums, for each
# component i, four terms a[j] * (+-g[m]) left to right, subtracting the
# negative ones.  IEEE gives x - y == x + (-y) and a * (-b) == -(a * b)
# exactly, so adding a[j] * g8[_TERMS[j, i]], where g8 stacks g's
# components and their negatives, rounds to the same bits.  Row j of
# _TERMS_INV reads g^-1 = (w, -x, -y, -z) from the same g8.
#
# Normalization runs on the component rows too: _norm adds the squares as
# UnitQuaternion.from_components does, ((w*w + x*x) + y*y) + z*z, with one
# explicit add each.  np.linalg.norm over a length-4 axis adds the same
# squares in the same order from +0.0, and a square is never -0.0, so both
# round to these bits, but _norm needs no (B, 4) copy and no reduction.

_TERMS = np.array([[0, 1, 2, 3],
                   [5, 0, 7, 2],
                   [6, 3, 0, 5],
                   [7, 6, 1, 0]])
_TERMS_INV = np.where(_TERMS % 4 == 0, _TERMS, (_TERMS + 4) % 8)


class _Workspace(dict):
    """Flat scratch buffers of one _lm_minimize call, reused across its evaluations.

    take(key, shape) hands out the contiguous prefix of the key's buffer,
    which grows to the largest size asked of it, so the steps of a call do
    not fault in fresh arrays.  A prefix, not a strided view of a bigger
    array: numpy runs slower on those.  While a key's shape repeats, take
    hands back the view it made last time.
    """

    def __init__(self):
        super().__init__()
        self._views = {}

    def take(self, key, shape):
        view = self._views.get(key)
        if view is not None and view.shape == shape:
            return view
        size = math.prod(shape)
        buf = self.get(key)
        if buf is None or buf.size < size:
            buf = self[key] = self._allocate(size)
        view = self._views[key] = buf[:size].reshape(shape)
        return view

    @staticmethod
    def _allocate(size):
        return np.empty(size)


class _LetterTables(dict):
    """Right-multiplication table of each word letter on (n, 4, B) component rows.

    table[j, i] is the (B,) factor of term j of component i of a * letter;
    a table is built on first use.  terms is the scratch buffer of _qstep.
    The stack g8, the tables and terms come from the workspace (a fresh one
    by default).
    """

    def __init__(self, comps, workspace=None):
        super().__init__()
        n, _, self.rows = comps.shape
        self._workspace = _Workspace() if workspace is None else workspace
        self._g8 = self._workspace.take("g8", (n, 8, self.rows))
        self._g8[:, :4] = comps
        np.negative(self._g8[:, :4], out=self._g8[:, 4:])
        self.terms = self._workspace.take("terms", (4, 4, self.rows))

    def __missing__(self, k):
        # mode="clip" writes straight into out; the indices are in range
        table = self[k] = self._g8[abs(k) - 1].take(
            _TERMS if k > 0 else _TERMS_INV, axis=0,
            out=self._workspace.take(k, (4, 4, self.rows)), mode="clip")
        return table


def _qstep(a, table, terms, out):
    """out = a * letter on (4, B) rows, term for term UnitQuaternion.__mul__.

    The sum runs as explicit adds in term order: a reduction such as
    np.add.reduce starts from +0.0, which turns a sum of -0.0 terms into
    +0.0.  out may be a.
    """
    np.multiply(a[:, None, :], table, out=terms)
    np.add(terms[0], terms[1], out=out)
    out += terms[2]
    out += terms[3]
    return out


def _norm(w, x, y, z):
    """sqrt(((w*w + x*x) + y*y) + z*z) of component arrays, in from_components' order."""
    n = w * w
    n += x * x
    n += y * y
    n += z * z
    return np.sqrt(n, out=n)


def _components(params):
    """(B, n, 4) parameter stacks as contiguous (n, 4, B) component rows."""
    return np.ascontiguousarray(params.transpose(1, 2, 0))


def _word_product(tables, word):
    """Unnormalized (4, B) product along the word, from _LetterTables.

    It starts from 1, as evaluate_word does: 1 * g can differ from g in the
    sign of a zero component.
    """
    out = np.zeros((4, tables.rows))
    out[0] = 1.0
    for k in word:
        _qstep(out, tables[k], tables.terms, out)
    return out


def _eval_batch(tables, word, out):
    """rho(word) as (B, 4) rows, normalized at the end, into out; returns out.

    The product is normalized on its (4, B) component rows by _norm and
    divided straight into out.T, bit for bit evaluate_word.
    Scaling a generator scales the product by the same factor, which the
    final normalization cancels: the residual does not change along the
    radial direction of any generator.  _lm_minimize therefore differentiates
    and steps only along the three tangent directions of each generator.
    """
    prod = _word_product(tables, word)
    np.divide(prod, _norm(*prod), out=out.T)
    return out


def _residuals(params, words, targets, workspace=None):
    """Word values minus targets, as (B, m) rows for m = 4 * len(words).

    targets holds T rows of m components, and the B rows of params are
    B / T blocks of T: row t of every block is compared with targets[t], so
    a block of probes shares its rows' targets without a tiled copy.
    """
    tables = _LetterTables(params.transpose(1, 2, 0), workspace)
    out = np.empty((tables.rows, 4 * len(words)))
    for k, word in enumerate(words):
        _eval_batch(tables, word, out[:, 4 * k:4 * k + 4])
    blocks = out.reshape(-1, *targets.shape)
    blocks -= targets
    return out


def _renorm(params):
    """(B, n, 4) params with each generator divided by its _norm.

    The bits of UnitQuaternion.from_components, per generator.  It serves
    _tangent_step and the rows entering _lm_minimize.
    """
    return params / _norm(*params.transpose(2, 0, 1))[..., None]


# Row c of _TANGENT reads g * e_c, for e_c = i, j, k, from the stack of g's
# components and their negatives (see _TERMS): g * i = (-x, w, z, -y),
# g * j = (-y, -z, w, x) and g * k = (-z, y, -x, w).
_TANGENT = np.array([[5, 0, 3, 6],
                     [6, 7, 0, 1],
                     [7, 2, 5, 0]])
#: forward-difference step of the LM probes
_FD_STEP = 1e-7


def _tangent_basis(params):
    """(B, n, 3, 4) rows g * i, g * j, g * k of each generator g of (B, n, 4) params.

    Each row is a signed permutation of g's components; for a unit g the
    three rows are orthonormal and orthogonal to g, so they span the tangent
    space of S^3 at g.
    """
    return np.concatenate([params, -params], axis=2)[:, :, _TANGENT]


def _probed_residuals(words, targets, params, workspace):
    """(F, basis, Fp): residuals of (B, n, 4) params and of their tangent probes.

    F is the (B, m) residual rows and basis is _tangent_basis(params).  Fp
    is the (3n, B, m) residuals of the forward-difference probes: Fp[3i + c]
    is params with generator i moved to g + _FD_STEP * (g * e_c).  The rows
    and all 3n probes of every row run in one residual evaluation, on the
    workspace's buffers.
    """
    b, n, _ = params.shape
    basis = _tangent_basis(params)
    # stack[1 + 3i + c] is params with generator i moved along basis[i, c]
    moved = (params[:, :, None] + _FD_STEP * basis).transpose(1, 2, 0, 3)
    stack = workspace.take("stack", (1 + 3 * n, b, n, 4))
    stack[...] = params
    for i in range(n):
        stack[1 + 3 * i:4 + 3 * i, :, i] = moved[i]
    out = _residuals(stack.reshape(-1, n, 4), words, targets, workspace)
    out = out.reshape(1 + 3 * n, b, -1)
    return out[0], basis, out[1:]


def _jacobian(F, Fp):
    """The (m, 3n, B) forward-difference Jacobian of rows F from their probes Fp."""
    return np.ascontiguousarray(((Fp - F) / _FD_STEP).transpose(2, 0, 1))


def _normal_equations(J, F):
    """(JtJ, JtF) of each row, as (B, p, p) and (B, p), from an (m, p, B) J and (B, m) F.

    einsum's summation order follows the operand strides.  With the rows
    innermost, each row sums over m in order for every B, 1 included: the
    bits of column-by-column sums.  (An (m, B)-innermost layout sums in
    another order when B = 1, and a (B, m, p) one takes 4x as long.)
    """
    return (np.einsum("mpb,mqb->bpq", J, J),
            np.einsum("mpb,mb->bp", J, np.ascontiguousarray(F.T)))


def _tangent_step(params, basis, delta):
    """renorm(g + sum_c delta[3i + c] * basis[i, c]) for each generator g = params[i].

    The sum runs as explicit adds, so a row's bits do not depend on the
    batch it steps in (a stacked matmul may take another summation path).
    """
    b, n, _ = params.shape
    d = delta.reshape(b, n, 3, 1)
    step = d[:, :, 0] * basis[:, :, 0]
    step += d[:, :, 1] * basis[:, :, 1]
    step += d[:, :, 2] * basis[:, :, 2]
    return _renorm(params + step)


def _solve_rows(A, b):
    """x with A[i] x[i] = b[i] for a stack of square systems.

    A singular system falls back to the pseudo-inverse on its own row only,
    so each row's result is independent of the other rows in the stack.
    """
    try:
        return np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        pass
    out = np.empty_like(b)
    for i in range(len(A)):
        try:
            out[i] = np.linalg.solve(A[i:i + 1], b[i:i + 1, :, None])[0, :, 0]
        except np.linalg.LinAlgError:
            out[i] = np.linalg.pinv(A[i]) @ b[i]
    return out


# Upper bound on the rows of one LM step.  A row leaves the window when it
# finishes and the next queued row takes its slot, so every numpy call but
# the last few of a sweep runs on a full window.  A bigger window cuts more
# call overhead but raises peak memory: on a trefoil r=200 sweep, 512 rows
# ran about 10% faster than 256 for 2 MB more peak RSS.
_BLOCK_ROWS = 256


def _lm_minimize(words, targets, params0, tol):
    """Batched LM on the word system; returns (params, per_item_max_residual).

    targets holds one row of 4 * len(words) target components per item.
    Each generator g steps in the tangent space of S^3 at g: the 3n
    unknowns of a row are the coefficients of g * i, g * j and g * k, the
    normal equations come from 3n forward-difference probes along them
    (_probed_residuals), and a step moves g to renorm(g + sum of the
    coefficients times the directions) (_tangent_step).  The residual does
    not change along g itself (see _eval_batch), so a fourth direction
    would only add a null column.
    Every row evolves independently of the others: it takes up to
    _MAX_ITER + _POLISH_STEPS steps, stopping early once it has converged and
    spent its _POLISH_STEPS or once its damping exceeds 1e9 unconverged.
    At most _BLOCK_ROWS rows step at a time, and a finished row's slot goes
    to the next row in order.  Each step takes one residual evaluation: the
    trial rows together with their own probes.  An accepted trial brings its
    tangent basis and normal equations along; a rejected unconverged one
    drops its probes, and its row retries from its own with more damping.
    Rows enter the window probed, each _BLOCK_ROWS chunk of them in one
    evaluation.  A rejected polish step finishes its row, since its state
    and its 1e-12 damping would repeat the same rejected trial on every
    later polish step.
    """
    params = _renorm(params0)
    R, n, _ = params.shape
    npar = 3 * n
    m = 4 * len(words)
    diag = np.arange(npar)
    target2 = (0.25 * tol) ** 2
    # each row's residuals, tangent basis, JtJ (undamped) and JtF, first
    # probed in window-sized chunks, so no call holds the letter tables of
    # every row at once
    F = np.empty((R, m))
    BASIS = np.empty((R, n, 3, 4))
    JTJ = np.empty((R, npar, npar))
    JTF = np.empty((R, npar))
    # the letter tables and probe stack of every evaluation of this call
    workspace = _Workspace()
    for s in range(0, R, _BLOCK_ROWS):
        rows = slice(s, s + _BLOCK_ROWS)
        F[rows], BASIS[rows], Fp = _probed_residuals(words, targets[rows], params[rows],
                                                     workspace)
        JTJ[rows], JTF[rows] = _normal_equations(_jacobian(F[rows], Fp), F[rows])
        del Fp  # a view that holds the chunk's whole evaluation
    cost = np.einsum("bm,bm->b", F, F)
    lam = np.full(R, 1e-3)
    steps_left = np.full(R, _MAX_ITER + _POLISH_STEPS)
    polish_left = np.full(R, _POLISH_STEPS)

    def finished(rows):
        conv = cost[rows] <= target2
        return ((steps_left[rows] <= 0) | (conv & (polish_left[rows] <= 0))
                | (~conv & (lam[rows] > 1e9)))

    # every row steps at least once: it starts with steps and polish steps
    # left and with damping 1e-3
    queued = 0
    window = np.empty(0, dtype=np.intp)
    while True:
        if queued < R:
            new = np.arange(queued, min(R, queued + _BLOCK_ROWS - len(window)))
            queued += len(new)
            window = np.concatenate([window, new])
        if not len(window):
            break
        # the row gathers run as ndarray.take and compress, which copy whole
        # rows in about half the time of fancy indexing on these arrays
        conv = cost[window] <= target2
        A = JTJ.take(window, axis=0)
        A[:, diag, diag] += np.where(conv, 1e-12, lam[window])[:, None]
        trial = _tangent_step(params.take(window, axis=0), BASIS.take(window, axis=0),
                              -_solve_rows(A, JTF.take(window, axis=0)))
        Ft, basis, Fp = _probed_residuals(words, targets.take(window, axis=0), trial,
                                          workspace)
        cost_t = np.einsum("bm,bm->b", Ft, Ft)
        better = cost_t < cost[window]
        take = window[better]
        params[take] = trial.compress(better, axis=0)
        F[take] = Ft.compress(better, axis=0)
        cost[take] = cost_t[better]
        steps_left[window] -= 1
        polish_left[window[conv]] -= 1
        up = window[~conv & better]
        lam[up] = np.maximum(lam[up] * 0.35, 1e-12)
        lam[window[~conv & ~better]] *= 8.0
        keep = ~(finished(window) | (conv & ~better))
        # the rows that moved and step on take their trial's probes
        moved = better & keep
        if moved.any():
            rows, Fm = window[moved], Ft.compress(moved, axis=0)
            BASIS[rows] = basis.compress(moved, axis=0)
            JTJ[rows], JTF[rows] = _normal_equations(
                _jacobian(Fm, Fp.compress(moved, axis=1)), Fm)
        del Ft, Fp  # views that hold the step's whole evaluation
        window = window[keep]
    # per-word residual norms; a (1, 4) @ (4, 1) matmul is the same BLAS dot
    # that np.linalg.norm takes on one 4-vector, so the values match it exactly
    seg = F.reshape(R, len(words), 1, 4)
    max_res = np.sqrt(seg @ seg.transpose(0, 1, 3, 2)).max(axis=(1, 2, 3), initial=0.0)
    return params, max_res


def _rep_from_params(row) -> Representation:
    return Representation(tuple(
        UnitQuaternion.from_components(*row[i]) for i in range(row.shape[0])))


def _unit(q):
    """UnitQuaternion.from_components on (w, x, y, z) component arrays."""
    w, x, y, z = q
    n = _norm(w, x, y, z)
    if (n == 0.0).any():
        raise ValueError("zero quaternion cannot be normalized")
    return w / n, x / n, y / n, z / n


def _dist_to_one(q):
    """UnitQuaternion.dist_to_one on (w, x, y, z) component arrays.

    dist_to_one squares with **, which is C pow: it differs from x * x in
    the last bit for about 0.1% of inputs.  np.float_power calls that pow;
    np.power and ** on arrays would square by x * x or by a SIMD pow.
    """
    w, x, y, z = q
    return np.sqrt(np.float_power(w - 1.0, 2) + np.float_power(x, 2)
                   + np.float_power(y, 2) + np.float_power(z, 2))


def _relator_residuals(units, relators):
    """su2.relator_residual of each row of (n, 4, B) unit component rows."""
    tables = _LetterTables(units)
    worst = np.zeros(tables.rows)
    for r in relators:
        d = _dist_to_one(_unit(_word_product(tables, r)))
        worst = np.where(d > worst, d, worst)  # max(worst, d), as Python takes it
    return worst


def _commutator(a, b, tables, ka, kb):
    """((a * b) * a^-1) * b^-1 on (4, B) rows, where tables letter ka is a and kb is b."""
    out = a.copy()
    for k in (kb, -ka, -kb):
        _qstep(out, tables[k], tables.terms, out)
    return out


def _gaps(units):
    """su2.irreducibility_gap of each row of (n, 4, B) unit component rows."""
    n = units.shape[0]
    tables = _LetterTables(units)
    gap = np.zeros(tables.rows)
    for i in range(n):
        for j in range(i + 1, n):
            d = _dist_to_one(_commutator(units[i], units[j], tables, i + 1, j + 1))
            gap = np.where(d > gap, d, gap)  # max(gap, d), as Python takes it
    return gap


def _boundary_points(reps, pres: GroupPresentation) -> list:
    """su2.boundary_angles of each representation, bit for bit.

    The peripheral products, their commutator defect and imaginary norms
    are batched; su2.peripheral_point reads each point from them on Python
    floats (math.atan2, as np.arctan2 need not round as libm does).  The
    first point, in order, whose holonomies do not commute raises
    NonCommutingPeripheralsError with su2's message.
    """
    # the shape is spelled out: with no points or no generators, -1 is ambiguous
    tables = _LetterTables(_components(np.array(
        [[(q.w, q.x, q.y, q.z) for q in rep.images] for rep in reps],
        dtype=float).reshape(len(reps), pres.generator_count, 4)))
    ml = np.stack([_unit(_word_product(tables, pres.meridian)),
                   _unit(_word_product(tables, pres.longitude))])
    peripheral = _LetterTables(ml)
    defect = _dist_to_one(_commutator(ml[0], ml[1], peripheral, 1, 2))
    imag = np.sqrt(np.float_power(ml[:, 1], 2) + np.float_power(ml[:, 2], 2)
                   + np.float_power(ml[:, 3], 2))
    cols = np.concatenate([ml.reshape(8, len(reps)), imag, defect[None]])
    return [peripheral_point(c[:4], c[4:8], *c[8:]) for c in cols.T.tolist()]


def _signatures(units, meridian):
    """Conjugation invariants of each row, one column each.

    Generator and pair-product traces, then the meridian's w and |x|.
    """
    n = units.shape[0]
    tables = _LetterTables(units)
    cols = [units[i, 0] for i in range(n)]
    cols += [_qstep(units[i], tables[j + 1], tables.terms, np.empty_like(units[i]))[0]
             for i in range(n) for j in range(i + 1, n)]
    w, x, _, _ = _unit(_word_product(tables, meridian))
    cols += [w, np.abs(x)]
    return np.stack(cols, axis=1)


#: outcomes of an LM row in _distinct_solutions
_ACCEPTED, _FAILED, _MATCHED = 0, 1, 2


def _distinct_solutions(pres: GroupPresentation, params, max_res, config: SolverConfig,
                        node_of, kept) -> np.ndarray:
    """Accept pass over LM rows, where row k tries to solve node node_of[k].

    A row is accepted when its LM residual and its relator residual are below
    config.tol; the relator residual is recomputed as su2.relator_residual
    does, on the generators renormalized as UnitQuaternion.from_components
    does.  An accepted row is dropped as matched when its conjugation
    invariants match a solution already kept at its node, whether an earlier
    row's or one kept before the call.  kept[node] is the list of
    (irreducibility gap, invariants, solution) entries of the node, and each
    new solution is appended to it.  Rows are taken in order, _BLOCK_ROWS at a
    time to bound the temporaries.  Returns each row's outcome: _ACCEPTED,
    _FAILED or _MATCHED.
    """
    outcome = np.full(len(params), _FAILED)
    for start in range(0, len(params), _BLOCK_ROWS):
        # ~(r >= tol) rather than r < tol, so a NaN residual passes as it does
        # in the scalar checks
        rows = start + np.nonzero(~(max_res[start:start + _BLOCK_ROWS] >= config.tol))[0]
        units = np.stack(_unit(_components(params[rows]).swapaxes(0, 1)), axis=1)
        ok = ~(_relator_residuals(units, pres.relators) >= config.tol)
        sigs = _signatures(units, pres.meridian).tolist()
        gaps = _gaps(units).tolist()
        for k in np.nonzero(ok)[0].tolist():
            sig = tuple(sigs[k])
            node = kept[node_of[rows[k]]]
            if any(all(abs(u - v) < _SIGNATURE_TOL for u, v in zip(sig, other))
                   for _, other, _ in node):
                outcome[rows[k]] = _MATCHED
                continue
            rep = Representation(tuple(UnitQuaternion(*q) for q in units[:, :, k]))
            node.append((gaps[k], sig, rep))
            outcome[rows[k]] = _ACCEPTED
    return outcome


def _by_gap(node) -> list[tuple[Representation, float]]:
    """(solution, gap) pairs of a node's kept entries, by decreasing gap, then invariants."""
    return [(rep, gap) for gap, _, rep in sorted(node, key=lambda e: (-e[0], e[1]))]


def _meridian_targets(pres: GroupPresentation, alphas) -> np.ndarray:
    """One LM target row per meridian angle: every relator 1, the meridian e^{i alpha}."""
    relator_targets = [1.0, 0.0, 0.0, 0.0] * len(pres.relators)
    return np.array([relator_targets + [math.cos(a), math.sin(a), 0.0, 0.0]
                     for a in alphas]).reshape(len(alphas), -1)


def _cold_solutions(pres: GroupPresentation, alphas, keys, config: SolverConfig):
    """kept entry lists (see _distinct_solutions) of each node, from random restarts.

    Node i solves rho(meridian) = e^{i alphas[i]} from config.restarts
    starts drawn from default_rng([config.seed, keys[i]]).  The restarts of
    all nodes run as the rows of one _lm_minimize call; rows evolve
    independently, so every node's result is the one it gets alone.
    """
    n = pres.generator_count
    if n == 0:
        rep = Representation(())
        return [[(irreducibility_gap(rep), (), rep)] if abs(a) < 1e-12 else []
                for a in alphas]
    restarts = config.restarts
    params0 = np.concatenate([
        np.random.default_rng([config.seed, key & 0x7FFFFFFF])
        .standard_normal((restarts, n, 4)) for key in keys])
    targets = np.repeat(_meridian_targets(pres, alphas), restarts, axis=0)
    params, max_res = _lm_minimize(list(pres.relators) + [pres.meridian], targets,
                                   params0, config.tol)
    kept = [[] for _ in alphas]
    _distinct_solutions(pres, params, max_res, config,
                        np.repeat(np.arange(len(alphas)), restarts), kept)
    return kept


def _track(pres: GroupPresentation, grid, kept, discovery, config: SolverConfig) -> dict:
    """Fill the grid nodes between discovery nodes by warm-started LM steps.

    Every solution kept at a discovery node starts one track into each
    neighbouring node that is not a discovery node.  A step is one
    _lm_minimize batch with one row per live track, started from the
    track's last solution and aimed at its next node's meridian angle.  The
    rows then go through the accept pass of cold rows (_distinct_solutions
    on kept).  A track stops when its row fails a check, when its solution
    matches one already kept at that node, or at the end of the grid.  An
    accepted track goes on through a discovery node too: that node's
    restarts missed its branch.  Returns the track counts of SweepStats.
    """
    counts = dict(tracks_started=0, track_rows=0, track_stops_failed=0,
                  track_stops_matched=0, track_stops_grid_end=0, tracked_witnesses=0)
    n = pres.generator_count
    if n == 0:
        return counts  # the one representation is an exact point; nothing moves
    r = len(grid)
    is_discovery = np.zeros(r, dtype=bool)
    is_discovery[discovery] = True
    starts, nodes, steps = [], [], []
    for d in discovery:
        for step in (-1, 1):
            if 0 <= d + step < r and not is_discovery[d + step]:
                for _, _, rep in kept[d]:
                    starts.append([[q.w, q.x, q.y, q.z] for q in rep.images])
                    nodes.append(d + step)
                    steps.append(step)
    params = np.array(starts, dtype=float).reshape(-1, n, 4)
    nodes, steps = np.array(nodes, dtype=np.intp), np.array(steps, dtype=np.intp)
    counts["tracks_started"] = len(nodes)
    words = list(pres.relators) + [pres.meridian]
    while len(nodes):
        targets = _meridian_targets(pres, grid[nodes].tolist())
        params, max_res = _lm_minimize(words, targets, params, config.tol)
        outcome = _distinct_solutions(pres, params, max_res, config, nodes, kept)
        accepted = outcome == _ACCEPTED
        following = nodes + steps
        live = accepted & (following >= 0) & (following < r)
        counts["track_rows"] += len(nodes)
        counts["tracked_witnesses"] += int(accepted.sum())
        counts["track_stops_failed"] += int((outcome == _FAILED).sum())
        counts["track_stops_matched"] += int((outcome == _MATCHED).sum())
        counts["track_stops_grid_end"] += int((accepted & ~live).sum())
        params, nodes, steps = params[live], following[live], steps[live]
    return counts


def refine_representation(pres: GroupPresentation, seed_rep: Representation,
                          config: SolverConfig | None = None) -> Representation | None:
    """Polish a nearby representation of pres by LM."""
    config = config or SolverConfig()
    words = list(pres.relators)
    if not words:
        return seed_rep
    targets = np.array([[1.0, 0.0, 0.0, 0.0] * len(words)])
    params0 = np.array([[[q.w, q.x, q.y, q.z] for q in seed_rep.images]])
    params, max_res = _lm_minimize(words, targets, params0, config.tol)
    if max_res[0] < config.tol:
        return _rep_from_params(params[0])
    return None


# ---------------------------------------------------------------------------
# pillowcase images

@dataclass(frozen=True)
class ImagePoint:
    point: PillowcasePoint
    witness: Representation
    gap: float


@dataclass(frozen=True)
class SweepStats:
    """Deterministic counts of one image sweep (see sample_pillowcase_image).

    Discovery: the cold-solved nodes and their LM rows.  Tracking: the
    tracks started, the LM rows they stepped, why each track stopped, and
    the solutions the tracks kept.  Every track stops once, so the three
    stop counts add up to tracks_started; every tracked row is kept, fails
    or matches, so track_rows is tracked_witnesses plus the failed and
    matched stops.
    """

    discovery_nodes: int = 0
    discovery_rows: int = 0
    tracks_started: int = 0
    track_rows: int = 0
    track_stops_failed: int = 0
    track_stops_matched: int = 0
    track_stops_grid_end: int = 0
    tracked_witnesses: int = 0


@dataclass(frozen=True)
class PillowcaseImage:
    """Sampled boundary image of a representation variety.

    points carries every witness found (never silently dropped), node by
    node; arcs are the chained curves (numeric_arcs) followed by the
    polylines of the analytically enumerated reducible lines, whose exact
    forms are lines, in the same order.  sweep counts how the sweep found
    the points.
    """

    model: KnotExteriorModel
    resolution: int
    grid_step: float
    points: tuple[ImagePoint, ...]
    arcs: tuple[PillowcasePolyline, ...]
    isolated: tuple[ImagePoint, ...] = ()
    sweep: SweepStats = SweepStats()
    lines: tuple[LineForm, ...] = ()

    @property
    def numeric_arcs(self) -> tuple[PillowcasePolyline, ...]:
        """The arcs chained from witnesses: every arc but the lines' polylines."""
        return self.arcs[:len(self.arcs) - len(self.lines)]

    @property
    def chain_threshold(self) -> float:
        """Witnesses closer than this are chained into one arc: _CHAIN_FACTOR grid steps."""
        return _CHAIN_FACTOR * self.grid_step

    def irreducible_points(self):
        """The points whose gap exceeds IRREDUCIBLE_GAP."""
        return [p for p in self.points if p.gap > IRREDUCIBLE_GAP]

    @cached_property
    def _point_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The points as a read-only (n, 2) array, and their gaps."""
        xy = np.array([r.point.as_tuple() for r in self.points]).reshape(-1, 2)
        gap = np.array([r.gap for r in self.points], dtype=float)
        xy.flags.writeable = gap.flags.writeable = False
        return xy, gap

    def nearest_points(self, pts, min_gap: float = -math.inf) -> list:
        """(record, distance) of the first closest point with gap > min_gap, per point of pts.

        (None, inf) when no point qualifies.  All of pts are answered in one
        scan: row i of _distance_rows is pillowcase_distances to pts[i],
        the scalar ones bit for bit, and a row's argmin is its first least
        entry, in point order.  The rows are taken by _row_blocks.
        """
        xy, gap = self._point_arrays
        idx = np.flatnonzero(~(gap <= min_gap))
        if idx.size == 0:
            return [(None, math.inf)] * len(pts)
        if idx.size < len(xy):
            xy = xy[idx]
        anchors = np.array([p.as_tuple() for p in pts]).reshape(-1, 2)
        found = []
        for _, d in _row_blocks(xy, anchors):
            k = d.argmin(axis=1)
            found += zip(idx[k].tolist(), d[np.arange(len(k)), k].tolist())
        return [(self.points[i], dist) for i, dist in found]

    def nearest_witnesses(self, pts, min_gap: float = -math.inf) -> list:
        """Per point of pts, its nearest_points record if within 2 * chain_threshold, else None.

        A point at exactly twice the threshold is accepted.
        """
        gate = 2 * self.chain_threshold
        return [rec if d <= gate else None for rec, d in self.nearest_points(pts, min_gap)]

    def transform_arcs(self, gluing: GluingMatrix) -> tuple[PillowcasePolyline, ...]:
        """Every arc under the map a gluing induces, applied to its plane lifts."""
        return tuple(arc.transformed(gluing.rows()) for arc in self.arcs)


_SAMPLES_PER_TURN = 96  # line vertices per 2pi of the free angle, at rate 1


def _line_forms(model: KnotExteriorModel) -> list[tuple[LineForm, PillowcasePolyline]]:
    """(exact form, polyline) of each reducible line, once, in character order.

    The reducible lines are the boundary image of the diagonal (abelian)
    representations: angle assignments theta with E theta = 0 mod 2pi for
    the relator exponent matrix E, read in the Smith coordinates of
    homology._boundary_coordinates, one line per torsion character that
    acts on the boundary, parametrized by the free angle.  The line of
    integer direction (a, b), g = gcd(a, b), is the point set
    ca*alpha + cb*beta = +-2pi*offset (mod 2pi) with ca, cb = b/g, -a/g;
    offset is an exact Fraction in [0, 1/2], so equal offsets are one line.
    A model without exactly one free H1 coordinate gets the line beta = 0
    if its longitude's exponent sum on every generator is zero, and raises
    ModelInvalidError otherwise: a longitude that is zero in H1 only
    through the relators (x^2 in <x | x^2>) is refused.
    """
    diag, free_idx, mu_psi, lam_psi = _boundary_coordinates(model.presentation)
    torsion_idx = [i for i, d in enumerate(diag) if d >= 2]
    if len(free_idx) != 1:
        # not a knot-exterior shape; the line beta = 0 for a longitude whose
        # exponent sums all vanish (lam_psi is zero iff they do, V being unimodular)
        if not any(lam_psi):
            return [(LineForm(0, -1, Fraction(0)), _line_polyline(1, 0, 0.0, 0.0))]
        raise ModelInvalidError("model does not have a single free H1 coordinate")
    f = free_idx[0]
    a_coef, b_coef = mu_psi[f], lam_psi[f]
    if a_coef == 0 and b_coef == 0:
        return []  # the boundary image is a finite set of points
    gcd = math.gcd(a_coef, b_coef)
    lines = {}
    for combo in itertools.product(*(range(diag[i]) for i in torsion_idx)):
        offset = sum((Fraction((b_coef * mu_psi[i] - a_coef * lam_psi[i]) * k, diag[i] * gcd)
                      for i, k in zip(torsion_idx, combo)), Fraction(0))
        key = min(offset % 1, -offset % 1)
        if key not in lines:
            c_mu = sum(mu_psi[i] * (TWO_PI * k / diag[i]) for i, k in zip(torsion_idx, combo))
            c_lam = sum(lam_psi[i] * (TWO_PI * k / diag[i]) for i, k in zip(torsion_idx, combo))
            lines[key] = _line_polyline(a_coef, b_coef, c_mu, c_lam)
    return [(LineForm(b_coef // gcd, -a_coef // gcd, key), line)
            for key, line in lines.items()]


def _line_polyline(a_coef, b_coef, c_mu, c_lam):
    """The closed line t -> (a t + c_mu, b t + c_lam), 0 <= t <= 2pi, on exact lifts."""
    steps = _SAMPLES_PER_TURN * max(abs(a_coef), abs(b_coef), 1)
    return PillowcasePolyline.from_lifts(
        [(a_coef * t + c_mu, b_coef * t + c_lam)
         for t in np.linspace(0.0, TWO_PI, steps + 1).tolist()], closed=True)


def _drop_repeats(xy: np.ndarray, step: np.ndarray) -> list[int]:
    """Rows of an (n, 2) canonical array but each one within 1e-12 of the last one kept before it.

    step[i] is the distance from row i to row i + 1 (_step_distances).  A
    row right after a kept one is judged by its step, and a row after a
    dropped one by the distance from the last row kept: both are
    pillowcase_distance bit for bit.
    """
    kept = [0]
    for i, far in enumerate((step > 1e-12).tolist(), 1):
        if kept[-1] != i - 1:
            far = _step_distances(xy[[kept[-1], i]])[0] > 1e-12
        if far:
            kept.append(i)
    return kept


def _chain_points(records, threshold):
    """Greedy nearest-neighbor chaining of witness points into polylines.

    The components of the points closer than threshold are the chains'
    pools; the walk reads rows of _distance_rows(xy, xy) and steps to the
    nearest point left, the least index of a tie.
    """
    pts = [r.point for r in records]
    if not pts:
        return [], []
    xy = np.array([p.as_tuple() for p in pts])
    distances = _distance_rows(xy, xy)
    arcs = []
    isolated = []
    for comp in distance_components(pts, threshold):
        if len(comp) == 1:
            isolated.append(records[comp[0]])
            continue

        def walk(start, pool):
            order = [start]
            left = np.array(sorted(set(pool) - {start}), dtype=np.intp)
            while left.size:
                last = order[-1]
                d = distances[last, left]
                k = int(np.argmin(d))
                if d[k] > 3 * threshold:
                    break
                nxt = int(left[k])
                order.append(nxt)
                left = left[left != nxt]
            return order, left.tolist()

        # first walk finds one end of the chain, second walk spans it
        probe, _ = walk(comp[0], comp)
        order, remaining = walk(probe[-1], comp)
        for leftover in remaining:
            isolated.append(records[leftover])
        closed = len(order) > 3 and bool(distances[order[0], order[-1]] < threshold)
        arcs.append(PillowcasePolyline(
            tuple(pts[i] for i in order), closed=closed))
    return arcs, isolated


def _discovery_nodes(resolution: int) -> list[int]:
    """Every max(1, (resolution - 1) // _DISCOVERY_PER_PI)-th grid node, and the last.

    Consecutive ones lie at most pi / _DISCOVERY_PER_PI apart, or one grid
    step where that is wider; on a grid of at most 2 * _DISCOVERY_PER_PI
    nodes every node is one.
    """
    stride = max(1, (resolution - 1) // _DISCOVERY_PER_PI)
    return list(range(0, resolution - 1, stride)) + [resolution - 1]


def sample_pillowcase_image(model: KnotExteriorModel, resolution: int | None = None,
                            config: SolverConfig | None = None) -> PillowcaseImage:
    """Sweep the meridian angle over a uniform grid and image the solutions.

    The discovery nodes (_discovery_nodes, at most pi / _DISCOVERY_PER_PI or
    one grid step apart) are solved cold by _cold_solutions' random
    restarts, node i keyed by i; every other node is filled by tracking the
    discovery solutions (_track).  Each node's solutions are sorted by
    decreasing gap, then by their conjugation invariants.  Collects the boundary angles of
    every solution in one batch (_boundary_points) and its gap from the
    accept pass (_gaps), both bitwise what su2.boundary_angles and
    su2.irreducibility_gap give; attaches the analytically enumerated
    reducible lines, and chains nearby numeric points into arcs (isolated
    points are reported separately).  The image's sweep field counts the
    discovery and tracking work.  The reducible lines come first: a model
    whose lines are not defined (see _line_forms) raises ModelInvalidError
    before any node is solved, so a model that also has non-commuting
    peripheral holonomies reports the H1 fault.
    """
    config = config or SolverConfig()
    if resolution is None:
        resolution = config.resolution
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    forms = _line_forms(model)
    pres = model.presentation
    grid = np.linspace(0.0, math.pi, resolution)
    grid_step = float(grid[1] - grid[0])

    discovery = _discovery_nodes(resolution)
    kept = [[] for _ in range(resolution)]
    cold = _cold_solutions(pres, [float(grid[i]) for i in discovery], discovery, config)
    for i, node in zip(discovery, cold):
        kept[i] = node
    counts = _track(pres, grid, kept, discovery, config)
    stats = SweepStats(discovery_nodes=len(discovery),
                       discovery_rows=len(discovery) * config.restarts
                       if pres.generator_count else 0, **counts)

    witnesses = [entry for node in kept for entry in _by_gap(node)]
    points = _boundary_points([rep for rep, _ in witnesses], pres)
    records = [ImagePoint(point=pt, witness=rep, gap=gap)
               for pt, (rep, gap) in zip(points, witnesses)]
    # points sitting on an analytic line are kept as witnesses but do not
    # seed numeric arcs of their own
    chainable = [r for r in records if r.gap > IRREDUCIBLE_GAP
                 or not any(form.contains(r.point) for form, _ in forms)]
    arcs, isolated = _chain_points(chainable, _CHAIN_FACTOR * grid_step)
    return PillowcaseImage(
        model=model,
        resolution=resolution,
        grid_step=grid_step,
        points=tuple(records),
        arcs=tuple(arcs) + tuple(line for _, line in forms),
        isolated=tuple(isolated),
        sweep=stats,
        lines=tuple(form for form, _ in forms),
    )


# ---------------------------------------------------------------------------
# cut-open lift and essential curves

@dataclass(frozen=True)
class LiftResult:
    """Outcome of lifting an image off the pillowcase edge folds.

    The lift to [0, pi] x (R/2piZ) exists iff no image point sits on the
    edges alpha in {0, pi} away from beta = 0.  violations are the
    witnesses there, abelian or not; arc_points holds, per arc that reaches
    there, its first vertex there, which no witness carries.  Only a
    violation whose gap exceeds IRREDUCIBLE_GAP witnesses a non-abelian
    SU(2) representation of the ambient manifold: the reducible lines meet
    the edges at the marked points, so abelian witnesses can violate too
    (2 of klein's 22 violations at r=60, seed 0, sit at P with gaps near
    1e-146).
    """

    ok: bool
    violations: tuple[ImagePoint, ...]
    arc_points: tuple[PillowcasePoint, ...]


def lift_to_cut_open(img: PillowcaseImage) -> LiftResult:
    """Whether the image lifts to the cut-open pillowcase; see LiftResult for
    which violations witness a non-abelian representation."""
    tol = 1e-6  # width of the edges alpha in {0, pi} and of the line beta = 0

    def violates(pt):
        on_edge = pt.alpha < tol or pt.alpha > math.pi - tol
        return on_edge and not line_offset(pt, 0.0, 1.0, 0.0) < tol

    violations = tuple(rec for rec in img.points if violates(rec.point))
    firsts = (next((v for v in arc.vertices if violates(v)), None) for arc in img.arcs)
    arc_points = tuple(v for v in firsts if v is not None)
    return LiftResult(ok=not (violations or arc_points), violations=violations,
                      arc_points=arc_points)


def _split_polyline(curve: PillowcasePolyline, cuts):
    """Split at (segment_index, parameter) pairs; returns open sub-polylines.

    Cut parameters landing on a vertex split there; others insert a new
    vertex at the interpolated point.  The stations (the lifted vertices at
    their indices, and the inserted points at their parameters) are
    canonicalized in one array pass, and a piece takes the stations within
    1e-12 of its parameter range, without repeats (_drop_repeats).  Points
    are built only for the vertices the pieces keep.
    """
    lifts = curve._lift_array
    nseg = len(lifts) - 1
    params = []
    for seg, t in cuts:
        s = seg + min(max(t, 0.0), 1.0)
        s = min(max(s, 0.0), float(nseg))
        if abs(s - round(s)) < 1e-9:
            s = float(round(s))
        params.append(s)
    cut_params = [0.0, float(nseg)]
    for s in sorted(params):
        if all(abs(s - c) > 1e-9 for c in cut_params):
            cut_params.append(s)
    cut_params.sort()
    inner = [s for s in cut_params if s != int(s)]
    seg = np.array([int(s) for s in inner], dtype=int)
    t = np.array([s - int(s) for s in inner])[:, None]
    # station parameters: int(s) + t is s exactly, so they sort as the cuts do
    param = np.concatenate([np.arange(nseg + 1.0), inner])
    order = np.argsort(param)
    param = param[order]
    stations = _canonical_array(np.concatenate(
        [lifts, lifts[seg] + t * (lifts[seg + 1] - lifts[seg])])[order])
    step = _step_distances(stations)
    pieces = []
    for lo, hi in zip(cut_params[:-1], cut_params[1:]):
        first = np.searchsorted(param, lo - 1e-12, "left")
        end = np.searchsorted(param, hi + 1e-12, "right")
        if end - first < 2:
            continue
        verts = stations[first:end]
        cleaned = verts[_drop_repeats(verts, step[first:end - 1])].tolist()
        if len(cleaned) >= 2:
            pieces.append(PillowcasePolyline(tuple(itertools.starmap(PillowcasePoint, cleaned)),
                                             closed=False))
    return pieces


def _project_endpoint_cuts(curves, node_tol):
    """Cuts where some curve's endpoint lands on another curve's interior.

    Each cut is at the first closest (segment, lift) of the curve's _scan
    in row-major order, zero-length segments skipped, if it is within
    node_tol; the cut's parameter is that lift's t.  Only the segments
    whose _distance_bounds entry is at most node_tol are scanned: the
    others cannot come within node_tol, so the cuts are those of the scan
    of every segment.
    """
    cuts = {i: [] for i in range(len(curves))}
    endpoints = []
    for i, c in enumerate(curves):
        if not c.closed:
            endpoints.append(c.vertices[0])
            endpoints.append(c.vertices[-1])
    for j, c in enumerate(curves):
        step = np.diff(c._lift_array, axis=0)
        live = step[:, 0] * step[:, 0] + step[:, 1] * step[:, 1] != 0
        for pt in endpoints:
            rows = np.flatnonzero(live & (c._distance_bounds(pt) <= node_tol))
            if not rows.size:
                continue
            d, t = c._scan(pt, rows)
            k, li = np.unravel_index(np.argmin(d), d.shape)
            if d[k, li] < node_tol:
                cuts[j].append((int(rows[k]), float(t[k, li])))
    return cuts


def _cycle_polylines(n_nodes, edges):
    """The closed polylines of a multigraph's fundamental cycles, in order.

    edges are (u, v, piece), the open polyline piece running from node u to
    node v.  A BFS forest grows from each unvisited node in index order,
    taking each node's edges in edge order.  Each non-forest edge (u, v), in
    edge order, then gives one cycle, walked from u: along the edge to v, up
    the forest from v to the common ancestor, and down to u.  This walk sets
    the sign of the cycle's essential_class.  A piece's first vertex is
    dropped when within 1e-6 of the walk's last, and the walk's last
    vertices while within 1e-9 of its first; a walk left with fewer than 3
    vertices gives nothing.  A self-loop gives its piece, closed, as it is.
    """
    adj = [[] for _ in range(n_nodes)]
    for ei, (u, v, _) in enumerate(edges):
        adj[u].append((v, ei))
        adj[v].append((u, ei))
    parent = [None] * n_nodes
    depth = [0] * n_nodes
    visited = [False] * n_nodes
    tree_edges = set()
    for root in range(n_nodes):
        if visited[root]:
            continue
        visited[root] = True
        queue = [root]
        for u in queue:  # the queue grows as it is walked
            for v, ei in adj[u]:
                if not visited[v]:
                    visited[v] = True
                    parent[v] = (u, ei)
                    depth[v] = depth[u] + 1
                    tree_edges.add(ei)
                    queue.append(v)

    def walked_from(ei, node):
        """The vertices of edge ei's piece, from its end at node."""
        start, _, piece = edges[ei]
        return piece.vertices if start == node else piece.vertices[::-1]

    for ei, (u, v, piece) in enumerate(edges):
        if ei in tree_edges:
            continue
        if u == v:
            yield PillowcasePolyline(piece.vertices, closed=True)
            continue
        up, down = [], []  # from v up to the common ancestor; from it down to u, last first
        a, b = v, u
        while a != b:
            if depth[a] >= depth[b]:
                p, pe = parent[a]
                up.append(walked_from(pe, a))
                a = p
            else:
                p, pe = parent[b]
                down.append(walked_from(pe, p))
                b = p
        verts = list(piece.vertices)
        for pts in up + down[::-1]:
            if pillowcase_distance(verts[-1], pts[0]) < 1e-6:
                pts = pts[1:]
            verts.extend(pts)
        while len(verts) > 2 and pillowcase_distance(verts[0], verts[-1]) < 1e-9:
            verts.pop()
        if len(verts) >= 3:
            yield PillowcasePolyline(tuple(verts), closed=True)


def _essential_candidates(curves):
    """(|class|, curve) for each curve of nonzero essential_class, in order;
    a curve too degenerate to have a class is skipped."""
    for curve in curves:
        try:
            cls = essential_class(curve)
        except DegenerateCurveError:
            continue
        if cls != 0:
            yield abs(cls), curve


def extract_essential_curve(img: PillowcaseImage) -> PillowcasePolyline | None:
    """Find a closed curve of nonzero class in the arcs of an image.

    The closed arcs are candidates as they are.  Unless one has class +-1,
    the planar graph of all arcs (split at mutual intersections and at
    endpoints resting on other arcs, ends merged within node_tol) gives
    one more candidate per fundamental cycle, walked as _cycle_polylines
    says.  Returns a candidate of least |class|, the shortest of those, or
    None.
    """
    curves = img.arcs
    if not curves:
        return None
    node_tol = max(img.chain_threshold, 1e-7)
    candidates = list(_essential_candidates(c for c in curves if c.closed))
    if candidates and min(c for c, _ in candidates) == 1:
        return min(candidates, key=lambda item: (item[0], item[1].length()))[1]
    cuts = {i: [] for i in range(len(curves))}
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            for (pt, trans, i1, t1, i2, t2) in detailed_intersections(curves[i], curves[j]):
                cuts[i].append((i1, t1))
                cuts[j].append((i2, t2))
    for j, extra in _project_endpoint_cuts(curves, node_tol).items():
        cuts[j].extend(extra)
    pieces = []
    for i, c in enumerate(curves):
        pieces.extend(_split_polyline(c, cuts[i]))
    if not pieces:
        return None
    # merge endpoints into graph nodes: piece k runs from endpoint 2k to 2k + 1
    endpoints = [v for p in pieces for v in (p.vertices[0], p.vertices[-1])]
    nodes = distance_components(endpoints, node_tol)
    node_of = {i: node for node, comp in enumerate(nodes) for i in comp}
    edges = [(node_of[2 * k], node_of[2 * k + 1], p) for k, p in enumerate(pieces)]
    candidates.extend(_essential_candidates(_cycle_polylines(len(nodes), edges)))
    if not candidates:
        return None
    return min(candidates, key=lambda item: (item[0], item[1].length()))[1]


# ---------------------------------------------------------------------------
# surgery representations and diagnostics

def find_surgery_representation(img: PillowcaseImage, p: int, q: int,
                                config: SolverConfig | None = None):
    """Representation of the (p, q) Dehn filling found on the image.

    Scans the image arcs for points with p*alpha + q*beta = 0 mod 2pi that
    are carried by an irreducible witness, then refines with the filling
    relator appended.  Returns (representation, boundary_point) or None.
    """
    if math.gcd(p, q) != 1:
        raise ValueError(f"slope ({p}, {q}) is not primitive")
    config = config or SolverConfig()
    pres = img.model.presentation
    filled = pres.with_relator(concat(pow_word(pres.meridian, p), pow_word(pres.longitude, q)))
    # exact repeats (a vertex shared by two crossing segments) would rerun
    # the same refine, so only first occurrences are tried; their witnesses
    # come from one scan
    line = LineForm(p, q, Fraction(0))
    candidates = list(dict.fromkeys(pt for arc in img.arcs for pt in line.crossings(arc)))
    for witness in img.nearest_witnesses(candidates, IRREDUCIBLE_GAP):
        if witness is None:
            continue
        refined = refine_representation(filled, witness.witness, config)
        if refined is None:
            continue
        gap = irreducibility_gap(refined)
        res = relator_residual(refined, filled)
        if res < config.tol and gap > IRREDUCIBLE_GAP:
            return refined, boundary_angles(refined, pres)
    return None


def corner_diagnostics(img: PillowcaseImage):
    """Irreducible witnesses within _CORNER_RADIUS of the corners (0,0) and (pi,0).

    Such witnesses flag possible limits of irreducibles at the corners,
    which obstruct SU(2)-abelianness of every filling; numerically we can
    only report proximity, not decide the limit.  The distances are
    pillowcase_distances, the scalar ones bit for bit.
    """
    xy, gap = img._point_arrays
    idx = np.flatnonzero(~(gap <= IRREDUCIBLE_GAP))
    near = np.zeros(idx.size, dtype=bool)
    for c in (canonicalize(0.0, 0.0), canonicalize(math.pi, 0.0)):
        d = pillowcase_distances(xy[idx], c)
        near |= d < _CORNER_RADIUS
    return [img.points[i] for i in idx[near].tolist()]
