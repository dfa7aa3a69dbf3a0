"""Exact-shape 3D linear algebra used throughout the package.

Everything is a plain float numpy array: vectors have shape (3,), tensors
shape (3, 3).  Orthonormal triads are returned as (3, 3) arrays whose ROWS
are the basis vectors, so ``v[i]`` is the i-th unit vector and a symmetric
tensor rebuilds as ``sum(lams[i] * np.outer(v[i], v[i]))``.

Symmetric and skew matrices are kept *exactly* symmetric/skew in floating
point: constructors and :func:`conjugate` re-symmetrize through ``H + H.T``
with ``H = 0.5 * M`` (exact, and finite near the double range) rather than
trusting the caller.  A rotated member that overflows is a ``ValueError``
from :func:`conjugate`, never a non-finite member.

:class:`TensorSystem` is the validation boundary.  Its members are trusted
to be finite, correctly shaped and exactly symmetric or skew, and they are
read-only: every system is built by :func:`tensor_system` (validate, then
the unchecked ``_system``) or ``_system``, which freezes the members that
its caller made valid (:func:`conjugate`, the seeded systems, the rank
check's scaled base and jet, the gradients' moved systems).  Code behind the boundary
does not check them again.  Every public function still validates its own
arguments.

Every "is this number negligible?" cut-off in the package is one rule,
:func:`_thr`: ``tol * max(size, sys.float_info.min)``, where ``size`` is the
norm, or the largest absolute eigen- or singular value, of the argument the
number is judged against.  Results therefore do not depend on the caller's
units; the one absolute floor is the smallest normal double, below which a
size is not trusted (a vector whose squared norm falls there is zero).

The public functions take one system or one tensor.  The verify sweeps hold
their T rotated or drawn systems as one *stack*: a :class:`TensorSystem`
whose members carry a leading axis of T (``_conjugates``, ``_stack``;
``_rows`` splits one back into systems).  The private stacked kernels
(``_conjugates``, ``_eighs``, ``_svds``, ``_row_norms``) give every row the
bits of the one-system function: each product is the matmul form that
rounds as the single call does.  Both paths stay because the bulk callers
ask for one system at a time, where the stacked code costs about 1.6 times
as much (conjugation) and 2.3 times as much (a frame and its list).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateConfigurationError",
    "DegenerateInputError",
    "TensorSystem",
    "conjugate",
    "eig_sym",
    "haar_rotation",
    "mat3",
    "rotation_matrix",
    "skew_matrix",
    "svd3",
    "sym_matrix",
    "tensor_system",
    "vec3",
]

_EYE = np.eye(3)
# upper-triangle index pairs of a 3x3 tensor: strictly off-diagonal (the
# independent entries of a skew tensor) and with the diagonal (symmetric)
_OFF_PAIRS = ((0, 1), (0, 2), (1, 2))
_SYM_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_CLASS_TOL = 1e-12  # of the symmetric, skew and rotation checks
# relative eigen-/singular-value gap below which frame slots form one group,
# and relative size below which a gauge probe cannot fix a sign
_TOL_REL = 1e-8
# relative gap a formula that divides by an eigen-/singular-value gap needs
_GAP_REL = 1e-6
# the smallest normal double: no size counts as smaller
_FLOOR = sys.float_info.min


class DegenerateInputError(ValueError):
    """An argument is zero (or too close to it) for the requested construction."""


class DegenerateConfigurationError(ValueError):
    """Eigenvalues/singular values coalesce where a formula divides by a gap."""


def _as_array(x, shape, name):
    try:
        a = np.asarray(x, dtype=float)
    except TypeError:
        raise ValueError(f"{name} entries must be numbers") from None
    except OverflowError:  # an int beyond the double range
        raise ValueError(f"{name} has non-finite entries") from None
    if a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    return a


def _thr(tol, size):
    # the cut-off below which a number is negligible against ``size``
    return tol * max(size, _FLOOR)


def _central(f, h):
    # the central difference of ``f`` at 0 with step ``h``; ``f(t)`` perturbs
    # as ``x + t * e``, so ``f(-h)`` evaluates exactly at ``x - h * e``
    return (f(h) - f(-h)) / (2.0 * h)


def _norm(x) -> float:
    # np.linalg.norm's own arithmetic (one dot of the flattened array, one sqrt)
    # without its dispatch; rescaled where the dot leaves the normal range
    f = x.ravel("K")
    s = np.vdot(f, f)  # the numbers of f @ f, without its overflow warning
    if (s == math.inf or s < _FLOOR) and 0.0 < (m := abs(f).max()) < math.inf:
        return m * _norm(f / m)
    return math.sqrt(s)


def _row_norms(x) -> np.ndarray:
    # :func:`_norm` of each row of a (T, k) stack, bit for bit: a (1, k) @ (k, 1)
    # product is the dot that vdot takes
    with np.errstate(over="ignore"):
        s = (x[:, None] @ x[..., None])[:, 0, 0]
    r = np.sqrt(s)
    for t in np.flatnonzero((s == math.inf) | (s < _FLOOR)):
        r[t] = _norm(x[t])
    return r


def _norms(x) -> np.ndarray:
    # np.linalg.norm over the last axis, with :func:`_norm`'s rescale of each
    # row whose squares overflow
    with np.errstate(over="ignore"):
        r = np.linalg.norm(x, axis=-1)
        for k in zip(*np.nonzero(np.isinf(r))):
            r[k] = _norm(x[k])
    return r


def vec3(x) -> np.ndarray:
    """Validate a finite 3-vector."""
    return _as_array(x, (3,), "vector")


def mat3(x) -> np.ndarray:
    """Validate a finite 3x3 tensor."""
    return _as_array(x, (3, 3), "tensor")


def _mirror_defect(a, sign):
    # max |a_ij - sign a_ji| and max |a_ij| of a finite 3x3 array: the
    # numbers of the elementwise numpy expressions, taken on Python floats
    r = a.tolist()
    return (max([abs(r[i][j] - sign * r[j][i]) for i, j in _SYM_PAIRS]),
            max(map(abs, r[0] + r[1] + r[2])))


def _resym(a, skew=False):
    # the symmetric (skew) part of ``a``, halved first to stay in the double range
    h = 0.5 * a
    ht = h.swapaxes(-1, -2)
    return h - ht if skew else h + ht


def _check_mirror(a, sign, message):
    # ValueError(message) unless the finite 3x3 ``a`` equals ``sign * a.T`` to
    # within _CLASS_TOL of its largest entry
    gap, size = _mirror_defect(a, sign)
    if gap > _thr(_CLASS_TOL, size):
        raise ValueError(message)


def sym_matrix(x) -> np.ndarray:
    """Return ``x`` exactly symmetrized, rejecting clearly asymmetric input."""
    a = mat3(x)
    _check_mirror(a, 1.0, "matrix is not symmetric")
    return _resym(a)


def skew_matrix(x) -> np.ndarray:
    """Return ``x`` exactly skew-symmetrized (zero diagonal), rejecting bad input."""
    a = mat3(x)
    _check_mirror(a, -1.0, "matrix is not skew-symmetric")
    return _resym(a, skew=True)


def rotation_matrix(x) -> np.ndarray:
    """Validate a proper rotation: ||Q Q^T - I|| and |det Q - 1| at most 1e-12."""
    q = mat3(x)
    # ||Q|| > 2 puts ||Q Q^T - I|| above 0.5, and below it Q Q^T cannot
    # overflow: the error comes without a numpy warning and without an errstate
    if _norm(q) > 2.0 or _norm(q @ q.T - _EYE) > _CLASS_TOL:
        raise ValueError("matrix is not orthogonal")
    if abs(np.linalg.det(q) - 1.0) > _CLASS_TOL:
        raise ValueError("matrix is not a proper rotation (det != 1)")
    return q


# ---------------------------------------------------------------------------
# symmetric eigendecomposition and singular value decomposition


def _cross(a, b):
    # 3-vector cross product as a list; same arithmetic as np.cross without
    # its axis handling, which dominates the cost at this size
    return [a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0]]


def _fix_sign_convention(rows):
    # the triad of the three lists ``rows`` with the largest-magnitude component
    # of the first two vectors made positive (first such component on ties) and
    # the third completing a right-handed triad, and the sign taken by each row
    signs = [1.0, 1.0, 1.0]
    for i in (0, 1):
        row = rows[i]
        mags = list(map(abs, row))
        if row[mags.index(max(mags))] < 0.0:
            rows[i] = [-x for x in row]
            signs[i] = -1.0
    w = _cross(rows[0], rows[1])
    # w . v2 is +-1 to rounding, so any summation order gives its sign
    x, y, z = rows[2]
    if w[0] * x + w[1] * y + w[2] * z < 0.0:
        signs[2] = -1.0
    v = np.array([rows[0], rows[1], w])
    last = v[2]
    last /= math.sqrt(last @ last)
    return v, signs


def _fix_signs(rows):
    # :func:`_fix_sign_convention` over a (T, 3, 3) stack of triads, bit for
    # bit, with the (T, 3) signs taken
    head = rows[:, :2]
    big = np.take_along_axis(head, np.abs(head).argmax(2)[..., None], 2)
    signs = np.where(big < 0.0, -1.0, 1.0)
    a, b = (head * signs).swapaxes(0, 1)
    w = np.stack(_cross(a.T, b.T), 1)
    third = np.where((w * rows[:, 2]).sum(1) < 0.0, -1.0, 1.0)  # any order: +-1
    w /= np.sqrt(w[:, None] @ w[..., None])[:, 0]
    return np.stack([a, b, w], 1), np.concatenate([signs[..., 0], third[:, None]], 1)


# the partitions of {0, 1, 2}, shared by every frame, by which neighbour gaps close
_PARTITIONS = {(False, False): ((0,), (1,), (2,)), (True, False): ((0, 1), (2,)),
               (False, True): ((0,), (1, 2)), (True, True): ((0, 1, 2),)}


def _degeneracy_groups(lams, tol_rel):
    thr = _thr(tol_rel, max(map(abs, lams)))
    return _PARTITIONS[lams[0] - lams[1] <= thr, lams[1] - lams[2] <= thr]


def eig_sym(a):
    """Eigendecomposition of a symmetric 3x3 tensor.

    Returns ``(lams, v, groups)``: eigenvalues sorted descending, matching
    unit eigenvectors as the rows of ``v``, and the degeneracy partition of
    ``{0, 1, 2}`` grouping eigenvalues closer than ``1e-8 * max|lam|``
    (``_TOL_REL``, the frames' grouping tolerance, through :func:`_thr`).

    The triad is right-handed with ``v[2] = cross(v[0], v[1])`` and the sign
    of ``v[0]``, ``v[1]`` fixed so their largest-magnitude component is
    positive.  The factorization is LAPACK's (``numpy.linalg.eigh``), which
    scales internally, so the reconstruction
    ``sum(lams[i] * outer(v[i], v[i]))`` matches ``a`` to ~1e-15 * ||a|| at
    every representable scale.
    """
    lams, w = np.linalg.eigh(sym_matrix(a))
    lams = lams[::-1].copy()
    v, _ = _fix_sign_convention(w.T[::-1].tolist())
    return lams, v, _degeneracy_groups(lams.tolist(), _TOL_REL)


def svd3(f):
    """Singular value decomposition of a 3x3 tensor.

    Returns ``(sv, v, u)`` with singular values descending and >= 0 and
    ``f == sum(sv[i] * outer(v[i], u[i]))`` to ~1e-15 * ||f||.  The rows of
    ``v`` are the left singular vectors (right-handed, same sign convention
    as :func:`eig_sym`); the rows of ``u`` are the matching right singular
    vectors with signs slaved to the reconstruction, so ``u`` is
    right-handed only when ``det f >= 0``.  The factorization is LAPACK's
    (``numpy.linalg.svd``) applied to ``f`` itself, never to ``f f^T``, so
    small singular values keep their relative accuracy.
    """
    f = mat3(f)
    left, sv, right_t = np.linalg.svd(f)
    v, signs = _fix_sign_convention(left.T.tolist())
    return sv, v, right_t * np.array(signs)[:, None]


def _eighs(a):
    # the eigenvalues (T, 3) and triads (T, 3, 3) of :func:`eig_sym` on a
    # stack of finite symmetric tensors, bit for bit, without the groups
    lams, w = np.linalg.eigh(_resym(a))
    return lams[:, ::-1], _fix_signs(w.swapaxes(1, 2)[:, ::-1])[0]


def _svds(f):
    # :func:`svd3` on a (T, 3, 3) stack of finite tensors, bit for bit
    left, sv, right_t = np.linalg.svd(f)
    v, signs = _fix_signs(left.swapaxes(1, 2))
    return sv, v, right_t * signs[..., None]


# ---------------------------------------------------------------------------
# random rotations


def haar_rotation(rng: np.random.Generator) -> np.ndarray:
    """Draw a rotation from the Haar (uniform) distribution on SO(3).

    Uses the uniform-unit-quaternion method; the only state touched is the
    caller's generator.
    """
    q = rng.standard_normal(4)
    n = np.linalg.norm(q)
    while n < 1e-6:  # astronomically rare; resample rather than divide by ~0
        q = rng.standard_normal(4)
        n = np.linalg.norm(q)
    w, x, y, z = q / n
    return np.array([
        [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
        [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
        [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
    ])


# ---------------------------------------------------------------------------
# tensor systems


@dataclass(frozen=True)
class TensorSystem:
    """Ordered argument list: symmetric tensors, general/skew tensors, vectors.

    ``nonsym_skew[t]`` flags ``nonsym[t]`` as skew-symmetric; ``vec_unit[s]``
    flags ``vecs[s]`` as a unit vector.  Instances are immutable values (the
    arrays are marked read-only); build them through :func:`tensor_system`.
    """

    sym: tuple = ()
    nonsym: tuple = ()
    nonsym_skew: tuple = ()
    vecs: tuple = ()
    vec_unit: tuple = ()

    @property
    def n_sym(self) -> int:
        return len(self.sym)

    @property
    def n_nonsym(self) -> int:
        return len(self.nonsym)

    @property
    def n_vec(self) -> int:
        return len(self.vecs)

    def shape(self) -> tuple[int, int, int]:
        return (self.n_sym, self.n_nonsym, self.n_vec)


def _freeze(a):
    # mark a float array that nothing else holds read-only, in place
    a.setflags(write=False)
    return a


def _finite(a):
    # ``a``, or a ValueError if an overflow made it non-finite
    if not all(map(math.isfinite, a.ravel().tolist())):
        raise ValueError("a rotated member is not finite")
    return a


def tensor_system(sym=(), nonsym=(), skew=None, vecs=(), unit=None) -> TensorSystem:
    """Build a validated :class:`TensorSystem`.

    ``skew`` and ``unit`` are per-entry flags (default all ``False``).
    Symmetric/skew tensors are exactly (re)symmetrized after a mirror check
    relative to their largest entry (1e-12); unit-flagged vectors must be
    within 1e-9 of unit norm and are renormalized exactly.  At least one
    argument is required.
    """
    sym = tuple(sym)
    nonsym = tuple(nonsym)
    vecs = tuple(vecs)
    skew = tuple(map(bool, skew if skew is not None else [False] * len(nonsym)))
    unit = tuple(map(bool, unit if unit is not None else [False] * len(vecs)))
    if len(skew) != len(nonsym):
        raise ValueError("one skew flag per non-symmetric tensor required")
    if len(unit) != len(vecs):
        raise ValueError("one unit flag per vector required")
    if not (sym or nonsym or vecs):
        raise ValueError("tensor system must contain at least one argument")
    out_sym = [sym_matrix(a) for a in sym]
    out_nonsym = [skew_matrix(h) if is_skew else np.array(mat3(h))
                  for h, is_skew in zip(nonsym, skew)]
    out_vecs = []
    for x, is_unit in zip(vecs, unit):
        x = vec3(x)
        if is_unit:
            n = _norm(x)
            if abs(n - 1.0) > 1e-9:
                raise ValueError(f"unit-flagged vector has norm {n!r}")
        out_vecs.append(x / n if is_unit else np.array(x))
    return _system(out_sym, out_nonsym, skew, out_vecs, unit)


def _system(sym, nonsym, skew, vecs, unit) -> TensorSystem:
    # the system of members that nothing else holds and that are valid for
    # their class and flags, frozen and wrapped without a check
    return TensorSystem(tuple(map(_freeze, sym)), tuple(map(_freeze, nonsym)), skew,
                        tuple(map(_freeze, vecs)), unit)


def conjugate(q, system: TensorSystem) -> TensorSystem:
    """Rotate every argument: A -> Q A Q^T, H -> Q H Q^T, a -> Q a.

    Symmetry classes are preserved exactly (outputs are re-symmetrized /
    re-skewed bit-exactly); flags carry over; an overflow is a ``ValueError``.
    """
    return _conjugated(rotation_matrix(q), system)


def _conjugates(rotations, system: TensorSystem) -> TensorSystem:
    # the stack of :func:`conjugate` by each rotation of the (T, 3, 3) stack
    # ``rotations``, bit for bit and with its ValueErrors: one matmul per member
    q = _as_array(rotations, np.shape(rotations)[:1] + (3, 3), "tensor")
    with np.errstate(over="ignore", invalid="ignore"):
        orth = _row_norms((q @ q.swapaxes(1, 2) - _EYE).reshape(-1, 9)) > _CLASS_TOL
        bad = orth | (abs(np.linalg.det(q) - 1.0) > _CLASS_TOL)
    if bad.any():
        raise ValueError("matrix is not orthogonal" if orth[bad.argmax()]
                         else "matrix is not a proper rotation (det != 1)")
    return _conjugated(q, system)


def _conjugated(q, system):
    # ``system`` rotated by a valid rotation ``q``, or stacked by a stack of them
    qt = q.swapaxes(-1, -2)
    # an overflow is conjugate's one-line error, not numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        sym = [_finite(_resym(q @ a @ qt)) for a in system.sym]
        nonsym = [_finite(_resym(q @ h @ qt, skew=True) if is_skew else q @ h @ qt)
                  for h, is_skew in zip(system.nonsym, system.nonsym_skew)]
        vecs = [_finite(q @ a) for a in system.vecs]
    return _system(sym, nonsym, system.nonsym_skew, vecs, system.vec_unit)


def _stack(systems) -> TensorSystem:
    # the stack of systems of one shape and flags
    def members(cls):
        return [np.array(xs) for xs in zip(*(getattr(s, cls) for s in systems))]
    return _system(members("sym"), members("nonsym"), systems[0].nonsym_skew,
                   members("vecs"), systems[0].vec_unit)


def _rows(stack: TensorSystem) -> list:
    # the systems of a stack, in order
    t = len((stack.sym + stack.nonsym + stack.vecs)[0])
    sym, nonsym, vecs = (list(zip(*xs)) or [()] * t
                         for xs in (stack.sym, stack.nonsym, stack.vecs))
    return [TensorSystem(a, h, stack.nonsym_skew, x, stack.vec_unit)
            for a, h, x in zip(sym, nonsym, vecs)]
