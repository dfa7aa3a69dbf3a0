"""Numerical verification engines: rotation-invariance harness and
functional independence via Jacobian rank.

"Functionally independent" is operationalized as the rank of the Jacobian of
the invariant list with respect to a smooth ambient parameterization at a
generic point: 6 coordinates per symmetric tensor, 9 per general tensor, 3
per skew tensor, 3 per vector (2 tangent coordinates for unit vectors, so the
ambient bookkeeping stays exact).  A spectral list codes every argument in a
frame that only the frame source moves, so each other argument's columns are
exact: the encoding of its chart directions in the fixed base frame, in that
argument's own rows.  The source's columns are exact too, from the
first-order motion of its frame (eigen- or singular triads, or a vector's
completion) and heads, and one ``_tangent`` call writes them all.  Only lists
without a frame (a classical list, or any other callable) take central
differences.  A check scales each argument but a unit vector by the power of
two that puts its largest entry in [0.5, 1): every list here is homogeneous
in each argument, so the rank stays and does not depend on input size.
Rank counts singular values above the larger of ``sigma_max * 1e-7 *
sqrt(max matrix dimension)`` and the round-off of those differences,
``1e3 * eps * max|f(system0)| / step``, so a list of constants has rank 0.
One base frame is built per check (the list's own, or :func:`build_frame`'s
for a classical list); its source's eigen- or singular values must stay
``1e-6 * max`` apart (``lin3._GAP_REL``, the gap the spectral gradients need
too), or the check raises ``DegenerateConfigurationError``.

Vector-only spectral lists reach rank ``3P - 2``, above the ``ambient - 3``
of rotation-invariant functions, because their frame completion is a fixed
gauge rather than an equivariant construction (ROADMAP item 9).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from isotropykit.lin3 import (
    _EYE,
    _GAP_REL,
    DegenerateConfigurationError,
    TensorSystem,
    _central,
    _conjugates,
    _degeneracy_groups,
    _norm,
    _norms,
    _rows,
    _system,
    haar_rotation,
)
from isotropykit.spectral_frame import (
    _FULL,
    _SKEW,
    _SYM,
    _tangent,
    build_frame,
    build_svd_frame,
    extract_invariants,
    frame_completion,
)

__all__ = [
    "Claim",
    "RankReport",
    "VerificationReport",
    "ambient_chart",
    "jacobian_rank",
    "rotation_deviation",
    "seeded_system",
    "spectral_values_fn",
    "verify_isotropy",
]


def seeded_system(n_sym: int, n_nonsym: int, n_vec: int, *, skew: bool = False,
                  unit: bool = False, seed: int = 0) -> TensorSystem:
    """Reproducible generic system for a configuration (standard normal
    entries; unit vectors normalized)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, n_sym, n_nonsym,
                                                        n_vec, int(skew), int(unit)]))
    sym = [0.5 * (m + m.T) for m in rng.standard_normal((n_sym, 3, 3))]
    nonsym = [0.5 * (m - m.T) if skew else m
              for m in rng.standard_normal((n_nonsym, 3, 3))]
    vecs = list(rng.standard_normal((n_vec, 3)))
    if unit:
        vecs = [x / _norm(x) for x in vecs]
        vecs = [x / _norm(x) for x in vecs]  # tensor_system's exact renormalization
    # exactly symmetric or skew, which tensor_system's re-symmetrization would
    # return bit for bit: valid by construction, so built without a check
    return _system(sym, nonsym, (skew,) * n_nonsym, vecs, (unit,) * n_vec)


# ---------------------------------------------------------------------------
# rotation-invariance harness


# how a stack of rotations (T, 3, 3) acts on a stack of item values (n, ...):
# the (T, n, ...) values the items must take at the rotated systems
_ACTIONS = {
    "scalar": lambda q, g: g,
    "vector": lambda q, g: g @ q.swapaxes(-1, -2),
    "sym_tensor": lambda q, g: q[:, None] @ g @ q[:, None].swapaxes(-1, -2),
}
_ACTIONS["full_tensor"] = _ACTIONS["sym_tensor"]


def rotation_deviation(values, rotations, base, kind: str) -> np.ndarray:
    """Per item, the max over rotations of ``||g(Q s) - Q.g(s)|| / (1 + ||g(s)||)``.

    ``base`` stacks the n items' values ``g(s)`` at the unrotated system,
    ``values`` their values at each of the T rotated systems (shape
    ``(T, n, ...)``) and ``rotations`` the T rotations.  ``kind`` says how a
    rotation acts on a value: ``"scalar"`` not at all, ``"vector"`` as
    ``Q g``, ``"sym_tensor"``/``"full_tensor"`` as ``Q G Q^T``.  The norms
    are rescaled where their squares overflow the double range.
    """
    act = _ACTIONS[kind]
    base = np.asarray(base, dtype=float)
    if not (n := len(base)):
        return np.zeros(0)
    scale = 1.0 + _norms(base.reshape(n, -1))
    diff = np.asarray(values, dtype=float) - act(np.asarray(rotations), base)
    return (_norms(diff.reshape(len(diff), n, -1)) / scale).max(axis=0)


def verify_isotropy(fn, kind: str, system: TensorSystem, trials: int = 100,
                    rng=None) -> float:
    """Max normalized deviation of ``fn`` from exact isotropy/equivariance
    over ``trials`` Haar-random rotations (see :func:`rotation_deviation`
    for ``kind`` and the normalization).  The rotated systems come from one
    stacked conjugation; ``fn`` runs once per rotation."""
    if kind not in _ACTIONS:
        raise ValueError(f"unknown evaluator kind {kind!r}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if rng is None:
        rng = np.random.default_rng(0)
    rotations = np.array([haar_rotation(rng) for _ in range(trials)])
    values = [[fn(s)] for s in _rows(_conjugates(rotations, system))]
    return float(rotation_deviation(values, rotations, [fn(system)], kind)[0])


# ---------------------------------------------------------------------------
# ambient parameterization and Jacobian rank


def _chart_blocks(system0: TensorSystem):
    # (argument class, index, base, unit flag, directions) of each chart block,
    # in coordinate order; the rows of the directions are the ambient moves of
    # the block's coordinates: its code's dyads for a tensor, the axes for a
    # vector and two tangents for a unit vector, which is renormalized
    blocks = [("sym", r, a, False, _SYM.dyads) for r, a in enumerate(system0.sym)]
    blocks += [("nonsym", t, h, False, (_SKEW if is_skew else _FULL).dyads)
               for t, (h, is_skew) in enumerate(zip(system0.nonsym, system0.nonsym_skew))]
    for s, (x, is_unit) in enumerate(zip(system0.vecs, system0.vec_unit)):
        dirs = np.array(frame_completion(x / np.linalg.norm(x))) if is_unit else _EYE
        blocks.append(("vecs", s, x, is_unit, dirs))
    return blocks


def _unit_scaled(system: TensorSystem) -> TensorSystem:
    # every argument but a unit vector, scaled exactly to a largest entry in [0.5, 1)
    def scaled(x, unit=False):
        return x if unit else np.ldexp(x, -np.frexp(np.max(np.abs(x)))[1])
    return _system(map(scaled, system.sym), map(scaled, system.nonsym), system.nonsym_skew,
                   map(scaled, system.vecs, system.vec_unit), system.vec_unit)


def ambient_chart(system0: TensorSystem):
    """Smooth chart ``theta -> TensorSystem`` around a base system.

    Returns ``(dim, to_system)``.  Unit vectors move along two tangent
    directions and are renormalized, so their coordinates contribute exactly
    2 to the ambient dimension.
    """
    blocks = _chart_blocks(system0)
    dim = sum(len(dirs) for *_, dirs in blocks)

    def to_system(theta):
        theta = np.asarray(theta, dtype=float)
        args, pos = {"sym": [], "nonsym": [], "vecs": []}, 0
        for cls, _, base, unit, dirs in blocks:
            # the 0/1 dyads place the coordinates themselves, bit for bit
            x = base + (theta[pos:pos + len(dirs)] @ dirs).reshape(base.shape)
            args[cls].append(x / np.linalg.norm(x) if unit else x)
            pos += len(dirs)
        return _system(args["sym"], args["nonsym"], system0.nonsym_skew, args["vecs"],
                       system0.vec_unit)

    return dim, to_system


@dataclass(frozen=True)
class RankReport:
    """Jacobian rank of an invariant list at a generic point; a function of
    the list and the point alone, so it records no seed."""

    ambient_dim: int
    n_invariants: int
    singular_values: tuple
    rank: int
    threshold: float


# central-difference step in chart coordinates, the relative singular-value
# threshold of the rank (scaled by sqrt of the larger Jacobian dimension) and
# its round-off floor per unit of max|f(system0)|
_FD_STEP = 1e-6
_RANK_THRESHOLD = 1e-7
_ROUND_OFF = 1e3 * np.finfo(float).eps / _FD_STEP


def _jacobian(values_fn, system0: TensorSystem):
    """Jacobian of an invariant list in the chart of :func:`ambient_chart`,
    and the list's values at ``system0``.

    A spectral list (one that carries its ``build_frame``) takes every
    column from one ``_tangent`` call over the chart blocks, exact in its
    base frame; only a list without a frame takes central differences,
    through the chart.
    """
    build = getattr(values_fn, "build_frame", None)
    frame = (build or build_frame)(system0)
    # the frame source must stay away from coalescence for the chart-composed
    # invariant functions to be smooth: its singular values (the square roots
    # of a gram frame's eigenvalues; |a|, 0, 0 for a vector frame, whose zeros
    # always group) must fall into as many groups as at a generic point
    heads = np.sqrt(frame.lambdas) if frame.kind in ("gram", "vector") else frame.lambdas
    generic = 2 if frame.kind == "vector" else 3
    if len(_degeneracy_groups(heads.tolist(), _GAP_REL)) < generic:
        raise DegenerateConfigurationError(
            f"the {frame.kind} frame's source has coalescent spectral values; "
            "rank would drop spuriously")
    if build is not None:
        moves = [(cls, index, dirs.reshape(-1, *x.shape))
                 for cls, index, x, _, dirs in _chart_blocks(system0)]
        return _tangent(system0, frame, moves), extract_invariants(system0, frame).values()
    f0 = np.asarray(values_fn(system0), dtype=float)
    dim, to_system = ambient_chart(system0)
    columns = [_central(lambda t: np.asarray(values_fn(to_system(t * e)), dtype=float),
                        _FD_STEP) for e in np.eye(dim)]
    return np.array(columns).reshape(dim, len(f0)).T, f0


def jacobian_rank(values_fn, system0: TensorSystem) -> RankReport:
    """Numerical rank of an invariant list at ``system0``.

    ``values_fn`` maps a system to its value vector.  A list from
    :func:`spectral_values_fn` takes exact columns; only a list without a
    frame takes central differences.  The argument scaling, the rank rule
    and the base-point check are the module docstring's; nothing is drawn.
    """
    jac, f0 = _jacobian(values_fn, _unit_scaled(system0))
    n, dim = jac.shape
    sv = np.linalg.svd(jac, compute_uv=False) if n and dim else np.zeros(0)
    threshold = max(np.max(sv, initial=0.0) * _RANK_THRESHOLD * np.sqrt(max(n, dim)),
                    np.max(np.abs(f0), initial=0.0) * _ROUND_OFF)
    return RankReport(ambient_dim=dim, n_invariants=n,
                      singular_values=tuple(float(s) for s in sv),
                      rank=int(np.sum(sv > threshold)), threshold=float(threshold))


def spectral_values_fn(svd_variant: bool = False):
    """Invariant-vector evaluator for the spectral list (frame rebuilt per
    call, so the chart composition stays smooth at generic points).  It
    carries its frame builder as ``build_frame``."""
    build = build_svd_frame if svd_variant else build_frame

    def values(system):
        return extract_invariants(system, build(system)).values()

    values.build_frame = build
    return values


# ---------------------------------------------------------------------------
# claim-level reporting


_COMPARATORS = {"le": operator.le, "ge": operator.ge, "eq": operator.eq}


@dataclass
class Claim:
    """One verified statement: value compared against a tolerance."""

    claim_id: str
    description: str
    status: str  # "pass" | "fail" | "skip"
    value: float | int | None
    tolerance: float | None
    comparator: str = "le"  # "le": value <= tol passes; "ge": value >= tol
    seed: int = 0

    @classmethod
    def check(cls, claim_id, description, value, tolerance, comparator="le",
              seed=0):
        if comparator not in _COMPARATORS:
            raise ValueError(f"unknown comparator {comparator!r}")
        ok = _COMPARATORS[comparator](value, tolerance)
        return cls(claim_id, description, "pass" if ok else "fail",
                   value, tolerance, comparator, seed)

    def to_dict(self) -> dict:
        return {
            "id": self.claim_id,
            "description": self.description,
            "status": self.status,
            "value": self.value,
            "tolerance": self.tolerance,
            "comparator": self.comparator,
            "seed": self.seed,
        }


@dataclass
class VerificationReport:
    """Per-claim pass/fail results of one verification suite."""

    suite: str
    seed: int
    trials: int
    configuration: dict = field(default_factory=dict)
    claims: list = field(default_factory=list)

    def __post_init__(self):
        self._ids = {c.claim_id for c in self.claims}

    def add(self, claim: Claim):
        if claim.claim_id in self._ids:
            raise ValueError(f"duplicate claim id {claim.claim_id!r}")
        self._ids.add(claim.claim_id)
        self.claims.append(claim)

    def check(self, claim_id, description, value, tolerance, comparator="le"):
        """Record ``value`` (as a float) against ``tolerance`` under this
        report's seed."""
        self.add(Claim.check(claim_id, description, float(value), tolerance,
                             comparator, self.seed))

    def sorted_claims(self):
        return sorted(self.claims, key=lambda c: c.claim_id)

    def to_dict(self, version: str) -> dict:
        return {
            "version": 1,
            "tool_version": version,
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "configuration": self.configuration,
            "claims": [c.to_dict() for c in self.sorted_claims()],
        }
