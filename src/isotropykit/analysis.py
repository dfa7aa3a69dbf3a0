"""Numerical verification engines: rotation-invariance harness and
functional independence via Jacobian rank.

"Functionally independent" is operationalized as the rank of the Jacobian of
the invariant list with respect to a smooth ambient parameterization at a
generic point: 6 coordinates per symmetric tensor, 9 per general tensor, 3
per skew tensor, 3 per vector (2 tangent coordinates for unit vectors, so the
ambient bookkeeping stays exact).  :func:`jacobian_rank` takes the list
itself, a spectral list as its frame builder (``build_frame`` or
``build_svd_frame``) and a classical one as its ``ClassicalScalarBasis``, and
every column is exact.  One ``_tangent`` call writes a spectral list's: the
chart directions of each argument but the frame source, coded in its own
rows, and the source's from the first-order motion of its frame and heads.
A classical basis runs its program once in forward mode, on a jet of the
base system and its chart directions.  Each argument but a unit vector is
first scaled by the power of two that puts its largest entry in [0.5, 1):
every list is homogeneous in each argument, so the rank does not depend on
input size.  Rank counts singular values above the larger of ``sigma_max *
1e-7 * sqrt(max matrix dimension)`` and the round-off floor ``1e9 * eps *
max|f(system0)|``: a unit vector's chart tangents are orthogonal to it only to
round-off, so the column of a constant such as ``a1.a1`` is ~1e-16, not 0.
The base frame (the builder's, or :func:`build_frame`'s for a classical list)
must keep its source's eigen- or singular values ``1e-6 * max`` apart, by the
tensor gradients' rule (``lin3._require_gaps``), or the check raises
``DegenerateConfigurationError`` naming the pair, the gap and the threshold.

Vector-only spectral lists reach rank ``3P - 2``, above the ``ambient - 3``
of rotation-invariant functions, because their frame completion is a fixed
gauge rather than an equivariant construction (ROADMAP item 9).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from isotropykit.classical_bases import ClassicalScalarBasis
from isotropykit.lin3 import (
    _EYE,
    TensorSystem,
    _conjugated,
    _norm,
    _norms,
    _require_gaps,
    _rows,
    _system,
    haar_rotation,
)
from isotropykit.spectral_frame import (
    _FULL,
    _SKEW,
    _SYM,
    SpectralFrame,
    _frame_completion,
    _tangent,
    build_frame,
    extract_invariants,
)

__all__ = [
    "Claim",
    "RankReport",
    "VerificationReport",
    "jacobian_rank",
    "rotation_deviation",
    "seeded_system",
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


def _action(kind):
    # the action of a rotation on values of ``kind``; the one check of a kind
    if kind not in _ACTIONS:
        raise ValueError(f"unknown evaluator kind {kind!r}")
    return _ACTIONS[kind]


def rotation_deviation(values, rotations, base, kind: str) -> np.ndarray:
    """Per item, the max over rotations of ``||g(Q s) - Q.g(s)|| / (1 + ||g(s)||)``.

    ``base`` stacks the n items' values ``g(s)`` at the unrotated system,
    ``values`` their values at each of the T rotated systems (shape
    ``(T, n, ...)``) and ``rotations`` the T rotations.  ``kind`` says how a
    rotation acts on a value: ``"scalar"`` not at all, ``"vector"`` as
    ``Q g``, ``"sym_tensor"``/``"full_tensor"`` as ``Q G Q^T``.  The norms
    are rescaled where their squares overflow the double range.
    """
    act = _action(kind)
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
    _action(kind)  # before any work
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if rng is None:
        rng = np.random.default_rng(0)
    rotations = np.array([haar_rotation(rng) for _ in range(trials)])
    values = [[fn(s)] for s in _rows(_conjugated(rotations, system))]
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
        dirs = np.array(_frame_completion(x / np.linalg.norm(x))) if is_unit else _EYE
        blocks.append(("vecs", s, x, is_unit, dirs))
    return blocks


def _unit_scaled(system: TensorSystem) -> TensorSystem:
    # every argument but a unit vector, scaled exactly to a largest entry in [0.5, 1)
    def scaled(x, unit=False):
        return x if unit else np.ldexp(x, -np.frexp(np.max(np.abs(x)))[1])
    return _system(map(scaled, system.sym), map(scaled, system.nonsym), system.nonsym_skew,
                   map(scaled, system.vecs, system.vec_unit), system.vec_unit)


def _forward(basis, system0: TensorSystem) -> np.ndarray:
    # a classical basis's values at system0 (row 0) and exact derivatives along
    # the K chart directions (rows 1..K), from one run of its program on a jet
    blocks = _chart_blocks(system0)
    k = sum(len(dirs) for *_, dirs in blocks)
    members, row = {"sym": [], "nonsym": [], "vecs": []}, 1
    for cls, _, x, _, dirs in blocks:
        jet = np.zeros((1 + k,) + x.shape)
        jet[0], jet[row:row + len(dirs)] = x, dirs.reshape(-1, *x.shape)
        members[cls].append(jet)
        row += len(dirs)
    return basis._run(_system(members["sym"], members["nonsym"], system0.nonsym_skew,
                              members["vecs"], system0.vec_unit), jet=True)


@dataclass(frozen=True)
class RankReport:
    """Jacobian rank of an invariant list at a generic point; a function of
    the list and the point alone, so it records no seed."""

    ambient_dim: int
    n_invariants: int
    singular_values: tuple
    rank: int
    threshold: float


# the relative singular-value threshold of the rank (scaled by sqrt of the
# larger Jacobian dimension) and its round-off floor per unit of
# max|f(system0)|, which keeps a constant's exact column out (module docstring)
_RANK_THRESHOLD = 1e-7
_ROUND_OFF = 1e9 * np.finfo(float).eps


def _jacobian(lst, system0: TensorSystem):
    """Exact Jacobian of an invariant list along the chart directions of
    :func:`_chart_blocks`, and the list's values at ``system0``: one
    ``_tangent`` call in the frame of a spectral list's builder, or
    :func:`_forward` for a classical scalar basis.  Anything else is a
    ``TypeError``."""
    classical = isinstance(lst, ClassicalScalarBasis)
    frame = (build_frame if classical else lst)(system0)
    if not isinstance(frame, SpectralFrame):
        raise TypeError("jacobian_rank takes a frame builder (build_frame or "
                        f"build_svd_frame) or a classical scalar basis, not {lst!r}")
    # the chart-composed invariant functions are smooth only away from the
    # source's coalescence (a gram frame's singular values are the roots of its
    # eigenvalues); a vector frame's one length cannot coalesce
    if frame.kind != "vector":
        _require_gaps(np.sqrt(frame.lambdas) if frame.kind == "gram" else frame.lambdas,
                      f"the {frame.kind} frame's source values")
    if classical:
        jet = _forward(lst, system0)
        return jet[1:].T, jet[0]
    moves = [(cls, index, dirs.reshape(-1, *x.shape))
             for cls, index, x, _, dirs in _chart_blocks(system0)]
    return _tangent(system0, frame, moves), extract_invariants(system0, frame).values()


def jacobian_rank(lst, system0: TensorSystem) -> RankReport:
    """Numerical rank of an invariant list at ``system0``.

    ``lst`` is a spectral list's frame builder (``build_frame`` or
    ``build_svd_frame``) or a classical scalar basis; both take exact columns
    (:func:`_jacobian`).  The argument scaling, the rank rule and the
    base-point check are the module docstring's; nothing is drawn.
    """
    jac, f0 = _jacobian(lst, _unit_scaled(system0))
    n, dim = jac.shape
    sv = np.linalg.svd(jac, compute_uv=False) if n and dim else np.zeros(0)
    threshold = max(np.max(sv, initial=0.0) * _RANK_THRESHOLD * np.sqrt(max(n, dim)),
                    np.max(np.abs(f0), initial=0.0) * _ROUND_OFF)
    return RankReport(ambient_dim=dim, n_invariants=n,
                      singular_values=tuple(float(s) for s in sv),
                      rank=int(np.sum(sv > threshold)), threshold=float(threshold))


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

    def to_dict(self) -> dict:
        # in field order, the id first
        return {"id": self.claim_id, "description": self.description,
                "status": self.status, "value": self.value, "tolerance": self.tolerance,
                "comparator": self.comparator, "seed": self.seed}


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
        if comparator not in _COMPARATORS:
            raise ValueError(f"unknown comparator {comparator!r}")
        value = float(value)
        status = "pass" if _COMPARATORS[comparator](value, tolerance) else "fail"
        self.add(Claim(claim_id, description, status, value, tolerance, comparator,
                       self.seed))

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
