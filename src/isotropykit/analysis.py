"""Numerical verification engines: rotation-invariance harness, functional
independence via finite-difference Jacobian rank, and claim-level basis
comparison.

"Functionally independent" is operationalized as the rank of the FD Jacobian
of the invariant list with respect to a smooth ambient parameterization at a
generic point: 6 coordinates per symmetric tensor, 9 per general tensor, 3
per skew tensor, 3 per vector (2 tangent coordinates for unit vectors, so the
ambient bookkeeping stays exact).  Rank counts singular values above
``sigma_max * 1e-7 * sqrt(max matrix dimension)``.

For orbit-constant invariant lists at points with a trivial generic
stabilizer the attainable rank is ``ambient - 3`` (the rotation orbit
dimension); :class:`RankReport` carries ``min(n, ambient - 3)`` as the
expected value.  Vector-only systems sit outside that bound: their frame
completion is a fixed gauge rather than an equivariant construction, so their
component lists reach rank ``3P - 2``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from isotropykit.classical_bases import boehler_scalars
from isotropykit.lin3 import (
    _EYE,
    DegenerateConfigurationError,
    TensorSystem,
    _degeneracy_groups,
    conjugate,
    eig_sym,
    haar_rotation,
    svd3,
    tensor_system,
)
from isotropykit.spectral_frame import (
    _FULL,
    _SKEW,
    _SYM,
    _VEC,
    _decode,
    build_frame,
    build_svd_frame,
    extract_invariants,
    frame_completion,
    irreducible_count,
)

__all__ = [
    "BasisComparison",
    "Claim",
    "RankReport",
    "VerificationReport",
    "ambient_chart",
    "compare_bases",
    "jacobian_rank",
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
        vecs = [x / np.linalg.norm(x) for x in vecs]
    return tensor_system(sym=sym, nonsym=nonsym, skew=[skew] * n_nonsym,
                         vecs=vecs, unit=[unit] * n_vec)


# ---------------------------------------------------------------------------
# rotation-invariance harness


def verify_isotropy(fn, kind: str, system: TensorSystem, trials: int = 100,
                    rng=None) -> float:
    """Max normalized deviation of ``fn`` from exact isotropy/equivariance
    over Haar-random rotations.

    ``kind`` declares the value: ``"scalar"`` compares values directly,
    ``"vector"`` against ``Q g``, ``"sym_tensor"``/``"full_tensor"`` against
    ``Q G Q^T``.  Deviations are normalized by ``1 + |value|``.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    base = fn(system)
    worst = 0.0
    for _ in range(trials):
        q = haar_rotation(rng)
        rotated = fn(conjugate(q, system))
        if kind == "scalar":
            dev = abs(float(rotated) - float(base)) / (1.0 + abs(float(base)))
        elif kind == "vector":
            dev = float(np.linalg.norm(np.asarray(rotated) - q @ np.asarray(base))
                        / (1.0 + np.linalg.norm(base)))
        elif kind in ("sym_tensor", "full_tensor"):
            dev = float(np.linalg.norm(np.asarray(rotated) - q @ np.asarray(base) @ q.T)
                        / (1.0 + np.linalg.norm(base)))
        else:
            raise ValueError(f"unknown evaluator kind {kind!r}")
        worst = max(worst, dev)
    return worst


# ---------------------------------------------------------------------------
# ambient parameterization and Jacobian rank


def ambient_chart(system0: TensorSystem):
    """Smooth chart ``theta -> TensorSystem`` around a base system.

    Returns ``(dim, to_system)``.  Unit vectors move along two tangent
    directions and are renormalized, so their coordinates contribute exactly
    2 to the ambient dimension.
    """
    # (argument class, code, base); unit vectors have no code
    blocks = [("sym", _SYM, np.array(a)) for a in system0.sym]
    blocks += [("nonsym", _SKEW if is_skew else _FULL, np.array(h))
               for h, is_skew in zip(system0.nonsym, system0.nonsym_skew)]
    for x, is_unit in zip(system0.vecs, system0.vec_unit):
        if is_unit:
            t1, t2 = frame_completion(np.array(x) / np.linalg.norm(x))
            blocks.append(("vecs", None, (np.array(x), t1, t2)))
        else:
            blocks.append(("vecs", _VEC, np.array(x)))
    sizes = [2 if code is None else code.size for _, code, _ in blocks]
    dim = sum(sizes)

    def to_system(theta):
        theta = np.asarray(theta, dtype=float)
        pos = 0
        args = {"sym": [], "nonsym": [], "vecs": []}
        for (cls, code, base), take in zip(blocks, sizes):
            coords = theta[pos:pos + take]
            pos += take
            if code is not None:
                # the identity frame makes the perturbation the coordinates
                # themselves, bit for bit
                args[cls].append(base + _decode(coords, code, _EYE))
            else:
                x0, t1, t2 = base
                x = x0 + coords[0] * t1 + coords[1] * t2
                args[cls].append(x / np.linalg.norm(x))
        return TensorSystem(tuple(args["sym"]), tuple(args["nonsym"]), system0.nonsym_skew,
                            tuple(args["vecs"]), system0.vec_unit)

    return dim, to_system


@dataclass(frozen=True)
class RankReport:
    """FD-Jacobian rank of an invariant list at a generic point."""

    config: str
    ambient_dim: int
    n_invariants: int
    singular_values: tuple
    rank: int
    expected_rank: int
    threshold: float
    seed: int
    step: float


def _check_generic(system: TensorSystem):
    # the frame source must stay away from coalescence for the chart-composed
    # invariant functions to be smooth
    if system.n_sym >= 1:
        if len(eig_sym(system.sym[0], 1e-6)[2]) < 3:
            raise DegenerateConfigurationError(
                "frame tensor has coalescent eigenvalues; rank would drop spuriously")
    elif system.n_nonsym >= 1:
        if len(_degeneracy_groups(svd3(system.nonsym[0])[0], 1e-6)) < 3:
            raise DegenerateConfigurationError(
                "frame tensor has coalescent singular values")
    elif system.n_vec >= 1:
        if np.linalg.norm(system.vecs[0]) <= 1e-6:
            raise DegenerateConfigurationError("frame vector is (near) zero")


# central-difference step in chart coordinates, and the relative singular-value
# threshold of the rank (scaled by sqrt of the larger Jacobian dimension)
_FD_STEP = 1e-6
_RANK_THRESHOLD = 1e-7


def jacobian_rank(invariants, system0: TensorSystem, config: str = "",
                  seed: int = 0) -> RankReport:
    """Numerical rank of an invariant list at ``system0``.

    ``invariants`` is either a callable mapping a system to a value vector or
    an iterable of items with ``.fn``.  The expected rank recorded in the
    report is ``min(n, ambient - 3)``, the bound for orbit-constant functions
    at a point whose rotation orbit is three-dimensional (see the module
    docstring for when a list can legitimately exceed it).
    """
    _check_generic(system0)
    if callable(invariants):
        values_fn = invariants
    else:
        items = tuple(invariants)
        values_fn = lambda s: np.array([item.fn(s) for item in items])
    dim, to_system = ambient_chart(system0)
    n = len(np.asarray(values_fn(system0), dtype=float))
    jac = np.zeros((n, dim))
    for k in range(dim):
        step = np.zeros(dim)
        step[k] = _FD_STEP
        plus = np.asarray(values_fn(to_system(step)), dtype=float)
        minus = np.asarray(values_fn(to_system(-step)), dtype=float)
        jac[:, k] = (plus - minus) / (2.0 * _FD_STEP)
    sv = np.linalg.svd(jac, compute_uv=False) if n and dim else np.zeros(0)
    if sv.size and sv[0] > 0.0:
        threshold = sv[0] * _RANK_THRESHOLD * np.sqrt(max(jac.shape))
        rank = int(np.sum(sv > threshold))
    else:
        threshold = 0.0
        rank = 0
    return RankReport(config=config, ambient_dim=dim, n_invariants=n,
                      singular_values=tuple(float(s) for s in sv), rank=rank,
                      expected_rank=min(n, max(dim - 3, 0)), threshold=float(threshold),
                      seed=seed, step=_FD_STEP)


def spectral_values_fn(svd_variant: bool = False):
    """Invariant-vector evaluator for the spectral list (frame rebuilt per
    call, so the chart composition stays smooth at generic points)."""

    def values(system):
        frame = build_svd_frame(system) if svd_variant else build_frame(system)
        return extract_invariants(system, frame).values()

    return values


# ---------------------------------------------------------------------------
# basis comparison


@dataclass(frozen=True)
class BasisComparison:
    """Counts and generic-point ranks of the classical and spectral scalar
    lists for one configuration."""

    config: str
    classical_count: int | None
    spectral_count: int
    classical_rank: int | None
    spectral_rank: int
    spectral_full_rank: bool
    classical_spans_orbit_space: bool | None


def compare_bases(N: int, M: int, P: int, *, skew: bool = False,
                  unit: bool = False, seed: int = 0) -> BasisComparison:
    """Compare classical and spectral scalar bases at a seeded generic point.

    The classical side exists only for ``M == 0`` or all-skew tensors; for
    general non-symmetric tensors it is reported as ``None``.  Counting is by
    enumeration on the classical side and by the closed form on the spectral
    side.
    """
    spectral_count = irreducible_count(N, M, P, skew_nonsym=skew and M > 0,
                                       all_vectors_unit=unit)
    system0 = seeded_system(N, M, P, skew=skew, unit=unit, seed=seed)
    config = f"N={N} M={M}{' skew' if skew and M else ''} P={P}{' unit' if unit and P else ''}"
    spectral_report = jacobian_rank(spectral_values_fn(), system0,
                                    config=config, seed=seed)
    classical_count = classical_rank = spans = None
    if M == 0 or skew:
        basis = boehler_scalars(N, M, P)
        classical_count = len(basis)
        classical_rank = jacobian_rank(basis.evaluate, system0,
                                       config=config, seed=seed).rank
        spans = classical_rank == spectral_report.rank
    return BasisComparison(
        config=config, classical_count=classical_count,
        spectral_count=spectral_count, classical_rank=classical_rank,
        spectral_rank=spectral_report.rank,
        spectral_full_rank=spectral_report.rank == spectral_count,
        classical_spans_orbit_space=spans)


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

    def add(self, claim: Claim):
        if any(c.claim_id == claim.claim_id for c in self.claims):
            raise ValueError(f"duplicate claim id {claim.claim_id!r}")
        self.claims.append(claim)

    @property
    def all_pass(self) -> bool:
        return all(c.status != "fail" for c in self.claims)

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
