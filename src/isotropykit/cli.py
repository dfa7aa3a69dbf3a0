"""Command-line front end.

Three subcommands:

* ``counts``  -- irreducible spectral counts vs classical enumeration
* ``verify``  -- run a named verification suite, print one line per claim,
  optionally write a machine-readable JSON report
* ``frame``   -- build the spectral frame of a system file and print the
  labeled invariant list

A suite takes exactly the tuning flags its ``run_<suite>`` declares, and
any other one exits 2:

* ``isotropy``, ``reconstruction`` -- ``--input``, ``--trials``, ``--tol``
* ``rank`` -- ``--input`` or ``--n/--m/--p/--skew/--unit-vectors``, and ``--svd``
* ``gradients`` -- ``--trials``
* ``p-property``, ``hyperelastic`` -- ``--trials``, ``--tol``
* ``coalescence`` -- ``--tol``

Exit codes: 0 all claims pass, 1 numerical failure (failing claim ids are
listed), 2 usage or input errors.  The environment variable
``ISOTROPYKIT_SEED`` overrides the default seed; an explicit ``--seed`` wins.
Reports are byte-identical across reruns with identical inputs, seed, and
version (reports hold no timings or other volatile fields; floats use
shortest round-trip formatting).
"""

from __future__ import annotations

import argparse
import functools
import inspect
import itertools
import json
import os
import sys

import numpy as np

from isotropykit import __version__
from isotropykit.analysis import (
    Claim,
    VerificationReport,
    jacobian_rank,
    rotation_deviation,
    seeded_system,
    verify_isotropy,
)
from isotropykit.classical_bases import (
    boehler_scalars,
    smith_sym_tensors,
    smith_vectors,
)
from isotropykit.lin3 import (
    _conjugated,
    _eighs,
    _norm,
    _row_norms,
    _stack,
    _svds,
    haar_rotation,
    tensor_system,
)
from isotropykit.potentials import (
    HyperelasticModel,
    degeneracy_sensitivity,
    fd_grad_nonsym_tensor,
    fd_grad_sym_tensor,
    fd_grad_vector,
    grad_nonsym_tensor,
    grad_sym_tensor,
    grad_vector,
    hyperelastic_stress,
    polynomial_ti_model,
    ti_invariants,
)
from isotropykit.representation import (
    _classical_bases,
    check_coaxiality,
    check_p_property,
    coalescence_structure,
    example2_invariants,
    project_tensor,
    project_vector,
    reconstruct_tensor,
    reconstruct_vector,
)
from isotropykit.spectral_frame import (
    _frame_rows,
    _frames,
    _values,
    build_frame,
    build_svd_frame,
    extract_invariants,
    irreducible_count,
    rebuild_system,
)

SUITES = ("isotropy", "reconstruction", "rank", "gradients", "p-property",
          "coalescence", "hyperelastic")

# counts quoted in the literature for the two-tensor/two-vector viscoelastic
# model; our enumeration of the stated lists gives different totals, so both
# are reported side by side
LITERATURE_VISCOELASTIC = {"scalars": 37, "tensors": 36}


# ---------------------------------------------------------------------------
# system files


def _known_keys(obj, keys, where):
    # a key the format does not define is an error, not silently dropped data
    for key in obj:
        if key not in keys:
            raise ValueError(f'unknown key "{key}" in {where}')


def _entry_list(data, key, field, flag):
    entries = data.get(key, [])
    if not isinstance(entries, list) or not all(
            isinstance(e, dict) and field in e for e in entries):
        raise ValueError(f'"{key}" must be a list of objects with a "{field}" field')
    for e in entries:
        _known_keys(e, (field, flag), f'"{key}" entries')
    return entries


def _flags(entries, key, flag):
    # an absent flag is false; a present one must be a JSON boolean
    values = [e.get(flag, False) for e in entries]
    if not all(isinstance(v, bool) for v in values):
        raise ValueError(f'"{flag}" in "{key}" entries must be true or false')
    return values


def _numbers(value, key):
    # ``value``, if every leaf of its nested lists is a JSON number: json
    # reads ``true`` as a bool and ``"1"`` as a str, which numpy takes for 1.0
    stack = [value]
    while stack:
        if isinstance(x := stack.pop(), list):
            stack += x
        elif isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ValueError(f'"{key}" entries must be JSON numbers')
    return value


def load_system_file(path: str):
    """Parse and validate a version-1 system file (JSON)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("system file is nested too deeply to parse") from None
    if not isinstance(data, dict):
        raise ValueError("system file must be a JSON object")
    version = data.get("version")
    if isinstance(version, bool) or version != 1:  # json's true == 1
        raise ValueError(f"unsupported system file version {version!r}")
    _known_keys(data, ("version", "sym", "nonsym", "vecs"), "system file")
    sym = data.get("sym", [])
    if not isinstance(sym, list):
        raise ValueError('"sym" must be a list of matrices')
    nonsym_entries = _entry_list(data, "nonsym", "matrix", "skew")
    vec_entries = _entry_list(data, "vecs", "v", "unit")
    return tensor_system(
        sym=_numbers(sym, "sym"),
        nonsym=_numbers([e["matrix"] for e in nonsym_entries], "matrix"),
        skew=_flags(nonsym_entries, "nonsym", "skew"),
        vecs=_numbers([e["v"] for e in vec_entries], "v"),
        unit=_flags(vec_entries, "vecs", "unit"))


# ---------------------------------------------------------------------------
# suite helpers


def _tag(n, m, p, skew=False, unit=False):
    # the claim-id tag of a configuration
    return f"N{n}M{m}P{p}" + "-skew" * skew + "-unit" * unit


def _configs(system, seed, shapes):
    # ``(tag, system)`` of the input system, or of each seeded ``(n, m, p,
    # skew)`` of ``shapes``
    if system is not None:
        return [("input-" + _tag(*system.shape()), system)]
    return [(_tag(n, m, p, skew), seeded_system(n, m, p, skew=skew, seed=seed))
            for n, m, p, skew in shapes]


# claim-id word and description of each kind of classical item
_CLASSICAL_ISOTROPY = {
    "scalar": ("scalar", "classical scalar invariant under rotation"),
    "vector": ("vector", "classical generator vector equivariance"),
    "sym_tensor": ("tensor", "classical generator tensor equivariance"),
}


def run_isotropy(seed: int, trials: int = 100, tol: float = 1e-9,
                 system=None) -> VerificationReport:
    """Rotation-invariance of every classical item and spectral invariant,
    plus negative controls on raw coordinates.  Each configuration's rotated
    systems are one stack: one conjugation, one frame build and one block of
    lists for all the trials."""
    report = VerificationReport("isotropy", seed, trials,
                                {"tol": tol, "input": system is not None})
    rng = np.random.default_rng(seed)
    shapes = [(2, 1, 2, True), (1, 0, 1, False), (0, 1, 1, False)]
    for tag, sys0 in _configs(system, seed, shapes):
        rotations = np.array([haar_rotation(rng) for _ in range(trials)])
        conjugated = _conjugated(rotations, sys0)
        if all(sys0.nonsym_skew):
            for basis in _classical_bases(*sys0.shape()):
                # one run of the basis over the unrotated system, one over the stack
                word, description = _CLASSICAL_ISOTROPY[basis.kind]
                worst = rotation_deviation(basis.evaluate(conjugated), rotations,
                                           basis.evaluate(sys0), basis.kind)
                for label, dev in zip(basis.labels(), worst):
                    report.check(f"isotropy/classical-{word}/{tag}/{label}",
                                 description, dev, tol)
        frame = build_frame(sys0)
        if not frame.is_degenerate:
            values = _values(conjugated, *_frames(conjugated))
            inv = extract_invariants(sys0, frame)
            worst = rotation_deviation(values, rotations, inv.values(), "scalar")
            for label, dev in zip(inv.labels(), worst):
                report.check(f"isotropy/spectral/{tag}/{label}",
                             "spectral invariant under rotation", dev, tol)
    # negative controls: raw ambient coordinates must NOT look isotropic
    control = seeded_system(1, 0, 1, seed=seed)
    rotations = np.array([haar_rotation(rng) for _ in range(trials)])
    raw = lambda s: (s.sym[0][..., 0, 0], s.vecs[0][..., 0])
    worst = rotation_deviation(np.transpose(raw(_conjugated(rotations, control))),
                               rotations, raw(control), "scalar")
    for cid, dev in zip(("sym-entry", "vec-entry"), worst):
        report.check(f"isotropy/negative-control/{cid}",
                     "raw coordinate must fail the harness", dev, 1e-3, comparator="ge")
    return report


def run_reconstruction(seed: int, trials: int = 100, tol: float = 1e-12,
                       system=None) -> VerificationReport:
    """Completeness witnesses (system rebuilt from frame + invariants) and the
    generator-basis spanning checks."""
    report = VerificationReport("reconstruction", seed, trials, {"tol": tol})
    rng = np.random.default_rng(seed)
    rel = lambda x, y: _norm(x - y) / (1.0 + _norm(x))
    shapes = [(2, 1, 2, True), (1, 1, 1, False), (0, 2, 1, False), (0, 0, 2, False)]

    def residuals(sys0, frame):
        # of each argument rebuilt from the frame and the invariants
        back = rebuild_system(extract_invariants(sys0, frame), frame)
        return list(map(rel, sys0.sym + sys0.nonsym + sys0.vecs,
                        back.sym + back.nonsym + back.vecs))

    for tag, sys0 in _configs(system, seed, shapes):
        for k, res in enumerate(residuals(sys0, build_frame(sys0))):
            report.check(f"reconstruction/{tag}/arg{k}",
                         "argument rebuilt from frame + invariants", res, tol)
        if sys0.n_nonsym >= 1:
            report.check(f"reconstruction/{tag}/svd-variant",
                         "argument rebuilt through the SVD frame",
                         max(residuals(sys0, build_svd_frame(sys0))), tol)
    # factorization self-residuals: each trial's symmetric and general draw,
    # in trial order, as one stack of each
    def self_residual(x, s, v, u):
        # the largest rel of x against its rebuilt sum_i s_i v_i (x) u_i
        dyads = s[..., None, None] * (v[..., None] * u[..., None, :])
        rebuilt = (dyads[:, 0] + dyads[:, 1] + dyads[:, 2]).reshape(-1, 9)
        x = x.reshape(-1, 9)
        return max(0.0, float((_row_norms(x - rebuilt) / (1.0 + _row_norms(x))).max()))

    m, f = rng.standard_normal((trials, 2, 3, 3)).swapaxes(0, 1)
    a = 0.5 * (m + m.swapaxes(1, 2))
    lams, v = _eighs(a)
    report.check("reconstruction/eig-sym", "eigendecomposition self-residual",
                 self_residual(a, lams, v, v), tol)
    report.check("reconstruction/svd3", "SVD self-residual", self_residual(f, *_svds(f)), tol)
    # spanning: random generator combinations reproduced by 3/6/9/3 elements
    scalars, vectors, tensors = _classical_bases(2, 0, 2)
    # every trial's system and coefficient noise, drawn in trial order, then
    # one run of each basis over all the trials' systems
    draws = [(tensor_system(sym=[0.5 * (m + m.T) for m in rng.standard_normal((2, 3, 3))],
                            vecs=list(rng.standard_normal((2, 3)))),
              rng.standard_normal((len(vectors), len(scalars))),
              rng.standard_normal((len(tensors), len(scalars))))
             for _ in range(trials)]
    stack = _stack([d[0] for d in draws])
    values = [basis.evaluate(stack) for basis in (scalars, vectors, tensors)]
    frames = _frame_rows(*_frames(stack))
    worst = {"vector3": 0.0, "sym6": 0.0, "full9": 0.0, "skew3": 0.0}
    for (sys0, noise_v, noise_t), svals, gvecs, gtens, frame in zip(draws, *values, frames):
        # a combination of each list, its coefficients scaled to at most 1
        g, t = (sum(c * item for c, item in zip(cs / (1.0 + np.abs(cs).max()), items))
                for cs, items in ((noise_v @ svals, gvecs), (noise_t @ svals, gtens)))
        back = reconstruct_vector(project_vector(g, frame), frame)
        worst["vector3"] = max(worst["vector3"], float(np.linalg.norm(back - g)))
        a1, a2 = sys0.sym
        x1, x2 = sys0.vecs
        coeffs = np.tanh([np.trace(a1), x1 @ x2, np.trace(a1 @ a2)])
        full = coeffs[0] * (a1 @ a2) + coeffs[1] * np.outer(x1, x2) \
            + coeffs[2] * np.outer(a1 @ x1, x2)
        skw = coeffs[0] * (a1 @ a2 - a2 @ a1) \
            + coeffs[1] * (np.outer(x1, x2) - np.outer(x2, x1))
        for kind, x in (("sym6", t), ("full9", full), ("skew3", skw)):
            back = reconstruct_tensor(project_tensor(x, frame, kind), frame)
            worst[kind] = max(worst[kind], float(np.linalg.norm(back - x)))
    for kind, n_elem in (("vector3", 3), ("sym6", 6), ("full9", 9), ("skew3", 3)):
        report.check(f"reconstruction/span/{kind}",
                     f"generator combinations reproduced by {n_elem} spectral elements",
                     worst[kind], tol)
    return report


def _rank_configs():
    # every (N, M, P) with 1 <= N + M + P <= 3, with each applicable flag
    return [(n, m, p, skew, unit)
            for n, m, p in itertools.product(range(4), repeat=3) if 1 <= n + m + p <= 3
            for skew in ((False, True) if m else (False,))
            for unit in ((False, True) if p else (False,))]


def _check_count_flags(m, skew, svd):
    # irreducible_count's refusals of --skew and --svd, named by their flags
    if (skew or svd) and m < 1:
        raise ValueError(f"{'--skew' if skew else '--svd'} needs --m >= 1")
    if skew and svd:
        raise ValueError("--svd needs general tensors, not --skew: a skew tensor's "
                         "singular values (s, s, 0) never give a generic SVD frame")


def run_rank(seed: int, system=None, n: int = 0, m: int = 0, p: int = 0,
             skew: bool = False, unit_vectors: bool = False,
             svd: bool = False) -> VerificationReport:
    """Jacobian rank of the spectral list (and the classical list where one
    exists) against the structural expectation: of the input system, of the
    seeded ``(n, m, p)`` configuration, or of every configuration with
    ``n + m + p <= 3`` when neither is given."""
    if system is not None and (n or m or p or skew or unit_vectors):
        raise ValueError("--input takes its configuration from the file; drop "
                         "--n/--m/--p/--skew/--unit-vectors")
    config = (n, m, p, skew, unit_vectors) if (n or m or p) else None
    # rank draws no trials; its report keeps the field at the verify default
    report = VerificationReport("rank", seed, 100, {"config": config, "svd": svd})
    if svd and system is None and config is None:
        raise ValueError("the SVD rank variant needs --input or an explicit "
                         "--n/--m/--p configuration")
    if (skew or unit_vectors) and config is None:
        # the sweep already runs each flag; it would drop this one
        flag = "--skew" if skew else "--unit-vectors"
        raise ValueError(f"{flag} needs an explicit --n/--m/--p configuration")
    # the gram list (no symmetric tensor) carries exactly the three-fold
    # orbit redundancy that the SVD frame removes
    expected = lambda count, n, m: count - 3 if n == 0 and m >= 1 and not svd else count
    build = build_svd_frame if svd else build_frame
    if system is not None or config is not None:
        if system is None:
            _check_count_flags(m, skew, svd)
            system = seeded_system(n, m, p, skew=skew, unit=unit_vectors, seed=seed)
            count = irreducible_count(n, m, p, skew_nonsym=skew,
                                      all_vectors_unit=unit_vectors, svd_variant=svd)
        else:
            # the extraction's effective count also covers mixed flags
            n, m, p = system.shape()
            count = extract_invariants(system, build(system)).count
        want = expected(count, n, m)
        lists = {"spectral": build}
        if all(system.nonsym_skew) and not svd:
            lists = {"classical": boehler_scalars(n, m, p), **lists}
        summary = []
        for name, lst in lists.items():
            rep = jacobian_rank(lst, system)
            report.check(f"rank/{name}",
                         f"{name} rank (expected {want}, {rep.n_invariants} items)",
                         rep.rank, want, comparator="eq")
            summary.append(f"{name} rank {rep.rank} / {rep.n_invariants} items")
        report.configuration["summary"] = "; ".join(summary)
        return report
    for n, m, p, skew, unit in _rank_configs():
        tag = _tag(n, m, p, skew, unit)
        count = irreducible_count(n, m, p, skew_nonsym=skew, all_vectors_unit=unit)
        for point in range(3):
            cid = f"rank/{tag}/point{point}"
            if n == 0 and m >= 1 and skew:
                # skew-only systems have no generic gram frame (two singular
                # values always coincide); the rank precondition rejects them
                report.add(Claim(cid, "skew-only gram frame is never generic",
                                 "skip", None, None, "le", seed))
                continue
            sys0 = seeded_system(n, m, p, skew=skew, unit=unit, seed=seed + 1000 * point)
            rep = jacobian_rank(build_frame, sys0)
            report.check(cid, f"spectral rank for {tag} (count {count})",
                         rep.rank, expected(count, n, m), comparator="eq")
    boe = jacobian_rank(boehler_scalars(2, 0, 0), seeded_system(2, 0, 0, seed=seed))
    report.check("rank/boehler-redundancy",
                 "classical list for two symmetric tensors: 10 items, rank 9",
                 boe.rank, 9, comparator="eq")
    report.configuration["boehler_items"] = boe.n_invariants
    return report


# the FD-sweep energies of each argument class, of the case parameters
# (b, c, k): symmetric b and c, vector k; case i takes energy i % 3
_GRADIENT_ENERGIES = {
    "vector": (
        lambda s, b, c, k: float(s.vecs[0] @ b @ s.vecs[0]) ** 2,
        lambda s, b, c, k: float(k @ s.vecs[0]) ** 3,
        lambda s, b, c, k: float(s.vecs[0] @ b @ s.vecs[0]) * float(k @ s.vecs[0])),
    "sym": (
        lambda s, b, c, k: float(np.trace(s.sym[0] @ s.sym[0] @ b)),
        lambda s, b, c, k: float(np.trace(s.sym[0])) * float(np.trace(s.sym[0] @ s.sym[0])),
        lambda s, b, c, k: float(k @ s.sym[0] @ s.sym[0] @ k)),
    "nonsym": (
        lambda s, b, c, k: float(np.trace(s.nonsym[0] @ s.nonsym[0].T @ b)),
        lambda s, b, c, k: float(np.linalg.det(s.nonsym[0])) + float(np.sum(s.nonsym[0] ** 2)),
        lambda s, b, c, k: float(np.trace(s.nonsym[0] @ b @ s.nonsym[0].T @ c))),
}


def run_gradients(seed: int, trials: int = 100) -> VerificationReport:
    """Spectral gradient formulas against entry-wise FD oracles, exact trivial
    cases, and gradient equivariance."""
    report = VerificationReport("gradients", seed, trials, {})
    rng = np.random.default_rng(seed)
    # trivial cases, analytic spectral partials: exact to roundoff
    sys_v = tensor_system(vecs=[rng.standard_normal(3)])
    g = grad_vector(lambda s: float(s.vecs[0] @ s.vecs[0]), sys_v,
                    partials=lambda lam, v1: (2.0 * lam, np.zeros(3)))
    report.check("gradients/trivial/vector-squared-norm", "d(a.a)/da = 2a",
                 np.abs(g - 2.0 * sys_v.vecs[0]).max(), 1e-12)
    m = rng.standard_normal((3, 3))
    sys_s = tensor_system(sym=[m @ m.T + np.eye(3)])
    g = grad_sym_tensor(lambda s: float(np.trace(s.sym[0] @ s.sym[0])), sys_s,
                        partials=lambda lams, v: (2.0 * lams, np.zeros((3, 3))))
    report.check("gradients/trivial/sym-trace-square", "d tr(V^2)/dV = 2V",
                 np.abs(g - 2.0 * sys_s.sym[0]).max(), 1e-12)
    sys_f = tensor_system(nonsym=[rng.standard_normal((3, 3))])
    g = grad_nonsym_tensor(lambda s: float(np.sum(s.nonsym[0] ** 2)), sys_f,
                           partials=lambda sv, v, u: (2.0 * sv, np.zeros((3, 3)),
                                                      np.zeros((3, 3))))
    report.check("gradients/trivial/nonsym-frobenius", "d tr(F F^T)/dF = 2F",
                 np.abs(g - 2.0 * sys_f.nonsym[0]).max(), 1e-12)
    # FD oracle sweeps: per argument class, the shape of each case's draw,
    # the system built from it, the spectral formula, its oracle and the claim
    sweeps = (("vector", 3, lambda x: tensor_system(vecs=[x]), grad_vector, fd_grad_vector,
               "spectral vector gradient vs central differences"),
              ("sym", (3, 3), lambda x: tensor_system(sym=[x @ x.T + 0.5 * np.eye(3)]),
               grad_sym_tensor, fd_grad_sym_tensor,
               "spectral symmetric-tensor gradient vs central differences"),
              ("nonsym", (3, 3), lambda x: tensor_system(nonsym=[x]), grad_nonsym_tensor,
               fd_grad_nonsym_tensor, "spectral non-symmetric gradient vs central differences"))
    count = max(10, trials // 10)
    bs, cs = [0.5 * (x + x.swapaxes(1, 2)) for x in rng.standard_normal((2, count, 3, 3))]
    ks = rng.standard_normal((count, 3))
    for name, shape, system, formula, oracle, description in sweeps:
        for k in range(count):
            x = rng.standard_normal(shape)
            fn = functools.partial(_GRADIENT_ENERGIES[name][k % 3],
                                   b=bs[k], c=cs[k], k=ks[k])
            sys0 = system(x)
            got = formula(fn, sys0)
            report.check(f"gradients/{name}/case{k:02d}", description,
                         np.linalg.norm(got - oracle(fn, sys0)),
                         max(1e-6, 1e-5 * float(np.linalg.norm(got))))
        if name == "sym":
            m = x  # the degeneracy diagnostic reads the last symmetric draw
    # gradient equivariance
    sys0 = tensor_system(sym=[sys_s.sym[0]], vecs=[rng.standard_normal(3)])
    w_v = lambda s: float(s.vecs[0] @ s.sym[0] @ s.vecs[0]) ** 2
    dev = verify_isotropy(lambda s: grad_vector(w_v, s), "vector", sys0, 20, rng)
    report.check("gradients/equivariance/vector",
                 "rotated arguments give rotated gradient", dev, 1e-8)
    w_s = lambda s: float(np.trace(s.sym[0] @ s.sym[0])) \
        + float(s.vecs[0] @ s.sym[0] @ s.vecs[0])
    dev = verify_isotropy(lambda s: grad_sym_tensor(w_s, s), "sym_tensor", sys0, 20, rng)
    report.check("gradients/equivariance/sym",
                 "rotated arguments give conjugated gradient", dev, 1e-8)
    w_f = lambda s: float(np.sum(s.nonsym[0] ** 2)) ** 2
    sys_f2 = tensor_system(nonsym=[rng.standard_normal((3, 3))])
    dev = verify_isotropy(lambda s: grad_nonsym_tensor(w_f, s), "full_tensor", sys_f2,
                          20, rng)
    report.check("gradients/equivariance/nonsym",
                 "rotated arguments give conjugated gradient", dev, 1e-8)
    # diagnostic only: formula-vs-oracle deviation as the eigenvalue gap of
    # the differentiated tensor shrinks (degrades like O(h / gap))
    b = 0.5 * (m + m.T)
    q = haar_rotation(rng)

    def family(delta):
        d = q @ np.diag([1.0 + delta, 1.0, 3.0]) @ q.T
        return tensor_system(sym=[0.5 * (d + d.T)])

    w_d = lambda s: float(np.trace(s.sym[0] @ s.sym[0] @ b))
    curve = degeneracy_sensitivity(w_d, family, [1e-1, 1e-2, 1e-3, 1e-4])
    report.configuration["degeneracy_sensitivity"] = [
        {"gap": gap, "deviation": dev} for gap, dev in curve]
    report.configuration["summary"] = "near-degeneracy diagnostic (not asserted): " \
        + "  ".join(f"gap {gap:.0e} -> dev {dev:.2e}" for gap, dev in curve)
    return report


def run_p_property(seed: int, trials: int = 100, tol: float = 1e-10) -> VerificationReport:
    """Gauge re-randomization at constructed degeneracies, closed-form values,
    the five safe invariants, and the raw-component negative control."""
    report = VerificationReport("p-property", seed, trials, {"tol": tol})
    rng = np.random.default_rng(seed)

    def dyad_energy(inv):
        return sum(inv[f"lam{i}"] * inv[f"a1[{i}]"] ** 2 for i in (1, 2, 3))

    q = haar_rotation(rng)
    lam, lam3 = 2.0, 0.5
    a1 = q @ np.diag([lam, lam, lam3]) @ q.T
    a = rng.standard_normal(3)
    a /= np.linalg.norm(a)
    pair_sys = tensor_system(sym=[0.5 * (a1 + a1.T)], vecs=[a], unit=[True])
    rep = check_p_property(dyad_energy, pair_sys, "pair", trials=trials,
                           rng=np.random.default_rng(seed + 1), tol=tol)
    report.check("p-property/dyad-energy/pair",
                 "a.A1a is gauge independent at a double eigenvalue",
                 max(rep.permutation_deviation, rep.gauge_deviation), tol)
    frame = build_frame(pair_sys)
    inv = extract_invariants(pair_sys, frame)
    closed = lam + (lam3 - lam) * float(a @ frame.v[2]) ** 2
    report.check("p-property/dyad-energy/pair-closed-form",
                 "reduces to lam + (lam3 - lam)(a.v3)^2",
                 abs(dyad_energy(inv) - closed), 1e-12)
    triple_sys = tensor_system(sym=[1.7 * np.eye(3)], vecs=[a], unit=[True])
    rep = check_p_property(dyad_energy, triple_sys, "triple", trials=trials,
                           rng=np.random.default_rng(seed + 2), tol=tol)
    report.check("p-property/dyad-energy/triple",
                 "a.A1a is gauge independent at a triple eigenvalue",
                 max(rep.permutation_deviation, rep.gauge_deviation), tol)
    inv = extract_invariants(triple_sys, build_frame(triple_sys))
    report.check("p-property/dyad-energy/triple-closed-form",
                 "reduces to the repeated eigenvalue", abs(dyad_energy(inv) - 1.7), 1e-12)
    m = rng.standard_normal((3, 3))
    u_mat = 0.5 * (m + m.T)
    dyad_sys = tensor_system(sym=[np.outer(a, a), u_mat])
    for name, fn in example2_invariants():
        rep = check_p_property(fn, dyad_sys, "pair", trials=trials,
                               rng=np.random.default_rng(seed + 3), tol=tol)
        report.check(f"p-property/safe-invariants/{name}",
                     "gauge-independent invariant of the dyad configuration",
                     max(rep.permutation_deviation, rep.gauge_deviation), tol)
    raw = lambda inv: inv["a1[1]"]
    rep = check_p_property(raw, pair_sys, "pair", trials=trials,
                           rng=np.random.default_rng(seed + 4))
    report.check("p-property/negative-control/a1[1]",
                 "raw frame component must fail gauge re-randomization",
                 rep.gauge_deviation, 1e-3, comparator="ge")
    return report


def run_coalescence(seed: int, tol: float = 1e-12) -> VerificationReport:
    """Coaxiality residuals and eigen-coefficient behaviour at coalescence."""
    # coalescence draws no trials; its report keeps the field at the verify default
    report = VerificationReport("coalescence", seed, 100, {"tol": tol})
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((3, 3))
    v_mat = 0.5 * (m + m.T)
    chk = check_coaxiality(lambda x: x @ x, v_mat, tol=tol)
    report.check("coalescence/coaxial/square", "V^2 commutes with V",
                 max(chk.commutator_residual, chk.offdiag_max), tol)

    def poly_map(x):
        i1, i2, i3 = np.trace(x), np.trace(x @ x), np.trace(x @ x @ x)
        return (1.0 + 0.3 * i1) * np.eye(3) + (0.5 - 0.1 * i3) * x \
            + (0.2 + 0.07 * i2) * (x @ x)

    chk = check_coaxiality(poly_map, v_mat, tol=tol)
    report.check("coalescence/coaxial/invariant-coefficients",
                 "phi0 I + phi1 V + phi2 V^2 commutes with V",
                 max(chk.commutator_residual, chk.offdiag_max), tol)

    def expm_series(x, terms=40):
        k = max(0, int(np.ceil(np.log2(max(1.0, np.linalg.norm(x))))) + 2)
        y = x / 2.0**k
        out = np.eye(3)
        term = np.eye(3)
        for n in range(1, terms):
            term = term @ y / n
            out = out + term
        for _ in range(k):
            out = out @ out
        return out

    chk = check_coaxiality(expm_series, v_mat, tol=1e-10)
    report.check("coalescence/coaxial/matrix-exponential",
                 "series-evaluated exp(V) commutes with V",
                 max(chk.commutator_residual, chk.offdiag_max), 1e-10)

    phi = (0.7, -0.3, 0.25)
    t_fn = lambda lams: phi[0] + phi[1] * lams + phi[2] * lams**2
    eps = [10.0**-k for k in range(2, 9)]
    rep = coalescence_structure(t_fn, "pair", [1.0, 1.0, 3.0], eps_sequence=eps, tol=tol)
    report.check("coalescence/pair/linear-rate",
                 f"|t1 - t2| <= C eps with observed C = {rep.max_ratio:.6g}",
                 rep.ratios[-1], 2.0 * rep.ratios[0])
    report.check("coalescence/pair/converged",
                 "gap decreases monotonically along the sequence",
                 1.0 if rep.converged else 0.0, 1.0, comparator="ge")
    q = haar_rotation(rng)
    rep = coalescence_structure(t_fn, "pair", [2.0, 2.0, 1.0], frame_vectors=q, tol=tol)
    report.check("coalescence/pair/two-term-form",
                 "G equals t_i I + (t_k - t_i) v_k (x) v_k at coalescence",
                 max(rep.limit_residual, rep.limit_gap), tol)
    rep = coalescence_structure(t_fn, "triple", [1.5, 1.5, 1.5], tol=tol)
    report.check("coalescence/triple/identity-form",
                 "G equals t1 I at a triple eigenvalue",
                 max(rep.limit_residual, rep.limit_gap), tol)
    return report


def run_hyperelastic(seed: int, trials: int = 100,
                     tol: float = 1e-10) -> VerificationReport:
    """Potential stress vs the matched generator combination and vs central
    differences of the energy, over seeded material models."""
    report = VerificationReport("hyperelastic", seed, trials, {"tol": tol})
    rng = np.random.default_rng(seed)

    a = rng.standard_normal(3)
    a /= np.linalg.norm(a)
    m = rng.standard_normal((3, 3))
    c_mat = m @ m.T + np.eye(3)
    neo = HyperelasticModel("half-I1", lambda i: 0.5 * (i[0] - 3.0),
                            lambda i: np.array([0.5, 0.0, 0.0, 0.0, 0.0]))
    res = hyperelastic_stress(neo, c_mat, a)
    report.check("hyperelastic/trivial/volumetric",
                 "W = (I1 - 3)/2 gives S = I on both routes",
                 max(float(np.abs(res.s_potential - np.eye(3)).max()), res.residual),
                 1e-12)
    fiber = HyperelasticModel("I4", lambda i: i[3],
                              lambda i: np.array([0.0, 0.0, 0.0, 1.0, 0.0]))
    res = hyperelastic_stress(fiber, c_mat, a)
    report.check("hyperelastic/trivial/fiber", "W = I4 gives S = 2 a (x) a",
                 max(float(np.abs(res.s_potential - 2.0 * np.outer(a, a)).max()),
                     res.residual), 1e-12)
    n_cases = max(20, trials // 5)
    for k in range(n_cases):
        model = polynomial_ti_model(0.3 * rng.standard_normal(8), name=f"poly{k}")
        m = rng.standard_normal((3, 3))
        c_mat = m @ m.T + np.eye(3)
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        res = hyperelastic_stress(model, c_mat, a)
        scale = 1.0 + float(np.linalg.norm(res.s_potential))
        report.check(f"hyperelastic/case{k:02d}/representation",
                     "potential route equals matched generator route "
                     "(incl. frame coefficients)",
                     max(res.residual, res.coeff_max_diff) / scale, tol)
        # S = dW/dE = 2 dW/dC, and a step of 2e-6 in C is one of 1e-6 in E
        l_mat = np.outer(a, a)
        energy = lambda s: model.energy(ti_invariants(s.sym[0], l_mat))
        ref = 2.0 * fd_grad_sym_tensor(energy, tensor_system(sym=[c_mat]), h=2e-6)
        report.check(f"hyperelastic/case{k:02d}/energy-derivative",
                     "stress matches central differences of W in E",
                     np.linalg.norm(res.s_potential - ref) / scale, 1e-6)
    return report


# ---------------------------------------------------------------------------
# subcommands


def cmd_counts(args) -> int:
    n, m, p = args.n, args.m, args.p
    skew, unit, svd = args.skew, args.unit_vectors, args.svd
    _check_count_flags(m, skew, svd)
    spectral = irreducible_count(n, m, p, skew_nonsym=skew,
                                 all_vectors_unit=unit, svd_variant=svd)
    flags = [word for word, on in (("skew", skew), ("unit vectors", unit),
                                   ("svd variant", svd)) if on]
    print(f"configuration: N={n} symmetric, M={m} non-symmetric, P={p} vectors"
          + (f" ({', '.join(flags)})" if flags else ""))
    print(f"spectral scalar invariants:    {spectral}")
    classical_ok = (m == 0 or skew) and not svd
    if classical_ok:
        n_scalar = len(boehler_scalars(n, m, p))
        n_vec = len(smith_vectors(n, m, p))
        n_ten = len(smith_sym_tensors(n, m, p))
        ratio = n_scalar / spectral if spectral else float("inf")
        print(f"classical scalar invariants:   {n_scalar}   (reduction {ratio:.2f}x)")
        print(f"spectral vector generators:    3")
        print(f"classical vector generators:   {n_vec}")
        print(f"spectral tensor generators:    6 symmetric (9 general, 3 skew)")
        print(f"classical tensor generators:   {n_ten}")
        if (n, m, p) == (2, 0, 2) and not (skew or unit or svd):
            print(f"note: the literature quotes "
                  f"{LITERATURE_VISCOELASTIC['scalars']} scalar invariants and "
                  f"{LITERATURE_VISCOELASTIC['tensors']} generator tensors for this "
                  f"configuration; enumerating the stated lists gives "
                  f"{n_scalar} and {n_ten} (itemized by the labels above)")
    else:
        print("classical comparison:          n/a (covers symmetric + skew + "
              "vector arguments only)")
    return 0


# each tuning flag of ``verify`` by the runner parameter it sets; a suite
# takes exactly the flags its ``run_<suite>`` declares
_TUNING_FLAGS = {"system": "--input", "trials": "--trials", "tol": "--tol",
                 "n": "--n", "m": "--m", "p": "--p", "skew": "--skew",
                 "unit_vectors": "--unit-vectors", "svd": "--svd"}


def cmd_verify(args) -> int:
    # looked up at call time, so that a rebinding of ``run_<suite>`` is seen
    runner = globals()["run_" + args.suite.replace("-", "_")]
    takes = inspect.signature(runner).parameters
    given = {key: getattr(args, key) for key in _TUNING_FLAGS
             if getattr(args, key) is not None}
    for key in given:
        if key not in takes:
            raise ValueError(f"suite {args.suite!r} does not take {_TUNING_FLAGS[key]}")
    if "trials" in given and args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    if "tol" in given and not 0.0 < args.tol < float("inf"):
        raise ValueError(f"--tol must be finite and positive, got {args.tol}")
    if "system" in given:
        given["system"] = load_system_file(args.system)
    report = runner(args.resolved_seed, **given)
    for claim in report.sorted_claims():
        tol = "-" if claim.tolerance is None else f"{claim.tolerance:.3e}"
        value = "-" if claim.value is None else f"{claim.value:.3e}"
        print(f"[{claim.status.upper():4s}] {claim.claim_id} {value} {tol}")
    summary = report.configuration.get("summary")
    if summary:
        print(summary)
    failing = [c.claim_id for c in report.sorted_claims() if c.status == "fail"]
    print(f"{report.suite}: {len(report.claims)} claims, {len(failing)} failures "
          f"(seed {report.seed})")
    if args.json:
        payload = report.to_dict(__version__)
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    if failing:
        print("failing claims: " + ", ".join(failing), file=sys.stderr)
        return 1
    return 0


def cmd_frame(args) -> int:
    system = load_system_file(args.input)
    frame = build_svd_frame(system) if args.svd else build_frame(system)
    inv = extract_invariants(system, frame)
    kind_word = {"sym_tensor": "eigenvalues", "gram": "gram eigenvalues",
                 "vector": "squared length", "svd": "singular values"}[frame.kind]
    print(f"frame kind: {frame.kind}")
    print(f"{kind_word}: " + "  ".join(repr(float(x)) for x in frame.lambdas))
    for name, rows in (("v", frame.v), ("u", frame.u if frame.u is not None else ())):
        for i, row in enumerate(rows):
            print(f"{name}{i + 1}: " + "  ".join(repr(float(x)) for x in row))
    groups = " ".join("{" + ",".join(str(i + 1) for i in g) + "}"
                      for g in frame.degeneracy)
    print(f"degeneracy partition: {groups}")
    if frame.is_degenerate:
        print("warning: degenerate frame; components within a degenerate group "
              "depend on the eigenvector gauge")
    print(f"invariants ({inv.count} effective, {len(inv.entries)} stored):")
    for label, value in inv.entries:
        print(f"  {label} = {value!r}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isotropykit",
        description="Spectral invariant bases for isotropic tensor functions, "
                    "with numerical verification suites.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--n", type=int, default=0, help="symmetric tensors")
        p.add_argument("--m", type=int, default=0, help="non-symmetric tensors")
        p.add_argument("--p", type=int, default=0, help="vectors")
        p.add_argument("--skew", action="store_true",
                       help="non-symmetric tensors are skew")
        p.add_argument("--unit-vectors", action="store_true",
                       help="vectors are unit length")
        p.add_argument("--svd", action="store_true",
                       help="use the SVD frame variant")

    p_counts = sub.add_parser("counts", help="invariant/generator counts")
    add_config_flags(p_counts)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--input", dest="system", help="system file (JSON)")
    p_verify.add_argument("--seed", type=int, default=None,
                          help="RNG seed (default: ISOTROPYKIT_SEED or 0)")
    p_verify.add_argument("--trials", type=int,
                          help="random trials (suite default: 100)")
    p_verify.add_argument("--tol", type=float,
                          help="override the suite's headline tolerance")
    p_verify.add_argument("--json", help="write the report to this path")
    add_config_flags(p_verify)
    # a tuning flag not given reads None, and is not passed to the runner
    p_verify.set_defaults(**dict.fromkeys(_TUNING_FLAGS))

    p_frame = sub.add_parser("frame", help="print frame and invariants")
    p_frame.add_argument("--input", required=True, help="system file (JSON)")
    p_frame.add_argument("--svd", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", None) is None:
        env = os.environ.get("ISOTROPYKIT_SEED", "0")
        try:
            args.resolved_seed = int(env)
        except ValueError:
            print(f"error: ISOTROPYKIT_SEED={env!r} is not an integer",
                  file=sys.stderr)
            return 2
    else:
        args.resolved_seed = args.seed
    try:
        if args.command == "counts":
            return cmd_counts(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "frame":
            return cmd_frame(args)
    # every input error, a degenerate frame argument included, is a ValueError
    except (ValueError, KeyError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
