"""The four benchmark workloads.

Each workload makes its inputs from the seed in ``setup`` (plain numpy
arrays, or a command line), runs one closed-loop pass over them in
``run_pass``, which returns the outputs and its timing samples (one per
BLOCK ops, or one per claim a suite records), and judges the outputs of a pass in ``check``
(not timed).  Every call into isotropykit goes through a module attribute
looked up at call time, so the outside-in tracer sees it.

Input sizes are fixed constants so that a pass always does the same amount
of work; only the values depend on the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from isotropykit import analysis, cli, lin3, potentials, spectral_frame

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "claims_manifest.json"

BLOCK = 40                  # ops timed together; one full frames-mixed kind cycle
BULK_POINTS = 1000          # material points per bulk-ti-stress pass
BULK_STRAIN = 0.1           # F = I + BULK_STRAIN * N(0, 1)
FRAMES_SYSTEMS = 1600       # systems per frames-mixed pass
FRAME_KINDS = ("sym_tensor", "gram", "svd", "vector")
LOG10_SCALE = (-9.0, 9.0)   # log-uniform scale of each frames-mixed system
# per ten tensor-frame systems: two double and one triple eigen/singular value
DEGENERACY_CYCLE = ("double", "double", "triple") + ("generic",) * 7

TOL_ROUNDTRIP = 1e-12       # rebuilt argument vs original, relative to ||x||
TOL_ROTATION = 1e-9         # invariant after a Haar rotation, relative
TOL_STRESS = 1e-12          # stress / I4 against the reference, relative


class Outcome(NamedTuple):
    """Judgement of one pass.

    ``failed`` counts ops that fail any check; it sets ``ok_frac``.
    ``hard_failed`` counts the ops that failed outright, which make the run
    incorrect and are its reported ``failed``: all of them, except in
    frames-mixed, where an op that completes with finite outputs but misses
    a scale-relative check is the known tolerance defect being measured.
    """

    failed: int
    hard_failed: int
    worst_margin: float
    digest: str
    detail: dict


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# verify suites through the command line


class VerifyWorkload:
    """Runs ``isotropykit verify <suite> --seed S --json PATH`` in process.

    An op is one non-skip claim.  It fails when its suite exits nonzero,
    when the suite's claim-id list differs from the manifest, when the claim
    does not pass, or when the suite's ``--json`` report is not
    byte-identical between the first and the last pass.  Suites are timed
    from the outside; ``Claim.runtime`` is never read.

    A suite is timed in slices, cut each time it records a claim
    (``VerificationReport.add``): a slice is the work done for that claim
    since the previous one, and the last slice is the report output.  The
    slices are short, like the blocks of the other workloads, so the median
    of each slice over the passes follows the speed of the shared machine
    more steadily than the median of whole suites, which last up to 2 s.
    """

    def __init__(self, name, why, suites):
        self.name, self.why, self.suites = name, why, suites

    def setup(self, seed, out_dir):
        manifest = json.loads(MANIFEST.read_text())
        self.expected = {s: manifest[s] for s in self.suites}
        self.ops = {s: len(m["ids"]) - len(m["skips"]) for s, m in self.expected.items()}
        self.ops_per_pass = sum(self.ops.values())
        self.seed = seed
        self.paths = {s: out_dir / f"{self.name}-{s}.json" for s in self.suites}

    def run_pass(self, tracer=None):
        """One run of every suite; returns (outputs, [("suite/slice", seconds, ops)])."""
        out, samples = {}, []
        cuts = []  # (time, ops) at each recorded claim; a skip is no op
        add = analysis.VerificationReport.add

        def cut_and_add(report, claim):
            cuts.append((time.perf_counter(), int(claim.status != "skip")))
            return add(report, claim)

        analysis.VerificationReport.add = cut_and_add
        try:
            for op, suite in enumerate(self.suites):
                if tracer is not None:
                    tracer.current_op = op
                argv = ["verify", suite, "--seed", str(self.seed), "--json",
                        str(self.paths[suite])]
                cuts.clear()
                start = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                cuts.append((time.perf_counter(), 0))
                for i, (end, ops) in enumerate(cuts):
                    samples.append((f"{suite}/{i}", end - start, ops))
                    start = end
                out[suite] = (code, self.paths[suite].read_bytes())
        finally:
            analysis.VerificationReport.add = add
        return out, samples

    def check(self, first, last) -> Outcome:
        failed, worst, detail = 0, 0.0, {}
        for suite in self.suites:
            code, raw = last[suite]
            report = json.loads(raw)
            claims = report["claims"]
            ids = [c["id"] for c in claims]
            skips = [c["id"] for c in claims if c["status"] == "skip"]
            if (code != 0 or raw != first[suite][1]
                    or ids != self.expected[suite]["ids"]
                    or skips != self.expected[suite]["skips"]):
                bad = self.ops[suite]
            else:
                bad = sum(1 for c in claims if c["status"] == "fail")
            failed += bad
            for c in claims:
                if c["comparator"] == "le" and c["tolerance"]:
                    worst = max(worst, c["value"] / c["tolerance"])
            detail[suite] = {"exit": code, "claims": len(ids), "skips": len(skips),
                             "failed": bad}
        digest = hashlib.sha256(b"".join(last[s][1] for s in self.suites)).hexdigest()
        return Outcome(failed, failed, worst, digest, detail)


def _sample(samples, start):
    now = time.perf_counter()
    samples.append(("block", now - start, BLOCK))
    return now


# ---------------------------------------------------------------------------
# bulk transversely isotropic stress


def _reference_stress(coeffs, c_mat, a):
    """Independent closed form of S = 2 dW/dC for the polynomial TI energy,
    and the scale that bounds its rounding error."""
    c = coeffs
    l_mat = np.outer(a, a)
    c2 = c_mat @ c_mat
    i1, i2 = np.trace(c_mat), np.trace(c2)
    i4, i5 = a @ c_mat @ a, a @ c2 @ a
    w = (c[0] + c[6] * i4, c[1] + 2.0 * c[7] * i2, c[2],
         c[3] + c[6] * i1, c[4] + 2.0 * c[5] * i5)
    terms = (2.0 * w[0] * np.eye(3), 4.0 * w[1] * c_mat, 6.0 * w[2] * c2,
             2.0 * w[3] * l_mat, 2.0 * w[4] * (c_mat @ l_mat + l_mat @ c_mat))
    return sum(terms), sum(np.linalg.norm(t) for t in terms), i4


class BulkStressWorkload:
    """Generic TI material points as a finite-element code requests them.

    Per point: ``tensor_system`` -> ``build_frame`` -> ``extract_invariants``
    -> ``hyperelastic_stress`` under one seeded ``polynomial_ti_model``.
    """

    name = "bulk-ti-stress"
    why = ("FE-style bulk TI stress at generic points: per-point lin3, spectral_frame "
           "and potentials cost, no analysis or classical bases; where batching must show")

    def setup(self, seed, out_dir):
        rng = np.random.default_rng([seed, 2])
        self.coeffs = 0.3 * rng.standard_normal(8)
        f = np.eye(3) + BULK_STRAIN * rng.standard_normal((BULK_POINTS, 3, 3))
        self.c_mats = np.einsum("nki,nkj->nij", f, f)
        a = rng.standard_normal((BULK_POINTS, 3))
        self.fibres = a / np.linalg.norm(a, axis=1, keepdims=True)
        self.ops_per_pass = BULK_POINTS

    def run_pass(self, tracer=None):
        """One sweep over all points; returns (outputs, [("block", seconds, ops)])."""
        model = potentials.polynomial_ti_model(self.coeffs, name="bench")
        out, samples = [], []
        start = time.perf_counter()
        for op in range(BULK_POINTS):
            if tracer is not None:
                tracer.current_op = op
            if op and op % BLOCK == 0:
                start = _sample(samples, start)
            c_mat, a = self.c_mats[op], self.fibres[op]
            try:
                system = lin3.tensor_system(sym=[c_mat], vecs=[a], unit=[True])
                frame = spectral_frame.build_frame(system)
                inv = spectral_frame.extract_invariants(system, frame)
                res = potentials.hyperelastic_stress(model, c_mat, a)
                out.append((inv, res))
            except (ValueError, ArithmeticError) as err:
                out.append(err)
        _sample(samples, start)
        return out, samples

    def check(self, first, last) -> Outcome:
        failed, worst = 0, 0.0
        parts, kinds = [], {}
        for c_mat, a, got in zip(self.c_mats, self.fibres, last):
            if isinstance(got, Exception):
                failed += 1
                kinds["raised"] = kinds.get("raised", 0) + 1
                continue
            inv, res = got
            s_ref, scale, i4_ref = _reference_stress(self.coeffs, c_mat, a)
            i4 = sum(inv[f"lam{i}"] * inv[f"a1[{i}]"] ** 2 for i in (1, 2, 3))
            i4_ti = potentials.ti_invariants(c_mat, np.outer(a, a))[3]
            errs = {
                "stress": np.linalg.norm(res.s_potential - s_ref) / scale,
                "routes": max(res.residual, res.coeff_max_diff) / scale,
                "i4": max(abs(i4 - i4_ref), abs(i4_ti - i4_ref)) / abs(i4_ref),
            }
            bad = False
            for key, err in errs.items():
                margin = float(err) / TOL_STRESS
                worst = max(worst, margin if np.isfinite(margin) else np.inf)
                if not margin <= 1.0:
                    kinds[key] = kinds.get(key, 0) + 1
                    bad = True
            failed += bad
            parts += [res.s_potential, inv.values()]
        return Outcome(failed, failed, worst, _digest(*parts), {"failures_by_check": kinds})


# ---------------------------------------------------------------------------
# mixed and degenerate frames over sixteen decades of scale


def _rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def _spectrum(rng, case, positive):
    low = rng.uniform(0.3, 1.0) if positive else rng.standard_normal()
    if case == "triple":
        return np.full(3, low)
    mid = low + rng.uniform(0.3, 1.5)
    top = mid + rng.uniform(0.3, 1.5)
    return np.array([mid, mid, low] if case == "double" else [top, mid, low])


_EXPECTED_GROUPS = {"generic": ((0,), (1,), (2,)), "double": ((0, 1), (2,)),
                    "triple": ((0, 1, 2),)}
_LABEL = re.compile(r"^(lam|sv|u\d\.v|[AHWa])(\d*)")


class FramesMixedWorkload:
    """Symmetric, gram, SVD and vector frames, generic and degenerate, with
    scales log-uniform over 1e-9 .. 1e9.

    Per system: ``tensor_system`` -> frame -> ``extract_invariants`` ->
    ``rebuild_system`` round trip, then one ``haar_rotation`` and
    ``conjugate`` and the frame and invariants of the rotated system.
    Checks are relative to the norm of the argument each number comes from,
    and only on what the code claims is invariant: every entry at generic
    points; lambda and the v1 components for vector frames (the completion
    is a fixed gauge); eigen/singular values and per-eigenspace squared
    vector projections at constructed degeneracies.
    """

    name = "frames-mixed"
    why = ("sym, gram, SVD and vector frames, 22.5% constructed degenerate, scales "
           "1e-9..1e9: shows the cost of a fast path or a tolerance change")

    def setup(self, seed, out_dir):
        rng = np.random.default_rng([seed, 3])
        self.seed = seed
        kinds = [FRAME_KINDS[i % 4] for i in range(FRAMES_SYSTEMS)]
        cases = ["generic" if kind == "vector"
                 else DEGENERACY_CYCLE[(i // 4) % len(DEGENERACY_CYCLE)]
                 for i, kind in enumerate(kinds)]
        # stratified log-uniform scales within each (kind, case) group, so that
        # every seed covers the decades evenly and failure shares vary little
        log_c = np.empty(FRAMES_SYSTEMS)
        for group in sorted(set(zip(kinds, cases))):
            idx = [i for i, g in enumerate(zip(kinds, cases)) if g == group]
            strata = (rng.permutation(len(idx)) + rng.uniform(size=len(idx))) / len(idx)
            log_c[idx] = LOG10_SCALE[0] + (LOG10_SCALE[1] - LOG10_SCALE[0]) * strata
        self.cases = []
        for kind, case, e in zip(kinds, cases, log_c):
            c = 10.0 ** e
            q0, r0 = _rotation(rng), _rotation(rng)
            sym = lambda: c * (lambda m: 0.5 * (m + m.T))(rng.standard_normal((3, 3)))
            vec = lambda: c * rng.standard_normal(3)
            if kind == "sym_tensor":
                a1 = c * (q0 * _spectrum(rng, case, False)) @ q0.T
                args = dict(sym=[0.5 * (a1 + a1.T), sym()], vecs=[vec()])
            elif kind == "vector":
                args = dict(vecs=[vec(), vec()])
            else:
                h1 = c * (q0 * _spectrum(rng, case, True)) @ r0.T
                args = dict(nonsym=[h1], vecs=[vec()])
                if kind == "svd":
                    args["sym"] = [sym()]
            self.cases.append((kind, case, float(e), args))
        self.ops_per_pass = FRAMES_SYSTEMS

    def run_pass(self, tracer=None):
        """One sweep over all systems; returns (outputs, [("block", seconds, ops)])."""
        rng = np.random.default_rng([self.seed, 4])
        out, samples = [], []
        start = time.perf_counter()
        for op, (kind, _, _, args) in enumerate(self.cases):
            if tracer is not None:
                tracer.current_op = op
            if op and op % BLOCK == 0:
                start = _sample(samples, start)
            build = (spectral_frame.build_svd_frame if kind == "svd"
                     else spectral_frame.build_frame)
            try:
                system = lin3.tensor_system(**args)
                frame = build(system)
                inv = spectral_frame.extract_invariants(system, frame)
                back = spectral_frame.rebuild_system(inv, frame)
                q = lin3.haar_rotation(rng)
                turned = lin3.conjugate(q, system)
                frame_q = build(turned)
                inv_q = spectral_frame.extract_invariants(turned, frame_q)
                out.append((system, frame, inv, back, frame_q, inv_q))
            except (ValueError, ArithmeticError) as err:
                out.append(err)
        _sample(samples, start)
        return out, samples

    @staticmethod
    def _scale(label, system, kind):
        head, num = _LABEL.match(label).groups()
        k = int(num) - 1 if num else 0
        if head == "lam":
            return (float(system.vecs[0] @ system.vecs[0]) if kind == "vector"
                    else np.linalg.norm(system.sym[0]))
        if head == "sv":
            return np.linalg.norm(system.nonsym[0])
        if head.startswith("u"):
            return 1.0
        group = {"A": system.sym, "H": system.nonsym, "W": system.nonsym,
                 "a": system.vecs}[head]
        return np.linalg.norm(group[k])

    def _rotation_errors(self, kind, case, system, frame, inv, frame_q, inv_q):
        """(error / scale) of every number claimed invariant under rotation."""
        if kind == "vector":
            keep = [lab for lab in inv.labels() if lab == "lam" or lab.endswith("[1]")]
            return [abs(inv[lab] - inv_q[lab]) / self._scale(lab, system, kind)
                    for lab in keep]
        if case == "generic":
            return [abs(x - y) / self._scale(lab, system, kind)
                    for lab, x, y in zip(inv.labels(), inv.values(), inv_q.values())]
        source = system.sym[0] if kind == "sym_tensor" else system.nonsym[0]
        lam_scale = np.linalg.norm(source) ** (2 if kind == "gram" else 1)
        errs = list(np.abs(frame.lambdas - frame_q.lambdas) / lam_scale)
        for s, a in enumerate(system.vecs, start=1):
            comps = np.array([inv[f"a{s}[{i}]"] for i in (1, 2, 3)])
            comps_q = np.array([inv_q[f"a{s}[{i}]"] for i in (1, 2, 3)])
            for g in _EXPECTED_GROUPS[case]:
                errs.append(abs(np.sum(comps[list(g)] ** 2) - np.sum(comps_q[list(g)] ** 2))
                            / float(a @ a))
        return errs

    def _judge(self, kind, case, got):
        """Names of the failed checks of one system, and its worst margin."""
        system, frame, inv, back, frame_q, inv_q = got
        roundtrip = [np.linalg.norm(x - y) / np.linalg.norm(x) for x, y in zip(
            system.sym + system.nonsym + system.vecs, back.sym + back.nonsym + back.vecs)]
        rotation = self._rotation_errors(kind, case, system, frame, inv, frame_q, inv_q)
        reasons, worst = [], 0.0
        for key, errs, tol in (("roundtrip", roundtrip, TOL_ROUNDTRIP),
                               ("rotation", rotation, TOL_ROTATION)):
            margin = max(errs) / tol
            worst = max(worst, margin if np.isfinite(margin) else np.inf)
            if not margin <= 1.0:
                reasons.append(key)
        expected = ((0,), (1, 2)) if kind == "vector" else _EXPECTED_GROUPS[case]
        if tuple(frame.degeneracy) != expected:
            reasons.append("degeneracy")
        return reasons, worst

    def check(self, first, last) -> Outcome:
        failed, hard, worst = 0, 0, 0.0
        parts = []
        by_check, by_kind, by_decade = {}, {}, {}
        for (kind, case, log_c, _), got in zip(self.cases, last):
            if isinstance(got, Exception):
                reasons = ["raised"]
            else:
                system, frame, inv, back, frame_q, inv_q = got
                outputs = (frame.lambdas, inv.values(), inv_q.values(),
                           *back.sym, *back.nonsym, *back.vecs)
                if not all(np.isfinite(x).all() for x in outputs):
                    reasons = ["non-finite"]
                else:
                    reasons, margin = self._judge(kind, case, got)
                    worst = max(worst, margin)
                    parts += [frame.lambdas, inv.values(), inv_q.values()]
            if reasons:
                failed += 1
                hard += reasons[0] in ("raised", "non-finite")
                for r in reasons:
                    by_check[r] = by_check.get(r, 0) + 1
                key = f"{kind}/{case}"
                by_kind[key] = by_kind.get(key, 0) + 1
                decade = f"1e{int(np.floor(log_c)):+d}"
                by_decade[decade] = by_decade.get(decade, 0) + 1
        detail = {"failures_by_check": by_check, "failures_by_kind": by_kind,
                  "failures_by_decade": dict(sorted(by_decade.items(),
                                                    key=lambda kv: int(kv[0][2:])))}
        return Outcome(failed, hard, worst, _digest(*parts), detail)


WORKLOADS = {
    "verify-rank": lambda: VerifyWorkload(
        "verify-rank",
        "slowest user command, the exhaustive N+M+P<=3 rank sweep: FD-Jacobian rank "
        "and per-perturbation frame rebuilds carry the time",
        ("rank",)),
    "verify-claims": lambda: VerifyWorkload(
        "verify-claims",
        "the other six verify suites: classical-basis evaluation under rotations, "
        "conjugate, projections and gradient formulas carry the time",
        ("isotropy", "reconstruction", "gradients", "p-property", "coalescence",
         "hyperelastic")),
    "bulk-ti-stress": BulkStressWorkload,
    "frames-mixed": FramesMixedWorkload,
}
