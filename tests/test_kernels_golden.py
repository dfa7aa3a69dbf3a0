"""The per-point kernels reproduce their recorded outputs bit for bit.

``tests/data/kernels_golden.json`` holds seeded inputs and the outputs of
``eig_sym``, ``svd3``, ``build_frame``/``build_svd_frame`` +
``extract_invariants`` and ``hyperelastic_stress`` on them, every float as
``float.hex``.  The inputs span scales 1e-150 .. 1e150 and include
constructed double and triple eigenvalues and rank-deficient tensors; the
stress points are drawn like the bulk benchmark's.  A change that reorders
or replaces any floating-point operation on these paths shows up here.

Regenerate (only when a change of bits is intended and tabled) with
``PYTHONPATH=src python tests/test_kernels_golden.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from isotropykit.lin3 import eig_sym, svd3, tensor_system
from isotropykit.potentials import hyperelastic_stress, polynomial_ti_model
from isotropykit.spectral_frame import build_frame, build_svd_frame, extract_invariants

PATH = Path(__file__).parent / "data" / "kernels_golden.json"
SCALES = tuple(10.0 ** k for k in range(-150, 151, 50))


def _hex(a):
    return [float.hex(x) for x in np.asarray(a, dtype=float).ravel().tolist()]


def _unhex(h, shape):
    return np.array([float.fromhex(x) for x in h]).reshape(shape)


def _rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def _inputs():
    rng = np.random.default_rng(20260)
    sym, full = [], []
    for c in SCALES:
        for spectrum in ([3.0, 2.0, 1.0], [2.0, 2.0, -1.0], [1.5, 1.5, 1.5]):
            q = _rotation(rng)
            m = c * (q * spectrum) @ q.T
            sym.append(0.5 * (m + m.T))
        m = c * rng.standard_normal((3, 3))
        sym.append(0.5 * (m + m.T))
        full.append(c * rng.standard_normal((3, 3)))
        # rank 2 and rank 1, through constructed singular values
        for sv in ([2.0, 1.0, 0.0], [1.0, 0.0, 0.0]):
            full.append(c * (_rotation(rng) * sv) @ _rotation(rng).T)
    full.append(-np.eye(3))
    systems = {
        "sym_tensor": dict(sym=[_sym(rng), _sym(rng)],
                           nonsym=[rng.standard_normal((3, 3)), _skew(rng)],
                           skew=[False, True], vecs=[rng.standard_normal(3)]),
        "gram": dict(nonsym=[rng.standard_normal((3, 3)), _skew(rng)], skew=[False, True],
                     vecs=[rng.standard_normal(3)]),
        "vector": dict(vecs=[rng.standard_normal(3), _unit(rng)], unit=[False, True]),
        "svd": dict(sym=[_sym(rng)], nonsym=[rng.standard_normal((3, 3)), _skew(rng)],
                    skew=[False, True], vecs=[rng.standard_normal(3)]),
    }
    coeffs = 0.3 * rng.standard_normal(8)
    f = np.eye(3) + 0.1 * rng.standard_normal((20, 3, 3))
    c_mats = np.einsum("nki,nkj->nij", f, f)
    a = rng.standard_normal((20, 3))
    fibres = a / np.linalg.norm(a, axis=1, keepdims=True)
    return sym, full, systems, coeffs, c_mats, fibres


def _sym(rng):
    m = rng.standard_normal((3, 3))
    return 0.5 * (m + m.T)


def _skew(rng):
    m = rng.standard_normal((3, 3))
    return 0.5 * (m - m.T)


def _unit(rng):
    x = rng.standard_normal(3)
    return x / np.linalg.norm(x)


def _system_json(args):
    return {key: ([_hex(x) for x in val] if key in ("sym", "nonsym", "vecs") else list(val))
            for key, val in args.items()}


def _system_args(data):
    return {key: ([_unhex(x, (3,) if key == "vecs" else (3, 3)) for x in val]
                  if key in ("sym", "nonsym", "vecs") else val)
            for key, val in data.items()}


def _eig_out(a):
    lams, v, groups = eig_sym(a)
    return {"lams": _hex(lams), "v": _hex(v), "groups": [list(g) for g in groups]}


def _svd_out(f):
    sv, v, u = svd3(f)
    return {"sv": _hex(sv), "v": _hex(v), "u": _hex(u)}


def _frame_out(kind, args):
    system = tensor_system(**args)
    frame = build_svd_frame(system) if kind == "svd" else build_frame(system)
    inv = extract_invariants(system, frame)
    return {"lambdas": _hex(frame.lambdas), "v": _hex(frame.v),
            "u": None if frame.u is None else _hex(frame.u),
            "degeneracy": [list(g) for g in frame.degeneracy],
            "labels": list(inv.labels()), "values": _hex(inv.values()), "count": inv.count}


def _stress_out(model, c_mat, a):
    res = hyperelastic_stress(model, c_mat, a)
    return {"s_potential": _hex(res.s_potential), "s_representation": _hex(res.s_representation),
            "residual": float.hex(res.residual), "alphas": _hex(res.alphas),
            "coeffs_potential": _hex(res.coeffs_potential),
            "coeffs_representation": _hex(res.coeffs_representation),
            "coeff_max_diff": float.hex(res.coeff_max_diff)}


def record():
    sym, full, systems, coeffs, c_mats, fibres = _inputs()
    model = polynomial_ti_model(coeffs)
    return {
        "eig_sym": [{"a": _hex(a), **_eig_out(a)} for a in sym],
        "svd3": [{"f": _hex(f), **_svd_out(f)} for f in full],
        "frames": {kind: {"system": _system_json(args), **_frame_out(kind, args)}
                   for kind, args in systems.items()},
        "stress": {"coeffs": _hex(coeffs),
                   "points": [{"c": _hex(c), "a": _hex(a), **_stress_out(model, c, a)}
                              for c, a in zip(c_mats, fibres)]},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(PATH.read_text())


def test_eig_sym(golden):
    for case in golden["eig_sym"]:
        assert {"a": case["a"], **_eig_out(_unhex(case["a"], (3, 3)))} == case


def test_svd3(golden):
    for case in golden["svd3"]:
        assert {"f": case["f"], **_svd_out(_unhex(case["f"], (3, 3)))} == case


@pytest.mark.parametrize("kind", ["sym_tensor", "gram", "vector", "svd"])
def test_frame_and_invariants(golden, kind):
    case = golden["frames"][kind]
    got = _frame_out(kind, _system_args(case["system"]))
    assert {"system": case["system"], **got} == case


def test_hyperelastic_stress(golden):
    data = golden["stress"]
    model = polynomial_ti_model(_unhex(data["coeffs"], (8,)))
    assert len(data["points"]) == 20
    for case in data["points"]:
        c, a = _unhex(case["c"], (3, 3)), _unhex(case["a"], (3,))
        assert {"c": case["c"], "a": case["a"], **_stress_out(model, c, a)} == case


def test_recorded_inputs_cover_the_double_range_and_degeneracies(golden):
    groups = [tuple(map(tuple, c["groups"])) for c in golden["eig_sym"]]
    assert ((0, 1, 2),) in groups and ((0, 1), (2,)) in groups
    svs = [_unhex(c["sv"], (3,)) for c in golden["svd3"]]
    assert any(s[2] <= 1e-15 * s[0] for s in svs)
    norms = [np.linalg.norm(_unhex(c["a"], (3, 3))) for c in golden["eig_sym"]]
    assert min(norms) < 1e-140 and max(norms) > 1e140


if __name__ == "__main__":
    PATH.write_text(json.dumps(record(), indent=1) + "\n")
