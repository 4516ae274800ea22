"""Reference values the benchmark checks CLI outputs against.

These routes share no code with the package's own: concurrence comes from
the singular values of the 2x4 amplitude matrix, and interferogram rows from
a dense 8x8 Kraus product written out here. The only input taken from the
package is the measurement basis of an ``interfere`` command, because the
joint probabilities depend on the phases of the basis vectors the CLI
chose; that basis is first checked to span the support of rho_BC.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from workloads import Op

V2_TOL = 1e-9
ROW_TOL = 1e-12
BASIS_TOL = 1e-9
SLACK_FLOOR = -1e-8
EQUALITY_TOLERANCE = 1e-6  # the CLI's default --tolerance, which the ops use
ROW_SAMPLES = 64

RECORDS_HEADER = ("# qcomplement records v1",
                  "descriptor,C,P,V_single,S,V2,residual_equality,slack_inequality")
INTERFEROGRAM_HEADER = (
    "# qcomplement interferogram v1",
    "phi1,phi2,joint_00,joint_01,joint_02,joint_03,joint_10,joint_11,joint_12,"
    "joint_13,single_0,single_1,corrected_00,corrected_01,corrected_10,corrected_11")


# ---------------------------------------------------------------------------
# States and reference values
# ---------------------------------------------------------------------------

def random_amplitudes(seed: int) -> np.ndarray:
    """The state ``--random --seed <seed>`` names: normalized i.i.d. complex
    Gaussian amplitudes from numpy's default generator."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    return raw / np.linalg.norm(raw)


def family_amplitudes(name: str, alpha1: float, alpha2_0: float = 0.0,
                      alpha3_00: float = 0.0) -> np.ndarray:
    """GHZ, W and intermediate family states, basis |000> ... |111>."""
    c1, s1 = math.cos(alpha1 / 2), math.sin(alpha1 / 2)
    c2, s2 = math.cos(alpha2_0 / 2), math.sin(alpha2_0 / 2)
    c3, s3 = math.cos(alpha3_00 / 2), math.sin(alpha3_00 / 2)
    amps = np.zeros(8, dtype=np.complex128)
    if name == "ghz":
        amps[0], amps[7] = c1, s1
    elif name == "w":
        amps[1], amps[2], amps[4] = c1 * c2, c1 * s2, s1
    elif name == "intermediate":
        amps[0], amps[1], amps[2], amps[4] = c1 * c2 * c3, c1 * c2 * s3, c1 * s2, s1
    else:
        raise ValueError(f"unknown family {name!r}")
    return amps


def state_amplitudes(spec: tuple) -> np.ndarray:
    if spec[0] == "random":
        return random_amplitudes(spec[1])
    _, name, alpha1, fixed = spec
    return family_amplitudes(name, alpha1, **dict(fixed))


def state_descriptor(spec: tuple) -> str:
    """The descriptor the CLI writes in a record of this state."""
    if spec[0] == "random":
        return f"seed={spec[1]}"
    return f"{spec[1]}:alpha1={spec[2]:.17g}"


def concurrence_svd(amps: np.ndarray) -> float:
    """C = 2 sigma0 sigma1 from the Schmidt form of the A|BC cut."""
    sigma = np.linalg.svd(amps.reshape(2, 4), compute_uv=False)
    return float(2.0 * sigma[0] * sigma[1])


def reference_v2(amps: np.ndarray, coeffs: str | None = None) -> float:
    """V2 = C in the preferred basis; along an extended-basis direction
    V = sum_i |c_i|^2 V(i) with V(0) = V(1) = C and V(2) = V(3) = 0."""
    c = concurrence_svd(amps)
    if coeffs is None:
        return c
    w = np.abs(np.array([complex(p.strip().replace("i", "j"))
                         for p in coeffs.split(",")])) ** 2
    return float(c * (w[0] + w[1]) / w.sum())


# ---------------------------------------------------------------------------
# Check results
# ---------------------------------------------------------------------------

@dataclass
class Check:
    """Outcome of checking one command: ``ops`` operations, ``failed`` of
    them failing, the largest disagreement with the oracle among the values
    compared, and the first reason for a failure."""

    ops: int
    failed: int = 0
    max_err: float = 0.0
    reasons: list = field(default_factory=list)

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        if len(self.reasons) < 5:
            self.reasons.append(reason)

    def observe(self, err: float) -> None:
        self.max_err = max(self.max_err, float(err))


def file_identity(path) -> dict:
    """Byte count and sha256 of a file, read in chunks."""
    digest = hashlib.sha256()
    size = 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
            size += len(chunk)
    return {"bytes": size, "sha256": digest.hexdigest()}


def text_identity(text: str) -> dict:
    data = text.encode("utf-8")
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


# ---------------------------------------------------------------------------
# verify: one operation per state (CSV record)
# ---------------------------------------------------------------------------

def check_verify(op: Op, rc: int, csv_text: str) -> Check:
    n = len(op.states)
    check = Check(ops=n)
    if rc != 0:
        check.fail(f"exit code {rc}", n)
        return check
    lines = csv_text.splitlines()
    if tuple(lines[:2]) != RECORDS_HEADER:
        check.fail("records header missing", n)
        return check
    records = {}
    for line in lines[2:]:
        fields = line.split(",")
        if len(fields) == 8:
            try:
                records[fields[0]] = [float(v) for v in fields[1:]]
            except ValueError:
                pass
    for spec in op.states:
        name = state_descriptor(spec)
        rec = records.get(name)
        if rec is None:
            check.fail(f"{name}: record missing")
            continue
        v2, residual, slack = rec[4], rec[5], rec[6]
        if op.coeffs is None and not residual < EQUALITY_TOLERANCE:
            check.fail(f"{name}: residual {residual:.3g} >= {EQUALITY_TOLERANCE}")
            continue
        if op.coeffs is not None and not slack >= SLACK_FLOOR:
            check.fail(f"{name}: slack {slack:.3g} < {SLACK_FLOOR}")
            continue
        err = abs(v2 - reference_v2(state_amplitudes(spec), op.coeffs))
        check.observe(err)
        if not err <= V2_TOL:
            check.fail(f"{name}: |V2 - V_ref| = {err:.3g}")
    return check


# ---------------------------------------------------------------------------
# interfere: one operation per command
# ---------------------------------------------------------------------------

def _transducer(phi: float) -> np.ndarray:
    em, ep = np.exp(-0.5j * phi), np.exp(0.5j * phi)
    return np.array([[em, ep], [-em, ep]]) / math.sqrt(2.0)


def kraus_row(amps: np.ndarray, basis: np.ndarray, phi1: float, phi2: float,
              epsilon: float | None = None) -> np.ndarray:
    """Row values after the two phases: 8 joint, 2 single (A), 4 corrected.

    K = T(phi1) (x) T_bc(phi2) R with R the conjugate transpose of the basis
    columns; a pseudopure input is (1-eps)/8 I + eps |psi><psi|.
    """
    t2 = _transducer(phi2)
    t_bc = np.zeros((4, 4), dtype=np.complex128)
    t_bc[:2, :2] = t2
    t_bc[2:, 2:] = t2
    k = np.kron(_transducer(phi1), t_bc @ basis.conj().T)
    if epsilon is None:
        joint = np.abs(k @ amps) ** 2
    else:
        rho = (1.0 - epsilon) / 8.0 * np.eye(8) + epsilon * np.outer(amps, amps.conj())
        joint = np.real(np.diag(k @ rho @ k.conj().T))
    joint = joint.reshape(2, 4)
    single_a = joint.sum(axis=1)
    single_bc = joint.sum(axis=0)
    corrected = joint[:, :2] - np.outer(single_a, single_bc[:2]) + 0.25
    return np.concatenate([joint.ravel(), single_a, corrected.ravel()])


def basis_error(amps: np.ndarray, basis: np.ndarray) -> float:
    """Distance of ``basis`` from an orthonormal basis whose first two
    columns span the support of rho_BC (the row space of the 2x4 matrix)."""
    ortho = np.max(np.abs(basis.conj().T @ basis - np.eye(4)))
    _, sigma, vh = np.linalg.svd(amps.reshape(2, 4))
    rank = int(np.count_nonzero(sigma > 1e-12))
    support = vh[:rank].T
    want = support @ support.conj().T
    have = basis[:, :rank] @ basis[:, :rank].conj().T
    return float(max(ortho, np.max(np.abs(want - have))))


def sample_rows(n_rows: int, seed: int, count: int = ROW_SAMPLES) -> set:
    """First, last and seeded-random row indices spread across the grid."""
    if n_rows <= count:
        return set(range(n_rows))
    rng = np.random.default_rng(seed)
    picked = rng.choice(n_rows, size=count - 2, replace=False)
    return {0, n_rows - 1, *(int(i) for i in picked)}


def check_interfere(op: Op, rc: int, path, basis: np.ndarray,
                    samples: int = ROW_SAMPLES) -> Check:
    """``basis``: the 4x4 measurement basis (columns) the CLI used."""
    check = Check(ops=1)
    if rc != 0:
        check.fail(f"exit code {rc}")
        return check
    amps = state_amplitudes(op.states[0])
    err = basis_error(amps, basis)
    if not err <= BASIS_TOL:
        check.fail(f"basis does not span the support ({err:.3g})")
        return check
    n = op.phase_points
    wanted = sample_rows(n * n, op.states[0][1], samples)
    rows = {}
    count = 0
    with open(path, encoding="utf-8") as fh:
        header = (fh.readline().rstrip("\n"), fh.readline().rstrip("\n"))
        if header != INTERFEROGRAM_HEADER:
            check.fail("interferogram header missing")
            return check
        for index, line in enumerate(fh):
            count += 1
            if index in wanted:
                rows[index] = line
    if count != n * n:
        check.fail(f"{count} rows, expected {n * n}")
        return check
    step = 2.0 * math.pi / n
    for index, line in sorted(rows.items()):
        try:
            vals = np.array([float(v) for v in line.split(",")])
        except ValueError:
            check.fail(f"row {index}: not numeric")
            return check
        if vals.size != 16:
            check.fail(f"row {index}: {vals.size} columns")
            return check
        a, b = divmod(index, n)
        grid_err = max(abs(vals[0] - a * step), abs(vals[1] - b * step))
        ref = kraus_row(amps, basis, vals[0], vals[1], op.epsilon)
        row_err = float(np.max(np.abs(vals[2:] - ref)))
        check.observe(max(grid_err, row_err))
        if not max(grid_err, row_err) <= ROW_TOL:
            check.fail(f"row {index}: off by {max(grid_err, row_err):.3g}")
            return check
    return check
