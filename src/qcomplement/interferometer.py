"""Four-way interferometer: transducers, basis rotations, phase sweeps,
probability extraction and fringe visibilities.

Pipeline (particle A vs subsystem BC): the input state is rotated so the
preferred BC basis becomes computational, a 2x2 transducer acts on A with
phase phi1 and a block-diagonal 4x4 transducer acts on BC with phase phi2,
and joint detection probabilities are read out in the rotated frame. The
corrected joint probability p(i,j) - p_A(i) p_BC(j) + 1/4 removes
single-party fringes; its visibility equals the A(BC) concurrence when the
measurement basis spans the support of rho_BC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import PureState, UnitaryMatrix, DensityMatrix, apply_unitary, tensor_product
from .measures import PreferredBasis, ThetaAngles, preferred_basis

LOCKED = "locked"
INDEPENDENT = "independent"


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform phase grid covering [0, 2pi) on each swept axis."""

    phi1_values: np.ndarray
    phi2_values: np.ndarray
    mode: str = LOCKED

    def __post_init__(self):
        if self.mode not in (LOCKED, INDEPENDENT):
            raise ValueError(f"unknown sweep mode {self.mode!r}")
        for name in ("phi1_values", "phi2_values"):
            vals = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, vals)
            if vals.size < 16:
                raise ValueError("phase grid needs at least 16 points per axis")
            diffs = np.diff(vals)
            if np.any(diffs <= 0) or np.max(np.abs(diffs - diffs[0])) > 1e-12:
                raise ValueError("phase grid must be strictly increasing and uniform")
            if vals[0] != 0.0:
                raise ValueError("phase grid must start at 0")
            if abs(vals.size * diffs[0] - 2 * np.pi) > 1e-9:
                raise ValueError("phase grid must cover exactly one period [0, 2pi)")
        if self.mode == LOCKED and self.phi1_values.size != self.phi2_values.size:
            raise ValueError("locked mode requires equal-length phase axes")

    @classmethod
    def uniform(cls, n_points: int = 360, mode: str = LOCKED) -> "PhaseGrid":
        vals = np.linspace(0.0, 2 * np.pi, n_points, endpoint=False)
        return cls(vals, vals.copy(), mode)

    @property
    def spacing(self) -> float:
        return float(self.phi1_values[1] - self.phi1_values[0])


def transducer(phi: float) -> UnitaryMatrix:
    """Phase shifter + symmetric beam splitter acting on one qubit path pair."""
    em = np.exp(-0.5j * phi)
    ep = np.exp(0.5j * phi)
    mat = np.array([[em, ep], [-em, ep]]) / np.sqrt(2.0)
    return UnitaryMatrix(mat)


def transducer_bc(phi: float) -> UnitaryMatrix:
    """Block-diagonal BC transducer: one 2x2 transducer per output-port pair
    {0,1} and {2,3} of the rotated basis."""
    t = transducer(phi).entries
    mat = np.zeros((4, 4), dtype=np.complex128)
    mat[:2, :2] = t
    mat[2:, 2:] = t
    return UnitaryMatrix(mat)


def transducer_bc_general(beta: float, gamma: float, delta: float) -> UnitaryMatrix:
    """General block transducer; gamma = pi/2, beta = -delta = phi/2 reproduces
    :func:`transducer_bc`."""
    c, s = np.cos(gamma / 2.0), np.sin(gamma / 2.0)
    block = np.array([
        [c * np.exp(-1j * beta), s * np.exp(-1j * delta)],
        [-s * np.exp(1j * delta), c * np.exp(1j * beta)],
    ])
    mat = np.zeros((4, 4), dtype=np.complex128)
    mat[:2, :2] = block
    mat[2:, 2:] = block
    return UnitaryMatrix(mat)


def basis_rotation_R(t: ThetaAngles) -> UnitaryMatrix:
    """Explicit real orthogonal rotation mapping the theta-parametrized
    support vector Phi0 to |00>; reduces to CNOT (control = last qubit) at
    theta = (0, 0, 0)."""
    c1, s1 = np.cos(t.theta1 / 2), np.sin(t.theta1 / 2)
    c2, s2 = np.cos(t.theta2 / 2), np.sin(t.theta2 / 2)
    c3, s3 = np.cos(t.theta3 / 2), np.sin(t.theta3 / 2)
    rows = np.array([
        [c1, s1 * c2 * s3, s1 * c2 * c3, s1 * s2],
        [0.0, -s2 * s3, -s2 * c3, c2],
        [-s1, c1 * c2 * s3, c1 * c2 * c3, c1 * s2],
        [0.0, c3, -s3, 0.0],
    ])
    return UnitaryMatrix(rows.astype(np.complex128))


def rotation_support_vector(t: ThetaAngles) -> np.ndarray:
    """The general two-qubit support vector Phi0(theta) (= first row of
    :func:`basis_rotation_R`)."""
    return basis_rotation_R(t).entries[0].conj()


def general_basis_rotation(basis) -> UnitaryMatrix:
    """Unitary whose rows are the conjugated basis vectors: maps the j-th
    basis vector to computational |j>. Accepts a PreferredBasis or a 4x4
    matrix with basis vectors as columns."""
    cols = basis.vectors() if isinstance(basis, PreferredBasis) else np.asarray(basis, dtype=np.complex128)
    if cols.shape != (4, 4):
        raise ValueError("expected four basis vectors of dimension 4")
    if np.max(np.abs(cols.conj().T @ cols - np.eye(4))) > 1e-10:
        raise ValueError("basis vectors are not orthonormal")
    return UnitaryMatrix(cols.conj().T)


def output_state(xi: PureState, phi1: float, phi2: float,
                 r: UnitaryMatrix, perm: UnitaryMatrix | None = None) -> PureState:
    """Full three-qubit output state: transducer on A, and the BC transducer
    conjugated into the preferred frame (with optional port permutation)."""
    if xi.n_qubits != 3:
        raise ValueError("expected a 3-qubit state")
    if perm is None:
        perm = UnitaryMatrix(np.eye(4, dtype=np.complex128))
    u_a = transducer(phi1)
    u_bc = transducer_bc(phi2).entries
    rmat = r.entries
    pmat = perm.entries
    bc_op = UnitaryMatrix(rmat.conj().T @ pmat.conj().T @ u_bc @ pmat @ rmat)
    out = apply_unitary(xi, u_a, [0])
    return apply_unitary(out, bc_op, [1, 2])


def joint_probability(out: PureState, i: int, j: int, r: UnitaryMatrix) -> float:
    """p(i, j) = |<i|_A <j|_BC (I x R) |out>|^2."""
    if i not in (0, 1) or j not in (0, 1, 2, 3):
        raise ValueError("port out of range")
    rotated = tensor_product(np.eye(2), r.entries) @ out.amplitudes
    return float(abs(rotated[4 * i + j]) ** 2)


def single_probability(out: PureState, i: int) -> float:
    """Marginal detection probability of particle A at port i."""
    if i not in (0, 1):
        raise ValueError("port out of range")
    amps = out.amplitudes.reshape(2, 4)
    return float(np.sum(np.abs(amps[i]) ** 2))


@dataclass(frozen=True)
class Interferogram:
    """Joint/single/corrected detection probabilities over a phase grid.

    ``joint`` has shape (grid..., 2, 4); ``single_a`` (grid..., 2);
    ``corrected`` (grid..., 2, 2) covers the support ports. Locked grids have
    one leading grid axis, independent grids two (phi1, phi2).
    """

    grid: PhaseGrid
    joint: np.ndarray
    single_a: np.ndarray
    single_bc: np.ndarray
    corrected: np.ndarray
    corrected_full: np.ndarray = field(repr=False)


def _transducer_batch(phis: np.ndarray) -> np.ndarray:
    em = np.exp(-0.5j * phis)
    ep = np.exp(0.5j * phis)
    out = np.empty((phis.size, 2, 2), dtype=np.complex128)
    out[:, 0, 0] = em
    out[:, 0, 1] = ep
    out[:, 1, 0] = -em
    out[:, 1, 1] = ep
    return out / np.sqrt(2.0)


def _rotated_state_matrix(xi: PureState, rotation: UnitaryMatrix) -> np.ndarray:
    """Y[m, l] = l-th rotated-frame component of the BC part paired with
    A-path m."""
    x = xi.amplitudes.reshape(2, 4)
    return x @ rotation.entries.T


def _corrected_from_joint(joint: np.ndarray):
    single_a = joint.sum(axis=-1)
    single_bc = joint.sum(axis=-2)
    corrected_full = joint - single_a[..., :, None] * single_bc[..., None, :] + 0.25
    return single_a, single_bc, corrected_full


def sweep_interferogram(xi: PureState, basis, grid: PhaseGrid) -> Interferogram:
    """Populate all detection probabilities of the interferometer over a grid.

    ``basis`` is a PreferredBasis or a 4x4 matrix of measurement vectors
    (columns); the rotation is built with :func:`general_basis_rotation`.
    """
    rotation = basis if isinstance(basis, UnitaryMatrix) else general_basis_rotation(basis)
    y = _rotated_state_matrix(xi, rotation)
    ua = _transducer_batch(grid.phi1_values)          # (N1, 2, 2)
    t2 = _transducer_batch(grid.phi2_values)          # (N2, 2, 2)
    z = np.empty((grid.phi2_values.size, 2, 4), dtype=np.complex128)
    z[:, :, :2] = np.einsum("bjl,ml->bmj", t2, y[:, :2])
    z[:, :, 2:] = np.einsum("bjl,ml->bmj", t2, y[:, 2:])
    if grid.mode == LOCKED:
        amp = np.einsum("aim,amj->aij", ua, z)
    else:
        amp = np.einsum("aim,bmj->abij", ua, z)
    joint = np.abs(amp) ** 2
    single_a, single_bc, corrected_full = _corrected_from_joint(joint)
    return Interferogram(grid, joint, single_a, single_bc,
                         corrected_full[..., :, :2], corrected_full)


def sweep_interferogram_density(rho: DensityMatrix, basis, grid: PhaseGrid) -> Interferogram:
    """Density-matrix variant of :func:`sweep_interferogram` (pseudopure runs)."""
    rotation = basis if isinstance(basis, UnitaryMatrix) else general_basis_rotation(basis)
    rmat = rotation.entries

    def joint_at(phi1: float, phi2: float) -> np.ndarray:
        k = tensor_product(transducer(phi1).entries, transducer_bc(phi2).entries @ rmat)
        probs = np.einsum("ij,jk,ik->i", k, rho.entries, k.conj()).real
        return probs.reshape(2, 4)

    if grid.mode == LOCKED:
        points = [(p, p) for p in grid.phi1_values]
        joint = np.array([joint_at(p1, p2) for p1, p2 in points])
    else:
        joint = np.array([
            [joint_at(p1, p2) for p2 in grid.phi2_values]
            for p1 in grid.phi1_values
        ])
    single_a, single_bc, corrected_full = _corrected_from_joint(joint)
    return Interferogram(grid, joint, single_a, single_bc,
                         corrected_full[..., :, :2], corrected_full)


_MODES = np.arange(-1, 2)

# Relative size below which the outer coefficients of a trigonometric
# polynomial are rounding noise: they carry no root on the unit circle, but
# left in they would swamp the companion matrix of np.roots.
_ROUNDING_REL = 1e-12


def _fourier_coefficients(fringe: np.ndarray, grid: PhaseGrid) -> np.ndarray:
    """F[k + 1, l + 1] (k, l in {-1, 0, 1}): the Fourier coefficients of a
    fringe sampled on an independent full-period grid.

    Every detection amplitude is linear in exp(+-i phi1/2) and exp(+-i phi2/2),
    so every fringe (joint, single and corrected probabilities) is a
    trigonometric polynomial of degree <= 1 in each phase. A grid of at least
    16 points per axis samples it without aliasing, so these are exact.
    """
    if grid.mode != INDEPENDENT:
        raise ValueError("fringe visibility needs an independent phase grid: a "
                         "locked sweep (phi1 = phi2) folds the (1, -1) fringe "
                         "mode into the constant term")
    e1 = np.exp(-1j * np.outer(_MODES, grid.phi1_values)) / grid.phi1_values.size
    e2 = np.exp(-1j * np.outer(grid.phi2_values, _MODES)) / grid.phi2_values.size
    return e1 @ fringe @ e2


def _trig_roots(c: np.ndarray) -> np.ndarray:
    """Phases of the roots of sum_k c[k + d] exp(i k phi), k = -d..d, for a
    real-valued trigonometric polynomial (c[d - k] = conj(c[d + k])). Roots off
    the unit circle give their angles too: harmless extra candidates."""
    scale = np.max(np.abs(c))
    while c.size > 1 and abs(c[0]) <= _ROUNDING_REL * scale:
        c = c[1:-1]
    if c.size == 1:
        return np.empty(0)
    return np.angle(np.roots(c[::-1]))


def _fringe_extrema(f: np.ndarray, phi1_values: np.ndarray) -> tuple[float, float]:
    """Exact (max, min) of the fringe with 3x3 Fourier coefficients ``f``.

    At fixed phi1 the fringe is A + 2|B| cos(phi2 + arg B), with
    A = sum_k f[k, 0] e^{ik phi1} and B = sum_k f[k, 1] e^{ik phi1}, so its
    extrema over phi2 are A +- 2|B|. Those are stationary in phi1 where
    A'|B| = -+(|B|^2)', i.e. at roots of the degree-4 trigonometric
    polynomial A'^2 |B|^2 - ((|B|^2)')^2. Where B vanishes identically, A'
    alone decides; the grid values are kept as candidates as well.
    """
    a, b = f[:, 1], f[:, 2]
    da = 1j * _MODES * a
    bb = np.convolve(b, b[::-1].conj())
    dbb = 1j * np.arange(-2, 3) * bb
    stationary = np.convolve(np.convolve(da, da), bb) - np.convolve(dbb, dbb)
    phis = np.concatenate([_trig_roots(stationary), _trig_roots(da), phi1_values])
    e = np.exp(1j * np.outer(phis, _MODES))
    mean = (e @ a).real
    swing = 2.0 * np.abs(e @ b)
    return float(np.max(mean + swing)), float(np.min(mean - swing))


def _visibility(fringe: np.ndarray, grid: PhaseGrid) -> float:
    vmax, vmin = _fringe_extrema(_fourier_coefficients(fringe, grid), grid.phi1_values)
    if vmax + vmin <= 0.0:
        return 0.0
    return float(min(1.0, (vmax - vmin) / (vmax + vmin)))


def visibility_single(ig: Interferogram, i: int) -> float:
    """Single-particle fringe visibility (max-min)/(max+min) of p_A(i), from
    the exact extrema of its Fourier series; needs an independent grid."""
    if i not in (0, 1):
        raise ValueError("port out of range")
    return _visibility(ig.single_a[..., i], ig.grid)


def corrected_port_visibility(ig: Interferogram, i: int, j: int) -> float:
    """Fringe visibility of the corrected joint probability for any BC port,
    including the zero-support ports 2 and 3; needs an independent grid."""
    if i not in (0, 1) or j not in (0, 1, 2, 3):
        raise ValueError("port out of range")
    return _visibility(ig.corrected_full[..., i, j], ig.grid)


def visibility_two_party(ig: Interferogram, i: int, j: int) -> float:
    """Corrected two-party fringe visibility on the support ports; equals the
    A(BC) concurrence for pure states measured in the preferred basis."""
    if j in (2, 3):
        raise ValueError("outside support")
    return corrected_port_visibility(ig, i, j)


def _symplectic_partner(coeffs: np.ndarray) -> np.ndarray:
    c = coeffs
    return np.array([-np.conj(c[1]), np.conj(c[0]), -np.conj(c[3]), np.conj(c[2])])


def extended_measurement_basis(basis: PreferredBasis, coeffs: Sequence[complex]) -> np.ndarray:
    """Orthonormal measurement basis whose first vector is sum_i c_i Phi_i.

    The partner vector of each transducer port pair is the symplectic
    conjugate of the first, which keeps support and kernel contributions
    aligned between the two interfering arms.
    """
    c = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
    if c.size != 4:
        raise ValueError("expected 4 coefficients")
    if abs(np.linalg.norm(c) - 1.0) > 1e-9:
        raise ValueError("coefficients must be normalized")
    k0 = c
    k1 = _symplectic_partner(k0)
    chosen = [k0, k1]
    k2 = None
    for idx in range(4):
        cand = np.zeros(4, dtype=np.complex128)
        cand[idx] = 1.0
        for u in chosen:
            cand -= u * (u.conj() @ cand)
        nrm = np.linalg.norm(cand)
        if nrm > 1e-6:
            k2 = cand / nrm
            break
    k3 = _symplectic_partner(k2)
    kmat = np.column_stack([k0, k1, k2, k3])
    return basis.vectors() @ kmat


def extended_basis_visibility(xi: PureState, coeffs: Sequence[complex],
                              grid: PhaseGrid) -> float:
    """Two-party visibility along the measurement direction sum_i c_i Phi_i
    of the extended basis: V = sum_i |c_i|^2 V(i), where V(i) is the measured
    corrected visibility of preferred port i (zero for the kernel ports of a
    pure state). The combination is a convex average, so
    min V(i) <= V <= max V(i), and V^2 + S^2 <= 1 with equality exactly when
    the direction lies in the support of rho_BC.
    """
    c = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
    if c.size != 4:
        raise ValueError("expected 4 coefficients")
    if abs(np.linalg.norm(c) - 1.0) > 1e-9:
        raise ValueError("coefficients must be normalized")
    ig = sweep_interferogram(xi, preferred_basis(xi), grid)
    port_vis = [corrected_port_visibility(ig, 0, j) for j in range(4)]
    weights = np.abs(c) ** 2
    return float(np.dot(weights, port_vis))
