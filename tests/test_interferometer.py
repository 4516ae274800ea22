"""Transducers, basis rotations, phase sweeps, and fringe visibilities."""

import numpy as np
import pytest

from qcomplement.core import DEGENERACY_TOL, PureState, UnitaryMatrix, tensor_product
from qcomplement.interferometer import (
    INDEPENDENT,
    LOCKED,
    PhaseGrid,
    _MODES,
    _fourier_coefficients,
    _fringe_extrema,
    basis_rotation_R,
    corrected_port_visibility,
    extended_basis_visibility,
    extended_measurement_basis,
    general_basis_rotation,
    joint_probability,
    output_state,
    rotation_support_vector,
    single_probability,
    sweep_interferogram,
    sweep_interferogram_density,
    transducer,
    transducer_bc,
    transducer_bc_general,
    visibility_single,
    visibility_two_party,
)
from qcomplement.measures import (
    ThetaAngles,
    concurrence_bipartition,
    predictability,
    preferred_basis,
    single_particle_character,
    single_visibility_direct,
)
from qcomplement.states import ghz_state, pseudopure, random_pure_state, w_state

GRID = PhaseGrid.uniform(36, INDEPENDENT)
GRID_LOCKED = PhaseGrid.uniform(36, LOCKED)


def _schmidt_state(lam, seed):
    """sqrt(1 - lam) |0>|b0> + sqrt(lam) |1>|b1> with random orthonormal BC
    vectors b0, b1: Schmidt coefficients sigma0^2 = 1 - lam, sigma1^2 = lam."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    amps = np.concatenate([np.sqrt(1.0 - lam) * q[:, 0], np.sqrt(lam) * q[:, 1]])
    return PureState(amps, 3)


def _dense_extrema(f, n=3000, rows=300):
    """Max and min of the fringe with 3x3 Fourier coefficients f, sampled on
    an n x n grid (in blocks of rows to bound memory)."""
    phis = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    e = np.exp(1j * np.outer(phis, _MODES))
    right = f @ e.T
    hi, lo = -np.inf, np.inf
    for start in range(0, n, rows):
        vals = (e[start:start + rows] @ right).real
        hi, lo = max(hi, vals.max()), min(lo, vals.min())
    return hi, lo


def _product_state(theta):
    amps = np.zeros(8)
    amps[0b000], amps[0b100] = np.cos(theta), np.sin(theta)
    return PureState(amps, 3)


class TestPhaseGrid:
    def test_minimum_points(self):
        with pytest.raises(ValueError, match="at least 16"):
            PhaseGrid.uniform(8)

    def test_uniform_range(self):
        g = PhaseGrid.uniform(16)
        assert g.phi1_values[0] == 0.0
        assert g.phi1_values[-1] < 2 * np.pi
        assert abs(g.spacing - 2 * np.pi / 16) < 1e-12

    def test_rejects_nonuniform(self):
        with pytest.raises(ValueError):
            PhaseGrid(np.sort(np.random.default_rng(0).uniform(0, 6, 20)),
                      np.linspace(0, 6, 20, endpoint=False), INDEPENDENT)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            PhaseGrid.uniform(16, "diagonal")

    @pytest.mark.parametrize("step", [0.1, 0.5])
    def test_rejects_grid_not_covering_one_period(self, step):
        vals = step * np.arange(16)
        with pytest.raises(ValueError, match="one period"):
            PhaseGrid(vals, vals.copy(), INDEPENDENT)


class TestTransducer:
    def test_zero_phase_is_symmetric_beam_splitter(self):
        expected = np.array([[1, 1], [-1, 1]]) / np.sqrt(2)
        assert np.max(np.abs(transducer(0.0).entries - expected)) < 1e-15

    def test_unitary_at_random_phase(self):
        u = transducer(1.234).entries
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12

    def test_bc_is_block_diagonal(self):
        t = transducer(0.7).entries
        big = transducer_bc(0.7).entries
        assert np.array_equal(big[:2, :2], t)
        assert np.array_equal(big[2:, 2:], t)
        assert np.max(np.abs(big[:2, 2:])) == 0.0

    def test_general_block_reduces_to_transducer(self):
        phi = 0.9
        general = transducer_bc_general(phi / 2, np.pi / 2, -phi / 2).entries
        assert np.max(np.abs(general - transducer_bc(phi).entries)) < 1e-12


class TestBasisRotation:
    def test_zero_theta_is_cnot_on_last_qubit(self):
        # Control = second BC qubit (LSB), target = first: swaps |01> and |11>.
        r = basis_rotation_R(ThetaAngles(0.0, 0.0, 0.0)).entries
        cnot = np.zeros((4, 4), dtype=complex)
        cnot[0, 0] = cnot[2, 2] = 1.0
        cnot[1, 3] = cnot[3, 1] = 1.0
        assert np.array_equal(r, cnot)

    @pytest.mark.parametrize("theta", [(0.3, 0.0, 1.1), (1.2, 0.4, 2.0),
                                       (2.5, 1.7, 0.2)])
    def test_orthogonal_and_maps_support_vector_to_00(self, theta):
        t = ThetaAngles(*theta)
        r = basis_rotation_R(t).entries
        assert np.max(np.abs(r @ r.conj().T - np.eye(4))) < 1e-12
        phi0 = rotation_support_vector(t)
        mapped = r @ phi0
        assert np.max(np.abs(mapped - np.eye(4)[0])) < 1e-12

    def test_general_rotation_requires_orthonormal_columns(self):
        bad = np.eye(4, dtype=complex)
        bad[:, 1] = bad[:, 0]
        with pytest.raises(ValueError, match="orthonormal"):
            general_basis_rotation(bad)

    def test_general_rotation_sends_basis_to_computational(self):
        psi = random_pure_state(0)
        basis = preferred_basis(psi)
        r = general_basis_rotation(basis).entries
        assert np.max(np.abs(r @ basis.phi0 - np.eye(4)[0])) < 1e-12
        assert np.max(np.abs(r @ basis.phi3 - np.eye(4)[3])) < 1e-12


class TestOutputAndProbabilities:
    def test_output_norm_preserved(self):
        psi = random_pure_state(1)
        r = general_basis_rotation(preferred_basis(psi))
        out = output_state(psi, 0.8, 1.9, r)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12

    def test_joint_probability_matches_brute_force(self):
        psi = random_pure_state(2)
        r = general_basis_rotation(preferred_basis(psi))
        phi1, phi2 = 0.6, 2.3
        out = output_state(psi, phi1, phi2, r)
        # Independent oracle: compose the full 8x8 operator explicitly.
        k = tensor_product(transducer(phi1).entries,
                           r.entries.conj().T @ transducer_bc(phi2).entries
                           @ r.entries)
        rotated = tensor_product(np.eye(2), r.entries) @ (k @ psi.amplitudes)
        total = 0.0
        for i in range(2):
            for j in range(4):
                p = joint_probability(out, i, j, r)
                assert abs(p - abs(rotated[4 * i + j]) ** 2) < 1e-12
                total += p
        assert abs(total - 1.0) < 1e-10
        for i in range(2):
            marg = sum(joint_probability(out, i, j, r) for j in range(4))
            assert abs(single_probability(out, i) - marg) < 1e-12

    def test_port_range_errors(self):
        psi = random_pure_state(3)
        r = general_basis_rotation(preferred_basis(psi))
        out = output_state(psi, 0.0, 0.0, r)
        with pytest.raises(ValueError):
            joint_probability(out, 2, 0, r)
        with pytest.raises(ValueError):
            single_probability(out, 3)


class TestInterferogram:
    @pytest.mark.parametrize("grid", [GRID, GRID_LOCKED])
    def test_normalization_and_marginals(self, grid):
        psi = random_pure_state(4)
        ig = sweep_interferogram(psi, preferred_basis(psi), grid)
        sums = ig.joint.sum(axis=(-1, -2))
        assert np.max(np.abs(sums - 1.0)) < 1e-10
        assert np.max(np.abs(ig.single_a - ig.joint.sum(axis=-1))) < 1e-12

    def test_corrected_definition(self):
        psi = random_pure_state(5)
        ig = sweep_interferogram(psi, preferred_basis(psi), GRID)
        single_bc = ig.joint.sum(axis=-2)
        expected = (ig.joint[..., :, :2]
                    - ig.single_a[..., :, None] * single_bc[..., None, :2] + 0.25)
        assert np.max(np.abs(ig.corrected - expected)) < 1e-12

    def test_product_state_corrected_is_quarter(self):
        psi = _product_state(0.4)
        ig = sweep_interferogram(psi, preferred_basis(psi), GRID)
        assert np.max(np.abs(ig.corrected - 0.25)) < 1e-10

    def test_ghz_locked_corrected_spans_zero_to_half(self):
        psi = ghz_state(np.pi / 2)
        grid = PhaseGrid.uniform(360, LOCKED)
        ig = sweep_interferogram(psi, preferred_basis(psi), grid)
        vals = ig.corrected[..., 0, 0]
        assert vals.min() > -1e-10 and vals.min() < 1e-3
        assert vals.max() < 0.5 + 1e-10 and vals.max() > 0.5 - 1e-3

    def test_locked_phase_covariance(self):
        # Shifting every phase by one grid step rolls the interferogram.
        psi = random_pure_state(6)
        ig = sweep_interferogram(psi, preferred_basis(psi), GRID_LOCKED)
        r = general_basis_rotation(preferred_basis(psi))
        rolled = np.roll(ig.joint, -1, axis=0)
        shifted = []
        for p in GRID_LOCKED.phi1_values + GRID_LOCKED.spacing:
            out = output_state(psi, p, p, r)
            shifted.append([[joint_probability(out, i, j, r) for j in range(4)]
                            for i in range(2)])
        assert np.max(np.abs(np.array(shifted) - rolled)) < 1e-10

    def test_corrected_probability_bounds(self):
        for seed in range(10):
            psi = random_pure_state(seed)
            ig = sweep_interferogram(psi, preferred_basis(psi), GRID)
            assert ig.corrected.min() > -1e-9
            assert ig.corrected.max() < 0.5 + 1e-9

    def test_density_sweep_matches_pure_sweep(self):
        psi = random_pure_state(7)
        basis = preferred_basis(psi)
        ig_pure = sweep_interferogram(psi, basis, GRID)
        ig_rho = sweep_interferogram_density(pseudopure(psi, 1.0), basis, GRID)
        assert np.max(np.abs(ig_pure.joint - ig_rho.joint)) < 1e-10


class TestVisibilitySingle:
    def test_balanced_product_state(self):
        psi = _product_state(np.pi / 4)
        ig = sweep_interferogram(psi, preferred_basis(psi), GRID)
        assert abs(visibility_single(ig, 0) - 1.0) < 1e-6

    def test_ghz_is_zero(self):
        psi = ghz_state(1.0)
        ig = sweep_interferogram(psi, preferred_basis(psi), GRID)
        assert visibility_single(ig, 0) < 1e-9

    def test_tilted_product_state(self):
        psi = _product_state(np.pi / 8)
        ig = sweep_interferogram(psi, preferred_basis(psi), GRID)
        assert abs(visibility_single(ig, 0) - np.sin(np.pi / 4)) < 1e-6

    def test_phi1_only_fringe_extrema_are_exact(self):
        # B = 0 exactly (no phi2 dependence, as for p_A): the stationary
        # polynomial vanishes identically and the roots of A' decide.
        f = np.zeros((3, 3), dtype=complex)
        f[1, 1] = 0.5
        f[2, 1] = 0.15 * np.exp(-0.2j)
        f[0, 1] = np.conj(f[2, 1])
        vmax, vmin = _fringe_extrema(f, GRID.phi1_values)
        assert abs(vmax - 0.8) < 1e-15 and abs(vmin - 0.2) < 1e-15

    def test_port_error(self):
        psi = random_pure_state(8)
        ig = sweep_interferogram(psi, preferred_basis(psi), GRID)
        with pytest.raises(ValueError):
            visibility_single(ig, 2)


class TestVisibilityTwoParty:
    def test_ghz_half_pi_is_one(self):
        psi = ghz_state(np.pi / 2)
        ig = sweep_interferogram(psi, preferred_basis(psi), GRID)
        assert abs(visibility_two_party(ig, 0, 0) - 1.0) < 1e-6

    def test_product_state_is_zero(self):
        psi = PureState(np.eye(8)[0], 3)
        ig = sweep_interferogram(psi, preferred_basis(psi), GRID)
        assert visibility_two_party(ig, 0, 0) < 1e-9

    def test_w_state_equals_concurrence(self):
        psi = w_state(np.pi / 3, np.pi / 2)
        ig = sweep_interferogram(psi, preferred_basis(psi), GRID)
        assert abs(visibility_two_party(ig, 0, 0) - np.sin(np.pi / 3)) < 1e-6

    def test_kernel_ports_rejected(self):
        psi = random_pure_state(9)
        ig = sweep_interferogram(psi, preferred_basis(psi), GRID)
        with pytest.raises(ValueError, match="outside support"):
            visibility_two_party(ig, 0, 2)

    def test_locked_grid_rejected(self):
        # phi1 = phi2 folds the (1, -1) fringe mode into the constant term;
        # the folded value (0.768 here, against C = 0.779) must not be
        # reported as a visibility.
        psi = random_pure_state(3)
        ig = sweep_interferogram(psi, preferred_basis(psi), GRID_LOCKED)
        with pytest.raises(ValueError, match="independent phase grid"):
            visibility_two_party(ig, 0, 0)
        with pytest.raises(ValueError, match="independent phase grid"):
            visibility_single(ig, 0)
        with pytest.raises(ValueError, match="independent phase grid"):
            extended_basis_visibility(psi, [1, 0, 0, 0], GRID_LOCKED)

    @pytest.mark.parametrize("seed", range(3))
    def test_independent_of_grid_size(self, seed):
        psi = random_pure_state(seed + 40)
        basis = preferred_basis(psi)
        v2 = [visibility_two_party(sweep_interferogram(
            psi, basis, PhaseGrid.uniform(n, INDEPENDENT)), 0, 0)
            for n in (16, 36, 360)]
        assert max(v2) - min(v2) <= 1e-13

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 2: the eigensolve basis route groups "
                              "a support eigenvalue below DEGENERACY_TOL with "
                              "the kernel, so V2 misses C near product states")
    @pytest.mark.parametrize("lam", [1e-10, 1e-12])
    def test_near_product_equals_schmidt_concurrence(self, lam):
        psi = _schmidt_state(lam, 0)
        sigma = np.linalg.svd(psi.amplitudes.reshape(2, 4), compute_uv=False)
        assert sigma[1] ** 2 < DEGENERACY_TOL
        ig = sweep_interferogram(psi, preferred_basis(psi), GRID)
        assert abs(visibility_two_party(ig, 0, 0) - 2 * sigma[0] * sigma[1]) <= 1e-12

    @pytest.mark.parametrize("seed", range(15))
    def test_oracle_equivalence(self, seed):
        psi = random_pure_state(seed)
        ig = sweep_interferogram(psi, preferred_basis(psi), GRID)
        v2 = visibility_two_party(ig, 0, 0)
        v1 = visibility_single(ig, 0)
        assert abs(v2 - concurrence_bipartition(psi, 0)) < 1e-6
        assert abs(v1 - single_visibility_direct(psi, 0)) < 1e-6
        # Three-way equality: V2^2 + P^2 + V1^2 = 1 for pure states.
        p = predictability(psi, 0)
        assert abs(v2 * v2 + p * p + v1 * v1 - 1.0) < 1e-6


class TestExtendedBasis:
    def test_measurement_basis_orthonormal_with_requested_direction(self):
        psi = random_pure_state(10)
        basis = preferred_basis(psi)
        rng = np.random.default_rng(0)
        c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        c /= np.linalg.norm(c)
        m = extended_measurement_basis(basis, c)
        assert np.max(np.abs(m.conj().T @ m - np.eye(4))) < 1e-10
        target = basis.vectors() @ c
        assert np.max(np.abs(m[:, 0] - target)) < 1e-10

    def test_rejects_unnormalized_coeffs(self):
        psi = random_pure_state(11)
        with pytest.raises(ValueError, match="normalized"):
            extended_basis_visibility(psi, [1.0, 1.0, 0.0, 0.0], GRID)

    def test_reduction_to_support_port(self):
        psi = random_pure_state(12)
        ig = sweep_interferogram(psi, preferred_basis(psi), GRID)
        v_direct = visibility_two_party(ig, 0, 0)
        v_ext = extended_basis_visibility(psi, [1, 0, 0, 0], GRID)
        assert abs(v_ext - v_direct) < 1e-12

    def test_kernel_direction_on_ghz(self):
        psi = ghz_state(np.pi / 2)
        v = extended_basis_visibility(psi, [0, 0, 1, 0], GRID)
        s = single_particle_character(psi, 0)
        assert v < 1e-9
        assert 1.0 - v * v - s * s > 0.1

    @pytest.mark.parametrize("seed", range(10))
    def test_inequality_and_decomposition(self, seed):
        psi = random_pure_state(seed + 100)
        c_val = concurrence_bipartition(psi, 0)
        s = single_particle_character(psi, 0)
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        coeffs /= np.linalg.norm(coeffs)
        v = extended_basis_visibility(psi, coeffs, GRID)
        assert v * v + s * s <= 1.0 + 1e-8
        support_weight = abs(coeffs[0]) ** 2 + abs(coeffs[1]) ** 2
        assert abs(v - support_weight * c_val) < 1e-6

    def test_convexity_bounds(self):
        psi = random_pure_state(13)
        coeffs = np.array([0.5, 0.5, 0.5, 0.5])
        v = extended_basis_visibility(psi, coeffs, GRID)
        port_vis = [corrected_port_visibility(
            sweep_interferogram(psi, preferred_basis(psi), GRID), 0, j)
            for j in range(4)]
        assert min(port_vis) - 1e-12 <= v <= max(port_vis) + 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_arbitrary_measurement_basis_obeys_inequality(self, seed):
        # Raw visibility measured in a random orthonormal BC basis never
        # exceeds the complementarity bound.
        psi = random_pure_state(seed + 200)
        s = single_particle_character(psi, 0)
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, _ = np.linalg.qr(z)
        ig = sweep_interferogram(psi, general_basis_rotation(q), GRID)
        for j in range(4):
            v = corrected_port_visibility(ig, 0, j)
            assert v * v + s * s <= 1.0 + 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_exact_extrema_bound_dense_sampling(self, seed):
        # In a random basis every Fourier mode is present; the exact extrema
        # must enclose the values sampled on a fine grid and be close to them.
        psi = random_pure_state(seed + 300)
        rng = np.random.default_rng(seed + 300)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4))
                            + 1j * rng.standard_normal((4, 4)))
        ig = sweep_interferogram(psi, general_basis_rotation(q), GRID)
        for j in range(4):
            f = _fourier_coefficients(ig.corrected_full[..., 0, j], GRID)
            vmax, vmin = _fringe_extrema(f, GRID.phi1_values)
            hi, lo = _dense_extrema(f)
            assert hi <= vmax <= hi + 1e-6
            assert lo - 1e-6 <= vmin <= lo
