"""Property-based checks over randomly drawn angles and states."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qcomplement.core import PureState, UnitaryMatrix, apply_unitary, partial_trace
from qcomplement.interferometer import (
    INDEPENDENT,
    PhaseGrid,
    sweep_interferogram,
    visibility_two_party,
)
from qcomplement.measures import (
    concurrence_bipartition,
    preferred_basis,
    single_particle_character,
)
from qcomplement.states import FamilyParams, amplitudes_from_angles

angle = st.floats(min_value=-2 * np.pi, max_value=2 * np.pi,
                  allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(angle, angle, angle, angle, angle, angle, angle)
def test_amplitude_formula_always_normalized(a1, a20, a21, a300, a301, a310, a311):
    psi = amplitudes_from_angles(FamilyParams(a1, a20, a21, a300, a301,
                                              a310, a311))
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-9


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_complementarity_for_arbitrary_seeds(seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi = PureState(raw / np.linalg.norm(raw), 3)
    c = concurrence_bipartition(psi, 0)
    s = single_particle_character(psi, 0)
    assert abs(c * c + s * s - 1.0) < 1e-9


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_reduced_state_purity_bounds(seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi = PureState(raw / np.linalg.norm(raw), 3)
    rho_a = partial_trace(psi.density_matrix(), [0]).entries
    purity = np.trace(rho_a @ rho_a).real
    assert 0.5 - 1e-12 <= purity <= 1.0 + 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.lists(angle, min_size=8, max_size=8), angle, angle, angle)
def test_two_party_visibility_equals_schmidt_concurrence(seed, phases, t, beta, gamma):
    # Random state, complex relative phases on every amplitude, then a local
    # SU(2) rotation of A; V2 from the interferometer must equal 2 sigma0 sigma1.
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    raw = raw / np.linalg.norm(raw) * np.exp(1j * np.array(phases))
    u_a = np.array([[np.cos(t) * np.exp(1j * beta), -np.sin(t) * np.exp(-1j * gamma)],
                    [np.sin(t) * np.exp(1j * gamma), np.cos(t) * np.exp(-1j * beta)]])
    psi = apply_unitary(PureState(raw, 3), UnitaryMatrix(u_a), [0])
    sigma = np.linalg.svd(psi.amplitudes.reshape(2, 4), compute_uv=False)
    ig = sweep_interferogram(psi, preferred_basis(psi), PhaseGrid.uniform(36, INDEPENDENT))
    assert abs(visibility_two_party(ig, 0, 0) - 2 * sigma[0] * sigma[1]) <= 1e-12
