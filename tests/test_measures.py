import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otrobust.errors import (
    DimensionMismatch,
    EmptyInput,
    LengthMismatch,
    MassNotNormalized,
    NegativeMass,
    NormalizationViolated,
)
from otrobust.measures import (
    CostMatrix,
    DiscreteMeasure,
    WeightVector,
    cost_matrix,
    make_measure,
    reweight,
    weight_radius,
)


def test_make_measure_uniform_default():
    mu = make_measure([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert mu.n == 3 and mu.dim == 2
    np.testing.assert_allclose(mu.mass, 1 / 3)
    assert mu.is_uniform()


def test_make_measure_explicit_mass_not_renormalized():
    with pytest.raises(MassNotNormalized):
        make_measure([[0.0], [1.0]], mass=[0.6, 0.6])


def test_make_measure_rejects_empty_and_negative():
    with pytest.raises(EmptyInput):
        make_measure([])
    with pytest.raises(NegativeMass):
        make_measure([[0.0], [1.0]], mass=[1.2, -0.2])


def test_measure_arrays_are_readonly():
    mu = make_measure([[0.0], [1.0]])
    with pytest.raises(ValueError):
        mu.points[0, 0] = 7.0


def test_mass_length_mismatch():
    with pytest.raises((LengthMismatch, DimensionMismatch)):
        make_measure([[0.0], [1.0]], mass=[1.0])


def test_cost_matrix_euclidean():
    X = make_measure([[0.0, 0.0], [3.0, 4.0]])
    Y = make_measure([[0.0, 0.0]])
    C = cost_matrix(X, Y)
    np.testing.assert_allclose(C.entries, [[0.0], [5.0]])
    C2 = cost_matrix(X, Y, metric="sqeuclidean")
    np.testing.assert_allclose(C2.entries, [[0.0], [25.0]])


def test_cost_matrix_dim_mismatch():
    X = make_measure([[0.0, 0.0]])
    Y = make_measure([[0.0, 0.0, 0.0]])
    with pytest.raises(DimensionMismatch):
        cost_matrix(X, Y)


def test_cost_matrix_rejects_negative_entries():
    with pytest.raises(NegativeMass):
        CostMatrix(np.array([[1.0, -0.5]]))


def test_weight_radius_value():
    # chi2 ball of budget rho in the sum-n frame
    assert weight_radius(0.5, 4) == pytest.approx(2.0)
    assert weight_radius(0.0, 7) == 0.0


def test_weight_vector_validation():
    WeightVector(np.ones(5), 0.0)
    with pytest.raises(NormalizationViolated):
        WeightVector(np.array([2.0, 0.5, 0.5]), 0.0)  # sum ok, ball violated
    with pytest.raises(NormalizationViolated):
        WeightVector(np.array([2.0, 2.0]), 1.0)  # sum wrong
    with pytest.raises(NegativeMass):
        WeightVector(np.array([3.2, -0.2, 0.0, 1.0]), 5.0)
    with pytest.raises(NegativeMass):
        WeightVector(np.ones(3), float("nan"))


@pytest.mark.parametrize("w", [[np.nan, np.nan], [np.nan, 2.0],
                               [1.0, 1.0, np.nan]])
def test_weight_vector_rejects_nan(w):
    with pytest.raises((NegativeMass, NormalizationViolated)):
        WeightVector(np.array(w), 0.1)


@pytest.mark.parametrize("mass", [[np.nan, np.nan], [np.nan, 1.0],
                                  [0.5, 0.5, np.nan]])
def test_measure_rejects_nan_mass(mass):
    with pytest.raises((NegativeMass, MassNotNormalized)):
        DiscreteMeasure(np.zeros((len(mass), 1)), np.array(mass))


def test_reweight_roundtrip_exact():
    mu = make_measure([[0.0], [1.0], [2.0]])
    w = WeightVector(np.ones(3), 0.0)
    nu = reweight(mu, w)
    assert np.array_equal(nu.mass, mu.mass)


def test_reweight_moves_mass():
    mu = make_measure([[0.0], [1.0]])
    w = WeightVector(np.array([1.5, 0.5]), 0.25)
    nu = reweight(mu, w)
    np.testing.assert_allclose(nu.mass, [0.75, 0.25])


def test_reweight_nonuniform_reference_rejected():
    mu = make_measure([[0.0], [1.0]], mass=[0.9, 0.1])
    w = WeightVector(np.array([1.5, 0.5]), 0.25)
    with pytest.raises(NormalizationViolated):
        reweight(mu, w)


@given(
    n=st.integers(min_value=1, max_value=12),
    rho=st.floats(min_value=0.0, max_value=2.0),
    seed=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=60, deadline=None)
def test_weight_vector_ball_invariant_random(n, rho, seed):
    # any vector built by clamp+rescale+shrink lands inside the stated ball
    rng = np.random.default_rng(seed)
    w = np.maximum(rng.normal(1.0, 0.5, n), 0.0)
    if w.sum() == 0:
        w = np.ones(n)
    w *= n / w.sum()
    R = weight_radius(rho, n)
    nrm = np.linalg.norm(w - 1.0)
    if nrm > R:
        w = 1.0 + (w - 1.0) * (R / nrm) if nrm > 0 else w
        w = np.maximum(w, 0.0)
        w *= n / w.sum()
    nrm = np.linalg.norm(w - 1.0)
    if nrm <= R + 1e-8:
        wv = WeightVector(w, rho)
        assert wv.n == n
