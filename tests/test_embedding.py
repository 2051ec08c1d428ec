import numpy as np
import pytest

from kamtorus import field as fld
from kamtorus.embedding import Layer, NearIdentityEmbedding
from kamtorus.errors import StepSizeError
from kamtorus.generate import random_field
from kamtorus.oracles import ode_flow, real_torus_view


def _one_layer(V, source=0.75, target=1.0):
    return NearIdentityEmbedding(V.n, (Layer(V, source, target),))


def _apply(phi, pts):
    """theta + u(theta) with u the displacement of phi."""
    return pts + fld.eval_many(phi.displacement, pts)


def test_constant_field_flows_to_translation():
    V = fld.constant_field([3e-3, -1e-3], 1.0)
    pts = np.random.default_rng(0).uniform(0, 1, size=(7, 2))
    phi = _one_layer(V)
    np.testing.assert_allclose(_apply(phi, pts),
                               pts + np.array([3e-3, -1e-3]), atol=1e-15)
    assert phi.displacement.is_constant
    # a layer outside the Lie-series ratio rho < 1 is refused, not evaluated
    with pytest.raises(StepSizeError):
        _one_layer(fld.constant_field([0.3, -0.1], 1.0)).displacement


def test_zero_field_flow_is_identity():
    pts = np.random.default_rng(1).uniform(0, 1, size=(5, 2))
    phi = _one_layer(fld.zero_field(2, 1.0))
    assert not phi.displacement.coeffs
    np.testing.assert_array_equal(_apply(phi, pts), pts)


def test_layer_displacement_bound():
    for seed in range(10):
        V = random_field(2, 1.0, 1e-3, 5, seed)
        layer = Layer(V, source_width=0.75, target_width=1.0)
        pts = np.random.default_rng(seed).uniform(0, 1, size=(25, 2))
        disp = np.abs(_apply(NearIdentityEmbedding(2, (layer,)), pts)
                      - pts).max()
        assert disp <= layer.displacement_bound() * (1 + 1e-12)
        assert layer.displacement_bound() == fld.norm(V, 1.0)


def test_embedding_composition_pointwise():
    V1 = random_field(2, 1.0, 1e-3, 4, 11)
    V2 = random_field(2, 1.0, 5e-4, 4, 12)
    l1 = Layer(V1, 0.5, 1.0)
    l2 = Layer(V2, 0.25, 0.5)
    phi = NearIdentityEmbedding(2, (l1, l2))
    pts = np.random.default_rng(2).uniform(0, 1, size=(9, 2))
    np.testing.assert_allclose(
        _apply(phi, pts), ode_flow(V1, ode_flow(V2, pts, 1.0), 1.0),
        atol=1e-13)
    assert phi.displacement_bound() == pytest.approx(
        l1.displacement_bound() + l2.displacement_bound())


def test_spectral_phi_matches_composed_flows():
    # Phi = L_1 o L_2 as one Fourier displacement against the RK4 oracle
    rng = np.random.default_rng(7)
    for n in (2, 3):
        for seed, eps in enumerate((1e-4, 1e-3, 1e-2)):
            V1 = random_field(n, 1.0, eps, 4, 30 + seed, k_max=2)
            V2 = random_field(n, 1.0, eps / 3, 4, 40 + seed, k_max=2)
            phi = NearIdentityEmbedding(
                n, (Layer(V1, 0.75, 1.0), Layer(V2, 0.625, 0.75)))
            pts = rng.uniform(0, 1, size=(16, n))
            expect = ode_flow(V1, ode_flow(V2, pts, 1.0), 1.0)
            np.testing.assert_allclose(_apply(phi, pts), expect, rtol=0,
                                       atol=1e-13)


def test_embedding_extended():
    V = random_field(2, 1.0, 1e-3, 4, 3)
    phi = NearIdentityEmbedding(2, (Layer(V, 0.5, 1.0),))
    V2 = random_field(2, 0.5, 1e-4, 4, 4)
    phi2 = phi.extended(Layer(V2, 0.25, 0.5))
    assert len(phi2.layers) == 2
    assert phi2.layers[0] is phi.layers[0]
    pts = np.random.default_rng(4).uniform(0, 1, size=(6, 2))
    np.testing.assert_allclose(_apply(phi2, pts),
                               _apply(phi, ode_flow(V2, pts, 1.0)), atol=1e-13)


def test_fit_displacement_identity_is_zero():
    phi = NearIdentityEmbedding(2, ())
    disp = phi.displacement
    assert fld.norm(disp, 0.5) <= 1e-14
    pts = np.random.default_rng(6).uniform(0, 1, size=(8, 2))
    np.testing.assert_array_equal(_apply(phi, pts), pts)


@pytest.mark.parametrize("name", ["W2", "W4"])
def test_real_torus_view_drops_below_roundoff(solved, name):
    u = solved(name)[2].Phi.displacement
    view = real_torus_view(u)
    assert 0 < len(view.modes) < len(u.modes)
    mass = dict(zip(map(tuple, u.modes.tolist()),
                    np.abs(u.coef).max(axis=1)))
    total = sum(mass.values())
    dropped = sum(mass[k] for k in set(mass) - set(view.coeffs))
    assert dropped <= 2.0 ** -53 * total
    for k in view.coeffs:
        np.testing.assert_array_equal(view.coeffs[k], u.coeffs[k])
    pts = np.random.default_rng(53).uniform(0, 1, size=(10_000, u.n))
    np.testing.assert_array_equal(pts + fld.eval_many(view, pts),
                                  pts + fld.eval_many(u, pts))


def test_real_torus_view_keeps_empty_field_and_mode_zero():
    empty = fld.zero_field(2, 1.0)
    assert real_torus_view(empty) is empty
    u = fld.make_field(2, 1.0, {(0, 0): [1e-30, 0.0], (1, 0): [1.0, 0.0]})
    assert set(real_torus_view(u).coeffs) == {(0, 0), (1, 0), (-1, 0)}
