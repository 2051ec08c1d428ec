from dataclasses import replace

import numpy as np
import pytest

from kamtorus import field as fld
from kamtorus.embedding import displacement
from kamtorus.errors import StepSizeError
from kamtorus.generate import random_field
from kamtorus.oracles import real_torus_view

import reference as ref


def _apply(flows, pts):
    """theta + u(theta) with u the displacement of the composed flows."""
    return pts + fld.eval_many(displacement(pts.shape[1], flows), pts)


def test_constant_field_flows_to_translation():
    V = fld.constant_field([3e-3, -1e-3], 1.0)
    pts = np.random.default_rng(0).uniform(0, 1, size=(7, 2))
    np.testing.assert_allclose(_apply([(V, 0.75)], pts),
                               pts + np.array([3e-3, -1e-3]), atol=1e-15)
    assert displacement(2, [(V, 0.75)]).is_constant
    # a flow outside the Lie-series ratio rho < 1 is refused, not evaluated
    with pytest.raises(StepSizeError):
        displacement(2, [(fld.constant_field([0.3, -0.1], 1.0), 0.75)])


def test_zero_field_flow_is_identity():
    pts = np.random.default_rng(1).uniform(0, 1, size=(5, 2))
    flows = [(fld.zero_field(2, 1.0), 0.75)]
    assert not displacement(2, flows).coeffs
    np.testing.assert_array_equal(_apply(flows, pts), pts)


def test_layer_displacement_bound():
    # a flow moves no point by more than norm(V) on its source strip
    for seed in range(10):
        V = random_field(2, 1.0, 1e-3, 5, seed)
        pts = np.random.default_rng(seed).uniform(0, 1, size=(25, 2))
        disp = np.abs(_apply([(V, 0.75)], pts) - pts).max()
        assert disp <= fld.norm(V, 1.0) * (1 + 1e-12)


def test_embedding_composition_pointwise():
    V1 = random_field(2, 1.0, 1e-3, 4, 11)
    V2 = replace(random_field(2, 1.0, 5e-4, 4, 12), width_s=0.5)
    pts = np.random.default_rng(2).uniform(0, 1, size=(9, 2))
    np.testing.assert_allclose(
        _apply([(V1, 0.5), (V2, 0.25)], pts),
        ref.ode_flow(V1, ref.ode_flow(V2, pts, 1.0), 1.0), atol=1e-13)


def test_spectral_phi_matches_composed_flows():
    # Phi = L_1 o L_2 as one Fourier displacement against the RK4 oracle
    rng = np.random.default_rng(7)
    for n in (2, 3):
        for seed, eps in enumerate((1e-4, 1e-3, 1e-2)):
            V1 = random_field(n, 1.0, eps, 4, 30 + seed, k_max=2)
            V2 = replace(random_field(n, 1.0, eps / 3, 4, 40 + seed,
                                      k_max=2), width_s=0.75)
            pts = rng.uniform(0, 1, size=(16, n))
            expect = ref.ode_flow(V1, ref.ode_flow(V2, pts, 1.0), 1.0)
            np.testing.assert_allclose(_apply([(V1, 0.75), (V2, 0.625)], pts),
                                       expect, rtol=0, atol=1e-13)


def test_embedding_extended():
    # appending a flow composes it on the inside: Phi o L_2
    l1 = (random_field(2, 1.0, 1e-3, 4, 3), 0.5)
    V2 = random_field(2, 0.5, 1e-4, 4, 4)
    pts = np.random.default_rng(4).uniform(0, 1, size=(6, 2))
    np.testing.assert_allclose(_apply([l1, (V2, 0.25)], pts),
                               _apply([l1], ref.ode_flow(V2, pts, 1.0)),
                               atol=1e-13)


def test_fit_displacement_identity_is_zero():
    disp = displacement(2, ())
    assert fld.norm(disp, 0.5) <= 1e-14
    pts = np.random.default_rng(6).uniform(0, 1, size=(8, 2))
    np.testing.assert_array_equal(_apply((), pts), pts)


@pytest.mark.parametrize("name", ["W2", "W4"])
def test_real_torus_view_drops_below_roundoff(solved, name):
    u = solved(name)[2].u
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
