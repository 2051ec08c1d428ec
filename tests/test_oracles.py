import numpy as np
import pytest

from kamtorus import averaging as avg
from kamtorus import field as fld
from kamtorus import oracles as orc
from kamtorus import scheduler as sch
from kamtorus.diophantine import dirichlet_approx
from kamtorus.errors import ParameterError, StiffnessError
from kamtorus.generate import random_field

import reference as ref


RNG = np.random.default_rng(7)


# ---------------------------------------------------------------------------
# quadrature_time_average
# ---------------------------------------------------------------------------

def test_quadrature_constant_field():
    P = fld.constant_field([2.0, -1.0], 1.0)
    sampler = ref.quadrature_time_average(P, 5, np.array([1.0, 0.4]), 64)
    pts = RNG.uniform(0, 1, size=(6, 2))
    np.testing.assert_allclose(sampler(pts),
                               np.broadcast_to([2.0, -1.0], (6, 2)),
                               atol=1e-13)


def test_quadrature_kills_nonresonant_mode():
    # k=(0,1), omega=(1,1/2): e^{2pi i t/2} averages to 0 over one period
    P = fld.make_field(2, 1.0, {(0, 1): [1.0, 1.0j]})
    sampler = ref.quadrature_time_average(P, 2, np.array([1.0, 0.5]), 64)
    pts = RNG.uniform(0, 1, size=(6, 2))
    assert np.abs(sampler(pts)).max() <= 1e-13


def test_quadrature_keeps_resonant_mode():
    # k=(-1,2), omega=(1,1/2): k.omega = 0, the mode rides along unchanged
    P = fld.make_field(2, 1.0, {(-1, 2): [0.5, 0.25]})
    sampler = ref.quadrature_time_average(P, 2, np.array([1.0, 0.5]), 64)
    pts = RNG.uniform(0, 1, size=(10, 2))
    np.testing.assert_allclose(sampler(pts), fld.eval_many(P, pts),
                               atol=1e-13)


# ---------------------------------------------------------------------------
# ode_flow
# ---------------------------------------------------------------------------

def test_ode_flow_constant_is_translation():
    V = fld.constant_field([0.3, 0.7], 1.0)
    pts = RNG.uniform(0, 1, size=(5, 2))
    np.testing.assert_allclose(ref.ode_flow(V, pts, 1.0),
                               pts + np.array([0.3, 0.7]), atol=1e-12)


def test_ode_flow_zero_field():
    V = fld.zero_field(2, 1.0)
    pts = RNG.uniform(0, 1, size=(5, 2))
    np.testing.assert_array_equal(ref.ode_flow(V, pts, 1.0), pts)


def test_flow_displacement_within_field_norm():
    # time-1 flow moves points by at most the majorant norm of the field
    for seed in range(20):
        V = random_field(2, 1.0, 1e-2 * (1 + seed / 10), 5, seed)
        pts = np.random.default_rng(seed).uniform(0, 1, size=(10, 2))
        out = ref.ode_flow(V, pts, 1.0)
        assert np.abs(out - pts).max() <= fld.norm(V, 1.0) * (1 + 1e-10)


# ---------------------------------------------------------------------------
# grid_pullback_oracle
# ---------------------------------------------------------------------------

def test_grid_pullback_zero_V_returns_Y():
    Y = random_field(2, 1.0, 1e-3, 5, 31)
    V = fld.zero_field(2, 1.0)
    pts = RNG.uniform(0, 1, size=(12, 2))
    out = ref.grid_pullback_oracle(Y, V, pts)
    np.testing.assert_allclose(out, fld.eval_many(Y, pts), atol=1e-10)


@pytest.mark.parametrize("mode", ["fd", "variational"])
def test_grid_pullback_matches_series(mode, golden_freq):
    consts = sch.constants(2, 0.0, golden_freq.gamma, golden_freq.gamma_bar)
    P = random_field(2, 1.0, 1e-6, 5, 41)
    ap = dirichlet_approx(golden_freq, 512.0)
    V = avg.solve_homological(P, avg._divisors(P, ap), ap.q)[1]
    Y = fld.add(fld.constant_field(golden_freq.alpha, 1.0), P)
    series = ref.lie_pullback(Y, V, 1.0, 0.25)
    pts = RNG.uniform(0, 1, size=(15, 2))
    oracle = ref.grid_pullback_oracle(Y, V, pts, mode=mode)
    assert np.abs(oracle - fld.eval_many(series, pts)).max() <= 1e-9


def test_grid_pullback_modes_agree():
    Y = random_field(2, 1.0, 1e-3, 4, 51)
    V = random_field(2, 1.0, 1e-4, 4, 52)
    pts = RNG.uniform(0, 1, size=(10, 2))
    a = ref.grid_pullback_oracle(Y, V, pts, mode="fd")
    b = ref.grid_pullback_oracle(Y, V, pts, mode="variational")
    assert np.abs(a - b).max() <= 1e-9


# ---------------------------------------------------------------------------
# conjugacy_report / orbit_shadowing_check
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("which", ["P", "u"])
@pytest.mark.parametrize("oracle", ["conjugacy", "orbit"])
def test_oracles_reject_a_field_of_another_dimension(golden_freq, which,
                                                     oracle):
    fields = {"P": fld.zero_field(2, 1.0), "u": fld.zero_field(2, 1.0),
              which: fld.zero_field(3, 1.0)}
    with pytest.raises(ParameterError,
                       match=f"{which} is on T\\^3, alpha on T\\^2"):
        if oracle == "conjugacy":
            orc.conjugacy_report(golden_freq, fields["P"], fields["u"],
                                 np.zeros(2), 8)
        else:
            orc.orbit_shadowing_check(golden_freq, fields["P"],
                                      [fields["u"]], np.zeros(2), T=1.0,
                                      samples=4)


@pytest.mark.parametrize("us, T, samples, match", [
    ([0], 1.0, 0, "samples >= 1"),
    ([0], np.nan, 4, "finite"),
    ([0], np.inf, 4, "finite"),
    ([0], -1.0, 4, ">= 0"),
    ([], 1.0, 4, "at least one displacement"),
])
def test_orbit_check_rejects_bad_arguments(golden_freq, us, T, samples,
                                           match):
    zero = fld.zero_field(2, 1.0)
    with pytest.raises(ParameterError, match=match):
        orc.orbit_shadowing_check(golden_freq, zero, [zero for _ in us],
                                  np.zeros(2), T=T, samples=samples)


@pytest.mark.parametrize("grid", [0, -3])
def test_conjugacy_rejects_an_empty_grid(golden_freq, grid):
    zero = fld.zero_field(2, 1.0)
    with pytest.raises(ParameterError, match="grid must be >= 1"):
        orc.conjugacy_report(golden_freq, zero, zero, np.zeros(2), grid)


def test_conjugacy_trivial_identity(golden_freq):
    P = fld.zero_field(2, 1.0)
    u = fld.zero_field(2, 1.0)
    grid = 8
    rep = orc.conjugacy_report(golden_freq, P, u, np.zeros(2), grid)
    assert rep["sup_residual"] <= 1e-11
    assert rep["jacobian_min_det"] == pytest.approx(1.0, abs=1e-10)


def test_conjugacy_constant_counter_term(golden_freq):
    # P constant c, beta = -c, Phi = Id conjugates exactly
    P = fld.constant_field([1e-4, -2e-4], 1.0)
    u = fld.zero_field(2, 1.0)
    grid = 8
    res = orc.conjugacy_report(golden_freq, P, u, np.array([-1e-4, 2e-4]),
                               grid)["sup_residual"]
    assert res <= 1e-11


def test_conjugacy_detects_missing_counter_term(golden_freq):
    P = fld.constant_field([1e-4, -2e-4], 1.0)
    u = fld.zero_field(2, 1.0)
    grid = 8
    res = orc.conjugacy_report(golden_freq, P, u, np.zeros(2),
                               grid)["sup_residual"]
    assert res == pytest.approx(2e-4, rel=1e-6)


def test_conjugacy_residual_linearity(golden_freq):
    # doubling an injected defect doubles the measured residual
    u = fld.zero_field(2, 1.0)
    grid = 8
    res = []
    for scale in (1.0, 2.0):
        P = fld.make_field(2, 1.0, {(1, 0): [scale * 1e-6, 0.0]})
        res.append(orc.conjugacy_report(golden_freq, P, u, np.zeros(2),
                                        grid)["sup_residual"])
    assert res[1] == pytest.approx(2.0 * res[0], rel=1e-5)


def test_orbit_shadowing_trivial(golden_freq):
    P = fld.zero_field(2, 1.0)
    u = fld.zero_field(2, 1.0)
    dev, = orc.orbit_shadowing_check(golden_freq, P, [u], np.zeros(2),
                                     T=10.0, samples=20)
    assert dev <= 1e-10


def test_orbit_shadowing_detects_drift(golden_freq):
    # an uncorrected constant perturbation drifts linearly in T
    P = fld.constant_field([1e-6, 0.0], 1.0)
    u = fld.zero_field(2, 1.0)
    dev, = orc.orbit_shadowing_check(golden_freq, P, [u], np.zeros(2),
                                     T=10.0, samples=20)
    assert dev == pytest.approx(1e-5, rel=1e-6)


def test_full_run_passes_oracles(golden_freq):
    P = random_field(2, 1.0, 1e-6, 5, 61)
    res = sch.run(golden_freq, P, 1.0)
    grid = 16
    u = res.u
    rep = orc.conjugacy_report(golden_freq, P, u, res.beta, grid)
    assert rep["sup_residual"] <= 1e-10
    dev, = orc.orbit_shadowing_check(golden_freq, P, [u], res.beta,
                                     T=20.0, samples=10)
    assert dev <= 1e-8


def _reference_orbit_deviation(alpha, P, u, beta, T, samples):
    """orbit_shadowing_check by a closure chain instead: _rk4 on the
    co-moving state (z, t), z' = beta + eval_many(P, start + t*alpha + z),
    with the same step rule and doubling, and Phi through the full u."""
    n = alpha.n
    theta0 = np.sqrt(np.arange(2, 2 + n)) % 1.0
    a, b = np.asarray(alpha.alpha), np.asarray(beta, dtype=float)
    times = np.linspace(0.0, T, samples + 1)
    start = theta0 + fld.eval_many(u, theta0[None, :])[0]

    def rhs(state):
        z, t = state[:, :n], state[:, n:]
        dz = b[None, :] + fld.eval_many(P, (start + t * a) % 1.0 + z)
        return np.concatenate([dz, np.ones_like(t)], axis=1)

    def trajectory(substeps):
        out, state = [np.zeros(n)], np.zeros((1, n + 1))
        for i in range(samples):
            state[0, n] = times[i]
            state = ref._rk4(rhs, state, times[i + 1] - times[i], substeps)
            out.append(state[0, :n])
        return np.array(out)

    substeps = max(4, int(np.ceil(8 * (times[1] - times[0]))) * 4)
    prev = trajectory(substeps)
    for _ in range(12):
        substeps *= 2
        cur = trajectory(substeps)
        if np.abs(cur - prev).max() <= 1e-10:
            break
        prev = cur
    else:
        pytest.fail("reference orbit integration did not converge")
    w = (theta0[None, :] + times[:, None] * a[None, :]) % 1.0
    diff = cur + (start - theta0) - ((w + fld.eval_many(u, w)) - w)
    diff -= np.round(diff)
    return float(np.abs(diff).max())


@pytest.mark.parametrize("name", ["W1", "W4", "W6"])
def test_orbit_shadowing_matches_reference_rk4(solved, name):
    # two 4th-order integrators, Picard collocation and closure-chain RK4,
    # agree far below the oracle's own floor
    alpha, P, res = solved(name)
    u = res.u
    expect = _reference_orbit_deviation(alpha, P, u, res.beta, 20.0, 20)
    got, = orc.orbit_shadowing_check(alpha, P, [u], res.beta, T=20.0,
                                     samples=20)
    assert abs(got - expect) <= 1e-18


# sup|DP| ~ 0.4: several Picard sweeps a window, and the orbits of
# U_SMALL and of u = 0 need different numbers of them
MODERATE = {(1, 0): [1e-2, 3e-3], (2, -1): [5e-3, 1e-2]}
U_SMALL = {(0, 1): [1e-3, -2e-3]}


@pytest.mark.parametrize("name", ["W1", "W4", "W6", "moderate"])
def test_orbit_check_batches_bit_for_bit(solved, golden_freq, name):
    # each trajectory of the batched state stops at its own Picard
    # tolerance, so it ends where it would integrated alone
    if name == "moderate":
        alpha, P = golden_freq, fld.make_field(2, 1.0, MODERATE)
        u, beta = fld.make_field(2, 1.0, U_SMALL), np.zeros(2)
    else:
        alpha, P, res = solved(name)
        u, beta = res.u, res.beta
    zero = fld.zero_field(alpha.n, 1.0)

    def check(us):
        return orc.orbit_shadowing_check(alpha, P, us, beta, T=100.0,
                                         samples=100)

    assert check([u, zero]) == check([u]) + check([zero])


def test_orbit_check_runs_both_first_step_counts_in_one_sweep(
        golden_freq, monkeypatch):
    # a constant P is integrated exactly, so the first two step counts
    # agree: each window takes two sweeps (the second changes nothing),
    # each one eval_many over all four trajectories, and no third step
    # count is integrated
    P = fld.constant_field([1e-6, -2e-6], 1.0)
    u = fld.make_field(2, 1.0, U_SMALL)
    calls, evaluate = [], fld.eval_many

    def counting(x, thetas):
        calls.append(len(thetas))
        return evaluate(x, thetas)

    monkeypatch.setattr(fld, "eval_many", counting)
    devs = orc.orbit_shadowing_check(golden_freq, P, [u, fld.zero_field(
        2, 1.0)], np.zeros(2), T=10.0, samples=20)
    assert devs[1] == pytest.approx(10.0 * 2e-6, rel=1e-9)
    # one start and one final evaluation of Phi per displacement
    sweeps = [n for n in calls if n > 21]
    assert len(calls) == 2 * 20 + 4 and len(sweeps) == 2 * 20
    assert set(sweeps) == {2 * (2 * 16 + 1) + 2 * (2 * 32 + 1)}


@pytest.mark.parametrize("name", ["W2", "W4", "W6"])
def test_oracles_see_phi_through_the_view(solved, name, monkeypatch):
    # the view drops only modes below the roundoff of u on the real torus:
    # both oracles read the same values as with every mode of u
    alpha, P, res = solved(name)
    u, grid = res.u, 32 if alpha.n == 2 else 8

    def measure():
        rep = orc.conjugacy_report(alpha, P, u, res.beta, grid)
        return (rep["sup_residual"], rep["jacobian_min_det"],
                orc.orbit_shadowing_check(alpha, P, [u], res.beta, T=100.0,
                                          samples=100))

    # u is pruned at its own width, so on W6 no mode is left below that
    # roundoff and the view keeps all of it; on W2 and W4 it drops some
    assert (len(orc.real_torus_view(u).modes) < len(u.modes)) == (
        name != "W6")
    view = measure()
    monkeypatch.setattr(orc, "real_torus_view", lambda field: field)
    assert measure() == view


@pytest.mark.parametrize("name", ["W1", "W2", "W4"])
def test_orbit_shadowing_floor(solved, name):
    alpha, P, res = solved(name)
    dev, = orc.orbit_shadowing_check(alpha, P, [res.u],
                                     res.beta, T=100.0, samples=100)
    assert dev <= 1e-13


@pytest.mark.parametrize("T", [20.0, 100.0])
@pytest.mark.parametrize("name", ["W1", "W4", "W6"])
def test_orbit_shadowing_sees_a_beta_error(solved, name, T):
    # beta off by 1e-12 drifts the orbit by t * 1e-12
    alpha, P, res = solved(name)
    dev, = orc.orbit_shadowing_check(alpha, P, [res.u],
                                     res.beta + 1e-12, T=T, samples=int(T))
    assert dev == pytest.approx(T * 1e-12, rel=0.01)


def test_orbit_shadowing_null_control_w6(solved):
    alpha, P, res = solved("W6")
    dev, null = orc.orbit_shadowing_check(
        alpha, P, [res.u, fld.zero_field(2, 1.0)], res.beta, T=100.0,
        samples=100)
    assert null >= 1e-10 and null >= 1e4 * dev


def test_orbit_shadowing_moderate_field(golden_freq):
    # sup|DP| ~ 0.4 takes four Picard windows per sample interval; the
    # value is that of the previous one-point RK4 integration
    P = fld.make_field(2, 1.0, MODERATE)
    dev, = orc.orbit_shadowing_check(golden_freq, P,
                                     [fld.zero_field(2, 1.0)], np.zeros(2),
                                     T=100.0, samples=100)
    assert dev == pytest.approx(0.02101798239287689, rel=1e-8)


def test_orbit_check_budget_counts_each_trajectory(golden_freq):
    # 18 windows a sample take about 150 sweeps a sample per trajectory:
    # within the budget of 512 for each, not for the sum over the four
    # trajectories of the first two step counts
    P = fld.make_field(2, 1.0, {(1, 0): [0.175, 0.175 / 3]})
    zero = fld.zero_field(2, 1.0)
    devs = orc.orbit_shadowing_check(golden_freq, P, [zero, zero],
                                     np.zeros(2), T=10.0, samples=10)
    assert devs[0] == devs[1] > 0.1


def test_orbit_shadowing_refuses_a_huge_field_up_front(golden_freq):
    # more windows a sample than Picard sweeps allowed a sample: refused
    # before integrating (the CLI tests cover a refusal mid-integration)
    P = fld.make_field(2, 1.0, {(1, 0): [1e3, 5e2]})
    with pytest.raises(StiffnessError, match=r"sup\|DP\| <= 1.26e\+04"):
        orc.orbit_shadowing_check(golden_freq, P,
                                  [fld.zero_field(2, 1.0)] * 2, np.zeros(2),
                                  T=100.0, samples=100)
