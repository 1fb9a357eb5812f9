import numpy as np
import pytest
from scipy.linalg import eigvals as dense_eigvals

from ltne import (Domain, Params, SpectralField, State, assemble_linear,
                  jacobian, rhs, spectral_abscissa, state_norms)
from ltne.dynamics import NORMS, _energy_identity_rhs, _sq_norms


def _params(**kw):
    base = dict(Ra=10.0, Pr=1.0, Da=1.0, C=1.0, lam=1.0, gamma=1.0,
                alpha=1.0, a=1.0)
    base.update(kw)
    return Params(**base)


def _rand_state(dom, rng, scale=1.0):
    f = [SpectralField(scale * rng.uniform(-1.0, 1.0, (dom.Nx, dom.Nz)), dom)
         for _ in range(3)]
    return State(*f)


def _mode_state(dom, field, m, n, amp=1.0):
    coeffs = {k: np.zeros((dom.Nx, dom.Nz)) for k in ("psi", "theta", "phi")}
    coeffs[field][m - 1, n - 1] = amp
    return State(*(SpectralField(coeffs[k], dom)
                   for k in ("psi", "theta", "phi")))


def test_rhs_phi_only_mode_literals():
    # phi_(1,1) = 1 alone: d theta = lam * phi, d phi = (mu - gamma lam)/alpha
    dom = Domain(a=1.0, Nx=4, Nz=4)
    p = _params()
    dpsi, dth, dph = rhs(_mode_state(dom, "phi", 1, 1), p)
    assert np.all(dpsi == 0.0)
    exp_th = np.zeros((4, 4))
    exp_th[0, 0] = 1.0
    assert np.allclose(dth, exp_th, atol=1e-15)
    exp_ph = np.zeros((4, 4))
    exp_ph[0, 0] = -2.0 * np.pi ** 2 - 1.0
    assert np.allclose(dph, exp_ph, rtol=1e-14, atol=1e-15)


def test_rhs_theta_only_mode_literals():
    # theta_(1,1) = 1 feeds psi through the x-derivative projection: row m'
    # of the D matrix holds 4 m' / (m'^2 - 1) for even m', so psi modes
    # (2,1) and (4,1) receive Ra * D / mu with mu = -5 pi^2 and -17 pi^2
    dom = Domain(a=1.0, Nx=5, Nz=4)
    lam = 2.0
    p = _params(Ra=5.0 * np.pi ** 2, lam=lam)
    dpsi, dth, dph = rhs(_mode_state(dom, "theta", 1, 1), p)
    assert dpsi[1, 0] == pytest.approx(-8.0 / 3.0, rel=1e-13)
    assert dpsi[3, 0] == pytest.approx(
        5.0 * np.pi ** 2 * (16.0 / 15.0) / (-17.0 * np.pi ** 2), rel=1e-13)
    assert dpsi[0, 0] == 0.0 and dpsi[2, 0] == 0.0
    assert np.all(dpsi[:, 1:] == 0.0)
    assert dth[0, 0] == pytest.approx(-2.0 * np.pi ** 2 - lam, rel=1e-14)
    assert dph[0, 0] == pytest.approx(p.gamma * lam / p.alpha, rel=1e-14)


def test_rhs_aspect_mismatch_rejected():
    dom = Domain(a=1.0, Nx=3, Nz=3)
    with pytest.raises(ValueError, match="aspect mismatch"):
        rhs(_mode_state(dom, "psi", 1, 1, amp=0.0), _params(a=2.0))


def test_state_validation():
    dom = Domain(a=1.0, Nx=3, Nz=3)
    other = Domain(a=1.0, Nx=4, Nz=3)
    z3, z4 = (SpectralField(np.zeros((d.Nx, d.Nz)), d) for d in (dom, other))
    with pytest.raises(ValueError, match="different domains"):
        State(z3, z3, z4)
    bad = np.zeros((3, 3))
    bad[1, 1] = np.inf
    with pytest.raises(ValueError):
        State(z3, SpectralField(bad, dom), z3)


def test_nonlinearity_is_quadratic():
    # N(s) = rhs(s) - L s lives in theta only and scales like amplitude^2
    rng = np.random.default_rng(31)
    dom = Domain(a=1.3, Nx=5, Nz=5)
    p = _params(a=1.3, Ra=40.0)
    s1 = _rand_state(dom, rng)
    s2 = State(SpectralField(2.0 * s1.psi.coeffs, dom),
               SpectralField(2.0 * s1.theta.coeffs, dom),
               SpectralField(2.0 * s1.phi.coeffs, dom))
    n1 = rhs(s1, p)[1] - rhs(s1, p, include_jacobian=False)[1]
    n2 = rhs(s2, p)[1] - rhs(s2, p, include_jacobian=False)[1]
    assert np.allclose(n2, 4.0 * n1, rtol=1e-12, atol=1e-13)
    full, lin = rhs(s1, p), rhs(s1, p, include_jacobian=False)
    assert np.array_equal(full[0], lin[0])
    assert np.array_equal(full[2], lin[2])
    # the dropped term is exactly the projected Jacobian
    assert np.allclose(lin[1] - full[1],
                       jacobian(s1.psi, s1.theta).coeffs, rtol=1e-13,
                       atol=1e-14)


def test_dense_matches_linear_rhs():
    # pins the dense layout: [psi; theta; phi] rows and columns, row-major
    # per block, acting on a column vector
    rng = np.random.default_rng(41)
    for cond in (False, True):
        dom = Domain(a=1.1, Nx=4, Nz=3)
        p = _params(a=1.1, Ra=30.0, lam=1.5, gamma=0.6, alpha=2.0,
                    conduction_coupling=cond)
        L = assemble_linear(p, dom)
        s = _rand_state(dom, rng)
        vec = np.concatenate([s.psi.coeffs.ravel(), s.theta.coeffs.ravel(),
                              s.phi.coeffs.ravel()])
        out = np.concatenate([d.ravel()
                              for d in rhs(s, p, include_jacobian=False)])
        assert np.allclose(L.dense() @ vec, out, rtol=1e-12, atol=1e-13)


def test_assemble_linear_is_read_off_rhs_bit_for_bit():
    # lpsi, b11 and b22 equal `rhs` without the Jacobian at the unit states
    # (one field 1 in every mode, the others 0) bit for bit, signed zeros
    # included, and b12, b21 are Python floats equal to every entry of
    # theirs; d[j][f] is field f's derivative at unit state j
    rng = np.random.default_rng(53)
    bits = lambda x: np.asarray(x, dtype=float).view(np.int64)
    for k in range(24):
        a = float(rng.uniform(0.3, 3.0))
        Nx, Nz = (int(n) for n in rng.choice(6, 2, replace=False) + 1)
        dom = Domain(a=a, Nx=Nx, Nz=Nz)
        p = _params(a=a, conduction_coupling=bool(k % 2), **{
            name: float(10.0 ** rng.uniform(-3, 3))
            for name in ("Ra", "Pr", "Da", "C", "lam", "gamma", "alpha")})
        L = assemble_linear(p, dom)
        units = np.eye(3)[:, :, None, None] * np.ones((Nx, Nz))
        d = [rhs(State(*(SpectralField(u, dom) for u in unit)), p,
                 include_jacobian=False) for unit in units]
        assert np.array_equal(bits(L.lpsi), bits(d[0][0]))
        assert np.array_equal(bits(L.b11), bits(d[1][1]))
        assert np.array_equal(bits(L.b22), bits(d[2][2]))
        assert type(L.b12) is float and type(L.b21) is float
        assert np.all(bits(d[2][1]) == bits(L.b12))
        assert np.all(bits(d[1][2]) == bits(L.b21))


def test_rhs_psi_only_mode_literals():
    # psi_(1,1) = 1: damping -(Pr/Da)(2 C pi^2 + 1) at mu = -2 pi^2, and the
    # conduction source d/dx sin(pi x) projected on sin(m pi x), m = 2, 4
    dom = Domain(a=1.0, Nx=5, Nz=3)
    for cond in (False, True):
        p = _params(Pr=2.0, Da=0.5, C=0.4, conduction_coupling=cond)
        dpsi, dth, _ = rhs(_mode_state(dom, "psi", 1, 1), p,
                           include_jacobian=False)
        assert dpsi[0, 0] == pytest.approx(
            -(2.0 / 0.5) * (2 * 0.4 * np.pi ** 2 + 1.0), rel=1e-14)
        want = np.zeros((dom.Nx, dom.Nz))
        if cond:
            want[1, 0], want[3, 0] = 8.0 / 3.0, 16.0 / 15.0
        assert np.allclose(dth, want, rtol=1e-14, atol=0.0)


def test_dense_spectrum_is_union_of_mode_spectra():
    # without conduction the matrix is block upper triangular, so its
    # eigenvalues are the psi multipliers plus the 2x2 block eigenvalues
    dom = Domain(a=1.4, Nx=4, Nz=4)
    p = _params(a=1.4, Ra=200.0, lam=0.9, gamma=1.3, alpha=0.7)
    L = assemble_linear(p, dom)
    dense = dense_eigvals(L.dense())
    assert np.max(np.abs(dense.imag)) < 1e-9
    blocks = L.block_eigenvalues()
    assert np.max(np.abs(blocks.imag)) == 0.0
    expected = np.sort(np.concatenate([blocks.real.ravel(),
                                       L.lpsi.ravel()]))
    got = np.sort(dense.real)
    scale = np.max(np.abs(expected))
    assert np.allclose(got, expected, atol=1e-10 * scale)


def test_block_eigenvalues_real_for_positive_params():
    rng = np.random.default_rng(43)
    dom = Domain(a=1.0, Nx=6, Nz=6)
    for _ in range(20):
        lam, gamma, alpha = rng.uniform(0.05, 20.0, 3)
        p = _params(lam=lam, gamma=gamma, alpha=alpha)
        eigs = assemble_linear(p, dom).block_eigenvalues()
        assert np.max(np.abs(eigs.imag)) == 0.0
        assert np.max(eigs.real) < 0.0


def test_spectral_abscissa_literal_and_ra_invariance():
    dom = Domain(a=1.0, Nx=8, Nz=8)
    p = _params(Ra=1.0)
    val = spectral_abscissa(assemble_linear(p, dom))
    assert val == pytest.approx(-2.0 * np.pi ** 2, rel=1e-13)
    # Ra never enters the triangular spectrum
    assert spectral_abscissa(assemble_linear(_params(Ra=1e6), dom)) == val
    # triangular shortcut agrees with a dense eigensolve
    small = Domain(a=1.0, Nx=4, Nz=4)
    Ls = assemble_linear(_params(Ra=500.0, lam=2.0, alpha=0.3), small)
    dense_max = float(np.max(dense_eigvals(Ls.dense()).real))
    assert spectral_abscissa(Ls) == pytest.approx(dense_max, abs=1e-10)


def test_spectral_abscissa_conduction_paths():
    small = Domain(a=1.0, Nx=4, Nz=4)
    p = _params(Ra=50.0, conduction_coupling=True)
    L = assemble_linear(p, small)
    want = float(np.max(dense_eigvals(L.dense()).real))
    assert spectral_abscissa(L) == pytest.approx(want, abs=1e-10)
    big = Domain(a=1.0, Nx=17, Nz=17)
    with pytest.raises(ValueError, match="refusing"):
        spectral_abscissa(assemble_linear(p, big))


def _energy_pairing(s, p):
    """(1/2) d/dt of E_Y = (Da/Pr)||lap psi||^2 + ||theta||^2 + alpha||phi||^2
    along rhs: (Da/Pr)<lap dpsi, lap psi> + <dtheta, theta>
    + alpha <dphi, phi>, from rhs's arrays."""
    mu, a4 = s.dom.plan.mu, s.dom.a / 4.0
    dpsi, dth, dph = rhs(s, p)
    return ((p.Da / p.Pr) * a4 * np.sum(mu * dpsi * mu * s.psi.coeffs)
            + a4 * np.sum(dth * s.theta.coeffs)
            + p.alpha * a4 * np.sum(dph * s.phi.coeffs))


def test_energy_pairing_matches_identity():
    # the closed form against the pairing of rhs's arrays with the state,
    # and against a central difference of E_Y along rhs, which is exact
    # up to roundoff because E_Y is quadratic
    rng = np.random.default_rng(47)
    for cond in (False, True):
        dom = Domain(a=1.6, Nx=8, Nz=6)
        p = _params(a=1.6, Ra=100.0, lam=1.7, gamma=0.8, alpha=1.9, C=0.4,
                    Pr=2.0, Da=0.5, conduction_coupling=cond)
        mu, a4 = dom.plan.mu, dom.a / 4.0

        def e_y(c):
            return a4 * ((p.Da / p.Pr) * np.sum((mu * c[0]) ** 2)
                         + np.sum(c[1] ** 2) + p.alpha * np.sum(c[2] ** 2))

        for _ in range(5):
            s = _rand_state(dom, rng)
            C = np.stack((s.psi.coeffs, s.theta.coeffs, s.phi.coeffs))
            rhs_val = _energy_identity_rhs(C, p, dom, state_norms(s))
            assert _energy_pairing(s, p) == pytest.approx(rhs_val, rel=1e-9,
                                                          abs=1e-9)
            F, h = rhs(s, p), 1e-2
            fd = (e_y(C + h * F) - e_y(C - h * F)) / (4.0 * h)
            assert fd == pytest.approx(rhs_val, rel=1e-9, abs=1e-9)


def test_energy_pairing_jacobian_contributes_nothing():
    # skew symmetry of the advective term: pairing of rhs with the state is
    # unchanged when the Jacobian is dropped
    rng = np.random.default_rng(53)
    dom = Domain(a=1.0, Nx=7, Nz=7)
    p = _params(Ra=80.0)
    s = _rand_state(dom, rng)
    a4 = dom.a / 4.0
    full = rhs(s, p)[1]
    lin = rhs(s, p, include_jacobian=False)[1]
    pair_full = a4 * np.sum(full * s.theta.coeffs)
    pair_lin = a4 * np.sum(lin * s.theta.coeffs)
    assert pair_full == pytest.approx(pair_lin, rel=1e-10, abs=1e-10)


def test_mode_coupling_structure_preserves_parity():
    # the x-derivative projection only links mode pairs of opposite parity
    dom = Domain(a=1.0, Nx=6, Nz=3)
    p = _params(Ra=10.0)
    for m in (1, 2, 3):
        nz = np.nonzero(rhs(_mode_state(dom, "theta", m, 2), p)[0])
        assert set(nz[1].tolist()) <= {1}
        for mp in nz[0] + 1:
            assert (mp + m) % 2 == 1


@pytest.mark.parametrize("nx, nz, a", [(4, 4, 1.0), (12, 8, 1.3),
                                       (16, 16, 1.0), (64, 64, 1.0)])
def test_norm_kernel_equals_hk_sq_bit_for_bit(nx, nz, a):
    # one square and one weighted row sum per field, with or without the
    # caller's buffers, give exactly the per-norm sums (a/4) sum |mu|^k c^2
    rng = np.random.default_rng(89)
    dom = Domain(a=a, Nx=nx, Nz=nz)
    taper = np.exp(-0.2 * np.add.outer(np.arange(nx), np.arange(nz)))
    ks = {"grad_psi_sq": (0, 1), "lap_psi_sq": (0, 2),
          "gradlap_psi_sq": (0, 3), "theta_sq": (1, 0),
          "grad_theta_sq": (1, 1), "phi_sq": (2, 0), "grad_phi_sq": (2, 1)}
    assert set(NORMS) == set(ks)
    work = (np.empty((3, nx * nz)), np.empty((len(NORMS), nx * nz)))
    for _ in range(5):
        C = rng.standard_normal((3, nx, nz)) * taper
        want = {name: float(a / 4.0 * np.sum(dom.plan.weight(k) * C[f] ** 2))
                for name, (f, k) in ks.items()}
        for got in (_sq_norms(C, dom), _sq_norms(C, dom, work)):
            assert got == want
