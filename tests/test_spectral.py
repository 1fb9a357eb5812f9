import numpy as np
import pytest
from scipy.integrate import quad

from ltne import (Domain, GridField, SpectralField, State, jacobian,
                  read_snapshot, state_norms, to_grid, to_spectral,
                  write_snapshot)
from ltne.spectral import _tail_fractions


def _rand_field(dom, rng, scale=1.0):
    return SpectralField(scale * rng.standard_normal((dom.Nx, dom.Nz)), dom)


def _nodes(dom):
    """Interior collocation nodes x_j = j a / (Mx + 1), z_k = k / (Mz + 1)."""
    return (np.arange(1, dom.Mx + 1) * dom.a / (dom.Mx + 1),
            np.arange(1, dom.Mz + 1) / (dom.Mz + 1))


def _inner(u, v):
    """<u, v> = (a/4) sum u_mn v_mn."""
    return u.dom.a / 4.0 * np.sum(u.coeffs * v.coeffs)


def _sq(u):
    """`state_norms` of the State with u in all three fields: theta_sq is
    ||u||^2, grad_theta_sq ||grad u||^2, and grad_psi_sq, lap_psi_sq,
    gradlap_psi_sq the squared H^k-level seminorms for k = 1, 2, 3."""
    return state_norms(State(u, u, u))


def _bracket_scale(psi, theta):
    """||grad psi|| ||theta|| ||grad theta||, the size a pairing
    <J(psi, theta), theta> of roundoff is measured against."""
    p, t = _sq(psi), _sq(theta)
    return np.sqrt(p["grad_psi_sq"] * t["theta_sq"] * t["grad_theta_sq"])


def test_laplacian_eigenvalue_literals():
    # Plan.mu[m-1, n-1] = -((m pi / a)^2 + (n pi)^2)
    for a, m, n, want in ((1.0, 1, 1, -2 * np.pi ** 2),
                          (2.0, 2, 1, -2 * np.pi ** 2),
                          (1.0, 3, 2, -13 * np.pi ** 2)):
        mu = Domain(a=a, Nx=4, Nz=4).plan.mu
        assert mu.shape == (4, 4)
        assert mu[m - 1, n - 1] == pytest.approx(want, rel=1e-15)
    for a in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="aspect ratio a must be > 0"):
            Domain(a=a, Nx=4, Nz=4)


def test_single_mode_grid_values():
    dom = Domain(a=1.5, Nx=6, Nz=5)
    c = np.zeros((6, 5))
    c[0, 0] = 1.0
    g = to_grid(SpectralField(c, dom))
    x, z = _nodes(dom)
    expect = np.outer(np.sin(np.pi * x / dom.a), np.sin(np.pi * z))
    assert np.allclose(g.values, expect, atol=1e-14)


def test_round_trip_identity():
    rng = np.random.default_rng(42)
    for dom in (Domain(a=1.0, Nx=8, Nz=8), Domain(a=2.0, Nx=12, Nz=7),
                Domain(a=0.7, Nx=5, Nz=16)):
        for _ in range(5):
            u = _rand_field(dom, rng)
            v = to_spectral(to_grid(u))
            assert np.max(np.abs(v.coeffs - u.coeffs)) < 1e-12


def test_discrete_orthogonality():
    # sum_{j=1}^{P-1} sin(pi m j/P) sin(pi m' j/P) = (P/2) delta_{mm'}
    P = 17
    j = np.arange(1, P)
    for m in range(1, 9):
        for mp in range(1, 9):
            s = np.sum(np.sin(np.pi * m * j / P) * np.sin(np.pi * mp * j / P))
            expect = P / 2.0 if m == mp else 0.0
            assert abs(s - expect) < 1e-12


def test_parseval_against_grid_quadrature():
    # the squared L2 norm from coefficients must match the collocation
    # quadrature of u^2 (exact: u^2 is band-limited below the grid Nyquist)
    rng = np.random.default_rng(7)
    dom = Domain(a=1.3, Nx=10, Nz=9)
    for _ in range(5):
        u = _rand_field(dom, rng)
        g = to_grid(u)
        weight = dom.a / (dom.Mx + 1) / (dom.Mz + 1)   # per interior node
        quad_sq = weight * np.sum(g.values ** 2)
        assert quad_sq == pytest.approx(_sq(u)["theta_sq"], rel=1e-12)


def test_derivatives_match_analytic_cosine_series():
    # the grid derivative matrices the Jacobian multiplies by
    rng = np.random.default_rng(3)
    dom = Domain(a=1.7, Nx=7, Nz=6)
    u = _rand_field(dom, rng)
    x, z = _nodes(dom)
    m = np.arange(1, dom.Nx + 1)
    n = np.arange(1, dom.Nz + 1)
    # independent evaluation: du/dx = sum (m pi/a) u_mn cos(m pi x/a) sin(n pi z)
    cosx = np.cos(np.outer(x, m) * np.pi / dom.a)
    sinz = np.sin(np.outer(z, n) * np.pi)
    sinx = np.sin(np.outer(x, m) * np.pi / dom.a)
    cosz = np.cos(np.outer(z, n) * np.pi)
    dx_expect = cosx @ ((m[:, None] * np.pi / dom.a) * u.coeffs) @ sinz.T
    dz_expect = sinx @ (u.coeffs * (n[None, :] * np.pi)) @ cosz.T
    p = dom.plan
    assert np.max(np.abs(p.Cx @ u.coeffs @ p.Sz.T - dx_expect)) < 1e-12
    assert np.max(np.abs(p.Sx @ u.coeffs @ p.Cz.T - dz_expect)) < 1e-12


def test_dx_projection_matrix_against_quad_oracle():
    # D[m'-1, m-1] must equal 2/a * int_0^a (m pi/a) cos(m pi x/a) sin(m' pi x/a) dx
    dom = Domain(a=1.0, Nx=8, Nz=4)
    D = dom.plan.D
    for m in range(1, 9):
        for mp in range(1, 9):
            val, _ = quad(lambda x: (m * np.pi) * np.cos(m * np.pi * x)
                          * np.sin(mp * np.pi * x), 0.0, 1.0)
            assert D[mp - 1, m - 1] == pytest.approx(2.0 * val, abs=1e-10)
    # closed-form column m=1: entries 8k/(4k^2-1) at rows m'=2k
    for k in range(1, 5):
        assert D[2 * k - 1, 0] == pytest.approx(8 * k / (4 * k ** 2 - 1.0),
                                                rel=1e-13)
    assert abs(D[2, 0]) == 0.0   # odd-odd entries vanish


def test_jacobian_hand_derived_mode_pair():
    # psi = sin(pi x) sin(pi z), theta = sin(2 pi x) sin(pi z)  (a=1):
    # J = psi_x theta_z - psi_z theta_x
    #   = (pi^2/2) sin(2 pi z) [ (3/2) sin(pi x) - (1/2) sin(3 pi x) ]
    dom = Domain(a=1.0, Nx=8, Nz=8)
    cp = np.zeros((8, 8))
    ct = np.zeros((8, 8))
    cp[0, 0] = 1.0
    ct[1, 0] = 1.0
    J = jacobian(SpectralField(cp, dom), SpectralField(ct, dom))
    expect = np.zeros((8, 8))
    expect[0, 1] = 3 * np.pi ** 2 / 4.0
    expect[2, 1] = -np.pi ** 2 / 4.0
    assert np.max(np.abs(J.coeffs - expect)) < 1e-12


def test_jacobian_coeffs_match_quadrature_oracle():
    # fine-grid 2-D quadrature of J(psi,theta) sin(m pi x/a) sin(n pi z)
    # against the pseudo-spectral projection, for a small random pair, on
    # the default grid and on M = 2N + 1
    rng = np.random.default_rng(11)
    dom = Domain(a=1.4, Nx=3, Nz=3)
    psi, theta = _rand_field(dom, rng), _rand_field(dom, rng)
    M = 256
    x = dom.a * (np.arange(1, M) / M)
    z = np.arange(1, M) / M
    m = np.arange(1, dom.Nx + 1)
    n = np.arange(1, dom.Nz + 1)
    sx = np.sin(np.outer(x, m) * np.pi / dom.a)
    sz = np.sin(np.outer(z, n) * np.pi)
    cx = np.cos(np.outer(x, m) * np.pi / dom.a) * (m * np.pi / dom.a)
    cz = np.cos(np.outer(z, n) * np.pi) * (n * np.pi)
    px = cx @ psi.coeffs @ sz.T
    pz = sx @ psi.coeffs @ cz.T
    tx = cx @ theta.coeffs @ sz.T
    tz = sx @ theta.coeffs @ cz.T
    Jg = px * tz - pz * tx
    # projection coefficients via the (trig-exact) discrete sine quadrature
    proj = (4.0 / (M * M)) * sx.T @ Jg @ sz
    padded = Domain(a=1.4, Nx=3, Nz=3, Mx=7, Mz=7)
    for d in (dom, padded):
        J = jacobian(*(SpectralField(u.coeffs, d) for u in (psi, theta)))
        assert np.max(np.abs(J.coeffs - proj)) < 1e-10


def test_jacobian_skew_symmetry_random_pairs():
    rng = np.random.default_rng(5)
    dom = Domain(a=1.0, Nx=12, Nz=12)
    for _ in range(20):
        psi, theta = _rand_field(dom, rng), _rand_field(dom, rng)
        pairing = _inner(jacobian(psi, theta), theta)
        assert abs(pairing) <= 1e-10 * _bracket_scale(psi, theta)


def _grid_jacobian(cpsi, cth, a, M):
    """The pseudo-spectral Jacobian on M x M interior points, built here
    from its definition so that a grid the Domain refuses can be tried."""
    N = cpsi.shape[0]
    j, k = np.arange(1, M + 1), np.arange(1, N + 1)
    sx, sz = (np.sin(np.pi * np.outer(j, k) / (M + 1)) for _ in range(2))
    cx = np.cos(np.pi * np.outer(j, k) / (M + 1)) * (k * np.pi / a)
    cz = np.cos(np.pi * np.outer(j, k) / (M + 1)) * (k * np.pi)
    grid = (cx @ cpsi @ sz.T) * (sx @ cth @ cz.T) \
        - (sx @ cpsi @ cz.T) * (cx @ cth @ sz.T)
    return 4.0 / (M + 1) ** 2 * (sx.T @ grid @ sz)


def test_domain_floor_is_the_three_halves_rule():
    # 2(M + 1) > 3N holds from M = 3N // 2 on, the default; one point fewer
    # is refused in either direction.  At N = 1, M = 0 means the default.
    assert (Domain(a=1.0, Nx=1, Nz=1).Mx, Domain(a=1.0, Nx=1, Nz=1).Mz) \
        == (1, 1)
    for N in range(2, 10):
        M = 3 * N // 2
        dom = Domain(a=1.0, Nx=N, Nz=N, Mx=M, Mz=M)
        assert dom == Domain(a=1.0, Nx=N, Nz=N)
        for Mx, Mz in ((M - 1, M), (M, M - 1)):
            with pytest.raises(ValueError, match="collocation sizes"):
                Domain(a=1.0, Nx=N, Nz=N, Mx=Mx, Mz=Mz)


def test_jacobian_exact_at_the_minimal_grid_and_aliased_one_point_below():
    # at M = 3N // 2 the Jacobian equals the one on the padded grid
    # M = 2N + 2 to roundoff and stays skew-symmetric; at M = 3N // 2 - 1
    # the top product modes alias onto retained ones, by O(1)
    rng = np.random.default_rng(29)
    a = 1.3
    for N in range(2, 17):
        dom = Domain(a=a, Nx=N, Nz=N)
        psi, theta = _rand_field(dom, rng), _rand_field(dom, rng)
        J = jacobian(psi, theta)
        wide = Domain(a=a, Nx=N, Nz=N, Mx=2 * N + 2, Mz=2 * N + 2)
        padded = jacobian(*(SpectralField(u.coeffs, wide)
                            for u in (psi, theta)))
        scale = np.max(np.abs(padded.coeffs))
        assert np.max(np.abs(J.coeffs - padded.coeffs)) <= 1e-13 * scale
        pairing = _inner(J, theta)
        assert abs(pairing) <= 1e-12 * _bracket_scale(psi, theta)
        aliased = _grid_jacobian(psi.coeffs, theta.coeffs, a, dom.Mx - 1)
        assert np.max(np.abs(aliased - padded.coeffs)) > 0.1 * scale


def test_jacobian_result_is_never_overwritten():
    # the Plan's work arrays hold every intermediate; a result is fresh
    rng = np.random.default_rng(31)
    dom = Domain(a=1.2, Nx=9, Nz=7)
    fields = [_rand_field(dom, rng) for _ in range(4)]
    J1 = jacobian(fields[0], fields[1])
    kept = J1.coeffs.copy()
    J2 = jacobian(fields[2], fields[3])
    assert np.array_equal(J1.coeffs, kept)
    assert not np.array_equal(J2.coeffs, kept)
    p = dom.plan
    for buf in (p._zs, p._grid, p._half):
        assert not np.shares_memory(J1.coeffs, buf)
        assert not np.shares_memory(J2.coeffs, buf)


def test_jacobian_bilinearity():
    rng = np.random.default_rng(9)
    dom = Domain(a=1.0, Nx=6, Nz=6)
    psi, theta = _rand_field(dom, rng), _rand_field(dom, rng)
    J1 = jacobian(psi, theta).coeffs
    J2 = jacobian(SpectralField(2.5 * psi.coeffs, dom), theta).coeffs
    assert np.allclose(J2, 2.5 * J1, rtol=1e-13, atol=1e-13)


def test_norms_single_mode_closed_form():
    a = 1.6
    dom = Domain(a=a, Nx=5, Nz=5)
    c = np.zeros((5, 5))
    c[2, 1] = 3.0     # mode (3, 2)
    n = _sq(SpectralField(c, dom))
    mu = (3 * np.pi / a) ** 2 + (2 * np.pi) ** 2
    base = 9.0 * a / 4.0    # (a/4) 3^2
    for name, k in (("theta_sq", 0), ("grad_theta_sq", 1),
                    ("grad_psi_sq", 1), ("lap_psi_sq", 2),
                    ("gradlap_psi_sq", 3)):
        assert n[name] == pytest.approx(base * mu ** k, rel=1e-13)


def test_grad_norm_matches_fine_grid_quadrature():
    # ||grad u||^2 = integral of u_x^2 + u_z^2.  The interior collocation
    # grid is blind to the nonzero boundary values of the cosine factors,
    # so the oracle is boundary-inclusive Simpson quadrature on a fine
    # tensor grid with the derivatives evaluated analytically.
    from scipy.integrate import simpson
    rng = np.random.default_rng(13)
    a = 1.2
    dom = Domain(a=a, Nx=4, Nz=4)
    u = _rand_field(dom, rng)
    x = np.linspace(0.0, a, 513)
    z = np.linspace(0.0, 1.0, 513)
    kx = np.arange(1, 5) * np.pi / a
    kz = np.arange(1, 5) * np.pi
    ux = np.cos(np.outer(x, kx)) @ (kx[:, None] * u.coeffs) \
        @ np.sin(np.outer(z, kz)).T
    uz = np.sin(np.outer(x, kx)) @ (u.coeffs * kz[None, :]) \
        @ np.cos(np.outer(z, kz)).T
    integ = simpson(simpson(ux ** 2 + uz ** 2, x=z, axis=1), x=x)
    n = _sq(u)
    assert integ == pytest.approx(n["grad_theta_sq"], rel=1e-8)
    assert n["grad_psi_sq"] == n["grad_theta_sq"]


def test_tail_fraction_direct_summation():
    # the share of sum |mu|^k u_mn^2 outside the leading cutoff x cutoff
    # block, summed mode by mode, against `_tail_fractions` on a stack
    rng = np.random.default_rng(19)
    a = 1.3
    dom = Domain(a=a, Nx=8, Nz=6)
    C = rng.standard_normal((3, 8, 6))
    C[1] = 0.0
    for k in (0, 1, 2, 5):
        for cutoff in (1, 2, 4, 5):
            want = []
            for c in C:
                total = head = 0.0
                for m in range(1, 9):
                    for n in range(1, 7):
                        w = ((m * np.pi / a) ** 2 + (n * np.pi) ** 2) ** k \
                            * c[m - 1, n - 1] ** 2
                        total += w
                        if m <= cutoff and n <= cutoff:
                            head += w
                want.append((total - head) / total if total else 0.0)
            got = _tail_fractions(C, dom.plan.weight(k), cutoff)
            assert got == pytest.approx(want, rel=1e-12)
            assert got[1] == 0.0


def test_weight_that_overflows_is_refused():
    # |mu|^84 overflows at mode (16, 16) of N=16 (|mu| = 2 (16 pi)^2), which
    # would make the tail fraction NaN; `Plan.weight` refuses such a k, and
    # 83 is still finite
    rng = np.random.default_rng(5)
    dom = Domain(a=1.0, Nx=16, Nz=16)
    for k in (84, 200):
        with pytest.raises(ValueError, match=r"^k \d+ out of range: "
                           r"\|mu\|\^k overflows at mode \(16, 16\)$"):
            dom.plan.weight(k)
    w = dom.plan.weight(83)
    assert np.isfinite(w).all()
    smooth = rng.standard_normal((1, 16, 16)) * np.exp(-np.add.outer(
        np.arange(16), np.arange(16)) * 10.0)
    assert 0.0 <= _tail_fractions(smooth, w, 4)[0] <= 1.0


def test_snapshot_round_trip_exact(tmp_path):
    rng = np.random.default_rng(23)
    dom = Domain(a=1.25, Nx=5, Nz=7)
    fields = [_rand_field(dom, rng, scale=10.0 ** rng.integers(-8, 8))
              for _ in range(3)]
    path = tmp_path / "state.snap"
    write_snapshot(path, *fields, 0.1234567890123456789)
    psi, theta, phi, t = read_snapshot(path)
    assert t == 0.1234567890123456789
    assert psi.dom.a == dom.a
    for orig, back in zip(fields, (psi, theta, phi)):
        assert np.array_equal(orig.coeffs, back.coeffs)   # bit-exact


def test_snapshot_malformed_lines_name_line_numbers(tmp_path):
    dom = Domain(a=1.0, Nx=2, Nz=2)
    z = SpectralField(np.zeros((2, 2)), dom)
    path = tmp_path / "ok.snap"
    write_snapshot(path, z, z, z, 0.0)
    lines = path.read_text().splitlines()
    bad = tmp_path / "bad.snap"
    bad.write_text("\n".join(lines[:3] + ["1 junk 0.0"] + lines[4:]) + "\n")
    with pytest.raises(ValueError, match=r":4: expected coefficient"):
        read_snapshot(bad)
    # a well-formed coefficient line for the wrong mode
    bad.write_text("\n".join(lines[:2] + ["2 2 0"] + lines[3:]) + "\n")
    with pytest.raises(ValueError, match=r":3: expected coefficient \(1, 1\)"):
        read_snapshot(bad)
    bad.write_text("")
    with pytest.raises(ValueError, match="empty snapshot file"):
        read_snapshot(bad)
    # "\r\n" line ends read as "\n" does
    bad.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert read_snapshot(bad)[3] == 0.0
    hdr = tmp_path / "hdr.snap"
    for head in ("LTNE-SNAP v1 2 junk 1.0 0.0", "LTNE-SNAP v2 2 2 1.0 0.0",
                 "LTNE-SNIP v1 2 2 1.0 0.0", "LTNE-SNAP v1 2 2 1.0",
                 "LTNE-SNAP v1 2 2 1.0 0.0 0.0"):
        hdr.write_text(head + "\n" + "\n".join(lines[1:]) + "\n")
        with pytest.raises(ValueError, match="not a v1 snapshot"):
            read_snapshot(hdr)
    # a header that parses but whose aspect ratio or time is not finite
    for a, t in (("nan", "0.0"), ("inf", "0.0"), ("1.0", "nan"),
                 ("1.0", "inf"), ("1.0", "-inf")):
        hdr.write_text(f"LTNE-SNAP v1 2 2 {a} {t}\n"
                       + "\n".join(lines[1:]) + "\n")
        with pytest.raises(ValueError, match="not a v1 snapshot"):
            read_snapshot(hdr)
    trunc = tmp_path / "trunc.snap"
    trunc.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(ValueError, match="truncated in field phi"):
        read_snapshot(trunc)
    # a header claiming 3 x 4e6 x 4e6 coefficients (384 TB as one array,
    # beyond the 128 TiB user address space) is refused from the lines
    # the file holds, before anything is allocated
    trunc.write_text("LTNE-SNAP v1 4000000 4000000 1.0 0.0\nFIELD psi\n"
                     "1 1 0.5\n")
    with pytest.raises(ValueError, match="truncated in field psi"):
        read_snapshot(trunc)
    # line 7 opens theta: header, FIELD psi and psi's four coefficients
    assert lines[6] == "FIELD theta"
    bad.write_text("\n".join(lines[:6] + lines[7:]) + "\n")
    with pytest.raises(ValueError, match=r":7: expected 'FIELD theta'"):
        read_snapshot(bad)
    bad.write_text("\n".join(lines[:8] + ["1 2 nan"] + lines[9:]) + "\n")
    with pytest.raises(ValueError, match="non-finite coefficient"):
        read_snapshot(bad)


def test_spectral_field_validation():
    dom = Domain(a=1.0, Nx=4, Nz=4)
    with pytest.raises(ValueError):
        SpectralField(np.zeros((3, 4)), dom)
    with pytest.raises(ValueError):
        SpectralField(np.full((4, 4), np.nan), dom)
    with pytest.raises(ValueError):
        GridField(np.zeros((4, 4)), dom)   # wrong grid shape
    other = Domain(a=2.0, Nx=4, Nz=4)
    with pytest.raises(ValueError, match="different domains"):
        jacobian(SpectralField(np.zeros((4, 4)), dom),
                 SpectralField(np.zeros((4, 4)), other))
