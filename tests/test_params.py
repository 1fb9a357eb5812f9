import numpy as np
import pytest

from ltne import Domain, Params, PhysicalParams, nondimensionalize, poincare_constant


def _physical(**over):
    base = dict(rho0=1.0, eps=0.5, K=1.0, mu_f=1.0, mu_c=1.0, beta=1.0,
                g=1.0, rhoc_f=1.0, rhoc_s=1.0, kappa_f=1.0, kappa_s=1.0,
                h=1.0, T_l=2.0, T_u=1.0)
    base.update(over)
    return PhysicalParams(**base)


def test_nondimensionalize_all_ones_eps_half():
    # direct evaluation of the group formulas at the unit point
    p = nondimensionalize(_physical())
    assert p.Ra == pytest.approx(2.0, rel=1e-14)
    assert p.lam == pytest.approx(2.0, rel=1e-14)
    assert p.gamma == pytest.approx(1.0, rel=1e-14)
    assert p.alpha == pytest.approx(1.0, rel=1e-14)
    assert p.Da == pytest.approx(1.0, rel=1e-14)
    assert p.Pr == pytest.approx(0.5, rel=1e-14)
    assert p.C == pytest.approx(1.0, rel=1e-14)


def test_nondimensionalize_generic_values():
    # hand-evaluated groups for a non-unit physical set
    ph = PhysicalParams(rho0=1000.0, eps=0.5, K=1e-8, mu_f=1e-3, mu_c=2e-3,
                        beta=2e-4, g=9.8, rhoc_f=4e6, rhoc_s=2e6,
                        kappa_f=0.6, kappa_s=1.2, h=100.0, T_l=320.0,
                        T_u=300.0)
    p = nondimensionalize(ph)
    # Ra = 1000*9.8*2e-4*20*4e6*1e-8 / (0.5*1e-3*0.6)
    assert p.Ra == pytest.approx(1.568 / 3e-4, rel=1e-12)
    assert p.lam == pytest.approx(100.0 / 0.3, rel=1e-12)
    assert p.gamma == pytest.approx(0.3 / 0.6, rel=1e-12)
    assert p.alpha == pytest.approx(0.5 * 0.5, rel=1e-12)
    assert p.Da == pytest.approx(1e-8, rel=1e-12)
    assert p.Pr == pytest.approx(1e-3 * 0.5 * 4e6 / 600.0, rel=1e-12)
    assert p.C == pytest.approx(2.0, rel=1e-12)


def test_nondimensionalize_equal_viscosities_gives_unit_c():
    p = nondimensionalize(_physical(mu_c=3.7, mu_f=3.7))
    assert p.C == 1.0


def test_nondimensionalize_scale_consistency():
    pa = nondimensionalize(_physical(mu_c=2.0, mu_f=4.0))
    pb = nondimensionalize(_physical(mu_c=20.0, mu_f=40.0))
    assert pa.C == pytest.approx(pb.C, rel=1e-14)
    p1 = nondimensionalize(_physical())
    p3 = nondimensionalize(_physical(K=3.0))
    assert p3.Da == pytest.approx(3.0 * p1.Da, rel=1e-14)
    assert p3.Ra == pytest.approx(3.0 * p1.Ra, rel=1e-14)


def test_nondimensionalize_gamma_cap():
    # eps -> 1 drives gamma to infinity; the cap must catch it
    with pytest.raises(ValueError, match="gamma"):
        nondimensionalize(_physical(eps=1.0 - 1e-9))


def test_physical_validation_names_field():
    with pytest.raises(ValueError, match="eps"):
        _physical(eps=1.5)
    with pytest.raises(ValueError, match="mu_f"):
        _physical(mu_f=-1.0)
    with pytest.raises(ValueError, match="T_l"):
        _physical(T_l=0.5, T_u=1.0)


def test_params_validation():
    with pytest.raises(ValueError):
        Params(Ra=1, Pr=1, Da=1, C=0.0, lam=1, gamma=1, alpha=1, a=1)
    with pytest.raises(ValueError):
        Params(Ra=-1, Pr=1, Da=1, C=1, lam=1, gamma=1, alpha=1, a=1)
    p = Params(Ra=1, Pr=1, Da=1, C=1, lam=1, gamma=1, alpha=1, a=2.5)
    assert p.a == 2.5


def test_domain_padding_default_and_floor():
    # the default is the 3/2 rule's smallest grid, 2(M + 1) > 3N
    dom = Domain(a=1.0, Nx=8, Nz=7)
    assert (dom.Mx, dom.Mz) == (12, 10)
    assert Domain(a=1.0, Nx=8, Nz=8, Mx=17, Mz=17).Mx == 17   # 2N+1 allowed
    assert Domain(a=1.0, Nx=8, Nz=7, Mx=12, Mz=10) == dom
    with pytest.raises(ValueError, match="2\\(Mx\\+1\\) > 3Nx"):
        Domain(a=1.0, Nx=8, Nz=8, Mx=11, Mz=12)
    with pytest.raises(ValueError):
        Domain(a=1.0, Nx=8, Nz=7, Mx=12, Mz=9)
    with pytest.raises(ValueError):
        Domain(a=1.0, Nx=0, Nz=8)


def test_poincare_constant_values():
    dom1 = Domain(a=1.0, Nx=4, Nz=4)
    assert poincare_constant(dom1) == pytest.approx(1.0 / (2 * np.pi ** 2),
                                                    rel=1e-14)
    dom2 = Domain(a=2.0, Nx=4, Nz=4)
    assert poincare_constant(dom2) == pytest.approx(4.0 / (5 * np.pi ** 2),
                                                    rel=1e-14)
    # monotone in a, bounded by 1/pi^2
    prev = 0.0
    for a in (0.5, 1.0, 2.0, 10.0, 1e4):
        mp = poincare_constant(Domain(a=a, Nx=2, Nz=2))
        assert mp > prev
        assert mp < 1.0 / np.pi ** 2
        prev = mp
