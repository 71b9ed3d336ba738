import pytest

from padicbianchi import field as fld
from padicbianchi import msymb as ms
from padicbianchi.field import QuadInt


@pytest.fixture(scope="session")
def ref_level():
    return QuadInt(11, 0, 1)


@pytest.fixture(scope="session")
def ref_prime():
    return fld.split_prime(11, 1)


@pytest.fixture(scope="session")
def ref_symbols(ref_level, ref_prime):
    """The new eigensymbol and the Eisenstein symbol at level (11) over Q(i)."""
    return ms.find_new_eigensymbol(ref_level, ref_prime)


@pytest.fixture(scope="session")
def ref_uop(ref_symbols, ref_prime, ref_level):
    from padicbianchi import ocsymb as oc
    phi, _ = ref_symbols
    ctx = oc.DistContext(ref_prime, 8)
    reps = ms.hecke_reps(ref_prime.pi, ref_level, 1)
    return oc.UOperator(ctx, phi.p1.hecke_terms(reps))


@pytest.fixture(scope="session")
def ref_lift(ref_symbols, ref_prime, ref_uop):
    """The M = 8 overconvergent eigenlift of the reference symbol."""
    from padicbianchi import ocsymb as oc
    phi, _ = ref_symbols
    return oc.lift(phi, 8, ref_prime, u_op=ref_uop)


@pytest.fixture(scope="session")
def ram_symbol():
    """The new eigensymbol at the ramified p = 2, level (1+i)(7): the base
    change of 14a, and the prime above 2."""
    pd = fld.split_prime(2, 1)
    phi, _ = ms.find_new_eigensymbol(QuadInt(7, 7, 1), pd)
    return phi, pd


@pytest.fixture(scope="session")
def ram_lift(ram_symbol):
    """The M = 6 lift of ram_symbol."""
    from padicbianchi import ocsymb as oc
    phi, pd = ram_symbol
    psi, cert = oc.lift(phi, 6, pd)
    assert cert["converged"]
    return psi


@pytest.fixture(scope="session")
def rational_pair():
    """The plus and minus eigensymbols of 11a over Q."""
    from padicbianchi import basechange as bc
    return bc.find_rational_eigensymbols(11, 11)


@pytest.fixture(scope="session")
def rational_lifts(rational_pair):
    """Their M = 8 one-variable lifts at p = 11: ((psi, cert), (psi, cert))."""
    from padicbianchi import basechange as bc
    plus, minus = rational_pair
    psi_p, cert_p = bc.lift_rational(plus, 8, 11)
    psi_m, cert_m = bc.lift_rational(minus, 8, 11)
    return (psi_p, cert_p), (psi_m, cert_m)
