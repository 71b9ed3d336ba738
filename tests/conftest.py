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
