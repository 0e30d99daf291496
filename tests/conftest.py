import pytest

from gradus import (
    FieldConfig,
    SeedStream,
    child_seed,
    construct_pair,
    fermat_form,
    is_smooth_hypersurface,
    membership_u,
    parse_poly,
    random_poly,
    special_q,
)

MASTER_SEED = 20260101


@pytest.fixture(scope="session")
def qq():
    return FieldConfig.rationals()


@pytest.fixture(scope="session")
def fp():
    return FieldConfig.prime_field(10007)


@pytest.fixture(scope="session")
def special_cubic(qq):
    return special_q(qq, 4, 3)


@pytest.fixture(scope="session")
def nodal_cubic(qq):
    """A fixed cubic threefold with one node, at e0: every term of degree at
    least 2 in x0 is absent.  Its Jacobian has rank 209 of 210 in degree 6."""
    return parse_poly(
        "8*x0*x1^2 + x0*x1*x2 + 3*x0*x1*x3 - 10*x0*x1*x4 - 10*x0*x2^2"
        " + 5*x0*x2*x3 + 8*x0*x2*x4 - 9*x0*x3^2 + 8*x0*x3*x4 + 10*x0*x4^2"
        " + 6*x1^3 + 9*x1^2*x2 + 7*x1^2*x3 - 2*x1^2*x4 + 5*x1*x2^2"
        " + 10*x1*x2*x3 - 4*x1*x2*x4 + 7*x1*x3*x4 + 5*x1*x4^2 + 6*x2^3"
        " - x2^2*x3 - 10*x2^2*x4 + 4*x2*x3^2 + 5*x2*x3*x4 - 9*x2*x4^2"
        " - 3*x3^3 + x3^2*x4 + 5*x3*x4^2 - 9*x4^3",
        qq,
    )


@pytest.fixture(scope="session")
def fermat(qq):
    return fermat_form(qq, 5, 3)


def _seeded_smooth_cubics(field, count, master=MASTER_SEED, bound=10):
    out = []
    i = 0
    while len(out) < count:
        stream = SeedStream(child_seed(master, i))
        f = random_poly(field, stream, 5, 3, bound)
        i += 1
        if f.is_zero():
            continue
        if is_smooth_hypersurface(f).is_smooth:
            out.append(f)
    return out


@pytest.fixture(scope="session")
def smooth_cubics(qq):
    """20 seeded random smooth-certified cubic threefolds."""
    return _seeded_smooth_cubics(qq, 20)


@pytest.fixture(scope="session")
def u_pairs(smooth_cubics):
    """(F, membership, pair certificate) for 10 cubics certified in the good locus."""
    out = []
    for f in smooth_cubics:
        if len(out) == 10:
            break
        um = membership_u(f, trials=5, seed=7)
        if not um.in_u:
            continue
        cert = construct_pair(f, um.witness, seed=11)
        out.append((f, um, cert))
    assert len(out) == 10, "could not certify 10 cubics in the good locus"
    return out
