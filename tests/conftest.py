import pytest

from pdscodes.field import FieldSpec, build_tower


@pytest.fixture(scope="session")
def f44():
    # F_{4^4}: p=2, e=2, m=4 (256 elements)
    return build_tower(FieldSpec(p=2, e=2, m=4))


@pytest.fixture(scope="session")
def f35():
    # F_{3^5} (243 elements, prime base field)
    return build_tower(FieldSpec(p=3, e=1, m=5))


@pytest.fixture(scope="session")
def f34():
    # F_{3^4} (81 elements)
    return build_tower(FieldSpec(p=3, e=1, m=4))


@pytest.fixture(scope="session")
def f92():
    # F_{9^2}: p=3, e=2, m=2 (81 elements over a non-prime base field)
    return build_tower(FieldSpec(p=3, e=2, m=2))


@pytest.fixture(scope="session")
def f16():
    # F_{2^4} with q = 2 (binary caveat paths)
    return build_tower(FieldSpec(p=2, e=1, m=4))


@pytest.fixture(scope="session")
def f64():
    # F_{2^6} (64 elements)
    return build_tower(FieldSpec(p=2, e=1, m=6))


@pytest.fixture(scope="session")
def f28():
    # F_{2^8} (256 elements, binary)
    return build_tower(FieldSpec(p=2, e=1, m=8))
