import pickle

import pytest

from partlab import p_oracle


@pytest.fixture(scope="session", autouse=True)
def no_budget_setting():
    """Run the session without the shell's PLAB_BUDGET; tests that need one
    set it. Session scope clears it before any module-scoped fixture runs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("PLAB_BUDGET", raising=False)
        yield


@pytest.fixture(scope="session")
def oracle_counts():
    """p(0..40) by brute enumeration, shared across the session."""
    return [p_oracle(n) for n in range(41)]


def _assert_as_class_built(records):
    """Each NamedTuple record is the object its class's own call gives: same
    type, equality, hash, repr and _asdict(), and it pickles back to itself."""
    again = [type(r)(*r) for r in records]
    assert [type(r) for r in records] == [type(r) for r in again]
    assert records == again
    assert [hash(r) for r in records] == [hash(r) for r in again]
    assert [repr(r) for r in records] == [repr(r) for r in again]
    assert [r._asdict() for r in records] == [r._asdict() for r in again]
    back = pickle.loads(pickle.dumps(records))
    assert back == records and [type(r) for r in back] == [type(r) for r in records]


@pytest.fixture(scope="session")
def assert_as_class_built():
    """The check above, for records the package builds by tuple.__new__."""
    return _assert_as_class_built
