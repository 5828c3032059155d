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
