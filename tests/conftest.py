import multiprocessing

import numpy as np
import pytest

from visarch import tensor


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(autouse=True)
def leaves_no_group_or_child():
    """Fail a test that leaves tensor._grouped set, recording off (a no_grad
    not exited) or a multiprocessing child alive: each would change what the
    tests after it run."""
    yield
    group, tensor._GROUP[0] = tensor._GROUP[0], 0
    recording, tensor._GRAD_ENABLED[0] = tensor._GRAD_ENABLED[0], True
    children = multiprocessing.active_children()
    for child in children:
        child.kill()
        child.join()
    assert not group, f"the test left tensor._grouped({group}) set"
    assert recording, "the test left graph recording off (a no_grad it did not exit)"
    assert not children, f"the test left multiprocessing children alive: {children}"
