"""Size refusals: every guard raises through errors.check_limit, with one
message shape and the limit of its cloneopt.tolerances constant."""
import re

import numpy as np
import pytest

from cloneopt import tolerances
from cloneopt.channels import choi, kron_power, su2_component_cloner, twirl_choi
from cloneopt.cloner import ClonerSpec, optimal_cloner
from cloneopt.errors import DimensionGuardError, check_limit
from cloneopt.omega_opt import CandidatePoint, enumerate_W1, maximize_exact
from cloneopt.rep_theory import pieri_branch
from cloneopt.tensor_core import sym_embed


def test_check_limit_returns_the_size_up_to_the_limit():
    assert check_limit("side", 4096, 4096) == 4096
    with pytest.raises(DimensionGuardError, match=r"^side = 4097 exceeds guard 4096$"):
        check_limit("side", 4097, 4096)


@pytest.mark.parametrize("refuse,constant", [
    pytest.param(lambda: optimal_cloner(ClonerSpec(3, 1, 34)), "KRAUS_ENTRY_GUARD",
                 id="kraus-entries"),
    pytest.param(lambda: choi(optimal_cloner(ClonerSpec(3, 16, 17))),
                 "DEFAULT_DENSE_GUARD", id="choi-side"),
    pytest.param(lambda: twirl_choi(optimal_cloner(ClonerSpec(3, 16, 17)), samples=1),
                 "DEFAULT_DENSE_GUARD", id="twirl-choi-side"),
    pytest.param(lambda: su2_component_cloner(CandidatePoint((64, 0), (1, 0))),
                 "DEFAULT_DENSE_GUARD", id="coupled-spin-side"),
    pytest.param(lambda: pieri_branch(64, (64, 48, 32, 16, 0)), "BRANCH_SUMMAND_GUARD",
                 id="pieri-summands"),
    pytest.param(lambda: maximize_exact(2, 1, 65), "MAX_SITES", id="label-sites"),
    pytest.param(lambda: enumerate_W1(9, 1, 4), "MAX_D", id="label-levels"),
    pytest.param(lambda: maximize_exact(3, 10**5, 20), "MAX_SITES", id="label-boxes"),
    pytest.param(lambda: sym_embed(2, 13), "DEFAULT_DENSE_GUARD", id="sym-embed"),
    pytest.param(lambda: kron_power(np.eye(3), 8), "DEFAULT_DENSE_GUARD", id="kron-power"),
])
def test_every_refusal_names_its_size_and_limit(refuse, constant):
    with pytest.raises(DimensionGuardError) as refused:
        refuse()
    shape = re.fullmatch(r".+ = (\d+) exceeds guard (\d+)", str(refused.value))
    assert shape, str(refused.value)
    size, limit = int(shape[1]), int(shape[2])
    assert size > limit == getattr(tolerances, constant)
