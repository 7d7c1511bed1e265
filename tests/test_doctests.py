import doctest

import pytest

import gpdescent.core
import gpdescent.descent
import gpdescent.linalg
import gpdescent.parking
import gpdescent.polynomial
import gpdescent.ribbon
import gpdescent.symfunc
import gpdescent.tanisaki

MODULES = [
    gpdescent.core,
    gpdescent.descent,
    gpdescent.linalg,
    gpdescent.parking,
    gpdescent.polynomial,
    gpdescent.ribbon,
    gpdescent.symfunc,
    gpdescent.tanisaki,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    failures, attempted = doctest.testmod(module, verbose=False)
    assert attempted > 0
    assert failures == 0
