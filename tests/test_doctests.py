"""Docstring examples stay true: doctest over the modules that carry them."""

import doctest

import pytest

import repro.cache.prefetch
import repro.cache.prime
import repro.cache.set_assoc
import repro.cache.victim
import repro.core.address_gen
import repro.core.design
import repro.core.mersenne
import repro.machine.vcm_driver
import repro.machine.vector_machine
import repro.memory.banks
import repro.memory.write_buffer
import repro.workloads.layout

MODULES = [
    repro.cache.prefetch,
    repro.cache.prime,
    repro.cache.set_assoc,
    repro.cache.victim,
    repro.core.address_gen,
    repro.core.design,
    repro.core.mersenne,
    repro.machine.vcm_driver,
    repro.machine.vector_machine,
    repro.memory.banks,
    repro.memory.write_buffer,
    repro.workloads.layout,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    failures, tried = doctest.testmod(module, verbose=False).failed, None
    assert failures == 0, f"{module.__name__} has failing doctests"
