"""The benchmark's tracer (``bench/tracer.py``) wraps every public function
of the layer modules, but its summary reads a few of them by name, and
reads the enumeration weight of ``low_weight_kernel_vectors`` from its
arguments.  A rename, or a moved parameter, would end a traced run in a
``KeyError``; these tests name what it relies on."""

import inspect

import pytest

from mmcodes import codeparams, search

# (module, function) pairs whose "<module>.<function>.s" or ".calls" the
# tracer's summary indexes.
READ_BY_NAME = [
    (codeparams, "distance_randomized"),
    (codeparams, "single_shot_distance"),
    (codeparams, "low_weight_kernel_vectors"),
    (codeparams, "confinement_profile"),
    (search, "evaluate_candidate"),
]


@pytest.mark.parametrize("module, name", READ_BY_NAME,
                         ids=[f"{m.__name__}.{n}" for m, n in READ_BY_NAME])
def test_read_names_are_public_functions(module, name):
    fn = getattr(module, name, None)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__
    assert not name.startswith("_")


def test_kernel_vector_weight_is_the_second_parameter():
    """The tracer takes ``w_max`` as the second positional argument or as a
    keyword, and the matrix as the first."""
    params = list(inspect.signature(codeparams.low_weight_kernel_vectors).parameters)
    assert params[:2] == ["p", "w_max"]
