import inspect
import pickle

import pytest

from bergerdeck import errors

ERRORS = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
          if issubclass(cls, errors.BergerdeckError)]

# a value for each extra field an error class takes after its message
FIELDS = {"step_index": 3, "residual": 2.5e-9, "last_value": 0.86}


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_every_error_round_trips_through_pickle(cls):
    params = list(inspect.signature(cls.__init__).parameters.values())[2:]
    extra = {p.name: FIELDS[p.name] for p in params
             if p.kind is p.POSITIONAL_OR_KEYWORD}
    error = cls("non-finite state at step 3", **extra)
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error) == "non-finite state at step 3"
    assert copy.args == error.args
    assert {name: getattr(copy, name) for name in extra} == extra
