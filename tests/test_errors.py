"""Every SslsError survives pickling, as it must to leave a worker process."""

import pickle

import pytest

from ssls import errors

# Constructor arguments of the errors that build their message from fields;
# every other error takes its message.
ARGS = {
    errors.EmptyGroup: (3,),
    errors.NonFinite: (4, 2),
    errors.PropensityOutOfRange: (1.5, 7),
    errors.OneArmOnly: ("fold 0",),
    errors.DegenerateGroup: (2, 1e-15),
    errors.GroupTooSmall: (1, 5, 32),
    errors.ZeroVarianceGroup: (4, 0.0),
    errors.EmptyArm: (1,),
}


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


@pytest.mark.parametrize("cls", sorted(set(_all_subclasses(errors.SslsError)),
                                       key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_error_round_trips_through_pickle(cls):
    err = cls(*ARGS.get(cls, ("something went wrong",)))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err)
    assert vars(back) == vars(err)


def test_keyword_arguments_and_later_attributes_survive():
    err = errors.NonFinite(4, col=None)
    err.note = "added after construction"
    back = pickle.loads(pickle.dumps(err))
    assert str(back) == "non-finite outcome at row 4"
    assert (back.row, back.col, back.note) == (4, None, "added after construction")
