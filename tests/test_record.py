"""The immutable-record contract of the 25 public parameter and result types."""
import numpy as np
import pytest

from trabessel import (BasisSpec, BesselJ, BesselJbar, Binding, CheckReport, ClassId,
                       ClassReport, ClassSolution, ContDualHahnS, ContHahnH, DeformedB,
                       DeformedY, DeformedZ, DerivedSymbols, DualHahnR, FavardReport, GridSpec,
                       HahnQ, LaguerreL, MeixnerM, MeixnerPollaczekP, OdeParams, Omega,
                       SeriesSolution, SpectrumResult, SystemSpec, build_series, classify,
                       favard_report, resolve_class, table1_map, tridiagonality_check)
from trabessel._record import Record
from trabessel.errors import ConvergenceFailure, DomainError

from conftest import DOCUMENTED


def _samples():
    """One instance of each record type: the families and a spectrum built
    directly, the others by the package from the documented sets."""
    k1_ode, k1_free = DOCUMENTED[ClassId.K1]
    k1 = resolve_class(k1_ode, ClassId.K1, k1_free)
    l39a_ode, _ = DOCUMENTED[ClassId.L39A]
    l39a = resolve_class(l39a_ode, ClassId.L39A)
    k0_ode, _ = DOCUMENTED[ClassId.K0]
    samples = [
        BesselJ(-20.5), BesselJbar(1.5), LaguerreL(1.0), DeformedB(-20.5, 0.3),
        DualHahnR(1.0, 2.0, 5), ContDualHahnS(1.0, 2.0, 3.0), HahnQ(1.0, 2.0, 5),
        ContHahnH(1 + 1j, 2.0, 3.0, 4j), MeixnerPollaczekP(1.0, 2.0), MeixnerM(1.0, 2.0),
        DeformedY(1.0, 2.0, 0.1), DeformedZ(1.0, 2.0, 0.1),
        k1_ode, k1.basis, l39a.basis, classify(l39a_ode)[0], k1.symbols, k1.binding, k1.omega,
        k1, build_series(l39a, 4), favard_report(k1, 4), GridSpec(0.05, 20.0),
        tridiagonality_check(l39a, 2), table1_map(1.0, k0_ode, 1.0),
        SpectrumResult(np.array([1.0, 2.0]), "fd_oracle", {"grid": 100}),
    ]
    return {type(r).__name__: r for r in samples}


SAMPLES = _samples()

# the fields whose default is {}, copied for each instance
DICT_DEFAULTS = {"ClassSolution": "free", "CheckReport": "per_n", "SpectrumResult": "metadata"}

# a change that __post_init__ refuses, and its error
POST_INIT_ERRORS = {
    "OdeParams": ({"a": float("nan")}, ValueError),
    "BasisSpec": ({"kind": "hermite"}, DomainError),
    "GridSpec": ({"x_min": 30.0}, DomainError),
    "SpectrumResult": ({"energies": np.array([1.0, np.inf])}, ConvergenceFailure),
}


def test_every_record_type_is_sampled():
    assert sorted(cls.__name__ for cls in Record.__subclasses__()) == sorted(SAMPLES)
    assert len(SAMPLES) == 25


def test_every_record_type_is_exported():
    exported = (BasisSpec, BesselJ, BesselJbar, Binding, CheckReport, ClassReport, ClassSolution,
                ContDualHahnS, ContHahnH, DeformedB, DeformedY, DeformedZ, DerivedSymbols,
                DualHahnR, FavardReport, GridSpec, HahnQ, LaguerreL, MeixnerM,
                MeixnerPollaczekP, OdeParams, Omega, SeriesSolution, SpectrumResult, SystemSpec)
    assert {cls.__name__: cls for cls in exported} == {n: type(r) for n, r in SAMPLES.items()}


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_record_contract(name):
    r = SAMPLES[name]
    cls = type(r)
    fields = dict(vars(r))
    assert list(fields) == list(cls.__annotations__)
    assert repr(r) == f"{name}(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")"

    # equal by value, built positionally or by keyword; other types never equal
    same = cls(*fields.values())
    assert same is not r and same == r and cls(**fields) == r
    assert r.__eq__(object()) is NotImplemented and r != object()
    try:
        hash(r)
    except TypeError:  # a dict or array field, as with a frozen dataclass
        pass
    else:
        assert hash(same) == hash(r)

    first = next(iter(fields))
    for change in (lambda: setattr(r, first, None), lambda: delattr(r, first),
                   lambda: setattr(r, "extra", 1)):
        with pytest.raises(AttributeError):
            change()
    assert vars(r) == fields and list(vars(r)) == list(cls.__annotations__)

    for bad in (lambda: cls(), lambda: cls(*fields.values(), None),
                lambda: cls(**fields, extra=1), lambda: cls(fields[first], **fields)):
        with pytest.raises(TypeError):
            bad()

    if name in DICT_DEFAULTS:
        key = DICT_DEFAULTS[name]
        given = {k: v for k, v in fields.items() if k != key}
        one, two = cls(**given), cls(**given)
        assert getattr(one, key) == {} and getattr(one, key) is not getattr(two, key)
        assert getattr(cls, key) == {}

    if name in POST_INIT_ERRORS:
        change, exc = POST_INIT_ERRORS[name]
        with pytest.raises(exc):
            cls(**{**fields, **change})


def test_records_of_different_types_differ():
    """Meixner and Meixner-Pollaczek share their fields and values, not equality."""
    assert MeixnerM(1.0, 2.0) != MeixnerPollaczekP(1.0, 2.0)
