"""The package's immutable value types: constructor signatures and
validation messages, refused assignment, and equality, hash, repr and
pickling by field."""

import copy
import inspect
import math
import pickle
import re

import pytest

from magnitude.asymptotics import AsymptoticExpansion, GermExpansion
from magnitude.cli import SweepSpec
from magnitude.finite import Weighting
from magnitude.line import LineSubset, LineWeightMeasure
from magnitude.quadrature import IntegralResult, QuadratureConfig
from magnitude.spheres import SpherePolynomial

REQUIRED = inspect.Parameter.empty

# (class, its constructor parameters as (name, default), keyword arguments of
# a valid instance, one keyword argument that makes a different valid instance)
TYPES = [
    (SweepSpec,
     [("space", REQUIRED), ("param_name", REQUIRED), ("start", REQUIRED), ("stop", REQUIRED),
      ("points", REQUIRED), ("scale", REQUIRED), ("method", REQUIRED), ("dim", None),
      ("matrix", None), ("tol", None)],
     dict(space="sphere-intrinsic", param_name="radius", start=1.0, stop=4.0, points=3,
          scale="linear", method="closed", dim=2),
     ("points", 4)),
    (LineSubset, [("intervals", REQUIRED)], dict(intervals=((0.0, 1.0), (2.0, 3.0))),
     ("intervals", ((0.0, 1.0),))),
    (LineWeightMeasure, [("atoms", ()), ("densities", ())],
     dict(atoms=((0.0, 0.5),), densities=((0.0, 1.0, 0.5),)), ("atoms", ())),
    (SpherePolynomial, [("n", REQUIRED), ("coeffs", REQUIRED)],
     dict(n=2, coeffs=((2, 1.0), (0, 2.0))), ("coeffs", ((2, 1.5), (0, 2.0)))),
    (Weighting, [("w", REQUIRED), ("residual_norm", REQUIRED), ("rcond", REQUIRED)],
     dict(w=(0.5, 0.5), residual_norm=0.0, rcond=1.0), ("rcond", 0.5)),
    (QuadratureConfig, [("rel_tol", 1e-12)], dict(rel_tol=1e-8), ("rel_tol", 1e-9)),
    (IntegralResult, [("value", REQUIRED), ("error_estimate", REQUIRED),
                      ("refinements_used", REQUIRED)],
     dict(value=2.0, error_estimate=1e-15, refinements_used=3), ("refinements_used", 4)),
    (AsymptoticExpansion,
     [("terms", REQUIRED), ("error_order", REQUIRED), ("spreads", None), ("gradients", None)],
     dict(terms=((2, 1.0), (0, 2.0)), error_order=-2, spreads=(0.0, 1e-9)),
     ("error_order", -3)),
    (GermExpansion, [("coefficients", REQUIRED), ("cutoff", REQUIRED)],
     dict(coefficients=(1.0, 0.5), cutoff=1.0), ("cutoff", 2.0)),
]
IDS = [t[0].__name__ for t in TYPES]


@pytest.mark.parametrize("cls, params, kwargs, change", TYPES, ids=IDS)
def test_constructor_signature(cls, params, kwargs, change):
    signature = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in signature] == params
    assert {p.kind for p in signature} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}


@pytest.mark.parametrize("cls, params, kwargs, change", TYPES, ids=IDS)
def test_fields_equal_and_hash_by_value(cls, params, kwargs, change):
    a = cls(**kwargs)
    b = cls(*(kwargs.get(name, default) for name, default in params))
    assert a is not b and a == b and hash(a) == hash(b)
    assert all(getattr(a, name) == kwargs.get(name, default) for name, default in params)
    assert a != cls(**{**kwargs, change[0]: change[1]})
    assert a != tuple(getattr(a, name) for name, _ in params)


@pytest.mark.parametrize("cls, params, kwargs, change", TYPES, ids=IDS)
def test_assignment_is_refused(cls, params, kwargs, change):
    a = cls(**kwargs)
    for name in [name for name, _ in params] + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == cls(**kwargs)


@pytest.mark.parametrize("cls, params, kwargs, change", TYPES, ids=IDS)
def test_repr_lists_the_fields_in_order(cls, params, kwargs, change):
    a = cls(**kwargs)
    fields = ", ".join(f"{name}={getattr(a, name)!r}" for name, _ in params)
    assert repr(a) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls, params, kwargs, change", TYPES, ids=IDS)
def test_pickle_and_copy_keep_the_value(cls, params, kwargs, change):
    a = cls(**kwargs)
    for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(b) is cls and b == a


def test_fields_are_coerced_to_float_tuples():
    assert LineSubset([[0, 1]]).intervals == ((0.0, 1.0),)
    measure = LineWeightMeasure(atoms=[(0, 1)], densities=[(0, 1, 2)])
    assert measure.atoms == ((0.0, 1.0),) and measure.densities == ((0.0, 1.0, 2.0),)
    assert GermExpansion([1, 2], 1.0).coefficients == (1.0, 2.0)


@pytest.mark.parametrize("call, message", [
    (lambda: LineSubset(()), "carrier must contain at least one interval"),
    (lambda: LineSubset(((0.0, math.inf),)), "interval endpoints must be finite"),
    (lambda: LineSubset(((1.0, 0.0),)), "interval [1.0, 0.0] has negative length"),
    (lambda: LineSubset(((0.0, 1.0), (1.0, 2.0))), "intervals must be disjoint and sorted"),
    (lambda: LineWeightMeasure(atoms=((1.0, 0.5), (0.0, 0.5))),
     "atoms must be sorted by location, without duplicates"),
    (lambda: LineWeightMeasure(densities=((1.0, 1.0, 0.5),)),
     "density segment [1.0, 1.0] must have positive length"),
    (lambda: LineWeightMeasure(densities=((0.0, 2.0, 0.5), (1.0, 3.0, 0.5))),
     "density segments must be disjoint and sorted"),
    (lambda: SpherePolynomial(2, ((1, 1.0),)), "power 1 breaks the parity of n=2"),
    (lambda: SpherePolynomial(2, ((0, 1.0), (2, 1.0))),
     "coefficients must be listed by descending power"),
    (lambda: QuadratureConfig(0.0), "rel_tol must be positive"),
    (lambda: AsymptoticExpansion((), 0), "expansion needs at least one term"),
    (lambda: AsymptoticExpansion(((1, 1.0), (2, 1.0)), 0), "powers must be strictly decreasing"),
    (lambda: AsymptoticExpansion(((2, 1.0),), 2), "error_order must lie below the smallest power"),
    (lambda: AsymptoticExpansion(((2, 1.0),), 0, spreads=()), "need one spread per term"),
    (lambda: AsymptoticExpansion(((2, 1.0),), 0, gradients=()), "need one gradient per term"),
    (lambda: GermExpansion((), 1.0), "need at least alpha_0"),
    (lambda: GermExpansion((1.0,), 0.0), "cutoff must be positive, got 0.0"),
])
def test_validation_messages(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
