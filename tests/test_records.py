"""The record types are immutable named tuples.

Their constructors and defaults, ``repr`` text, equality, hash, immutability
and refusals are part of the API. A record derived with ``_replace`` passes
the same checks as a constructed one.
"""

import math

import pytest

from fracpast.chaos import LogisticConfig
from fracpast.coherent import ComponentReport, CrossSystemReport, DistortionFunction, SandwichReport
from fracpast.distributions import Uniform
from fracpast.empirical import MomentPair, Sample
from fracpast.entropy import EntropyResult, MeasureTag
from fracpast.errors import DomainError
from fracpast.fraclog import FracOrder, LogMode
from fracpast.multivariate import BivariateLaw
from fracpast.orders import OrderReport
from fracpast.quadrature import QuadResult

# Laws compare by identity, so the law records share these.
_X, _Y = Uniform(1.0), Uniform(2.0)

# Each record: a builder of one instance, its repr, and a field change that
# makes it unequal.
RECORDS = {
    "QuadResult": (
        lambda: QuadResult(value=0.25, error_estimate=1e-12, diverged=False, subdivisions_used=3),
        "QuadResult(value=0.25, error_estimate=1e-12, diverged=False, subdivisions_used=3, "
        "low_confidence=False, tail_exponent=nan)",
        {"low_confidence": True},
    ),
    "FracOrder": (lambda: FracOrder(1), "FracOrder(alpha=1.0)", {"alpha": 0.5}),
    "EntropyResult": (
        lambda: EntropyResult(0.25, QuadResult(0.25, 0.0, False, 0), LogMode.APPROX,
                              MeasureTag.EFCPE, 0.5),
        "EntropyResult(value=0.25, diagnostics=QuadResult(value=0.25, error_estimate=0.0, "
        "diverged=False, subdivisions_used=0, low_confidence=False, tail_exponent=nan), "
        "mode=<LogMode.APPROX: 'approx'>, measure_tag=<MeasureTag.EFCPE: 'efcpe'>, alpha=0.5)",
        {"mode": LogMode.EXACT},
    ),
    "BivariateLaw": (
        lambda: BivariateLaw(max, _X, _Y, min),
        "BivariateLaw(joint_cdf=<built-in function max>, marginal_x=uniform(scale=1.0), "
        "marginal_y=uniform(scale=2.0), conditional_cdf_y_given_x=<built-in function min>, "
        "label='bivariate', y_kinks=None)",
        {"label": "other"},
    ),
    "DistortionFunction": (
        lambda: DistortionFunction(max, "max"),
        "DistortionFunction(pair=<built-in function max>, label='max')",
        {"pair": min},
    ),
    "SandwichReport": (
        lambda: SandwichReport(0.1, 0.2, 0.3, 0.5, 1.5, True),
        "SandwichReport(lower=0.1, system=0.2, upper=0.3, omega1=0.5, omega2=1.5, holds=True)",
        {"holds": False},
    ),
    "CrossSystemReport": (
        lambda: CrossSystemReport(0.5, 2.0, 0.1, 0.2, True, False),
        "CrossSystemReport(inf_ratio=0.5, sup_ratio=2.0, value_first=0.1, value_second=0.2, "
        "lower_holds=True, upper_holds=False)",
        {"upper_holds": True},
    ),
    "ComponentReport": (
        lambda: ComponentReport("ge", 0.2, 0.1, True),
        "ComponentReport(direction='ge', system=0.2, component=0.1, consistent=True)",
        {"direction": "le"},
    ),
    "OrderReport": (
        lambda: OrderReport("No", 0.25),
        "OrderReport(holds='No', witness=0.25)",
        {"witness": 0.5},
    ),
    "LogisticConfig": (
        lambda: LogisticConfig(s=3.5),
        "LogisticConfig(s=3.5, x0=0.1, burn_in=1000, length=5000)",
        {"length": 10},
    ),
    "Sample": (lambda: Sample([3, 1, 2]), "Sample(data=(1.0, 2.0, 3.0))", {"data": (1.0, 4.0)}),
    "MomentPair": (lambda: MomentPair(1.0, 0.5), "MomentPair(mean=1.0, variance=0.5)",
                   {"variance": 0.0}),
}


@pytest.mark.parametrize("name", RECORDS)
def test_repr(name):
    build, text, _ = RECORDS[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", RECORDS)
def test_equality_and_hash(name):
    build, _, change = RECORDS[name]
    a, b = build(), build()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash(tuple(a))
    other = a._replace(**change)
    assert other != a and type(other) is type(a)


@pytest.mark.parametrize("name", RECORDS)
def test_assignment_raises(name):
    record = RECORDS[name][0]()
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_keyword_construction_with_defaults():
    res = QuadResult(value=1.0, error_estimate=0.0, diverged=False, subdivisions_used=0)
    assert res.low_confidence is False and math.isnan(res.tail_exponent)
    assert FracOrder(alpha=1) == FracOrder(1.0) and type(FracOrder(1).alpha) is float
    law = BivariateLaw(joint_cdf=max, marginal_x=_X, marginal_y=_Y, conditional_cdf_y_given_x=min)
    assert law.label == "bivariate" and law.y_kinks is None and law.bounded
    assert LogisticConfig(s=3.5) == LogisticConfig(3.5, 0.1, 1000, 5000)
    assert Sample(values=[2, 1]).data == (1.0, 2.0) and Sample([2, 1]).n == 2
    assert MomentPair(mean=1.0, variance=0.5) == MomentPair(1.0, 0.5)
    assert OrderReport(holds="Yes", witness=None).witness is None
    assert ComponentReport(direction="ge", system=0.2, component=0.1, consistent=True).consistent


def test_records_are_tuples_of_their_fields():
    assert LogisticConfig(s=3.5) == (3.5, 0.1, 1000, 5000)
    assert list(MomentPair(1.0, 0.5)) == [1.0, 0.5]
    mean, variance = MomentPair(1.0, 0.5)
    assert (mean, variance) == (1.0, 0.5)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FracOrder(0), r"must lie in \(0, 1\], got 0"),
        (lambda: FracOrder(1.5), r"must lie in \(0, 1\], got 1.5"),
        (lambda: FracOrder(True), "must be a real number"),
        (lambda: OrderReport("Maybe", None), "invalid verdict 'Maybe'"),
        (lambda: OrderReport("No", None), "a No verdict requires a witness level"),
        (lambda: LogisticConfig(s=5), r"control parameter must lie in \[0, 4\], got 5"),
        (lambda: MomentPair(1, -0.1), "variance must be nonnegative, got -0.1"),
        (lambda: Sample([1.0]), "sample needs at least 2 observations, got 1"),
    ],
    ids=["order-0", "order-1.5", "order-bool", "verdict", "no-witness",
         "logistic-s", "variance", "one-value"],
)
def test_refusals(build, message):
    with pytest.raises(DomainError, match=message):
        build()


@pytest.mark.parametrize(
    "derive, message",
    [
        (lambda: FracOrder(0.5)._replace(alpha=0), "must lie in"),
        (lambda: OrderReport("Yes", None)._replace(holds="No"), "requires a witness"),
        (lambda: LogisticConfig(s=4.0)._replace(s=5.0), "control parameter"),
        (lambda: MomentPair(1.0, 0.0)._replace(variance=-1.0), "variance"),
        (lambda: Sample([1, 2])._replace(data=(3.0,)), "at least 2 observations"),
    ],
    ids=["order", "no-witness", "logistic-s", "variance", "one-value"],
)
def test_replace_refuses_what_the_constructor_refuses(derive, message):
    with pytest.raises(DomainError, match=message):
        derive()


def test_replace_keeps_the_constructor_conversions():
    assert Sample([1, 2])._replace(data=(3, 1)).data == (1.0, 3.0)
    assert type(FracOrder(0.5)._replace(alpha=1).alpha) is float


def test_frac_order_caches_constants_on_the_instance():
    order = FracOrder(0.5)
    assert "_gamma_plus" not in order.__dict__
    assert order._gamma_plus == math.gamma(1.5)
    assert order.__dict__["_gamma_plus"] == math.gamma(1.5)
    assert FracOrder(0.5) == order and hash(FracOrder(0.5)) == hash(order)
