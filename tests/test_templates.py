import re

import numpy as np
import pytest

from stlboost import (
    Always,
    Eventually,
    GT,
    LE,
    POS_LABEL,
    NEG_LABEL,
    Predicate,
    PstlTemplate,
    ThresholdRangeError,
    Valuation,
    first_order_templates,
)
from helpers import constant_dataset


def test_first_order_enumeration():
    templates = first_order_templates(2)
    assert len(templates) == 8  # 2 shapes x 2 variables x 2 comparators
    assert [t.shape for t in templates[:4]] == ["G"] * 4
    assert [t.shape for t in templates[4:]] == ["F"] * 4
    assert templates[0].slots == ((1, LE),)
    assert templates[1].slots == ((1, GT),)
    assert all(not t.is_bound for t in templates)


def test_shape_restriction():
    templates = first_order_templates(3, shapes=("G",))
    assert len(templates) == 6
    assert all(t.shape == "G" for t in templates)


def test_bound_to_pads_by_one_percent():
    ds = constant_dataset([0.0, 10.0], [POS_LABEL, NEG_LABEL])
    template = PstlTemplate("F", ((1, LE),)).bound_to(ds)
    (lo, hi) = template.threshold_bounds[0]
    assert lo == pytest.approx(-0.1)
    assert hi == pytest.approx(10.1)
    assert template.horizon == ds.horizon


def test_bound_to_constant_variable():
    ds = constant_dataset([5.0, 5.0], [POS_LABEL, NEG_LABEL])
    template = PstlTemplate("G", ((1, GT),)).bound_to(ds)
    lo, hi = template.threshold_bounds[0]
    assert lo < 5.0 < hi


@pytest.mark.parametrize("extreme", [0.89e308, 1.7e308])
def test_bound_to_rejects_a_range_wider_than_a_float(extreme):
    # At 0.89e308 the padding overflows the span; at 1.7e308 the raw span.
    ds = constant_dataset([-extreme, 0.0, extreme], [POS_LABEL, NEG_LABEL, POS_LABEL])
    with pytest.raises(ThresholdRangeError, match="x1"):
        PstlTemplate("F", ((1, LE),)).bound_to(ds)


@pytest.mark.parametrize("bounds", [
    (-1e308, 1e308), (-float("inf"), 0.0), (0.0, float("inf")),
    # Before its clip a swarm's velocity is at most 0.5 + 2 * 4 = 8.5 spans:
    # 17 * 1.05e307 fits a float (test_pso searches it), 17 * 1.06e307 not.
    (-1.06e307, 1.06e307),
    # A particle then moves at most half a span from where it is.
    (1.75e308, 1.79e308),
])
def test_threshold_bounds_span_a_finite_range(bounds):
    with pytest.raises(ThresholdRangeError, match="x2"):
        PstlTemplate("G", ((2, GT),), (bounds,), horizon=2)


def test_instantiate():
    template = PstlTemplate(
        "G", ((1, GT), (2, LE)), ((-1.0, 1.0), (-1.0, 1.0)), horizon=9
    )
    phi = template.instantiate(Valuation(2, 5, (-0.5, 0.25)))
    assert isinstance(phi, Always)
    assert (phi.start, phi.end) == (2, 5)
    assert isinstance(phi.child, Predicate)
    faces = phi.child.box.conjuncts
    assert (faces[0].var, faces[0].op, faces[0].threshold) == (1, GT, -0.5)
    assert (faces[1].var, faces[1].op, faces[1].threshold) == (2, LE, 0.25)

    eventually = PstlTemplate("F", ((1, LE),), ((0.0, 1.0),), horizon=3)
    assert isinstance(eventually.instantiate(Valuation(0, 0, (0.5,))), Eventually)


def test_validation():
    with pytest.raises(ValueError):
        PstlTemplate("X", ((1, LE),))
    with pytest.raises(ValueError):
        PstlTemplate("G", ())
    with pytest.raises(ValueError):
        PstlTemplate("G", ((1, LE), (1, LE)))
    with pytest.raises(ValueError):
        PstlTemplate("G", ((1, LE),), ((1.0, -1.0),), horizon=2)
    with pytest.raises(ValueError):
        Valuation(3, 1, (0.0,))
    with pytest.raises(ValueError):
        Valuation(-1, 1, (0.0,))


def test_integer_fields():
    # A bool or a fraction is refused with its field named; a numpy integer
    # is the Python int it equals.
    for make, message in (
        (lambda: PstlTemplate("G", ((2.7, GT),)), "slot variable must be an integer, got 2.7"),
        (lambda: PstlTemplate("G", ((True, GT),)), "slot variable must be an integer, got True"),
        (lambda: PstlTemplate("G", ((1, GT),), horizon=3.5),
         "horizon must be an integer, got 3.5"),
        (lambda: Valuation(1.5, 3, (1.0,)), "t_start must be an integer, got 1.5"),
        (lambda: Valuation(1, 3.9, (1.0,)), "t_end must be an integer, got 3.9"),
        (lambda: Valuation(False, 3, (1.0,)), "t_start must be an integer, got False"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            make()
    template = PstlTemplate("G", ((np.int64(2), GT),), ((0.0, 1.0),), horizon=np.int64(3))
    assert template == PstlTemplate("G", ((2, GT),), ((0.0, 1.0),), horizon=3)
    assert type(template.slots[0][0]) is int and type(template.horizon) is int
    valuation = Valuation(np.int64(1), np.intp(3), (0.5,))
    assert valuation == Valuation(1, 3, (0.5,))
    assert (type(valuation.t_start), type(valuation.t_end)) == (int, int)
