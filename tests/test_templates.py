import re

import numpy as np
import pytest

from stlboost import (
    Always,
    Eventually,
    GT,
    LE,
    LabeledDataset,
    NavalConfig,
    POS_LABEL,
    NEG_LABEL,
    Predicate,
    PstlTemplate,
    ThresholdRangeError,
    Valuation,
    first_order_templates,
    generate_naval,
)
from stlboost.templates import bound_templates
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


def _bound_alone(template, dataset):
    """``template`` bound by the per-template rule: its variables' ranges,
    read for this template alone."""
    bounds = []
    for var, _ in template.slots:
        column = dataset.values[:, var - 1, :]
        lo, hi = float(column.min()), float(column.max())
        pad = 0.01 * (hi - lo)
        if pad == 0.0:
            pad = max(1e-6, 1e-6 * abs(lo))
        bounds.append((lo - pad, hi + pad))
    return PstlTemplate(template.shape, template.slots, tuple(bounds), dataset.horizon)


def test_binding_all_at_once_equals_binding_each_alone():
    dataset = generate_naval(NavalConfig(count_per_class=10, noise=2.0, seed=3))
    templates = first_order_templates(dataset.dimension) + (
        PstlTemplate("F", ((1, GT), (1, LE), (2, GT))),
    )
    together = bound_templates(templates, dataset)
    assert len(together) == len(templates)
    for template, bound in zip(templates, together):
        for alone in (_bound_alone(template, dataset), template.bound_to(dataset)):
            assert bound.threshold_bounds == alone.threshold_bounds
            assert bound.horizon == alone.horizon == dataset.horizon
            assert (bound.shape, bound.slots) == (template.shape, template.slots)


def test_binding_all_at_once_names_the_variable_too_wide():
    # x2 spans more than a float; the first template over x2 raises, with
    # the text of binding that template alone.
    values = np.zeros((3, 2, 2))
    values[:, 1, 0] = (-1.7e308, 0.0, 1.7e308)
    dataset = LabeledDataset(values, np.array([POS_LABEL, NEG_LABEL, POS_LABEL]), "abc")
    templates = first_order_templates(2)
    assert templates[2].slots[0][0] == 2
    with pytest.raises(ThresholdRangeError) as alone:
        _bound_alone(templates[2], dataset)
    with pytest.raises(ThresholdRangeError) as together:
        bound_templates(templates, dataset)
    assert str(together.value) == str(alone.value)
    assert str(alone.value).startswith("the values of x2 span too wide a range")


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
    # A bool, a fraction or text is refused with its field named; a numpy
    # integer is the Python int it equals.
    for make, message in (
        (lambda: PstlTemplate("G", ((2.7, GT),)), "slot variable must be an integer, got 2.7"),
        (lambda: PstlTemplate("G", ((True, GT),)), "slot variable must be an integer, got True"),
        (lambda: PstlTemplate("G", ((1, GT),), horizon=3.5),
         "horizon must be an integer, got 3.5"),
        (lambda: Valuation(1.5, 3, (1.0,)), "t_start must be an integer, got 1.5"),
        (lambda: Valuation(1, 3.9, (1.0,)), "t_end must be an integer, got 3.9"),
        (lambda: Valuation(False, 3, (1.0,)), "t_start must be an integer, got False"),
        (lambda: Valuation(0, 1, ("3", False)), "threshold must be a number, got '3'"),
        (lambda: Valuation(0, 1, (3.0, False)), "threshold must be a number, got False"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            make()
    template = PstlTemplate("G", ((np.int64(2), GT),), ((0.0, 1.0),), horizon=np.int64(3))
    assert template == PstlTemplate("G", ((2, GT),), ((0.0, 1.0),), horizon=3)
    assert type(template.slots[0][0]) is int and type(template.horizon) is int
    valuation = Valuation(np.int64(1), np.intp(3), (0.5,))
    assert valuation == Valuation(1, 3, (0.5,))
    assert (type(valuation.t_start), type(valuation.t_end)) == (int, int)
