import re

import numpy as np
import pytest

from stlboost import (
    GT,
    LE,
    NEG_LABEL,
    POS_LABEL,
    NavalConfig,
    PstlTemplate,
    UrbanConfig,
    generate_naval,
    generate_urban,
    load_csv,
    mcr,
    parse_formula,
    robustness_all,
    save_csv,
)
from stlboost.scenarios import MAX_NOISE, MAX_VALUES
from oracles import grid_search

NAVAL_BAND = parse_formula(
    "F[15,20]((x1 > 40) & (x1 <= 47) & (x2 > 26) & (x2 <= 32))"
)
URBAN_CLOSING = parse_formula("F[370,485]((x1 <= 14.01) & (x3 > 7.45))")


class TestNaval:
    def test_band_formula_separates_noiseless(self):
        ds = generate_naval(NavalConfig(count_per_class=10, seed=0))
        assert mcr(NAVAL_BAND, ds) == 0.0

    def test_band_formula_separates_at_scale(self):
        ds = generate_naval(NavalConfig(count_per_class=100, seed=3))
        assert mcr(NAVAL_BAND, ds) == 0.0

    def test_shape(self):
        ds = generate_naval(NavalConfig(count_per_class=25, seed=1))
        assert len(ds) == 50
        assert ds.dimension == 2
        assert ds.horizon == 60
        assert int(np.sum(ds.labels == POS_LABEL)) == 25

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            NavalConfig(count_per_class=0)
        with pytest.raises(ValueError):
            NavalConfig(noise=-1.0)
        with pytest.raises(ValueError):
            NavalConfig(noise=float("inf"))
        with pytest.raises(ValueError):
            NavalConfig(seed=-1)

    def test_generated_size_is_bounded(self):
        # Only configs are built here: the generators never run.
        with pytest.raises(ValueError, match="value limit"):
            NavalConfig(count_per_class=10**9, horizon=10**9)
        with pytest.raises(ValueError, match="value limit"):
            NavalConfig(count_per_class=MAX_VALUES // (2 * 2 * 61) + 1)
        NavalConfig(count_per_class=MAX_VALUES // (2 * 2 * 61))

    def test_deterministic(self):
        a = generate_naval(NavalConfig(count_per_class=8, noise=1.0, seed=5))
        b = generate_naval(NavalConfig(count_per_class=8, noise=1.0, seed=5))
        assert np.array_equal(a.values, b.values)
        c = generate_naval(NavalConfig(count_per_class=8, noise=1.0, seed=6))
        assert not np.array_equal(a.values, c.values)

    def test_noise_perturbs_values(self):
        clean = generate_naval(NavalConfig(count_per_class=4, seed=7))
        noisy = generate_naval(NavalConfig(count_per_class=4, noise=2.0, seed=7))
        assert not np.array_equal(clean.values, noisy.values)

    def test_grid_search_finds_separating_band(self):
        ds = generate_naval(NavalConfig(count_per_class=15, seed=2))
        weights = np.full(len(ds), 1.0 / len(ds))
        template = PstlTemplate(
            "F", ((1, GT), (1, LE), (2, GT), (2, LE))
        ).bound_to(ds)

        def negative_mcr(valuation):
            return -mcr(template.instantiate(valuation), ds)

        candidates = [[40.0], [47.0], [26.0], [32.0]]
        valuation, best = grid_search(
            template, negative_mcr, candidates, time_stride=5
        )
        assert best == 0.0

    def test_csv_round_trip(self, tmp_path):
        ds = generate_naval(NavalConfig(count_per_class=5, seed=9))
        path = tmp_path / "naval.csv"
        save_csv(ds, path)
        again = load_csv(path)
        assert np.array_equal(again.values, ds.values)
        assert np.array_equal(again.labels, ds.labels)


class TestUrban:
    def test_default_scale(self):
        ds = generate_urban(UrbanConfig(seed=0))
        assert len(ds) == 300
        assert ds.horizon == 499
        assert ds.dimension == 4

    def test_closing_formula_separates_noiseless(self):
        ds = generate_urban(UrbanConfig(count_per_class=20, seed=1))
        assert mcr(URBAN_CLOSING, ds) == 0.0

    def test_deterministic(self):
        a = generate_urban(UrbanConfig(count_per_class=5, seed=2))
        b = generate_urban(UrbanConfig(count_per_class=5, seed=2))
        assert np.array_equal(a.values, b.values)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            UrbanConfig(count_per_class=0)
        with pytest.raises(ValueError):
            UrbanConfig(noise=float("nan"))
        with pytest.raises(ValueError):
            UrbanConfig(seed=-1)

    def test_generated_size_is_bounded(self):
        # Only configs are built here: the generators never run.
        per_signal = 4 * 500
        UrbanConfig(count_per_class=MAX_VALUES // (2 * per_signal))
        with pytest.raises(ValueError, match="value limit"):
            UrbanConfig(count_per_class=MAX_VALUES // (2 * per_signal) + 1)
        with pytest.raises(ValueError, match="value limit"):
            UrbanConfig(count_per_class=1, horizon=10**9)

    def test_grid_search_confirms_two_face_separator(self):
        ds = generate_urban(UrbanConfig(count_per_class=10, seed=3))
        template = PstlTemplate("F", ((1, LE), (3, GT))).bound_to(ds)

        def negative_mcr(valuation):
            return -mcr(template.instantiate(valuation), ds)

        valuation, best = grid_search(
            template, negative_mcr, [[14.01], [7.45]], time_stride=50
        )
        assert best == 0.0

    def test_positive_class_geometry(self):
        ds = generate_urban(UrbanConfig(count_per_class=6, seed=4))
        rho = robustness_all(URBAN_CLOSING, ds.values)
        assert np.all(rho[ds.labels == POS_LABEL] > 0)
        assert np.all(rho[ds.labels == NEG_LABEL] < 0)


@pytest.mark.parametrize("config, generate", [(NavalConfig, generate_naval),
                                              (UrbanConfig, generate_urban)])
def test_noise_is_bounded_below_the_float_range(config, generate):
    # Noise of 1e308 would overflow a draw to +-inf; the largest allowed
    # noise gives finite values.
    with pytest.raises(ValueError, match="noise"):
        config(noise=1e308)
    with pytest.raises(ValueError, match="noise"):
        config(noise=MAX_NOISE * 1.5)
    dataset = generate(config(count_per_class=3, noise=MAX_NOISE, seed=1))
    assert np.all(np.isfinite(dataset.values))


@pytest.mark.parametrize("name", ["count_per_class", "horizon", "seed"])
@pytest.mark.parametrize("config", [NavalConfig, UrbanConfig])
def test_config_counts_must_be_integers(config, name):
    # A float horizon used to generate T = round(horizon), and a float
    # count or seed failed only at generation time.
    value = {"count_per_class": 2.5, "horizon": 160.5, "seed": 1.5}[name]
    for bad in (value, True, "2"):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {bad!r}")):
            config(**{name: bad})
    value = {"count_per_class": 2, "horizon": 160, "seed": 1}[name]
    assert type(getattr(config(**{name: np.int64(value)}), name)) is int


@pytest.mark.parametrize("config", [NavalConfig, UrbanConfig])
def test_config_noise_must_be_a_number(config):
    # A bool noise used to pass the range check as 0 or 1.
    for bad in (True, "1.0", None):
        with pytest.raises(ValueError, match=re.escape(f"noise must be a number, got {bad!r}")):
            config(noise=bad)
    assert type(config(noise=np.float32(0.5)).noise) is float
