"""Guide-table inverse of the CDF table: bit-identical to the PCHIP
interpolant it replaces, at the knots, in the wide tail buckets and at the
ends of [0, 1], for every block size; rows streamed through one reused
buffer are the rows of one long draw."""

import itertools

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

import exdev
from exdev import sampler_tilted, tilt_to_mean
from exdev.tables import BLOCK, GUIDE_BUCKETS

TABLES = [("weibull", 2.0, 3.0), ("weibull", 2.5, 3.0),
          ("weibull", 3.0, 10.0), ("double-exp", None, 20.0)]


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.fixture(scope="module", params=TABLES,
                ids=[f"{d}-{k}-a{a}" for d, k, a in TABLES])
def table(request):
    kind, k, a = request.param
    d = exdev.weibull(k) if kind == "weibull" else exdev.double_exp()
    return sampler_tilted(tilt_to_mean(d, a))


def _special_points(table):
    """0, every knot and its neighbours, points in every wide bucket, the
    largest double below 1, and 1."""
    F = table.F
    near = np.concatenate([F, np.nextafter(F, 2.0), np.nextafter(F, -1.0)])
    wide = np.flatnonzero(table.wide)
    in_wide = ((wide[:, None] + np.linspace(0.0, 1.0, 17)[:-1])
               / GUIDE_BUCKETS).ravel()
    return np.clip(np.concatenate([[0.0], near, in_wide,
                                   [np.nextafter(1.0, 0.0), 1.0]]), 0.0, 1.0)


def test_table_has_wide_buckets(table):
    # the fallback path is exercised by the tests below
    assert table.wide.any()
    assert table.F[0] == 0.0 and table.F[-1] == 1.0


def test_ppf_matches_pchip_at_special_points(table):
    ref = PchipInterpolator(table.F, table.x)
    u = _special_points(table)
    np.testing.assert_array_equal(_bits(table.ppf(u)), _bits(ref(u)))


@pytest.mark.parametrize("count", [0, 1, BLOCK + 3])
def test_sample_matches_pchip_on_uniforms(table, count):
    ref = PchipInterpolator(table.F, table.x)
    draws = table.sample(count, np.random.default_rng(7))
    u = np.random.default_rng(7).random(count)
    assert draws.shape == (count,)
    np.testing.assert_array_equal(_bits(draws), _bits(table.ppf(u)))
    np.testing.assert_array_equal(_bits(draws), _bits(ref(u)))


def test_ppf_shapes_clipping_and_nan(table):
    ref = PchipInterpolator(table.F, table.x)
    assert isinstance(table.ppf(0.5), float)
    assert table.ppf(0.5) == ref(0.5)
    assert table.ppf(-0.25) == table.x[0]
    assert table.ppf(1.5) == ref(1.0)
    u = np.random.default_rng(3).random((3, 5)).T  # not C-contiguous
    np.testing.assert_array_equal(_bits(table.ppf(u)), _bits(ref(u)))
    out = table.ppf(np.array([0.25, np.nan, 0.75]))
    assert np.isnan(out[1])
    np.testing.assert_array_equal(_bits(out[[0, 2]]),
                                  _bits(ref([0.25, 0.75])))


def test_sample_into_out_matches_fresh_draws(table):
    buf = np.full(BLOCK + 3, np.nan)
    got = table.sample(buf.size, np.random.default_rng(8), out=buf)
    assert got is buf
    np.testing.assert_array_equal(
        _bits(buf), _bits(table.sample(buf.size, np.random.default_rng(8))))
    with pytest.raises(ValueError):
        table.sample(4, np.random.default_rng(8), out=buf)


@pytest.mark.parametrize("n", [1, 10, 256, BLOCK + 5])
def test_row_blocks_are_rows_of_one_draw(table, n):
    step = max(BLOCK // n, 1)
    rows = 2 * step + 3 if step > 1 else 3
    blocks, bases = [], set()
    for block in table.row_blocks(n, np.random.default_rng(9), rows):
        assert block.shape[1] == n and block.size <= max(BLOCK, n)
        bases.add(block.ctypes.data)
        blocks.append(block.copy())
    assert len(bases) == 1  # every block is a view of one buffer
    ref = table.sample(rows * n, np.random.default_rng(9)).reshape(rows, n)
    np.testing.assert_array_equal(_bits(np.concatenate(blocks)), _bits(ref))
    # without a row count the stream goes on, with the same leading rows
    endless = table.row_blocks(n, np.random.default_rng(9))
    head = np.concatenate([b.copy() for b in itertools.islice(endless, 2)])
    np.testing.assert_array_equal(_bits(head), _bits(ref[:head.shape[0]]))
