import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wxtopo import (
    DensityField,
    GridSpec,
    ProbabilityField,
    from_probability_minmax,
    read_field,
    resample,
    to_probability,
    write_field,
)
from wxtopo.errors import AllZeroField, ConstantField, ExtentMismatch, FormatError
from wxtopo.grid_field import mass_centroid


def grid22():
    return GridSpec(2, 2, 1.0, 1.0)


class TestGridSpec:
    def test_cell_sizes(self):
        g = GridSpec(4, 8, 2.0, 4.0)
        assert g.hx == 0.5 and g.hy == 0.5 and g.n == 32

    def test_cell_centers(self):
        g = GridSpec(2, 2, 2.0, 2.0)
        xs, ys = g.cell_centers()
        assert xs.tolist() == [0.5, 1.5, 0.5, 1.5]
        assert ys.tolist() == [0.5, 0.5, 1.5, 1.5]

    @pytest.mark.parametrize("nx,ny,lx,ly", [
        (1, 4, 1, 1), (4, 1, 1, 1), (4, 4, 0, 1), (4, 4, np.inf, 1), (4, 4, 1, np.inf),
    ])
    def test_invalid(self, nx, ny, lx, ly):
        with pytest.raises(ValueError):
            GridSpec(nx, ny, lx, ly)


class TestValidation:
    def test_density_range(self):
        with pytest.raises(ValueError):
            DensityField(grid22(), [0.5, 1.5, 0.0, 0.0])

    def test_density_length(self):
        with pytest.raises(ValueError):
            DensityField(grid22(), [0.5, 0.5])

    def test_probability_sum(self):
        with pytest.raises(ValueError):
            ProbabilityField(grid22(), [0.5, 0.5, 0.5, 0.5])

    def test_immutable(self):
        f = DensityField(grid22(), [0.1, 0.2, 0.3, 0.4])
        with pytest.raises(ValueError):
            f.values[0] = 1.0


class TestToProbability:
    def test_uniform(self):
        f = DensityField(grid22(), [1, 1, 1, 1])
        p = to_probability(f, floor=0.0)
        np.testing.assert_allclose(p.masses, 0.25)

    def test_scaling(self):
        f = DensityField(grid22(), [0.5, 0, 0, 0.5])
        p = to_probability(f, floor=0.0)
        np.testing.assert_allclose(p.masses, [0.5, 0, 0, 0.5])

    def test_all_zero(self):
        f = DensityField(grid22(), [0, 0, 0, 0])
        with pytest.raises(AllZeroField):
            to_probability(f, floor=0.0)

    def test_floor_saves_all_zero(self):
        f = DensityField(grid22(), [0, 0, 0, 0])
        p = to_probability(f)
        np.testing.assert_allclose(p.masses, 0.25)


class TestMinMax:
    def test_affine_map(self):
        p = ProbabilityField(grid22(), [0.1, 0.4, 0.3, 0.2])
        d = from_probability_minmax(p)
        np.testing.assert_allclose(d.values, [0.0, 1.0, 2.0 / 3.0, 1.0 / 3.0])

    def test_uniform_raises(self):
        p = ProbabilityField(grid22(), [0.25] * 4)
        with pytest.raises(ConstantField):
            from_probability_minmax(p)

    @given(scale=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=25, deadline=None)
    def test_scale_invariance(self, scale):
        base = np.array([0.1, 0.4, 0.3, 0.2])
        d1 = from_probability_minmax(ProbabilityField(grid22(), base))
        scaled = base * scale
        scaled /= scaled.sum()
        d2 = from_probability_minmax(ProbabilityField(grid22(), scaled))
        np.testing.assert_allclose(d1.values, d2.values, atol=1e-12)

    def test_round_trip_with_extremes(self, rng):
        # a field containing both 0 and 1 comes back through the
        # normalize / min-max pair unchanged
        g = GridSpec(5, 4, 1.0, 1.0)
        vals = rng.random(g.n)
        vals[0] = 0.0
        vals[-1] = 1.0
        f = DensityField(g, vals)
        back = from_probability_minmax(to_probability(f, floor=0.0))
        np.testing.assert_allclose(back.values, vals, atol=1e-12)
        back_floored = from_probability_minmax(to_probability(f))
        np.testing.assert_allclose(back_floored.values, vals, atol=1e-9)


class TestFieldFile:
    def test_round_trip(self, tmp_path, rng):
        g = GridSpec(7, 3, 1.5, 0.5)
        f = DensityField(g, rng.random(g.n))
        path = tmp_path / "f.dfld"
        write_field(f, path)
        back = read_field(path)
        assert back.grid == g
        assert np.array_equal(back.values, f.values)  # bit-exact

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.dfld"
        p.write_bytes(b"NOPE!" + bytes(40))
        with pytest.raises(FormatError):
            read_field(p)

    def test_shape_mismatch(self, tmp_path):
        g = GridSpec(2, 2, 1.0, 1.0)
        f = DensityField(g, [0.1, 0.2, 0.3, 0.4])
        p = tmp_path / "x.dfld"
        write_field(f, p)
        raw = p.read_bytes()
        p.write_bytes(raw[:-8])  # drop one value
        with pytest.raises(FormatError):
            read_field(p)

    @pytest.mark.parametrize("offset", [13, 21])  # lx, ly after the magic and nx, ny
    def test_infinite_extent(self, tmp_path, offset):
        p = tmp_path / "x.dfld"
        write_field(DensityField(grid22(), [0.1, 0.2, 0.3, 0.4]), p)
        raw = bytearray(p.read_bytes())
        raw[offset : offset + 8] = np.array([np.inf]).astype("<f8").tobytes()
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="finite"):
            read_field(p)

    def test_out_of_range_value(self, tmp_path):
        g = GridSpec(2, 2, 1.0, 1.0)
        f = DensityField(g, [0.1, 0.2, 0.3, 0.4])
        p = tmp_path / "x.dfld"
        write_field(f, p)
        raw = bytearray(p.read_bytes())
        raw[-8:] = np.array([1.5]).astype("<f8").tobytes()
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_field(p)


class TestResample:
    def test_constant(self):
        g = GridSpec(4, 4, 1.0, 1.0)
        f = DensityField(g, np.full(16, 0.7))
        out = resample(f, GridSpec(9, 5, 1.0, 1.0))
        np.testing.assert_allclose(out.values, 0.7)

    def test_identity(self):
        g = GridSpec(2, 2, 1.0, 1.0)
        f = DensityField(g, [0.1, 0.2, 0.3, 0.4])
        out = resample(f, g)
        assert np.array_equal(out.values, f.values)

    def test_extent_mismatch(self):
        g = GridSpec(4, 4, 1.0, 1.0)
        f = DensityField(g, np.zeros(16))
        with pytest.raises(ExtentMismatch):
            resample(f, GridSpec(4, 4, 2.0, 1.0))

    def test_linear_ramp_refinement(self):
        # oracle: evaluate the analytic ramp at target centers, clamped to
        # the source-center hull (documented edge extension)
        g = GridSpec(8, 4, 2.0, 1.0)
        xs, _ = g.cell_centers()
        ramp = xs / g.lx
        f = DensityField(g, ramp)
        target = GridSpec(16, 8, 2.0, 1.0)
        txs, _ = target.cell_centers()
        clamped = np.clip(txs, 0.5 * g.hx, g.lx - 0.5 * g.hx)
        expected = clamped / g.lx
        out = resample(f, target)
        np.testing.assert_allclose(out.values, expected, atol=1e-14)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_range_contained(self, seed):
        r = np.random.default_rng(seed)
        g = GridSpec(5, 6, 1.0, 2.0)
        f = DensityField(g, r.random(g.n))
        out = resample(f, GridSpec(11, 3, 1.0, 2.0))
        assert out.values.min() >= f.values.min() - 1e-15
        assert out.values.max() <= f.values.max() + 1e-15


def test_mass_centroid():
    g = GridSpec(4, 2, 4.0, 2.0)
    w = np.zeros(8)
    w[3] = 2.0  # cell (3, 0) center (3.5, 0.5)
    assert mass_centroid(g, w) == (3.5, 0.5)
