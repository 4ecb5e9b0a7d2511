import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapsched.errors import ConfigError, ParameterError
from mapsched.ident import (
    SteadyStateSample,
    identify,
    read_samples_csv,
    regress_slope,
    viscous_from_slope,
)

# measured steady-state velocities of the stock motor, no external load
NO_LOAD_ROWS = [
    (-4.0, -97.7), (-3.0, -72.4), (-2.0, -45.9), (-1.0, -22.1),
    (1.0, 22.5), (2.0, 46.3), (3.0, 72.4), (4.0, 97.7),
]
# with external load applied
LOAD_ROWS = [
    (-4.0, -41.0), (-3.0, -23.0), (-2.0, -9.8),
    (2.0, 9.3), (3.0, 23.2), (4.0, 40.0),
]


def samples(rows):
    return [SteadyStateSample(voltage=v, velocity=w) for v, w in rows]


class TestRegressSlope:
    def test_exact_line_through_origin(self):
        mu, rms = regress_slope(samples([(2.0, 1.0), (4.0, 2.0)]))
        assert mu == pytest.approx(2.0, rel=1e-15)
        assert rms == pytest.approx(0.0, abs=1e-15)

    def test_closed_form_two_points(self):
        mu, _ = regress_slope(samples([(0.5, 10.0), (0.9, 20.0)]))
        assert mu == pytest.approx((0.5 * 10 + 0.9 * 20) / (100 + 400), rel=1e-15)
        assert mu == pytest.approx(0.046, rel=1e-12)

    def test_no_load_table_slope(self):
        rows = np.array(NO_LOAD_ROWS)
        expected = float(np.sum(rows[:, 0] * rows[:, 1]) / np.sum(rows[:, 1] ** 2))
        mu, rms = regress_slope(samples(NO_LOAD_ROWS))
        assert mu == pytest.approx(expected, rel=1e-14)
        assert mu == pytest.approx(0.0415, abs=1e-4)
        assert rms > 0.0

    def test_degenerate_all_zero_velocities(self):
        with pytest.raises(ParameterError):
            regress_slope(samples([(0.0, 0.0), (0.0, 0.0)]))

    def test_requires_two_distinct_velocities(self):
        with pytest.raises(ParameterError):
            regress_slope(samples([(1.0, 10.0)]))
        with pytest.raises(ParameterError):
            regress_slope(samples([(1.0, 10.0), (1.1, 10.0)]))

    def test_sample_sign_invariant(self):
        with pytest.raises(ParameterError):
            SteadyStateSample(voltage=1.0, velocity=-5.0)
        SteadyStateSample(voltage=1.0, velocity=0.0)  # stalled rotor is fine


class TestViscousFromSlope:
    def test_low_friction_anchor(self, motor):
        # slope excess over the back-EMF constant of 4.9208e-4
        b = viscous_from_slope(motor, motor.Ke + 4.9208e-4)
        assert b == pytest.approx((0.042 / 8.4) * 4.9208e-4, rel=1e-12)
        assert b == pytest.approx(2.46e-6, rel=0.01)

    def test_high_friction_anchor(self, motor):
        b = viscous_from_slope(motor, motor.Ke + 0.0325)
        assert b == pytest.approx(1.625e-4, rel=1e-12)
        assert b == pytest.approx(1.63e-4, rel=0.01)

    def test_back_emf_only_slope(self, motor):
        assert viscous_from_slope(motor, motor.Ke) == 0.0


class TestIdentify:
    def _synthetic(self, motor, b, velocities):
        mu = motor.Rm * b / motor.Kt + motor.Ke
        return samples([(mu * w, w) for w in velocities])

    def test_round_trip_recovers_b(self, motor):
        got = identify(motor, self._synthetic(motor, 1.0e-4, [5, 10, 20, 40]))
        assert got.viscous_coeff == pytest.approx(1.0e-4, rel=1e-12)
        assert got.warning is None

    def test_round_trip_zero_b(self, motor):
        got = identify(motor, self._synthetic(motor, 0.0, [5.0, 15.0]))
        assert abs(got.viscous_coeff) < 1e-12

    @given(
        b=st.floats(min_value=0.0, max_value=1e-3),
        scale=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, motor, b, scale):
        velocities = [3.0 * scale, 11.0 * scale, 27.0 * scale]
        got = identify(motor, self._synthetic(motor, b, velocities))
        assert got.viscous_coeff == pytest.approx(b, rel=1e-12, abs=1e-15)

    def test_no_load_table_flags_nonphysical_result(self, motor):
        # the printed no-load velocities regress to a slope below the
        # back-EMF constant, so the implied b is slightly negative; the
        # result records the value and carries a warning instead of hiding it
        got = identify(motor, samples(NO_LOAD_ROWS))
        assert got.slope == pytest.approx(0.0415, abs=1e-4)
        assert got.viscous_coeff < 0.0
        assert got.warning is not None

    def test_load_table_reports_consistent_result(self, motor):
        got = identify(motor, samples(LOAD_ROWS))
        assert got.viscous_coeff == pytest.approx(
            viscous_from_slope(motor, got.slope), rel=0, abs=0
        )
        assert np.isfinite(got.residual_rms)

    def test_scaling_leaves_slope_unchanged(self, motor):
        base = samples(NO_LOAD_ROWS)
        scaled = samples([(3.7 * v, 3.7 * w) for v, w in NO_LOAD_ROWS])
        assert regress_slope(base)[0] == pytest.approx(regress_slope(scaled)[0], rel=1e-12)

    def test_adding_point_on_line_leaves_slope_unchanged(self, motor):
        base = samples([(0.5, 10.0), (0.9, 20.0)])
        mu, _ = regress_slope(base)
        extended = base + [SteadyStateSample(voltage=mu * 33.0, velocity=33.0)]
        mu2, _ = regress_slope(extended)
        assert mu2 == pytest.approx(mu, rel=1e-12)


class TestCsvReading:
    def test_with_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("voltage,velocity\n1.0,22.5\n2.0,46.3\n")
        rows = read_samples_csv(path)
        assert len(rows) == 2
        assert rows[0].voltage == 1.0 and rows[0].velocity == 22.5

    def test_header_after_blank_lines(self, tmp_path):
        # the first row that is not blank may be the header
        path = tmp_path / "data.csv"
        path.write_text("\nvoltage,velocity\n1.0,20.0\n2.0,41.0\n")
        rows = read_samples_csv(path)
        assert [(r.voltage, r.velocity) for r in rows] == [(1.0, 20.0), (2.0, 41.0)]

    @pytest.mark.parametrize("text, row", [
        ("\n\nvoltage,velocity\nv,w\n1.0,20.0\n", 4),
        ("\n1.0,20.0\n\nvoltage,velocity\n", 4),
    ], ids=["second-header", "header-after-data"])
    def test_one_header_at_most_and_rows_count_every_line(self, tmp_path, text, row):
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"row {row} is not numeric"):
            read_samples_csv(path)

    def test_without_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,22.5\n2.0,46.3\n")
        assert len(read_samples_csv(path)) == 2

    def test_rejects_single_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(ConfigError):
            read_samples_csv(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("voltage,velocity\n")
        with pytest.raises(ConfigError):
            read_samples_csv(path)
