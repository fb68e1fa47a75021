import itertools
from datetime import date

import pytest

from duotrader.alpha_fusion import VIEW_CONFIDENCE, fuse
from duotrader.directions import DOWN, FLAT, UP

DAY = date(2021, 3, 1)


def run(hmm_dir, nn_dir, magnitude=0.01):
    expected = {UP: magnitude, DOWN: -magnitude, FLAT: 0.0}[hmm_dir]
    return fuse((hmm_dir, expected), (nn_dir, 1.5), "XOM", DAY, 21)


class TestConsensusRule:
    def test_both_up(self):
        assert run(UP, UP).direction == UP

    def test_both_down(self):
        assert run(DOWN, DOWN).direction == DOWN

    def test_disagreement_flat(self):
        assert run(UP, DOWN).direction == FLAT

    def test_flat_input_flat(self):
        assert run(FLAT, UP).direction == FLAT

    def test_exhaustive_truth_table(self):
        non_flat = 0
        for hmm_dir, nn_dir in itertools.product((UP, DOWN, FLAT), repeat=2):
            insight = run(hmm_dir, nn_dir)
            if hmm_dir == nn_dir and hmm_dir in (UP, DOWN):
                assert insight.direction == hmm_dir
                non_flat += 1
            else:
                assert insight.direction == FLAT
        assert non_flat == 2

    def test_disagreement_symmetric(self):
        assert run(UP, DOWN).direction == run(DOWN, UP).direction == FLAT

    def test_never_opposite_to_an_input(self):
        opposite = {UP: DOWN, DOWN: UP}
        for hmm_dir, nn_dir in itertools.product((UP, DOWN, FLAT), repeat=2):
            insight = run(hmm_dir, nn_dir)
            assert insight.direction != opposite.get(hmm_dir)
            assert insight.direction != opposite.get(nn_dir)


class TestMagnitudeAndConfidence:
    def test_magnitude_from_hmm_expected_return(self):
        insight = fuse((UP, 0.0123), (UP, 99.0), "XOM", DAY, 21)
        assert insight.magnitude == pytest.approx(0.0123)

    def test_down_magnitude_is_absolute(self):
        insight = fuse((DOWN, -0.02), (DOWN, 5.0), "XOM", DAY, 21)
        assert insight.direction == DOWN
        assert insight.magnitude == pytest.approx(0.02)

    def test_flat_magnitude_zero(self):
        assert run(UP, DOWN).magnitude == 0.0

    def test_default_confidence(self):
        assert run(UP, UP).to_dict()["confidence"] == VIEW_CONFIDENCE == 0.5


class TestDegradation:
    def test_missing_hmm(self):
        insight = fuse(None, (UP, 1.0), "XOM", DAY, 21)
        assert insight.direction == FLAT
        assert "hmm" in insight.diagnostic

    def test_missing_both(self):
        insight = fuse(None, None, "XOM", DAY, 21)
        assert insight.direction == FLAT
        assert "hmm" in insight.diagnostic and "nn" in insight.diagnostic


class TestLogging:
    def test_json_record(self):
        insight = fuse((UP, 0.01), (UP, 2.0), "CVX", DAY, 21)
        record = insight.to_dict()
        assert record["symbol"] == "CVX"
        assert record["date"] == "2021-03-01"
        assert record["direction"] == UP
        assert record["period"] == 21
