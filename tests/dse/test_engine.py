"""The search driver: exactness, promotion, checkpoint round trips.

One small real predictor is trained per module (seconds, warm compile
memo) and shared; the kill/resume byte-identity contract has its own
subprocess test in ``test_resume.py``.
"""

import json

import numpy as np
import pytest

from repro.dse import (DseEngine, Knob, MixEntry, SearchSpec, SearchSpace,
                       brute_force_frontier)
from repro.errors import ConfigError


def _tiny_space():
    return SearchSpace(
        name="tiny", base_name="ascend-lite",
        knobs=(
            Knob("freq_factor", (0.75, 1.0)),
            Knob("l1a_factor", (0.5, 1.0)),
            Knob("ub_factor", (0.5, 1.0)),
        ),
        mix=(MixEntry.of("gesture"),))


@pytest.fixture(scope="module")
def predictor():
    from repro.perf.predictor.train import train_predictor

    return train_predictor(seed=0, corpus=[("gesture", {})],
                           cores=["ascend-lite"], variants_per_core=8,
                           rounds=10).predictor


def _spec(**overrides):
    kwargs = dict(space=_tiny_space(), population=6, generations=2,
                  top_k=2, epsilon=10.0, max_promote=8, seed=0)
    kwargs.update(overrides)
    return SearchSpec(**kwargs)


class TestSearchSpec:
    def test_run_key_is_deterministic_and_spec_sensitive(self):
        assert _spec().run_key() == _spec().run_key()
        assert _spec().run_key() != _spec(seed=1).run_key()
        assert _spec().run_key() != _spec(epsilon=0.5).run_key()

    def test_round_trip(self):
        spec = _spec(predictor_recipe={"variants": 8})
        clone = SearchSpec.from_dict(spec.to_dict())
        assert clone.run_key() == spec.run_key()

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            _spec(population=0)
        with pytest.raises(ConfigError):
            _spec(strategy="gradient-descent")

    @pytest.mark.parametrize("field, value", [
        ("top_k", 0), ("top_k", -3), ("epsilon", -1.0),
        ("epsilon", float("nan"))])
    def test_empty_promotion_window_rejected(self, field, value):
        # top_k < 1 with a negative epsilon promotes nothing: the search
        # would simulate no candidate and still "finish".
        with pytest.raises(ConfigError, match=field):
            _spec(**{field: value})
        payload = _spec().to_dict()
        payload[field] = value
        with pytest.raises(ConfigError, match=field):
            SearchSpec.from_dict(payload)


class TestSearchRun:
    def test_wide_open_promotion_reproduces_brute_force(self, predictor,
                                                        tmp_path):
        engine = DseEngine(_spec(), predictor, tmp_path)
        engine.run(max_workers=2)
        brute, n_points = brute_force_frontier(_tiny_space(), max_workers=2)
        assert engine.frontier() == brute
        assert sum(g["simulated"] for g in engine.gen_stats) == n_points

    def test_gated_promotion_respects_the_budget(self, predictor, tmp_path):
        spec = _spec(epsilon=0.01, top_k=1, max_promote=2)
        engine = DseEngine(spec, predictor, tmp_path)
        engine.run(max_workers=2)
        stats = engine.stats()
        assert stats["proposed"] == 8          # space fully predicted
        assert stats["simulated"] <= 2 * spec.generations
        assert 0 < stats["simulated_over_space"] <= 0.5

    def test_stop_after_then_resume_is_byte_identical(self, predictor,
                                                      tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        straight = DseEngine(_spec(), predictor, a_dir)
        straight.run(max_workers=2)
        straight.write_frontier()

        halted = DseEngine(_spec(), predictor, b_dir)
        halted.run(max_workers=2, stop_after=1)
        assert halted.completed == 1
        resumed = DseEngine.resume(halted.checkpoint_path)
        assert len(resumed.archive) == len(halted.archive)
        resumed.run(max_workers=2)
        resumed.write_frontier()

        assert resumed.frontier_path.read_bytes() \
            == straight.frontier_path.read_bytes()
        assert resumed.frontier_payload()["content_key"] \
            == straight.frontier_payload()["content_key"]


class TestPromotion:
    """`_promote` in isolation, with synthetic predictions."""

    @pytest.fixture()
    def engine(self, predictor, tmp_path):
        return DseEngine(_spec(epsilon=0.1, top_k=1, max_promote=10),
                         predictor, tmp_path)

    def test_epsilon_window_within_one_stratum(self, engine):
        promoted = engine._promote(
            np.array([100.0, 105.0, 120.0, 130.0]),
            np.ones(4), np.ones(4))
        assert promoted == [0, 1]

    def test_dominated_stratum_is_pruned(self, engine):
        # Same area, double power, predictions 50% worse: the higher
        # -power stratum's envelope is the cheaper stratum, so none of
        # its candidates are within the window.
        promoted = engine._promote(
            np.array([100.0, 104.0, 150.0, 160.0]),
            np.ones(4), np.array([1.0, 1.0, 2.0, 2.0]))
        assert promoted == [0, 1]

    def test_frontier_stratum_survives_alongside_a_cheaper_one(self, engine):
        # The power-2 stratum predicts *faster* designs: both strata
        # keep their windows, ordered by slack then prediction.
        promoted = engine._promote(
            np.array([100.0, 104.0, 90.0, 130.0]),
            np.ones(4), np.array([1.0, 1.0, 2.0, 2.0]))
        assert promoted == [2, 0, 1]

    def test_top_k_floor_when_the_window_is_narrow(self, predictor,
                                                   tmp_path):
        engine = DseEngine(_spec(epsilon=0.0, top_k=3, max_promote=10),
                           predictor, tmp_path)
        promoted = engine._promote(
            np.array([100.0, 101.0, 102.0, 103.0]),
            np.ones(4), np.ones(4))
        assert promoted == [0, 1, 2]

    def test_max_promote_caps_the_window(self, predictor, tmp_path):
        engine = DseEngine(_spec(epsilon=10.0, top_k=1, max_promote=3),
                           predictor, tmp_path)
        promoted = engine._promote(
            np.array([100.0] * 5), np.ones(5), np.ones(5))
        assert promoted == [0, 1, 2]

    def test_archive_predictions_join_the_envelope(self, engine):
        engine.archive["k"] = {
            "assignment": {}, "generation": 0, "mix_cycles": [50.0],
            "predicted_cycles": 50.0, "objectives": [50.0, 1.0, 1.0],
        }
        # Every batch prediction is >2x the archived one, so only the
        # top-k floor promotes anything.
        promoted = engine._promote(
            np.array([100.0, 105.0, 120.0]), np.ones(3), np.ones(3))
        assert promoted == [0]


class TestCheckpointIntegrity:
    def test_tampered_spec_is_rejected(self, predictor, tmp_path):
        engine = DseEngine(_spec(), predictor, tmp_path)
        engine.run(max_workers=2, stop_after=1)
        payload = json.loads(engine.checkpoint_path.read_text())
        payload["spec"]["population"] = 99
        engine.checkpoint_path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="run key"):
            DseEngine.resume(engine.checkpoint_path)

    def test_wrong_schema_is_rejected(self, predictor, tmp_path):
        engine = DseEngine(_spec(), predictor, tmp_path)
        engine.run(max_workers=2, stop_after=1)
        payload = json.loads(engine.checkpoint_path.read_text())
        payload["schema"] = 99
        engine.checkpoint_path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="schema"):
            DseEngine.resume(engine.checkpoint_path)

    def test_missing_checkpoint_is_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="no DSE checkpoint"):
            DseEngine.resume(tmp_path / "nope.json")
