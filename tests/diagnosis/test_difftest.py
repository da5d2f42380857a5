"""Tests for VSB differential testing (the Table-5 detection mechanism)."""

from repro.diagnosis.difftest import SCENARIOS, detect_against_mismodel, detect_vsbs
from repro.net.vendors import VSB_KNOBS, VENDOR_A, VENDOR_B, iter_knob_differences


class TestScenarioCoverage:
    def test_one_scenario_per_knob(self):
        assert set(SCENARIOS) == set(VSB_KNOBS)

    def test_scenarios_are_deterministic(self):
        for knob in ("missing_policy_accepts", "sr_tunnel_zeroes_igp_cost"):
            scenario = SCENARIOS[knob]
            assert scenario(VENDOR_A) == scenario(VENDOR_A)


class TestDetection:
    def test_all_knobs_detected_against_mismodel_vendor_a(self):
        detections = detect_against_mismodel(VENDOR_A)
        undetected = [d.knob for d in detections if not d.detected]
        assert undetected == []

    def test_all_knobs_detected_against_mismodel_vendor_b(self):
        detections = detect_against_mismodel(VENDOR_B)
        undetected = [d.knob for d in detections if not d.detected]
        assert undetected == []

    def test_identical_profiles_detect_nothing(self):
        detections = detect_vsbs(VENDOR_A, VENDOR_A)
        assert not any(d.detected for d in detections)

    def test_cross_vendor_detects_differing_knobs(self):
        """Scenarios must fire exactly where the two vendors disagree."""
        differing = {knob for knob, _, _ in iter_knob_differences(VENDOR_A, VENDOR_B)}
        detections = {d.knob: d.detected for d in detect_vsbs(VENDOR_A, VENDOR_B)}
        for knob in VSB_KNOBS:
            if knob in differing:
                assert detections[knob], f"{knob} should be detected"
