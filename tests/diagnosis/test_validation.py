"""Tests for accuracy validation and the Figure 9 root-cause workflow."""

from repro.diagnosis import AccuracyValidator, RootCauseAnalyzer
from repro.monitor import RouteMonitor, TrafficMonitor
from repro.monitor.route_monitor import LiveNetworkOracle
from repro.net.vendors import VENDOR_A, mismodel
from repro.routing.inputs import inject_external_route
from repro.routing.simulator import simulate_routes
from repro.traffic import TrafficSimulator, make_flow

from tests.helpers import build_model, full_mesh_ibgp

PFX = "203.0.113.0/24"


def fig9_model(sr_policy=True):
    """A learns PFX via iBGP from borders B and C at equal IGP cost."""
    model = build_model(
        routers=[("A", 100), ("B", 100), ("C", 100)],
        links=[("A", "B", 10), ("A", "C", 10)],
        vendor="vendor-a",
    )
    full_mesh_ibgp(model, ["A", "B", "C"])
    if sr_policy:
        model.device("A").add_sr_policy("TO-B", endpoint="B")
    return model


def fig9_inputs():
    return [
        inject_external_route("B", PFX, (65010,)),
        inject_external_route("C", PFX, (65010,)),
    ]


class TestRouteValidation:
    def test_accurate_simulation_reports_clean(self):
        model = fig9_model(sr_policy=False)
        truth = simulate_routes(model, fig9_inputs())
        monitored = RouteMonitor(model).collect(truth.device_ribs)
        report = AccuracyValidator(model).validate_routes(
            truth.device_ribs, monitored
        )
        assert report.accurate
        assert report.routes_compared > 0

    def test_missing_routes_detected(self):
        model = fig9_model(sr_policy=False)
        inputs = [
            inject_external_route("B", PFX, (65010,)),
            inject_external_route("C", "198.51.100.0/24", (65010,)),
        ]
        truth = simulate_routes(model, inputs)
        monitored = RouteMonitor(model).collect(truth.device_ribs)
        # Hoyan simulated with one input missing (a lost monitoring record).
        partial = simulate_routes(model, inputs[:1])
        report = AccuracyValidator(model).validate_routes(
            partial.device_ribs, monitored
        )
        kinds = {d.kind for d in report.route_discrepancies}
        assert "missing" in kinds

    def test_extra_routes_detected(self):
        model = fig9_model(sr_policy=False)
        inputs = [
            inject_external_route("B", PFX, (65010,)),
            inject_external_route("C", "198.51.100.0/24", (65010,)),
        ]
        truth = simulate_routes(model, inputs[:1])
        monitored = RouteMonitor(model).collect(truth.device_ribs)
        overfull = simulate_routes(model, inputs)
        report = AccuracyValidator(model).validate_routes(
            overfull.device_ribs, monitored
        )
        assert any(d.kind == "extra" for d in report.route_discrepancies)

    def test_attribute_mismatch_detected(self):
        model = fig9_model(sr_policy=False)
        truth = simulate_routes(model, fig9_inputs())
        monitored = RouteMonitor(model).collect(truth.device_ribs)
        skewed_inputs = [
            i if n else type(i)(i.router, i.vrf, i.route.evolve(med=99))
            for n, i in enumerate(fig9_inputs())
        ]
        wrong = simulate_routes(model, skewed_inputs)
        report = AccuracyValidator(model).validate_routes(
            wrong.device_ribs, monitored
        )
        assert any(
            d.kind == "attribute-mismatch" and "med" in d.detail
            for d in report.route_discrepancies
        )

    def test_agent_mode_hides_ecmp_but_live_oracle_reveals(self):
        """The §5.1 hybrid: the monitoring feed cannot see a wrong ECMP set,
        the live show command can."""
        # Ground truth: vendor A with the SR VSB -> single route at A.
        truth_model = fig9_model(sr_policy=True)
        truth = simulate_routes(truth_model, fig9_inputs())

        # Hoyan without the VSB modelled -> two ECMP routes at A.
        wrong_model = fig9_model(sr_policy=True)
        wrong_model.device("A").set_vendor_profile(
            mismodel(VENDOR_A, "sr_tunnel_zeroes_igp_cost")
        )
        simulated = simulate_routes(wrong_model, fig9_inputs())

        monitored = RouteMonitor(truth_model).collect(truth.device_ribs)
        validator = AccuracyValidator(truth_model)
        feed_report = validator.validate_routes(simulated.device_ribs, monitored)
        # Best route agrees (B either way) so the feed looks clean...
        assert not any(
            d.device == "A" and d.prefix == PFX
            for d in feed_report.route_discrepancies
        )
        # ...but the live oracle exposes the ECMP mismatch.
        oracle = LiveNetworkOracle(truth.device_ribs, allowed_prefixes=[PFX])
        live_report = validator.validate_against_live(
            simulated.device_ribs, oracle, [PFX]
        )
        assert any(
            d.kind == "ecmp-mismatch" and d.device == "A"
            for d in live_report.route_discrepancies
        )


class TestLoadValidation:
    def flows(self):
        return [
            make_flow("A", f"10.0.0.{i}", "203.0.113.5", src_port=i, volume=40e9)
            for i in range(8)
        ]

    def test_load_discrepancy_detected(self):
        truth_model = fig9_model(sr_policy=True)
        truth_routes = simulate_routes(truth_model, fig9_inputs())
        truth_traffic = TrafficSimulator(
            truth_model, truth_routes.device_ribs, truth_routes.igp
        ).simulate(self.flows())

        wrong_model = fig9_model(sr_policy=True)
        wrong_model.device("A").set_vendor_profile(
            mismodel(VENDOR_A, "sr_tunnel_zeroes_igp_cost")
        )
        wrong_routes = simulate_routes(wrong_model, fig9_inputs())
        simulated_traffic = TrafficSimulator(
            wrong_model, wrong_routes.device_ribs, wrong_routes.igp
        ).simulate(self.flows())

        observed = TrafficMonitor().collect_link_loads(truth_traffic)
        report = AccuracyValidator(truth_model).validate_loads(
            simulated_traffic.loads, observed
        )
        # Ground truth pins all volume on A-B; the mis-simulation splits it.
        assert report.link_discrepancies
        flagged = {d.link for d in report.link_discrepancies}
        assert ("A", "B") in flagged

    def test_accurate_loads_clean(self):
        model = fig9_model(sr_policy=False)
        routes = simulate_routes(model, fig9_inputs())
        traffic = TrafficSimulator(model, routes.device_ribs, routes.igp).simulate(
            self.flows()
        )
        observed = TrafficMonitor().collect_link_loads(traffic)
        report = AccuracyValidator(model).validate_loads(traffic.loads, observed)
        assert not report.link_discrepancies

    def test_threshold_respected(self):
        model = fig9_model(sr_policy=False)
        routes = simulate_routes(model, fig9_inputs())
        traffic = TrafficSimulator(model, routes.device_ribs, routes.igp).simulate(
            self.flows()
        )
        observed = TrafficMonitor(snmp_noise=0.01).collect_link_loads(traffic)
        # 1% noise on 100G links stays below the 10% threshold.
        report = AccuracyValidator(model).validate_loads(traffic.loads, observed)
        assert not report.link_discrepancies


class TestFigure9RootCause:
    """The full §5.2 case study, end to end."""

    def test_workflow_localizes_the_sr_vsb(self):
        truth_model = fig9_model(sr_policy=True)
        truth_routes = simulate_routes(truth_model, fig9_inputs())
        flows = [
            make_flow("A", f"10.0.0.{i}", "203.0.113.5", src_port=i, volume=40e9)
            for i in range(8)
        ]
        truth_traffic = TrafficSimulator(
            truth_model, truth_routes.device_ribs, truth_routes.igp
        ).simulate(flows)

        wrong_model = fig9_model(sr_policy=True)
        wrong_model.device("A").set_vendor_profile(
            mismodel(VENDOR_A, "sr_tunnel_zeroes_igp_cost")
        )
        wrong_routes = simulate_routes(wrong_model, fig9_inputs())
        wrong_traffic = TrafficSimulator(
            wrong_model, wrong_routes.device_ribs, wrong_routes.igp
        ).simulate(flows)

        # Step 1: accuracy validation flags link A-B (simulated load lower).
        observed = TrafficMonitor().collect_link_loads(truth_traffic)
        report = AccuracyValidator(truth_model).validate_loads(
            wrong_traffic.loads, observed
        )
        assert report.link_discrepancies

        # Steps 2-5: the analyzer localizes router A and hints at SR.
        analyzer = RootCauseAnalyzer(
            model=wrong_model,
            simulated_ribs=wrong_routes.device_ribs,
            real_model=truth_model,
            real_ribs=truth_routes.device_ribs,
            igp=wrong_routes.igp,
            real_igp=truth_routes.igp,
        )
        findings = analyzer.analyze(report, flows)
        assert findings
        finding = findings[0]
        assert finding.flow is not None
        assert finding.divergent_router == "A"
        assert "SR" in finding.explanation
        text = finding.report()
        assert "DIVERGES" in text

    def test_no_flow_on_link(self):
        model = fig9_model(sr_policy=False)
        routes = simulate_routes(model, fig9_inputs())
        analyzer = RootCauseAnalyzer(
            model=model,
            simulated_ribs=routes.device_ribs,
            real_model=model,
            real_ribs=routes.device_ribs,
            igp=routes.igp,
        )
        finding = analyzer.analyze_link(("B", "C"), [])
        assert finding.flow is None
        assert "no candidate flow" in finding.report()
