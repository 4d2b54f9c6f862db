//! Prometheus-style metrics exposition for a finished run.
//!
//! Bridges the simulator's own counters ([`wavesim_core::WaveStats`], the
//! engine's [`wavesim_sim::CycleKernelStats`], the [`RunResult`] headline
//! numbers) and the flight recorder's delivery records into one text page
//! in the Prometheus exposition format, built on
//! [`wavesim_trace::metrics::MetricsPage`].

use wavesim_core::WaveNetwork;
use wavesim_sim::stats::Histogram;
use wavesim_trace::metrics::MetricsPage;
use wavesim_trace::{TraceEvent, TraceRecord};

use crate::RunResult;

/// The run's protocol and topology labels, e.g. `("clrp", "mesh-4x4")`.
pub(crate) fn run_labels(net: &WaveNetwork) -> (String, String) {
    let topo = net.topology();
    let kind = match topo.kind() {
        wavesim_topology::TopologyKind::Mesh => "mesh",
        wavesim_topology::TopologyKind::Torus => "torus",
    };
    let radices: Vec<String> = (0..topo.ndims())
        .map(|d| topo.radix(d).to_string())
        .collect();
    (
        format!("{:?}", net.config().protocol).to_lowercase(),
        format!("{kind}-{}", radices.join("x")),
    )
}

/// Renders a metrics page for a finished run. `records` (the flight
/// recorder's surviving tail, possibly empty) feeds the latency histogram;
/// everything else comes from the network and the run result.
#[must_use]
pub fn metrics_snapshot(net: &WaveNetwork, r: &RunResult, records: &[TraceRecord]) -> String {
    let w = &r.wave;
    let k = net.kernel_stats();
    let mut lat = Histogram::new();
    for rec in records {
        match rec.ev {
            TraceEvent::WormholeDeliver { latency, .. }
            | TraceEvent::CircuitDeliver { latency, .. } => lat.record(latency),
            _ => {}
        }
    }
    let cfg = net.config();
    let (protocol, topology) = run_labels(net);
    let mut page = MetricsPage::new();
    // Self-describing header: a scrape from this page is meaningless
    // without knowing which run produced it.
    page.comment(&format!(
        "run: protocol={protocol} topology={topology} k={} w={} seed={} cycles={}",
        cfg.k, cfg.wormhole.w, cfg.seed, r.end
    ));
    page.gauge_labeled(
        "wavesim_run_info",
        "Run identity (always 1; the labels carry the configuration)",
        &[
            ("protocol", protocol),
            ("topology", topology),
            ("k", cfg.k.to_string()),
            ("w", cfg.wormhole.w.to_string()),
            ("seed", cfg.seed.to_string()),
            ("cycles", r.end.to_string()),
        ],
        1.0,
    );
    // Run outcome.
    page.counter(
        "wavesim_msgs_sent",
        "Messages generated by the workload",
        r.sent,
    );
    page.counter(
        "wavesim_msgs_delivered",
        "Messages delivered before the run ended",
        r.delivered,
    );
    page.gauge_f64(
        "wavesim_run_end_cycle",
        "Cycle at which the run ended",
        r.end as f64,
    );
    page.gauge_f64(
        "wavesim_avg_latency_cycles",
        "Mean end-to-end latency over measured messages",
        r.avg_latency,
    );
    page.gauge_f64(
        "wavesim_p99_latency_cycles",
        "99th-percentile latency bound over measured messages",
        r.p99_latency as f64,
    );
    page.gauge_f64(
        "wavesim_throughput_flits_per_node_cycle",
        "Accepted throughput over the measurement window",
        r.throughput,
    );
    page.gauge_f64(
        "wavesim_circuit_fraction",
        "Fraction of measured messages delivered over circuits",
        r.circuit_fraction,
    );
    page.gauge_f64(
        "wavesim_stalled",
        "1 when the deadlock monitor tripped, else 0",
        f64::from(u8::from(r.stalled)),
    );
    // Protocol counters.
    page.counter(
        "wavesim_msgs_circuit",
        "Messages delivered over circuits",
        w.msgs_circuit,
    );
    page.counter(
        "wavesim_msgs_wormhole",
        "Messages delivered by wormhole",
        w.msgs_wormhole,
    );
    page.counter("wavesim_cache_hits", "Circuit cache hits", w.cache_hits);
    page.counter(
        "wavesim_cache_misses",
        "Circuit cache misses",
        w.cache_misses,
    );
    page.counter(
        "wavesim_cache_evictions",
        "Circuit cache evictions",
        w.cache_evictions,
    );
    page.counter(
        "wavesim_probes_sent",
        "Setup probes launched",
        w.probes_sent,
    );
    page.counter("wavesim_probe_hops", "Setup probe hops", w.probe_hops);
    page.counter(
        "wavesim_probe_backtracks",
        "Setup probe backtracks",
        w.probe_backtracks,
    );
    page.counter(
        "wavesim_probe_misroutes",
        "Setup probe misrouted hops",
        w.probe_misroutes,
    );
    page.counter(
        "wavesim_probes_reached",
        "Probes that reached their destination",
        w.probes_reached,
    );
    page.counter(
        "wavesim_probes_exhausted",
        "Probes that exhausted their search",
        w.probes_exhausted,
    );
    page.counter(
        "wavesim_probe_fault_encounters",
        "Probe encounters with faulty lanes",
        w.probe_fault_encounters,
    );
    page.counter(
        "wavesim_lane_faults",
        "Lanes marked faulty (static plus dynamic)",
        w.lane_faults,
    );
    page.counter(
        "wavesim_lane_repairs",
        "Faulty lanes returned to service",
        w.lane_repairs,
    );
    page.counter(
        "wavesim_circuits_broken",
        "Circuits destroyed by dynamic faults",
        w.circuits_broken,
    );
    page.counter(
        "wavesim_establish_retries",
        "Post-fault re-establishment attempts",
        w.establish_retries,
    );
    page.counter(
        "wavesim_setups_ok",
        "Circuit setups that succeeded",
        w.setups_ok,
    );
    page.counter(
        "wavesim_setups_failed",
        "Circuit setups that failed",
        w.setups_failed,
    );
    page.counter(
        "wavesim_forced_local_releases",
        "Forced circuit releases at the caching node",
        w.forced_local_releases,
    );
    page.counter(
        "wavesim_forced_remote_releases",
        "Forced circuit releases requested remotely",
        w.forced_remote_releases,
    );
    page.counter(
        "wavesim_release_requests_discarded",
        "Release requests dropped as stale",
        w.release_requests_discarded,
    );
    page.counter(
        "wavesim_teardowns",
        "Explicit circuit teardowns",
        w.teardowns,
    );
    page.counter(
        "wavesim_wormhole_fallbacks",
        "Messages that fell back to wormhole after a failed setup",
        w.wormhole_fallbacks,
    );
    page.counter(
        "wavesim_buffer_reallocs",
        "Edge-buffer reallocations in the wave routers",
        w.buffer_reallocs,
    );
    // Cycle-kernel work counters.
    page.counter("wavesim_kernel_ticks", "Network ticks executed", k.ticks);
    page.counter(
        "wavesim_kernel_routers_scanned",
        "Router scans performed",
        k.routers_scanned,
    );
    page.counter(
        "wavesim_kernel_vcs_touched",
        "Virtual channels touched",
        k.vcs_touched,
    );
    page.counter(
        "wavesim_kernel_events_routed",
        "Inter-plane events routed",
        k.events_routed,
    );
    // Latency distribution from the flight recorder's surviving tail.
    page.histogram(
        "wavesim_traced_latency_cycles",
        "End-to-end latency of deliveries surviving in the flight recorder",
        &lat,
    );
    page.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_open_loop, tracecap, RunSpec};
    use wavesim_core::WaveConfig;
    use wavesim_topology::Topology;
    use wavesim_workloads::{LengthDist, TrafficConfig, TrafficSource};

    #[test]
    fn snapshot_covers_counters_and_latency_histogram() {
        let mut net = WaveNetwork::new(Topology::mesh(&[4, 4]), WaveConfig::default());
        let mut src = TrafficSource::new(
            net.topology().clone(),
            TrafficConfig {
                load: 0.1,
                len: LengthDist::Fixed(32),
                ..TrafficConfig::default()
            },
        );
        tracecap::arm_flight_recorder(1 << 16);
        let r = run_open_loop(&mut net, &mut src, RunSpec::standard(200, 1_000));
        tracecap::disarm_flight_recorder();
        let traces = tracecap::take_captured();
        let page = metrics_snapshot(&net, &r, &traces[0].records);
        assert!(page.starts_with("# run: protocol=clrp topology=mesh-4x4 k="));
        assert!(page.contains("wavesim_run_info{protocol=\"clrp\",topology=\"mesh-4x4\""));
        assert!(page.contains("# TYPE wavesim_msgs_sent counter"));
        assert!(page.contains(&format!("wavesim_msgs_sent {}", r.sent)));
        assert!(page.contains("# TYPE wavesim_traced_latency_cycles histogram"));
        assert!(page.contains(&format!(
            "wavesim_traced_latency_cycles_count {}",
            r.delivered
        )));
        assert!(page.contains("wavesim_kernel_ticks"));
        assert!(page.ends_with('\n'));
    }
}
