//! Progress-SLO watchdogs: the watchdog observer of the measurement loops.
//!
//! Like [`crate::tracecap`] and [`crate::timeseries`], the watchdog is
//! armed per thread and observes at the drive loop's existing 64-cycle
//! monitor point, so an unarmed run pays nothing and an armed run's
//! schedule is untouched (the watchdog only reads, annotates the trace,
//! and — when configured — ends the run).
//!
//! Four rules, each optional:
//!
//! 1. **Stall** — no message delivered for `stall_cycles` cycles.
//! 2. **Retry storm** — more than `retry_limit` post-fault establishment
//!    retries inside one [`RETRY_WINDOW`]-cycle window.
//! 3. **Shard imbalance** — the slowest shard's wall-clock share exceeds
//!    `imbalance` times the mean (only meaningful with `--shards > 1`;
//!    wall time is nondeterministic, so this rule never arms by default).
//! 4. **Wait cycle** — the wormhole fabric has made no progress for
//!    [`DEADLOCK_AGE`] cycles *and* [`find_wait_cycle`] finds a circular
//!    wait in its wait-for graph.
//!
//! A trip stamps a [`TraceEvent::WatchdogTrip`] into the trace stream (if
//! one is armed), flushes a flight-recorder post-mortem bundle to the
//! configured path, and — with `abort` set — ends the run as a stall so
//! `RunResult::clean()` is false and the CLI exits nonzero.

use std::path::PathBuf;

use wavesim_core::WaveNetwork;
use wavesim_sim::Cycle;
use wavesim_trace::TraceEvent;
use wavesim_verify::deadlock::find_wait_cycle;

use crate::observer::{Outputs, RunObserver, OUTPUTS, PLAN};
use crate::Drained;

/// Window over which rule 2 counts establishment retries.
pub const RETRY_WINDOW: u64 = 4096;

/// Fabric no-progress age (cycles) that triggers rule 4's wait-cycle
/// search. Kept well under the drive loop's stall threshold so the
/// watchdog diagnoses a deadlock before the run gives up.
pub const DEADLOCK_AGE: u64 = 2048;

/// Which progress-SLO rules to arm, and what to do on a trip.
#[derive(Debug, Clone, Default)]
pub struct WatchdogConfig {
    /// Rule 1: trip when no message is delivered for this many cycles.
    pub stall_cycles: Option<u64>,
    /// Rule 2: trip when more than this many establishment retries land
    /// inside one [`RETRY_WINDOW`].
    pub retry_limit: Option<u64>,
    /// Rule 3: trip when the slowest shard's wall time exceeds this
    /// multiple of the mean (e.g. `2.0` = one shard doing double work).
    pub imbalance: Option<f64>,
    /// Rule 4: search the fabric's wait-for graph for a circular wait
    /// once progress stops for [`DEADLOCK_AGE`] cycles.
    pub deadlock: bool,
    /// End the run on any trip (reported as a stall, so the run is not
    /// `clean` and the CLI exits nonzero).
    pub abort: bool,
    /// Flush a flight-recorder post-mortem bundle here on any trip.
    pub post_mortem: Option<PathBuf>,
}

impl WatchdogConfig {
    /// True when at least one rule is armed.
    #[must_use]
    pub fn any(&self) -> bool {
        self.stall_cycles.is_some()
            || self.retry_limit.is_some()
            || self.imbalance.is_some()
            || self.deadlock
    }
}

/// One rule firing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trip {
    /// Rule number (1 = stall, 2 = retry storm, 3 = imbalance, 4 = wait
    /// cycle), matching [`TraceEvent::WatchdogTrip`].
    pub rule: u8,
    /// Cycle at which the rule fired.
    pub at: Cycle,
    /// Observed value (stall age, retry count, imbalance percent, wait
    /// cycle length).
    pub value: u64,
    /// The configured limit the value crossed.
    pub limit: u64,
}

/// One run's watchdog outcome.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WatchdogReport {
    /// Every rule firing, in trip order.
    pub trips: Vec<Trip>,
    /// True when a trip ended the run.
    pub aborted: bool,
    /// Where the post-mortem bundle was written, if any trip flushed one.
    pub post_mortem: Option<PathBuf>,
}

/// The watchdog observer of one run.
#[derive(Default)]
pub(crate) struct Watchdog {
    cfg: WatchdogConfig,
    last_delivered: u64,
    last_delivered_at: Cycle,
    stall_tripped: bool,
    retry_mark: u64,
    retry_mark_at: Cycle,
    imbalance_tripped: bool,
    deadlock_tripped: bool,
    report: WatchdogReport,
}

/// Arms the current thread: every subsequent [`crate::drive`] call is
/// watched under `cfg`, and a [`WatchdogReport`] per run is retrievable
/// via [`take_reports`].
pub fn arm(cfg: WatchdogConfig) {
    PLAN.with_borrow_mut(|p| p.watchdog = Some(cfg));
}

/// Disarms the current thread; finished reports stay retrievable.
pub fn disarm() {
    PLAN.with_borrow_mut(|p| p.watchdog = None);
}

/// Takes (and clears) the reports of runs watched on this thread.
#[must_use]
pub fn take_reports() -> Vec<WatchdogReport> {
    OUTPUTS.with_borrow_mut(|o| std::mem::take(&mut o.reports))
}

impl Watchdog {
    pub(crate) fn new(cfg: WatchdogConfig) -> Self {
        Self {
            cfg,
            ..Self::default()
        }
    }

    fn trip(&mut self, net: &mut WaveNetwork, now: Cycle, rule: u8, value: u64, limit: u64) {
        net.trace_note(now, TraceEvent::WatchdogTrip { rule, value, limit });
        self.report.trips.push(Trip {
            rule,
            at: now,
            value,
            limit,
        });
        if let Some(path) = self.cfg.post_mortem.clone() {
            self.flush_post_mortem(net, now, &path);
        }
        if self.cfg.abort {
            self.report.aborted = true;
        }
    }

    /// Writes the flight-recorder tail plus the fabric's wait-for graph to
    /// `path` (overwriting — the last trip's view wins). Failures are
    /// reported on stderr, never propagated: a watchdog must not take down
    /// the run it watches.
    fn flush_post_mortem(&mut self, net: &mut WaveNetwork, now: Cycle, path: &std::path::Path) {
        let (records, dropped, total) = match net.trace_sink() {
            Some(sink) => (sink.snapshot(), sink.dropped(), sink.total()),
            None => (Vec::new(), 0, 0),
        };
        let bundle = crate::tracecap::post_mortem(net, &records, dropped, total, now);
        match std::fs::write(path, bundle.pretty()) {
            Ok(()) => self.report.post_mortem = Some(path.to_path_buf()),
            Err(e) => eprintln!(
                "note: watchdog post-mortem write failed for {}: {e}",
                path.display()
            ),
        }
    }
}

impl RunObserver for Watchdog {
    /// Evaluates the armed rules; `true` when a trip (with `abort` set)
    /// should end the run.
    fn checkpoint(&mut self, now: Cycle, net: &mut WaveNetwork) -> bool {
        let stats = net.stats();
        let delivered = stats.msgs_circuit + stats.msgs_wormhole;
        if delivered > self.last_delivered {
            self.last_delivered = delivered;
            self.last_delivered_at = now;
            self.stall_tripped = false;
            self.deadlock_tripped = false;
        } else if let Some(limit) = self.cfg.stall_cycles {
            let age = now - self.last_delivered_at;
            if age >= limit && !self.stall_tripped {
                self.stall_tripped = true;
                self.trip(net, now, 1, age, limit);
            }
        }
        if let Some(limit) = self.cfg.retry_limit {
            if now - self.retry_mark_at >= RETRY_WINDOW {
                let burst = stats.establish_retries - self.retry_mark;
                self.retry_mark = stats.establish_retries;
                self.retry_mark_at = now;
                if burst > limit {
                    self.trip(net, now, 2, burst, limit);
                }
            }
        }
        if let Some(ratio) = self.cfg.imbalance {
            if !self.imbalance_tripped {
                let walls = net.fabric().shard_wall_ns();
                let total: u64 = walls.iter().sum();
                // Sub-millisecond totals are all noise; wait for signal.
                if walls.len() > 1 && total >= 1_000_000 {
                    let mean = total as f64 / walls.len() as f64;
                    let max = walls.iter().copied().max().unwrap_or(0) as f64;
                    if max > ratio * mean {
                        self.imbalance_tripped = true;
                        let pct = (max / mean * 100.0) as u64;
                        self.trip(net, now, 3, pct, (ratio * 100.0) as u64);
                    }
                }
            }
        }
        if self.cfg.deadlock && !self.deadlock_tripped {
            let fabric = net.fabric();
            if fabric.progress_age(now) >= DEADLOCK_AGE && fabric.in_flight_flits() > 0 {
                let edges = fabric.wait_edges();
                if let Some(cycle) = find_wait_cycle(&edges) {
                    self.deadlock_tripped = true;
                    self.trip(net, now, 4, cycle.len() as u64, 0);
                }
            }
        }
        self.report.aborted
    }

    fn finish(self: Box<Self>, _net: &mut WaveNetwork, _outcome: Drained, out: &mut Outputs) {
        out.reports.push(self.report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_scripted, RunSpec};
    use wavesim_core::{WaveConfig, WaveNetwork};
    use wavesim_network::Message;
    use wavesim_topology::{NodeId, Topology};

    /// One long corner-to-corner wormhole message: 512 flits deliver well
    /// past cycle 500, so a 16-cycle stall SLO must trip at the first
    /// 64-cycle observation, flush a post-mortem, and (with abort) end
    /// the run.
    fn one_long_message_run(cfg: WatchdogConfig) -> (crate::RunResult, WatchdogReport) {
        let mut net = WaveNetwork::new(
            Topology::mesh(&[4, 4]),
            WaveConfig {
                protocol: wavesim_core::ProtocolKind::WormholeOnly,
                ..WaveConfig::default()
            },
        );
        let script = [(0u64, Message::new(1, NodeId(0), NodeId(15), 512, 0))];
        arm(cfg);
        crate::tracecap::arm_flight_recorder(1 << 12);
        let r = run_scripted(&mut net, &script, RunSpec::standard(0, 100));
        disarm();
        crate::tracecap::disarm_flight_recorder();
        let mut reports = take_reports();
        assert_eq!(reports.len(), 1);
        (r, reports.pop().unwrap())
    }

    #[test]
    fn stall_rule_trips_and_aborts_with_post_mortem() {
        let path =
            std::env::temp_dir().join(format!("wavesim_watchdog_pm_{}.json", std::process::id()));
        let (r, report) = one_long_message_run(WatchdogConfig {
            stall_cycles: Some(16),
            abort: true,
            post_mortem: Some(path.clone()),
            ..WatchdogConfig::default()
        });
        assert!(report.aborted, "{report:?}");
        assert_eq!(report.trips[0].rule, 1);
        assert!(report.trips[0].value >= 16);
        assert!(r.stalled, "abort must surface as a stall");
        assert!(!r.clean());
        // The post-mortem bundle landed on disk and parses.
        let text = std::fs::read_to_string(&path).expect("post-mortem written");
        std::fs::remove_file(&path).ok();
        let doc = wavesim_json::Value::parse(&text).expect("valid JSON");
        assert_eq!(
            doc.get("kind").and_then(wavesim_json::Value::as_str),
            Some("wavesim-postmortem")
        );
        assert!(doc.get("stall_age").is_some(), "bundle carries stall age");
        assert!(
            doc.get("wait_for").is_some(),
            "bundle carries wait-for state"
        );
        // The trip is stamped into the captured trace stream.
        let traces = crate::tracecap::take_captured();
        assert!(traces[0]
            .records
            .iter()
            .any(|rec| rec.ev.kind() == "watchdog_trip"));
    }

    #[test]
    fn unarmed_and_untripped_runs_are_untouched() {
        // Unarmed: no report.
        let mut net = WaveNetwork::new(
            Topology::mesh(&[4, 4]),
            WaveConfig {
                protocol: wavesim_core::ProtocolKind::WormholeOnly,
                ..WaveConfig::default()
            },
        );
        let script = [(0u64, Message::new(1, NodeId(0), NodeId(15), 512, 0))];
        let baseline = run_scripted(&mut net, &script, RunSpec::standard(0, 100));
        assert!(take_reports().is_empty());
        // Armed with a generous SLO: no trips, and the run result is
        // byte-identical to the unwatched baseline.
        let (r, report) = one_long_message_run(WatchdogConfig {
            stall_cycles: Some(1_000_000),
            deadlock: true,
            abort: true,
            ..WatchdogConfig::default()
        });
        assert!(report.trips.is_empty(), "{report:?}");
        assert!(!report.aborted);
        assert!(r.clean(), "{r:?}");
        assert_eq!(format!("{baseline:?}"), format!("{r:?}"));
    }

    #[test]
    fn trip_without_abort_lets_the_run_finish() {
        let (r, report) = one_long_message_run(WatchdogConfig {
            stall_cycles: Some(16),
            ..WatchdogConfig::default()
        });
        assert!(!report.trips.is_empty());
        assert!(!report.aborted);
        assert!(r.clean(), "a non-aborting trip only annotates: {r:?}");
    }
}
