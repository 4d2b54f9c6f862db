//! Windowed time-series sampling: the sampler observer of the
//! measurement loops.
//!
//! A caller [`arm_sampler`]s the thread; every subsequent [`crate::drive`]
//! call then feeds a [`WindowSeries`] — one observation per simulated
//! cycle (active routers, cache hit/miss deltas) plus every delivery — and
//! the finished rows are retrieved with [`take_series`]. Sampling only
//! reads the run, so the schedule and `RunResult` are untouched. With
//! `progress` set, a one-line status is printed to stderr as each window
//! closes (the CLI's `--progress`).

use wavesim_core::WaveNetwork;
use wavesim_sim::stats::Histogram;
use wavesim_sim::Cycle;
use wavesim_trace::timeseries::{WindowRow, WindowSeries};

use crate::observer::{Outputs, RunObserver, OUTPUTS, PLAN};
use crate::Drained;

/// How a thread samples its runs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SamplerPlan {
    window: u64,
    progress: bool,
}

/// A finished run's time series.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledSeries {
    /// Closed windows, oldest first.
    pub rows: Vec<WindowRow>,
    /// Node count of the sampled network (throughput normalization).
    pub nodes: u64,
    /// Window width in cycles.
    pub window: u64,
}

/// Arms the current thread: every subsequent [`crate::drive`] call samples
/// a time series with `window`-cycle windows, retrievable via
/// [`take_series`]. With `progress`, each closed window prints a one-line
/// status to stderr.
///
/// # Panics
/// Panics if `window` is zero.
pub fn arm_sampler(window: u64, progress: bool) {
    assert!(window > 0, "sampling window must be positive");
    PLAN.with_borrow_mut(|p| p.sampler = Some(SamplerPlan { window, progress }));
}

/// Disarms the current thread; finished series stay retrievable.
pub fn disarm_sampler() {
    PLAN.with_borrow_mut(|p| p.sampler = None);
}

/// Takes the series sampled on this thread so far and returns the last
/// run's, if any.
#[must_use]
pub fn take_series() -> Option<SampledSeries> {
    OUTPUTS
        .with_borrow_mut(|o| std::mem::take(&mut o.series))
        .pop()
}

/// The sampler observer of one run.
pub(crate) struct Sampler {
    progress: bool,
    series: WindowSeries,
    last_hits: u64,
    last_misses: u64,
    cumulative: Histogram,
    cum_delivered: u64,
    printed: usize,
}

impl Sampler {
    pub(crate) fn new(plan: SamplerPlan, net: &WaveNetwork) -> Self {
        Self {
            progress: plan.progress,
            series: WindowSeries::new(plan.window, u64::from(net.topology().num_nodes())),
            last_hits: 0,
            last_misses: 0,
            cumulative: Histogram::new(),
            cum_delivered: 0,
            printed: 0,
        }
    }
}

impl RunObserver for Sampler {
    /// Peeks this cycle's deliveries and counters before the driver
    /// drains them.
    fn cycle(&mut self, now: Cycle, net: &WaveNetwork) {
        for d in net.pending_deliveries() {
            self.series
                .record_delivery(d.delivered_at, d.latency(), u64::from(d.msg.len_flits));
            self.cumulative.record(d.latency());
            self.cum_delivered += 1;
        }
        let stats = net.stats();
        let hits_delta = stats.cache_hits.saturating_sub(self.last_hits);
        let misses_delta = stats.cache_misses.saturating_sub(self.last_misses);
        self.last_hits = stats.cache_hits;
        self.last_misses = stats.cache_misses;
        self.series
            .observe(now, net.active_routers(), hits_delta, misses_delta);
        while self.progress && self.printed < self.series.rows().len() {
            let row = &self.series.rows()[self.printed];
            self.printed += 1;
            eprintln!(
                "[wavesim] cycle {:>9} | delivered {:>8} | p99 {:>8.1} | cache hit {:>5.1}%",
                row.end,
                self.cum_delivered,
                self.cumulative.p99().unwrap_or(0.0),
                row.hit_rate() * 100.0,
            );
        }
    }

    /// Closes the series at the run's end cycle.
    fn finish(self: Box<Self>, _net: &mut WaveNetwork, outcome: Drained, out: &mut Outputs) {
        out.series.push(SampledSeries {
            nodes: self.series.nodes(),
            window: self.series.window(),
            rows: self.series.finish(outcome.end),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_open_loop, RunSpec};
    use wavesim_core::{WaveConfig, WaveNetwork};
    use wavesim_topology::Topology;
    use wavesim_workloads::{LengthDist, TrafficConfig, TrafficSource};

    fn run(sampled: bool) -> (crate::RunResult, Option<SampledSeries>) {
        let mut net = WaveNetwork::new(Topology::mesh(&[4, 4]), WaveConfig::default());
        let mut src = TrafficSource::new(
            net.topology().clone(),
            TrafficConfig {
                load: 0.1,
                len: LengthDist::Fixed(32),
                ..TrafficConfig::default()
            },
        );
        if sampled {
            arm_sampler(200, false);
        }
        let r = run_open_loop(&mut net, &mut src, RunSpec::standard(200, 1_000));
        if sampled {
            disarm_sampler();
        }
        (r, take_series())
    }

    #[test]
    fn sampled_run_produces_consistent_series() {
        let (r, series) = run(true);
        assert!(r.clean(), "{r:?}");
        let series = series.expect("sampled");
        assert_eq!(series.nodes, 16);
        assert_eq!(series.window, 200);
        assert!(!series.rows.is_empty());
        // Every delivery of the run lands in exactly one window.
        let total: u64 = series.rows.iter().map(|w| w.delivered).sum();
        assert_eq!(total, r.delivered);
        // Windows tile the run without gaps.
        for pair in series.rows.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        assert!(series.rows.iter().any(|w| w.active_routers > 0));
        assert!(series
            .rows
            .iter()
            .any(|w| w.cache_hits + w.cache_misses > 0));
    }

    #[test]
    fn sampling_does_not_change_the_schedule() {
        let baseline = format!("{:?}", run(false).0);
        let sampled = format!("{:?}", run(true).0);
        assert_eq!(baseline, sampled);
    }

    #[test]
    fn unarmed_thread_samples_nothing() {
        let (_, series) = run(false);
        assert!(series.is_none());
    }
}
