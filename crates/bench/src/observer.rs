//! The one observation path of the measurement loops.
//!
//! Capture ([`crate::tracecap`]), the window sampler
//! ([`crate::timeseries`]), the watchdog ([`crate::watchdog`]) and the
//! live-status board ([`crate::livestate`]) are [`RunObserver`]s. They
//! report beside a run's result, never inside it: the golden suite pins
//! `RunResult`'s `Debug` output and the schedule.
//!
//! Each module's `arm_*` functions edit this thread's [`Plan`] (the board
//! is process-wide: the HTTP thread reads it). Every [`crate::drive`]
//! builds the armed list from the plan, starts it in list order, calls the
//! per-cycle and 64-cycle hooks, finishes it in reverse order and files the
//! reports in this thread's [`Outputs`], which the `take_*` functions
//! drain. [`crate::ParallelSweep`] installs the plan in every worker and
//! appends each point's outputs to the caller's in point order.

use std::cell::RefCell;

use wavesim_core::WaveNetwork;
use wavesim_sim::Cycle;

use crate::livestate;
use crate::timeseries::{SampledSeries, Sampler, SamplerPlan};
use crate::tracecap::{CapturePlan, ExtraFactory, RunTrace};
use crate::watchdog::{Watchdog, WatchdogConfig, WatchdogReport};
use crate::Drained;

thread_local! {
    /// What runs on this thread are observed with.
    pub(crate) static PLAN: RefCell<Plan> = RefCell::new(Plan::default());
    /// What observed runs on this thread reported, in run order.
    pub(crate) static OUTPUTS: RefCell<Outputs> = RefCell::new(Outputs::default());
}

/// One observer of a [`crate::drive`] run. Hooks only read the run,
/// except that a 64-cycle checkpoint may end it.
pub(crate) trait RunObserver {
    /// Run start, before cycle 0 (called in list order).
    fn start(&mut self, _net: &mut WaveNetwork) {}

    /// After every `tick`, before the driver drains the cycle's
    /// deliveries.
    fn cycle(&mut self, _now: Cycle, _net: &WaveNetwork) {}

    /// The drive loop's 64-cycle monitor point. Returns `true` to end the
    /// run as a stall.
    fn checkpoint(&mut self, _now: Cycle, _net: &mut WaveNetwork) -> bool {
        false
    }

    /// Run end (called in reverse list order); files the run's reports
    /// into `out`.
    fn finish(self: Box<Self>, net: &mut WaveNetwork, outcome: Drained, out: &mut Outputs);
}

/// The observers armed on one thread.
#[derive(Default)]
pub(crate) struct Plan {
    pub(crate) capture: CapturePlan,
    /// Feeds one consumer on the arming thread, so workers go without.
    pub(crate) extra: Option<ExtraFactory>,
    pub(crate) sampler: Option<SamplerPlan>,
    pub(crate) watchdog: Option<WatchdogConfig>,
}

/// What observed runs reported, each list in run order.
#[derive(Default)]
pub(crate) struct Outputs {
    pub(crate) traces: Vec<RunTrace>,
    pub(crate) series: Vec<SampledSeries>,
    pub(crate) reports: Vec<WatchdogReport>,
}

impl Plan {
    /// This thread's plan as a sweep worker runs it.
    pub(crate) fn for_worker() -> Plan {
        PLAN.with_borrow(|p| Plan {
            capture: p.capture.clone(),
            extra: None,
            sampler: p.sampler,
            watchdog: p.watchdog.clone(),
        })
    }
}

impl Outputs {
    /// Appends `self` to this thread's outputs.
    pub(crate) fn publish(mut self) {
        OUTPUTS.with_borrow_mut(|o| {
            o.traces.append(&mut self.traces);
            o.series.append(&mut self.series);
            o.reports.append(&mut self.reports);
        });
    }
}

/// The armed observers of one run, in start order.
pub(crate) struct Observers(Vec<Box<dyn RunObserver>>);

impl Observers {
    /// Builds the list this thread's plan arms (plus the live board, when
    /// it is armed) and starts it on `net`.
    pub(crate) fn start(net: &mut WaveNetwork) -> Self {
        let mut list: Vec<Box<dyn RunObserver>> = PLAN.with_borrow_mut(|p| {
            [
                p.capture.observer(p.extra.as_mut()),
                p.sampler.map(|plan| Box::new(Sampler::new(plan, net)) as _),
                p.watchdog
                    .clone()
                    .map(|cfg| Box::new(Watchdog::new(cfg)) as _),
                livestate::armed().then(|| Box::new(livestate::Publisher) as _),
            ]
            .into_iter()
            .flatten()
            .collect()
        });
        for o in &mut list {
            o.start(net);
        }
        Self(list)
    }

    /// The per-cycle hooks.
    pub(crate) fn cycle(&mut self, now: Cycle, net: &WaveNetwork) {
        for o in &mut self.0 {
            o.cycle(now, net);
        }
    }

    /// The 64-cycle hooks, every one of them; `true` when any asks to end
    /// the run.
    pub(crate) fn checkpoint(&mut self, now: Cycle, net: &mut WaveNetwork) -> bool {
        let mut abort = false;
        for o in &mut self.0 {
            abort |= o.checkpoint(now, net);
        }
        abort
    }

    /// Finishes every observer in reverse start order and files their
    /// reports into this thread's outputs.
    pub(crate) fn finish(self, net: &mut WaveNetwork, outcome: Drained) {
        OUTPUTS.with_borrow_mut(|out| {
            for o in self.0.into_iter().rev() {
                o.finish(net, outcome, out);
            }
        });
    }
}
