//! The process-wide live-status board behind `--serve-metrics` and
//! `--live-status`.
//!
//! Unlike the per-thread observer plans ([`crate::tracecap`],
//! [`crate::timeseries`], [`crate::watchdog`]), the board is global: the
//! HTTP serving thread ([`crate::serve`]) reads it while the simulation
//! thread writes it. While it is armed, every drive loop runs a publisher
//! observer that pushes a snapshot every 64 cycles; nothing flows back,
//! so arming it cannot perturb the schedule, and the determinism goldens
//! hold with the plane up. A disarmed board adds no observer to a run.

use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use wavesim_core::WaveNetwork;
use wavesim_sim::Cycle;

use crate::observer::{Outputs, RunObserver};
use crate::Drained;

/// Cycles between recomputations of the progress rate (and between
/// `--live-status` stderr lines).
const RATE_WINDOW: u64 = 8192;

/// The armed board; `None` while disarmed.
static BOARD: Mutex<Option<Board>> = Mutex::new(None);

/// A point-in-time view of the driving run, published every 64 cycles.
#[derive(Debug, Clone, Default)]
pub struct LiveStatus {
    /// Run identity: `protocol topology k w seed`.
    pub run: String,
    /// Simulated cycle of this snapshot.
    pub cycle: Cycle,
    /// Messages submitted so far.
    pub sent: u64,
    /// Messages delivered so far.
    pub delivered: u64,
    /// Messages accepted but not yet delivered.
    pub in_flight_msgs: u64,
    /// Flits currently in the wormhole fabric.
    pub in_flight_flits: u64,
    /// Circuit-cache hits so far.
    pub cache_hits: u64,
    /// Circuit-cache misses so far.
    pub cache_misses: u64,
    /// Post-fault establishment retries so far.
    pub establish_retries: u64,
    /// Routers currently doing work.
    pub active_routers: u64,
    /// Cycles since any flit last moved in the fabric.
    pub progress_age: u64,
    /// Per-shard wall-clock nanoseconds stepping the fabric.
    pub shard_wall_ns: Vec<u64>,
    /// Deliveries per kilocycle over the last `RATE_WINDOW`.
    pub progress_rate: f64,
    /// Simulated cycles per wall-clock second since the run started.
    pub cycles_per_sec: f64,
    /// True once the run finished.
    pub done: bool,
}

impl LiveStatus {
    /// Circuit-cache hit rate so far (0 when no lookups happened).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }

    /// Slowest shard's wall time over the mean (1.0 = balanced; 0 when
    /// unsharded or unmeasured).
    #[must_use]
    pub fn shard_imbalance(&self) -> f64 {
        let total: u64 = self.shard_wall_ns.iter().sum();
        if self.shard_wall_ns.len() < 2 || total == 0 {
            return 0.0;
        }
        let mean = total as f64 / self.shard_wall_ns.len() as f64;
        self.shard_wall_ns.iter().copied().max().unwrap_or(0) as f64 / mean
    }
}

struct Board {
    status: LiveStatus,
    /// Print a status line to stderr every `RATE_WINDOW` cycles.
    echo: bool,
    started: Instant,
    mark_cycle: Cycle,
    mark_delivered: u64,
    echoed_at: Cycle,
}

impl Board {
    /// A fresh board for the run named `run`.
    fn new(echo: bool, run: String) -> Self {
        Self {
            status: LiveStatus {
                run,
                ..LiveStatus::default()
            },
            echo,
            started: Instant::now(),
            mark_cycle: 0,
            mark_delivered: 0,
            echoed_at: 0,
        }
    }
}

fn board() -> MutexGuard<'static, Option<Board>> {
    BOARD.lock().expect("live board poisoned")
}

/// Arms the board process-wide. With `echo`, a one-line status is
/// printed to stderr every `RATE_WINDOW` cycles (the CLI's
/// `--live-status`).
pub fn arm(echo: bool) {
    *board() = Some(Board::new(echo, String::new()));
}

/// Disarms the board; [`snapshot`] returns `None` again.
pub fn disarm() {
    *board() = None;
}

/// The latest published status, if the board is armed.
#[must_use]
pub fn snapshot() -> Option<LiveStatus> {
    board().as_ref().map(|b| b.status.clone())
}

/// True while the board is armed.
pub(crate) fn armed() -> bool {
    board().is_some()
}

/// The observer that publishes a driving run to the board.
pub(crate) struct Publisher;

impl RunObserver for Publisher {
    /// Resets the board for the starting run.
    fn start(&mut self, net: &mut WaveNetwork) {
        let cfg = net.config();
        let (protocol, topology) = crate::metrics::run_labels(net);
        let run = format!(
            "{protocol} {topology} k={} w={} seed={}",
            cfg.k, cfg.wormhole.w, cfg.seed
        );
        if let Some(b) = board().as_mut() {
            *b = Board::new(b.echo, run);
        }
    }

    fn checkpoint(&mut self, now: Cycle, net: &mut WaveNetwork) -> bool {
        publish(now, net, false);
        false
    }

    /// Marks the run finished with a final snapshot.
    fn finish(self: Box<Self>, net: &mut WaveNetwork, outcome: Drained, _out: &mut Outputs) {
        publish(outcome.end, net, true);
    }
}

/// Publishes a snapshot of `net` at `now` (no-op once disarmed).
fn publish(now: Cycle, net: &WaveNetwork, done: bool) {
    let stats = net.stats();
    let health = net.health(now);
    let mut guard = board();
    let Some(b) = guard.as_mut() else {
        return;
    };
    let s = &mut b.status;
    s.cycle = now;
    s.sent = stats.msgs_sent;
    s.delivered = stats.msgs_circuit + stats.msgs_wormhole;
    s.in_flight_msgs = health.outstanding_msgs;
    s.in_flight_flits = health.in_flight_flits;
    s.cache_hits = stats.cache_hits;
    s.cache_misses = stats.cache_misses;
    s.establish_retries = stats.establish_retries;
    s.active_routers = health.active_routers;
    s.progress_age = health.progress_age;
    s.shard_wall_ns = health.shard_wall_ns;
    s.done = done;
    let delivered = s.delivered;
    if now >= b.mark_cycle + RATE_WINDOW {
        let dc = (now - b.mark_cycle) as f64;
        b.status.progress_rate = (delivered.saturating_sub(b.mark_delivered)) as f64 * 1000.0 / dc;
        b.mark_cycle = now;
        b.mark_delivered = delivered;
    }
    let elapsed = b.started.elapsed().as_secs_f64();
    if elapsed > 0.0 {
        b.status.cycles_per_sec = now as f64 / elapsed;
    }
    if b.echo && now >= b.echoed_at + RATE_WINDOW {
        b.echoed_at = now;
        let s = &b.status;
        eprintln!(
            "[wavesim live] cycle {:>9} | delivered {:>8}/{:<8} | in-flight {:>6} | \
             cache hit {:>5.1}% | {:>7.1} msgs/kcy | {:>9.0} cy/s",
            s.cycle,
            s.delivered,
            s.sent,
            s.in_flight_msgs,
            s.hit_rate() * 100.0,
            s.progress_rate,
            s.cycles_per_sec,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The board is process-global, so driving a run with it armed cannot
    // be exercised here without racing the other unit tests' runs; the
    // full arm-run-snapshot path is covered by the `live_plane`
    // integration suite, which owns its process.

    #[test]
    fn disarmed_board_is_silent_and_status_math_holds() {
        assert!(snapshot().is_none());
        let s = LiveStatus {
            cache_hits: 3,
            cache_misses: 1,
            shard_wall_ns: vec![100, 300],
            ..LiveStatus::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert!((s.shard_imbalance() - 1.5).abs() < 1e-12);
        assert_eq!(LiveStatus::default().hit_rate(), 0.0);
        assert_eq!(LiveStatus::default().shard_imbalance(), 0.0);
    }
}
