//! The traced open-loop run shared by the simulation workloads: `drive`
//! with a [`Driver`] that times every call it makes into the network and the
//! traffic source, then the network's own accessors for the rest.

use std::time::{Duration, Instant};

use wavesim_bench::{drive, Driver, RunResult, RunSpec};
use wavesim_core::{WaveNetwork, WaveStats};
use wavesim_network::Delivery;
use wavesim_sim::Cycle;
use wavesim_verify::check_probe_livelock;
use wavesim_workloads::TrafficSource;

use crate::{timed, Check, Layers};

/// An open-loop run driven through [`drive`] with timers around each call,
/// injecting exactly as `run_open_loop` does.
pub struct TimedRun<'a> {
    src: &'a mut TrafficSource,
    measure_end: Cycle,
    delivered: u64,
    buf: Vec<Delivery>,
    /// End of the latest timed span; the next gap starts here.
    mark: Instant,
    /// Cycle of the latest `collect`, while it is the latest callback.
    after_collect: Option<Cycle>,
    poll: Duration,
    send: Duration,
    collect: Duration,
    monitor: Duration,
    advance: Duration,
    observers: Duration,
    ticks_ns: Vec<u64>,
}

/// What a [`TimedRun`] measured and produced.
pub struct TimedOutcome {
    pub end: Cycle,
    pub sent: u64,
    pub delivered: u64,
    pub wave: WaveStats,
    pub clean: bool,
    pub wall: Duration,
    timers: [(&'static str, Duration); 7],
    ticks_ns: Vec<u64>,
}

impl Driver for TimedRun<'_> {
    fn inject(&mut self, now: Cycle, net: &mut WaveNetwork) -> bool {
        let t0 = Instant::now();
        // Whatever `drive` did since the previous callback: the 64-cycle
        // step (stall monitor, live-status and watchdog hooks), the
        // drain-phase fast-forward, or before the first cycle the
        // observers' installation.
        let gap = t0 - self.mark;
        match self.after_collect.take() {
            Some(c) if c % 64 == 0 => self.monitor += gap,
            Some(_) => self.advance += gap,
            None => self.observers += gap,
        }
        if now >= self.measure_end {
            self.mark = Instant::now();
            return false;
        }
        let msgs = self.src.poll(now);
        let t1 = Instant::now();
        for m in msgs {
            net.send(now, m);
        }
        let t2 = Instant::now();
        self.poll += t1 - t0;
        self.send += t2 - t1;
        self.mark = t2;
        true
    }

    fn collect(&mut self, now: Cycle, net: &mut WaveNetwork) {
        let t0 = Instant::now();
        // Between `inject` and `collect`, `drive` only ticks the network.
        self.ticks_ns.push((t0 - self.mark).as_nanos() as u64);
        net.drain_deliveries_into(&mut self.buf);
        self.delivered += self.buf.len() as u64;
        let t1 = Instant::now();
        self.collect += t1 - t0;
        self.mark = t1;
        self.after_collect = Some(now);
    }
}

impl TimedRun<'_> {
    pub fn run(net: &mut WaveNetwork, src: &mut TrafficSource, spec: RunSpec) -> TimedOutcome {
        let measure_end = spec.warmup + spec.measure;
        src.stop_at(measure_end);
        let start = Instant::now();
        let mut d = TimedRun {
            src,
            measure_end,
            delivered: 0,
            buf: Vec::new(),
            mark: start,
            after_collect: None,
            poll: Duration::ZERO,
            send: Duration::ZERO,
            collect: Duration::ZERO,
            monitor: Duration::ZERO,
            advance: Duration::ZERO,
            observers: Duration::ZERO,
            ticks_ns: Vec::new(),
        };
        let outcome = drive(
            net,
            measure_end + spec.drain_limit,
            spec.stall_threshold,
            &mut d,
        );
        d.observers += d.mark.elapsed();
        let (live, livelock) = timed(|| check_probe_livelock(net));
        let wall = start.elapsed();
        let sent = d.src.generated();
        TimedOutcome {
            end: outcome.end,
            sent,
            delivered: d.delivered,
            wave: net.stats(),
            clean: !net.busy()
                && !outcome.stalled
                && live.max_probe_steps <= live.bound
                && sent == d.delivered,
            wall,
            timers: [
                ("workloads.poll_s", d.poll),
                ("core.send_s", d.send),
                ("bench.collect_s", d.collect),
                ("verify.monitor_s", d.monitor),
                ("bench.advance_s", d.advance),
                ("bench.observers_s", d.observers),
                ("verify.livelock_s", livelock),
            ],
            ticks_ns: d.ticks_ns,
        }
    }
}

impl TimedOutcome {
    /// The traced run must reproduce the untraced one, or the timed loop
    /// has become a fork of `drive`.
    pub fn checks(&self, untraced: &RunResult, checks: &mut Vec<Check>) {
        let u = untraced;
        let same = self.end == u.end
            && self.sent == u.sent
            && self.delivered == u.delivered
            && format!("{:?}", self.wave) == format!("{:?}", u.wave);
        checks.push(Check::new(
            "traced_run_reproduces",
            same,
            format!(
                "traced end {} sent {} delivered {}; untraced end {} sent {} delivered {}",
                self.end, self.sent, self.delivered, u.end, u.sent, u.delivered
            ),
        ));
        checks.push(Check::new(
            "traced_run_clean",
            self.clean,
            "traced run drained clean",
        ));
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl TimedOutcome {
    /// The run's per-layer numbers: its own timers plus what the network's
    /// accessors report.
    pub fn layers(mut self, net: &WaveNetwork) -> Layers {
        let bands = net.fabric().shard_wall_ns();
        let band_ns: u64 = bands.iter().sum();
        let band_max_ns = bands.iter().copied().max().unwrap_or(0);
        let k = net.kernel_stats();
        let s = self.wave;
        let tick_s = self.ticks_ns.iter().sum::<u64>() as f64 / 1e9;
        self.ticks_ns.sort_unstable();
        let pct = |p: f64| {
            let n = self.ticks_ns.len();
            if n == 0 {
                0.0
            } else {
                self.ticks_ns[((n - 1) as f64 * p).round() as usize] as f64 / 1e3
            }
        };
        let mut layers: Layers = vec![
            ("network.band_s", band_ns as f64 / 1e9),
            ("network.band_max_s", band_max_ns as f64 / 1e9),
            (
                "network.band_imbalance",
                band_max_ns as f64 * bands.len() as f64 / band_ns.max(1) as f64,
            ),
            (
                "network.ns_per_router_scan",
                ratio(band_ns, k.routers_scanned),
            ),
            ("network.routers_scanned", k.routers_scanned as f64),
            ("network.vcs_touched", k.vcs_touched as f64),
            ("core.tick_s", tick_s),
            ("core.tick_p50_us", pct(0.5)),
            ("core.tick_p99_us", pct(0.99)),
            (
                "core.tick_outside_bands_s",
                tick_s - band_max_ns as f64 / 1e9,
            ),
            ("core.probes_sent", s.probes_sent as f64),
            (
                "core.probe_success_ratio",
                ratio(s.probes_reached, s.probes_sent),
            ),
            ("core.probe_backtracks", s.probe_backtracks as f64),
            ("core.probe_misroutes", s.probe_misroutes as f64),
            ("core.events_routed", k.events_routed as f64),
            (
                "core.cache_hit_ratio",
                ratio(s.cache_hits, s.cache_hits + s.cache_misses),
            ),
            (
                "core.circuit_fraction",
                ratio(s.msgs_circuit, s.msgs_circuit + s.msgs_wormhole),
            ),
            ("workloads.msgs", self.sent as f64),
        ];
        layers.extend(self.timers.iter().map(|&(n, d)| (n, d.as_secs_f64())));
        layers
    }
}
