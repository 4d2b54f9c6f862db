//! `wormhole_64`: the paper's comparison system, pure wormhole switching
//! (`ProtocolKind::WormholeOnly`), on a 64x64 torus at offered load 0.03,
//! where accepted throughput still equals offered. The data plane does all
//! the work; probe search and the circuit plane do none.
//!
//! The measured phase runs the serial kernel. A run's first sample, and
//! every traced one, then runs the same inputs with the fabric split into
//! two shards and checks that the two results are equal, so the workload
//! proves shard invariance at any seed. The traced run is the sharded one:
//! its per-layer numbers split the sharded tick into band work and what
//! lies outside the bands (band thread start, barrier, serial merge). The
//! sharded run's host time is a per-layer metric, not an end-to-end one: on
//! a machine whose second CPU is shared, its wall time swings with the time
//! stolen from that CPU.

use wavesim_bench::{run_open_loop, RunResult, RunSpec};
use wavesim_core::{ProtocolKind, WaveConfig, WaveNetwork};
use wavesim_sim::Cycle;
use wavesim_topology::Topology;
use wavesim_workloads::{LengthDist, TrafficConfig, TrafficPattern, TrafficSource};

use crate::timers::TimedRun;
use crate::{clean_check, fnv1a, measure, set_up, timed, Check, Opts, Sample, PINNED_SEED};

// Everything but the protocol and the load is the CLI's default:
// HotPairs(3 partners, locality 0.7), 64-flit messages.
const SIDE: u16 = 64;
const LOAD: f64 = 0.03;
/// Fabric shards of the invariance check and the traced run.
const SHARDS: usize = 2;
/// Measured cycles; warm-up is a fifth of that, as with the CLI's
/// `run --cycles`.
const MEASURE: Cycle = 750;
/// FNV-1a of the serial kernel's `RunResult` debug output at
/// [`PINNED_SEED`].
const PINNED_RESULT: u64 = 0xed75_736c_4913_9e36;

fn spec() -> RunSpec {
    RunSpec::standard(MEASURE / 5, MEASURE)
}

/// Builds the network and the traffic source: the workload's set-up.
fn build(seed: u64, shards: usize) -> (WaveNetwork, TrafficSource) {
    let topo = Topology::torus(&[SIDE, SIDE]);
    let cfg = WaveConfig {
        protocol: ProtocolKind::WormholeOnly,
        seed,
        ..WaveConfig::default()
    };
    let mut net = WaveNetwork::new(topo.clone(), cfg);
    net.set_shards(shards);
    let src = TrafficSource::new(
        topo,
        TrafficConfig {
            load: LOAD,
            pattern: TrafficPattern::HotPairs {
                partners: 3,
                locality: 0.7,
            },
            len: LengthDist::Fixed(64),
            seed,
            stop_at: u64::MAX,
        },
    );
    (net, src)
}

fn fingerprint(r: &RunResult) -> u64 {
    fnv1a(format!("{r:?}").as_bytes())
}

pub fn run(opts: &Opts) -> Sample {
    let ((mut net, mut src), setup_s) = set_up(|| build(opts.seed, 1));

    // The measured phase, with no layer timers.
    let (result, measured) = measure(|| run_open_loop(&mut net, &mut src, spec()));
    drop(net);

    let fp = fingerprint(&result);
    let mut checks = vec![clean_check(&result)];
    // The sharded rerun: on a run's first sample it proves shard invariance
    // at the run's seed; the traced run needs its wall time.
    let sharded_wall = (opts.full_check || opts.traced).then(|| {
        let (mut net, mut src) = build(opts.seed, SHARDS);
        let (sharded, d) = timed(|| run_open_loop(&mut net, &mut src, spec()));
        checks.push(Check::new(
            "shard_invariant",
            fingerprint(&sharded) == fp,
            format!(
                "{SHARDS} shards {:#018x}, serial kernel {fp:#018x}",
                fingerprint(&sharded)
            ),
        ));
        d
    });
    if opts.seed == PINNED_SEED {
        checks.push(Check::new(
            "result_fingerprint",
            fp == PINNED_RESULT,
            format!("{fp:#018x}, pinned {PINNED_RESULT:#018x}"),
        ));
    }

    let layers = opts.traced.then(|| {
        let sharded_wall = sharded_wall.expect("a traced sample reruns sharded");
        let (mut net, mut src) = build(opts.seed, SHARDS);
        let t = TimedRun::run(&mut net, &mut src, spec());
        t.checks(&result, &mut checks);
        let overhead = (t.wall.as_secs_f64() / sharded_wall.as_secs_f64() - 1.0) * 100.0;
        let mut layers = t.layers(&net);
        layers.extend([
            ("network.shard2_wall_s", sharded_wall.as_secs_f64()),
            (
                "network.shard2_speedup",
                measured.wall.as_secs_f64() / sharded_wall.as_secs_f64(),
            ),
            ("layer_timer_overhead_pct", overhead),
        ]);
        layers
    });
    // The stamp describes the run whose metrics are reported.
    let shards = if opts.traced { SHARDS } else { 1 };
    Sample {
        setup_s,
        measured,
        shards,
        // The fabric's bands run on one thread each.
        threads: shards,
        fingerprint: fp,
        checks,
        layers,
    }
}
