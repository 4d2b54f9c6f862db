//! Reproducibility: a simulation is a pure function of its configuration
//! and seed. EXPERIMENTS.md's numbers are only meaningful because of
//! this property, so it gets its own integration suite.

use wavesim::core::{ProtocolKind, WaveConfig, WaveNetwork};
use wavesim::topology::Topology;
use wavesim::workloads::{collectives, trace_io};
use wavesim::workloads::{
    CarpTrace, FaultSchedule, LengthDist, TrafficConfig, TrafficPattern, TrafficSource,
};
use wavesim_bench::experiments::{e11_loadsweep, e13_dsm, e14_dynamic_faults, e15_collectives};
use wavesim_bench::{
    apply_fault_schedule, run_carp_trace, run_dep_trace, run_open_loop, ParallelSweep, RunSpec,
    Scale,
};

fn full_run(seed: u64, protocol: ProtocolKind) -> Vec<(u64, u64)> {
    let topo = Topology::mesh(&[5, 5]);
    let mut net = WaveNetwork::new(
        topo.clone(),
        WaveConfig {
            protocol,
            cache_capacity: 3,
            ..WaveConfig::default()
        },
    );
    let mut src = TrafficSource::new(
        topo,
        TrafficConfig {
            load: 0.3,
            pattern: TrafficPattern::HotPairs {
                partners: 2,
                locality: 0.6,
            },
            len: LengthDist::Bimodal {
                short: 8,
                long: 96,
                frac_long: 0.3,
            },
            seed,
            stop_at: 4_000,
        },
    );
    // Collect the delivery schedule directly (ids + times).
    let mut out = Vec::new();
    let mut now = 0;
    loop {
        for m in src.poll(now) {
            net.send(now, m);
        }
        if now >= 4_000 && !net.busy() {
            break;
        }
        net.tick(now);
        for d in net.drain_deliveries() {
            out.push((d.msg.id.0, d.delivered_at));
        }
        now += 1;
        assert!(now < 1_000_000);
    }
    out
}

#[test]
fn identical_seeds_identical_schedules() {
    for protocol in [ProtocolKind::Clrp, ProtocolKind::WormholeOnly] {
        let a = full_run(7, protocol);
        let b = full_run(7, protocol);
        assert_eq!(a, b, "{protocol:?} replay diverged");
        assert!(!a.is_empty());
    }
}

#[test]
fn different_seeds_differ() {
    let a = full_run(7, ProtocolKind::Clrp);
    let b = full_run(8, ProtocolKind::Clrp);
    assert_ne!(a, b);
}

#[test]
fn runner_results_are_reproducible() {
    let go = || {
        let topo = Topology::mesh(&[4, 4]);
        let mut net = WaveNetwork::new(topo.clone(), WaveConfig::default());
        let mut src = TrafficSource::new(
            topo,
            TrafficConfig {
                load: 0.2,
                seed: 99,
                ..TrafficConfig::default()
            },
        );
        let r = run_open_loop(&mut net, &mut src, RunSpec::standard(500, 2_000));
        (
            r.sent,
            r.delivered,
            r.avg_latency.to_bits(),
            r.throughput.to_bits(),
            r.wave.probe_hops,
        )
    };
    assert_eq!(go(), go(), "runner must be bit-for-bit reproducible");
}

/// Golden trace for the parallel executor: an E11-style load sweep run
/// point-by-point in this test, through `ParallelSweep` with one job, and
/// through `ParallelSweep` with four jobs must produce bit-identical
/// `RunResult`s. Each point derives its whole world (network, source,
/// seed) from the point value, so thread scheduling cannot leak in.
#[test]
fn parallel_sweep_results_match_serial_golden_trace() {
    let loads = [0.05_f64, 0.2, 0.6];
    let point = |_: usize, &load: &f64| {
        let topo = Topology::mesh(&[4, 4]);
        let mut net = WaveNetwork::new(topo.clone(), WaveConfig::default());
        let mut src = TrafficSource::new(
            topo,
            TrafficConfig {
                load,
                pattern: TrafficPattern::HotPairs {
                    partners: 3,
                    locality: 0.7,
                },
                len: LengthDist::Fixed(64),
                seed: 131,
                ..TrafficConfig::default()
            },
        );
        let r = run_open_loop(&mut net, &mut src, RunSpec::standard(500, 2_000));
        // Debug output covers every field, including float bit patterns
        // rendered exactly, so string equality is bitwise equality.
        format!("{r:?}")
    };
    let golden: Vec<String> = loads.iter().enumerate().map(|(i, l)| point(i, l)).collect();
    assert_eq!(
        golden,
        ParallelSweep::new(1).run(&loads, point),
        "jobs=1 diverged from the serial golden trace"
    );
    assert_eq!(
        golden,
        ParallelSweep::new(4).run(&loads, point),
        "jobs=4 diverged from the serial golden trace"
    );
}

/// The full E11 table — the artifact EXPERIMENTS.md prints — is
/// byte-identical across job counts.
#[test]
fn e11_table_is_identical_across_job_counts() {
    let scale = Scale {
        side: 4,
        measure: 2_000,
        warmup: 500,
        sweep_points: 3,
    };
    let serial = e11_loadsweep::run(scale);
    let one = e11_loadsweep::run_with_jobs(scale, 1);
    let four = e11_loadsweep::run_with_jobs(scale, 4);
    assert!(!serial.rows.is_empty());
    assert_eq!(serial.rows, one.rows);
    assert_eq!(serial.rows, four.rows, "--jobs 4 must not change the table");
}

/// Closed-loop traffic must not cost determinism either: the E13 DSM
/// table — request/reply round trips with bounded outstanding windows —
/// is byte-identical across job counts.
#[test]
fn e13_table_is_identical_across_job_counts() {
    let scale = Scale {
        side: 4,
        measure: 2_000,
        warmup: 500,
        sweep_points: 3,
    };
    let serial = e13_dsm::run(scale);
    let one = e13_dsm::run_with_jobs(scale, 1);
    let four = e13_dsm::run_with_jobs(scale, 4);
    assert!(!serial.rows.is_empty());
    assert_eq!(serial.rows, one.rows);
    assert_eq!(serial.rows, four.rows, "--jobs 4 must not change the table");
}

/// Dynamic faults must not cost determinism: the E14 table — every run
/// under a drawn `FaultSchedule`, with mid-run teardowns, retries, and
/// wormhole degradation — is byte-identical across job counts.
#[test]
fn e14_fault_schedule_table_is_identical_across_job_counts() {
    let scale = Scale {
        side: 4,
        measure: 2_000,
        warmup: 500,
        sweep_points: 3,
    };
    let serial = e14_dynamic_faults::run(scale);
    let one = e14_dynamic_faults::run_with_jobs(scale, 1);
    let four = e14_dynamic_faults::run_with_jobs(scale, 4);
    assert!(!serial.rows.is_empty());
    assert_eq!(serial.rows, one.rows);
    assert_eq!(serial.rows, four.rows, "--jobs 4 must not change the table");
}

/// Observers ride along into sweep workers: with the flight recorder and
/// a stall watchdog armed, `--jobs 4` yields the same table, the same
/// captured trace of every run in point order, and the same watchdog
/// reports as `--jobs 1`.
#[test]
fn observers_see_every_sweep_point_at_any_job_count() {
    use wavesim_bench::{tracecap, watchdog};
    let scale = Scale {
        side: 4,
        measure: 2_000,
        warmup: 500,
        sweep_points: 3,
    };
    let observed = |jobs| {
        tracecap::arm_flight_recorder(1 << 12);
        watchdog::arm(watchdog::WatchdogConfig {
            stall_cycles: Some(64),
            ..watchdog::WatchdogConfig::default()
        });
        let table = e14_dynamic_faults::run_with_jobs(scale, jobs);
        tracecap::disarm_flight_recorder();
        watchdog::disarm();
        (
            table.rows,
            tracecap::take_captured(),
            watchdog::take_reports(),
        )
    };
    let (rows1, traces1, reports1) = observed(1);
    let (rows4, traces4, reports4) = observed(4);
    assert!(traces1.len() >= 3, "one trace per run: {}", traces1.len());
    assert_eq!(traces1.len(), reports1.len());
    assert!(
        reports1.iter().any(|r| !r.trips.is_empty()),
        "the stall rule should trip somewhere in the sweep"
    );
    assert_eq!(rows1, rows4, "--jobs 4 must not change the table");
    assert!(traces1 == traces4, "--jobs 4 must capture every run alike");
    assert_eq!(reports1, reports4, "--jobs 4 must watch every run alike");
}

// ---------------------------------------------------------------------
// Golden traces pinned against the seed (pre-active-set) cycle kernel.
//
// The hashes below were captured from the original O(routers × ports ×
// VCs) kernel before the active-set/arena rewrite. Any kernel change
// that alters a single delivery time, arbitration decision, or counter
// flips these hashes — they prove the optimized kernel is observationally
// byte-identical to the seed kernel, not merely "still deterministic".
// To re-capture after an *intentional* semantic change, run:
//     GOLDEN_PRINT=1 cargo test --test determinism golden -- --nocapture
// ---------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a_bytes(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

fn hash_schedule(schedule: &[(u64, u64)]) -> u64 {
    let mut h = FNV_OFFSET;
    for &(id, at) in schedule {
        fnv1a_bytes(&mut h, &id.to_le_bytes());
        fnv1a_bytes(&mut h, &at.to_le_bytes());
    }
    h
}

fn hash_str(s: &str) -> u64 {
    let mut h = FNV_OFFSET;
    fnv1a_bytes(&mut h, s.as_bytes());
    h
}

fn golden_check(name: &str, got: u64, want: u64) {
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!("GOLDEN {name} = 0x{got:016x}");
        return;
    }
    assert_eq!(
        got, want,
        "{name}: kernel output diverged from the seed kernel (got 0x{got:016x}, want 0x{want:016x})"
    );
}

/// CLRP and wormhole-only delivery schedules (ids + cycles) on a 5×5 mesh
/// under bimodal hot-pair traffic — covers VA/SA arbitration, injection,
/// probes, circuit transfers, and wormhole fallback end to end.
#[test]
fn golden_trace_open_loop_schedules_match_seed_kernel() {
    let clrp = full_run(7, ProtocolKind::Clrp);
    let worm = full_run(7, ProtocolKind::WormholeOnly);
    assert!(!clrp.is_empty() && !worm.is_empty());
    golden_check("clrp_schedule", hash_schedule(&clrp), 0x954f_4883_7849_bf93);
    golden_check(
        "wormhole_schedule",
        hash_schedule(&worm),
        0xf26d_d0b6_cc24_7821,
    );
}

/// The small E11 table (the EXPERIMENTS.md artifact) rendered to its
/// exact row strings, including float bit patterns.
#[test]
fn golden_trace_e11_table_matches_seed_kernel() {
    let scale = Scale {
        side: 4,
        measure: 2_000,
        warmup: 500,
        sweep_points: 3,
    };
    let table = e11_loadsweep::run(scale);
    golden_check(
        "e11_rows",
        hash_str(&format!("{:?}", table.rows)),
        0x560c_6391_ee34_3045,
    );
}

/// The small E14 dynamic-fault table rendered to its exact row strings:
/// pins the entire fault pipeline — MTBF schedule drawing, mid-run
/// teardown-then-fault, bounded retries, and the resulting counters.
#[test]
fn golden_trace_e14_table_is_reproducible() {
    let scale = Scale {
        side: 4,
        measure: 2_000,
        warmup: 500,
        sweep_points: 3,
    };
    let table = e14_dynamic_faults::run(scale);
    golden_check(
        "e14_rows",
        hash_str(&format!("{:?}", table.rows)),
        0x8f53_4c28_6f64_a6f1,
    );
}

/// A mixed CLRP + CARP workload: the same stencil instruction trace is
/// replayed on a CARP network (explicit establish/teardown executed) and
/// a CLRP network (circuits managed implicitly); both full `RunResult`s —
/// every counter and float bit pattern — are pinned.
#[test]
fn golden_trace_clrp_carp_mixed_workload_matches_seed_kernel() {
    let go = |protocol: ProtocolKind| {
        let topo = Topology::mesh(&[4, 4]);
        let mut net = WaveNetwork::new(
            topo.clone(),
            WaveConfig {
                protocol,
                cache_capacity: 4,
                ..WaveConfig::default()
            },
        );
        let mut trace = CarpTrace::stencil(&topo, 3, 4, 32, 600, 200);
        let r = run_carp_trace(&mut net, &mut trace, RunSpec::standard(100, 1_500));
        assert!(r.delivered > 0, "{protocol:?} stencil must deliver");
        format!("{r:?}")
    };
    // Re-pinned when `WaveStats` grew the dynamic-fault counters (all
    // zero here — the filtered strings still hash to the seed goldens
    // 0x22f1_b1c8_63b9_97d1 / 0xbdc6_8777_3a97_ad83; only the Debug
    // schema changed, not a single counter or delivery).
    golden_check(
        "carp_stencil_result",
        hash_str(&go(ProtocolKind::Carp)),
        0x8941_d425_5398_c2ae,
    );
    golden_check(
        "clrp_stencil_result",
        hash_str(&go(ProtocolKind::Clrp)),
        0xf632_b5ec_e635_f488,
    );
}

// ---------------------------------------------------------------------
// Spatial sharding: `--shards N` partitions the wormhole fabric into N
// contiguous router bands stepped on N threads with conservative
// cross-shard synchronization. The contract is *byte identity* — not
// statistical equivalence — so every counter and float bit pattern of
// the `RunResult` is compared across shard counts, and representative
// configurations are pinned against the serial kernel with goldens.
// ---------------------------------------------------------------------

/// One complete run on a `side`×`side` torus at the given shard count.
/// CLRP runs the open-loop hot-pair workload; CARP replays a stencil
/// instruction trace. With `faults`, a drawn MTBF link fail/repair
/// schedule tears circuits down mid-run.
fn sharded_run(side: u16, protocol: ProtocolKind, shards: usize, faults: bool) -> String {
    let topo = Topology::torus(&[side, side]);
    let mut net = WaveNetwork::new(
        topo.clone(),
        WaveConfig {
            protocol,
            cache_capacity: 8,
            ..WaveConfig::default()
        },
    );
    net.set_shards(shards);
    if faults {
        let sched = FaultSchedule::random_mtbf(&topo, 4_000, 300, 1_000, 17);
        assert!(!sched.is_empty(), "fault schedule drew no events");
        apply_fault_schedule(&mut net, &sched).expect("schedule fits the network");
    }
    let r = match protocol {
        ProtocolKind::Carp => {
            let mut trace = CarpTrace::stencil(&topo, 3, 4, 32, 400, 150);
            run_carp_trace(&mut net, &mut trace, RunSpec::standard(150, 1_200))
        }
        _ => {
            let mut src = TrafficSource::new(
                topo,
                TrafficConfig {
                    load: 0.25,
                    pattern: TrafficPattern::HotPairs {
                        partners: 3,
                        locality: 0.7,
                    },
                    len: LengthDist::Fixed(48),
                    seed: 131,
                    ..TrafficConfig::default()
                },
            );
            run_open_loop(&mut net, &mut src, RunSpec::standard(300, 1_200))
        }
    };
    assert!(r.delivered > 0, "{side}x{side} {protocol:?} must deliver");
    // Debug output covers every field, including float bit patterns
    // rendered exactly, so string equality is bitwise equality.
    format!("{r:?}")
}

/// The full matrix: 8×8 and 16×16 tori, CLRP and CARP, with and without
/// a dynamic fault schedule — `--shards 2` and `--shards 4` must produce
/// the exact `RunResult` bytes of `--shards 1`.
#[test]
fn sharded_runs_are_byte_identical_across_shard_counts() {
    for side in [8u16, 16] {
        for protocol in [ProtocolKind::Clrp, ProtocolKind::Carp] {
            for faults in [false, true] {
                let serial = sharded_run(side, protocol, 1, faults);
                for shards in [2usize, 4] {
                    assert_eq!(
                        serial,
                        sharded_run(side, protocol, shards, faults),
                        "{side}x{side} torus {protocol:?} faults={faults}: \
                         --shards {shards} diverged from --shards 1"
                    );
                }
            }
        }
    }
}

/// Representative sharded configurations pinned against the serial seed
/// kernel: the shard partitioning must not merely be self-consistent
/// across shard counts — it must reproduce the original single-thread
/// kernel byte for byte.
#[test]
fn golden_trace_sharded_runs_match_seed_kernel() {
    golden_check(
        "sharded_clrp_8x8_faults",
        hash_str(&sharded_run(8, ProtocolKind::Clrp, 4, true)),
        0x2283_ec3d_743c_71ba,
    );
    golden_check(
        "sharded_carp_16x16",
        hash_str(&sharded_run(16, ProtocolKind::Carp, 4, false)),
        0xfbe4_3188_c230_e789,
    );
}

// ---------------------------------------------------------------------
// Dependency-aware replay (`run --replay-trace`, E15): release order is
// set by delivery events, which makes determinism *harder* — a dependent
// message's injection cycle is itself a simulation output. The replay
// must still be a pure function of (trace, config), byte-identical
// across shard counts and job counts.
// ---------------------------------------------------------------------

/// One all-to-all collective replayed to completion at the given shard
/// count; the full `RunResult` Debug string pins every counter and float
/// bit pattern.
fn replayed_collective(protocol: ProtocolKind, shards: usize) -> String {
    let topo = Topology::mesh(&[4, 4]);
    let trace = collectives::all_to_all(&topo, 24);
    let mut net = WaveNetwork::new(
        topo,
        WaveConfig {
            protocol,
            cache_capacity: 8,
            ..WaveConfig::default()
        },
    );
    net.set_shards(shards);
    let r = run_dep_trace(&mut net, &trace, RunSpec::replay(trace.horizon()));
    assert_eq!(
        r.delivered,
        trace.len() as u64,
        "{protocol:?} --shards {shards}: the whole collective must deliver"
    );
    format!("{r:?}")
}

/// The diamond criterion at scale: an all-to-all dependency trace (every
/// phase gated on the previous phase's deliveries) replays byte-identically
/// across `--shards 1/2/4`, under CLRP and under plain wormhole.
#[test]
fn dep_trace_replay_is_byte_identical_across_shard_counts() {
    for protocol in [ProtocolKind::Clrp, ProtocolKind::WormholeOnly] {
        let serial = replayed_collective(protocol, 1);
        for shards in [2usize, 4] {
            assert_eq!(
                serial,
                replayed_collective(protocol, shards),
                "{protocol:?}: replay diverged at --shards {shards}"
            );
        }
    }
}

/// The full E15 collective grid — every collective × protocol × length —
/// is byte-identical across job counts.
#[test]
fn e15_table_is_identical_across_job_counts() {
    let scale = Scale {
        side: 4,
        measure: 2_000,
        warmup: 500,
        sweep_points: 2,
    };
    let serial = e15_collectives::run(scale);
    let one = e15_collectives::run_with_jobs(scale, 1);
    let four = e15_collectives::run_with_jobs(scale, 4);
    assert!(!serial.rows.is_empty());
    assert_eq!(serial.rows, one.rows);
    assert_eq!(serial.rows, four.rows, "--jobs 4 must not change the table");
}

/// The small E13 and E15 tables rendered to their exact row strings:
/// pins the closed-loop request/reply pipeline and the dependency-gated
/// collective replay against this kernel.
#[test]
fn golden_trace_e13_and_e15_tables_are_reproducible() {
    let scale = Scale {
        side: 4,
        measure: 2_000,
        warmup: 500,
        sweep_points: 3,
    };
    golden_check(
        "e13_rows",
        hash_str(&format!("{:?}", e13_dsm::run(scale).rows)),
        0x0a2a_730d_def9_e8e4,
    );
    let scale = Scale {
        sweep_points: 2,
        ..scale
    };
    golden_check(
        "e15_rows",
        hash_str(&format!("{:?}", e15_collectives::run(scale).rows)),
        0x3c9a_aca5_3ba0_b86a,
    );
}

/// A cyclic dependency trace can never finish replaying, so it must be
/// rejected when *loaded*, with an error naming a stuck message — not
/// hang the replay loop later.
#[test]
fn cyclic_dep_traces_are_rejected_at_load() {
    let text = r#"{"version": 1}
{"id": 0, "src": 0, "dest": 5, "len": 8, "created": 0, "deps": [2]}
{"id": 1, "src": 5, "dest": 6, "len": 8, "created": 0, "deps": [0]}
{"id": 2, "src": 6, "dest": 0, "len": 8, "created": 0, "deps": [1]}
"#;
    let err = trace_io::load_dep_trace(text.as_bytes()).expect_err("cycle must be rejected");
    assert!(
        err.contains("cyclic dependency") && err.contains('0'),
        "error must diagnose the cycle and name a stuck message: {err}"
    );

    // Unknown dependency ids are caught the same way.
    let text = r#"{"version": 1}
{"id": 0, "src": 0, "dest": 5, "len": 8, "created": 0, "deps": [99]}
"#;
    let err = trace_io::load_dep_trace(text.as_bytes()).expect_err("dangling dep must be rejected");
    assert!(err.contains("unknown message id 99"), "{err}");
}
