//! The live observability plane, end to end: the global status board, the
//! HTTP endpoint, the in-run analytics fold, and the watchdog subsystem —
//! plus the determinism guarantee that arming all of it changes nothing
//! about a run's results.
//!
//! The status board is process-global (the serving thread reads what the
//! drive loop writes), so every test that arms it serializes on [`PLANE`];
//! this suite owns its process, so nothing else races the board.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;

use wavesim::core::{ProtocolKind, WaveConfig, WaveNetwork};
use wavesim::network::Message;
use wavesim::sim::stats::Histogram;
use wavesim::topology::{NodeId, Topology};
use wavesim::trace::timeseries::WindowSeries;
use wavesim::trace::TraceRecord;
use wavesim::workloads::{LengthDist, TrafficConfig, TrafficPattern, TrafficSource};
use wavesim_analyze::{analyze, report, take_analysis, AnalyzeOptions};
use wavesim_bench::{livestate, run_open_loop, run_scripted, serve, tracecap, watchdog, RunSpec};

/// Serializes tests that arm the process-global status board.
static PLANE: Mutex<()> = Mutex::new(());

fn lock_plane() -> std::sync::MutexGuard<'static, ()> {
    PLANE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One deterministic open-loop workload; everything derives from the
/// arguments so repeat runs are bit-identical.
fn drive_workload(seed: u64, shards: usize) -> wavesim_bench::RunResult {
    let topo = Topology::mesh(&[4, 4]);
    let mut net = WaveNetwork::new(
        topo.clone(),
        WaveConfig {
            seed,
            ..WaveConfig::default()
        },
    );
    net.set_shards(shards);
    let mut src = TrafficSource::new(
        topo,
        TrafficConfig {
            load: 0.2,
            pattern: TrafficPattern::HotPairs {
                partners: 3,
                locality: 0.7,
            },
            len: LengthDist::Fixed(32),
            seed,
            stop_at: u64::MAX,
        },
    );
    run_open_loop(&mut net, &mut src, RunSpec::standard(500, 3000))
}

/// Runs [`drive_workload`] with the flight recorder armed (and, when
/// `live`, the in-run analytics fold teed beside it). Returns the run
/// result, the live analysis, and the captured record stream.
fn captured_run(
    seed: u64,
    shards: usize,
    live: bool,
) -> (
    wavesim_bench::RunResult,
    Option<wavesim_analyze::Analysis>,
    Vec<TraceRecord>,
) {
    tracecap::arm_flight_recorder(1 << 20);
    let handle = live.then(|| {
        let (handle, sink) = wavesim_analyze::live_sink(AnalyzeOptions::default());
        let mut slot = Some(sink);
        tracecap::arm_extra_sink(move || {
            Box::new(slot.take().expect("one live sink per armed run"))
        });
        handle
    });
    let r = drive_workload(seed, shards);
    tracecap::disarm_flight_recorder();
    tracecap::disarm_extra_sink();
    let mut caps = tracecap::take_captured();
    assert_eq!(caps.len(), 1);
    let cap = caps.pop().unwrap();
    assert_eq!(cap.dropped, 0, "ring must hold the whole run");
    let analysis = handle.as_ref().and_then(take_analysis);
    (r, analysis, cap.records)
}

#[test]
fn armed_board_publishes_consistent_vitals() {
    let _guard = lock_plane();
    livestate::arm(false);
    let r = drive_workload(11, 1);
    let status = livestate::snapshot().expect("armed board has a status");
    livestate::disarm();
    assert!(status.done, "finish() marks the run done");
    assert_eq!(status.cycle, r.end);
    assert_eq!(status.sent, r.sent);
    assert_eq!(status.delivered, r.delivered);
    assert!(status.run.starts_with("clrp mesh-4x4"), "{}", status.run);
    assert!(status.cycles_per_sec > 0.0);
    assert!((0.0..=1.0).contains(&status.hit_rate()));
    assert!(livestate::snapshot().is_none(), "disarm hides the board");
}

#[test]
fn endpoint_serves_armed_board_over_http() {
    let _guard = lock_plane();
    livestate::arm(false);
    let r = drive_workload(12, 1);
    let addr = serve::serve("127.0.0.1:0").expect("bind");
    let get = |path: &str| {
        let mut c = TcpStream::connect(addr).expect("connect");
        c.write_all(format!("GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").as_bytes())
            .expect("send");
        let mut out = String::new();
        c.read_to_string(&mut out).expect("read");
        out
    };
    let prom = get("/metrics");
    let json = get("/status");
    livestate::disarm();

    assert!(prom.starts_with("HTTP/1.0 200"), "{prom}");
    let body = prom.split("\r\n\r\n").nth(1).expect("body");
    assert!(body.contains("wavesim_live_run_info{run=\"clrp mesh-4x4"));
    // Exposition-format check: every sample line is `name[{labels}] value`.
    for line in body.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (_, value) = line.rsplit_once(' ').expect("sample line");
        assert!(value.parse::<f64>().is_ok(), "non-numeric sample: {line:?}");
    }
    assert!(body.contains(&format!("wavesim_live_cycle {}", r.end)));

    assert!(json.starts_with("HTTP/1.0 200"), "{json}");
    let body = json.split("\r\n\r\n").nth(1).expect("body");
    let doc = wavesim::json::Value::parse(body).expect("valid JSON status");
    assert_eq!(
        doc.get("delivered").and_then(wavesim::json::Value::as_u64),
        Some(r.delivered)
    );
    assert_eq!(
        doc.get("done").and_then(|v| match v {
            wavesim::json::Value::Bool(b) => Some(*b),
            _ => None,
        }),
        Some(true)
    );
}

#[test]
fn trickling_client_cannot_hold_the_endpoint() {
    use std::time::{Duration, Instant};
    let addr = serve::serve("127.0.0.1:0").expect("bind");
    // A client that sends one byte every half second and never finishes
    // its request line; it gives up after 12 s or once the server hangs up.
    let mut slow = TcpStream::connect(addr).expect("connect");
    let trickler = std::thread::spawn(move || {
        for b in b"GET /status HTTP/1.0 Host: slow".iter().take(24) {
            if slow.write_all(&[*b]).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(500));
        }
    });
    std::thread::sleep(Duration::from_millis(200));
    let t0 = Instant::now();
    let mut c = TcpStream::connect(addr).expect("connect");
    c.write_all(b"GET / HTTP/1.0\r\n\r\n").expect("send");
    let mut out = String::new();
    c.read_to_string(&mut out).expect("read");
    let waited = t0.elapsed();
    trickler.join().expect("trickler");
    assert!(out.starts_with("HTTP/1.0 200"), "{out}");
    assert!(
        waited < Duration::from_secs(6),
        "a trickling client held the accept loop for {waited:?}"
    );
}

#[test]
fn live_fold_matches_offline_analyze_across_shards() {
    let _guard = lock_plane();
    let mut reports = Vec::new();
    for shards in [1usize, 3] {
        let (r, live, records) = captured_run(21, shards, true);
        assert!(r.clean(), "{r:?}");
        let live = live.expect("armed live fold yields an analysis");
        let offline = analyze(&records, AnalyzeOptions::default());
        // The live report (folded during the run on the writer thread) is
        // byte-identical to the offline pass over the same capture.
        let live_report = report::render(&live);
        assert_eq!(live_report, report::render(&offline), "shards={shards}");
        assert_eq!(
            wavesim::json::Value::pretty(&report::to_json(&live)),
            wavesim::json::Value::pretty(&report::to_json(&offline)),
            "shards={shards}"
        );
        reports.push(live_report);
    }
    // And identical across shard counts: sharding changes wall-clock
    // only, never the event stream.
    assert_eq!(reports[0], reports[1]);
}

#[test]
fn fully_armed_plane_leaves_the_run_untouched() {
    let _guard = lock_plane();
    let (baseline, _, base_records) = captured_run(31, 1, false);
    // Arm everything at once: board, echo off, generous watchdog, live
    // fold. The run result and the captured record stream must not move.
    livestate::arm(false);
    watchdog::arm(watchdog::WatchdogConfig {
        stall_cycles: Some(1_000_000),
        retry_limit: Some(1_000_000),
        deadlock: true,
        abort: true,
        ..watchdog::WatchdogConfig::default()
    });
    let (armed, live, armed_records) = captured_run(31, 1, true);
    watchdog::disarm();
    livestate::disarm();
    let wd = watchdog::take_reports();
    assert_eq!(wd.len(), 1);
    assert!(wd[0].trips.is_empty(), "{:?}", wd[0]);
    assert!(live.is_some());
    assert_eq!(format!("{baseline:?}"), format!("{armed:?}"));
    assert_eq!(base_records, armed_records);
}

#[test]
fn watchdog_abort_truncates_the_sampled_series_at_the_trip() {
    let _guard = lock_plane();
    // One long wormhole message and a 16-cycle stall SLO: the first
    // 64-cycle observation trips and aborts, mid-window for the sampler.
    let mut net = WaveNetwork::new(
        Topology::mesh(&[4, 4]),
        WaveConfig {
            protocol: ProtocolKind::WormholeOnly,
            ..WaveConfig::default()
        },
    );
    let script = [(0u64, Message::new(1, NodeId(0), NodeId(15), 512, 0))];
    watchdog::arm(watchdog::WatchdogConfig {
        stall_cycles: Some(16),
        abort: true,
        ..watchdog::WatchdogConfig::default()
    });
    wavesim_bench::timeseries::arm_sampler(1000, false);
    let r = run_scripted(&mut net, &script, RunSpec::standard(0, 100));
    wavesim_bench::timeseries::disarm_sampler();
    watchdog::disarm();
    let reports = watchdog::take_reports();
    assert!(reports[0].aborted);
    assert!(r.stalled && !r.clean());
    let series = wavesim_bench::timeseries::take_series().expect("sampled");
    // The final (partial) window ends at the abort cycle, not at the
    // window boundary — early aborts never fabricate a full window.
    let last = series.rows.last().expect("at least one window");
    assert_eq!(last.end, r.end, "{last:?}");
    assert!(!last.end.is_multiple_of(1000), "abort lands mid-window");
    assert!(last.end < 1000, "tripped at the first 64-cycle observation");
}

#[test]
fn histogram_merge_is_order_independent_across_shards() {
    // Shards absorb per-shard histograms in whatever order the sweep
    // collects them; merged percentiles must not depend on that order.
    let lats: Vec<u64> = (0..400u64).map(|i| (i * 37) % 1000 + 1).collect();
    let whole = {
        let mut h = Histogram::new();
        for &l in &lats {
            h.record(l);
        }
        h
    };
    // Split into 4 "shards" two different ways, merge in forward and
    // reverse order.
    let shard = |stride: usize| -> Vec<Histogram> {
        let mut hs: Vec<Histogram> = (0..4).map(|_| Histogram::new()).collect();
        for (i, &l) in lats.iter().enumerate() {
            hs[(i / stride) % 4].record(l);
        }
        hs
    };
    for parts in [shard(1), shard(25)] {
        for reverse in [false, true] {
            let mut merged = Histogram::new();
            let order: Vec<&Histogram> = if reverse {
                parts.iter().rev().collect()
            } else {
                parts.iter().collect()
            };
            for h in order {
                merged.merge(h);
            }
            assert_eq!(merged.count(), whole.count());
            assert_eq!(merged.p50(), whole.p50());
            assert_eq!(merged.p95(), whole.p95());
            assert_eq!(merged.p99(), whole.p99());
            assert!((merged.mean() - whole.mean()).abs() < 1e-9);
        }
    }
}

#[test]
fn window_series_keeps_real_end_when_cut_mid_window() {
    // Direct WindowSeries check mirroring the watchdog-abort test above:
    // deliveries land in windows [0,100) and [100,200), then the run is
    // cut at 137 — the trailing window must report its true extent.
    let mut s = WindowSeries::new(100, 16);
    s.record_delivery(40, 12, 8);
    s.record_delivery(110, 20, 8);
    s.record_delivery(130, 25, 8);
    let rows = s.finish(137);
    assert_eq!(rows.len(), 2);
    assert_eq!((rows[0].start, rows[0].end), (0, 100));
    assert_eq!(rows[0].delivered, 1);
    assert_eq!((rows[1].start, rows[1].end), (100, 137));
    assert_eq!(rows[1].delivered, 2);
}
