//! `capture_analyze_16`: one open-loop run of the wave-switched network
//! under link fault churn, captured to a WSTRACE1 file, then analyzed,
//! converted to JSONL, analyzed again and converted back. The run loads
//! every layer of the simulator (fault queue, probe search, circuit plane,
//! fabric, traffic source, drive loop, stall monitor) and the capture puts
//! trace writes beside trace reads, so every analyze fold (spans, flows,
//! lanes, faults, series) has work.

use std::path::Path;
use std::time::Duration;

use wavesim_analyze::{analyze, report, AnalyzeOptions};
use wavesim_bench::{apply_fault_schedule, run_open_loop, tracecap, RunResult, RunSpec};
use wavesim_core::{ProtocolKind, WaveConfig, WaveNetwork};
use wavesim_sim::Cycle;
use wavesim_topology::Topology;
use wavesim_trace::stream::read_jsonl;
use wavesim_trace::{read_columnar, ColumnarSink, JsonlSink, TraceRecord, TraceSink};
use wavesim_workloads::{FaultSchedule, LengthDist, TrafficConfig, TrafficPattern, TrafficSource};

use crate::timers::TimedRun;
use crate::{clean_check, fnv1a, measure, set_up, timed, Check, Layers, Opts, Sample, PINNED_SEED};

// A 16x16 torus running CLRP at offered load 0.3. Everything else is the
// CLI's default: k = 2 wave switches, clock multiplier 4, 16 cache entries,
// MB-2 misrouting, HotPairs(3 partners, locality 0.7), 64-flit messages.
const SIDE: u16 = 16;
const LOAD: f64 = 0.3;
/// Measured cycles; warm-up is a fifth of that, as with the CLI's
/// `run --cycles`.
const MEASURE: Cycle = 1_500;
/// Per-link mean cycles between failures of an E14-style fail/repair
/// schedule; the mean repair time is `MTBF / 8 + 1`.
const MTBF: u64 = 2_000;
/// FNV-1a of the serial kernel's `RunResult` debug output at
/// [`PINNED_SEED`].
const PINNED_RESULT: u64 = 0x34e8_a269_79c8_d508;
/// FNV-1a of the capture converted to JSONL at [`PINNED_SEED`]. The JSONL
/// bytes are pinned, not the binary ones, so a change to the binary frame
/// layout (say, a checksum) does not trip it.
const PINNED_JSONL: u64 = 0xdf3d_3aa2_f555_687e;

fn spec() -> RunSpec {
    RunSpec::standard(MEASURE / 5, MEASURE)
}

/// Builds the network, the fault schedule and the traffic source: the
/// workload's set-up.
fn build(seed: u64) -> (WaveNetwork, TrafficSource) {
    let topo = Topology::torus(&[SIDE, SIDE]);
    let cfg = WaveConfig {
        protocol: ProtocolKind::Clrp,
        seed,
        ..WaveConfig::default()
    };
    let mut net = WaveNetwork::new(topo.clone(), cfg);
    let horizon = MEASURE / 5 + MEASURE;
    let sched = FaultSchedule::random_mtbf(&topo, MTBF, MTBF / 8 + 1, horizon, seed);
    apply_fault_schedule(&mut net, &sched).expect("schedule drawn from this topology");
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

pub fn run(opts: &Opts) -> Sample {
    let pinned = opts.seed == PINNED_SEED;

    let ((mut net, mut src), setup_s) = set_up(|| build(opts.seed));

    let capture_path = opts
        .workdir
        .join(format!("capture-{}.wst", std::process::id()));
    let ((result, pipeline), measured) =
        measure(|| capture_pipeline(&mut net, &mut src, &capture_path));
    let _ = std::fs::remove_file(&capture_path);
    drop(net);

    let fingerprint = fnv1a(format!("{result:?}").as_bytes());
    let mut checks = vec![clean_check(&result)];
    if pinned {
        checks.push(Check::new(
            "result_fingerprint",
            fingerprint == PINNED_RESULT,
            format!("{fingerprint:#018x}, pinned {PINNED_RESULT:#018x}"),
        ));
    }
    pipeline.checks(pinned, &mut checks);

    let layers = opts
        .traced
        .then(|| traced_layers(opts.seed, &result, &pipeline, &mut checks));
    Sample {
        setup_s,
        measured,
        shards: 1,
        // One simulation thread plus the capture's writer thread.
        threads: 2,
        fingerprint,
        checks,
        layers,
    }
}

/// The traced run: the same run again without the capture, driven by
/// [`drive`] through a [`Driver`] that times every call it makes into the
/// network and the traffic source, and the gaps `drive` spends between
/// those calls. An uncaptured, untimed run gives the capture's cost and
/// the timers' overhead; the pipeline's timings come from the measured
/// phase.
fn traced_layers(seed: u64, captured: &RunResult, p: &Pipeline, checks: &mut Vec<Check>) -> Layers {
    let (mut net, mut src) = build(seed);
    let (plain, plain_wall) = timed(|| run_open_loop(&mut net, &mut src, spec()));
    checks.push(Check::new(
        "capture_does_not_perturb",
        format!("{plain:?}") == format!("{captured:?}"),
        "the uncaptured run equals the captured one",
    ));

    let (mut net, mut src) = build(seed);
    let t = TimedRun::run(&mut net, &mut src, spec());
    t.checks(&plain, checks);
    let overhead = (t.wall.as_secs_f64() / plain_wall.as_secs_f64() - 1.0) * 100.0;
    let mut layers = vec![
        (
            "trace.capture_s",
            p.run.as_secs_f64() - plain_wall.as_secs_f64(),
        ),
        ("trace.decode_bin_s", p.decode_bin.as_secs_f64()),
        ("trace.encode_jsonl_s", p.encode_jsonl.as_secs_f64()),
        ("trace.decode_jsonl_s", p.decode_jsonl.as_secs_f64()),
        ("trace.encode_bin_s", p.encode_bin.as_secs_f64()),
        ("trace.records", p.records as f64),
        ("trace.bin_bytes", p.bin_bytes as f64),
        ("analyze.fold_s", (p.fold_bin + p.fold_jsonl).as_secs_f64()),
        ("layer_timer_overhead_pct", overhead),
    ];
    layers.extend(t.layers(&net));
    layers
}

/// Timings and outcome of the capture pipeline.
struct Pipeline {
    /// The captured run, from arming the stream to collecting it.
    run: Duration,
    decode_bin: Duration,
    fold_bin: Duration,
    encode_jsonl: Duration,
    decode_jsonl: Duration,
    fold_jsonl: Duration,
    encode_bin: Duration,
    records: u64,
    bin_bytes: u64,
    jsonl_hash: u64,
    stream_ok: Result<(), String>,
    reports_equal: bool,
    round_trip_exact: bool,
}

impl Pipeline {
    fn checks(&self, pinned: bool, checks: &mut Vec<Check>) {
        checks.push(Check::new(
            "capture_written",
            self.stream_ok.is_ok() && self.records > 0,
            match &self.stream_ok {
                Ok(()) => format!("{} records, {} bytes", self.records, self.bin_bytes),
                Err(e) => e.clone(),
            },
        ));
        checks.push(Check::new(
            "bin_jsonl_bin_byte_exact",
            self.round_trip_exact,
            "WSTRACE1 -> JSONL -> WSTRACE1 reproduces the capture",
        ));
        checks.push(Check::new(
            "analyze_bin_equals_jsonl",
            self.reports_equal,
            "analyze report of the capture equals that of its JSONL form",
        ));
        if pinned {
            checks.push(Check::new(
                "jsonl_fingerprint",
                self.jsonl_hash == PINNED_JSONL,
                format!("{:#018x}, pinned {PINNED_JSONL:#018x}", self.jsonl_hash),
            ));
        }
    }
}

/// Renders an analysis both ways the CLI prints it.
fn report_text(records: &[TraceRecord]) -> String {
    let a = analyze(records, AnalyzeOptions::default());
    report::render(&a) + &report::to_json(&a).compact()
}

/// The measured phase: the open-loop run streamed to a WSTRACE1 file at
/// `path`, then analyzed, converted to JSONL, analyzed again and converted
/// back.
fn capture_pipeline(
    net: &mut WaveNetwork,
    src: &mut TrafficSource,
    path: &Path,
) -> (RunResult, Pipeline) {
    let ((result, stream_ok), run) = timed(|| {
        tracecap::arm_bin_stream(path, 1).expect("work directory is writable");
        let result = run_open_loop(net, src, spec());
        tracecap::disarm_bin_stream();
        let stream_ok = match tracecap::take_captured().pop() {
            Some(t) => t.stream_error.map_or(Ok(()), Err),
            None => Err("no trace captured".to_string()),
        };
        (result, stream_ok)
    });
    let bin = std::fs::read(path).unwrap_or_default();

    let (recs, decode_bin) = timed(|| read_columnar(&bin).unwrap_or_default());
    let (report_bin, fold_bin) = timed(|| report_text(&recs));
    let records = recs.len() as u64;
    let (jsonl, encode_jsonl) = timed(|| {
        let mut sink = JsonlSink::new(Vec::new());
        for r in recs {
            sink.record(r);
        }
        sink.finish_into().unwrap_or_default()
    });
    let (recs2, decode_jsonl) = timed(|| {
        std::str::from_utf8(&jsonl)
            .map_or_else(|_| Vec::new(), |t| read_jsonl(t).unwrap_or_default())
    });
    let (report_jsonl, fold_jsonl) = timed(|| report_text(&recs2));
    let (bin2, encode_bin) = timed(|| {
        let mut sink = ColumnarSink::new(Vec::new());
        for r in recs2 {
            sink.record(r);
        }
        sink.finish_into().unwrap_or_default()
    });
    let p = Pipeline {
        run,
        decode_bin,
        fold_bin,
        encode_jsonl,
        decode_jsonl,
        fold_jsonl,
        encode_bin,
        records,
        bin_bytes: bin.len() as u64,
        jsonl_hash: fnv1a(&jsonl),
        stream_ok,
        reports_equal: report_bin == report_jsonl,
        round_trip_exact: !bin.is_empty() && bin2 == bin,
    };
    (result, p)
}
