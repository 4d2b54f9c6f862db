//! `wavesim` — command-line experiment runner.
//!
//! ```text
//! wavesim all [--scale small|paper] [--json] [--jobs N]   run every experiment
//! wavesim e1 .. e15 [--scale ...] [--json] [--jobs N]     run one experiment
//!                                              (--jobs fans sweep points over
//!                                              N threads; output is identical
//!                                              to --jobs 1)
//! wavesim run [workload flags]                 one custom simulation
//! wavesim gen-trace --collective C --out FILE  emit a dependency trace
//! wavesim analyze --trace run.jsonl            trace analytics report
//! wavesim check [--side N]                     static deadlock-freedom checks (CDG)
//! wavesim check --model clrp|carp|probe        exhaustive protocol model check
//!   [--topology mesh|torus] [--side N] [--k N] [--msgs N | --msg S:D ...] [--seed N]
//!   [--fault] [--repair] [--mutate drop-release|skip-backoff|wait-establishing]
//!   [--max-states N] [--counterexample FILE]
//!   Explores EVERY interleaving of the protocol automaton on a small
//!   fabric (default 2x2 mesh / 3x3 torus) and proves deadlock- and
//!   livelock-freedom, or prints a shrunk counterexample schedule and
//!   exits nonzero. `--counterexample FILE` additionally replays the
//!   schedule through the real network and writes the captured trace
//!   (JSONL, or WSTRACE1 when FILE ends in `.bin`) for `validate-trace`
//!   and `analyze`. `--mutate` injects a deliberate protocol bug so the
//!   checker's teeth can be demonstrated (and regression-tested).
//! wavesim fuzz --model clrp|carp|probe         adversarial schedule fuzzing
//!   [--runs N] [--steps N] [--seed N] + the model flags above
//!   Random interleavings plus random fault churn; violations are
//!   shrunk to 1-minimal schedules. Deterministic in --seed.
//! wavesim validate-trace FILE                  schema-check a Perfetto trace file
//! wavesim info                                 print the default configuration
//!
//! `run` flags: --protocol clrp|carp|wormhole  --topology mesh|torus
//!              --side N  --load F  --len N  --locality F  --cycles N
//!              --seed N  --k N  --alpha N  --cache N  --misroutes N
//!              --shards N
//!
//! `run --replay-trace FILE` replays a dependency-aware message trace
//! (JSON or JSONL, see `wavesim_workloads::trace_io`) instead of driving
//! the open-loop generator: each message is released only once all its
//! `deps` have been *delivered*, so injection timing responds to the
//! network. Cyclic traces are rejected at load. `gen-trace` emits the
//! collective traces E15 replays (all-to-all, reduce, broadcast,
//! transpose-sweep) for a mesh of `--side`; `--out x.jsonl` selects the
//! line-oriented format, any other name the pretty JSON document.
//!
//! `run --service-clients N` drives closed-loop service traffic instead:
//! N clients (bookkeeping is O(active), so millions are fine) ramp in
//! over the first fifth of `--cycles`, each issuing a request to a
//! server partner chosen with `--locality`, thinking after each reply,
//! and re-issuing — offered load responds to delivered latency.
//!
//! `--shards N` spatially partitions the wormhole fabric into N
//! contiguous router bands stepped on N threads. The partitioning is
//! deterministic and conservative — every printed line and every trace
//! byte is identical at any shard count; only wall-clock time changes.
//!
//! Fault flags (`run` only): `--fault-plan FILE` applies a static fault
//! plan (JSON, see `wavesim_workloads::trace_io`) before traffic starts;
//! `--fault-schedule FILE` schedules timed dynamic fail/repair events.
//! Both are validated against the chosen topology and `--k`; a plan built
//! for a different network is a clean error, not a panic.
//!
//! Observability flags (`run` and experiments): `--trace-out FILE` writes a
//! Chrome/Perfetto `trace_event` JSON of the run (plus `FILE.postmortem.json`
//! when the run stalls), `--metrics-out FILE` (run only) writes a
//! Prometheus-style metrics page, `--flight-recorder N` sizes the in-memory
//! ring buffer (default 65536 records). Sweep workers run with the same
//! observers armed (recorder, watchdogs), so `--jobs N` captures and
//! watches every point exactly as `--jobs 1`; only the flags that write one
//! file per run (`--trace-jsonl`, `--trace-bin`, `--watch-postmortem`)
//! force `--jobs 1`, because two workers would truncate the file at once.
//!
//! Analytics: `--trace-jsonl FILE` (`run` and experiments) streams the
//! *complete* event record to JSONL with bounded memory (nothing the
//! ring buffer would drop is lost; for experiment sweeps the file is
//! re-streamed per point and ends holding the last one), `--timeseries-out
//! FILE` (run only) writes windowed CSV (`--window N` cycles per row,
//! default 1000), `--progress N` prints a
//! one-line status every N cycles. `wavesim analyze --trace run.jsonl
//! [--report FILE] [--json FILE] [--timeseries FILE] [--window N]
//! [--top N]` turns a captured JSONL stream into latency waterfalls,
//! circuit-cache flow attribution, hot-lane occupancy, and fault impact
//! windows — `--json` takes a FILE here, unlike the experiment commands.
//!
//! Binary capture: `--trace-bin FILE` (`run` and experiments) streams the
//! same record stream as `--trace-jsonl` in the compact binary columnar
//! format (`WSTRACE1` frames, typically < 10% of the JSONL bytes);
//! `--trace-sample N` keeps 1-in-N of the bulk event kinds (plane ticks,
//! probe hops, cache probes) deterministically while always keeping
//! lifecycle events. `analyze --trace` accepts either format
//! transparently (pass the same `--trace-sample N` to rescale a sampled
//! capture's bulk counts; the factor is stamped into the report), and
//! `wavesim convert-trace IN --out FILE [--to jsonl|bin]` converts
//! losslessly between them (`validate-trace` also recognises both,
//! alongside Perfetto exports). Both `analyze` and `convert-trace`
//! stream their input frame-by-frame, so arbitrarily large captures are
//! processed in bounded memory.
//!
//! Live observability (`run` and experiments): `--serve-metrics ADDR`
//! binds a dependency-free HTTP endpoint serving the running simulation's
//! vitals (`GET /metrics` Prometheus text, `GET /status` JSON);
//! `--live-status` prints a one-line progress report to stderr every 8192
//! cycles. Both read a snapshot board the drive loop publishes every 64
//! cycles — stdout stays byte-identical to an unserved run.
//! `--live-analyze` (`run` only) folds the full record stream through the
//! incremental analytics engine *during* the run on the capture writer
//! thread and prints the same report `analyze` would, with no second pass
//! over a trace file.
//!
//! Watchdogs (`run` and experiments): `--watch-stall N` trips when no
//! message is delivered for N cycles, `--watch-retries N` on more than N
//! establishment retries in a 4096-cycle window, `--watch-imbalance F` when
//! the slowest shard exceeds F× the mean wall time (nondeterministic —
//! off by default), `--watch-deadlock` runs a wait-for-graph cycle search
//! once the fabric stops for 2048 cycles. A trip stamps a `watchdog_trip`
//! record into the trace; `--watch-postmortem FILE` additionally flushes a
//! flight-recorder post-mortem bundle, and `--watch-abort` ends the run
//! with a nonzero exit.
//! ```

use std::env;
use std::process::ExitCode;

use wavesim_bench::{experiments, run_open_loop, tracecap, RunSpec, Scale};
use wavesim_core::{LaneId, ProtocolKind, WaveConfig, WaveNetwork};
use wavesim_topology::{RoutingKind, Topology};
use wavesim_trace::TraceSink;
use wavesim_verify::check_deadlock_freedom;
use wavesim_workloads::{LengthDist, TrafficConfig, TrafficPattern, TrafficSource};

fn usage() -> ! {
    eprintln!(
        "usage: wavesim <all|e1..e15|run|gen-trace|analyze|convert-trace|check|fuzz|validate-trace|info> [--scale small|paper] [--json] [--jobs N] [--side N]\n\
         model check: wavesim check --model clrp|carp|probe [--topology mesh|torus] [--side N]\n\
                      [--k N] [--msgs N] [--seed N] [--fault] [--repair] [--mutate M]\n\
                      [--max-states N] [--counterexample FILE]\n\
         fuzz:        wavesim fuzz --model ... [--runs N] [--steps N] [--seed N]\n\
         run flags: --protocol clrp|carp|wormhole --topology mesh|torus --side N --load F\n\
                    --len N --locality F --cycles N --seed N --k N --alpha N --cache N\n\
                    --misroutes N --shards N\n\
                    --replay-trace FILE (dependency-aware trace replay)\n\
                    --service-clients N (closed-loop service traffic)\n\
         gen-trace: wavesim gen-trace --collective all-to-all|reduce|broadcast|transpose-sweep\n\
                    [--side N] [--len N] [--seed N] --out FILE (.jsonl streams, else JSON doc)\n\
         fault flags (run): --fault-plan FILE --fault-schedule FILE\n\
         trace flags: --trace-out FILE --metrics-out FILE --flight-recorder N\n\
                      --trace-jsonl FILE --trace-bin FILE --trace-sample N\n\
                      --timeseries-out FILE --window N --progress N\n\
         live flags:  --serve-metrics ADDR --live-status --live-analyze\n\
         watchdogs:   --watch-stall N --watch-retries N --watch-imbalance F\n\
                      --watch-deadlock --watch-abort --watch-postmortem FILE\n\
         analyze flags: --trace FILE [--report FILE] [--json FILE] [--timeseries FILE]\n\
                        [--window N] [--top N] [--trace-sample N]\n\
         convert-trace: wavesim convert-trace IN --out FILE [--to jsonl|bin]"
    );
    std::process::exit(2);
}

struct Args {
    cmd: String,
    scale: Scale,
    json: bool,
    jobs: usize,
    side: u16,
    // `run` knobs
    protocol: ProtocolKind,
    torus: bool,
    load: f64,
    len: u32,
    locality: f64,
    cycles: u64,
    seed: u64,
    k: u8,
    alpha: u32,
    cache: usize,
    misroutes: u8,
    shards: usize,
    // dependency-trace replay / closed-loop service mode (`run`)
    replay_trace: Option<String>,
    service_clients: Option<u64>,
    // `gen-trace` inputs
    collective: Option<String>,
    // fault injection
    fault_plan: Option<String>,
    fault_schedule: Option<String>,
    // observability
    trace_out: Option<String>,
    metrics_out: Option<String>,
    flight_recorder: usize,
    // analytics capture (`run`)
    trace_jsonl: Option<String>,
    trace_bin: Option<String>,
    trace_sample: u64,
    timeseries_out: Option<String>,
    window: u64,
    progress: Option<u64>,
    // live observability plane
    serve_metrics: Option<String>,
    live_status: bool,
    live_analyze: bool,
    // watchdog rules
    watch_stall: Option<u64>,
    watch_retries: Option<u64>,
    watch_imbalance: Option<f64>,
    watch_deadlock: bool,
    watch_abort: bool,
    watch_postmortem: Option<String>,
    // `analyze` inputs/outputs
    trace_in: Option<String>,
    report_out: Option<String>,
    json_out: Option<String>,
    timeseries_csv: Option<String>,
    top: usize,
    // `convert-trace` outputs
    out: Option<String>,
    to_bin: bool,
    // positional operand (validate-trace FILE / convert-trace IN)
    path: Option<String>,
    // model checker (`check --model …` / `fuzz`)
    model: Option<String>,
    side_set: bool,
    msgs: usize,
    fault: bool,
    repair: bool,
    mutate: Option<String>,
    msg_list: Vec<String>,
    max_states: u64,
    counterexample: Option<String>,
    runs: u32,
    steps: u32,
}

fn parse_args() -> Args {
    let mut argv = env::args().skip(1);
    let cmd = argv.next().unwrap_or_else(|| usage());
    let mut args = Args {
        cmd,
        scale: Scale::paper(),
        json: false,
        jobs: 1,
        side: 8,
        protocol: ProtocolKind::Clrp,
        torus: false,
        load: 0.2,
        len: 64,
        locality: 0.7,
        cycles: 20_000,
        seed: 1,
        k: 2,
        alpha: 4,
        cache: 16,
        misroutes: 2,
        shards: 1,
        replay_trace: None,
        service_clients: None,
        collective: None,
        fault_plan: None,
        fault_schedule: None,
        trace_out: None,
        metrics_out: None,
        flight_recorder: 1 << 16,
        trace_jsonl: None,
        trace_bin: None,
        trace_sample: 1,
        timeseries_out: None,
        window: 1000,
        progress: None,
        serve_metrics: None,
        live_status: false,
        live_analyze: false,
        watch_stall: None,
        watch_retries: None,
        watch_imbalance: None,
        watch_deadlock: false,
        watch_abort: false,
        watch_postmortem: None,
        trace_in: None,
        report_out: None,
        json_out: None,
        timeseries_csv: None,
        top: 10,
        out: None,
        to_bin: false,
        path: None,
        model: None,
        side_set: false,
        msgs: 3,
        fault: false,
        repair: false,
        mutate: None,
        msg_list: Vec::new(),
        max_states: 5_000_000,
        counterexample: None,
        runs: 64,
        steps: 4_000,
    };
    macro_rules! next_parse {
        ($argv:ident) => {
            $argv
                .next()
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| usage())
        };
    }
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--scale" => match argv.next().as_deref() {
                Some("small") => args.scale = Scale::small(),
                Some("paper") => args.scale = Scale::paper(),
                _ => usage(),
            },
            // For `analyze`, --json names an output file; everywhere else
            // it is a boolean format switch.
            "--json" if args.cmd == "analyze" => {
                args.json_out = Some(argv.next().unwrap_or_else(|| usage()));
            }
            "--json" => args.json = true,
            "--trace" => args.trace_in = Some(argv.next().unwrap_or_else(|| usage())),
            "--report" => args.report_out = Some(argv.next().unwrap_or_else(|| usage())),
            "--timeseries" => {
                args.timeseries_csv = Some(argv.next().unwrap_or_else(|| usage()));
            }
            "--top" => args.top = next_parse!(argv),
            "--trace-jsonl" => args.trace_jsonl = Some(argv.next().unwrap_or_else(|| usage())),
            "--trace-bin" => args.trace_bin = Some(argv.next().unwrap_or_else(|| usage())),
            "--trace-sample" => {
                args.trace_sample = next_parse!(argv);
                if args.trace_sample == 0 {
                    usage();
                }
            }
            "--out" => args.out = Some(argv.next().unwrap_or_else(|| usage())),
            "--to" => {
                args.to_bin = match argv.next().as_deref() {
                    Some("jsonl") => false,
                    Some("bin") => true,
                    _ => usage(),
                }
            }
            "--timeseries-out" => {
                args.timeseries_out = Some(argv.next().unwrap_or_else(|| usage()));
            }
            "--window" => {
                args.window = next_parse!(argv);
                if args.window == 0 {
                    usage();
                }
            }
            "--progress" => {
                args.progress = Some(next_parse!(argv));
                if args.progress == Some(0) {
                    usage();
                }
            }
            "--jobs" => args.jobs = next_parse!(argv),
            "--side" => {
                args.side = next_parse!(argv);
                args.side_set = true;
            }
            "--model" => args.model = Some(argv.next().unwrap_or_else(|| usage())),
            "--msgs" => args.msgs = next_parse!(argv),
            "--msg" => args.msg_list.push(argv.next().unwrap_or_else(|| usage())),
            "--fault" => args.fault = true,
            "--repair" => args.repair = true,
            "--mutate" => args.mutate = Some(argv.next().unwrap_or_else(|| usage())),
            "--max-states" => {
                args.max_states = next_parse!(argv);
                if args.max_states == 0 {
                    usage();
                }
            }
            "--counterexample" => {
                args.counterexample = Some(argv.next().unwrap_or_else(|| usage()));
            }
            "--runs" => args.runs = next_parse!(argv),
            "--steps" => args.steps = next_parse!(argv),
            "--protocol" => {
                args.protocol = match argv.next().as_deref() {
                    Some("clrp") => ProtocolKind::Clrp,
                    Some("carp") => ProtocolKind::Carp,
                    Some("wormhole") => ProtocolKind::WormholeOnly,
                    _ => usage(),
                }
            }
            "--topology" => {
                args.torus = match argv.next().as_deref() {
                    Some("mesh") => false,
                    Some("torus") => true,
                    _ => usage(),
                }
            }
            "--load" => args.load = next_parse!(argv),
            "--len" => args.len = next_parse!(argv),
            "--locality" => args.locality = next_parse!(argv),
            "--cycles" => args.cycles = next_parse!(argv),
            "--seed" => args.seed = next_parse!(argv),
            "--k" => args.k = next_parse!(argv),
            "--alpha" => args.alpha = next_parse!(argv),
            "--cache" => args.cache = next_parse!(argv),
            "--misroutes" => args.misroutes = next_parse!(argv),
            "--shards" => {
                args.shards = next_parse!(argv);
                if args.shards == 0 {
                    usage();
                }
            }
            "--replay-trace" => args.replay_trace = Some(argv.next().unwrap_or_else(|| usage())),
            "--service-clients" => {
                args.service_clients = Some(next_parse!(argv));
                if args.service_clients == Some(0) {
                    usage();
                }
            }
            "--collective" => args.collective = Some(argv.next().unwrap_or_else(|| usage())),
            "--fault-plan" => args.fault_plan = Some(argv.next().unwrap_or_else(|| usage())),
            "--fault-schedule" => {
                args.fault_schedule = Some(argv.next().unwrap_or_else(|| usage()));
            }
            "--serve-metrics" => {
                args.serve_metrics = Some(argv.next().unwrap_or_else(|| usage()));
            }
            "--live-status" => args.live_status = true,
            "--live-analyze" => args.live_analyze = true,
            "--watch-stall" => {
                args.watch_stall = Some(next_parse!(argv));
                if args.watch_stall == Some(0) {
                    usage();
                }
            }
            "--watch-retries" => args.watch_retries = Some(next_parse!(argv)),
            "--watch-imbalance" => {
                args.watch_imbalance = Some(next_parse!(argv));
                if args.watch_imbalance.is_some_and(|f| f <= 1.0) {
                    usage();
                }
            }
            "--watch-deadlock" => args.watch_deadlock = true,
            "--watch-abort" => args.watch_abort = true,
            "--watch-postmortem" => {
                args.watch_postmortem = Some(argv.next().unwrap_or_else(|| usage()));
            }
            "--trace-out" => args.trace_out = Some(argv.next().unwrap_or_else(|| usage())),
            "--metrics-out" => args.metrics_out = Some(argv.next().unwrap_or_else(|| usage())),
            "--flight-recorder" => {
                args.flight_recorder = next_parse!(argv);
                if args.flight_recorder == 0 {
                    usage();
                }
            }
            _ if !a.starts_with('-') && args.path.is_none() => args.path = Some(a),
            _ => usage(),
        }
    }
    args
}

/// Writes `contents` to `path`, reporting failure on stderr.
fn write_file(path: &str, contents: &str) -> bool {
    match std::fs::write(path, contents) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("error: cannot write {path}: {e}");
            false
        }
    }
}

/// Exports one captured run as Perfetto JSON (plus a post-mortem bundle
/// when the run stalled). `counters` are pre-built counter-track events —
/// the time-series sampler's per-window metrics. Returns `false` on I/O
/// failure.
fn export_trace(path: &str, t: &tracecap::RunTrace, counters: Vec<wavesim_json::Value>) -> bool {
    let doc = wavesim_trace::perfetto::export_with_counters(&t.records, counters);
    if !write_file(path, &doc.compact()) {
        return false;
    }
    println!(
        "wrote trace: {path} ({} records kept, {} dropped of {})",
        t.records.len(),
        t.dropped,
        t.total
    );
    if let Some(pm) = &t.post_mortem {
        let pm_path = format!("{path}.postmortem.json");
        if !write_file(&pm_path, &pm.pretty()) {
            return false;
        }
        println!("run stalled — wrote post-mortem: {pm_path}");
    }
    true
}

/// Schema-checks a trace file: binary columnar streams (`--trace-bin`),
/// JSONL record streams (`--trace-jsonl`), and Perfetto exports
/// (`--trace-out`) are all recognised by content, not extension.
fn validate_trace(path: &str) -> bool {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return false;
        }
    };
    if wavesim_trace::stream::TraceFormat::detect(&bytes)
        == wavesim_trace::stream::TraceFormat::Columnar
    {
        return match wavesim_trace::read_columnar(&bytes) {
            Ok(records) => {
                println!(
                    "{path}: valid binary columnar trace — {} records ({} bytes)",
                    records.len(),
                    bytes.len()
                );
                true
            }
            Err(e) => {
                eprintln!("error: {path}: corrupt binary trace: {e}");
                false
            }
        };
    }
    let text = match std::str::from_utf8(&bytes) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {path}: neither a binary trace nor UTF-8 JSON: {e}");
            return false;
        }
    };
    // A JSONL record stream is many one-object lines; a Perfetto export is
    // one document. Try the record schema first so a single-record stream
    // is not misread as a malformed Perfetto file.
    if let Ok(records) = wavesim_trace::stream::read_jsonl(text) {
        if !records.is_empty() {
            println!(
                "{path}: valid JSONL record stream — {} records",
                records.len()
            );
            return true;
        }
    }
    let doc = match wavesim_json::Value::parse(text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {path}: invalid JSON: {e}");
            return false;
        }
    };
    match wavesim_trace::perfetto::validate(&doc) {
        Ok(s) => {
            println!(
                "{path}: valid Perfetto trace — {} events ({} spans, {} instants)",
                s.events, s.spans, s.instants
            );
            true
        }
        Err(e) => {
            eprintln!("error: {path}: {e}");
            false
        }
    }
}

/// `wavesim convert-trace IN --out FILE [--to jsonl|bin]` — lossless
/// conversion between the JSONL and binary columnar stream formats (the
/// input format is sniffed from its leading bytes).
fn convert_trace(args: &Args) -> bool {
    let Some(input) = &args.path else {
        eprintln!("error: convert-trace needs an input FILE operand");
        return false;
    };
    let Some(out) = &args.out else {
        eprintln!("error: convert-trace needs --out FILE");
        return false;
    };
    // Stream end to end: the reader decodes the input frame-by-frame and
    // the writer is the same chunked background sink the capture path
    // uses, so conversion runs in bounded memory at any capture size.
    use wavesim_trace::stream::TraceReader as _;
    let mut reader = match wavesim_trace::stream::stream_trace_file(std::path::Path::new(input)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {input}: {e}");
            return false;
        }
    };
    let (mut sink, what): (Box<dyn TraceSink>, &str) = if args.to_bin {
        match wavesim_trace::stream::ColumnarSink::create(std::path::Path::new(out)) {
            Ok(s) => (Box::new(s), "binary columnar"),
            Err(e) => {
                eprintln!("error: cannot write {out}: {e}");
                return false;
            }
        }
    } else {
        match wavesim_trace::stream::JsonlSink::create(std::path::Path::new(out)) {
            Ok(s) => (Box::new(s), "JSONL"),
            Err(e) => {
                eprintln!("error: cannot write {out}: {e}");
                return false;
            }
        }
    };
    let mut n: u64 = 0;
    while let Some(rec) = reader.next_record() {
        match rec {
            Ok(r) => {
                sink.record(r);
                n += 1;
            }
            Err(e) => {
                eprintln!("error: {input}: {e}");
                return false;
            }
        }
    }
    if let Err(e) = sink.finish() {
        eprintln!("error: cannot write {out}: {e}");
        return false;
    }
    let bytes = std::fs::metadata(out).map_or(0, |m| m.len());
    println!("converted {input} -> {out}: {n} records as {what} ({bytes} bytes)");
    true
}

/// Loads and applies `--fault-plan` / `--fault-schedule` files onto the
/// run's network, surfacing mismatches against the chosen topology/`k`
/// (a plan built for another network) as clean errors.
fn apply_fault_inputs(net: &mut WaveNetwork, args: &Args) -> bool {
    if let Some(path) = &args.fault_plan {
        let plan = match std::fs::File::open(path).map_err(|e| format!("cannot open: {e}")) {
            Ok(f) => match wavesim_workloads::trace_io::load_fault_plan(f) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("error: fault plan {path}: {e}");
                    return false;
                }
            },
            Err(e) => {
                eprintln!("error: fault plan {path}: {e}");
                return false;
            }
        };
        for &(link, s) in &plan.lanes {
            if let Err(e) = net.inject_lane_fault(LaneId::new(link, s)) {
                eprintln!("error: fault plan {path} does not fit this network: {e}");
                return false;
            }
        }
        println!(
            "applied static fault plan: {path} ({} lanes on {} links)",
            plan.len(),
            plan.faulted_links()
        );
    }
    if let Some(path) = &args.fault_schedule {
        let sched = match std::fs::File::open(path).map_err(|e| format!("cannot open: {e}")) {
            Ok(f) => match wavesim_workloads::trace_io::load_fault_schedule(f) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: fault schedule {path}: {e}");
                    return false;
                }
            },
            Err(e) => {
                eprintln!("error: fault schedule {path}: {e}");
                return false;
            }
        };
        if let Err(e) = sched.validate(net.topology(), net.config().k) {
            eprintln!("error: fault schedule {path} does not fit this network: {e}");
            return false;
        }
        if let Err(e) = wavesim_bench::apply_fault_schedule(net, &sched) {
            eprintln!("error: fault schedule {path} does not fit this network: {e}");
            return false;
        }
        println!("scheduled dynamic faults: {path} ({} events)", sched.len());
    }
    true
}

/// Builds the watchdog rule set from the `--watch-*` flags.
fn watchdog_config(args: &Args) -> wavesim_bench::watchdog::WatchdogConfig {
    wavesim_bench::watchdog::WatchdogConfig {
        stall_cycles: args.watch_stall,
        retry_limit: args.watch_retries,
        imbalance: args.watch_imbalance,
        deadlock: args.watch_deadlock,
        abort: args.watch_abort,
        post_mortem: args.watch_postmortem.as_ref().map(std::path::PathBuf::from),
    }
}

/// Arms the observers `run` and the experiments share: the flight
/// recorder (when `recorder`), the JSONL and binary streams (each
/// re-created at every run start), the watchdog rules, and the live board
/// with (for `--serve-metrics`) its HTTP endpoint. Everything the live
/// plane emits goes to stderr or the socket, so stdout stays
/// byte-identical to an unserved run. Returns `false` when a stream path
/// or the endpoint cannot be set up.
fn arm_observers(args: &Args, recorder: bool) -> bool {
    if recorder {
        tracecap::arm_flight_recorder(args.flight_recorder);
    }
    if let Some(path) = &args.trace_jsonl {
        if let Err(e) = tracecap::arm_jsonl_stream(std::path::Path::new(path)) {
            eprintln!("error: cannot stream to {path}: {e}");
            return false;
        }
    }
    if let Some(path) = &args.trace_bin {
        if let Err(e) = tracecap::arm_bin_stream(std::path::Path::new(path), args.trace_sample) {
            eprintln!("error: cannot stream to {path}: {e}");
            return false;
        }
    } else if args.trace_sample > 1 {
        eprintln!("note: --trace-sample applies to --trace-bin only; ignored");
    }
    let watch = watchdog_config(args);
    if watch.any() {
        wavesim_bench::watchdog::arm(watch);
    }
    if args.live_status || args.serve_metrics.is_some() {
        wavesim_bench::livestate::arm(args.live_status);
    }
    if let Some(addr) = &args.serve_metrics {
        match wavesim_bench::serve::serve(addr) {
            Ok(local) => {
                eprintln!("serving live metrics on http://{local}/metrics (JSON status at /status)")
            }
            Err(e) => {
                eprintln!("error: --serve-metrics {addr}: {e}");
                return false;
            }
        }
    }
    true
}

/// Reports the armed streams of the captured run `t`; `false` when one
/// failed.
fn report_streams(args: &Args, t: &tracecap::RunTrace) -> bool {
    for (kind, path) in [("JSONL", &args.trace_jsonl), ("binary", &args.trace_bin)] {
        let Some(path) = path else { continue };
        if let Some(e) = &t.stream_error {
            eprintln!("error: {kind} stream {path}: {e}");
            return false;
        }
        if kind == "binary" && args.trace_sample > 1 {
            println!(
                "wrote binary stream: {path} ({} records emitted, bulk kinds sampled 1-in-{})",
                t.total, args.trace_sample
            );
        } else {
            println!("wrote {kind} stream: {path} ({} records)", t.total);
        }
    }
    true
}

/// Prints every watched run's trips; returns `true` when any trip aborted
/// a run (the caller turns that into a nonzero exit).
fn print_watchdog_reports() -> bool {
    let mut aborted = false;
    for rep in wavesim_bench::watchdog::take_reports() {
        for t in &rep.trips {
            let name = match t.rule {
                1 => "stall",
                2 => "retry-storm",
                3 => "shard-imbalance",
                4 => "wait-cycle",
                _ => "unknown",
            };
            println!(
                "watchdog: {name} tripped at cycle {}: {} > limit {}",
                t.at, t.value, t.limit
            );
        }
        if let Some(p) = &rep.post_mortem {
            println!("watchdog: wrote post-mortem bundle: {}", p.display());
        }
        if rep.aborted {
            println!("watchdog: run aborted");
            aborted = true;
        }
    }
    aborted
}

/// What a `run` invocation produced: the open-loop and replay modes share
/// [`wavesim_bench::RunResult`]; the closed-loop service mode has its own
/// round-trip accounting.
enum RunOutcome {
    /// Open-loop traffic or a dependency-trace replay.
    Flat(wavesim_bench::RunResult),
    /// Closed-loop service traffic.
    Service(wavesim_bench::ServiceResult),
}

fn custom_run(args: &Args) -> bool {
    if args.replay_trace.is_some() && args.service_clients.is_some() {
        eprintln!("error: --replay-trace and --service-clients are mutually exclusive");
        return false;
    }
    let replay = match &args.replay_trace {
        Some(path) => match std::fs::File::open(path) {
            Ok(f) => match wavesim_workloads::trace_io::load_dep_trace(f) {
                Ok(t) => Some(t),
                Err(e) => {
                    eprintln!("error: replay trace {path}: {e}");
                    return false;
                }
            },
            Err(e) => {
                eprintln!("error: replay trace {path}: cannot open: {e}");
                return false;
            }
        },
        None => None,
    };
    let topo = if args.torus {
        Topology::torus(&[args.side, args.side])
    } else {
        Topology::mesh(&[args.side, args.side])
    };
    let cfg = WaveConfig {
        protocol: args.protocol,
        k: args.k,
        clock_multiplier: args.alpha,
        cache_capacity: args.cache,
        misroutes: args.misroutes,
        seed: args.seed,
        ..WaveConfig::default()
    };
    let mut net = WaveNetwork::new(topo.clone(), cfg);
    net.set_shards(args.shards);
    if !apply_fault_inputs(&mut net, args) {
        return false;
    }
    if let Some(t) = &replay {
        let n = topo.num_nodes();
        if let Some(m) = t
            .messages
            .iter()
            .find(|m| m.msg.src.0 >= n || m.msg.dest.0 >= n)
        {
            eprintln!(
                "error: replay trace message {} uses node {} but this {}x{} network has {n} nodes (generate with a matching --side)",
                m.msg.id.0,
                m.msg.src.0.max(m.msg.dest.0),
                args.side,
                args.side,
            );
            return false;
        }
    }
    let warmup = args.cycles / 5;
    let tracing = args.trace_out.is_some()
        || args.metrics_out.is_some()
        || args.trace_jsonl.is_some()
        || args.trace_bin.is_some();
    let sampling = args.timeseries_out.is_some() || args.progress.is_some();
    // A post-mortem bundle carries the flight recorder's tail, so make
    // sure one is recording even when no export flag armed it.
    let recorder = tracing || (args.watch_postmortem.is_some() && watchdog_config(args).any());
    if !arm_observers(args, recorder) {
        return false;
    }
    if sampling {
        // --progress doubles as the status cadence and the window width,
        // so each printed line covers exactly one closed window.
        wavesim_bench::timeseries::arm_sampler(
            args.progress.unwrap_or(args.window),
            args.progress.is_some(),
        );
    }
    let live_handle = args.live_analyze.then(|| {
        let (handle, sink) = wavesim_analyze::live_sink(wavesim_analyze::AnalyzeOptions {
            window: args.window,
            top_k: args.top,
            nodes: None,
            sample_factor: 1,
        });
        let mut slot = Some(sink);
        tracecap::arm_extra_sink(move || {
            Box::new(slot.take().expect("one live-analytics sink per run"))
        });
        handle
    });
    let outcome = if let Some(trace) = &replay {
        RunOutcome::Flat(wavesim_bench::run_dep_trace(
            &mut net,
            trace,
            RunSpec::replay(trace.horizon()),
        ))
    } else if let Some(clients) = args.service_clients {
        let mut wl = wavesim_workloads::ServiceWorkload::new(
            topo,
            wavesim_workloads::ServiceConfig {
                clients,
                locality: args.locality,
                seed: args.seed,
                ramp: warmup.max(1),
                stop_at: warmup + args.cycles,
                ..wavesim_workloads::ServiceConfig::default()
            },
        );
        RunOutcome::Service(wavesim_bench::run_service(
            &mut net,
            &mut wl,
            RunSpec::standard(warmup, args.cycles),
        ))
    } else {
        let mut src = TrafficSource::new(
            topo,
            TrafficConfig {
                load: args.load,
                pattern: if args.locality > 0.0 {
                    TrafficPattern::HotPairs {
                        partners: 3,
                        locality: args.locality,
                    }
                } else {
                    TrafficPattern::Uniform
                },
                len: LengthDist::Fixed(args.len),
                seed: args.seed,
                stop_at: u64::MAX,
            },
        );
        RunOutcome::Flat(run_open_loop(
            &mut net,
            &mut src,
            RunSpec::standard(warmup, args.cycles),
        ))
    };
    let watchdog_aborted = print_watchdog_reports();
    let counters = if sampling {
        let Some(series) = wavesim_bench::timeseries::take_series() else {
            eprintln!("error: sampler produced no series");
            return false;
        };
        if let Some(path) = &args.timeseries_out {
            let csv = wavesim_trace::timeseries::to_csv(&series.rows, series.nodes);
            if !write_file(path, &csv) {
                return false;
            }
            println!("wrote time series: {path} ({} windows)", series.rows.len());
        }
        wavesim_trace::timeseries::perfetto_counters(&series.rows, series.nodes)
    } else {
        Vec::new()
    };
    if tracing {
        let traces = tracecap::take_captured();
        let t = traces.last().expect("traced run captured");
        if !report_streams(args, t) {
            return false;
        }
        if let Some(path) = &args.trace_out {
            if !export_trace(path, t, counters) {
                return false;
            }
        }
        if let Some(path) = &args.metrics_out {
            match &outcome {
                RunOutcome::Flat(r) => {
                    let page = wavesim_bench::metrics::metrics_snapshot(&net, r, &t.records);
                    if !write_file(path, &page) {
                        return false;
                    }
                    println!("wrote metrics: {path}");
                }
                RunOutcome::Service(_) => {
                    eprintln!("note: --metrics-out applies to open-loop and replay runs; ignored");
                }
            }
        }
    }
    let mode = if let Some(path) = &args.replay_trace {
        format!("replay of {path}")
    } else if let Some(clients) = args.service_clients {
        format!("service ({clients} clients)")
    } else {
        "single run".to_string()
    };
    println!(
        "{mode}: {:?} on {}x{} {}",
        args.protocol,
        args.side,
        args.side,
        if args.torus { "torus" } else { "mesh" }
    );
    let (s, ok) = match &outcome {
        RunOutcome::Flat(r) => {
            if let Some(trace) = &replay {
                println!(
                    "  trace            : {} messages, {} roots, horizon {}",
                    trace.len(),
                    trace.num_roots(),
                    trace.horizon()
                );
            } else {
                println!(
                    "  offered load     : {} flits/node/cycle (len {} flits, locality {})",
                    args.load, args.len, args.locality
                );
            }
            println!("  sent / delivered : {} / {}", r.sent, r.delivered);
            println!(
                "  avg latency      : {:.1} cycles (p99 <= {})",
                r.avg_latency, r.p99_latency
            );
            if replay.is_some() {
                println!("  makespan         : {} cycles", r.end);
            } else {
                println!("  accepted thpt    : {:.3} flits/node/cycle", r.throughput);
            }
            println!("  circuit fraction : {:.1}%", r.circuit_fraction * 100.0);
            (r.wave, r.clean())
        }
        RunOutcome::Service(r) => {
            println!(
                "  requests         : {} issued / {} completed ({} clients retired)",
                r.requests, r.completed, r.retired
            );
            println!(
                "  avg round trip   : {:.1} cycles (p99 <= {})",
                r.avg_round_trip, r.p99_round_trip
            );
            (
                r.wave,
                r.drained && !r.stalled && (r.completed > 0 || r.requests == 0),
            )
        }
    };
    println!(
        "  probes {} (ok {} / exhausted {}), backtracks {}, misroutes {}",
        s.probes_sent, s.probes_reached, s.probes_exhausted, s.probe_backtracks, s.probe_misroutes
    );
    println!(
        "  cache hits {} / misses {} / evictions {}; forced releases {} local + {} remote",
        s.cache_hits,
        s.cache_misses,
        s.cache_evictions,
        s.forced_local_releases,
        s.forced_remote_releases
    );
    if args.fault_plan.is_some() || args.fault_schedule.is_some() {
        println!(
            "  faults: {} lane failures, {} repairs; {} circuits broken, {} retries",
            s.lane_faults, s.lane_repairs, s.circuits_broken, s.establish_retries
        );
    }
    let ok = ok && !watchdog_aborted;
    println!(
        "  verdict          : {}",
        if ok { "CLEAN" } else { "CHECK FAILED" }
    );
    if let Some(handle) = &live_handle {
        match wavesim_analyze::take_analysis(handle) {
            Some(a) => {
                println!();
                println!("live analytics (folded during the run):");
                print!("{}", wavesim_analyze::report::render(&a));
            }
            None => {
                eprintln!("error: live analytics produced no analysis");
                return false;
            }
        }
    }
    ok
}

/// `wavesim gen-trace --collective C [--side N] [--len N] [--seed N]
/// --out FILE` — emits one of E15's dependency-aware collective traces
/// for `run --replay-trace`. A `.jsonl` output name selects the
/// line-oriented stream format; anything else gets the pretty JSON
/// document (`load_dep_trace` sniffs either back in by content).
fn gen_trace_cmd(args: &Args) -> bool {
    let Some(which) = &args.collective else {
        eprintln!(
            "error: gen-trace needs --collective all-to-all|reduce|broadcast|transpose-sweep"
        );
        return false;
    };
    let Some(out) = &args.out else {
        eprintln!("error: gen-trace needs --out FILE");
        return false;
    };
    let known = ["all-to-all", "reduce", "broadcast", "transpose-sweep"];
    if !known.contains(&which.as_str()) {
        eprintln!(
            "error: unknown collective {which:?} (use {})",
            known.join("|")
        );
        return false;
    }
    let topo = if args.torus {
        Topology::torus(&[args.side, args.side])
    } else {
        Topology::mesh(&[args.side, args.side])
    };
    // transpose-sweep draws per-phase destinations from --seed; the tree
    // collectives are fully determined by the topology.
    let trace = if which == "transpose-sweep" {
        wavesim_workloads::collectives::pattern_sweep(
            &topo,
            TrafficPattern::Transpose,
            3,
            args.len,
            args.seed,
        )
    } else {
        experiments::e15_collectives::build_trace(&topo, which, args.len)
    };
    let file = match std::fs::File::create(out) {
        Ok(f) => std::io::BufWriter::new(f),
        Err(e) => {
            eprintln!("error: cannot write {out}: {e}");
            return false;
        }
    };
    let res = if out.ends_with(".jsonl") {
        wavesim_workloads::trace_io::save_dep_trace_jsonl(&trace, file)
    } else {
        wavesim_workloads::trace_io::save_dep_trace(&trace, file)
    };
    if let Err(e) = res {
        eprintln!("error: cannot write {out}: {e}");
        return false;
    }
    println!(
        "wrote {which} trace: {out} ({} messages, {} roots, horizon {})",
        trace.len(),
        trace.num_roots(),
        trace.horizon()
    );
    true
}

/// `wavesim analyze` — turns a captured record stream (JSONL or binary
/// columnar, sniffed by content) into the analytics report (tables on
/// stdout or `--report`, machine JSON via `--json`, windowed CSV via
/// `--timeseries`).
fn analyze_cmd(args: &Args) -> bool {
    let Some(path) = &args.trace_in else {
        eprintln!(
            "error: analyze needs --trace FILE (a stream from `run --trace-jsonl` or `run --trace-bin`)"
        );
        return false;
    };
    // Stream the capture record-by-record into the incremental engine:
    // peak memory is one frame, whatever the capture size, and the result
    // is identical to the offline fold by construction.
    use wavesim_trace::stream::TraceReader as _;
    let mut reader = match wavesim_trace::stream::stream_trace_file(std::path::Path::new(path)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return false;
        }
    };
    let mut live = wavesim_analyze::LiveAnalytics::new(wavesim_analyze::AnalyzeOptions {
        window: args.window,
        top_k: args.top,
        nodes: None,
        sample_factor: args.trace_sample.max(1),
    });
    while let Some(rec) = reader.next_record() {
        match rec {
            Ok(r) => live.fold(&r),
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return false;
            }
        }
    }
    let analysis = live.finish();
    let report = wavesim_analyze::report::render(&analysis);
    match &args.report_out {
        Some(out) => {
            if !write_file(out, &report) {
                return false;
            }
            println!("wrote report: {out}");
        }
        None => print!("{report}"),
    }
    if let Some(out) = &args.json_out {
        let doc = wavesim_analyze::report::to_json(&analysis);
        if !write_file(out, &doc.pretty()) {
            return false;
        }
        println!("wrote analysis JSON: {out}");
    }
    if let Some(out) = &args.timeseries_csv {
        let csv = wavesim_trace::timeseries::to_csv(&analysis.series, analysis.nodes);
        if !write_file(out, &csv) {
            return false;
        }
        println!(
            "wrote time series: {out} ({} windows)",
            analysis.series.len()
        );
    }
    true
}

fn run_experiments(ids: &[&str], scale: Scale, json: bool, jobs: usize, args: &Args) -> bool {
    let tracing =
        args.trace_out.is_some() || args.trace_jsonl.is_some() || args.trace_bin.is_some();
    let per_run_file =
        args.trace_jsonl.is_some() || args.trace_bin.is_some() || args.watch_postmortem.is_some();
    let jobs = if per_run_file && jobs > 1 {
        eprintln!(
            "note: per-run capture files force --jobs 1 (workers would truncate them at once)"
        );
        1
    } else {
        jobs
    };
    if args.metrics_out.is_some() {
        eprintln!("note: --metrics-out applies to `run` only; ignored for experiments");
    }
    if args.live_analyze {
        eprintln!("note: --live-analyze applies to `run` only; ignored for experiments");
    }
    if !arm_observers(args, tracing) {
        return false;
    }
    for id in ids {
        for table in experiments::run_by_id_with_jobs(id, scale, jobs) {
            if json {
                println!("{}", table.to_json().pretty());
            } else {
                table.print();
            }
        }
    }
    let watchdog_aborted = print_watchdog_reports();
    if tracing {
        // Experiments drive many runs; export the last one (for sweeps
        // this is the highest point — the most loaded, most interesting
        // trace). The streams were re-created per run and hold it too.
        match tracecap::take_captured().last() {
            Some(t) => {
                if !report_streams(args, t) {
                    return false;
                }
                if let Some(path) = &args.trace_out {
                    if !export_trace(path, t, Vec::new()) {
                        return false;
                    }
                }
            }
            None => eprintln!("note: no run captured; no trace written"),
        }
    }
    !watchdog_aborted
}

/// Builds a model-checker spec from the CLI flags. `--model` selects the
/// protocol automaton; `probe` is CLRP with the Force phase disabled, so
/// what is exercised is pure MB-m backtracking (Theorem 3's machinery).
fn model_spec(args: &Args) -> Result<wavesim_model::ModelSpec, String> {
    use wavesim_model::{ModelProtocol, ModelSpec, Mutation};
    let protocol = match args.model.as_deref() {
        Some("clrp") => ModelProtocol::Clrp,
        Some("carp") => ModelProtocol::Carp,
        Some("probe") => ModelProtocol::ClrpNoForce,
        Some(other) => return Err(format!("unknown model `{other}` (clrp | carp | probe)")),
        None => return Err("missing --model".into()),
    };
    // Exhaustive exploration wants the smallest non-degenerate fabric:
    // 2x2 mesh, 3x3 torus (the torus constructor requires radix >= 3).
    let side = if args.side_set {
        args.side
    } else if args.torus {
        3
    } else {
        2
    };
    let topo = if args.torus {
        Topology::torus(&[side, side])
    } else {
        Topology::mesh(&[side, side])
    };
    let mut spec = ModelSpec::new(topo, protocol, args.k);
    if args.msg_list.is_empty() {
        spec = spec.msgs_from_pattern(TrafficPattern::Uniform, args.msgs, args.seed);
    } else {
        for m in &args.msg_list {
            let (s, d) = m
                .split_once(':')
                .ok_or_else(|| format!("--msg wants SRC:DEST, got `{m}`"))?;
            let s: u32 = s.parse().map_err(|_| format!("bad --msg source `{s}`"))?;
            let d: u32 = d.parse().map_err(|_| format!("bad --msg dest `{d}`"))?;
            spec = spec.msg(s, d);
        }
    }
    if let Some(m) = &args.mutate {
        spec = spec.mutate(Mutation::parse(m)?);
    }
    if args.fault {
        spec = spec.fault_on_first_path(args.repair);
    }
    Ok(spec)
}

/// Writes a counterexample's concrete replay trace (JSONL, or `WSTRACE1`
/// columnar when the path ends in `.bin`), ready for `validate-trace`.
fn write_counterexample(
    spec: &wavesim_model::ModelSpec,
    cx: &wavesim_model::Counterexample,
    path: &str,
) -> bool {
    let rep = wavesim_model::replay_schedule(spec, &cx.schedule);
    let ok = if path.ends_with(".bin") {
        std::fs::write(path, rep.columnar()).map_err(|e| e.to_string())
    } else {
        std::fs::write(path, rep.jsonl()).map_err(|e| e.to_string())
    };
    if let Err(e) = ok {
        eprintln!("error: cannot write {path}: {e}");
        return false;
    }
    println!(
        "wrote counterexample replay trace: {path} ({} records; real network {})",
        rep.records.len(),
        if rep.survived() {
            "survives the stimulus — the flaw is model-only"
        } else {
            "reproduces the failure"
        }
    );
    true
}

/// Describes a model spec on one line (header for check/fuzz output).
fn describe_spec(spec: &wavesim_model::ModelSpec) -> String {
    format!(
        "model={:?} k={} msgs={:?} fault={:?} mutation={}",
        spec.protocol,
        spec.k,
        spec.msgs
            .iter()
            .map(|(s, d)| (s.0, d.0))
            .collect::<Vec<_>>(),
        spec.fault,
        spec.mutation.name(),
    )
}

/// Exhaustive model check (`wavesim check --model …`). Returns `false`
/// (nonzero exit) on violation or an exhausted state budget.
fn model_check(args: &Args) -> bool {
    let spec = match model_spec(args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return false;
        }
    };
    println!("exhaustive model check: {}", describe_spec(&spec));
    let out = wavesim_model::check(&spec, args.max_states);
    println!(
        "explored {} states / {} transitions, depth {}, {} wait-graphs checked",
        out.states, out.transitions, out.depth, out.wait_checked
    );
    println!("{}", out.verdict());
    if let Some(cx) = &out.violation {
        let cx = wavesim_model::shrink(&spec, cx);
        println!("shrunk schedule ({} actions):", cx.schedule.len());
        print!("{}", cx.render());
        if let Some(path) = &args.counterexample {
            if !write_counterexample(&spec, &cx, path) {
                return false;
            }
        }
        return false;
    }
    out.proved()
}

/// Randomized schedule fuzzing (`wavesim fuzz`). Returns `false` on a
/// violation.
fn fuzz_cmd(args: &Args) -> bool {
    let spec = match model_spec(args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return false;
        }
    };
    println!("schedule fuzz: {}", describe_spec(&spec));
    let cfg = wavesim_model::FuzzConfig {
        seed: args.seed,
        runs: args.runs,
        max_steps: args.steps,
        fault_churn: !args.fault,
    };
    let out = wavesim_model::fuzz(&spec, &cfg);
    println!("{}", out.verdict());
    if let Some((variant, cx)) = &out.violation {
        println!("violating variant: {}", describe_spec(variant));
        println!("shrunk schedule ({} actions):", cx.schedule.len());
        print!("{}", cx.render());
        if let Some(path) = &args.counterexample {
            if !write_counterexample(variant, cx, path) {
                return false;
            }
        }
        return false;
    }
    true
}

fn static_checks(side: u16) -> bool {
    let mut ok = true;
    let cases: Vec<(String, Topology, RoutingKind, u8)> = vec![
        (
            format!("{side}x{side} mesh, deterministic DOR"),
            Topology::mesh(&[side, side]),
            RoutingKind::Deterministic,
            2,
        ),
        (
            format!("{side}x{side} torus, dateline DOR"),
            Topology::torus(&[side, side]),
            RoutingKind::Deterministic,
            2,
        ),
        (
            format!("{side}x{side} mesh, Duato adaptive"),
            Topology::mesh(&[side, side]),
            RoutingKind::Adaptive,
            3,
        ),
        (
            format!("{side}x{side} torus, Duato adaptive"),
            Topology::torus(&[side, side]),
            RoutingKind::Adaptive,
            3,
        ),
    ];
    println!("static channel-dependency-graph checks (paper §4 grounding):");
    for (name, topo, kind, w) in cases {
        let routing = kind.build(&topo, w);
        let rep = check_deadlock_freedom(&topo, routing.as_ref());
        println!(
            "  {name:<40} mode={:?} vertices={} edges={} -> {}",
            rep.mode,
            rep.vertices,
            rep.edges,
            if rep.deadlock_free {
                "DEADLOCK-FREE"
            } else {
                ok = false;
                "CYCLE FOUND"
            }
        );
    }
    ok
}

fn info() {
    let cfg = WaveConfig::default();
    println!("wavesim — wave switching (Duato/Lopez/Yalamanchili, IPPS'97) reproduction");
    println!("default configuration:");
    println!("  wave switches per router (k) : {}", cfg.k);
    println!("  wave clock multiplier (alpha): {}", cfg.clock_multiplier);
    println!("  channel split (sigma)        : {}", cfg.channel_split);
    println!(
        "  per-circuit lane bandwidth   : {}/{} flits/cycle",
        cfg.lane_rate().0,
        cfg.lane_rate().1
    );
    println!("  windowing window             : {} flits", cfg.window);
    println!("  MB-m misroute budget (m)     : {}", cfg.misroutes);
    println!("  circuit cache entries/node   : {}", cfg.cache_capacity);
    println!("  replacement policy           : {:?}", cfg.replacement);
    println!("  wormhole VCs per link (w)    : {}", cfg.wormhole.w);
    println!(
        "  wormhole buffer depth        : {}",
        cfg.wormhole.buffer_depth
    );
    println!();
    println!("experiments: {}", experiments::all_ids().join(", "));
}

fn main() -> ExitCode {
    let args = parse_args();
    match args.cmd.as_str() {
        "all" => {
            if !run_experiments(
                &experiments::all_ids(),
                args.scale,
                args.json,
                args.jobs,
                &args,
            ) {
                return ExitCode::FAILURE;
            }
        }
        "check" => {
            let ok = if args.model.is_some() {
                model_check(&args)
            } else {
                static_checks(args.side)
            };
            if !ok {
                return ExitCode::FAILURE;
            }
        }
        "fuzz" => {
            if !fuzz_cmd(&args) {
                return ExitCode::FAILURE;
            }
        }
        "info" => info(),
        "run" => {
            if !custom_run(&args) {
                return ExitCode::FAILURE;
            }
        }
        "gen-trace" => {
            if !gen_trace_cmd(&args) {
                return ExitCode::FAILURE;
            }
        }
        "analyze" => {
            if !analyze_cmd(&args) {
                return ExitCode::FAILURE;
            }
        }
        "validate-trace" => {
            let path = args.path.clone().unwrap_or_else(|| usage());
            if !validate_trace(&path) {
                return ExitCode::FAILURE;
            }
        }
        "convert-trace" => {
            if !convert_trace(&args) {
                return ExitCode::FAILURE;
            }
        }
        id if experiments::all_ids().contains(&id) => {
            if !run_experiments(&[id], args.scale, args.json, args.jobs, &args) {
                return ExitCode::FAILURE;
            }
        }
        _ => usage(),
    }
    ExitCode::SUCCESS
}
