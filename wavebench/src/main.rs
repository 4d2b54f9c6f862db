//! Benchmark worker for wavesim.
//!
//! Runs one workload once in this process and prints one JSON line on
//! stdout: the set-up times, the measured phase's host wall and CPU time,
//! the process's peak resident memory by the phase's end, the outcome of
//! every correctness check and, with `--trace 1`, the per-layer numbers.
//! `run.py` starts one worker per sample, so each sample's CPU time and
//! memory are its own, and folds the samples into the benchmark's metrics.
//!
//! Every time here is host time. Simulated statistics are deterministic and
//! serve as checks, never as metrics.
//!
//! ```text
//! wavebench WORKLOAD [--seed N] [--trace 0|1] [--full-check 0|1] [--workdir DIR]
//! ```

mod capture;
mod model;
mod timers;
mod wormhole;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use wavesim_bench::RunResult;
use wavesim_json::Value;

/// The seed every pinned fingerprint and count was taken at.
pub const PINNED_SEED: u64 = 1;

/// Set-ups per sample; `run.py` reports the median over all of a run's.
pub const SETUPS: usize = 15;

/// One correctness check and its outcome.
pub struct Check {
    name: &'static str,
    ok: bool,
    detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: impl Into<String>) -> Self {
        Self {
            name,
            ok,
            detail: detail.into(),
        }
    }
}

/// Per-layer numbers of a traced run. A workload reports the layers it
/// loads; the rest are bypassed and read 0.
pub type Layers = Vec<(&'static str, f64)>;

/// Every per-layer metric, in emission order (the `per_layer` list of
/// `BENCHMARK.json`).
const LAYERS: [&str; 42] = [
    "network.band_s",
    "network.band_max_s",
    "network.band_imbalance",
    "network.ns_per_router_scan",
    "network.routers_scanned",
    "network.vcs_touched",
    "network.shard2_wall_s",
    "network.shard2_speedup",
    "core.tick_s",
    "core.tick_p50_us",
    "core.tick_p99_us",
    "core.tick_outside_bands_s",
    "core.probes_sent",
    "core.probe_success_ratio",
    "core.probe_backtracks",
    "core.probe_misroutes",
    "core.events_routed",
    "core.send_s",
    "core.cache_hit_ratio",
    "core.circuit_fraction",
    "workloads.poll_s",
    "workloads.msgs",
    "bench.collect_s",
    "bench.observers_s",
    "bench.advance_s",
    "verify.monitor_s",
    "verify.livelock_s",
    "trace.capture_s",
    "trace.decode_bin_s",
    "trace.encode_jsonl_s",
    "trace.decode_jsonl_s",
    "trace.encode_bin_s",
    "trace.records",
    "trace.bin_bytes",
    "analyze.fold_s",
    "model.explore_s",
    "model.lasso_s",
    "model.states",
    "model.transitions",
    "model.wait_graphs",
    "model.us_per_state",
    "layer_timer_overhead_pct",
];

/// What one worker process measured.
pub struct Sample {
    /// Each set-up's host wall time, seconds.
    pub setup_s: Vec<f64>,
    pub measured: Measured,
    /// Fabric shards of the run whose metrics are reported: the measured
    /// phase, or with `--trace 1` the traced run (1: the serial kernel; the
    /// model checker has no fabric and counts as serial).
    pub shards: usize,
    /// Threads busy at once in that run.
    pub threads: usize,
    /// Deterministic digest of the run's outcome, for re-pinning.
    pub fingerprint: u64,
    pub checks: Vec<Check>,
    /// Present with `--trace 1`.
    pub layers: Option<Layers>,
}

/// The run's options, as parsed from the command line.
pub struct Opts {
    pub seed: u64,
    pub traced: bool,
    /// Also run the checks that cost a second run of the workload
    /// (`run.py` asks for them on a run's first sample).
    pub full_check: bool,
    pub workdir: PathBuf,
}

/// Runs the set-up `f` [`SETUPS`] times, timing each, and returns the
/// last one's result with every set-up's time in seconds.
pub fn set_up<T>(mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let (b, d) = timed(&mut f);
        times.push(d.as_secs_f64());
        built = Some(b);
    }
    (built.expect("SETUPS is not 0"), times)
}

/// The check every simulation run must pass: drained, not stalled, and
/// probes within their step bound.
pub fn clean_check(r: &RunResult) -> Check {
    Check::new(
        "run_clean",
        r.clean(),
        format!(
            "sent {} delivered {} drained {} stalled {} probe steps {}/{}",
            r.sent, r.delivered, r.drained, r.stalled, r.max_probe_steps, r.probe_step_bound
        ),
    )
}

/// What the measured phase cost.
pub struct Measured {
    /// Host wall time.
    pub wall: Duration,
    /// User plus system CPU time (all threads), seconds.
    pub cpu_s: f64,
    /// The process's peak resident memory at the phase's end, MiB; the
    /// checks that follow do not count.
    pub peak_rss_mb: f64,
}

/// Runs the measured phase `f`, with no layer timers.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Measured) {
    let (cpu0, t0) = (cpu_seconds(), Instant::now());
    let out = f();
    let wall = t0.elapsed();
    let cpu_s = cpu_seconds() - cpu0;
    let m = Measured {
        wall,
        cpu_s,
        peak_rss_mb: peak_rss_mb(),
    };
    (out, m)
}

/// Runs `f` and returns its result with the host wall time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's clock of the CPU time the whole process has used.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU time of this process so far, seconds, with every
/// thread counted, exited ones too. The clock has nanosecond resolution,
/// which `/proc/self/stat`'s 10 ms ticks lack.
fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec`, whose two fields
    // are 64-bit on the 64-bit Linux targets this crate builds for (see the
    // `compile_error!` below), and the clock id is a valid Linux clock.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark worker reads Linux clocks and /proc on 64-bit Linux only");

/// Peak resident set size of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status reports VmHWM");
    kb as f64 / 1024.0
}

/// FNV-1a over `bytes`, the digest the repository's goldens use.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn parse_opts(argv: &[String]) -> Result<(String, Opts), String> {
    let mut it = argv.iter();
    let workload = it.next().ok_or("missing WORKLOAD")?.clone();
    let mut opts = Opts {
        seed: PINNED_SEED,
        traced: false,
        full_check: false,
        workdir: PathBuf::from("."),
    };
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            val.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number `{val}`"))
        };
        match flag.as_str() {
            "--seed" => opts.seed = num()?,
            "--trace" => opts.traced = num()? != 0,
            "--full-check" => opts.full_check = num()? != 0,
            "--workdir" => opts.workdir = PathBuf::from(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload, opts))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse_opts(&argv) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: wavebench WORKLOAD [--seed N] [--trace 0|1] [--full-check 0|1] [--workdir DIR]"
            );
            return ExitCode::from(2);
        }
    };
    let sample = match workload.as_str() {
        "capture_analyze_16" => capture::run(&opts),
        "model_clrp_torus4" => model::run(&opts),
        "wormhole_64" => wormhole::run(&opts),
        name => {
            eprintln!("error: unknown workload `{name}`");
            return ExitCode::from(2);
        }
    };
    let checks: Vec<Value> = sample
        .checks
        .iter()
        .map(|c| {
            Value::obj(vec![
                ("name", c.name.into()),
                ("ok", c.ok.into()),
                ("detail", c.detail.as_str().into()),
            ])
        })
        .collect();
    let mut out = vec![
        ("workload", workload.as_str().into()),
        ("seed", opts.seed.into()),
        (
            "cpus",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get() as u64)
                .into(),
        ),
        ("shards", (sample.shards as u64).into()),
        ("threads", (sample.threads as u64).into()),
        (
            "setup_s",
            Value::Arr(sample.setup_s.iter().map(|&s| s.into()).collect()),
        ),
        ("wall_s", sample.measured.wall.as_secs_f64().into()),
        ("cpu_s", sample.measured.cpu_s.into()),
        ("peak_rss_mb", sample.measured.peak_rss_mb.into()),
        (
            "fingerprint",
            format!("{:#018x}", sample.fingerprint).into(),
        ),
        ("checks", Value::Arr(checks)),
    ];
    if let Some(layers) = &sample.layers {
        for (name, _) in layers {
            assert!(LAYERS.contains(name), "layer `{name}` missing from LAYERS");
        }
        let value = |name: &str| layers.iter().find(|(n, _)| *n == name).map_or(0.0, |l| l.1);
        let all = LAYERS
            .iter()
            .map(|&n| (n.to_string(), value(n).into()))
            .collect();
        out.push(("layers", Value::Obj(all)));
    }
    println!("{}", Value::obj(out).compact());
    ExitCode::SUCCESS
}
