//! Flight-recorder capture: the trace observer (`RunObserver`) of the
//! measurement loops.
//!
//! The golden-hash determinism suite pins the `Debug` output of
//! [`crate::RunResult`], so tracing output cannot ride on the result
//! struct. Instead a caller [`arm_flight_recorder`]s its thread (and/or
//! arms a JSONL or binary stream), every subsequent [`crate::drive`] call
//! installs a fresh [`FlightRecorder`] into the network for the duration
//! of the run, and the captured [`RunTrace`]s are retrieved with
//! [`take_captured`]. [`crate::ParallelSweep`] carries the arming into its
//! workers and returns their traces in point order.
//!
//! When a run trips the deadlock monitor, the capture additionally holds a
//! post-mortem bundle: the recorder tail plus the wormhole fabric's
//! wait-for graph (and the circular wait inside it, if one exists) at the
//! stall cycle.

use std::path::{Path, PathBuf};

use wavesim_core::WaveNetwork;
use wavesim_json::Value;
use wavesim_sim::Cycle;
use wavesim_trace::postmortem::{self, StallContext};
use wavesim_trace::recorder::TeeSink;
use wavesim_trace::{ColumnarSink, FlightRecorder, JsonlSink, TraceRecord, TraceSink};
use wavesim_verify::deadlock::find_wait_cycle;

use crate::observer::{Outputs, RunObserver, OUTPUTS, PLAN};
use crate::Drained;

/// Ring capacity used when only a byte stream is armed: the stream is
/// lossless on disk, so the in-memory tail only has to feed a post-mortem.
const DEFAULT_RING: usize = 1 << 16;

/// Makes the extra sink of [`arm_extra_sink`], once per run.
pub(crate) type ExtraFactory = Box<dyn FnMut() -> Box<dyn TraceSink> + Send>;

/// What a thread's traced runs capture.
#[derive(Clone, Default)]
pub(crate) struct CapturePlan {
    /// Flight-recorder capacity; `None` means the default ring, and only
    /// when a stream or extra sink asks for a capture at all.
    recorder: Option<usize>,
    /// JSONL stream path, re-created at every run start.
    jsonl: Option<PathBuf>,
    /// Binary stream path and bulk-kind sampling divisor.
    bin: Option<(PathBuf, u64)>,
}

/// One run's flight-recorder contents plus outcome metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTrace {
    /// Surviving records, oldest first.
    pub records: Vec<TraceRecord>,
    /// Records overwritten by ring wraparound.
    pub dropped: u64,
    /// Records emitted over the whole run.
    pub total: u64,
    /// Cycle at which the run ended.
    pub end: Cycle,
    /// True when the deadlock monitor tripped.
    pub stalled: bool,
    /// Post-mortem bundle; present only when the run stalled.
    pub post_mortem: Option<Value>,
    /// Error from creating or flushing an armed stream, if one occurred.
    pub stream_error: Option<String>,
}

/// Arms the current thread: every subsequent [`crate::drive`] call records
/// into a fresh [`FlightRecorder`] with `capacity` slots and appends a
/// [`RunTrace`] retrievable via [`take_captured`].
///
/// # Panics
/// Panics if `capacity` is zero (a flight recorder needs at least one
/// slot).
pub fn arm_flight_recorder(capacity: usize) {
    assert!(capacity > 0, "a flight recorder needs at least one slot");
    PLAN.with_borrow_mut(|p| p.capture.recorder = Some(capacity));
}

/// Disarms the current thread's recorder; already-captured traces stay
/// retrievable.
pub fn disarm_flight_recorder() {
    PLAN.with_borrow_mut(|p| p.capture.recorder = None);
}

/// Takes (and clears) the traces captured on this thread so far.
#[must_use]
pub fn take_captured() -> Vec<RunTrace> {
    OUTPUTS.with_borrow_mut(|o| std::mem::take(&mut o.traces))
}

/// Creates (truncating) `path` now, so an unwritable path fails at arm
/// time rather than mid-sweep.
fn created(path: &Path) -> Result<PathBuf, String> {
    std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.to_path_buf())
}

/// Streams every subsequent [`crate::drive`] call on this thread to `path`
/// as lossless JSONL, re-creating (truncating) the file at each run start:
/// after a sweep it holds the last run, like the exported flight-recorder
/// trace. Composes with [`arm_flight_recorder`]: the ring keeps the
/// post-mortem tail while the stream captures everything. Cleared by
/// [`disarm_jsonl_stream`].
///
/// # Errors
/// Fails if `path` cannot be created.
pub fn arm_jsonl_stream(path: &Path) -> Result<(), String> {
    let path = created(path)?;
    PLAN.with_borrow_mut(|p| p.capture.jsonl = Some(path));
    Ok(())
}

/// Clears the armed JSONL stream.
pub fn disarm_jsonl_stream() {
    PLAN.with_borrow_mut(|p| p.capture.jsonl = None);
}

/// The binary columnar twin of [`arm_jsonl_stream`]. `sample_every` of 0
/// or 1 captures losslessly; N > 1 keeps 1-in-N of the bulk kinds
/// deterministically (see
/// [`wavesim_trace::stream::StreamSink::with_sampling`]). Cleared by
/// [`disarm_bin_stream`].
///
/// # Errors
/// Fails if `path` cannot be created.
pub fn arm_bin_stream(path: &Path, sample_every: u64) -> Result<(), String> {
    let path = created(path)?;
    PLAN.with_borrow_mut(|p| p.capture.bin = Some((path, sample_every)));
    Ok(())
}

/// Clears the armed binary stream.
pub fn disarm_bin_stream() {
    PLAN.with_borrow_mut(|p| p.capture.bin = None);
}

/// Arms an extra trace sink for *every* subsequent [`crate::drive`] call
/// on this thread: `factory` is invoked at each run start and its sink is
/// teed beside the capture sinks (the flight recorder stays the
/// query-answering primary). The live-observability plane rides here —
/// the CLI arms a [`wavesim-analyze`] streaming fold without
/// `wavesim-bench` depending on that crate. Sweep workers do not inherit
/// it. Cleared by [`disarm_extra_sink`].
///
/// [`wavesim-analyze`]: https://docs.rs/wavesim-analyze
pub fn arm_extra_sink(factory: impl FnMut() -> Box<dyn TraceSink> + Send + 'static) {
    PLAN.with_borrow_mut(|p| p.extra = Some(Box::new(factory)));
}

/// Clears the extra-sink factory.
pub fn disarm_extra_sink() {
    PLAN.with_borrow_mut(|p| p.extra = None);
}

impl CapturePlan {
    /// The capture observer for one run, if anything is armed.
    pub(crate) fn observer(
        &self,
        extra: Option<&mut ExtraFactory>,
    ) -> Option<Box<dyn RunObserver>> {
        let extra = extra.map(|make| make());
        if self.recorder.is_none() && self.jsonl.is_none() && self.bin.is_none() && extra.is_none()
        {
            return None;
        }
        Some(Box::new(Capture {
            plan: self.clone(),
            extra,
            stream_error: None,
        }))
    }
}

/// The capture observer: a flight recorder, optionally teed into JSONL
/// and/or binary columnar streams and an extra sink (the recorder stays
/// the query-answering primary through the nested tees).
struct Capture {
    plan: CapturePlan,
    extra: Option<Box<dyn TraceSink>>,
    /// The first stream that could not be created this run.
    stream_error: Option<String>,
}

impl RunObserver for Capture {
    fn start(&mut self, net: &mut WaveNetwork) {
        let plan = &self.plan;
        let ring = plan.recorder.unwrap_or(DEFAULT_RING);
        let mut sink: Box<dyn TraceSink> = Box::new(FlightRecorder::new(ring));
        let jsonl = plan.jsonl.as_ref().map(|path| {
            let made = JsonlSink::create(path).map(|s| Box::new(s) as Box<dyn TraceSink>);
            (path, made)
        });
        let bin = plan.bin.as_ref().map(|(path, sample)| {
            let made = ColumnarSink::create(path)
                .map(|s| Box::new(s.with_sampling(*sample)) as Box<dyn TraceSink>);
            (path, made)
        });
        for (path, made) in [jsonl, bin].into_iter().flatten() {
            match made {
                Ok(s) => sink = Box::new(TeeSink::new(sink, s)),
                Err(e) => {
                    self.stream_error
                        .get_or_insert_with(|| format!("{}: {e}", path.display()));
                }
            }
        }
        if let Some(s) = self.extra.take() {
            sink = Box::new(TeeSink::new(sink, s));
        }
        net.install_trace_sink(sink);
    }

    /// Removes the recorder, snapshots it, and files the [`RunTrace`] —
    /// with a post-mortem bundle when the run stalled.
    fn finish(self: Box<Self>, net: &mut WaveNetwork, outcome: Drained, out: &mut Outputs) {
        let Some(mut sink) = net.take_trace_sink() else {
            return;
        };
        let flushed = sink.finish();
        let stream_error = self.stream_error.or(flushed.err());
        let records = sink.snapshot();
        let dropped = sink.dropped();
        let total = sink.total();
        let post_mortem = outcome
            .stalled
            .then(|| post_mortem(net, &records, dropped, total, outcome.end));
        out.traces.push(RunTrace {
            records,
            dropped,
            total,
            end: outcome.end,
            stalled: outcome.stalled,
            post_mortem,
            stream_error,
        });
    }
}

/// The post-mortem bundle at `now`: the recorder tail (`records` of
/// `total`, `dropped` overwritten) plus the wormhole fabric's wait-for
/// graph and the circular wait inside it, if one exists.
pub(crate) fn post_mortem(
    net: &WaveNetwork,
    records: &[TraceRecord],
    dropped: u64,
    total: u64,
    now: Cycle,
) -> Value {
    let fabric = net.fabric();
    let edges = fabric.wait_edges();
    let cycle = find_wait_cycle(&edges);
    let ctx = StallContext {
        edges: &edges,
        cycle: cycle.as_deref(),
        now,
        stall_age: fabric.progress_age(now),
        in_flight: fabric.in_flight_flits(),
    };
    postmortem::bundle(records, dropped, total, &ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_open_loop, RunSpec};
    use wavesim_core::{WaveConfig, WaveNetwork};
    use wavesim_topology::Topology;
    use wavesim_workloads::{LengthDist, TrafficConfig, TrafficSource};

    fn traced_run() -> (crate::RunResult, Vec<RunTrace>) {
        let mut net = WaveNetwork::new(Topology::mesh(&[4, 4]), WaveConfig::default());
        let mut src = TrafficSource::new(
            net.topology().clone(),
            TrafficConfig {
                load: 0.1,
                len: LengthDist::Fixed(32),
                ..TrafficConfig::default()
            },
        );
        arm_flight_recorder(1 << 16);
        let r = run_open_loop(&mut net, &mut src, RunSpec::standard(200, 1_000));
        disarm_flight_recorder();
        (r, take_captured())
    }

    #[test]
    fn armed_drive_captures_one_trace_per_run() {
        let (r, traces) = traced_run();
        assert!(r.clean(), "{r:?}");
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert!(!t.stalled);
        assert!(t.post_mortem.is_none());
        assert_eq!(t.end, r.end);
        assert!(t.total > 0);
        assert_eq!(t.records.len() as u64 + t.dropped, t.total);
        // Seq numbers are gap-free over the surviving tail.
        for w in t.records.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1);
        }
    }

    #[test]
    fn tracing_does_not_change_the_schedule() {
        let baseline = {
            let mut net = WaveNetwork::new(Topology::mesh(&[4, 4]), WaveConfig::default());
            let mut src = TrafficSource::new(
                net.topology().clone(),
                TrafficConfig {
                    load: 0.1,
                    len: LengthDist::Fixed(32),
                    ..TrafficConfig::default()
                },
            );
            format!(
                "{:?}",
                run_open_loop(&mut net, &mut src, RunSpec::standard(200, 1_000))
            )
        };
        let (r, _) = traced_run();
        assert_eq!(baseline, format!("{r:?}"));
    }

    #[test]
    fn jsonl_stream_tees_full_run_to_disk() {
        let path = std::env::temp_dir().join(format!(
            "wavesim_tracecap_stream_{}.jsonl",
            std::process::id()
        ));
        let mut net = WaveNetwork::new(Topology::mesh(&[4, 4]), WaveConfig::default());
        let mut src = TrafficSource::new(
            net.topology().clone(),
            TrafficConfig {
                load: 0.1,
                len: LengthDist::Fixed(32),
                ..TrafficConfig::default()
            },
        );
        arm_flight_recorder(64); // tiny ring: the stream must still be lossless
        arm_jsonl_stream(&path).expect("create stream");
        let r = run_open_loop(&mut net, &mut src, RunSpec::standard(200, 1_000));
        disarm_flight_recorder();
        disarm_jsonl_stream();
        let traces = take_captured();
        assert!(r.clean(), "{r:?}");
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert!(t.stream_error.is_none(), "{:?}", t.stream_error);
        assert!(t.dropped > 0, "the tiny ring must have wrapped");
        let streamed = wavesim_trace::stream::read_jsonl_file(&path).expect("parse");
        std::fs::remove_file(&path).ok();
        // The file holds every record the ring was offered, gap-free.
        assert_eq!(streamed.len() as u64, t.total);
        for w in streamed.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1);
        }
        // The ring tail is a suffix of the stream.
        let tail = &streamed[streamed.len() - t.records.len()..];
        assert_eq!(tail, &t.records[..]);
    }

    #[test]
    fn stream_keeps_the_last_run_of_a_sweep() {
        let path = std::env::temp_dir().join(format!(
            "wavesim_tracecap_per_run_{}.jsonl",
            std::process::id()
        ));
        arm_flight_recorder(1 << 16);
        arm_jsonl_stream(&path).expect("create stream");
        let mut last_total = 0;
        for cycles in [400u64, 900] {
            let mut net = WaveNetwork::new(Topology::mesh(&[4, 4]), WaveConfig::default());
            let mut src = TrafficSource::new(
                net.topology().clone(),
                TrafficConfig {
                    load: 0.1,
                    len: LengthDist::Fixed(32),
                    ..TrafficConfig::default()
                },
            );
            let r = run_open_loop(&mut net, &mut src, RunSpec::standard(100, cycles));
            assert!(r.clean(), "{r:?}");
        }
        disarm_flight_recorder();
        disarm_jsonl_stream();
        let traces = take_captured();
        assert_eq!(traces.len(), 2);
        for t in &traces {
            assert!(t.stream_error.is_none(), "{:?}", t.stream_error);
            last_total = t.total;
        }
        // The file was truncated per run, so it holds exactly the last one.
        let streamed = wavesim_trace::stream::read_jsonl_file(&path).expect("parse");
        std::fs::remove_file(&path).ok();
        assert_eq!(streamed.len() as u64, last_total);
        assert_eq!(streamed[0].seq, 0, "re-armed stream restarts at seq 0");
    }

    #[test]
    fn bin_stream_matches_jsonl_stream_exactly() {
        let pid = std::process::id();
        let jpath = std::env::temp_dir().join(format!("wavesim_tracecap_bj_{pid}.jsonl"));
        let bpath = std::env::temp_dir().join(format!("wavesim_tracecap_bj_{pid}.wstrace"));
        let mut net = WaveNetwork::new(Topology::mesh(&[4, 4]), WaveConfig::default());
        let mut src = TrafficSource::new(
            net.topology().clone(),
            TrafficConfig {
                load: 0.1,
                len: LengthDist::Fixed(32),
                ..TrafficConfig::default()
            },
        );
        arm_jsonl_stream(&jpath).expect("create jsonl stream");
        arm_bin_stream(&bpath, 0).expect("create bin stream");
        let r = run_open_loop(&mut net, &mut src, RunSpec::standard(200, 1_000));
        disarm_jsonl_stream();
        disarm_bin_stream();
        let traces = take_captured();
        assert!(r.clean(), "{r:?}");
        assert!(
            traces[0].stream_error.is_none(),
            "{:?}",
            traces[0].stream_error
        );
        let jsonl = wavesim_trace::stream::read_jsonl_file(&jpath).expect("parse jsonl");
        let bin = wavesim_trace::read_trace_file(&bpath).expect("decode bin");
        let jsonl_bytes = std::fs::metadata(&jpath).expect("stat").len();
        let bin_bytes = std::fs::metadata(&bpath).expect("stat").len();
        std::fs::remove_file(&jpath).ok();
        std::fs::remove_file(&bpath).ok();
        assert!(!bin.is_empty());
        assert_eq!(bin, jsonl, "both formats capture the identical stream");
        assert!(
            bin_bytes * 4 <= jsonl_bytes,
            "binary must be at most a quarter of JSONL ({bin_bytes} vs {jsonl_bytes})"
        );
    }

    #[test]
    fn unarmed_thread_captures_nothing() {
        let mut net = WaveNetwork::new(Topology::mesh(&[4, 4]), WaveConfig::default());
        let mut src = TrafficSource::new(
            net.topology().clone(),
            TrafficConfig {
                load: 0.05,
                len: LengthDist::Fixed(16),
                ..TrafficConfig::default()
            },
        );
        let _ = run_open_loop(&mut net, &mut src, RunSpec::standard(100, 500));
        assert!(take_captured().is_empty());
    }

    #[test]
    fn failed_stream_re_creation_is_the_runs_stream_error() {
        let dir =
            std::env::temp_dir().join(format!("wavesim_tracecap_recreate_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        for binary in [false, true] {
            let path = dir.join("cap");
            if binary {
                arm_bin_stream(&path, 1).expect("create stream");
            } else {
                arm_jsonl_stream(&path).expect("create stream");
            }
            // The path turns into a directory between arming and the run.
            std::fs::remove_file(&path).expect("armed file exists");
            std::fs::create_dir(&path).expect("swap in a directory");
            let mut net = WaveNetwork::new(Topology::mesh(&[4, 4]), WaveConfig::default());
            let mut src = TrafficSource::new(
                net.topology().clone(),
                TrafficConfig {
                    load: 0.05,
                    len: LengthDist::Fixed(16),
                    ..TrafficConfig::default()
                },
            );
            let _ = run_open_loop(&mut net, &mut src, RunSpec::standard(100, 500));
            disarm_jsonl_stream();
            disarm_bin_stream();
            std::fs::remove_dir(&path).ok();
            let traces = take_captured();
            assert_eq!(traces.len(), 1);
            assert!(
                traces[0].stream_error.is_some(),
                "binary={binary}: an unstreamed run must report its stream error"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
