//! End-to-end tests of the `wavesim` binary.

use std::process::Command;

fn wavesim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wavesim"))
}

#[test]
fn info_prints_configuration() {
    let out = wavesim().arg("info").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("wave switches per router"));
    assert!(text.contains("e13"));
}

#[test]
fn check_certifies_routing() {
    let out = wavesim()
        .args(["check", "--side", "4"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "static checks must pass");
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(text.matches("DEADLOCK-FREE").count(), 4);
    assert!(!text.contains("CYCLE FOUND"));
}

#[test]
fn experiment_json_output_is_valid() {
    let out = wavesim()
        .args(["e4", "--scale", "small", "--json"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let v = wavesim_json::Value::parse(&text).expect("valid JSON table");
    assert_eq!(v["id"], "E4");
    assert!(v["rows"].as_array().unwrap().len() >= 2);
}

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Pins the stdout of the whole small suite (all 15 experiments), and
/// requires `--jobs 4` to print the same bytes. To re-pin after an
/// intentional change, run `wavesim all --scale small` and hash it.
#[test]
fn small_suite_output_is_pinned_at_any_job_count() {
    let suite = |jobs: &str| {
        let out = wavesim()
            .args(["all", "--scale", "small", "--jobs", jobs])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let one = suite("1");
    assert_eq!(
        fnv1a(&one),
        0x3bc0_6ba2_6566_2db3,
        "small-suite stdout changed:\n{}",
        String::from_utf8_lossy(&one)
    );
    assert!(one == suite("4"), "--jobs 4 must print the same bytes");
}

#[test]
fn custom_run_reports_clean() {
    let out = wavesim()
        .args([
            "run",
            "--protocol",
            "clrp",
            "--side",
            "4",
            "--load",
            "0.1",
            "--cycles",
            "2000",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("verdict          : CLEAN"), "{text}");
}

#[test]
fn run_writes_trace_and_metrics_and_validates() {
    let dir = std::env::temp_dir().join(format!("wavesim-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("run.trace.json");
    let metrics = dir.join("run.metrics.txt");
    let out = wavesim()
        .args([
            "run",
            "--side",
            "4",
            "--load",
            "0.1",
            "--cycles",
            "2000",
            "--trace-out",
            trace.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The trace is valid Perfetto JSON with the expected envelope.
    let text = std::fs::read_to_string(&trace).unwrap();
    let doc = wavesim_json::Value::parse(&text).expect("trace parses");
    assert_eq!(doc["displayTimeUnit"], "ms");
    assert!(!doc["traceEvents"].as_array().unwrap().is_empty());

    // The binary's own validator accepts it.
    let out = wavesim()
        .args(["validate-trace", trace.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("valid Perfetto trace"), "{text}");

    // The metrics page is Prometheus-shaped.
    let page = std::fs::read_to_string(&metrics).unwrap();
    assert!(page.contains("# TYPE wavesim_msgs_sent counter"));
    assert!(page.contains("wavesim_traced_latency_cycles_bucket"));

    // A clean run writes no post-mortem bundle.
    assert!(!trace.with_extension("json.postmortem.json").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn validate_trace_rejects_malformed_input() {
    let dir = std::env::temp_dir().join(format!("wavesim-cli-badtrace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{\"traceEvents\": [{\"ph\": \"b\"}]}").unwrap();
    let out = wavesim()
        .args(["validate-trace", bad.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("error:"), "{err}");

    let missing = dir.join("does-not-exist.json");
    let out = wavesim()
        .args(["validate-trace", missing.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn binary_capture_converts_and_analyzes_end_to_end() {
    let dir = std::env::temp_dir().join(format!("wavesim-cli-bintrace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bin = dir.join("run.wstrace");
    let jsonl = dir.join("run.jsonl");
    let run = |extra: &[&str]| {
        let out = wavesim()
            .args(["run", "--side", "4", "--load", "0.1", "--cycles", "2000"])
            .args(extra)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };

    // One run, both stream formats.
    let text = run(&[
        "--trace-bin",
        bin.to_str().unwrap(),
        "--trace-jsonl",
        jsonl.to_str().unwrap(),
    ]);
    assert!(text.contains("wrote binary stream"), "{text}");
    let bin_len = std::fs::metadata(&bin).unwrap().len();
    let jsonl_len = std::fs::metadata(&jsonl).unwrap().len();
    assert!(
        bin_len * 4 <= jsonl_len,
        "binary must be <= 25% of JSONL ({bin_len} vs {jsonl_len} bytes)"
    );

    // validate-trace recognises both stream formats by content.
    for (path, tag) in [
        (&bin, "binary columnar trace"),
        (&jsonl, "JSONL record stream"),
    ] {
        let out = wavesim()
            .args(["validate-trace", path.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains(tag), "{text}");
    }

    // Binary -> JSONL conversion reproduces the streamed JSONL bytes.
    let conv = dir.join("conv.jsonl");
    let out = wavesim()
        .args([
            "convert-trace",
            bin.to_str().unwrap(),
            "--out",
            conv.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(&conv).unwrap(),
        std::fs::read(&jsonl).unwrap(),
        "conversion must be lossless, byte for byte"
    );

    // JSONL -> binary conversion reproduces the streamed binary bytes.
    let conv_bin = dir.join("conv.wstrace");
    let out = wavesim()
        .args([
            "convert-trace",
            jsonl.to_str().unwrap(),
            "--out",
            conv_bin.to_str().unwrap(),
            "--to",
            "bin",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(&conv_bin).unwrap(),
        std::fs::read(&bin).unwrap(),
        "round-trip conversion must reproduce the binary stream"
    );

    // analyze consumes the binary stream natively and matches the JSONL
    // analysis exactly.
    let analyze = |path: &std::path::Path, json_out: &std::path::Path| {
        let out = wavesim()
            .args([
                "analyze",
                "--trace",
                path.to_str().unwrap(),
                "--report",
                dir.join("rep.txt").to_str().unwrap(),
                "--json",
                json_out.to_str().unwrap(),
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(json_out).unwrap()
    };
    let from_bin = analyze(&bin, &dir.join("a_bin.json"));
    let from_jsonl = analyze(&jsonl, &dir.join("a_jsonl.json"));
    assert_eq!(from_bin, from_jsonl, "analysis must be format-agnostic");

    // Sampled capture stays decodable and strictly smaller.
    let sampled = dir.join("sampled.wstrace");
    run(&[
        "--trace-bin",
        sampled.to_str().unwrap(),
        "--trace-sample",
        "8",
    ]);
    let out = wavesim()
        .args(["validate-trace", sampled.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert!(std::fs::metadata(&sampled).unwrap().len() < bin_len);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn model_check_proves_and_mutation_refutes() {
    // Exhaustive proof on the 2x2 mesh: exit 0, PROVED verdict with the
    // pinned state count (exploration is deterministic).
    let out = wavesim()
        .args([
            "check", "--model", "clrp", "--k", "1", "--msg", "0:3", "--msg", "3:0", "--msg", "1:2",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("PROVED deadlock- and livelock-free: 7767 states"),
        "{text}"
    );

    // The mutated model must fail, write a replayable counterexample
    // trace, and that trace must pass the binary's own validator.
    let dir = std::env::temp_dir().join(format!("wavesim-cli-model-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cx = dir.join("cx.jsonl");
    let out = wavesim()
        .args([
            "check",
            "--model",
            "clrp",
            "--k",
            "1",
            "--msg",
            "0:1",
            "--msg",
            "2:3",
            "--msg",
            "0:3",
            "--mutate",
            "drop-release",
            "--counterexample",
            cx.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "mutated model must not prove clean");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("VIOLATION (deadlock)"), "{text}");
    let out = wavesim()
        .args(["validate-trace", cx.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fuzz_is_deterministic_and_clean_on_correct_model() {
    let run = || {
        let out = wavesim()
            .args([
                "fuzz", "--model", "carp", "--runs", "16", "--steps", "2000", "--seed", "11",
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let a = run();
    assert!(a.contains("OK: 16 runs"), "{a}");
    assert_eq!(a, run(), "fuzzing must be deterministic in --seed");
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = wavesim().arg("bogus").output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("usage:"));
}
