//! A dependency-free HTTP endpoint serving the live-status board.
//!
//! `wavesim --serve-metrics <addr>` binds a [`TcpListener`] and answers
//! two routes from [`crate::livestate`]:
//!
//! * `GET /metrics` — the Prometheus exposition-format page
//!   ([`wavesim_trace::metrics::MetricsPage`]);
//! * `GET /status` — a JSON status document (cycle, in-flight, cache hit
//!   rate, per-shard wall and imbalance, progress rate).
//!
//! The server is strictly read-only: it clones board snapshots and never
//! touches the simulation, so serving cannot perturb a run's schedule or
//! its stdout. One request per connection (HTTP/1.0, `Connection:
//! close`), handled serially on one detached thread — a scrape target,
//! not a web server. Each request gets one total deadline to arrive, so a
//! slow client cannot hold the loop.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use wavesim_json::Value;
use wavesim_trace::metrics::MetricsPage;

use crate::livestate::{self, LiveStatus};

/// Binds `addr` (e.g. `127.0.0.1:9464`; port 0 picks a free one) and
/// spawns the serving thread. Returns the bound address. The thread runs
/// until the process exits.
///
/// # Errors
/// Fails when the address cannot be bound or the thread cannot spawn.
pub fn serve(addr: &str) -> Result<SocketAddr, String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    std::thread::Builder::new()
        .name("wavesim-metrics".into())
        .spawn(move || {
            for mut stream in listener.incoming().flatten() {
                let _ = handle(&mut stream);
            }
        })
        .map_err(|e| format!("spawn metrics thread: {e}"))?;
    Ok(local)
}

/// Time one request may take to arrive in full, and one reply to be
/// written: the accept loop is serial, so a client that trickles bytes
/// must not hold it past this.
const REQUEST_DEADLINE: Duration = Duration::from_secs(2);

fn handle(s: &mut TcpStream) -> std::io::Result<()> {
    let deadline = Instant::now() + REQUEST_DEADLINE;
    s.set_write_timeout(Some(REQUEST_DEADLINE))?;
    // Read until the header terminator (or EOF, or a full buffer): the
    // request line may arrive split across writes.
    let mut buf = [0u8; 2048];
    let mut got = 0;
    while got < buf.len() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        s.set_read_timeout(Some(left))?;
        let n = s.read(&mut buf[got..])?;
        if n == 0 {
            break;
        }
        got += n;
        if buf[..got].windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    let req = String::from_utf8_lossy(&buf[..got]);
    let path = req.split_whitespace().nth(1).unwrap_or("/");
    let (code, reason, ctype, body) = match path {
        "/metrics" => match livestate::snapshot() {
            Some(st) => (
                200,
                "OK",
                "text/plain; version=0.0.4; charset=utf-8",
                metrics_text(&st),
            ),
            None => (503, "Service Unavailable", "text/plain", none_body()),
        },
        "/status" | "/status.json" => match livestate::snapshot() {
            Some(st) => (
                200,
                "OK",
                "application/json",
                format!("{}\n", status_json(&st).pretty()),
            ),
            None => (503, "Service Unavailable", "text/plain", none_body()),
        },
        "/" => (
            200,
            "OK",
            "text/plain",
            "wavesim live observability: GET /metrics | GET /status\n".into(),
        ),
        _ => (404, "Not Found", "text/plain", "not found\n".into()),
    };
    write!(
        s,
        "HTTP/1.0 {code} {reason}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    s.write_all(body.as_bytes())?;
    s.flush()
}

fn none_body() -> String {
    "no run is live (the board is disarmed)\n".into()
}

/// Renders the Prometheus page for one status snapshot.
#[must_use]
pub fn metrics_text(s: &LiveStatus) -> String {
    let mut page = MetricsPage::new();
    page.comment(&format!("live run: {}", s.run));
    page.gauge_labeled(
        "wavesim_live_run_info",
        "Live-run identity (always 1; the label carries the configuration)",
        &[("run", s.run.clone())],
        1.0,
    );
    page.gauge_f64(
        "wavesim_live_cycle",
        "Current simulated cycle",
        s.cycle as f64,
    );
    page.counter("wavesim_live_msgs_sent", "Messages submitted", s.sent);
    page.counter(
        "wavesim_live_msgs_delivered",
        "Messages delivered",
        s.delivered,
    );
    page.gauge_f64(
        "wavesim_live_in_flight_msgs",
        "Messages accepted but not yet delivered",
        s.in_flight_msgs as f64,
    );
    page.gauge_f64(
        "wavesim_live_in_flight_flits",
        "Flits currently in the wormhole fabric",
        s.in_flight_flits as f64,
    );
    page.counter(
        "wavesim_live_cache_hits",
        "Circuit-cache hits",
        s.cache_hits,
    );
    page.counter(
        "wavesim_live_cache_misses",
        "Circuit-cache misses",
        s.cache_misses,
    );
    page.gauge_f64(
        "wavesim_live_cache_hit_rate",
        "Circuit-cache hit rate so far",
        s.hit_rate(),
    );
    page.counter(
        "wavesim_live_establish_retries",
        "Post-fault establishment retries",
        s.establish_retries,
    );
    page.gauge_f64(
        "wavesim_live_active_routers",
        "Routers currently doing work",
        s.active_routers as f64,
    );
    page.gauge_f64(
        "wavesim_live_progress_age_cycles",
        "Cycles since any flit last moved",
        s.progress_age as f64,
    );
    page.gauge_f64(
        "wavesim_live_progress_rate",
        "Deliveries per kilocycle over the last rate window",
        s.progress_rate,
    );
    page.gauge_f64(
        "wavesim_live_cycles_per_second",
        "Simulated cycles per wall-clock second",
        s.cycles_per_sec,
    );
    for (i, ns) in s.shard_wall_ns.iter().enumerate() {
        page.gauge_labeled(
            "wavesim_live_shard_wall_ns",
            "Per-shard wall-clock nanoseconds stepping the fabric",
            &[("shard", i.to_string())],
            *ns as f64,
        );
    }
    page.gauge_f64(
        "wavesim_live_shard_imbalance",
        "Slowest shard's wall time over the mean (1 = balanced)",
        s.shard_imbalance(),
    );
    page.gauge_f64(
        "wavesim_live_done",
        "1 once the run finished, else 0",
        f64::from(u8::from(s.done)),
    );
    page.render()
}

/// Builds the JSON status document for one status snapshot.
#[must_use]
pub fn status_json(s: &LiveStatus) -> Value {
    Value::obj(vec![
        ("run", Value::Str(s.run.clone())),
        ("cycle", s.cycle.into()),
        ("done", Value::Bool(s.done)),
        ("sent", s.sent.into()),
        ("delivered", s.delivered.into()),
        ("in_flight_msgs", s.in_flight_msgs.into()),
        ("in_flight_flits", s.in_flight_flits.into()),
        ("cache_hits", s.cache_hits.into()),
        ("cache_misses", s.cache_misses.into()),
        ("cache_hit_rate", s.hit_rate().into()),
        ("establish_retries", s.establish_retries.into()),
        ("active_routers", s.active_routers.into()),
        ("progress_age", s.progress_age.into()),
        ("progress_rate", s.progress_rate.into()),
        ("cycles_per_sec", s.cycles_per_sec.into()),
        (
            "shard_wall_ns",
            Value::Arr(s.shard_wall_ns.iter().map(|&ns| ns.into()).collect()),
        ),
        ("shard_imbalance", s.shard_imbalance().into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LiveStatus {
        LiveStatus {
            run: "clrp mesh-4x4 k=2 w=2 seed=1".into(),
            cycle: 4096,
            sent: 100,
            delivered: 90,
            in_flight_msgs: 10,
            in_flight_flits: 64,
            cache_hits: 30,
            cache_misses: 10,
            establish_retries: 2,
            active_routers: 7,
            progress_age: 0,
            shard_wall_ns: vec![1000, 3000],
            progress_rate: 11.5,
            cycles_per_sec: 1.0e6,
            done: false,
        }
    }

    #[test]
    fn metrics_text_is_well_formed_exposition() {
        let text = metrics_text(&sample());
        assert!(text.contains("# TYPE wavesim_live_cycle gauge"));
        assert!(text.contains("wavesim_live_cycle 4096"));
        assert!(text.contains("wavesim_live_msgs_delivered 90"));
        assert!(text.contains("wavesim_live_shard_wall_ns{shard=\"1\"} 3000"));
        assert!(text.contains("wavesim_live_shard_imbalance 1.5"));
        // Every line is a comment or `name[{labels}] value` with a
        // numeric value (label values may themselves contain spaces).
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("sample line");
            assert!(!name.is_empty(), "malformed line: {line:?}");
            assert!(
                value.parse::<f64>().is_ok(),
                "non-numeric sample value: {line:?}"
            );
        }
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn status_json_round_trips_and_carries_the_vitals() {
        let doc = status_json(&sample());
        let parsed = Value::parse(&doc.pretty()).expect("valid JSON");
        assert_eq!(parsed.get("cycle").and_then(Value::as_u64), Some(4096));
        assert_eq!(parsed.get("delivered").and_then(Value::as_u64), Some(90));
        assert_eq!(
            parsed.get("cache_hit_rate").and_then(Value::as_f64),
            Some(0.75)
        );
        assert_eq!(
            parsed
                .get("shard_wall_ns")
                .and_then(Value::as_array)
                .map(<[_]>::len),
            Some(2)
        );
    }

    #[test]
    fn server_answers_metrics_and_status_over_tcp() {
        let addr = serve("127.0.0.1:0").expect("bind");
        let get = |path: &str| {
            let mut c = TcpStream::connect(addr).expect("connect");
            c.write_all(format!("GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").as_bytes())
                .expect("send request");
            let mut out = String::new();
            c.read_to_string(&mut out).expect("read");
            out
        };
        // The board is disarmed in this process: routes answer 503, the
        // index and unknown routes answer 200/404 — proving the routing
        // and framing without racing other tests for the global board.
        let resp = get("/metrics");
        assert!(resp.starts_with("HTTP/1.0 503"), "{resp}");
        assert!(resp.contains("Content-Length:"));
        let resp = get("/status");
        assert!(resp.starts_with("HTTP/1.0 503"), "{resp}");
        let resp = get("/");
        assert!(resp.starts_with("HTTP/1.0 200"), "{resp}");
        assert!(resp.contains("/metrics"));
        let resp = get("/nope");
        assert!(resp.starts_with("HTTP/1.0 404"), "{resp}");
    }
}
