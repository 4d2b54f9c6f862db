//! `model_clrp_torus4`: the exhaustive model checker proving CLRP
//! deadlock- and livelock-free on a 4x4 torus with k = 2 and six messages —
//! the equivalent of `wavesim check --model clrp --topology torus --side 4
//! --k 2 --msgs 6`.
//!
//! The six messages are the Uniform draw at [`PINNED_SEED`]. Another seed
//! translates all of them by the same torus offset: a translation maps the
//! torus onto itself, so the state space keeps its size (369,250 states)
//! while the concrete input differs. A fresh Uniform draw per seed would
//! not do: the state count then ranges over more than an order of
//! magnitude, and some draws need gigabytes.

use wavesim_model::{Explorer, ModelProtocol, ModelSpec};
use wavesim_topology::{NodeId, Topology};
use wavesim_workloads::{pattern_pairs, TrafficPattern};

use crate::{fnv1a, measure, set_up, timed, Check, Layers, Opts, Sample, PINNED_SEED};

const SIDE: u16 = 4;
const MSGS: usize = 6;
const PINNED_STATES: u64 = 369_250;
const PINNED_TRANSITIONS: u64 = 1_885_200;
/// Far above the translated instances' state count; stops a change that
/// blows up the state space before it exhausts memory.
const MAX_STATES: u64 = 2_000_000;

fn spec(seed: u64) -> ModelSpec {
    let topo = Topology::torus(&[SIDE, SIDE]);
    let shift = seed.wrapping_sub(PINNED_SEED) % u64::from(SIDE * SIDE);
    let (dx, dy) = ((shift % 4) as u16, (shift / 4) as u16);
    let translate = |n: NodeId| {
        let mut c = topo.coords(n);
        c.set(0, (c.get(0) + dx) % SIDE);
        c.set(1, (c.get(1) + dy) % SIDE);
        topo.node(c).0
    };
    let mut spec = ModelSpec::new(topo.clone(), ModelProtocol::Clrp, 2);
    for (s, d) in pattern_pairs(&topo, TrafficPattern::Uniform, MSGS, PINNED_SEED) {
        spec = spec.msg(translate(s), translate(d));
    }
    spec
}

pub fn run(opts: &Opts) -> Sample {
    let ((spec, mut explorer), setup_s) = set_up(|| {
        let spec = spec(opts.seed);
        let explorer = Explorer::new(&spec);
        (spec, explorer)
    });

    let (out, measured) = measure(|| {
        explorer.run(MAX_STATES);
        explorer.into_outcome()
    });

    let mut checks = vec![Check::new("model_proved", out.proved(), out.verdict())];
    if opts.seed == PINNED_SEED {
        checks.push(Check::new(
            "model_state_count",
            out.states == PINNED_STATES && out.transitions == PINNED_TRANSITIONS,
            format!(
                "{} states / {} transitions, pinned {PINNED_STATES} / {PINNED_TRANSITIONS}",
                out.states, out.transitions
            ),
        ));
    }
    let verdict = out.verdict();
    drop(out);

    let layers = opts.traced.then(|| {
        // The traced run times each public step separately.
        let mut e = Explorer::new(&spec);
        let (_, explore) = timed(|| e.run(MAX_STATES));
        let (traced, lasso) = timed(|| e.into_outcome());
        checks.push(Check::new(
            "traced_run_reproduces",
            traced.verdict() == verdict,
            traced.verdict(),
        ));
        let states = traced.states.max(1) as f64;
        vec![
            ("model.explore_s", explore.as_secs_f64()),
            ("model.lasso_s", lasso.as_secs_f64()),
            ("model.states", traced.states as f64),
            ("model.transitions", traced.transitions as f64),
            ("model.wait_graphs", traced.wait_checked as f64),
            ("model.us_per_state", explore.as_secs_f64() * 1e6 / states),
            (
                "layer_timer_overhead_pct",
                ((explore + lasso).as_secs_f64() / measured.wall.as_secs_f64() - 1.0) * 100.0,
            ),
        ] as Layers
    });
    Sample {
        setup_s,
        measured,
        shards: 1,
        threads: 1,
        fingerprint: fnv1a(verdict.as_bytes()),
        checks,
        layers,
    }
}
