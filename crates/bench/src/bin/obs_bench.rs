//! Telemetry overhead benchmark: measures the per-call cost of the hot
//! `imcat-obs` primitives (counters, histograms, spans, traces) and the
//! end-to-end serving QPS delta with telemetry on versus off.
//!
//! The registry is designed so the instrumented hot path costs a handful of
//! nanoseconds: per-thread shards mean a counter bump is one plain load +
//! store on a cache line nobody else writes. This binary checks that claim
//! stays true:
//!
//! * **microbenches** — best-of-3 ns/op for every primitive, including the
//!   disabled path (the cost when telemetry is off);
//! * **serve A/B** — interleaved off/on arms replaying the same Zipf stream
//!   through a synthetic-artifact [`imcat_serve::Engine`], comparing best-arm
//!   QPS.
//!
//! With `IMCAT_OBS_BENCH_GATE=1` the binary exits nonzero when a named-counter
//! add exceeds `MAX_COUNTER_NS` (20 ns) or the serve QPS regression
//! exceeds `MAX_OVERHEAD_PCT` (1.0 %). CI runs it
//! in release mode as part of the obs-smoke job.
//!
//! Usage: `cargo run --release -p imcat-bench --bin obs_bench`

use std::hint::black_box;
use std::time::Instant;

use imcat_bench::{logln, write_json, ExpLog};
use imcat_ckpt::Artifact;
use imcat_serve::{Engine, ServeConfig};
use imcat_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

static BENCH_COUNTER: imcat_obs::Counter = imcat_obs::Counter::new("obs_bench.handle");
static BENCH_HIST: imcat_obs::Hist = imcat_obs::Hist::new("obs_bench.handle.seconds");

/// Gate bound: nanoseconds allowed per named-counter add.
const MAX_COUNTER_NS: f64 = 20.0;
/// Gate bound: serve QPS loss allowed with telemetry on, percent.
const MAX_OVERHEAD_PCT: f64 = 1.0;

/// Best-of-3 timing of `iters` calls to `f`, in ns per call.
fn bench_ns(iters: u64, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
        best = best.min(ns);
    }
    best
}

struct Micro {
    name: String,
    ns_per_op: f64,
}

imcat_obs::impl_to_json!(Micro { name, ns_per_op });

fn microbenches() -> Vec<Micro> {
    const ITERS: u64 = 1_000_000;
    imcat_obs::set_enabled(true);
    imcat_obs::register_thread();
    // Warm the thread-local slot and name interning before measuring.
    imcat_obs::counter_add("obs_bench.named", 1);
    BENCH_COUNTER.add(1);
    BENCH_HIST.observe(1.0e-6);

    let mut rows = Vec::new();
    let mut push = |name: &str, ns: f64| rows.push(Micro { name: name.to_string(), ns_per_op: ns });

    push(
        "counter_add(name)",
        bench_ns(ITERS, || imcat_obs::counter_add(black_box("obs_bench.named"), 1)),
    );
    push("Counter::add (static handle)", bench_ns(ITERS, || BENCH_COUNTER.add(black_box(1))));
    push(
        "observe(name)",
        bench_ns(ITERS, || imcat_obs::observe(black_box("obs_bench.named.seconds"), 1.0e-6)),
    );
    push(
        "Hist::observe (static handle)",
        bench_ns(ITERS, || BENCH_HIST.observe(black_box(1.0e-6))),
    );
    push("gauge_set", bench_ns(ITERS, || imcat_obs::gauge_set(black_box("obs_bench.gauge"), 1.0)));
    push(
        "span create+drop",
        bench_ns(ITERS / 4, || drop(black_box(imcat_obs::span("obs_bench.span.seconds")))),
    );
    push(
        "trace::request (fast path)",
        bench_ns(ITERS / 16, || {
            drop(black_box(imcat_obs::trace::request(
                "obs_bench.req",
                "obs_bench.req.seconds",
                false,
            )))
        }),
    );
    push(
        "trace::request (forced sample)",
        bench_ns(ITERS / 64, || {
            drop(black_box(imcat_obs::trace::request(
                "obs_bench.req",
                "obs_bench.req.seconds",
                true,
            )))
        }),
    );

    imcat_obs::set_enabled(false);
    push(
        "counter_add (telemetry off)",
        bench_ns(ITERS, || imcat_obs::counter_add(black_box("obs_bench.named"), 1)),
    );
    push(
        "span create+drop (telemetry off)",
        bench_ns(ITERS, || drop(black_box(imcat_obs::span("obs_bench.span.seconds")))),
    );
    imcat_obs::set_enabled(true);
    rows
}

/// Deterministic synthetic artifact: unit-ish random embeddings, no masks.
/// Big enough that a cache miss costs a real matmul (items x dim per user).
fn synthetic_artifact(users: usize, items: usize, dim: usize) -> Artifact {
    let mut rng = StdRng::seed_from_u64(0x0b5);
    let mut fill = |n: usize| -> Vec<f32> { (0..n).map(|_| rng.gen::<f32>() - 0.5).collect() };
    let user_emb = Tensor::from_vec(users, dim, fill(users * dim));
    let item_emb = Tensor::from_vec(items, dim, fill(items * dim));
    Artifact::new("obs_bench-synthetic", user_emb, item_emb, vec![Vec::new(); users])
}

struct Arm {
    telemetry: bool,
    qps: f64,
}

imcat_obs::impl_to_json!(Arm { telemetry, qps });

/// Replays the stream through a fresh engine and returns QPS.
fn serve_arm(artifact: &Artifact, stream: &[(u32, usize)], batch: usize) -> f64 {
    let cfg = ServeConfig { cache_capacity: 256, ..Default::default() };
    let mut engine = Engine::new(artifact.clone(), cfg).expect("synthetic artifact must validate");
    let t0 = Instant::now();
    for tick in stream.chunks(batch) {
        let out = engine.recommend_batch(tick);
        assert_eq!(out.len(), tick.len());
    }
    stream.len() as f64 / t0.elapsed().as_secs_f64().max(1e-9)
}

fn main() {
    let mut log = ExpLog::new("obs_bench");
    let gate = imcat_obs::knob_flag("IMCAT_OBS_BENCH_GATE", false);

    logln!(log, "obs_bench: telemetry primitive costs (best of 3)");
    let micros = microbenches();
    for m in &micros {
        logln!(log, "  {:<34} {:>8.1} ns/op", m.name, m.ns_per_op);
    }

    // Serve A/B: interleave off/on arms so drift (thermal, page cache) hits
    // both equally; compare best arms to cut scheduler noise.
    let users = 512;
    let items = 4096;
    let dim = 32;
    let batch = 32;
    let artifact = synthetic_artifact(users, items, dim);
    let cdf: Vec<f64> = {
        let mut acc = 0.0;
        let mut v: Vec<f64> = (0..users).map(|r| 1.0 / ((r + 1) as f64).powf(1.1)).collect();
        for x in &mut v {
            acc += *x;
            *x = acc;
        }
        for x in &mut v {
            *x /= acc;
        }
        v
    };
    let mut rng = StdRng::seed_from_u64(0x5123);
    let stream: Vec<(u32, usize)> = (0..8192)
        .map(|_| {
            let x: f64 = rng.gen();
            (cdf.partition_point(|&p| p < x).min(users - 1) as u32, 20)
        })
        .collect();

    // Warm-up arm, unmeasured.
    imcat_obs::set_enabled(false);
    serve_arm(&artifact, &stream, batch);

    let mut arms: Vec<Arm> = Vec::new();
    for round in 0..6 {
        for on in [false, true] {
            imcat_obs::set_enabled(on);
            let qps = serve_arm(&artifact, &stream, batch);
            logln!(
                log,
                "  serve arm {round} obs={}: {qps:>9.0} qps",
                if on { "on " } else { "off" }
            );
            arms.push(Arm { telemetry: on, qps });
        }
    }
    imcat_obs::set_enabled(false);

    // Per-round paired overhead: each round's off/on arms run back-to-back,
    // so their ratio cancels slow drift. Gate on the *minimum* across rounds:
    // a systematic regression slows every round, while one noisy arm cannot
    // fail the gate on its own.
    let best =
        |on: bool| arms.iter().filter(|a| a.telemetry == on).map(|a| a.qps).fold(0.0f64, f64::max);
    let (off, on) = (best(false), best(true));
    let overhead_pct = arms
        .chunks(2)
        .map(|pair| (pair[0].qps - pair[1].qps) / pair[0].qps * 100.0)
        .fold(f64::INFINITY, f64::min);
    logln!(
        log,
        "serve {users}x{items} d={dim} batch={batch}: best off {off:.0} qps, best on {on:.0} \
         qps, paired overhead (min over rounds) {overhead_pct:+.2}%"
    );

    let counter_ns = micros
        .iter()
        .find(|m| m.name.starts_with("counter_add(name)"))
        .map_or(f64::INFINITY, |m| m.ns_per_op);
    let report = (micros, arms, overhead_pct);
    let path = write_json("obs_bench", &Json3(report));
    logln!(log, "report written to {}", path.display());

    if gate {
        let mut failed = false;
        if counter_ns > MAX_COUNTER_NS {
            eprintln!("GATE FAIL: counter_add {counter_ns:.1} ns/op > {MAX_COUNTER_NS} ns");
            failed = true;
        }
        if overhead_pct > MAX_OVERHEAD_PCT {
            eprintln!(
                "GATE FAIL: telemetry costs {overhead_pct:.2}% serve QPS > {MAX_OVERHEAD_PCT}%"
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        logln!(
            log,
            "gates pass: counter {counter_ns:.1} ns <= {MAX_COUNTER_NS} ns, \
             overhead {overhead_pct:.2}% <= {MAX_OVERHEAD_PCT}%"
        );
    }
}

/// Report wrapper so the tuple renders as a labelled JSON object.
struct Json3((Vec<Micro>, Vec<Arm>, f64));

impl imcat_obs::ToJson for Json3 {
    fn to_json(&self) -> imcat_obs::Json {
        let (micros, arms, overhead) = &self.0;
        imcat_obs::Json::obj(vec![
            ("micro", imcat_obs::ToJson::to_json(micros)),
            ("serve_arms", imcat_obs::ToJson::to_json(arms)),
            ("serve_overhead_pct", imcat_obs::Json::Num(*overhead)),
        ])
    }
}
