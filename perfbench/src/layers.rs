//! The traced run's per-layer measurements.
//!
//! Each layer is timed from outside, by wrapping the benchmark's own calls
//! into that layer's public functions on the workload's own inputs; the
//! program itself gets no new tracing. Counters the program already keeps
//! are read through `imcat_obs::snapshot()` and `Server::stats()`.

use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use imcat_ann::{kmeans_centers, ProbeScratch, DEFAULT_BUILD_SEED};
use imcat_ckpt::Artifact;
use imcat_data::{BprSampler, SplitDataset};
use imcat_eval::{evaluate, EvalSpec};
use imcat_graph::joint_normalized_adjacency;
use imcat_models::RecModel;
use imcat_net::NetStats;
use imcat_obs::Snapshot;
use imcat_serve::{fold_embedding, Engine, FoldOptions};
use imcat_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::drive::Reads;
use crate::report::Report;
use crate::stats::{median, median_or, us, Summary};
use crate::wire::{Client, Outcome};
use crate::workload::{configs, K};
use crate::writer::Event;

/// Median µs of `reps` calls of `f`.
fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            us(t0.elapsed())
        })
        .collect();
    median(&v)
}

/// Seconds of one call of `f`, and its result.
fn time_s<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// Per-event timings of replaying the writer's log on an engine.
#[derive(Default)]
pub struct Replay {
    /// `Engine::ingest_batch` per ingest event, µs.
    pub ingest_us: Vec<f64>,
    /// `Engine::fold_pending` after every event, µs.
    pub fold_us: Vec<f64>,
    /// `Engine::stream_log().len()` at the end.
    pub log_events: usize,
}

/// Replays the writer's acknowledged events on `engine`, one tick each:
/// the mutation, then `fold_pending`, as the server's batcher ran them.
pub fn replay(engine: &mut Engine, events: &[Event]) -> Replay {
    let mut out = Replay::default();
    for event in events {
        match event {
            Event::RegisterUser(id) => {
                let got = engine.register_user();
                debug_assert_eq!(got, *id);
            }
            Event::Ingest(batch) => {
                let t0 = Instant::now();
                engine.ingest_batch(batch);
                out.ingest_us.push(us(t0.elapsed()));
            }
        }
        let t0 = Instant::now();
        engine.fold_pending();
        out.fold_us.push(us(t0.elapsed()));
    }
    out.log_events = engine.stream_log().len();
    out
}

/// Seconds recorded into histogram `name` between two snapshots.
fn hist_delta(after: &Snapshot, before: &Snapshot, name: &str) -> f64 {
    after.hist_sum(name) - before.hist_sum(name)
}

/// Training-side layers: the program's own `phase.*` totals of the training
/// that just ran, then the sampler, SpMM at the LightGCN propagation shape,
/// IRM's k-means, validation, and an empty pool dispatch, each timed
/// alone on this workload's data.
pub fn training(report: &mut Report, before: &Snapshot, data: &SplitDataset, model: &dyn RecModel) {
    let after = imcat_obs::snapshot();
    for phase in ["sampling", "forward", "backward", "optimizer", "refresh"] {
        let name = format!("core.phase_s.{phase}");
        let key = format!("phase.{phase}");
        report.metric(&name, hist_delta(&after, before, &key));
    }
    let mut rng = StdRng::seed_from_u64(1);
    let batch = 512;
    let sampler = BprSampler::for_user_items(data);
    let (sample_s, _) = time_s(|| {
        for _ in 0..sampler.batches_per_epoch(batch) {
            std::hint::black_box(sampler.sample(batch, &mut rng));
        }
    });
    report.metric("data.sample_s", sample_s);

    let dim = 32;
    let adj = joint_normalized_adjacency(&data.train);
    let x = random(adj.cols(), dim, &mut rng);
    let spmm_us = time_us(20, || {
        std::hint::black_box(adj.spmm(&x));
    });
    let nnz = adj.nnz();
    // Values and column ids per nonzero, row offsets, dense input and
    // output: each touched once.
    let spmm_bytes = nnz * 8 + (adj.rows() + 1) * 8 + (adj.cols() + adj.rows()) * dim * 4;
    report.metric("kernel.spmm_us", spmm_us);
    report.metric("kernel.spmm_nnz", nnz as f64);
    report.metric("kernel.spmm_bytes", spmm_bytes as f64);

    // IRM clusters the tag embeddings into 4 intents with 10 iterations.
    let tags = random(data.n_tags(), dim, &mut rng);
    let (kmeans_s, _) = time_s(|| kmeans_centers(&tags, 4, 10, &mut rng));
    report.metric("core.kmeans_s", kmeans_s);

    let (validation_s, _) = time_s(|| {
        evaluate(
            &mut |users: &[u32]| model.score_users(users),
            data,
            &EvalSpec::at(20).validation(),
        )
    });
    report.metric("eval.validation_s", validation_s);

    let pool = imcat_par::global();
    let chunks = pool.threads();
    let dispatch_us = time_us(2000, || pool.run(chunks, &|_| {}));
    report.metric("par.dispatch_us", dispatch_us);
    println!(
        "training layers: sampler epoch {sample_s:.4} s, spmm {spmm_us:.1} µs over {nnz} nnz, \
         k-means {kmeans_s:.4} s, validation {validation_s:.4} s, empty dispatch {dispatch_us:.2} µs"
    );
}

fn random(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor {
    Tensor::from_vec(rows, cols, (0..rows * cols).map(|_| rng.gen::<f32>() - 0.5).collect())
}

/// Closed-loop `/healthz` round trips on one connection for `duration`, µs:
/// the socket, parse and write cost of a request that skips the batcher.
pub fn healthz_rtt(addr: SocketAddr, duration: Duration) -> Vec<f64> {
    let mut out = Vec::new();
    let Ok(mut client) = Client::connect(addr) else { return out };
    let end = Instant::now() + duration;
    while Instant::now() < end {
        let t0 = Instant::now();
        if let Outcome::Ok(_) = client.get("/healthz") {
            out.push(us(t0.elapsed()));
        }
    }
    out
}

/// What the traced read phases saw on the wire.
pub struct WireTrace {
    /// The untraced closed-loop windows, one before each traced one.
    pub untraced: Vec<Reads>,
    /// `/healthz` round trips, µs.
    pub rtt_us: Vec<f64>,
    /// `serve.requests / serve.ticks` over the traced closed loop.
    pub batch_size: f64,
}

/// Serving-side layers, and the split of the wire p50 into them.
#[allow(clippy::too_many_arguments)]
pub fn serving(
    report: &mut Report,
    artifact: &Artifact,
    path: &Path,
    stream: &[u32],
    wire_p50: f64,
    trace: &WireTrace,
    replay: &Replay,
    stats: &NetStats,
) {
    let (serve_cfg, net_cfg) = configs();
    let ann_cfg = serve_cfg.ann.expect("the benchmark serves with ANN");
    let mut engine = Engine::new(artifact.clone(), serve_cfg).expect("the artifact was served");

    // The engine alone on the wire's stream, one request at a time.
    let mut single = Vec::with_capacity(stream.len());
    for &u in stream {
        let t0 = Instant::now();
        std::hint::black_box(engine.recommend(u, K).expect("warm users are in range"));
        single.push(us(t0.elapsed()));
    }
    let single = Summary::of(&single).expect("a nonempty stream");
    let st = engine.stats();
    let hit_rate = st.cache_hits as f64 / (st.cache_hits + st.cache_misses).max(1) as f64;

    // The same stream in ticks of the batch size the server formed.
    let b = (trace.batch_size.round() as usize).max(1);
    let requests: Vec<(u32, usize)> = stream.iter().map(|&u| (u, K)).collect();
    let mut ticks = Vec::new();
    for chunk in requests.chunks(b) {
        let t0 = Instant::now();
        std::hint::black_box(engine.recommend_batch(chunk));
        ticks.push(us(t0.elapsed()));
    }
    let batch_us = median(&ticks);

    // The ANN probe alone for distinct users, as a cache miss runs it.
    let items = &artifact.item_emb;
    let n_items = items.rows();
    let width = ann_cfg.resolved_probe_width(n_items);
    let index = engine.ann_backend().expect("ANN is on");
    let mut scratch = ProbeScratch::default();
    let mut seen = vec![false; artifact.n_users()];
    let (mut probe_us, mut scanned) = (Vec::new(), 0usize);
    for &u in stream.iter().filter(|&&u| !std::mem::replace(&mut seen[u as usize], true)).take(2000)
    {
        let (row, mask) = (artifact.user_emb.row(u as usize), &artifact.masks[u as usize]);
        let t0 = Instant::now();
        index.probe(row, items, mask, K, width, &mut scratch);
        probe_us.push(us(t0.elapsed()));
        scanned += scratch.candidates().len();
    }
    let probe_p50 = median(&probe_us);
    let scan_frac = scanned as f64 / (probe_us.len() * n_items) as f64;

    let (build_s, mut fresh) = time_s(|| ann_cfg.build_index(items, DEFAULT_BUILD_SEED));
    // Cold items folded from a few warm users' rows each, inserted as the
    // fold tick inserts them.
    let mut rng = StdRng::seed_from_u64(2);
    let dim = artifact.dim();
    let mut insert_us = Vec::new();
    for i in 0..64 {
        let users: Vec<&[f32]> =
            (0..4).map(|_| artifact.user_emb.row(rng.gen_range(0..artifact.n_users()))).collect();
        let emb = fold_embedding(&users, dim, &FoldOptions::default());
        let t0 = Instant::now();
        fresh.insert((n_items + i) as u32, &emb).expect("a dense id and a finite row");
        insert_us.push(us(t0.elapsed()));
    }

    // Scoring at the serving shape: one tick's distinct users against the
    // whole catalog.
    let rows: Vec<u32> = (0..b as u32).collect();
    let matmul_us = time_us(200, || {
        std::hint::black_box(artifact.user_emb.matmul_nt_rows(&rows, items));
    });
    let flops = 2 * b * n_items * dim;
    let bytes = 4 * (b * dim + n_items * dim + b * n_items);

    let loads: Vec<f64> = (0..3).map(|_| time_s(|| Artifact::load(path)).0).collect();

    let untraced_p50 = median(
        &trace
            .untraced
            .iter()
            .filter_map(|r| Summary::of(&r.latency_us))
            .map(|s| s.p50)
            .collect::<Vec<_>>(),
    );
    let rtt_p50 = median_or(&trace.rtt_us, f64::NAN);
    let linger_us = us(net_cfg.tick_wait);
    let leftover = wire_p50 - rtt_p50 - linger_us - single.p50;
    println!("wire p50 {wire_p50:.1} µs (traced) splits into:");
    println!("  {rtt_p50:>8.1} µs  socket, parse and write (/healthz round trip p50)");
    println!("  {linger_us:>8.1} µs  batch linger (NetConfig::tick_wait)");
    println!(
        "  {:>8.1} µs  engine (Engine::recommend p50; cache hit rate {hit_rate:.3}, ANN probe p50 {probe_p50:.1} µs per miss)",
        single.p50
    );
    println!("  {leftover:>8.1} µs  leftover (admission queue, hand-offs, tick)");
    println!(
        "tracing overhead: traced wire p50 {wire_p50:.1} µs - untraced {untraced_p50:.1} µs = {:.1} µs",
        wire_p50 - untraced_p50
    );
    let snap = imcat_obs::snapshot();
    let counters: Vec<String> = [
        "serve.requests",
        "serve.ticks",
        "serve.cache.hits",
        "serve.cache.misses",
        "ann.probes",
        "ann.fallbacks",
        "ingest.events",
        "ingest.folds",
        "serve.shed",
        "net.requests",
        "net.timeouts",
    ]
    .iter()
    .map(|name| format!("{name}={}", snap.counter(name)))
    .collect();
    println!("imcat-obs counters: {}", counters.join(" "));

    report.metric("net.self_us.p50", wire_p50 - single.p50);
    report.metric("net.rtt_us.p50", rtt_p50);
    report.metric("net.batch_size", trace.batch_size);
    report.metric("net.refused", stats.shed as f64);
    report.metric("net.timeouts", stats.timeouts as f64);
    report.metric("serve.recommend_us.p50", single.p50);
    report.metric("serve.recommend_us.p99", single.p99);
    report.metric("serve.batch_us", batch_us);
    report.metric("serve.cache_hit_rate", hit_rate);
    report.metric("serve.ingest_us", median_or(&replay.ingest_us, 0.0));
    report.metric("serve.fold_us", median_or(&replay.fold_us, 0.0));
    report.metric("serve.log_events", replay.log_events as f64);
    report.metric("ann.probe_us.p50", probe_p50);
    report.metric("ann.scan_frac", scan_frac);
    report.metric("ann.build_s", build_s);
    report.metric("ann.insert_us", median(&insert_us));
    report.metric("kernel.matmul_nt_rows_us", matmul_us);
    report.metric("kernel.matmul_nt_rows_flops", flops as f64);
    report.metric("kernel.matmul_nt_rows_bytes", bytes as f64);
    report.metric("ckpt.artifact_load_s", median(&loads));
    report.metric("obs.overhead_us.p50", wire_p50 - untraced_p50);
}
