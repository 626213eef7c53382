//! Serving benchmark: replays a Zipf-distributed synthetic request stream
//! against frozen inference artifacts produced by the trainer's best-epoch
//! export, and emits a throughput/latency table for the `imcat-serve`
//! engine's single-request and batched paths.
//!
//! For each of BPR-MF, LightGCN, and B-IMCAT the binary trains a short run
//! with [`imcat_core::TrainerConfig::artifact_path`] set, loads the artifact
//! from disk through [`imcat_serve::Engine::load`], and measures:
//!
//! * **single** — one `recommend(user, k)` call per request (LRU cache hot
//!   for popular Zipf heads);
//! * **batch** — requests grouped into fixed-size ticks, each tick answered
//!   by one scoring matmul over the deduplicated cache misses.
//!
//! Latency quantiles come from the engine's log-bucket histogram (matching
//! `imcat-obs`); QPS is requests over replay wall-clock. Environment knobs:
//!
//! * `IMCAT_SERVE_REQUESTS` — stream length (default 2000)
//! * `IMCAT_SERVE_ZIPF`     — Zipf exponent `s` (default 1.1)
//! * `IMCAT_SERVE_K`        — ranking cutoff (default 20)
//! * `IMCAT_SERVE_BATCH`    — requests per tick in batch mode (default 32)
//! * `IMCAT_SERVE_CACHE`    — LRU capacity in lists (default 256)
//! * `IMCAT_SERVE_HOLD_SECS` — after the benchmark table, keep serving the
//!   last model's batch ticks for this many seconds so a scraper can hit the
//!   live `/metrics` endpoint (`IMCAT_OBS_ADDR`); default 0 (exit at once)
//!
//! After the in-process table, the **network frontier** phase starts a real
//! `imcat-net` TCP front-end over the last model's artifact per shard count
//! and drives it over sockets: a closed-loop pass maps the capacity at each
//! shard count, then open-loop passes offer fixed fractions of that
//! capacity (the >1x factor deliberately overloads the admission queue so
//! load shedding — fast `503`s counted as `serve.shed` — is exercised).
//! Results land in `target/experiments/net_frontier.json`. Knobs:
//!
//! * `IMCAT_NET_FRONTIER` — `0` skips the phase (default 1)
//! * `IMCAT_NET_SHARD_COUNTS` — comma list of shard counts (default `1,2,4`)
//! * `IMCAT_NET_REQUESTS` — socket requests per pass (default 600)
//! * `IMCAT_NET_CONNS` — closed-loop persistent connections (default 8)
//! * `IMCAT_NET_SENDERS` — open-loop sender threads (default 16)
//! * `IMCAT_NET_OPEN_FACTORS` — open-loop offered rate as fractions of the
//!   measured closed-loop capacity (default `0.6,1.5`)
//! * plus the server's own `IMCAT_NET_WORKERS` / `IMCAT_NET_QUEUE` /
//!   `IMCAT_NET_BATCH` / `IMCAT_NET_DEADLINE_MS`
//!   (see `imcat_net::NetConfig::from_env`)
//!
//! Usage: `cargo run --release -p imcat-bench --bin serve_bench`

use std::path::PathBuf;
use std::time::Instant;

use imcat_bench::ModelKind;
use imcat_bench::{logln, obs_finish, obs_init, write_json, Env, ExpLog};
use imcat_core::train;
use imcat_data::{generate, SplitDataset, SynthConfig};
use imcat_obs::{knob_f64, knob_flag, knob_str, knob_usize};
use imcat_serve::{Engine, ServeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 7;

/// Normalized Zipf CDF over `n` ranks: rank `r` (0-based) has weight
/// `1 / (r+1)^s`. Sampling is a uniform draw + binary search.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0f64;
    for r in 0..n {
        acc += 1.0 / ((r + 1) as f64).powf(s);
        cdf.push(acc);
    }
    for v in &mut cdf {
        *v /= acc;
    }
    cdf
}

fn sample_zipf(cdf: &[f64], rng: &mut StdRng) -> u32 {
    let x: f64 = rng.gen();
    cdf.partition_point(|&p| p < x).min(cdf.len() - 1) as u32
}

struct Row {
    model: String,
    mode: String,
    requests: usize,
    qps: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    mean_us: f64,
    cache_hit_rate: f64,
    cached_lists: usize,
}

imcat_obs::impl_to_json!(Row {
    model,
    mode,
    requests,
    qps,
    p50_us,
    p95_us,
    p99_us,
    mean_us,
    cache_hit_rate,
    cached_lists
});

fn replay(
    engine: &mut Engine,
    stream: &[(u32, usize)],
    batch: usize,
    model: &str,
    mode: &str,
) -> Row {
    let t0 = Instant::now();
    if batch <= 1 {
        for &(u, k) in stream {
            let recs = engine.recommend(u, k).expect("in-range request must be served");
            assert!(!recs.is_empty(), "served an empty list for user {u}");
        }
    } else {
        for tick in stream.chunks(batch) {
            let out = engine.recommend_batch(tick);
            assert_eq!(out.len(), tick.len());
            assert!(out.iter().all(Result::is_ok), "in-range batch request rejected");
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let stats = engine.stats();
    let total = (stats.cache_hits + stats.cache_misses).max(1);
    Row {
        model: model.to_string(),
        mode: mode.to_string(),
        requests: stream.len(),
        qps: stream.len() as f64 / wall.max(1e-9),
        p50_us: stats.p50_seconds * 1e6,
        p95_us: stats.p95_seconds * 1e6,
        p99_us: stats.p99_seconds * 1e6,
        mean_us: stats.mean_seconds * 1e6,
        cache_hit_rate: stats.cache_hits as f64 / total as f64,
        cached_lists: engine.cached_lists(),
    }
}

struct NetRow {
    model: String,
    shards: usize,
    report: imcat_net::LoadReport,
    server_shed: u64,
    server_timeouts: u64,
}

imcat_obs::impl_to_json!(NetRow { model, shards, report, server_shed, server_timeouts });

fn env_list(key: &str, default: &str) -> Vec<f64> {
    let raw = knob_str(key).unwrap_or_else(|| default.to_string());
    raw.split(',').filter_map(|v| v.trim().parse().ok()).collect()
}

/// Maps the latency/QPS frontier per shard count over real sockets.
fn net_frontier(
    log: &mut ExpLog,
    artifact: &imcat_serve::Artifact,
    model: &str,
    stream: &[(u32, usize)],
    cache: usize,
) {
    let shard_counts: Vec<usize> =
        env_list("IMCAT_NET_SHARD_COUNTS", "1,2,4").into_iter().map(|v| v as usize).collect();
    let n_requests = knob_usize("IMCAT_NET_REQUESTS", 600).max(1).min(stream.len());
    let conns = knob_usize("IMCAT_NET_CONNS", 8);
    let senders = knob_usize("IMCAT_NET_SENDERS", 16);
    let factors = env_list("IMCAT_NET_OPEN_FACTORS", "0.6,1.5");
    let net_stream = &stream[..n_requests];
    let serve_cfg = imcat_serve::ServeConfig { cache_capacity: cache, ..Default::default() };

    logln!(
        log,
        "net frontier: {} requests/pass, {conns} closed-loop conns, {senders} open-loop senders",
        n_requests
    );
    logln!(
        log,
        "{:<7} {:<7} {:>10} {:>10} {:>6} {:>6} {:>9} {:>9} {:>9}",
        "shards",
        "mode",
        "offer_qps",
        "ach_qps",
        "ok",
        "shed",
        "p50(us)",
        "p95(us)",
        "p99(us)"
    );
    let mut rows: Vec<NetRow> = Vec::new();
    for &shards in &shard_counts {
        let mut net_cfg = imcat_net::NetConfig::from_env();
        net_cfg.shards = shards;
        let server = imcat_net::Server::start(artifact, &serve_cfg, net_cfg, "127.0.0.1:0")
            .expect("front-end must bind an ephemeral port");
        let addr = server.addr();

        let closed = imcat_net::closed_loop(addr, net_stream, conns);
        let capacity = closed.achieved_qps;
        let mut reports = vec![closed];
        for &f in &factors {
            let rate = (capacity * f).max(10.0);
            reports.push(imcat_net::open_loop(addr, net_stream, rate, senders));
        }
        let stats = server.stats();
        for report in reports {
            logln!(
                log,
                "{:<7} {:<7} {:>10.0} {:>10.0} {:>6} {:>6} {:>9.1} {:>9.1} {:>9.1}",
                shards,
                report.mode,
                report.offered_qps,
                report.achieved_qps,
                report.ok,
                report.shed,
                report.p50_us,
                report.p95_us,
                report.p99_us
            );
            rows.push(NetRow {
                model: model.to_string(),
                shards,
                report,
                server_shed: stats.shed,
                server_timeouts: stats.timeouts,
            });
        }
        logln!(
            log,
            "shards={shards}: server answered {} of {} requests, shed {}, timeouts {}",
            stats.answered,
            stats.requests,
            stats.shed,
            stats.timeouts
        );
        server.shutdown();
    }
    let path = write_json("net_frontier", &rows);
    logln!(log, "net frontier written to {}", path.display());
}

fn main() {
    obs_init(true);
    let mut log = ExpLog::new("serve_bench");
    let env = Env::from_env();

    let n_requests = knob_usize("IMCAT_SERVE_REQUESTS", 2000);
    let zipf_s = knob_f64("IMCAT_SERVE_ZIPF", 1.1);
    let k = knob_usize("IMCAT_SERVE_K", 20);
    let batch = knob_usize("IMCAT_SERVE_BATCH", 32).max(2);
    let cache = knob_usize("IMCAT_SERVE_CACHE", 256);

    let data: SplitDataset = {
        let cfg = SynthConfig::tiny().scaled(env.scale);
        let d = generate(&cfg, 11);
        let mut rng = StdRng::seed_from_u64(12);
        d.dataset.split((0.7, 0.1, 0.2), &mut rng)
    };
    logln!(
        log,
        "serve_bench: {} users x {} items, {} requests, zipf s={zipf_s}, k={k}, \
         batch={batch}, cache={cache}",
        data.n_users(),
        data.n_items(),
        n_requests
    );

    // Pre-draw the request stream once so every model serves identical load.
    let cdf = zipf_cdf(data.n_users(), zipf_s);
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x21f);
    let stream: Vec<(u32, usize)> =
        (0..n_requests).map(|_| (sample_zipf(&cdf, &mut rng), k)).collect();

    let art_dir = PathBuf::from("target/experiments/serve_artifacts");
    std::fs::create_dir_all(&art_dir).expect("cannot create artifact dir");

    let kinds = [ModelKind::Bprmf, ModelKind::LightGcn, ModelKind::BImcat];
    let mut rows: Vec<Row> = Vec::new();
    logln!(
        log,
        "{:<9} {:<7} {:>9} {:>9} {:>9} {:>9} {:>9} {:>6}",
        "model",
        "mode",
        "qps",
        "p50(us)",
        "p95(us)",
        "p99(us)",
        "mean(us)",
        "hit%"
    );
    for kind in kinds {
        let artifact_path = art_dir.join(format!("{}.artifact", kind.name()));
        let mut model = kind.build(&data, &env.train_config(), &env.imcat_config(), SEED);
        let base = env.trainer_config(SEED);
        let tcfg = imcat_core::TrainerConfig {
            artifact_path: Some(artifact_path.clone()),
            // Evaluate often enough that even a short IMCAT_EPOCHS run hits
            // at least one best-epoch export.
            eval_every: base.eval_every.min(base.max_epochs).max(1),
            ..base
        };
        let report = train(model.as_mut(), &data, &tcfg);
        let exported = report.artifact.as_ref().expect("dot-product model must export artifact");
        logln!(
            log,
            "{}: trained {} epochs, best val R@20 {:.4}, artifact {}",
            kind.name(),
            report.epochs_run,
            report.best_val_recall,
            exported.display()
        );

        let cfg = ServeConfig { cache_capacity: cache, ..Default::default() };
        for (mode, batch_size) in [("single", 1usize), ("batch", batch)] {
            let mut engine = Engine::load(&artifact_path, cfg.clone()).expect("artifact must load");
            let row = replay(&mut engine, &stream, batch_size, kind.name(), mode);
            logln!(
                log,
                "{:<9} {:<7} {:>9.0} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>5.1}%",
                row.model,
                row.mode,
                row.qps,
                row.p50_us,
                row.p95_us,
                row.p99_us,
                row.mean_us,
                row.cache_hit_rate * 100.0
            );
            rows.push(row);
        }
    }

    let path = write_json("serve_bench", &rows);
    logln!(log, "report written to {}", path.display());

    // Network frontier: real sockets, sharded replicas, closed + open loop.
    if knob_flag("IMCAT_NET_FRONTIER", true) {
        let last = kinds[kinds.len() - 1];
        let artifact_path = art_dir.join(format!("{}.artifact", last.name()));
        let artifact =
            imcat_serve::Artifact::load(&artifact_path).expect("frontier artifact must load");
        net_frontier(&mut log, &artifact, last.name(), &stream, cache);
    }

    // Optional hold phase: keep a live engine ticking so an external scraper
    // can observe the /metrics endpoint and resolve trace exemplars while the
    // process is still serving (used by the CI obs-smoke job).
    let hold_secs = knob_f64("IMCAT_SERVE_HOLD_SECS", 0.0);
    if hold_secs > 0.0 {
        if let Some(addr) = imcat_obs::http::bound_addr() {
            logln!(log, "obs endpoint listening on http://{addr}/metrics");
        }
        let artifact_path = art_dir.join(format!("{}.artifact", kinds[kinds.len() - 1].name()));
        let cfg = ServeConfig { cache_capacity: cache, ..Default::default() };
        let mut engine = Engine::load(&artifact_path, cfg).expect("artifact must load");
        let hold0 = Instant::now();
        let mut ticks = 0usize;
        while hold0.elapsed().as_secs_f64() < hold_secs {
            for tick in stream.chunks(batch) {
                let _ = engine.recommend_batch(tick);
            }
            ticks += stream.len().div_ceil(batch);
            // Pace the load so the hold phase exercises the sliding window
            // rather than saturating a core.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let latest =
            imcat_obs::trace::latest_id().map_or_else(|| "none".to_string(), |id| id.to_string());
        logln!(log, "hold phase: {ticks} ticks over {hold_secs}s, latest trace id {latest}");
    }
    obs_finish();
}
