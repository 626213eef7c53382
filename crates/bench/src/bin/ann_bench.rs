//! ANN frontier benchmark: recall@{10,50} versus QPS for IVF retrieval
//! (swept over `nprobe`) and HNSW retrieval (swept over `ef_search`), next
//! to the brute-force baseline — the combined brute-vs-IVF-vs-HNSW
//! recall/QPS frontier.
//!
//! The binary trains BPR-MF on the largest synthetic catalog
//! (`SynthConfig::citeulike`, scaled by `IMCAT_SCALE`) with best-epoch
//! artifact export, computes the exact brute-force top-50 for every user as
//! ground truth, then replays a pre-drawn Zipf request stream through
//! `imcat-serve` engines: one brute-force baseline, one IVF engine per
//! swept `nprobe` (plus one int8-quantized run at the default probe width),
//! and one HNSW engine per swept `ef_search`. Every engine serves with the
//! result cache off so the table measures retrieval, not caching. The
//! persisted index sections are reused across a sweep (probe width is a
//! query-time knob), so each backend builds exactly once.
//!
//! Because both approximate paths re-rank candidates with exact f32 dot
//! products, recall is the *only* quality axis — returned scores and
//! orderings are always brute-force-correct. The HNSW rows additionally
//! prove it: `score_mismatches` counts users whose probe candidate scores
//! differ *bitwise* from the exact dot product (gated to zero by the
//! `ann-smoke` CI job). Each frontier row reports the scanned candidate
//! fraction, recall@10/@50 against the exact top-K, QPS, and the speedup
//! over brute force; rows are also emitted as `ann_frontier` telemetry
//! events (consumed by the `ann-smoke` CI job), written to
//! `ann_frontier.json` next to the `ann_bench.json` report, and the
//! measured default-probe recalls land in the `ann.recall_at10` /
//! `ann.recall_at50` (IVF) and `ann.hnsw.recall_at10` /
//! `ann.hnsw.recall_at50` (HNSW) gauges. The quantized row additionally
//! reports the certified-skip rate of the error-bounded int8 path and
//! cross-checks the skip-enabled probe against the forced re-rank per user
//! (the `skip_mismatches` count, gated to zero by the `kernel-smoke` CI
//! job).
//!
//! Environment knobs:
//!
//! * `IMCAT_ANN_REQUESTS` — replay stream length (default 2000)
//! * `IMCAT_ANN_K`        — serving cutoff in the replay (default 10)
//! * `IMCAT_ANN_ZIPF`     — Zipf exponent of the user stream (default 1.1)
//! * `IMCAT_ANN_NLIST`    — inverted-list count (default 0 = auto)
//!
//! Usage: `cargo run --release -p imcat-bench --bin ann_bench`

use std::path::PathBuf;
use std::time::Instant;

use imcat_bench::ModelKind;
use imcat_bench::{logln, obs_finish, obs_init, write_json, Env, ExpLog};
use imcat_core::train;
use imcat_data::{generate, SplitDataset, SynthConfig};
use imcat_obs::{knob_f64, knob_usize};
use imcat_serve::{AnnConfig, AnnKind, Engine, ProbeScratch, ServeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 7;

/// Normalized Zipf CDF over `n` ranks (same stream shape as serve_bench).
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
    mode: String,
    nprobe: usize,
    nlist: usize,
    ef_search: usize,
    frac_scanned: f64,
    recall_at10: f64,
    recall_at50: f64,
    qps: f64,
    speedup: f64,
    mean_us: f64,
    is_default: bool,
    skip_rate: f64,
    skip_mismatches: usize,
    score_mismatches: usize,
}

imcat_obs::impl_to_json!(Row {
    mode,
    nprobe,
    nlist,
    ef_search,
    frac_scanned,
    recall_at10,
    recall_at50,
    qps,
    speedup,
    mean_us,
    is_default,
    skip_rate,
    skip_mismatches,
    score_mismatches
});

/// Emits one frontier row as an `ann_frontier` telemetry event (consumed
/// by the `ann-smoke` CI gate).
fn emit_frontier(row: &Row) {
    if !imcat_obs::enabled() {
        return;
    }
    use imcat_obs::Json;
    imcat_obs::emit(
        "ann_frontier",
        vec![
            ("mode", Json::Str(row.mode.clone())),
            ("nprobe", Json::Num(row.nprobe as f64)),
            ("nlist", Json::Num(row.nlist as f64)),
            ("ef_search", Json::Num(row.ef_search as f64)),
            ("frac_scanned", Json::Num(row.frac_scanned)),
            ("recall_at10", Json::Num(row.recall_at10)),
            ("recall_at50", Json::Num(row.recall_at50)),
            ("qps", Json::Num(row.qps)),
            ("speedup", Json::Num(row.speedup)),
            ("is_default", Json::Bool(row.is_default)),
            ("skip_rate", Json::Num(row.skip_rate)),
            ("skip_mismatches", Json::Num(row.skip_mismatches as f64)),
            ("score_mismatches", Json::Num(row.score_mismatches as f64)),
        ],
    );
}

/// Replays the stream uncached and returns (qps, mean latency in µs).
fn replay(engine: &mut Engine, stream: &[(u32, usize)]) -> (f64, f64) {
    let t0 = Instant::now();
    for &(u, k) in stream {
        let recs = engine.recommend(u, k).expect("in-range request must be served");
        debug_assert!(recs.len() <= k);
    }
    let wall = t0.elapsed().as_secs_f64();
    (stream.len() as f64 / wall.max(1e-9), engine.stats().mean_seconds * 1e6)
}

/// Mean recall@`k` of the serving *system* (probe + fallback) against the
/// exact per-user top-`k` lists, measured with `k`-cutoff requests — the
/// same operating point a real client of that cutoff would see.
fn recall_at(engine: &mut Engine, truth: &[Vec<u32>], k: usize) -> f64 {
    let mut recall = 0.0f64;
    let mut counted = 0usize;
    for (u, exact) in truth.iter().enumerate() {
        let exact = &exact[..exact.len().min(k)];
        if exact.is_empty() {
            continue;
        }
        let got: Vec<u32> = engine
            .recommend(u as u32, k)
            .expect("in-range request")
            .iter()
            .map(|r| r.item)
            .collect();
        let hit = exact.iter().filter(|i| got.contains(i)).count();
        recall += hit as f64 / exact.len() as f64;
        counted += 1;
    }
    recall / counted.max(1) as f64
}

/// Mean fraction of the catalog scanned per probe (direct index probes,
/// mask-free — the candidate pool before any re-rank). Uses the forced
/// re-rank path so "scanned" keeps its historical meaning: a certified skip
/// would report only the k winners, not the scanned pool.
fn scan_fraction(engine: &Engine, nprobe: usize) -> f64 {
    let idx = engine.ann_backend().and_then(|b| b.as_ivf()).expect("ivf engine");
    let art = engine.artifact();
    let items = &art.item_emb;
    let mut scratch = ProbeScratch::default();
    let mut total = 0usize;
    for u in 0..art.user_emb.rows() {
        idx.probe_rerank(art.user_emb.row(u), items, &[], 10, nprobe, &mut scratch);
        total += scratch.candidates().len();
    }
    total as f64 / (art.user_emb.rows() * items.rows()) as f64
}

/// Certified int8 skip rate and (should-be-zero) top-K mismatches of the
/// skip-enabled probe against the forced re-rank, per user with their real
/// training masks — the acceptance evidence behind the "bit-identical
/// returned top-K" claim, consumed by the `kernel-smoke` CI job.
fn skip_stats(engine: &Engine, nprobe: usize, k: usize) -> (f64, usize) {
    let idx = engine.ann_backend().and_then(|b| b.as_ivf()).expect("ivf engine");
    let art = engine.artifact();
    let items = &art.item_emb;
    let mut fast = ProbeScratch::default();
    let mut slow = ProbeScratch::default();
    let mut top = imcat_eval::TopKScratch::default();
    let mut skips = 0usize;
    let mut mismatches = 0usize;
    let n_users = art.user_emb.rows();
    let ranked = |s: &ProbeScratch, top: &mut imcat_eval::TopKScratch| -> Vec<(u32, u32)> {
        imcat_eval::top_n_masked_with(s.scores(), s.mask(), k, top)
            .iter()
            .map(|&ci| (s.candidates()[ci as usize], s.scores()[ci as usize].to_bits()))
            .collect()
    };
    for u in 0..n_users {
        let q = art.user_emb.row(u);
        let mask = &art.masks[u];
        idx.probe(q, items, mask, k, nprobe, &mut fast);
        idx.probe_rerank(q, items, mask, k, nprobe, &mut slow);
        skips += fast.certified_skip() as usize;
        if ranked(&fast, &mut top) != ranked(&slow, &mut top) {
            mismatches += 1;
        }
    }
    (skips as f64 / n_users.max(1) as f64, mismatches)
}

/// Mean fraction of the catalog surfaced as candidates per probe through
/// the kind-agnostic [`imcat_serve::AnnIndex`] trait (direct probes,
/// mask-free — the candidate pool before selection). The graph analogue of
/// `scan_fraction` for backends without a forced re-rank entry point.
fn candidate_fraction(engine: &Engine, width: usize) -> f64 {
    let idx = engine.ann_backend().expect("ann engine");
    let art = engine.artifact();
    let items = &art.item_emb;
    let mut scratch = ProbeScratch::default();
    let mut total = 0usize;
    for u in 0..art.user_emb.rows() {
        idx.probe(art.user_emb.row(u), items, &[], 10, width, &mut scratch);
        total += scratch.candidates().len();
    }
    total as f64 / (art.user_emb.rows() * items.rows()) as f64
}

/// Counts users whose probe candidate scores differ **bitwise** from the
/// exact f32 dot product of their embedding with the candidate item — the
/// acceptance evidence behind the "exact re-rank, recall is the only
/// quality axis" claim for graph retrieval, gated to zero by the
/// `ann-smoke` CI job. Probes run with each user's real training mask at
/// the serving width, i.e. the exact operating point of the replay.
fn exact_score_mismatches(engine: &Engine, width: usize, k: usize) -> usize {
    let idx = engine.ann_backend().expect("ann engine");
    let art = engine.artifact();
    let items = &art.item_emb;
    let mut scratch = ProbeScratch::default();
    let mut bad_users = 0usize;
    for u in 0..art.user_emb.rows() {
        let q = art.user_emb.row(u);
        idx.probe(q, items, &art.masks[u], k, width, &mut scratch);
        let mismatch =
            scratch.candidates().iter().zip(scratch.scores()).any(|(&id, &s)| {
                s.to_bits() != imcat_simd::dot(q, items.row(id as usize)).to_bits()
            });
        bad_users += mismatch as usize;
    }
    bad_users
}

fn main() {
    obs_init(true);
    let mut log = ExpLog::new("ann_bench");
    let env = Env::from_env();

    let n_requests = knob_usize("IMCAT_ANN_REQUESTS", 2000);
    let k = knob_usize("IMCAT_ANN_K", 10);
    let zipf_s = knob_f64("IMCAT_ANN_ZIPF", 1.1);
    let nlist_knob = knob_usize("IMCAT_ANN_NLIST", 0);

    let data: SplitDataset = {
        let cfg = SynthConfig::citeulike().scaled(env.scale);
        let d = generate(&cfg, 11);
        let mut rng = StdRng::seed_from_u64(12);
        d.dataset.split((0.7, 0.1, 0.2), &mut rng)
    };
    logln!(
        log,
        "ann_bench: {} users x {} items, {} requests, k={k}, zipf s={zipf_s}",
        data.n_users(),
        data.n_items(),
        n_requests
    );

    // Train and export the artifact through the trainer's best-epoch hook.
    let art_dir = PathBuf::from("target/experiments/ann_artifacts");
    std::fs::create_dir_all(&art_dir).expect("cannot create artifact dir");
    let artifact_path = art_dir.join("bprmf.artifact");
    let kind = ModelKind::Bprmf;
    let mut model = kind.build(&data, &env.train_config(), &env.imcat_config(), SEED);
    let base = env.trainer_config(SEED);
    let tcfg = imcat_core::TrainerConfig {
        artifact_path: Some(artifact_path.clone()),
        eval_every: base.eval_every.min(base.max_epochs).max(1),
        ..base
    };
    let report = train(model.as_mut(), &data, &tcfg);
    logln!(
        log,
        "bprmf: trained {} epochs, best val R@20 {:.4}",
        report.epochs_run,
        report.best_val_recall
    );

    // Pre-draw one request stream served identically by every engine.
    let cdf = zipf_cdf(data.n_users(), zipf_s);
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x21f);
    let stream: Vec<(u32, usize)> =
        (0..n_requests).map(|_| (sample_zipf(&cdf, &mut rng), k)).collect();

    let uncached = ServeConfig { cache_capacity: 0, ..Default::default() };

    // Brute-force baseline + exact per-user top-50 ground truth.
    let mut brute = Engine::load(&artifact_path, uncached.clone()).expect("artifact must load");
    let truth: Vec<Vec<u32>> = (0..data.n_users() as u32)
        .map(|u| brute.recommend(u, 50).expect("in-range request").iter().map(|r| r.item).collect())
        .collect();
    let (brute_qps, brute_mean) = replay(&mut brute, &stream);

    let base_ann =
        AnnConfig { nlist: nlist_knob, nprobe: 0, quantized: false, ..AnnConfig::default() };
    let nlist = base_ann.resolved_nlist(data.n_items());
    let default_nprobe = base_ann.resolved_nprobe(data.n_items());

    // Sweep nprobe: powers of two up to nlist, plus the default and nlist.
    let mut sweep: Vec<usize> = Vec::new();
    let mut p = 1usize;
    while p < nlist {
        sweep.push(p);
        p *= 2;
    }
    sweep.push(nlist);
    if !sweep.contains(&default_nprobe) {
        sweep.push(default_nprobe);
        sweep.sort_unstable();
    }

    let mut rows: Vec<Row> = vec![Row {
        mode: "brute".into(),
        nprobe: 0,
        nlist: 0,
        ef_search: 0,
        frac_scanned: 1.0,
        recall_at10: 1.0,
        recall_at50: 1.0,
        qps: brute_qps,
        speedup: 1.0,
        mean_us: brute_mean,
        is_default: false,
        skip_rate: 0.0,
        skip_mismatches: 0,
        score_mismatches: 0,
    }];
    emit_frontier(&rows[0]);
    logln!(
        log,
        "{:<7} {:>6} {:>6} {:>7} {:>8} {:>8} {:>9} {:>8}",
        "mode",
        "nlist",
        "nprobe",
        "scan%",
        "R@10",
        "R@50",
        "qps",
        "speedup"
    );
    logln!(
        log,
        "{:<7} {:>6} {:>6} {:>7.1} {:>8.4} {:>8.4} {:>9.0} {:>8.2}",
        "brute",
        "-",
        "-",
        100.0,
        1.0,
        1.0,
        brute_qps,
        1.0
    );

    let mut quantized_runs: Vec<(usize, bool)> = sweep.iter().map(|&np| (np, false)).collect();
    quantized_runs.push((default_nprobe, true));
    for (nprobe, quantized) in quantized_runs {
        let cfg = ServeConfig {
            ann: Some(AnnConfig { nlist: nlist_knob, nprobe, quantized, ..AnnConfig::default() }),
            ..uncached.clone()
        };
        let mut engine = Engine::load(&artifact_path, cfg).expect("artifact must load");
        let frac = scan_fraction(&engine, nprobe);
        let (skip_rate, skip_mismatches) =
            if quantized { skip_stats(&engine, nprobe, k) } else { (0.0, 0) };
        let r10 = recall_at(&mut engine, &truth, 10);
        let r50 = recall_at(&mut engine, &truth, 50);
        // Fresh engine for timing so recall probing doesn't pollute stats.
        let mut timed = Engine::load(
            &artifact_path,
            ServeConfig {
                ann: Some(AnnConfig {
                    nlist: nlist_knob,
                    nprobe,
                    quantized,
                    ..AnnConfig::default()
                }),
                ..uncached.clone()
            },
        )
        .expect("artifact must load");
        let (qps, mean_us) = replay(&mut timed, &stream);
        let is_default = nprobe == default_nprobe && !quantized;
        let row = Row {
            mode: if quantized { "ivf-q8".into() } else { "ivf".into() },
            nprobe,
            nlist,
            ef_search: 0,
            frac_scanned: frac,
            recall_at10: r10,
            recall_at50: r50,
            qps,
            speedup: qps / brute_qps.max(1e-9),
            mean_us,
            is_default,
            skip_rate,
            skip_mismatches,
            score_mismatches: 0,
        };
        logln!(
            log,
            "{:<7} {:>6} {:>6} {:>7.1} {:>8.4} {:>8.4} {:>9.0} {:>8.2}{}",
            row.mode,
            row.nlist,
            row.nprobe,
            row.frac_scanned * 100.0,
            row.recall_at10,
            row.recall_at50,
            row.qps,
            row.speedup,
            if is_default { "  <- default" } else { "" }
        );
        if quantized {
            logln!(
                log,
                "ivf-q8 certified skip rate {:.3} ({} top-{k} mismatches vs forced re-rank)",
                row.skip_rate,
                row.skip_mismatches
            );
        }
        emit_frontier(&row);
        if imcat_obs::enabled() {
            if is_default {
                imcat_obs::gauge_set("ann.recall_at10", row.recall_at10);
                imcat_obs::gauge_set("ann.recall_at50", row.recall_at50);
                imcat_obs::gauge_set("ann.default_speedup", row.speedup);
            }
            if quantized {
                imcat_obs::gauge_set("ann.q8_skip_rate", row.skip_rate);
            }
        }
        rows.push(row);
    }

    // HNSW: sweep `ef_search` over powers of two (capped below the catalog,
    // where the probe degenerates to brute force) plus the resolved
    // default. The graph is built once — probe width is a query-time knob,
    // so every subsequent load reuses the persisted `ann.hnsw.*` sections.
    let hnsw_base = AnnConfig { kind: AnnKind::Hnsw, ..AnnConfig::default() };
    let default_efs = hnsw_base.resolved_ef_search(data.n_items());
    let hnsw_m = hnsw_base.resolved_m(data.n_items());
    let hnsw_efc = hnsw_base.resolved_ef_construction(data.n_items());
    let mut efs_sweep: Vec<usize> = Vec::new();
    let mut e = 16usize;
    while e < data.n_items() && e <= 1024 {
        efs_sweep.push(e);
        e *= 2;
    }
    if !efs_sweep.contains(&default_efs) {
        efs_sweep.push(default_efs);
        efs_sweep.sort_unstable();
    }
    logln!(log, "hnsw: m={hnsw_m} ef_construction={hnsw_efc} default ef_search={default_efs}");
    logln!(
        log,
        "{:<7} {:>6} {:>6} {:>7} {:>8} {:>8} {:>9} {:>8}",
        "mode",
        "m",
        "ef",
        "cand%",
        "R@10",
        "R@50",
        "qps",
        "speedup"
    );
    for ef in efs_sweep {
        let cfg = |ef| ServeConfig {
            ann: Some(AnnConfig { kind: AnnKind::Hnsw, ef_search: ef, ..AnnConfig::default() }),
            ..uncached.clone()
        };
        let mut engine = Engine::load(&artifact_path, cfg(ef)).expect("artifact must load");
        let frac = candidate_fraction(&engine, ef);
        let mismatches = exact_score_mismatches(&engine, ef, k);
        let r10 = recall_at(&mut engine, &truth, 10);
        let r50 = recall_at(&mut engine, &truth, 50);
        // Fresh engine for timing so recall probing doesn't pollute stats.
        let mut timed = Engine::load(&artifact_path, cfg(ef)).expect("artifact must load");
        let (qps, mean_us) = replay(&mut timed, &stream);
        let is_default = ef == default_efs;
        let row = Row {
            mode: "hnsw".into(),
            nprobe: 0,
            nlist: 0,
            ef_search: ef,
            frac_scanned: frac,
            recall_at10: r10,
            recall_at50: r50,
            qps,
            speedup: qps / brute_qps.max(1e-9),
            mean_us,
            is_default,
            skip_rate: 0.0,
            skip_mismatches: 0,
            score_mismatches: mismatches,
        };
        logln!(
            log,
            "{:<7} {:>6} {:>6} {:>7.1} {:>8.4} {:>8.4} {:>9.0} {:>8.2}{}",
            row.mode,
            hnsw_m,
            row.ef_search,
            row.frac_scanned * 100.0,
            row.recall_at10,
            row.recall_at50,
            row.qps,
            row.speedup,
            if is_default { "  <- default" } else { "" }
        );
        if row.score_mismatches > 0 {
            logln!(log, "hnsw ef={ef}: {} users with inexact probe scores", row.score_mismatches);
        }
        emit_frontier(&row);
        if imcat_obs::enabled() && is_default {
            imcat_obs::gauge_set("ann.hnsw.recall_at10", row.recall_at10);
            imcat_obs::gauge_set("ann.hnsw.recall_at50", row.recall_at50);
            imcat_obs::gauge_set("ann.hnsw.default_speedup", row.speedup);
        }
        rows.push(row);
    }

    let frontier = write_json("ann_frontier", &rows);
    logln!(log, "frontier written to {}", frontier.display());
    let path = write_json("ann_bench", &rows);
    logln!(log, "report written to {}", path.display());
    obs_finish();
}
