//! The four workloads and the one pipeline they all run.
//!
//! Every workload goes through the system's whole life once, with its own
//! inputs: build and train a model (`imcat_core::train`), start a server on
//! the exported artifact (`imcat_net::Server`), drive reads over real
//! sockets (closed loop, open loop at a fixed rate, the SLO ladder), and
//! stream cold users in through the single writer connection. The
//! workloads differ in what they put through it, and so in which layer
//! dominates:
//!
//! * `read-hot` — BPR-MF at CiteULike ×8, Zipf(1.1) readers: most reads hit
//!   the LRU, so the wire time is nearly all `imcat-net`.
//! * `read-cold` — the same artifact, uniform readers: most reads miss and
//!   pay the ANN probe and exact re-rank (`imcat-serve`, `imcat-ann`,
//!   kernels).
//! * `ingest-mix` — the same artifact, with the writer running beside every
//!   read phase: each mutating tick folds every cold user in front of that
//!   tick's reads, and the event log is never compacted.
//! * `train-imcat` — L-IMCAT at CiteULike ×1.5, trained past its 5 backbone-only
//!   epochs so the IRM, IMCA and ISA terms run (`imcat-data`,
//!   `imcat-tensor`, `imcat-core`, `imcat-par`, `imcat-eval`).

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use imcat_ckpt::Artifact;
use imcat_core::{train, Imcat, ImcatConfig, TrainerConfig};
use imcat_data::{generate, SplitDataset, SynthConfig};
use imcat_eval::{evaluate, EvalSpec};
use imcat_models::{Bprmf, LightGcn, RecModel, TrainConfig};
use imcat_net::{NetConfig, Server};
use imcat_obs::Json;
use imcat_serve::{AnnConfig, Engine, ServeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::drive::{self, Mix, Reads};
use crate::machine::{self, Timing};
use crate::report::Report;
use crate::stats::{median, median_or, Summary};
use crate::wire::{recommend_target, Client, Outcome, Tally};
use crate::{layers, writer};

/// Ranking cutoff of every read.
pub const K: usize = 20;
/// Cutoff of the cold-user recall.
const RECALL_K: usize = 10;
/// Server set-ups per run; `setup_s` of a serving workload is their median
/// scaled time.
const SETUPS: usize = 5;
/// Model builds per run; `setup_s` of the training workload is their median
/// scaled time.
const BUILDS: usize = 11;
/// Trainings per run; `train_s` is their median scaled time, and their test
/// recalls must agree bit for bit.
const TRAININGS: usize = 3;
/// Writer pace in its own windows, ingest slices per second.
const WRITE_RATE: f64 = 100.0;
/// Writer pace beside every read phase (`ingest-mix`): lower, because every
/// cold user refolds at every mutating tick, so the tick cost grows with the
/// number of cold users the run has registered.
const BESIDE_WRITE_RATE: f64 = 50.0;
/// Cold-user scripts prepared (more than any run gets through).
const MAX_SCRIPTS: usize = 1024;
/// In the ingest phases every this-many-th read asks for a cold user.
const COLD_EVERY: usize = 8;
/// Cold users whose recall is averaged: the first this many completed, so
/// every run averages over the same donors.
const RECALL_USERS: usize = 30;
/// Every this-many-th closed-loop answer is checked against the reference.
const SAMPLE_EVERY: u64 = 64;

/// Rounds the closed-loop, open-loop and writer windows are split into.
const ROUNDS: usize = 5;
/// Shares of `--seconds` each phase runs: the warm-up, each phase summed
/// over the rounds, and each rung of the ladder.
const WARMUP: f64 = 0.03;
const CLOSED: f64 = 0.2;
const OPEN: f64 = 0.2;
const INGEST: f64 = 0.3;
const RUNG: f64 = 0.04;

#[derive(Clone, Copy, Debug)]
enum Model {
    Bprmf,
    LImcat,
}

/// One workload's inputs.
#[derive(Debug)]
pub struct Workload {
    /// Name as the command line gives it.
    pub name: &'static str,
    model: Model,
    /// Multiplier on the CiteULike preset.
    scale: f64,
    epochs: usize,
    eval_every: usize,
    /// Zipf exponent of the readers' users; `None` draws them uniformly.
    zipf: Option<f64>,
    /// The writer runs beside every read phase and the ladder, instead of in
    /// windows of its own in each round.
    beside: bool,
    /// Rate of the fixed-rate open loop, reads per second: a quarter to a
    /// half of what the workload's readers sustained closed-loop when the
    /// benchmark was written.
    open_rate: f64,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "read-hot",
        model: Model::Bprmf,
        scale: 8.0,
        epochs: 12,
        eval_every: 12,
        zipf: Some(1.1),
        beside: false,
        open_rate: 2500.0,
    },
    Workload {
        name: "read-cold",
        model: Model::Bprmf,
        scale: 8.0,
        epochs: 12,
        eval_every: 12,
        zipf: None,
        beside: false,
        open_rate: 2000.0,
    },
    Workload {
        name: "ingest-mix",
        model: Model::Bprmf,
        scale: 8.0,
        epochs: 12,
        eval_every: 12,
        zipf: Some(1.1),
        beside: true,
        open_rate: 600.0,
    },
    Workload {
        name: "train-imcat",
        model: Model::LImcat,
        scale: 1.5,
        epochs: 10,
        eval_every: 5,
        zipf: Some(1.1),
        beside: false,
        open_rate: 2500.0,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The serving configurations every workload uses, built in code from
/// `Default` so no environment variable can change them.
pub fn configs() -> (ServeConfig, NetConfig) {
    (
        ServeConfig { ann: Some(AnnConfig::default()), ..ServeConfig::default() },
        NetConfig::default(),
    )
}

/// The dataset is the same on every run, as in the paper's protocol (one
/// partition, re-run with different initializations); `--seed` varies the
/// model's initialization, the training samples and the traffic.
const DATA_SEED: u64 = 2023;

fn data(w: &Workload) -> SplitDataset {
    let synth = generate(&SynthConfig::citeulike().scaled(w.scale), DATA_SEED);
    let mut rng = StdRng::seed_from_u64(DATA_SEED ^ 0x517);
    synth.dataset.split((0.7, 0.1, 0.2), &mut rng)
}

fn model(w: &Workload, data: &SplitDataset, seed: u64) -> Box<dyn RecModel> {
    let mut rng = StdRng::seed_from_u64(seed);
    let tcfg = TrainConfig::default();
    match w.model {
        Model::Bprmf => Box::new(Bprmf::new(data, tcfg, &mut rng)),
        Model::LImcat => {
            let backbone = LightGcn::new(data, tcfg, &mut rng);
            let icfg = ImcatConfig { pretrain_epochs: 5, ..ImcatConfig::default() };
            Box::new(Imcat::new(backbone, data, icfg, &mut rng))
        }
    }
}

fn trainer(w: &Workload, seed: u64) -> TrainerConfig {
    TrainerConfig {
        max_epochs: w.epochs,
        patience: 3,
        eval_every: w.eval_every,
        eval_at: 20,
        seed,
        ..TrainerConfig::default()
    }
}

/// The readers' warm users: `n` draws from the workload's distribution over
/// user ids (Zipf rank `r` is user `r`).
fn warm_stream(w: &Workload, n_users: usize, seed: u64, n: usize) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7ea4);
    match w.zipf {
        None => (0..n).map(|_| rng.gen_range(0..n_users as u32)).collect(),
        Some(s) => {
            let mut cdf: Vec<f64> = (1..=n_users).map(|r| 1.0 / (r as f64).powf(s)).collect();
            for i in 1..cdf.len() {
                cdf[i] += cdf[i - 1];
            }
            let total = cdf[n_users - 1];
            (0..n)
                .map(|_| {
                    let x: f64 = rng.gen::<f64>() * total;
                    cdf.partition_point(|&p| p < x).min(n_users - 1) as u32
                })
                .collect()
        }
    }
}

/// Starts a server on a freshly loaded artifact and waits for the first
/// `/healthz` 200.
fn set_up(path: &Path) -> Result<Server, String> {
    let (serve_cfg, net_cfg) = configs();
    let t0 = Instant::now();
    let artifact = Artifact::load(path).map_err(|e| format!("artifact load: {e}"))?;
    let server = Server::start(&artifact, &serve_cfg, net_cfg, "127.0.0.1:0")
        .map_err(|e| format!("server start: {e}"))?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    loop {
        if let Outcome::Ok(_) = client.get("/healthz") {
            return Ok(server);
        }
        if t0.elapsed() > Duration::from_secs(30) {
            return Err("server never answered /healthz".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// `(items, score_bits)` of a `/recommend` answer body.
fn parse_answer(body: &str) -> Option<(Vec<u32>, Vec<u32>)> {
    let doc = Json::parse(body).ok()?;
    let nums = |key: &str| -> Option<Vec<u32>> {
        doc.get(key)?.as_array()?.iter().map(|v| v.as_f64().map(|x| x as u32)).collect()
    };
    Some((nums("items")?, nums("score_bits")?))
}

/// Checks a wire answer against the reference engine's, bit for bit.
fn check_answer(engine: &mut Engine, user: u32, k: usize, body: &str) -> Result<(), String> {
    let (items, bits) =
        parse_answer(body).ok_or_else(|| format!("user {user}: unparsable answer"))?;
    let want = engine.recommend(user, k).map_err(|e| format!("user {user}: reference: {e}"))?;
    let want_items: Vec<u32> = want.iter().map(|r| r.item).collect();
    let want_bits: Vec<u32> = want.iter().map(|r| r.score.to_bits()).collect();
    if items != want_items || bits != want_bits {
        return Err(format!("user {user} k={k}: wire answer differs from the in-process engine"));
    }
    Ok(())
}

/// The scratch directory of one run, inside the checkout; removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(w: &Workload, seed: u64) -> std::io::Result<Self> {
        let dir = PathBuf::from("perfbench/.work").join(format!(
            "{}-{seed}-{}",
            w.name,
            std::process::id()
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `w` once: `secs` seconds of measured traffic plus set-up, training
/// and checks. With `trace`, telemetry is on and the per-layer measurements
/// run too.
pub fn run(w: &Workload, seed: u64, secs: f64, trace: bool, report: &mut Report) {
    if let Err(e) = run_inner(w, seed, secs, trace, report) {
        report.problem(e);
    }
}

fn run_inner(
    w: &Workload,
    seed: u64,
    secs: f64,
    trace: bool,
    report: &mut Report,
) -> Result<(), String> {
    let work = WorkDir::new(w, seed).map_err(|e| format!("work dir: {e}"))?;
    imcat_obs::set_enabled(trace);

    // Training: data generation, split and model build are set-up, timed on
    // their own; the train() call is the measured work.
    let builds: Vec<Timing> = (0..BUILDS)
        .map(|_| machine::timed(|| std::hint::black_box(model(w, &data(w), seed))).0)
        .collect();
    let mut trainings = Vec::new();
    let mut test_recalls = Vec::new();
    let mut trained = None;
    for _ in 0..TRAININGS {
        let obs_before = imcat_obs::snapshot();
        let data = data(w);
        let mut m = model(w, &data, seed);
        let (timing, tr) = machine::timed(|| train(m.as_mut(), &data, &trainer(w, seed)));
        trainings.push(timing);
        let test = evaluate(&mut |users: &[u32]| m.score_users(users), &data, &EvalSpec::at(20));
        test_recalls.push(test.recall);
        println!(
            "trained {} for {} epochs in {:.3} s ({:.3} s scaled): best val R@20 {:.4}, test R@20 {:.6}",
            m.name(),
            tr.epochs_run,
            timing.wall_s,
            timing.scaled_s,
            tr.best_val_recall,
            test.recall
        );
        if trace && trained.is_none() {
            layers::training(report, &obs_before, &data, m.as_ref());
        }
        trained = Some((data, m));
    }
    if !test_recalls.iter().all(|r| r.is_finite() && r.to_bits() == test_recalls[0].to_bits()) {
        report.problem(format!(
            "test R@20 is not finite or differs between trainings: {test_recalls:?}"
        ));
    }
    let (data, m) = trained.expect("at least one training");
    let artifact = m.export_artifact(&data).ok_or("model cannot export an artifact")?;
    let path = work.0.join("fixture.artifact");
    artifact.save(&path).map_err(|e| format!("artifact save: {e}"))?;
    // The serving workloads price serving memory: the training state goes,
    // its memory goes back to the system, and the peak restarts from what
    // is left.
    let training_peak_mb = machine::peak_rss_mb();
    drop((data, m));
    machine::release_free_memory();
    if let Err(e) = machine::reset_peak_rss() {
        println!("peak resident memory could not be reset ({e}); serving peaks include training");
    }

    // Serving set-up, repeated; the last server stays up for the traffic.
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        if let Some(old) = server.take() {
            Server::shutdown(old);
        }
        let (timing, started) = machine::timed(|| set_up(&path));
        setups.push(timing);
        server = Some(started?);
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr();
    println!(
        "set-up: model build median {:.4} s ({:.4} s scaled), serving median {:.3} s ({:.3} s scaled, of {:.3?})",
        median_wall(&builds),
        median_scaled(&builds),
        median_wall(&setups),
        median_scaled(&setups),
        setups.iter().map(|t| t.scaled_s).collect::<Vec<_>>(),
    );

    let warm = Mix::warm(warm_stream(w, artifact.n_users(), seed, 1 << 20));
    let scripts = writer::scripts(&artifact.masks, MAX_SCRIPTS);
    drive::closed_loop(addr, 2, &warm, K, Duration::from_secs_f64(secs * WARMUP), 0);
    let t = traffic(w, addr, &scripts, &warm, secs, trace)?;
    let mut wire = t.wire;

    // Final answers of the cold users, for recall and the replay check.
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut finals = Vec::new();
    for u in t.writes.users.iter().filter(|u| u.complete) {
        let outcome = client.get(&recommend_target(u.id, RECALL_K));
        wire.record(&outcome);
        if let Outcome::Ok(body) = outcome {
            finals.push((u.clone(), body));
        }
    }
    let stats = server.stats();
    Server::shutdown(server);
    let serving_peak_mb = machine::peak_rss_mb();

    // The reference: an in-process engine over the same artifact and
    // config. Warm answers never change under cold-user ingests, so the
    // sampled ones are checked first; then the writer's events are
    // replayed one tick each, as the single writer connection made them.
    let (serve_cfg, _) = configs();
    let mut engine =
        Engine::new(artifact.clone(), serve_cfg).map_err(|e| format!("reference engine: {e}"))?;
    let sampled: Vec<&(u32, usize, String)> = t.closed.iter().flat_map(|r| &r.sampled).collect();
    let mut mismatches = Vec::new();
    for (user, k, body) in &sampled {
        if let Err(e) = check_answer(&mut engine, *user, *k, body) {
            mismatches.push(e);
        }
    }
    let replay = layers::replay(&mut engine, &t.writes.events);
    let mut cold_recalls = Vec::new();
    for (u, body) in &finals {
        if let Err(e) = check_answer(&mut engine, u.id, RECALL_K, body) {
            mismatches.push(e);
        }
        let holdout = &scripts[u.script].holdout;
        let items = parse_answer(body).map(|(items, _)| items).unwrap_or_default();
        let hits = items.iter().filter(|i| holdout.contains(i)).count();
        cold_recalls.push(hits as f64 / holdout.len().min(RECALL_K) as f64);
    }
    if cold_recalls.len() < RECALL_USERS {
        report.problem(format!(
            "only {} cold users completed, {RECALL_USERS} are needed for the recall",
            cold_recalls.len()
        ));
    }
    let recalled = &cold_recalls[..cold_recalls.len().min(RECALL_USERS)];
    let cold_recall = recalled.iter().sum::<f64>() / recalled.len().max(1) as f64;
    println!(
        "checks: {} sampled warm answers and {} cold users bit-identical to the in-process engine: {}",
        sampled.len(),
        finals.len(),
        if mismatches.is_empty() { "yes".to_string() } else { format!("NO ({})", mismatches.len()) }
    );
    for e in mismatches.into_iter().take(5) {
        report.problem(e);
    }
    if sampled.is_empty() || finals.is_empty() {
        report.problem(format!(
            "too little to check: {} warm answers, {} complete cold users",
            sampled.len(),
            finals.len()
        ));
    }
    if t.writes.invisible > 0 {
        report.problem(format!("{} ingested slices never became visible", t.writes.invisible));
    }

    let closed = per_round(&t.closed);
    let open = per_round(&t.open);
    let ack = Summary::of(&t.writes.ack_us);
    let visible = Summary::of(&t.writes.visible_us);
    let all_open: Vec<f64> = t.open.iter().flat_map(|r| r.lateness_us.iter().copied()).collect();
    println!(
        "closed loop, {ROUNDS} rounds: answered/s {:.0?}, p50 µs {:.1?}, samples {:?}; windowed p99 {:.1?} µs over windows",
        closed.qps, closed.p50, closed.n, closed.p99
    );
    println!("  pooled: {}", pooled(&t.closed));
    println!(
        "open loop at {} /s, {ROUNDS} rounds: p50 µs {:.1?}, samples {:?}; windowed p99 {:.1?} µs over windows; generator lateness p50 {:.1} µs",
        w.open_rate,
        open.p50,
        open.n,
        open.p99,
        median_or(&all_open, f64::NAN)
    );
    println!("  pooled: {}", pooled(&t.open));
    for r in &t.rungs {
        println!(
            "  ladder {:>6.0} /s: achieved {:>7.1} /s, p99 {:>8.1} µs, refused+failed {}, backlog {}: {}",
            r.rate,
            r.achieved,
            r.p99_us,
            r.tally.not_ok(),
            if r.backlog_grows { "grows" } else { "steady" },
            if r.meets_slo() { "meets SLO" } else { "misses SLO" }
        );
    }
    println!(
        "writer: {} cold users ({} complete), {} slices; ack {}; visible {}",
        t.writes.users.len(),
        finals.len(),
        t.writes.ack_us.len(),
        ack.map_or("none".into(), |s| s.describe("µs")),
        visible.map_or("none".into(), |s| s.describe("µs"))
    );
    println!(
        "server: refused {}, timed out {}; wire attempted {}, fail_frac {:.6}",
        stats.shed,
        stats.timeouts,
        wire.sent,
        wire.fail_frac()
    );

    report.attempted += wire.sent;
    report.failed += wire.not_ok() + t.writes.invisible;
    let nan = f64::NAN;
    // The set-up a user of each workload waits for, and the phase whose
    // memory it prices: the server's start and serving for the serving
    // workloads, the data and model and training for the training one.
    let (setup, peak_mb) = match w.model {
        Model::Bprmf => (&setups, serving_peak_mb),
        Model::LImcat => (&builds, training_peak_mb),
    };
    report.metric("setup_s", median_scaled(setup));
    report.metric("setup_wall_s", median_wall(setup));
    report.metric("peak_rss_mb", peak_mb);
    report.metric("read_qps", median_or(&closed.qps, nan));
    report.metric("read_p50_us", median_or(&closed.p50, nan));
    report.metric("read_p99_us", closed.p99.map_or(nan, |(p99, _)| p99));
    report.metric("open_p50_us", median_or(&open.p50, nan));
    report.metric("open_p99_us", open.p99.map_or(nan, |(p99, _)| p99));
    report.metric("slo_rate_qps", drive::slo_rate(&t.rungs));
    report.metric("ingest_ack_p50_us", ack.map_or(nan, |s| s.p50));
    report.metric("ingest_ack_p90_us", ack.map_or(nan, |s| s.p90));
    report.metric("ingest_visible_p50_us", visible.map_or(nan, |s| s.p50));
    report.metric("cold_recall_at_10", cold_recall);
    report.metric("train_s", median_scaled(&trainings));
    report.metric("train_wall_s", median_wall(&trainings));
    report.metric("test_recall_at_20", test_recalls[0]);
    report.metric("fail_frac", wire.fail_frac());

    if let Some(trace) = &t.trace {
        let n = t.closed.iter().map(|r| r.tally.sent as usize).sum::<usize>();
        let stream = &warm.warm[..warm.warm.len().min(n)];
        let wire_p50 = median_or(&closed.p50, nan);
        layers::serving(report, &artifact, &path, stream, wire_p50, trace, &replay, &stats);
    }
    Ok(())
}

fn median_wall(timings: &[Timing]) -> f64 {
    median(&timings.iter().map(|t| t.wall_s).collect::<Vec<_>>())
}

fn median_scaled(timings: &[Timing]) -> f64 {
    median(&timings.iter().map(|t| t.scaled_s).collect::<Vec<_>>())
}

/// Every round's samples of one phase as one distribution.
fn pooled(rounds: &[Reads]) -> String {
    let all: Vec<f64> = rounds.iter().flat_map(|r| r.latency_us.iter().copied()).collect();
    Summary::of(&all).map_or("no answers".into(), |s| s.describe("µs"))
}

/// Per-round answered rates, medians and sample counts of one phase, and
/// its windowed p99 over all rounds.
struct PerRound {
    qps: Vec<f64>,
    p50: Vec<f64>,
    n: Vec<usize>,
    /// Median over every [`drive::WINDOW`] of every round of the window's
    /// p99, and the window count.
    p99: Option<(f64, usize)>,
}

fn per_round(rounds: &[Reads]) -> PerRound {
    let mut out = PerRound { qps: Vec::new(), p50: Vec::new(), n: Vec::new(), p99: None };
    let (mut times, mut values) = (Vec::new(), Vec::new());
    for (i, r) in rounds.iter().enumerate() {
        out.qps.push(r.answered_per_s());
        if let Some(s) = Summary::of(&r.latency_us) {
            out.p50.push(s.p50);
            out.n.push(s.n);
        }
        // Rounds never share a window: each starts 1000 s after the last.
        times.extend(r.done_s.iter().map(|t| t + 1000.0 * i as f64));
        values.extend_from_slice(&r.latency_us);
    }
    out.p99 = crate::stats::windowed_p99(&times, &values, drive::WINDOW.as_secs_f64());
    out
}

/// Everything the traffic phases measured.
struct Traffic {
    closed: Vec<Reads>,
    open: Vec<Reads>,
    rungs: Vec<drive::Rung>,
    writes: writer::Writes,
    /// Every wire request of the phases.
    wire: Tally,
    trace: Option<layers::WireTrace>,
}

/// The measured traffic: [`ROUNDS`] rounds of a closed-loop window, an
/// open-loop window at the workload's rate and (unless the writer runs
/// beside every read) a writer window beside one reader, then the SLO
/// ladder. Interleaving the rounds spreads each metric's samples over the
/// whole run, so a transient slowdown of the machine moves one round of
/// each rather than all of one. In a traced run each round starts with an
/// extra closed-loop window with telemetry off; the difference is the
/// tracing overhead.
fn traffic(
    w: &Workload,
    addr: SocketAddr,
    scripts: &[writer::Script],
    warm: &Mix,
    secs: f64,
    trace: bool,
) -> Result<Traffic, String> {
    let window = |share: f64| Duration::from_secs_f64(secs * share / ROUNDS as f64);
    let mixed = Mix { cold_every: COLD_EVERY, ..warm.clone() };
    let (mix, conns) = if w.beside { (&mixed, 1) } else { (warm, 2) };
    let mut wr = writer::Writer::connect(addr, scripts, K).map_err(|e| format!("connect: {e}"))?;
    let (mut beside, mut own_window) =
        if w.beside { (Some(&mut wr), None) } else { (None, Some(&mut wr)) };
    let mut t = Traffic {
        closed: Vec::new(),
        open: Vec::new(),
        rungs: Vec::new(),
        writes: writer::Writes::default(),
        wire: Tally::default(),
        trace: None,
    };
    let mut untraced = Vec::new();
    let (mut requests, mut ticks) = (0u64, 0u64);
    let stop_beside = AtomicBool::new(false);
    std::thread::scope(|s| {
        let bg = beside
            .take()
            .map(|wr| s.spawn(|| wr.run(BESIDE_WRITE_RATE, &stop_beside, &mixed.cold)));
        for _ in 0..ROUNDS {
            if trace {
                imcat_obs::set_enabled(false);
                untraced.push(drive::closed_loop(addr, conns, mix, K, window(CLOSED), 0));
                imcat_obs::set_enabled(true);
            }
            let before = imcat_obs::snapshot();
            t.closed.push(drive::closed_loop(addr, conns, mix, K, window(CLOSED), SAMPLE_EVERY));
            let after = imcat_obs::snapshot();
            requests += after.counter("serve.requests") - before.counter("serve.requests");
            ticks += after.counter("serve.ticks") - before.counter("serve.ticks");
            t.open.push(drive::open_loop(addr, conns, mix, K, w.open_rate, window(OPEN)));
            if let Some(wr) = own_window.as_deref_mut() {
                let stop = AtomicBool::new(false);
                std::thread::scope(|s2| {
                    let h = s2.spawn(|| wr.run(WRITE_RATE, &stop, &mixed.cold));
                    let reads = drive::closed_loop(addr, 1, &mixed, K, window(INGEST), 0);
                    stop.store(true, Ordering::Relaxed);
                    h.join().expect("writer panicked");
                    t.wire.add(&reads.tally);
                });
            }
        }
        if let Some(wr) = own_window {
            t.writes = wr.finish();
        }
        t.rungs = drive::climb(addr, conns, mix, K, Duration::from_secs_f64(secs * RUNG));
        stop_beside.store(true, Ordering::Relaxed);
        if let Some(h) = bg {
            h.join().expect("writer panicked");
        }
    });
    if trace {
        t.trace = Some(layers::WireTrace {
            untraced,
            rtt_us: layers::healthz_rtt(addr, window(CLOSED)),
            batch_size: requests as f64 / ticks.max(1) as f64,
        });
    }
    if w.beside {
        t.writes = wr.finish();
    }
    for r in t.closed.iter().chain(&t.open) {
        t.wire.add(&r.tally);
    }
    for r in &t.rungs {
        t.wire.add(&r.tally);
    }
    t.wire.add(&t.writes.tally);
    Ok(t)
}
