//! The serving engine: frozen-artifact top-K retrieval with an LRU cache,
//! request batching, and latency accounting.
//!
//! ## Parity contract
//!
//! A `recommend(user, k)` answer is bit-identical to what the offline
//! evaluator would rank for that user: scores are the same ascending-index
//! dot products `imcat_tensor::Tensor::matmul_nt` produces, and the top-K
//! selection is the evaluator's own `imcat_eval::top_n_masked_with` with the
//! artifact's training-item mask. The single-request path shards the item
//! axis over the [`imcat_par`] pool; each item's dot product is a sequential
//! accumulation, so the result does not depend on `IMCAT_THREADS`.
//!
//! ## ANN retrieval
//!
//! With [`ServeConfig::ann`] set, requests go through an `imcat-ann` probe
//! (whichever backend `AnnConfig::kind` selects — IVF-Flat lists, the HNSW
//! graph, or exhaustive brute force) instead of scoring the whole catalog:
//! only the probed candidates are scanned, candidates are scored with the
//! *same* exact dot products, and the final list is re-ranked through the
//! same `top_n_masked_with` path — any error is pure recall loss, never a
//! wrong score or ordering; `nprobe == nlist` (IVF) and `ef_search == n`
//! (HNSW) are bit-identical to brute force.
//! The engine falls back to brute force (counted as `ann.fallbacks`) for
//! cold users (all-zero embedding, where centroid ranking is meaningless),
//! fully-masked users, and probes too sparse to fill the requested `k`.
//!
//! ## Telemetry
//!
//! Every request and batch tick mints a trace id through `imcat_obs::trace`
//! — sampled ones (1 in `IMCAT_OBS_TRACE_SAMPLE`) collect their span
//! breakdown (scoring, ANN probe, pool dispatch) into the live trace store
//! served at `/trace/<id>`; unsampled ones still surface as span-less
//! exemplars when they exceed the slow threshold. Hot-path counters
//! (`serve.requests`, `serve.cache.hits`/`misses`, `serve.ticks`) and the
//! latency histograms go through pre-interned [`imcat_obs::Counter`] /
//! [`imcat_obs::Hist`] handles so the per-request overhead stays in the
//! tens of nanoseconds.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use imcat_ann::{AnnConfig, AnnIndex, AnnKind, ProbeScratch, DEFAULT_BUILD_SEED};
use imcat_ckpt::{Artifact, Checkpoint};
use imcat_eval::{top_n_masked_with, TopKScratch};
use imcat_obs::Histogram;

use crate::cache::{CacheKey, LruCache};
use crate::foldin::{fold_embedding, FoldOptions};
use crate::ingest::{append_row, mask_insert, Interaction, StreamEvent};
use crate::rebuild::{self, RebuildTask};

static OBS_REQUESTS: imcat_obs::Counter = imcat_obs::Counter::new("serve.requests");
static OBS_REQUEST_SECONDS: imcat_obs::Hist = imcat_obs::Hist::new("serve.request.seconds");
static OBS_TICKS: imcat_obs::Counter = imcat_obs::Counter::new("serve.ticks");
static OBS_TICK_SECONDS: imcat_obs::Hist = imcat_obs::Hist::new("serve.tick.seconds");
static OBS_CACHE_HITS: imcat_obs::Counter = imcat_obs::Counter::new("serve.cache.hits");
static OBS_CACHE_MISSES: imcat_obs::Counter = imcat_obs::Counter::new("serve.cache.misses");
static OBS_REJECTS: imcat_obs::Counter = imcat_obs::Counter::new("serve.rejects");
static OBS_INGESTS: imcat_obs::Counter = imcat_obs::Counter::new("ingest.events");

/// A request the engine refuses to answer — *never* by panicking.
///
/// The serving paths used to `assert!` on malformed requests, which is fine
/// for an in-process library and fatal for a network worker: one stale or
/// malicious `(user, k)` pair mid-batch would take the whole process down.
/// Every request is now validated up front and rejected with a typed error
/// (counted as `serve.rejects`) while the rest of the tick proceeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The requested user id is outside the artifact's user range.
    UserOutOfRange {
        /// The offending user id.
        user: u32,
        /// Number of users the live artifact serves.
        n_users: u32,
    },
    /// The referenced item id is outside the live catalog (ingestion only —
    /// recommendations never name items).
    ItemOutOfRange {
        /// The offending item id.
        item: u32,
        /// Number of items in the live catalog.
        n_items: u32,
    },
    /// `k == 0` requests an empty ranking; rejected so a zero cutoff can
    /// never pollute the cache or divide downstream metrics by zero.
    ZeroK,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UserOutOfRange { user, n_users } => {
                write!(f, "user {user} out of range (artifact has {n_users} users)")
            }
            Self::ItemOutOfRange { item, n_items } => {
                write!(f, "item {item} out of range (catalog has {n_items} items)")
            }
            Self::ZeroK => write!(f, "k must be at least 1"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Serving engine configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Maximum number of `(user, k)` top-K lists kept hot (0 disables the
    /// cache).
    pub cache_capacity: usize,
    /// Item-axis shard size for the single-request scoring path.
    pub shard_items: usize,
    /// ANN retrieval configuration; `None` serves brute force.
    pub ann: Option<AnnConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { cache_capacity: 1024, shard_items: 1024, ann: None }
    }
}

/// Live ANN retrieval state: the index (whichever [`imcat_ann::AnnKind`]
/// the config selects) plus its reusable probe buffers.
struct AnnState {
    cfg: AnnConfig,
    index: Box<dyn AnnIndex>,
    scratch: ProbeScratch,
}

impl AnnState {
    fn build(artifact: &Artifact, cfg: AnnConfig) -> Self {
        let index = cfg.build_index(&artifact.item_emb, DEFAULT_BUILD_SEED);
        Self { cfg, index, scratch: ProbeScratch::default() }
    }
}

/// Which ANN backend a live engine is serving and the parameters its
/// configuration resolves to for the current catalog — the operator-facing
/// answer to "what index is this shard actually running?". Fields that do
/// not apply to the active kind are zero/false (e.g. `nlist` under HNSW).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnnDescriptor {
    /// Backend name as `IMCAT_ANN_KIND` spells it: `ivf`, `brute`, `hnsw`.
    pub kind: &'static str,
    /// Catalog size the index currently covers.
    pub n_items: usize,
    /// Resolved inverted-list count (IVF).
    pub nlist: usize,
    /// Resolved probed-list count (IVF).
    pub nprobe: usize,
    /// Resolved degree bound (HNSW).
    pub m: usize,
    /// Resolved construction beam width (HNSW).
    pub ef_construction: usize,
    /// Resolved search beam width (HNSW).
    pub ef_search: usize,
    /// Whether the lists carry int8 codes (IVF).
    pub quantized: bool,
}

/// One ranked recommendation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Recommendation {
    /// Item id.
    pub item: u32,
    /// Dot-product relevance score.
    pub score: f32,
}

/// Aggregate serving statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeStats {
    /// Requests answered (cache hits included).
    pub served: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Median request latency in seconds (bucket upper bound).
    pub p50_seconds: f64,
    /// 95th-percentile request latency in seconds.
    pub p95_seconds: f64,
    /// 99th-percentile request latency in seconds.
    pub p99_seconds: f64,
    /// Mean request latency in seconds.
    pub mean_seconds: f64,
    /// Total time spent answering requests (batched requests all account
    /// the full tick they completed in).
    pub busy_seconds: f64,
}

/// Top-K retrieval engine over one [`Artifact`] generation, mutable at the
/// edges: streamed interactions, cold-entity registration, fold-in, and a
/// background full rebuild that swaps the next generation in atomically.
///
/// ## Streaming state machine
///
/// Each generation starts from a *base* artifact (what `new`/`load`/
/// `reload`/`commit_rebuild` installed). Mutations accumulate in an
/// arrival-ordered [`StreamEvent`] log and are applied live: masks update
/// immediately, embeddings fold in at [`Engine::fold_pending`] ticks. The
/// invariant that keeps ANN certified-skip sound is **items fold once**:
/// the index covers exactly the items finalized into the item matrix
/// (`frozen_items`); a registered item's embedding is written and inserted
/// into the index at its first fold tick and never touched again until the
/// next generation. Users are not indexed, so they refold freely at every
/// tick as their evidence grows.
///
/// The log is canonical: `rebuild_artifact(base, log)` run offline is
/// bit-identical to the artifact the background rebuild swaps in.
pub struct Engine {
    artifact: Artifact,
    cfg: ServeConfig,
    cache: LruCache,
    scratch: TopKScratch,
    ann: Option<AnnState>,
    latency: Histogram,
    served: u64,
    /// The generation's base artifact, cloned lazily before the first
    /// mutation (`None` while the generation is pristine).
    base: Option<Artifact>,
    /// Arrival-ordered mutation log since `base`.
    log: Vec<StreamEvent>,
    /// Items `0..frozen_items` have final embeddings and are covered by the
    /// ANN index; items past it are registered but still cold (zero row,
    /// unreachable through a probe until the next fold tick).
    frozen_items: usize,
    fold: FoldOptions,
    generation: u64,
}

impl Engine {
    /// Builds an engine over a validated artifact. When [`ServeConfig::ann`]
    /// is set the index is built here (deterministically, from the item
    /// embeddings alone).
    pub fn new(artifact: Artifact, cfg: ServeConfig) -> io::Result<Self> {
        artifact.validate()?;
        let cache = LruCache::new(cfg.cache_capacity);
        let ann = cfg.ann.map(|c| AnnState::build(&artifact, c));
        let frozen_items = artifact.n_items();
        Ok(Self {
            artifact,
            cfg,
            cache,
            scratch: TopKScratch::default(),
            ann,
            latency: Histogram::default(),
            served: 0,
            base: None,
            log: Vec::new(),
            frozen_items,
            fold: FoldOptions::from_env(),
            generation: 0,
        })
    }

    /// Loads an artifact from disk (with the container's `.prev` fallback)
    /// and builds an engine over it.
    ///
    /// With [`ServeConfig::ann`] set, the engine reuses the `ann.*` index
    /// sections persisted in the same container when they validate and match
    /// the requested configuration; otherwise it rebuilds the index and
    /// persists it back lazily (atomic save, `.prev` rotation preserved), so
    /// the next load is instant. A corrupt or stale persisted index is
    /// counted (`ann.index.rejected`) and rebuilt — it can never poison the
    /// engine. A failed lazy persist is non-fatal: the engine still serves
    /// from the freshly built in-memory index.
    pub fn load(path: impl AsRef<Path>, cfg: ServeConfig) -> io::Result<Self> {
        let Some(ann_cfg) = cfg.ann else {
            return Self::new(Artifact::load(&path)?, cfg);
        };
        let mut ck = Checkpoint::load(&path)?;
        let artifact = Artifact::from_checkpoint(&ck)?;
        artifact.validate()?;
        let loaded = match ann_cfg.load_index(&ck) {
            Ok(idx) => idx.filter(|idx| {
                idx.matches(&ann_cfg, artifact.n_items(), artifact.dim(), DEFAULT_BUILD_SEED)
            }),
            Err(_) => {
                if imcat_obs::enabled() {
                    imcat_obs::counter_add("ann.index.rejected", 1);
                }
                None
            }
        };
        let state = match loaded {
            Some(index) => AnnState { cfg: ann_cfg, index, scratch: ProbeScratch::default() },
            None => {
                if imcat_obs::enabled() {
                    imcat_obs::counter_add("ann.index.rebuilds", 1);
                }
                let state = AnnState::build(&artifact, ann_cfg);
                // Persist the fresh index back next to the artifact it was
                // built from: under the committed generation's prefix when
                // the container is generation-versioned, bare otherwise.
                let mut staged = Checkpoint::new();
                state.index.save_sections(&mut staged);
                match ck.generation().ok().flatten() {
                    Some(gen) => ck.stage_generation(gen, &staged),
                    None => {
                        let names: Vec<String> = staged.section_names().map(String::from).collect();
                        for name in names {
                            let bytes = staged.require(&name).expect("staged section").to_vec();
                            ck.insert(&name, bytes);
                        }
                    }
                }
                if ck.save(&path).is_err() && imcat_obs::enabled() {
                    imcat_obs::counter_add("ann.index.persist_failed", 1);
                }
                state
            }
        };
        let mut engine = Self::new(artifact, ServeConfig { ann: None, ..cfg.clone() })?;
        engine.cfg = cfg;
        engine.ann = Some(state);
        Ok(engine)
    }

    /// The live ANN backend behind the [`AnnIndex`] trait, whatever its
    /// kind.
    pub fn ann_backend(&self) -> Option<&dyn AnnIndex> {
        self.ann.as_ref().map(|s| s.index.as_ref())
    }

    /// Operator-facing description of the live ANN backend: its kind plus
    /// the build/probe parameters the configuration resolves to for the
    /// current catalog. `None` when serving brute force without an index.
    /// Served per shard by the front-end's `/stats` route.
    pub fn ann_descriptor(&self) -> Option<AnnDescriptor> {
        let state = self.ann.as_ref()?;
        let kind = state.index.kind();
        let n_items = state.index.n_items();
        let mut d = AnnDescriptor {
            kind: kind.name(),
            n_items,
            nlist: 0,
            nprobe: 0,
            m: 0,
            ef_construction: 0,
            ef_search: 0,
            quantized: false,
        };
        match kind {
            AnnKind::Ivf => {
                d.nlist = state.cfg.resolved_nlist(n_items);
                d.nprobe = state.cfg.resolved_nprobe(n_items);
                d.quantized = state.cfg.quantized;
            }
            AnnKind::Hnsw => {
                d.m = state.cfg.resolved_m(n_items);
                d.ef_construction = state.cfg.resolved_ef_construction(n_items);
                d.ef_search = state.cfg.resolved_ef_search(n_items);
            }
            AnnKind::Brute => {}
        }
        Some(d)
    }

    /// The artifact currently being served.
    pub fn artifact(&self) -> &Artifact {
        &self.artifact
    }

    /// Monotonic generation counter: bumps on every swap — `reload`,
    /// `set_ann`, `commit_rebuild`.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The mutation log accumulated since this generation's base artifact,
    /// in arrival order.
    pub fn stream_log(&self) -> &[StreamEvent] {
        &self.log
    }

    /// The fold-in options live ingestion uses (defaults read from the
    /// `IMCAT_INGEST_FOLD_*` knobs at construction).
    pub fn fold_options(&self) -> FoldOptions {
        self.fold
    }

    /// Overrides the fold-in options. Affects folds from the next tick on;
    /// already-frozen embeddings stay as they are (and the log keeps the
    /// rebuild canonical under whatever options it is replayed with).
    pub fn set_fold_options(&mut self, fold: FoldOptions) {
        self.fold = fold;
    }

    /// Every mutation of the serving state funnels through here: new
    /// artifact and/or ANN state in, cache out, generation bumped, one
    /// counter per caller. Replacing the artifact resets the streaming
    /// state — the incoming artifact *is* the next generation's base and
    /// the old log is consumed (rebuild) or superseded (reload).
    fn swap_generation(
        &mut self,
        artifact: Option<Artifact>,
        ann: Option<AnnState>,
        counter: &'static str,
    ) -> io::Result<()> {
        if let Some(artifact) = artifact {
            artifact.validate()?;
            self.frozen_items = artifact.n_items();
            self.artifact = artifact;
            self.base = None;
            self.log.clear();
        }
        self.ann = ann;
        self.cache.clear();
        self.generation += 1;
        if imcat_obs::enabled() {
            imcat_obs::counter_add(counter, 1);
            imcat_obs::counter_add("serve.generation.swaps", 1);
        }
        Ok(())
    }

    /// Swaps in a new artifact. The cache is cleared so no stale list from
    /// the previous generation can ever be served, and the ANN index (if
    /// active) is rebuilt over the new item embeddings before the swap; on a
    /// validation error the old artifact, index, cache, and stream log all
    /// stay live.
    pub fn reload(&mut self, artifact: Artifact) -> io::Result<()> {
        artifact.validate()?;
        let ann = self.cfg.ann.map(|c| AnnState::build(&artifact, c));
        self.swap_generation(Some(artifact), ann, "serve.reloads")
    }

    /// Switches ANN retrieval on, off, or to a different configuration,
    /// rebuilding the index as needed. Pending cold entities are folded
    /// first so the fresh index covers exactly the finalized catalog; the
    /// result cache is cleared exactly like [`Engine::reload`] does.
    pub fn set_ann(&mut self, ann: Option<AnnConfig>) {
        self.fold_pending();
        self.cfg.ann = ann;
        let state = ann.map(|c| AnnState::build(&self.artifact, c));
        let _ = self.swap_generation(None, state, "serve.ann_swaps");
    }

    /// Clones the pristine artifact into `base` before the first mutation
    /// of a generation, so the log replays over exactly what the generation
    /// started from.
    fn ensure_base(&mut self) {
        if self.base.is_none() {
            self.base = Some(self.artifact.clone());
        }
    }

    /// Registers a cold user and returns their id (the next dense user id).
    /// The new row is all-zero until a fold tick gives it evidence-backed
    /// coordinates; recommendations for it fall back to brute force
    /// meanwhile (cold-user fallback).
    pub fn register_user(&mut self) -> u32 {
        self.ensure_base();
        let dim = self.artifact.dim();
        let id = self.artifact.n_users() as u32;
        self.artifact.user_emb = append_row(&self.artifact.user_emb, &vec![0.0; dim]);
        self.artifact.masks.push(Vec::new());
        self.log.push(StreamEvent::RegisterUser);
        if imcat_obs::enabled() {
            imcat_obs::counter_add("ingest.users", 1);
        }
        id
    }

    /// Registers a cold item and returns its id (the next dense item id).
    /// The item scores zero for everyone until its first fold tick freezes
    /// an embedding and inserts it into the ANN index; the cache is cleared
    /// because cached lists ranked a smaller catalog.
    pub fn register_item(&mut self) -> u32 {
        self.ensure_base();
        let dim = self.artifact.dim();
        let id = self.artifact.n_items() as u32;
        self.artifact.item_emb = append_row(&self.artifact.item_emb, &vec![0.0; dim]);
        self.log.push(StreamEvent::RegisterItem);
        self.cache.clear();
        if imcat_obs::enabled() {
            imcat_obs::counter_add("ingest.items", 1);
        }
        id
    }

    /// Ingests one interaction: validates both ids against the live ranges,
    /// updates the user's mask immediately (the item disappears from their
    /// recommendations *now*), appends the event to the log as fold-in
    /// evidence, and invalidates only that user's cached lists. Embeddings
    /// move at the next [`Engine::fold_pending`] tick, off the request path.
    pub fn ingest(&mut self, x: Interaction) -> Result<(), ServeError> {
        let n_users = self.artifact.n_users() as u32;
        let n_items = self.artifact.n_items() as u32;
        if x.user >= n_users {
            OBS_REJECTS.add(1);
            return Err(ServeError::UserOutOfRange { user: x.user, n_users });
        }
        if x.item >= n_items {
            OBS_REJECTS.add(1);
            return Err(ServeError::ItemOutOfRange { item: x.item, n_items });
        }
        self.ensure_base();
        mask_insert(&mut self.artifact.masks[x.user as usize], x.item);
        self.log.push(StreamEvent::Interaction(x));
        self.cache.remove_user(x.user);
        OBS_INGESTS.add(1);
        Ok(())
    }

    /// Ingests a batch, one result per interaction in order; a rejected
    /// interaction never aborts the rest of the batch.
    pub fn ingest_batch(&mut self, xs: &[Interaction]) -> Vec<Result<(), ServeError>> {
        xs.iter().map(|&x| self.ingest(x)).collect()
    }

    /// One fold tick: finalizes every registered-but-cold item (ridge
    /// fold-in from its logged evidence, zero row if it has none), inserts
    /// it into the ANN index, and refolds every post-base user from the
    /// updated item matrix. Items fold **once** — their embeddings and int8
    /// codes stay frozen until the next generation, which is what keeps the
    /// certified-skip bound sound. Users refold every tick (they are not
    /// indexed, so nothing goes stale). Returns the number of embeddings
    /// written.
    pub fn fold_pending(&mut self) -> usize {
        let n_items = self.artifact.n_items();
        if self.log.is_empty() && self.frozen_items == n_items {
            return 0;
        }
        let _sp = imcat_obs::span("serve.fold.seconds");
        let dim = self.artifact.dim();
        let base_users =
            self.base.as_ref().map(|b| b.n_users()).unwrap_or_else(|| self.artifact.n_users());
        // Evidence per cold entity: opposite-side ids in log-arrival order,
        // duplicates kept (a repeated interaction is weighted evidence) —
        // the exact accumulation `rebuild_artifact` replays.
        let mut item_users: HashMap<u32, Vec<u32>> = HashMap::new();
        let mut user_items: HashMap<u32, Vec<u32>> = HashMap::new();
        for ev in &self.log {
            if let StreamEvent::Interaction(x) = *ev {
                if (x.item as usize) >= self.frozen_items {
                    item_users.entry(x.item).or_default().push(x.user);
                }
                if (x.user as usize) >= base_users {
                    user_items.entry(x.user).or_default().push(x.item);
                }
            }
        }
        let mut folds = 0usize;
        let items_changed = n_items > self.frozen_items;
        for id in self.frozen_items..n_items {
            let emb: Vec<f32> = match item_users.get(&(id as u32)) {
                Some(users) => {
                    let art = &self.artifact;
                    let rows: Vec<&[f32]> =
                        users.iter().map(|&u| art.user_emb.row(u as usize)).collect();
                    folds += 1;
                    fold_embedding(&rows, dim, &self.fold)
                }
                None => vec![0.0; dim],
            };
            self.artifact.item_emb.row_mut(id).copy_from_slice(&emb);
            if let Some(state) = self.ann.as_mut() {
                if state.index.insert(id as u32, &emb).is_err() && imcat_obs::enabled() {
                    // A failed insert costs ANN recall for this item, never
                    // correctness: probes simply cannot reach it until the
                    // next full rebuild re-indexes the catalog.
                    imcat_obs::counter_add("ingest.insert_failures", 1);
                }
            }
        }
        self.frozen_items = n_items;
        let mut users: Vec<u32> = user_items.keys().copied().collect();
        users.sort_unstable();
        for u in users {
            let emb = {
                let art = &self.artifact;
                let rows: Vec<&[f32]> =
                    user_items[&u].iter().map(|&i| art.item_emb.row(i as usize)).collect();
                fold_embedding(&rows, dim, &self.fold)
            };
            self.artifact.user_emb.row_mut(u as usize).copy_from_slice(&emb);
            self.cache.remove_user(u);
            folds += 1;
        }
        if items_changed {
            self.cache.clear();
        }
        if imcat_obs::enabled() {
            imcat_obs::counter_add("ingest.folds", folds as u64);
        }
        folds
    }

    /// Spawns a background full rebuild over a snapshot of this
    /// generation's `(base, log)`. The worker replays the log through
    /// [`crate::rebuild_artifact`], builds a fresh index, and — when
    /// `persist` names a container — *stages* the next generation on disk
    /// (atomic save, committed pointer untouched, crash-safe). The engine
    /// keeps serving and ingesting; hand the task back to
    /// [`Engine::commit_rebuild`] when [`RebuildTask::is_finished`].
    pub fn spawn_rebuild(&self, persist: Option<PathBuf>) -> io::Result<RebuildTask> {
        let base = self.base.clone().unwrap_or_else(|| self.artifact.clone());
        rebuild::spawn(base, self.log.clone(), self.fold, self.cfg.ann, persist)
    }

    /// Joins a finished rebuild and swaps the new generation in: the
    /// rebuilt artifact becomes the base, events ingested after the
    /// snapshot are replayed onto it through the live mutation path, and —
    /// when the worker staged the generation on disk — the committed
    /// pointer is flipped with a second atomic save. In-memory swap happens
    /// first: requests between the two steps already serve the new
    /// generation, and a crash before the flip recovers to the old one.
    pub fn commit_rebuild(&mut self, task: RebuildTask) -> io::Result<()> {
        let out = task
            .handle
            .join()
            .map_err(|_| io::Error::new(io::ErrorKind::Other, "rebuild worker panicked"))??;
        let suffix: Vec<StreamEvent> =
            self.log.get(task.snap_len..).map(<[_]>::to_vec).unwrap_or_default();
        let ann = match (self.cfg.ann, out.index) {
            (Some(cfg), Some(index)) => {
                Some(AnnState { cfg, index, scratch: ProbeScratch::default() })
            }
            _ => None,
        };
        self.swap_generation(Some(out.artifact), ann, "serve.rebuild.commits")?;
        // Replay the post-snapshot suffix through the normal live path: the
        // events were valid when first ingested and the rebuilt artifact
        // contains every registration the snapshot saw, so they stay valid.
        for ev in suffix {
            match ev {
                StreamEvent::RegisterUser => {
                    self.register_user();
                }
                StreamEvent::RegisterItem => {
                    self.register_item();
                }
                StreamEvent::Interaction(x) => {
                    let _ = self.ingest(x);
                }
            }
        }
        if let Some((path, gen)) = out.staged {
            let mut ck = Checkpoint::load(&path)?;
            ck.commit_generation(gen);
            ck.save(&path)?;
        }
        Ok(())
    }

    /// Number of users the current artifact can serve.
    pub fn n_users(&self) -> usize {
        self.artifact.n_users()
    }

    /// Catalogue size of the current artifact.
    pub fn n_items(&self) -> usize {
        self.artifact.n_items()
    }

    /// Scores every item for `user`, sharding the item axis over the thread
    /// pool. Element `j` is the same `imcat_simd::dot` kernel `matmul_nt`
    /// runs, so the row is bit-identical to the evaluator's score row at any
    /// thread count.
    fn score_user(&self, user: u32) -> Vec<f32> {
        let u_row = self.artifact.user_emb.row(user as usize);
        let items = &self.artifact.item_emb;
        let mut scores = vec![0.0f32; items.rows()];
        let shard = self.cfg.shard_items.max(1);
        imcat_par::global().parallel_chunks_mut(&mut scores, shard, |ci, slots| {
            for (off, slot) in slots.iter_mut().enumerate() {
                *slot = imcat_simd::dot(u_row, items.row(ci * shard + off));
            }
        });
        scores
    }

    fn top_k(&mut self, user: u32, k: usize, scores: &[f32]) -> Vec<Recommendation> {
        let mask = &self.artifact.masks[user as usize];
        let top = top_n_masked_with(scores, mask, k, &mut self.scratch);
        top.iter().map(|&j| Recommendation { item: j, score: scores[j as usize] }).collect()
    }

    /// ANN path for one request. `None` means "fall back to brute force":
    /// cold user (all-zero embedding — every dot product is 0 and centroid
    /// ranking is meaningless), fully-masked user, or a probe whose unmasked
    /// candidates cannot fill the requested `k`.
    fn ann_recommend(&mut self, user: u32, k: usize) -> Option<Vec<Recommendation>> {
        let state = self.ann.as_mut()?;
        let n_items = self.artifact.item_emb.rows();
        let mask = &self.artifact.masks[user as usize];
        if mask.len() >= n_items {
            return None;
        }
        let u_row = self.artifact.user_emb.row(user as usize);
        if u_row.iter().all(|&x| x == 0.0) {
            return None;
        }
        // `nprobe` for the list backends, `ef_search` for the graph — the
        // probe-width knob of whichever backend is live.
        let width = state.cfg.resolved_probe_width(n_items);
        state.index.probe(u_row, &self.artifact.item_emb, mask, k, width, &mut state.scratch);
        let unmasked = state.scratch.candidates().len() - state.scratch.mask().len();
        if unmasked < k.min(n_items - mask.len()) {
            return None;
        }
        // Re-rank the compact candidate set through the evaluator's own
        // selection path — identical scores, identical tie discipline.
        let top =
            top_n_masked_with(state.scratch.scores(), state.scratch.mask(), k, &mut self.scratch);
        Some(
            top.iter()
                .map(|&ci| Recommendation {
                    item: state.scratch.candidates()[ci as usize],
                    score: state.scratch.scores()[ci as usize],
                })
                .collect(),
        )
    }

    /// Computes a fresh (uncached) answer: ANN probe when active, brute
    /// force otherwise or as fallback.
    fn compute(&mut self, user: u32, k: usize) -> Vec<Recommendation> {
        if self.ann.is_some() {
            if let Some(out) = self.ann_recommend(user, k) {
                return out;
            }
            if imcat_obs::enabled() {
                imcat_obs::counter_add("ann.fallbacks", 1);
            }
        }
        let _score = imcat_obs::span("serve.score.seconds");
        let scores = self.score_user(user);
        self.top_k(user, k, &scores)
    }

    fn account(&mut self, requests: u64, seconds: f64) {
        self.served += requests;
        for _ in 0..requests {
            self.latency.record(seconds);
        }
        OBS_REQUESTS.add(requests);
        OBS_REQUEST_SECONDS.observe(seconds);
    }

    /// Validates one request against the live artifact. Rejections are
    /// counted (`serve.rejects`) but cost no scoring work and leave no cache
    /// or latency footprint.
    fn validate_request(&self, user: u32, k: usize) -> Result<(), ServeError> {
        let n_users = self.artifact.n_users() as u32;
        let err = if user >= n_users {
            ServeError::UserOutOfRange { user, n_users }
        } else if k == 0 {
            ServeError::ZeroK
        } else {
            return Ok(());
        };
        OBS_REJECTS.add(1);
        Err(err)
    }

    /// Answers one request: the top `k` unseen items for `user`, best first.
    /// A malformed request (out-of-range user, `k == 0`) is rejected with a
    /// typed [`ServeError`] — the engine never panics on request data.
    ///
    /// Mints a per-request trace id; sampled requests collect their span
    /// breakdown into the live trace store (`/trace/<id>`).
    pub fn recommend(&mut self, user: u32, k: usize) -> Result<Vec<Recommendation>, ServeError> {
        self.validate_request(user, k)?;
        let _trace = imcat_obs::trace::request("serve.request", "serve.request.seconds", false);
        let t0 = Instant::now();
        if let Some(cached) = self.cache.get((user, k)) {
            let out = cached.to_vec();
            OBS_CACHE_HITS.add(1);
            self.account(1, t0.elapsed().as_secs_f64());
            return Ok(out);
        }
        OBS_CACHE_MISSES.add(1);
        let out = self.compute(user, k);
        self.cache.put((user, k), out.clone());
        self.account(1, t0.elapsed().as_secs_f64());
        Ok(out)
    }

    /// Answers a tick's worth of concurrent requests. Cache misses are
    /// deduplicated and scored with a *single* `matmul_nt` over the unique
    /// miss users, then ranked per row; results land in the cache before the
    /// tick returns. Output order matches `requests`, and every answer —
    /// including each rejection — is identical to what [`Engine::recommend`]
    /// returns for the same request: a malformed request yields its own
    /// `Err` slot while the rest of the tick is answered normally, so one
    /// bad request can never abort a batch or take down a worker.
    pub fn recommend_batch(
        &mut self,
        requests: &[(u32, usize)],
    ) -> Vec<Result<Vec<Recommendation>, ServeError>> {
        // A front-end ticks about once per request, so ticks are sampled at
        // the request rate; a sampled tick collects its matmul, probe and
        // dispatch spans.
        let _trace = imcat_obs::trace::request("serve.tick", "serve.tick.seconds", false);
        let t0 = Instant::now();
        type Answer = Result<Vec<Recommendation>, ServeError>;
        let mut outputs: Vec<Option<Answer>> = Vec::with_capacity(requests.len());
        let mut miss_keys: Vec<CacheKey> = Vec::new();
        let mut miss_index: HashMap<CacheKey, usize> = HashMap::new();
        let mut hits = 0u64;
        for &(user, k) in requests {
            if let Err(e) = self.validate_request(user, k) {
                outputs.push(Some(Err(e)));
                continue;
            }
            if let Some(cached) = self.cache.get((user, k)) {
                hits += 1;
                outputs.push(Some(Ok(cached.to_vec())));
            } else {
                outputs.push(None);
                if let Entry::Vacant(slot) = miss_index.entry((user, k)) {
                    slot.insert(miss_keys.len());
                    miss_keys.push((user, k));
                }
            }
        }
        if !miss_keys.is_empty() && self.ann.is_some() {
            // ANN path: each unique miss goes through the same probe (or
            // brute fallback) as the single-request path, so batch answers
            // stay bit-identical to [`Engine::recommend`].
            let mut fresh: Vec<Vec<Recommendation>> = Vec::with_capacity(miss_keys.len());
            for &(user, k) in &miss_keys {
                let recs = self.compute(user, k);
                self.cache.put((user, k), recs.clone());
                fresh.push(recs);
            }
            for (slot, &(user, k)) in outputs.iter_mut().zip(requests) {
                if slot.is_none() {
                    *slot = Some(Ok(fresh[miss_index[&(user, k)]].clone()));
                }
            }
        } else if !miss_keys.is_empty() {
            // One scoring matmul for the whole tick: one row per unique miss
            // user (a user requested at two cutoffs shares a row).
            let mut users: Vec<u32> = miss_keys.iter().map(|&(u, _)| u).collect();
            users.sort_unstable();
            users.dedup();
            let row_of: HashMap<u32, usize> =
                users.iter().enumerate().map(|(i, &u)| (u, i)).collect();
            let scores = self.artifact.user_emb.matmul_nt_rows(&users, &self.artifact.item_emb);
            let mut fresh: Vec<Vec<Recommendation>> = Vec::with_capacity(miss_keys.len());
            for &(user, k) in &miss_keys {
                let row = scores.row(row_of[&user]);
                let recs = self.top_k(user, k, row);
                self.cache.put((user, k), recs.clone());
                fresh.push(recs);
            }
            for (slot, &(user, k)) in outputs.iter_mut().zip(requests) {
                if slot.is_none() {
                    *slot = Some(Ok(fresh[miss_index[&(user, k)]].clone()));
                }
            }
        }
        // Defensive completion: a slot can only still be empty if the fill
        // passes above missed a valid request (a bug, not request data). It
        // used to `expect` here — aborting the whole worker mid-tick — but a
        // partially-filled tick is recoverable: answer the straggler through
        // the single-request compute path and count the repair so the
        // invariant violation stays visible in telemetry.
        for i in 0..outputs.len() {
            if outputs[i].is_none() {
                if imcat_obs::enabled() {
                    imcat_obs::counter_add("serve.tick.repairs", 1);
                }
                let (user, k) = requests[i];
                let recs = self.compute(user, k);
                self.cache.put((user, k), recs.clone());
                outputs[i] = Some(Ok(recs));
            }
        }
        let dt = t0.elapsed().as_secs_f64();
        self.account(requests.len() as u64, dt);
        OBS_CACHE_HITS.add(hits);
        OBS_CACHE_MISSES.add(requests.len() as u64 - hits);
        OBS_TICKS.add(1);
        OBS_TICK_SECONDS.observe(dt);
        // Every slot is Some after the repair pass; the fallback keeps this
        // path abort-free by construction rather than by `expect`.
        outputs.into_iter().map(|o| o.unwrap_or(Err(ServeError::ZeroK))).collect()
    }

    /// Lifetime serving statistics (latency quantiles are log-bucket upper
    /// bounds, matching `imcat-obs` histograms).
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            served: self.served,
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            p50_seconds: self.latency.quantile(0.50),
            p95_seconds: self.latency.quantile(0.95),
            p99_seconds: self.latency.quantile(0.99),
            mean_seconds: self.latency.mean(),
            busy_seconds: self.latency.sum,
        }
    }

    /// Number of currently cached top-K lists.
    pub fn cached_lists(&self) -> usize {
        self.cache.len()
    }
}
