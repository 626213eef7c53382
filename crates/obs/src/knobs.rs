//! The workspace's single `IMCAT_*` environment-knob reader.
//!
//! Every operational knob used to be parsed ad hoc at its use site — one
//! `std::env::var` + `parse` + fallback per crate, with no central list to
//! check the README's environment table against. This module owns that
//! layer: a static registry of every knob (name, kind, default, owning
//! subsystem, help line) plus typed accessors that look the knob up in the
//! registry before reading the environment, so an unregistered name is a
//! bug caught in tests rather than a silently undocumented knob.
//!
//! `imcat_core::config` re-exports this module as the library-facing
//! configuration surface; the network front-end's `/stats` route serves
//! [`dump`] so a live process can report its effective configuration.
//!
//! Reads are intentionally *not* cached: several tests and benches set
//! knobs mid-process, and a few hundred nanoseconds of `getenv` at
//! configuration time (never on a request path) buys that flexibility.

/// Value kind of a registered knob, for documentation and dump rendering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KnobKind {
    /// Unsigned integer (`usize`/`u64`).
    Int,
    /// Floating-point number.
    Float,
    /// Boolean-ish flag (`1`/`true`/`on` enable).
    Flag,
    /// Free-form string (paths, addresses, comma lists, backend names).
    Str,
}

/// One registered environment knob.
#[derive(Clone, Copy, Debug)]
pub struct Knob {
    /// Environment variable name (`IMCAT_*`).
    pub key: &'static str,
    /// Value kind.
    pub kind: KnobKind,
    /// Human-readable default (what applies when the variable is unset).
    pub default: &'static str,
    /// Owning subsystem, matching the README table's "crate" column.
    pub owner: &'static str,
    /// One-line description.
    pub help: &'static str,
}

macro_rules! knob {
    ($key:literal, $kind:ident, $default:literal, $owner:literal, $help:literal) => {
        Knob { key: $key, kind: KnobKind::$kind, default: $default, owner: $owner, help: $help }
    };
}

/// Every `IMCAT_*` knob the workspace reads, in README-table order. The
/// README's environment table is tested against this list
/// (`imcat-core/tests/knob_registry.rs`), so adding a knob here without
/// documenting it — or documenting one without registering it — fails CI.
pub static KNOBS: &[Knob] = &[
    knob!("IMCAT_SCALE", Float, "1.0", "bench", "Synthetic dataset size multiplier"),
    knob!("IMCAT_EPOCHS", Int, "per-bin", "bench", "Training epoch budget"),
    knob!("IMCAT_TRIALS", Int, "per-bin", "bench", "Seeds per experiment cell"),
    knob!("IMCAT_DIM", Int, "32", "bench", "Embedding dimension"),
    knob!("IMCAT_OBS", Flag, "off", "obs", "Enables telemetry collection"),
    knob!("IMCAT_OBS_OUT", Str, "unset", "obs", "JSONL sink path (implies IMCAT_OBS=1)"),
    knob!("IMCAT_OBS_ADDR", Str, "unset", "obs", "Bind /metrics endpoint (implies IMCAT_OBS=1)"),
    knob!("IMCAT_OBS_FLUSH_SECS", Float, "unset", "obs", "Append a JSONL snapshot every N seconds"),
    knob!("IMCAT_OBS_FLUSH_PATH", Str, "derived", "obs", "Flusher output path"),
    knob!("IMCAT_OBS_WINDOW_SECS", Int, "60", "obs", "Sliding-percentile window length"),
    knob!("IMCAT_OBS_TRACE_SAMPLE", Int, "16", "obs", "Record full spans for 1-in-N requests"),
    knob!("IMCAT_OBS_TRACE_CAP", Int, "512", "obs", "Trace ring-buffer capacity"),
    knob!("IMCAT_OBS_SLOW_US", Float, "windowed p99", "obs", "Slow-trace threshold, microseconds"),
    knob!("IMCAT_THREADS", Int, "#cores", "par", "Thread-pool size; 1 = fully inline"),
    knob!("IMCAT_SIMD", Str, "auto", "simd", "Kernel backend override: scalar or avx2"),
    knob!("IMCAT_CKPT_DIR", Str, "unset", "core", "Checkpoint directory (enables checkpointing)"),
    knob!("IMCAT_CKPT_EVERY", Int, "1", "core", "Checkpoint every N epochs"),
    knob!("IMCAT_SERVE_REQUESTS", Int, "2000", "bench", "serve_bench request count"),
    knob!("IMCAT_SERVE_ZIPF", Float, "1.1", "bench", "serve_bench user-popularity skew"),
    knob!("IMCAT_SERVE_K", Int, "20", "bench", "serve_bench top-K cutoff"),
    knob!("IMCAT_SERVE_BATCH", Int, "32", "bench", "serve_bench batch-tick size"),
    knob!("IMCAT_SERVE_CACHE", Int, "256", "bench", "serve_bench LRU capacity"),
    knob!("IMCAT_SERVE_HOLD_SECS", Float, "0", "bench", "serve_bench live hold after the table"),
    knob!("IMCAT_OBS_BENCH_GATE", Flag, "off", "bench", "obs_bench exits nonzero on gate failure"),
    knob!("IMCAT_ANN_REQUESTS", Int, "2000", "bench", "ann_bench request count"),
    knob!("IMCAT_ANN_K", Int, "10", "bench", "ann_bench ranking cutoff"),
    knob!("IMCAT_ANN_ZIPF", Float, "1.1", "bench", "ann_bench user-popularity skew"),
    knob!("IMCAT_ANN_NLIST", Int, "0", "bench", "ann_bench inverted-list count (0 = auto)"),
    knob!("IMCAT_ANN_KIND", Str, "ivf", "serve", "ANN backend: ivf, brute, or hnsw"),
    knob!("IMCAT_HNSW_M", Int, "0", "ann", "HNSW degree bound per level (0 = auto)"),
    knob!("IMCAT_HNSW_EFC", Int, "0", "ann", "HNSW construction beam width (0 = auto)"),
    knob!("IMCAT_HNSW_EFS", Int, "0", "ann", "HNSW search beam width (0 = auto)"),
    knob!("IMCAT_KERNEL_REPS", Int, "5", "bench", "kernel_bench best-of repetitions"),
    knob!("IMCAT_KERNEL_BATCH", Int, "4", "bench", "kernel_bench matmul row-batch size"),
    knob!("IMCAT_NET_SHARDS", Int, "1", "net", "Engine replicas sharded on the item axis"),
    knob!("IMCAT_NET_WORKERS", Int, "4", "net", "Connection worker threads"),
    knob!("IMCAT_NET_QUEUE", Int, "64", "net", "Bounded admission queue capacity"),
    knob!("IMCAT_NET_BATCH", Int, "64", "net", "Max requests per micro-batch tick"),
    knob!("IMCAT_NET_DEADLINE_MS", Int, "2000", "net", "Total per-request deadline, ms"),
    knob!("IMCAT_NET_FRONTIER", Flag, "1", "bench", "0 skips serve_bench's network frontier"),
    knob!("IMCAT_NET_SHARD_COUNTS", Str, "1,2,4", "bench", "Frontier shard counts, comma list"),
    knob!("IMCAT_NET_REQUESTS", Int, "600", "bench", "Frontier socket requests per pass"),
    knob!("IMCAT_NET_CONNS", Int, "8", "bench", "Frontier closed-loop connections"),
    knob!("IMCAT_NET_SENDERS", Int, "16", "bench", "Frontier open-loop sender threads"),
    knob!("IMCAT_NET_OPEN_FACTORS", Str, "0.6,1.5", "bench", "Open-loop offered-rate fractions"),
    knob!("IMCAT_INGEST_USERS", Int, "32", "bench", "stream_bench cold users registered live"),
    knob!("IMCAT_INGEST_BATCH", Int, "8", "bench", "Interactions applied per ingest slice"),
    knob!("IMCAT_INGEST_FOLD_LAMBDA", Float, "0.1", "serve", "Fold-in ridge regularizer"),
    knob!("IMCAT_INGEST_FOLD_STEPS", Int, "0", "serve", "Fold-in lazy-Adam refinement steps"),
    knob!("IMCAT_REBUILD_AT", Float, "0.5", "bench", "Stream fraction that triggers the rebuild"),
    knob!("IMCAT_STREAM_REQUESTS", Int, "2000", "bench", "stream_bench recommend-request count"),
];

/// Looks `key` up in the registry. Accessors assert registration so an
/// undocumented knob cannot creep back in.
pub fn lookup(key: &str) -> Option<&'static Knob> {
    KNOBS.iter().find(|k| k.key == key)
}

fn assert_registered(key: &str) {
    debug_assert!(lookup(key).is_some(), "env knob {key} is not registered in imcat_obs::knobs");
}

/// Reads a registered `usize` knob, falling back to `default` when unset or
/// malformed.
pub fn knob_usize(key: &str, default: usize) -> usize {
    assert_registered(key);
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Reads a registered `u64` knob.
pub fn knob_u64(key: &str, default: u64) -> u64 {
    assert_registered(key);
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Reads a registered `f64` knob.
pub fn knob_f64(key: &str, default: f64) -> f64 {
    assert_registered(key);
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Reads a registered `f32` knob.
pub fn knob_f32(key: &str, default: f32) -> f32 {
    assert_registered(key);
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Reads a registered flag knob (`1`/`true`/`on` are true).
pub fn knob_flag(key: &str, default: bool) -> bool {
    assert_registered(key);
    match std::env::var(key).ok().as_deref() {
        Some("1") | Some("true") | Some("on") => true,
        Some("0") | Some("false") | Some("off") => false,
        _ => default,
    }
}

/// Reads a registered string knob verbatim.
pub fn knob_str(key: &str) -> Option<String> {
    assert_registered(key);
    std::env::var(key).ok()
}

/// The effective configuration: every registered knob with its current
/// value (the environment's, or the registered default when unset). Served
/// by the front-end's `/stats` route so a live process reports the knobs it
/// is actually running under.
pub fn dump() -> Vec<(&'static str, String)> {
    KNOBS
        .iter()
        .map(|k| (k.key, std::env::var(k.key).unwrap_or_else(|_| k.default.to_string())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_no_duplicates() {
        for (i, a) in KNOBS.iter().enumerate() {
            assert!(a.key.starts_with("IMCAT_"), "knob {} lacks the IMCAT_ prefix", a.key);
            for b in &KNOBS[i + 1..] {
                assert_ne!(a.key, b.key, "knob {} registered twice", a.key);
            }
        }
    }

    #[test]
    fn typed_accessors_parse_and_fall_back() {
        std::env::remove_var("IMCAT_NET_SHARDS");
        assert_eq!(knob_usize("IMCAT_NET_SHARDS", 3), 3);
        std::env::set_var("IMCAT_NET_SHARDS", "7");
        assert_eq!(knob_usize("IMCAT_NET_SHARDS", 3), 7);
        std::env::set_var("IMCAT_NET_SHARDS", "junk");
        assert_eq!(knob_usize("IMCAT_NET_SHARDS", 3), 3, "malformed values fall back");
        std::env::remove_var("IMCAT_NET_SHARDS");
        std::env::set_var("IMCAT_NET_FRONTIER", "0");
        assert!(!knob_flag("IMCAT_NET_FRONTIER", true));
        std::env::remove_var("IMCAT_NET_FRONTIER");
    }

    #[test]
    fn dump_reports_defaults_and_overrides() {
        std::env::remove_var("IMCAT_INGEST_FOLD_LAMBDA");
        let get = |d: &[(&str, String)], key: &str| {
            d.iter().find(|(k, _)| *k == key).map(|(_, v)| v.clone())
        };
        let d = dump();
        assert_eq!(get(&d, "IMCAT_INGEST_FOLD_LAMBDA").as_deref(), Some("0.1"));
        std::env::set_var("IMCAT_INGEST_FOLD_LAMBDA", "0.5");
        let d = dump();
        assert_eq!(get(&d, "IMCAT_INGEST_FOLD_LAMBDA").as_deref(), Some("0.5"));
        std::env::remove_var("IMCAT_INGEST_FOLD_LAMBDA");
    }
}
