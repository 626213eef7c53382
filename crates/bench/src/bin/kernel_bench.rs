//! Kernel microbenchmark: ns/op for the `imcat-simd` hot kernels, scalar
//! dispatch versus the runtime-selected SIMD backend, at serving-realistic
//! shapes (embedding dims 64/128, catalogs of 10k/100k items).
//!
//! Four kernels are timed, each as a sweep over an item matrix so the
//! working set matches what the batch scorer and the ANN probe loop touch:
//!
//! * `dot`           — one query row against every item row
//! * `axpy`          — one scaled item row accumulated per item
//! * `matmul_nt`     — a small user batch against every item row (ns per
//!   output element, i.e. per row-dot)
//! * `dot_i8_scaled` — the fused int8 ANN score against every item's codes
//!
//! Timing is best-of-`IMCAT_KERNEL_REPS` wall time per op, which filters
//! scheduler noise without needing a stats crate. Rows land in
//! `kernel_bench.json` via the shared experiment harness and are emitted as
//! `kernel_bench` telemetry events; the `kernel-smoke` CI job gates on the
//! d=128 `dot` / `matmul_nt` speedups when AVX2 is detected.
//!
//! Environment knobs:
//!
//! * `IMCAT_KERNEL_REPS`  — best-of repetitions per measurement (default 5)
//! * `IMCAT_KERNEL_BATCH` — user-batch rows in the matmul_nt sweep (default 4)
//!
//! Usage: `cargo run --release -p imcat-bench --bin kernel_bench`

use std::hint::black_box;
use std::time::Instant;

use imcat_bench::{logln, obs_finish, obs_init, write_json, ExpLog};
use imcat_simd::Backend;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 23;
const DIMS: [usize; 2] = [64, 128];
const COUNTS: [usize; 2] = [10_000, 100_000];

type KernelFn<'a> = Box<dyn Fn(Backend) -> f64 + 'a>;

struct Row {
    kernel: String,
    d: usize,
    n: usize,
    scalar_ns: f64,
    simd_ns: f64,
    speedup: f64,
    backend: String,
    avx2: bool,
}

imcat_obs::impl_to_json!(Row { kernel, d, n, scalar_ns, simd_ns, speedup, backend, avx2 });

/// Best-of-`reps` wall time per op in nanoseconds; each call to `f` must
/// perform `ops` kernel invocations.
fn best_ns_per_op(reps: usize, ops: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        let dt = t0.elapsed().as_secs_f64();
        best = best.min(dt * 1e9 / ops.max(1) as f64);
    }
    best
}

struct Workload {
    d: usize,
    n: usize,
    items: Vec<f32>,
    query: Vec<f32>,
    codes: Vec<i8>,
    scales: Vec<f32>,
}

impl Workload {
    fn new(d: usize, n: usize, rng: &mut StdRng) -> Self {
        let unit = |rng: &mut StdRng| (rng.gen::<f64>() * 2.0 - 1.0) as f32;
        let items: Vec<f32> = (0..n * d).map(|_| unit(rng)).collect();
        let query: Vec<f32> = (0..d).map(|_| unit(rng)).collect();
        let codes: Vec<i8> = items.iter().map(|&x| (x * 127.0) as i8).collect();
        let scales: Vec<f32> = (0..n).map(|_| 1.0 / 127.0).collect();
        Workload { d, n, items, query, codes, scales }
    }

    fn row(&self, i: usize) -> &[f32] {
        &self.items[i * self.d..(i + 1) * self.d]
    }

    /// ns per d-length dot: one query against every item row.
    fn dot_ns(&self, bk: Backend, reps: usize) -> f64 {
        best_ns_per_op(reps, self.n, || {
            let mut acc = 0.0f32;
            for i in 0..self.n {
                acc += imcat_simd::dot_with(bk, &self.query, self.row(i));
            }
            black_box(acc);
        })
    }

    /// ns per d-length axpy: every item row accumulated with alternating
    /// signs so the accumulator stays bounded across reps.
    fn axpy_ns(&self, bk: Backend, reps: usize) -> f64 {
        let mut y = vec![0.0f32; self.d];
        best_ns_per_op(reps, self.n, || {
            for i in 0..self.n {
                let s = if i % 2 == 0 { 0.25 } else { -0.25 };
                imcat_simd::axpy_with(bk, s, self.row(i), &mut y);
            }
            black_box(&y);
        })
    }

    /// ns per output element of a `batch x d` times `n x d`-transposed
    /// product — the batch-scorer shape, one row-dot per element.
    fn matmul_nt_ns(&self, bk: Backend, reps: usize, batch: usize) -> f64 {
        let users: Vec<f32> = (0..batch)
            .flat_map(|b| self.query.iter().map(move |&x| x * (1.0 + b as f32 * 0.125)))
            .collect();
        let mut out = vec![0.0f32; batch * self.n];
        best_ns_per_op(reps, batch * self.n, || {
            for b in 0..batch {
                let u = &users[b * self.d..(b + 1) * self.d];
                for i in 0..self.n {
                    out[b * self.n + i] = imcat_simd::dot_with(bk, u, self.row(i));
                }
            }
            black_box(&out);
        })
    }

    /// ns per fused int8 score: the quantized ANN scan over every item.
    fn dot_i8_ns(&self, bk: Backend, reps: usize) -> f64 {
        best_ns_per_op(reps, self.n, || {
            let mut acc = 0.0f32;
            for i in 0..self.n {
                let codes = &self.codes[i * self.d..(i + 1) * self.d];
                acc += imcat_simd::dot_i8_scaled_with(bk, codes, &self.query, self.scales[i]);
            }
            black_box(acc);
        })
    }
}

fn main() {
    obs_init(true);
    let mut log = ExpLog::new("kernel_bench");

    let reps = imcat_obs::knob_usize("IMCAT_KERNEL_REPS", 5);
    let batch = imcat_obs::knob_usize("IMCAT_KERNEL_BATCH", 4).max(1);
    let simd_bk = imcat_simd::backend();
    let avx2 = imcat_simd::avx2_detected();
    logln!(
        log,
        "kernel_bench: backend {} (avx2 detected: {avx2}), best of {reps}, matmul batch {batch}",
        simd_bk.name()
    );
    logln!(
        log,
        "{:<14} {:>4} {:>7} {:>12} {:>12} {:>8}",
        "kernel",
        "d",
        "n",
        "scalar ns",
        "simd ns",
        "speedup"
    );

    let mut rng = StdRng::seed_from_u64(SEED);
    let mut rows: Vec<Row> = Vec::new();
    for &d in &DIMS {
        for &n in &COUNTS {
            let w = Workload::new(d, n, &mut rng);
            let kernels: [(&str, KernelFn); 4] = [
                ("dot", Box::new(|bk| w.dot_ns(bk, reps))),
                ("axpy", Box::new(|bk| w.axpy_ns(bk, reps))),
                ("matmul_nt", Box::new(|bk| w.matmul_nt_ns(bk, reps, batch))),
                ("dot_i8_scaled", Box::new(|bk| w.dot_i8_ns(bk, reps))),
            ];
            for (name, run) in kernels {
                let scalar_ns = run(Backend::Scalar);
                let simd_ns = run(simd_bk);
                let row = Row {
                    kernel: name.into(),
                    d,
                    n,
                    scalar_ns,
                    simd_ns,
                    speedup: scalar_ns / simd_ns.max(1e-12),
                    backend: simd_bk.name().into(),
                    avx2,
                };
                logln!(
                    log,
                    "{:<14} {:>4} {:>7} {:>12.2} {:>12.2} {:>8.2}",
                    row.kernel,
                    row.d,
                    row.n,
                    row.scalar_ns,
                    row.simd_ns,
                    row.speedup
                );
                if imcat_obs::enabled() {
                    use imcat_obs::Json;
                    imcat_obs::emit(
                        "kernel_bench",
                        vec![
                            ("kernel", Json::Str(row.kernel.clone())),
                            ("d", Json::Num(row.d as f64)),
                            ("n", Json::Num(row.n as f64)),
                            ("scalar_ns", Json::Num(row.scalar_ns)),
                            ("simd_ns", Json::Num(row.simd_ns)),
                            ("speedup", Json::Num(row.speedup)),
                            ("backend", Json::Str(row.backend.clone())),
                            ("avx2", Json::Bool(row.avx2)),
                        ],
                    );
                    if d == 128 && n == 100_000 {
                        let gauge = match name {
                            "dot" => "kernel.dot.speedup",
                            "axpy" => "kernel.axpy.speedup",
                            "matmul_nt" => "kernel.matmul_nt.speedup",
                            _ => "kernel.dot_i8_scaled.speedup",
                        };
                        imcat_obs::gauge_set(gauge, row.speedup);
                    }
                }
                rows.push(row);
            }
        }
    }

    let path = write_json("kernel_bench", &rows);
    logln!(log, "report written to {}", path.display());
    obs_finish();
}
