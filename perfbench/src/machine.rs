//! What the benchmark reads about the machine and its own process: how
//! fast the machine runs right now, peak memory, and stolen CPU time.

use std::time::Instant;

/// Seconds [`calibration_s`] took on the machine the benchmark was written
/// on (2 vCPUs of a shared x86-64 VM). Scaled times are in seconds at this
/// speed.
pub const REFERENCE_CALIBRATION_S: f64 = 0.07;

/// Wall seconds of a fixed loop of scalar arithmetic over a freshly
/// allocated 8 MiB buffer. It runs none of the program's code, so no change
/// to the program moves it; only the machine's speed at the moment does.
pub fn calibration_s() -> f64 {
    let t0 = Instant::now();
    let mut v: Vec<f32> = (0..1 << 21).map(|i| (i % 97) as f32).collect();
    let mut acc = 0f32;
    for pass in 0..8 {
        for x in v.iter_mut() {
            *x = x.mul_add(0.999, pass as f32);
            acc += *x;
        }
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Wall seconds.
    pub wall_s: f64,
    /// Wall seconds rescaled to the reference speed: times
    /// [`REFERENCE_CALIBRATION_S`] over the mean of the calibrations run
    /// just before and just after the call.
    pub scaled_s: f64,
}

/// Runs `f` between two calibrations and times it.
pub fn timed<R>(f: impl FnOnce() -> R) -> (Timing, R) {
    let before = calibration_s();
    let t0 = Instant::now();
    let r = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let after = calibration_s();
    (Timing { wall_s, scaled_s: scale(wall_s, before, after) }, r)
}

/// `wall_s` rescaled by the calibrations around it.
fn scale(wall_s: f64, before: f64, after: f64) -> f64 {
    wall_s * REFERENCE_CALIBRATION_S / ((before + after) / 2.0)
}

/// Peak resident memory of this process since it started or since the last
/// [`reset_peak_rss`], MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Hands the allocator's free memory back to the operating system, so that
/// what stays resident is what is still in use. Without it, whether freed
/// memory leaves the process depends on the allocator's history: dropping
/// the same training state left 24 MB or 54 MB resident in identical runs.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers; it only returns
        // free pages of the allocator's own heaps.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Resets the peak [`peak_rss_mb`] reads to the current resident memory.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// `(steal, total)` CPU jiffies of the whole machine, from `/proc/stat`.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_divides_out_the_machine_speed() {
        let r = REFERENCE_CALIBRATION_S;
        assert_eq!(scale(1.0, r, r), 1.0);
        // A machine running at half speed: twice the wall time, same scaled.
        assert_eq!(scale(2.0, 2.0 * r, 2.0 * r), 1.0);
        assert_eq!(scale(1.0, r / 2.0, 3.0 * r / 2.0), 1.0);
    }

    #[test]
    fn the_peak_resets_to_the_current_size() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        drop(big);
        if reset_peak_rss().is_ok() {
            assert!(peak_rss_mb() < 64.0, "{}", peak_rss_mb());
        }
    }
}
