//! The repository benchmark. One run of one workload:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload read-hot --seed 1 --seconds 8 --trace 0
//! ```
//!
//! prints what it measures as it goes, then as its last line one JSON
//! object: `correct`, `attempted`, `failed`, and `metrics` holding every
//! end-to-end metric (`--trace 0`) or every per-layer metric (`--trace 1`)
//! that `BENCHMARK.json` names. A failed correctness check makes the run
//! exit nonzero. See `perfbench/README.md` for the workloads and metrics.

mod drive;
mod layers;
mod machine;
mod report;
mod stats;
mod wire;
mod workload;
mod writer;

use std::process::ExitCode;

use report::{Report, END_TO_END, PER_LAYER, PRINTED_ONLY};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} must be in (0, 120]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Removes every `IMCAT_*` variable from this process's environment, so no
/// knob left in the caller's shell can change a result. Runs before any
/// other thread exists.
fn scrub_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("IMCAT_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unresolved {r}")),
        None if !head.is_empty() => head.to_string(),
        None => "unknown (not a git checkout)".into(),
    }
}

fn main() -> ExitCode {
    let scrubbed = scrub_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload::by_name(&args.workload) else {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("perfbench: unknown workload {} (one of {names:?})", args.workload);
        return ExitCode::from(2);
    };
    let (serve_cfg, net_cfg) = workload::configs();
    println!(
        "provenance: workload {} seed {} seconds {} trace {} | nproc {} simd {} pool threads {} | commit {} | scrubbed env {:?}",
        w.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        imcat_simd::backend().name(),
        imcat_par::current_threads(),
        commit(),
        scrubbed
    );
    println!("config: {serve_cfg:?}");
    println!("config: {net_cfg:?}");

    let mut report = Report::default();
    let cpu_before = machine::cpu_jiffies();
    workload::run(w, args.seed, args.seconds, args.trace, &mut report);
    // Time the hypervisor gave to other guests: a run that lost a large
    // share of the machine reads slow for reasons outside the program.
    if let (Some((s0, t0)), Some((s1, t1))) = (cpu_before, machine::cpu_jiffies()) {
        let share = s1.saturating_sub(s0) as f64 / t1.saturating_sub(t0).max(1) as f64;
        println!("machine: {:.1}% of CPU time stolen during the run", share * 100.0);
    }
    if !args.trace {
        report.print_only(&PRINTED_ONLY);
    }
    let line = report.result(if args.trace { &PER_LAYER } else { &END_TO_END });
    println!("{line}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&args("--workload read-hot --seed 3 --seconds 8 --trace 1")).unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("read-hot", 3, 8.0, true));
        assert!(parse_args(&args("--workload x --seed 3 --seconds 8")).is_err());
        assert!(parse_args(&args("--workload x --seed 3 --seconds 8 --trace 2")).is_err());
        assert!(parse_args(&args("--workload x --seed -1 --seconds 8 --trace 0")).is_err());
        assert!(parse_args(&args("--workload x --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&args("--workload")).is_err());
    }

    #[test]
    fn every_workload_name_resolves() {
        for name in ["read-hot", "read-cold", "ingest-mix", "train-imcat"] {
            assert!(workload::by_name(name).is_some(), "{name}");
        }
        assert!(workload::by_name("nope").is_none());
    }
}
