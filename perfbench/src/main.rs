//! Command-line entry point:
//!
//! ```text
//! perfbench --workload <compile|serve|llm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a table, then one JSON line: `correct`, `attempted`, `failed`
//! and the metrics (end-to-end untraced, per-layer traced). A traced run
//! also writes its spans, one JSON object per line, under `out/` in the
//! package directory.

use std::process::ExitCode;

use bolt_perfbench::trace::CountingAlloc;
use bolt_perfbench::{Args, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or_else(|| {
                        format!("unknown workload {value:?} (compile, serve, llm)")
                    })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // A tune cache or bundle would turn the cold compiles warm.
    for var in ["BOLT_TUNE_CACHE", "BOLT_TUNE_BUNDLE"] {
        if std::env::var_os(var).is_some() {
            eprintln!("perfbench: refusing to run with {var} set (it makes cold compiles warm)");
            return ExitCode::from(2);
        }
    }
    let report = match bolt_perfbench::run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} set-up failed: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };

    println!(
        "workload {} seed {} seconds {} trace {} (host parallelism {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for note in &report.notes {
        println!("  {note}");
    }
    for m in &report.metrics {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for problem in &report.problems {
        println!("  FAILED CHECK: {problem}");
    }
    if let Some(tracer) = &report.tracer {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!(
                "spans-{}-seed{}.jsonl",
                args.workload.name(),
                args.seed
            ));
        match tracer.write_json_lines(&path) {
            Ok(()) => println!("  {} spans written to {}", tracer.len(), path.display()),
            Err(e) => {
                eprintln!("perfbench: writing spans to {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
