//! Fleet tooling for portable autotune caches.
//!
//! ```text
//! bolt-tune pack fleet.bundle t4.tune a100.tune     pack per-arch caches into one bundle
//! bolt-tune merge fleet.bundle fresh.tune           fold new winners into an existing bundle
//! bolt-tune inspect fleet.bundle                    per-arch shard summary
//! bolt-tune extract fleet.bundle t4.tune --arch t4  pull one arch back out as a one-shard bundle
//! ```
//!
//! Every input and output is a tune bundle ([`bolt::cache`]): a cache
//! written by `bolt-cli --cache` is a bundle holding one architecture's
//! shard, so `pack` and `merge` accept caches and packed bundles alike,
//! and `extract` writes the same bytes that cache would hold.
//! Overlapping shards keep the **faster winner** per workload, so
//! repeated tuning sessions fold together without ever regressing a
//! kernel choice. Output files are canonical: the same shards always
//! produce byte-identical bytes, making bundles diffable and safe to
//! ship through content-addressed stores.

use std::path::Path;
use std::process::ExitCode;

use bolt::{arch_fingerprint, TuneBundle};
use bolt_gpu_sim::GpuArch;

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse() -> Self {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut iter = std::env::args().skip(1).peekable();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let value = match iter.peek() {
                    Some(v) if !v.starts_with("--") => Some(iter.next().expect("peeked")),
                    _ => None,
                };
                flags.push((name.to_string(), value));
            } else {
                positional.push(arg);
            }
        }
        Args { positional, flags }
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  bolt-tune pack <out.bundle> <tune-file>...\n  bolt-tune merge <bundle> <tune-file>...\n  bolt-tune inspect <tune-file>\n  bolt-tune extract <bundle> <out.tune> --arch <{}>",
        GpuArch::PRESET_NAMES.join("|")
    );
    ExitCode::FAILURE
}

/// Reads every input (a cache or a packed bundle) and folds it into
/// `bundle`, reporting per-file shard provenance. Returns false on the first
/// unreadable input — partial packs would ship silently-thin bundles.
fn absorb_inputs(bundle: &mut TuneBundle, inputs: &[String]) -> bool {
    for input in inputs {
        match TuneBundle::read(Path::new(input)) {
            Ok(read) => {
                for shard in read.shards() {
                    println!("  {input}: {} ({} entries)", shard.describe(), shard.len());
                }
                bundle.absorb_bundle(read);
            }
            Err(e) => {
                eprintln!("cannot read {input}: {e}");
                return false;
            }
        }
    }
    true
}

fn summarize(bundle: &TuneBundle) {
    for shard in bundle.shards() {
        println!("  shard {} — {} entries", shard.describe(), shard.len());
    }
    println!(
        "  {} shard(s), {} entries total",
        bundle.shards().len(),
        bundle.total_entries()
    );
}

fn cmd_pack(args: &Args) -> ExitCode {
    let [out, inputs @ ..] = &args.positional[1..] else {
        return usage();
    };
    if inputs.is_empty() {
        return usage();
    }
    let mut bundle = TuneBundle::new();
    if !absorb_inputs(&mut bundle, inputs) {
        return ExitCode::FAILURE;
    }
    if let Err(e) = bundle.write(Path::new(out)) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("packed {out}:");
    summarize(&bundle);
    ExitCode::SUCCESS
}

fn cmd_merge(args: &Args) -> ExitCode {
    let [target, inputs @ ..] = &args.positional[1..] else {
        return usage();
    };
    if inputs.is_empty() {
        return usage();
    }
    let mut bundle = match TuneBundle::read(Path::new(target)) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read {target}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let before = bundle.total_entries();
    if !absorb_inputs(&mut bundle, inputs) {
        return ExitCode::FAILURE;
    }
    if let Err(e) = bundle.write(Path::new(target)) {
        eprintln!("cannot write {target}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "merged into {target} ({} -> {} entries):",
        before,
        bundle.total_entries()
    );
    summarize(&bundle);
    ExitCode::SUCCESS
}

fn cmd_inspect(args: &Args) -> ExitCode {
    let Some(path) = args.positional.get(1) else {
        return usage();
    };
    let bundle = match TuneBundle::read(Path::new(path)) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{path}:");
    summarize(&bundle);
    ExitCode::SUCCESS
}

fn cmd_extract(args: &Args) -> ExitCode {
    let (Some(path), Some(out)) = (args.positional.get(1), args.positional.get(2)) else {
        return usage();
    };
    let Some(arch_name) = args.flag("arch") else {
        return usage();
    };
    let Some(arch) = GpuArch::preset(arch_name) else {
        eprintln!(
            "unknown arch {arch_name:?}; presets: {}",
            GpuArch::PRESET_NAMES.join(", ")
        );
        return ExitCode::FAILURE;
    };
    let bundle = match TuneBundle::read(Path::new(path)) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let fingerprint = arch_fingerprint(&arch);
    let Some(shard) = bundle.shard_for(fingerprint) else {
        eprintln!(
            "{path} has no shard for {} ({fingerprint:016x}); it holds:",
            arch.name
        );
        for shard in bundle.shards() {
            eprintln!("  {}", shard.describe());
        }
        return ExitCode::FAILURE;
    };
    let mut extracted = TuneBundle::new();
    extracted.absorb(shard.clone());
    if let Err(e) = extracted.write(Path::new(out)) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "extracted {} ({} entries) -> {out}",
        shard.describe(),
        shard.len()
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = Args::parse();
    match args.positional.first().map(String::as_str) {
        Some("pack") => cmd_pack(&args),
        Some("merge") => cmd_merge(&args),
        Some("inspect") => cmd_inspect(&args),
        Some("extract") => cmd_extract(&args),
        _ => usage(),
    }
}
