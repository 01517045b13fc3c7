//! `kernel_bench`: measured scalar-vs-vectorized kernel throughput plus
//! the end-to-end `hybrid_update_pooled` rate, with an optional CI
//! regression gate; schema documented in `DESIGN.md` §11.
//!
//! ```text
//! kernel_bench [--json] [--out PATH] [--baseline PATH]
//!              [--elements N] [--rounds N] [--iters N]
//! ```
//!
//! `--baseline BENCH_7.json` exits nonzero when the end-to-end
//! throughput regresses by more than the committed tolerance or the
//! always-on monitoring overhead exceeds its budget.

use std::path::PathBuf;
use std::process::ExitCode;

use dos_bench::kernels::{regression_gate, render, run_kernel_bench, KernelBenchReport};

struct Options {
    json: bool,
    out: Option<PathBuf>,
    baseline: Option<PathBuf>,
    elements: usize,
    rounds: usize,
    iters: usize,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        json: false,
        out: None,
        baseline: None,
        elements: 1 << 20,
        rounds: 5,
        iters: 4,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next().map(String::from).ok_or_else(|| format!("{what} needs a value"))
        };
        match arg.as_str() {
            "--json" => opts.json = true,
            "--out" => opts.out = Some(PathBuf::from(value("--out")?)),
            "--baseline" => opts.baseline = Some(PathBuf::from(value("--baseline")?)),
            "--elements" => {
                opts.elements = value("--elements")?.parse().map_err(|e| format!("--elements: {e}"))?
            }
            "--rounds" => {
                opts.rounds = value("--rounds")?.parse().map_err(|e| format!("--rounds: {e}"))?
            }
            "--iters" => {
                opts.iters = value("--iters")?.parse().map_err(|e| format!("--iters: {e}"))?
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.elements == 0 || opts.rounds == 0 || opts.iters == 0 {
        return Err("--elements, --rounds, --iters must be positive".to_string());
    }
    Ok(opts)
}

fn run(opts: &Options) -> Result<(), String> {
    let report = run_kernel_bench(opts.elements, opts.rounds, opts.iters);
    let rendered_json = serde_json::to_string_pretty(&report)
        .map_err(|e| format!("cannot serialize report: {e}"))?;
    if opts.json {
        println!("{rendered_json}");
    } else {
        print!("{}", render(&report));
    }
    if let Some(path) = &opts.out {
        std::fs::write(path, format!("{rendered_json}\n"))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    if let Some(path) = &opts.baseline {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
        let baseline: KernelBenchReport = serde_json::from_str(&text)
            .map_err(|e| format!("cannot parse baseline {}: {e:?}", path.display()))?;
        regression_gate(&report, &baseline)?;
        eprintln!(
            "regression gate passed: {:.3e} pps vs baseline {:.3e}",
            report.hybrid_update.pps, baseline.hybrid_update.pps
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("kernel_bench: {e}");
            eprintln!(
                "usage: kernel_bench [--json] [--out PATH] [--baseline PATH] \
                 [--elements N] [--rounds N] [--iters N]"
            );
            return ExitCode::FAILURE;
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("kernel_bench: {e}");
            ExitCode::FAILURE
        }
    }
}
