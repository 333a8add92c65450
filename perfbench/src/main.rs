//! Benchmark of the POWDER optimizer, its pass pipeline and its serving
//! daemon, driven through the crates' public APIs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload refute|commit|pipeline --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` times the
//! calls into each layer from outside and reports the per-layer metrics.
//! Every run checks its outputs, prints each metric by name with its
//! unit, and ends with one JSON result line. It exits 1 if any output is
//! wrong and 2 on bad arguments.

mod check;
mod noise;
mod probes;
mod report;
mod serve_load;
mod stats;
mod workload;

use std::sync::Arc;

struct Args {
    workload: &'static workload::Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::named(value).ok_or(format!(
                    "unknown workload {value:?} (expected {})",
                    workload::WORKLOADS
                        .iter()
                        .map(|w| w.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                ))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad --seconds: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace: {value} (expected 0 or 1)")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let spec = args.workload;
    let lib = Arc::new(powder_library::lib2());
    let machine = noise::Sample::now();
    let out = if args.trace {
        probes::run(spec, args.seed, &lib)
    } else {
        workload::measure(spec, args.seed, args.seconds, &lib)
    };
    let _ = std::fs::remove_dir(serve_load::work_dir());
    let d = machine.diagnostics();
    println!(
        "noise: {{\"elapsed_s\": {:.3}, \"steal_pct\": {:.3}, \"other_cpu_s\": {:.3}, \
         \"loadavg_1m\": {:.2}, \"nproc\": {}}}",
        d.elapsed_s, d.steal_pct, d.other_cpu_s, d.loadavg_1m, d.nproc
    );
    println!(
        "workload {} seed {} seconds {} trace {}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let declared = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    out.print(declared);
    if !out.correct() {
        std::process::exit(1);
    }
}
