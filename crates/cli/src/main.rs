//! `powder` — command-line front end for the POWDER optimizer.
//!
//! ```text
//! powder optimize <in.blif> [-o out.blif] [--delay-limit PCT] [--library lib.genlib]
//!                 [--repeat N] [--patterns N] [--seed S] [--jobs N]
//!                 [--deadline-secs S] [--window-size W] [--window-overlap H]
//!                 [--passes LIST] [--fixpoint N]
//!                 [--egraph-node-limit N] [--egraph-iters N]
//!                 [--trace-out trace.json] [--metrics-out metrics.json]
//! powder synth    <in.pla>  [-o out.blif] [--library lib.genlib]   # two-level → mapped
//! powder stats    <in.blif> [--library lib.genlib]
//! powder equiv    <a.blif> <b.blif> [--library lib.genlib]   # exact equivalence proof
//! powder bench    <name>    [-o out.blif]      # dump a suite circuit as BLIF
//! powder list                                  # list suite circuits
//! powder serve    --state-dir DIR [--listen ADDR] [--max-active N]
//!                 [--threads N] [--library lib.genlib]    # optimization daemon
//!                 [--max-queued N] [--max-request-bytes N]
//!                 [--read-timeout-secs S] [--drain-deadline-secs S]
//! powder submit   <in.blif> (--addr HOST:PORT | --state-dir DIR)
//!                 [--tenant T] [--priority P] [--wait] [-o out.blif]
//!                 [--job-key KEY]   # idempotent resubmission
//!                 [optimize flags: --passes/--fixpoint/--repeat/--patterns/
//!                  --seed/--jobs/--delay-limit/--deadline-secs/
//!                  --window-size/--window-overlap/
//!                  --egraph-node-limit/--egraph-iters]
//! ```
//!
//! `--passes` takes a comma-separated pipeline over `sweep`, `powder`,
//! `resize`, `redundancy`, and `egraph` (default: `powder`);
//! `--fixpoint N` repeats the whole sequence up to `N` times, stopping
//! early once an iteration changes nothing. Unknown pass names are
//! rejected when the arguments are parsed, before any file is read.
//! `--egraph-node-limit`/`--egraph-iters` bound the `egraph`
//! pass's per-cone saturation (e-node budget and rewrite iterations).
//!
//! `--trace-out` enables span tracing and writes a Chrome/Perfetto
//! `trace_event` JSON file when the command finishes; `--metrics-out`
//! writes a flat JSON snapshot of the metric registry. Both work with
//! any command but only `optimize` produces interesting data.
//!
//! `--deadline-secs S` bounds an optimize run by wall-clock time: the
//! optimizer stops starting new work once the deadline passes and emits
//! the best netlist found so far (always valid and function-preserving).
//! Ctrl-C (SIGINT/SIGTERM) during `optimize` does the same: the run
//! stops at the next committed boundary and the best-so-far netlist is
//! still written. The `POWDER_FAULTS` environment variable installs a
//! deterministic fault-injection plan (see `powder-faults`) for
//! resilience testing.
//!
//! `powder serve` runs the multi-tenant optimization daemon (see the
//! `powder-serve` crate): jobs submitted with `powder submit` run the
//! exact pipeline `powder optimize` would, checkpoint at committed
//! round boundaries, and survive daemon restarts.
//!
//! Exit code 0 on success, 1 on DRC/IO/parse errors. Daemon-reported
//! failures from `powder submit` map the serve [`ErrorCode`] taxonomy
//! to distinct exit codes (`bad-request` 2, `not-found` 3,
//! `overloaded` 4, `too-large` 5, `timeout` 6, `draining` 7,
//! `corrupt` 8) so scripts can branch on *why* a submission failed.
//!
//! [`ErrorCode`]: powder_serve::ErrorCode

use powder::{check_equivalence, DelayLimit, EquivOutcome, OptimizeConfig};
use powder_faults::FaultPlan;
use powder_library::{genlib::parse_genlib, lib2, Library};
use powder_netlist::blif::{read_blif, write_blif};
use powder_netlist::Netlist;
use powder_passes::{build_pipeline_with, AnalysisSession, SessionConfig};
use powder_power::{PowerConfig, PowerEstimator};
use powder_timing::{TimingAnalysis, TimingConfig};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Backtrack budget for `powder equiv` miter solves — generous because
/// an exact verdict matters more than latency here.
const EQUIV_BACKTRACK_LIMIT: usize = 1_000_000;

struct Options {
    positional: Vec<String>,
    output: Option<String>,
    library: Option<String>,
    delay_limit: Option<f64>,
    repeat: usize,
    patterns: usize,
    seed: u64,
    /// Evaluation worker threads; 0 = auto (`POWDER_JOBS` env, else
    /// available parallelism). Any value gives identical results.
    jobs: usize,
    /// Wall-clock budget for `optimize`; None = unbounded.
    deadline_secs: Option<f64>,
    /// Window core size for large-netlist optimization; None = the
    /// automatic policy (whole-netlist below the threshold, windowed
    /// above it).
    window_size: Option<usize>,
    /// Halo budget for windowed optimization; None = derived from the
    /// window size.
    window_overlap: Option<usize>,
    /// Comma-separated pass pipeline
    /// (`sweep,powder,resize,redundancy,egraph`).
    passes: Option<String>,
    /// Fixpoint iterations of the whole pass sequence.
    fixpoint: usize,
    /// `egraph` pass: per-cone e-node budget; None = pass default.
    egraph_node_limit: Option<usize>,
    /// `egraph` pass: saturation iteration bound; None = pass default.
    egraph_iters: Option<usize>,
    /// Write a Chrome/Perfetto trace of the run here (enables tracing).
    trace_out: Option<String>,
    /// Write a JSON snapshot of the metric registry here.
    metrics_out: Option<String>,
    /// `serve`: listen address (default 127.0.0.1:0 = any free port).
    listen: Option<String>,
    /// `serve`/`submit`: durable state directory.
    state_dir: Option<String>,
    /// `serve`: concurrent jobs (runner threads).
    max_active: usize,
    /// `serve`: evaluation threads shared across jobs (0 = hardware).
    threads: usize,
    /// `serve`: admission-control queue bound (None = daemon default).
    max_queued: Option<usize>,
    /// `serve`: largest accepted request line in bytes.
    max_request_bytes: Option<usize>,
    /// `serve`: idle-connection reap deadline in seconds.
    read_timeout_secs: Option<f64>,
    /// `serve`: graceful-drain watchdog deadline in seconds.
    drain_deadline_secs: Option<f64>,
    /// `submit`: daemon address (overrides the state-dir addr file).
    addr: Option<String>,
    /// `submit`: fair-scheduling tenant.
    tenant: Option<String>,
    /// `submit`: priority (higher runs first).
    priority: i64,
    /// `submit`: block until the job finishes and fetch the result.
    wait: bool,
    /// `submit`: idempotency key — resubmitting the same key returns
    /// the original job instead of enqueueing a duplicate.
    job_key: Option<String>,
}

/// A CLI failure: the message printed to stderr plus the process exit
/// code. Local errors (I/O, parsing, DRC) exit 1; daemon-reported
/// failures carry the serve [`powder_serve::ErrorCode`] mapping so
/// scripts can distinguish `overloaded` from `bad-request`.
struct CliError {
    exit: u8,
    message: String,
}

impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError { exit: 1, message }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> CliError {
        CliError {
            exit: 1,
            message: message.to_string(),
        }
    }
}

impl From<powder_serve::client::ClientError> for CliError {
    fn from(e: powder_serve::client::ClientError) -> CliError {
        CliError {
            exit: e.code.exit_code(),
            message: e.to_string(),
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        positional: Vec::new(),
        output: None,
        library: None,
        delay_limit: None,
        repeat: 10,
        patterns: 1024,
        seed: 0xB0D1E5,
        jobs: 0,
        deadline_secs: None,
        window_size: None,
        window_overlap: None,
        passes: None,
        fixpoint: 1,
        egraph_node_limit: None,
        egraph_iters: None,
        trace_out: None,
        metrics_out: None,
        listen: None,
        state_dir: None,
        max_active: 2,
        threads: 0,
        max_queued: None,
        max_request_bytes: None,
        read_timeout_secs: None,
        drain_deadline_secs: None,
        addr: None,
        tenant: None,
        priority: 0,
        wait: false,
        job_key: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match a.as_str() {
            "-o" | "--output" => o.output = Some(val("-o")?),
            "--library" => o.library = Some(val("--library")?),
            "--delay-limit" => {
                o.delay_limit = Some(
                    val("--delay-limit")?
                        .parse::<f64>()
                        .map_err(|e| format!("bad --delay-limit: {e}"))?,
                )
            }
            "--repeat" => {
                o.repeat = val("--repeat")?
                    .parse()
                    .map_err(|e| format!("bad --repeat: {e}"))?
            }
            "--patterns" => {
                o.patterns = val("--patterns")?
                    .parse()
                    .map_err(|e| format!("bad --patterns: {e}"))?
            }
            "--seed" => {
                o.seed = val("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--jobs" => {
                let jobs: usize = val("--jobs")?
                    .parse()
                    .map_err(|e| format!("bad --jobs: {e}"))?;
                if jobs == 0 {
                    return Err(
                        "bad --jobs: 0 is not a worker count (omit the flag to auto-detect)".into(),
                    );
                }
                o.jobs = jobs;
            }
            "--deadline-secs" => {
                let raw = val("--deadline-secs")?;
                let secs: f64 = raw
                    .parse()
                    .map_err(|e| format!("bad --deadline-secs {raw:?}: {e}"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(format!(
                        "bad --deadline-secs {raw:?}: need a finite number of seconds > 0"
                    ));
                }
                o.deadline_secs = Some(secs);
            }
            "--window-size" => {
                let size: usize = val("--window-size")?
                    .parse()
                    .map_err(|e| format!("bad --window-size: {e}"))?;
                if size == 0 {
                    return Err(
                        "bad --window-size: 0 is not a window size (omit the flag for the \
                         automatic policy)"
                            .into(),
                    );
                }
                o.window_size = Some(size);
            }
            "--window-overlap" => {
                o.window_overlap = Some(
                    val("--window-overlap")?
                        .parse()
                        .map_err(|e| format!("bad --window-overlap: {e}"))?,
                );
            }
            "--passes" => o.passes = Some(val("--passes")?),
            "--fixpoint" => {
                o.fixpoint = val("--fixpoint")?
                    .parse()
                    .map_err(|e| format!("bad --fixpoint: {e}"))?
            }
            "--egraph-node-limit" => {
                let n: usize = val("--egraph-node-limit")?
                    .parse()
                    .map_err(|e| format!("bad --egraph-node-limit: {e}"))?;
                if n == 0 {
                    return Err("bad --egraph-node-limit: need at least one e-node \
                         (omit the flag for the default budget)"
                        .into());
                }
                o.egraph_node_limit = Some(n);
            }
            "--egraph-iters" => {
                let n: usize = val("--egraph-iters")?
                    .parse()
                    .map_err(|e| format!("bad --egraph-iters: {e}"))?;
                if n == 0 {
                    return Err("bad --egraph-iters: need at least one iteration \
                         (omit the flag for the default bound)"
                        .into());
                }
                o.egraph_iters = Some(n);
            }
            "--trace-out" => o.trace_out = Some(val("--trace-out")?),
            "--metrics-out" => o.metrics_out = Some(val("--metrics-out")?),
            "--listen" => o.listen = Some(val("--listen")?),
            "--state-dir" => o.state_dir = Some(val("--state-dir")?),
            "--max-active" => {
                let n: usize = val("--max-active")?
                    .parse()
                    .map_err(|e| format!("bad --max-active: {e}"))?;
                if n == 0 {
                    return Err("bad --max-active: need at least one runner".into());
                }
                o.max_active = n;
            }
            "--threads" => {
                o.threads = val("--threads")?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?
            }
            "--max-queued" => {
                let n: usize = val("--max-queued")?
                    .parse()
                    .map_err(|e| format!("bad --max-queued: {e}"))?;
                if n == 0 {
                    return Err("bad --max-queued: need at least one queue slot".into());
                }
                o.max_queued = Some(n);
            }
            "--max-request-bytes" => {
                o.max_request_bytes = Some(
                    val("--max-request-bytes")?
                        .parse()
                        .map_err(|e| format!("bad --max-request-bytes: {e}"))?,
                );
            }
            "--read-timeout-secs" => {
                let secs: f64 = val("--read-timeout-secs")?
                    .parse()
                    .map_err(|e| format!("bad --read-timeout-secs: {e}"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("bad --read-timeout-secs: need seconds > 0".into());
                }
                o.read_timeout_secs = Some(secs);
            }
            "--drain-deadline-secs" => {
                let secs: f64 = val("--drain-deadline-secs")?
                    .parse()
                    .map_err(|e| format!("bad --drain-deadline-secs: {e}"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("bad --drain-deadline-secs: need seconds > 0".into());
                }
                o.drain_deadline_secs = Some(secs);
            }
            "--addr" => o.addr = Some(val("--addr")?),
            "--tenant" => o.tenant = Some(val("--tenant")?),
            "--priority" => {
                o.priority = val("--priority")?
                    .parse()
                    .map_err(|e| format!("bad --priority: {e}"))?
            }
            "--wait" => o.wait = true,
            "--job-key" => {
                let key = val("--job-key")?;
                if key.is_empty() {
                    return Err("bad --job-key: must be non-empty".into());
                }
                o.job_key = Some(key);
            }
            other if other.starts_with('-') => return Err(format!("unknown option {other:?}")),
            other => o.positional.push(other.to_string()),
        }
    }
    if let Some(spec) = &o.passes {
        // Fail unknown pass names at parse time, before any file I/O,
        // with the full vocabulary in the message.
        powder_passes::validate_passes(spec).map_err(|e| format!("bad --passes: {e}"))?;
    }
    if let Some(overlap) = o.window_overlap {
        // Against an explicit size, or the automatic policy's size when
        // only the overlap was given.
        let size = o
            .window_size
            .unwrap_or(powder_netlist::WindowConfig::AUTO_SIZE);
        if overlap >= size {
            return Err(format!(
                "bad --window-overlap: {overlap} must be smaller than the window size ({size})"
            ));
        }
    }
    Ok(o)
}

/// The pass pipeline: the `--passes` list, or the lone `powder` pass.
fn pass_spec(opts: &Options) -> String {
    opts.passes.clone().unwrap_or_else(|| "powder".to_string())
}

/// Resolves the `egraph` pass configuration: explicit flags override
/// the crate defaults field by field.
fn egraph_config(opts: &Options) -> powder_egraph::EgraphConfig {
    let mut cfg = powder_egraph::EgraphConfig::default();
    if let Some(n) = opts.egraph_node_limit {
        cfg.node_limit = n;
    }
    if let Some(n) = opts.egraph_iters {
        cfg.iter_limit = n;
    }
    cfg
}

fn load_library(opts: &Options) -> Result<Arc<Library>, String> {
    match &opts.library {
        None => Ok(Arc::new(lib2())),
        Some(path) => {
            let src =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            parse_genlib(path, &src)
                .map(Arc::new)
                .map_err(|e| format!("{path}: {e}"))
        }
    }
}

/// Commands that rewire signals need an inverter cell (inverted-signal
/// substitutions insert one); fail up front with the library's path
/// rather than panicking mid-optimization.
fn require_inverter(lib: &Library, opts: &Options) -> Result<(), String> {
    if lib.has_inverter() {
        Ok(())
    } else {
        let path = opts.library.as_deref().unwrap_or("<builtin>");
        Err(format!("{path}: library has no inverter cell"))
    }
}

fn load_netlist(path: &str, lib: Arc<Library>) -> Result<Netlist, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let nl = read_blif(&src, lib).map_err(|e| e.to_string())?;
    nl.validate().map_err(|e| e.to_string())?;
    Ok(nl)
}

fn print_stats(nl: &Netlist) {
    let est = PowerEstimator::new(nl, &PowerConfig::default());
    let sta = TimingAnalysis::new(nl, &TimingConfig::default());
    println!("circuit : {}", nl.name());
    println!("inputs  : {}", nl.inputs().len());
    println!("outputs : {}", nl.outputs().len());
    println!("cells   : {}", nl.cell_count());
    println!("area    : {:.0}", nl.area());
    println!(
        "power   : {:.4}  (Σ C·E, zero-delay)",
        est.circuit_power(nl)
    );
    println!("delay   : {:.2}", sta.circuit_delay());
    println!("{}", nl.stats());
}

fn emit(nl: &Netlist, output: Option<&str>) -> Result<(), String> {
    // Output format follows the file extension: .v → Verilog, .bench →
    // ISCAS bench, anything else → mapped BLIF.
    let text = match output {
        Some(p) if p.ends_with(".v") => powder_netlist::verilog::write_verilog(nl),
        Some(p) if p.ends_with(".bench") => powder_netlist::bench_fmt::write_bench(nl),
        _ => write_blif(nl),
    };
    match output {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}")),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

/// Writes the `--trace-out` / `--metrics-out` files once the command
/// body has finished. The snapshot/drain run on the main thread, which
/// sees its own live buffers plus everything worker threads flushed.
fn write_observability(opts: &Options) -> Result<(), String> {
    if let Some(path) = &opts.trace_out {
        let json = powder_obs::export::chrome_trace_json(&powder_obs::drain());
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(path) = &opts.metrics_out {
        let json = powder_obs::snapshot().to_json();
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

fn run() -> Result<(), CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else {
        return Err(
            "usage: powder <optimize|synth|stats|equiv|bench|list|serve|submit> ...".into(),
        );
    };
    let opts = parse_args(&args[1..])?;
    if opts.trace_out.is_some() {
        powder_obs::set_tracing_enabled(true);
    }
    let result = match command.as_str() {
        "list" => {
            for name in powder_benchmarks::table1_names() {
                let info = powder_benchmarks::info(name).expect("known");
                println!(
                    "{name:<10} {:?}{}",
                    info.family,
                    if info.exact { " (exact)" } else { "" }
                );
            }
            for name in powder_benchmarks::scale_names() {
                let info = powder_benchmarks::scale_info(name).expect("known");
                println!(
                    "{name:<14} {} (~{} gates, scale suite)",
                    info.class, info.target_gates
                );
            }
            Ok(())
        }
        "bench" => {
            let name = opts
                .positional
                .first()
                .ok_or("bench requires a circuit name (see `powder list`)")?;
            let lib = load_library(&opts)?;
            let nl = powder_benchmarks::build(name, lib).map_err(|e| e.to_string())?;
            print_stats(&nl);
            emit(&nl, opts.output.as_deref())
        }
        "synth" => {
            let path = opts
                .positional
                .first()
                .ok_or("synth requires a .pla input file")?;
            let src =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let pla = powder_logic::pla::parse_pla(&src).map_err(|e| e.to_string())?;
            let lib = load_library(&opts)?;
            require_inverter(&lib, &opts)?;
            let spec = powder_synth::CircuitSpec::from_pla(path.as_str(), &pla);
            let nl = powder_synth::synthesize(&spec, lib, powder_synth::MapMode::Power)
                .map_err(|e| e.to_string())?;
            print_stats(&nl);
            emit(&nl, opts.output.as_deref())
        }
        "stats" => {
            let path = opts
                .positional
                .first()
                .ok_or("stats requires an input file")?;
            let lib = load_library(&opts)?;
            let nl = load_netlist(path, lib)?;
            print_stats(&nl);
            Ok(())
        }
        "equiv" => {
            let (a_path, b_path) = match opts.positional.as_slice() {
                [a, b] => (a, b),
                _ => return Err("equiv requires exactly two netlist files".into()),
            };
            let lib = load_library(&opts)?;
            let a = load_netlist(a_path, lib.clone())?;
            let b = load_netlist(b_path, lib)?;
            match check_equivalence(&a, &b, EQUIV_BACKTRACK_LIMIT).map_err(|e| e.to_string())? {
                EquivOutcome::Equivalent => {
                    println!("equivalent");
                    Ok(())
                }
                EquivOutcome::Inequivalent { witness, output } => {
                    let assignment: Vec<String> = a
                        .inputs()
                        .iter()
                        .zip(&witness)
                        .map(|(&pi, &v)| format!("{}={}", a.gate_name(pi), u8::from(v)))
                        .collect();
                    Err(format!(
                        "NOT equivalent: output {output:?} differs under {}",
                        assignment.join(" ")
                    ))
                }
                EquivOutcome::Unknown => {
                    Err("equivalence undetermined: solver hit the backtrack limit".into())
                }
            }
        }
        "optimize" => {
            let path = opts
                .positional
                .first()
                .ok_or("optimize requires an input file")?;
            let lib = load_library(&opts)?;
            require_inverter(&lib, &opts)?;
            let nl = load_netlist(path, lib)?;
            let deadline = opts
                .deadline_secs
                .map(|secs| Instant::now() + Duration::from_secs_f64(secs));
            let faults = FaultPlan::from_env()
                .map_err(|e| format!("bad POWDER_FAULTS: {e}"))?
                .map(FaultPlan::into_state);
            if faults.is_some() {
                eprintln!("powder: deterministic fault injection active (POWDER_FAULTS)");
            }
            // Ctrl-C stops the run at the next committed boundary and
            // still writes the best-so-far netlist below.
            powder_serve::signal::install_stop_flag();
            let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let _sig_guard = powder_serve::signal::forward_into(Arc::clone(&stop));
            let cfg = OptimizeConfig {
                repeat: opts.repeat,
                sim_words: opts.patterns.div_ceil(64).max(1),
                seed: opts.seed,
                delay_limit: opts
                    .delay_limit
                    .map(|pct| DelayLimit::Factor(1.0 + pct / 100.0)),
                jobs: opts.jobs,
                deadline,
                faults,
                stop: Some(Arc::clone(&stop)),
                window_size: opts.window_size,
                window_overlap: opts.window_overlap,
                ..OptimizeConfig::default()
            };
            let spec = pass_spec(&opts);
            // The resize pass's slack budget is anchored to the delay of
            // the *input* circuit.
            let resize_required = opts.delay_limit.map(|pct| {
                let probe = TimingConfig {
                    output_load: cfg.power.output_load,
                    required_time: None,
                };
                (1.0 + pct / 100.0) * TimingAnalysis::new(&nl, &probe).circuit_delay()
            });
            let mut pipeline =
                build_pipeline_with(&spec, &cfg, resize_required, &egraph_config(&opts))
                    .map_err(|e| format!("bad --passes: {e}"))?
                    .with_fixpoint(opts.fixpoint)
                    .with_deadline(deadline)
                    .with_stop(Some(Arc::clone(&stop)));
            let mut sess = AnalysisSession::new(nl, SessionConfig::from_optimize(&cfg));
            let report = pipeline.run(&mut sess);
            for pass in &report.passes {
                if let Some(opt) = &pass.optimize {
                    eprintln!("{opt}");
                }
            }
            eprintln!("{report}");
            if report.interrupted {
                eprintln!(
                    "powder: interrupted; writing the best netlist found so far \
                     (valid and function-preserving)"
                );
            }
            let nl = sess.into_netlist();
            nl.validate().map_err(|e| e.to_string())?;
            emit(&nl, opts.output.as_deref())
        }
        "serve" => {
            let lib = load_library(&opts)?;
            require_inverter(&lib, &opts)?;
            let state_dir = opts
                .state_dir
                .clone()
                .ok_or("serve requires --state-dir DIR")?;
            let faults = FaultPlan::from_env()
                .map_err(|e| format!("bad POWDER_FAULTS: {e}"))?
                .map(FaultPlan::into_state);
            if faults.is_some() {
                eprintln!("powder: deterministic fault injection active (POWDER_FAULTS)");
            }
            let mut cfg = powder_serve::ServeConfig::new(state_dir, lib);
            if let Some(listen) = &opts.listen {
                cfg.listen = listen.clone();
            }
            cfg.max_active = opts.max_active;
            cfg.threads = opts.threads;
            cfg.faults = faults;
            if let Some(n) = opts.max_queued {
                cfg.max_queued = n;
            }
            if let Some(n) = opts.max_request_bytes {
                cfg.max_request_bytes = n;
            }
            if let Some(secs) = opts.read_timeout_secs {
                cfg.read_timeout_secs = secs;
            }
            if let Some(secs) = opts.drain_deadline_secs {
                cfg.drain_deadline_secs = secs;
            }
            powder_serve::run(cfg)
        }
        "submit" => {
            cmd_submit(&opts)?;
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    };
    if result.is_ok() {
        write_observability(&opts)?;
    }
    result.map_err(CliError::from)
}

/// `powder submit`: ship a netlist to the daemon, optionally wait for
/// the result. Returns [`CliError`] so daemon error codes become
/// distinct process exit codes; the client layer already retries
/// transient failures (overload shedding, drain, torn reads) with
/// deterministic backoff before anything surfaces here.
fn cmd_submit(opts: &Options) -> Result<(), CliError> {
    let path = opts
        .positional
        .first()
        .ok_or("submit requires an input file")?;
    let netlist = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let addr = match &opts.addr {
        Some(a) => a.clone(),
        None => {
            let dir = opts
                .state_dir
                .as_deref()
                .ok_or("submit needs --addr HOST:PORT or --state-dir DIR")?;
            powder_serve::JobStore::open(dir)
                .map_err(|e| format!("state dir {dir}: {e}"))?
                .read_addr()
                .ok_or(format!("no addr file in {dir} (is the daemon running?)"))?
        }
    };
    let spec = powder_serve::JobSpec {
        tenant: opts.tenant.clone().unwrap_or_else(|| "default".to_string()),
        priority: opts.priority,
        passes: pass_spec(opts),
        fixpoint: opts.fixpoint,
        repeat: opts.repeat,
        patterns: opts.patterns,
        seed: opts.seed,
        jobs: opts.jobs,
        delay_limit_percent: opts.delay_limit,
        deadline_secs: opts.deadline_secs,
        window_size: opts.window_size,
        window_overlap: opts.window_overlap,
        egraph_node_limit: opts.egraph_node_limit,
        egraph_iters: opts.egraph_iters,
        job_key: opts.job_key.clone(),
    };
    let id = powder_serve::client::submit(&addr, &spec, &netlist)?;
    eprintln!("submitted {id} to {addr}");
    if !opts.wait {
        println!("{id}");
        return Ok(());
    }
    let status = powder_serve::client::wait(&addr, &id, Duration::from_millis(200))?;
    match status.state.as_str() {
        "done" => {
            let (blif, report) = powder_serve::client::result(&addr, &id)?;
            eprintln!("{id}: done  {report}");
            match opts.output.as_deref() {
                Some(out) => std::fs::write(out, blif)
                    .map_err(|e| CliError::from(format!("cannot write {out}: {e}"))),
                None => {
                    print!("{blif}");
                    Ok(())
                }
            }
        }
        other => Err(CliError::from(match status.error {
            Some(e) => format!("{id} {other}: {e}"),
            None => format!("{id} ended {other}"),
        })),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("powder: {}", e.message);
            ExitCode::from(e.exit)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_flags_and_positionals() {
        let o = parse_args(&args(&[
            "in.blif",
            "-o",
            "out.blif",
            "--delay-limit",
            "20",
            "--repeat",
            "5",
            "--patterns",
            "512",
            "--seed",
            "7",
            "--jobs",
            "4",
        ]))
        .unwrap();
        assert_eq!(o.positional, vec!["in.blif"]);
        assert_eq!(o.output.as_deref(), Some("out.blif"));
        assert_eq!(o.delay_limit, Some(20.0));
        assert_eq!(o.repeat, 5);
        assert_eq!(o.patterns, 512);
        assert_eq!(o.seed, 7);
        assert_eq!(o.jobs, 4);
    }

    #[test]
    fn parses_pass_pipeline_flags() {
        let o = parse_args(&args(&[
            "--passes",
            "sweep,powder,resize",
            "--fixpoint",
            "3",
        ]))
        .unwrap();
        assert_eq!(o.passes.as_deref(), Some("sweep,powder,resize"));
        assert_eq!(o.fixpoint, 3);
        assert_eq!(pass_spec(&o), "sweep,powder,resize");
        assert!(parse_args(&args(&["--fixpoint", "x"])).is_err());
        let o = parse_args(&[]).unwrap();
        assert_eq!(pass_spec(&o), "powder");
    }

    #[test]
    fn parses_window_flags() {
        let o = parse_args(&args(&["--window-size", "512", "--window-overlap", "64"])).unwrap();
        assert_eq!(o.window_size, Some(512));
        assert_eq!(o.window_overlap, Some(64));
        let o = parse_args(&[]).unwrap();
        assert!(o.window_size.is_none() && o.window_overlap.is_none());
    }

    #[test]
    fn rejects_bad_window_flags() {
        let err = parse_args(&args(&["--window-size", "0"])).err().unwrap();
        assert!(err.contains("--window-size"), "got: {err}");
        let err = parse_args(&args(&["--window-size", "64", "--window-overlap", "64"]))
            .err()
            .unwrap();
        assert!(err.contains("smaller than the window size"), "got: {err}");
        // Overlap without an explicit size is validated against the
        // automatic policy's window size.
        let err = parse_args(&args(&["--window-overlap", "4096"]))
            .err()
            .unwrap();
        assert!(err.contains("smaller than the window size"), "got: {err}");
        assert!(parse_args(&args(&["--window-overlap", "128"])).is_ok());
    }

    #[test]
    fn parses_observability_flags() {
        let o = parse_args(&args(&[
            "--trace-out",
            "trace.json",
            "--metrics-out",
            "metrics.json",
        ]))
        .unwrap();
        assert_eq!(o.trace_out.as_deref(), Some("trace.json"));
        assert_eq!(o.metrics_out.as_deref(), Some("metrics.json"));
        let o = parse_args(&[]).unwrap();
        assert!(o.trace_out.is_none() && o.metrics_out.is_none());
        assert!(parse_args(&args(&["--trace-out"])).is_err());
    }

    #[test]
    fn unknown_pass_rejected_at_parse_time() {
        let err = parse_args(&args(&["--passes", "powder,frobnicate"]))
            .err()
            .unwrap();
        assert!(
            err.contains("frobnicate") && err.contains("egraph"),
            "error should name the bad pass and list the vocabulary: {err}"
        );
        assert!(parse_args(&args(&["--passes", "egraph,powder"])).is_ok());
    }

    #[test]
    fn parses_egraph_flags() {
        let o = parse_args(&args(&[
            "--egraph-node-limit",
            "256",
            "--egraph-iters",
            "4",
        ]))
        .unwrap();
        assert_eq!(o.egraph_node_limit, Some(256));
        assert_eq!(o.egraph_iters, Some(4));
        let cfg = egraph_config(&o);
        assert_eq!(cfg.node_limit, 256);
        assert_eq!(cfg.iter_limit, 4);
        // Absent flags keep the crate defaults.
        let o = parse_args(&[]).unwrap();
        assert!(o.egraph_node_limit.is_none() && o.egraph_iters.is_none());
        assert_eq!(egraph_config(&o), powder_egraph::EgraphConfig::default());
    }

    #[test]
    fn rejects_zero_egraph_bounds() {
        let err = parse_args(&args(&["--egraph-node-limit", "0"]))
            .err()
            .unwrap();
        assert!(err.contains("--egraph-node-limit"), "got: {err}");
        let err = parse_args(&args(&["--egraph-iters", "0"])).err().unwrap();
        assert!(err.contains("--egraph-iters"), "got: {err}");
        assert!(parse_args(&args(&["--egraph-iters", "x"])).is_err());
    }

    #[test]
    fn jobs_defaults_to_auto() {
        let o = parse_args(&[]).unwrap();
        assert_eq!(o.jobs, 0, "0 means auto-resolve");
        assert!(parse_args(&args(&["--jobs", "x"])).is_err());
    }

    #[test]
    fn explicit_jobs_zero_is_rejected() {
        let Err(e) = parse_args(&args(&["--jobs", "0"])) else {
            panic!("--jobs 0 should be rejected");
        };
        assert!(e.contains("--jobs"), "{e}");
        assert!(parse_args(&args(&["--jobs", "-2"])).is_err());
    }

    #[test]
    fn deadline_secs_requires_positive_finite() {
        let o = parse_args(&args(&["--deadline-secs", "2.5"])).unwrap();
        assert_eq!(o.deadline_secs, Some(2.5));
        let o = parse_args(&[]).unwrap();
        assert!(o.deadline_secs.is_none());
        for bad in ["0", "-1", "inf", "nan", "soon"] {
            assert!(
                parse_args(&args(&["--deadline-secs", bad])).is_err(),
                "{bad} should be rejected"
            );
        }
    }

    #[test]
    fn missing_inverter_is_reported_with_path() {
        let lib = Library::new("noinv", Vec::new());
        let mut o = parse_args(&[]).unwrap();
        o.library = Some("x.genlib".into());
        let e = require_inverter(&lib, &o).err().unwrap();
        assert!(e.contains("x.genlib") && e.contains("no inverter"), "{e}");
        assert!(
            require_inverter(&lib2(), &o).is_ok(),
            "lib2 has an inverter"
        );
    }

    #[test]
    fn rejects_unknown_and_incomplete_options() {
        assert!(parse_args(&args(&["--bogus"])).is_err());
        assert!(parse_args(&args(&["-o"])).is_err());
        assert!(parse_args(&args(&["--delay-limit", "abc"])).is_err());
    }

    #[test]
    fn default_library_loads() {
        let o = parse_args(&[]).unwrap();
        let lib = load_library(&o).unwrap();
        assert!(lib.len() > 10);
    }

    #[test]
    fn missing_library_file_is_error() {
        let o = parse_args(&args(&["--library", "/nonexistent.genlib"])).unwrap();
        assert!(load_library(&o).is_err());
    }
}
