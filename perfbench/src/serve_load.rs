//! Load for the serve layer: an in-process daemon driven by a
//! closed-loop client through `powder_serve::client`.

use crate::stats::splitmix64;
use crate::workload::{self, Spec};
use powder_library::Library;
use powder_obs::json::{self, Value};
use powder_serve::client;
use powder_serve::protocol::JsonObj;
use powder_serve::{ErrorCode, JobSpec, JobStore, ServeConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tenants the serve probe's jobs are drawn from.
const TENANTS: &[&str] = &["alice", "bob", "carol"];

/// Longest wait for a job's next `watch` line.
const JOB_TIMEOUT_S: f64 = 30.0;

/// Where daemons keep their state: inside the benchmark's directory,
/// removed again when the run ends.
pub fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".work")
}

/// A daemon running on a thread of this process.
pub struct Daemon {
    /// Address it listens on.
    pub addr: String,
    handle: JoinHandle<Result<(), String>>,
}

impl Daemon {
    /// Starts a daemon with the default `ServeConfig` on a fresh state
    /// directory and waits until it accepts connections.
    pub fn start(dir: &Path, lib: &std::sync::Arc<Library>) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(dir);
        let cfg = ServeConfig::new(dir, std::sync::Arc::clone(lib));
        let handle = std::thread::Builder::new()
            .name("perfbench-daemon".to_string())
            .spawn(move || powder_serve::run(cfg))
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let give_up = Instant::now() + Duration::from_secs(20);
        loop {
            let addr = JobStore::open(dir)
                .ok()
                .and_then(|s| s.read_addr())
                .filter(|a| a.parse::<std::net::SocketAddr>().is_ok());
            if let Some(addr) = addr {
                return Ok(Daemon { addr, handle });
            }
            if handle.is_finished() || Instant::now() > give_up {
                let why = match handle.join() {
                    Ok(Err(e)) => e,
                    _ => "daemon did not start".to_string(),
                };
                return Err(why);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The daemon's `metrics` op.
    fn metrics(&self) -> Result<Value, String> {
        client::request(&self.addr, &JsonObj::new().str("op", "metrics").finish())
            .map_err(|e| e.to_string())
    }

    /// Drains the daemon and waits for its thread to end.
    pub fn stop(self) -> Result<(), String> {
        client::shutdown(&self.addr, true).map_err(|e| e.to_string())?;
        self.handle
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
    }
}

/// How one job ended.
#[derive(Clone, Debug)]
pub enum End {
    /// Finished with a result.
    Done(String),
    /// Refused by admission control after every retry.
    Shed,
    /// Any other failure.
    Error(String),
}

/// One job as a client saw it.
#[derive(Clone, Debug)]
pub struct Job {
    /// Submit → result seconds.
    pub latency: f64,
    /// Seconds inside `client::submit`.
    pub submit: f64,
    /// Submit returned → first non-queued state on the watch stream.
    pub queue_wait: f64,
    /// First non-queued state → terminal state.
    pub run: f64,
    /// Seconds inside `client::result`.
    pub result: f64,
    /// Outcome.
    pub end: End,
}

/// Streams `watch` lines until the job is terminal; returns the times of
/// the first non-queued line and the terminal line, and the final state.
fn watch_phases(addr: &str, id: &str) -> Result<(Instant, Instant, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs_f64(JOB_TIMEOUT_S)))
        .map_err(|e| e.to_string())?;
    let line = JsonObj::new().str("op", "watch").str("job", id).finish();
    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut started = None;
    loop {
        let mut line = String::new();
        if reader
            .read_line(&mut line)
            .map_err(|e| format!("recv: {e}"))?
            == 0
        {
            // The daemon can end the stream once the job turns terminal
            // without sending the terminal line; settle the state the way
            // `client::wait` does.
            let st =
                client::wait(addr, id, Duration::from_millis(50)).map_err(|e| e.to_string())?;
            let now = Instant::now();
            return Ok((started.unwrap_or(now), now, st.state));
        }
        let now = Instant::now();
        let v = json::parse(line.trim())?;
        let state = v
            .get("state")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        if state != "queued" {
            started.get_or_insert(now);
        }
        if matches!(state.as_str(), "done" | "failed" | "cancelled") {
            return Ok((started.unwrap_or(now), now, state));
        }
    }
}

/// The job spec `powder submit` sends for the workload's flags.
fn job_spec(spec: &Spec, seed: u64, tenant: &str) -> JobSpec {
    JobSpec {
        tenant: tenant.to_string(),
        passes: spec.passes.to_string(),
        patterns: workload::CLI_PATTERNS,
        seed,
        jobs: spec.jobs,
        delay_limit_percent: spec.delay_factor.map(|f| (f - 1.0) * 100.0),
        window_size: spec.window,
        ..JobSpec::default()
    }
}

/// A closed-loop client sending `input` as `count` jobs, each only after
/// fetching the previous result: tenants are drawn from `client_seed`,
/// the optimizer seed of every job is `opt_seed`.
fn client_loop(
    addr: &str,
    spec: &Spec,
    client_seed: u64,
    opt_seed: u64,
    input: &str,
    count: usize,
) -> Vec<Job> {
    let mut state = client_seed;
    let mut jobs = Vec::new();
    while jobs.len() < count {
        let tenant = TENANTS[(splitmix64(&mut state) % TENANTS.len() as u64) as usize];
        let spec = job_spec(spec, opt_seed, tenant);
        let t0 = Instant::now();
        let mut job = Job {
            latency: 0.0,
            submit: 0.0,
            queue_wait: 0.0,
            run: 0.0,
            result: 0.0,
            end: End::Error(String::new()),
        };
        job.end = match client::submit(addr, &spec, input) {
            Err(e) if e.code == ErrorCode::Overloaded => End::Shed,
            Err(e) => End::Error(format!("submit: {e}")),
            Ok(id) => {
                let t_sub = Instant::now();
                job.submit = (t_sub - t0).as_secs_f64();
                let state = watch_phases(addr, &id).map(|(running, done, state)| {
                    job.queue_wait = running.saturating_duration_since(t_sub).as_secs_f64();
                    job.run = done.saturating_duration_since(running).as_secs_f64();
                    state
                });
                match state {
                    Ok(s) if s == "done" => {
                        let t_res = Instant::now();
                        match client::result(addr, &id) {
                            Ok((blif, _)) => {
                                job.result = t_res.elapsed().as_secs_f64();
                                End::Done(blif)
                            }
                            Err(e) => End::Error(format!("result: {e}")),
                        }
                    }
                    Ok(s) => End::Error(format!("job ended {s}")),
                    Err(e) => End::Error(format!("watch: {e}")),
                }
            }
        };
        job.latency = t0.elapsed().as_secs_f64();
        jobs.push(job);
    }
    jobs
}

/// What driving a daemon produced.
pub struct Session {
    /// Every job, in submit order.
    pub jobs: Vec<Job>,
    /// Jobs shed, from the daemon's `metrics` op.
    pub shed: f64,
    /// Client retries, from the `serve.retries` counter.
    pub retries: f64,
}

/// Sends `input` as `count` jobs from one closed-loop client to
/// `daemon`, then reads its `metrics` op and drains it.
pub fn drive(
    daemon: Daemon,
    spec: &Spec,
    seed: u64,
    input: &str,
    count: usize,
) -> Result<Session, String> {
    let retries0 = powder_obs::snapshot().counter(powder_obs::names::SERVE_RETRIES);
    let client_seed = seed ^ 0xA076_1D64_78BD_642F;
    let jobs = client_loop(&daemon.addr, spec, client_seed, seed, input, count);
    let retries = powder_obs::snapshot().counter(powder_obs::names::SERVE_RETRIES) - retries0;
    let metrics = daemon.metrics();
    daemon.stop()?;
    let shed = metrics?.get("shed").and_then(Value::as_f64).unwrap_or(0.0);
    Ok(Session {
        jobs,
        shed,
        retries: retries as f64,
    })
}
