//! The service benchmark: three workloads against an in-process
//! `smartapps-server` running the default `RuntimeConfig` and
//! `ServerConfig`, every result checked against a local oracle.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <small_closed|heavy_closed|mixed_open> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload untraced and traced, replays its inputs through each layer,
//! and prints the per-layer metrics and the cost ledger.  The last line
//! of standard output is one JSON object; see `perfbench/README.md`.

mod conn;
mod layers;
mod load;
mod stats;
mod trace;
mod workload;

use conn::{invalid, Receiver, Sender};
use load::{Clock, ConnLog, JobRec, Outcome};
use smartapps_reductions::Scheme;
use smartapps_runtime::{Runtime, RuntimeConfig, WorkerPool};
use smartapps_server::{
    Client, DoneOutcome, ReplyMode, Request, Response, Server, ServerConfig, SubmitArgs,
    UploadArgs, WireSource,
};
use smartapps_workloads::AccessPattern;
use stats::{median_or_zero, pct, Buckets, Ledger};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Span, Tracer};
use workload::{Class, Wire, Workload, PRICED, SMALL, SPARSE, WINDOW};

/// Service start-ups per run: at least this many, and as many more as
/// fit in [`SETUP_TIME`]; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Least time spent on start-ups: a start-up of a few ms, which one
/// stolen tick doubles, is repeated about sixty times.
const SETUP_TIME: Duration = Duration::from_millis(500);
/// Load before each measured window, so every class is decided,
/// profiled and cached and the calibrator has settled.
const WARMUP: Duration = Duration::from_millis(1000);
/// Service instances the end-to-end window is spread over.  Each decides
/// its classes afresh, and the run pools their samples, so the scheme
/// choices of one instance move the figures less.
const INSTANCES: u32 = 6;
/// Instances, the calmest by the host's steal share, whose samples the
/// end-to-end figures pool.
const CALM_INSTANCES: usize = 4;
/// Interval between readings of the host's steal counter during a
/// measured window (a reading of `/proc/stat` costs about 13 µs).
const STEAL_EVERY: Duration = Duration::from_millis(5);
/// Step of the grid the calm share of a window is measured on.
const GRID_NS: u64 = 1_000_000;
/// Least share of a window the end-to-end figures are taken over.
const MIN_CALM: f64 = 0.25;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s: &u64| (2..=3600).contains(&s))
                        .ok_or(format!("--seconds takes 2..=3600, got {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(25),
        trace: trace.unwrap_or(false),
    })
}

/// One load connection with the classes it cycles over.
struct LoadConn {
    wire: Wire,
    tx: Sender,
    rx: Receiver,
    sources: Vec<(usize, WireSource)>,
}

struct Service {
    rt: Arc<Runtime>,
    server: Server,
    conns: Vec<LoadConn>,
    probe: Client,
}

/// Start the service, connect, upload, and run the first job of every
/// class.  Returns the service and the time all that took.
fn start_service(workload: Workload, classes: &[Class]) -> io::Result<(Service, Duration)> {
    // The CSRs each binary connection uploads, copied before the clock
    // starts: making inputs is the benchmark's work, not the service's.
    let plans = workload.connections();
    let uploads: Vec<Vec<(Arc<AccessPattern>, UploadArgs)>> = plans
        .iter()
        .map(|(wire, ids)| {
            let mut distinct: Vec<Arc<AccessPattern>> = Vec::new();
            for &c in ids.iter().filter(|_| *wire == Wire::Binary) {
                let p = &classes[c].pattern;
                if !distinct.iter().any(|q| Arc::ptr_eq(p, q)) {
                    distinct.push(p.clone());
                }
            }
            distinct
                .into_iter()
                .zip(0u64..)
                .map(|(p, i)| {
                    let args = UploadArgs {
                        token: u64::MAX - i,
                        num_elements: p.num_elements,
                        iter_ptr: p.iter_ptr.clone(),
                        indices: p.indices.clone(),
                    };
                    (p, args)
                })
                .collect()
        })
        .collect();
    let t0 = Instant::now();
    let rt = Arc::new(Runtime::new(RuntimeConfig::default()));
    let server = Server::start(rt.clone(), ServerConfig::default())?;
    let addr = server.local_addr();
    let mut conns = Vec::new();
    for ((wire, ids), uploads) in plans.into_iter().zip(uploads) {
        let (mut tx, mut rx) = conn::connect(addr, wire)?;
        let mut handles: Vec<(Arc<AccessPattern>, u64)> = Vec::new();
        for (p, args) in uploads {
            handles.push((p, conn::upload(&mut tx, &mut rx, args)?));
        }
        let handle_of = |p: &Arc<AccessPattern>| {
            handles
                .iter()
                .find(|(q, _)| Arc::ptr_eq(p, q))
                .map(|(_, h)| *h)
                .expect("every binary class's pattern was uploaded")
        };
        let sources: Vec<(usize, WireSource)> = ids
            .iter()
            .map(|&c| {
                let class = &classes[c];
                let source = match wire {
                    Wire::Text => WireSource::Gen(class.spec.expect("text classes carry a spec")),
                    Wire::Binary => WireSource::Handle(handle_of(&class.pattern)),
                };
                (c, source)
            })
            .collect();
        // The first job of every class, which the service decides,
        // profiles and caches.
        for (token, &(c, source)) in sources.iter().enumerate() {
            tx.send(&Request::Submit(SubmitArgs {
                token: token as u64,
                reply: ReplyMode::Ack,
                body: classes[c].body,
                source,
            }))?;
        }
        for _ in 0..sources.len() {
            let Response::Done(d) = rx.recv_by(t0 + conn::ANSWER_WITHIN, "first jobs")? else {
                return Err(invalid("a first job was answered out of turn".into()));
            };
            let c = sources
                .get(d.token as usize)
                .ok_or_else(|| invalid(format!("done for unknown token {}", d.token)))?
                .0;
            match &d.outcome {
                DoneOutcome::Ok { payload, .. } if classes[c].expect.matches(payload) => {}
                other => {
                    return Err(invalid(format!(
                        "first {} job failed its check: {other:?}",
                        classes[c].name
                    )))
                }
            }
        }
        conns.push(LoadConn {
            wire,
            tx,
            rx,
            sources,
        });
    }
    let took = t0.elapsed();
    let probe = Client::connect(addr)?;
    Ok((
        Service {
            rt,
            server,
            conns,
            probe,
        },
        took,
    ))
}

/// The server's own counters and exposition at one instant, with the
/// host's CPU time counters.
struct Snapshot {
    metrics: String,
    counters: HashMap<String, u64>,
    cpu: Option<CpuTicks>,
}

/// Host-wide CPU time from `/proc/stat`: ticks stolen by the hypervisor
/// and all ticks.
#[derive(Clone, Copy)]
struct CpuTicks {
    steal: u64,
    total: u64,
}

fn cpu_ticks() -> Option<CpuTicks> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some(CpuTicks {
        steal: *fields.get(7)?,
        total: fields.iter().sum(),
    })
}

/// How long after a job falls due a tick stolen by the hypervisor still
/// counts against it, in ns: a little over the workload's p99 latency on
/// a calm host, plus the few ms the guest takes to account steal after
/// a preemption ends.
fn steal_horizon(workload: Workload) -> u64 {
    let ms = match workload {
        Workload::SmallClosed => 12,
        Workload::HeavyClosed => 16,
        Workload::MixedOpen => 35,
    };
    ms * 1_000_000
}

/// Steal ticks the host counted between `lo` and `hi`: the rise of the
/// counter from the last reading at or before `lo` to the first at or
/// after `hi` of `trace`, which holds (time, cumulative ticks) in time
/// order.  0 without readings.
fn steal_ticks(trace: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let Some(last) = trace.len().checked_sub(1) else {
        return 0;
    };
    let a = trace.partition_point(|&(t, _)| t <= lo).saturating_sub(1);
    let b = trace.partition_point(|&(t, _)| t < hi).min(last);
    trace[b].1.saturating_sub(trace[a].1)
}

/// Which instants of a window count as calm: those whose horizon
/// `[t, t + horizon]` holds at most `allowance` stolen ticks.
struct Calm {
    trace: Vec<(u64, u64)>,
    horizon: u64,
    allowance: u64,
    /// Calm time of the window, in ns, on a grid of [`GRID_NS`].
    calm_ns: u64,
}

impl Calm {
    /// The fewest stolen ticks per horizon that leave at least
    /// [`MIN_CALM`] of `[start, end)` calm: 0, and with it nearly the
    /// whole window, on a host that steals little.
    fn new(trace: Vec<(u64, u64)>, start: u64, end: u64, horizon: u64) -> Calm {
        let mut exposure: Vec<u64> = (start..end)
            .step_by(GRID_NS as usize)
            .map(|t| steal_ticks(&trace, t, t + horizon))
            .collect();
        exposure.sort_unstable();
        let need = ((exposure.len() as f64 * MIN_CALM).ceil() as usize).max(1);
        let allowance = exposure.get(need - 1).copied().unwrap_or(0);
        let calm_ns = GRID_NS * exposure.iter().filter(|&&e| e <= allowance).count() as u64;
        Calm {
            trace,
            horizon,
            allowance,
            calm_ns,
        }
    }

    fn contains(&self, due: u64) -> bool {
        steal_ticks(&self.trace, due, due + self.horizon) <= self.allowance
    }
}

/// Share of the host's CPU time stolen by the hypervisor between two
/// readings of the counters.
fn steal_between(a: Option<CpuTicks>, b: Option<CpuTicks>) -> Option<f64> {
    let (a, b) = (a?, b?);
    Some(share(
        b.steal.saturating_sub(a.steal) as f64,
        b.total.saturating_sub(a.total) as f64,
    ))
}

fn snapshot(probe: &mut Client) -> io::Result<Snapshot> {
    Ok(Snapshot {
        metrics: probe.metrics()?,
        counters: probe.stats_v2()?.counters.into_iter().collect(),
        cpu: cpu_ticks(),
    })
}

struct Phase {
    clock: Clock,
    log: ConnLog,
    before: Snapshot,
    after: Snapshot,
    /// The instants of the window the end-to-end figures are taken over.
    calm: Calm,
}

impl Phase {
    /// Jobs due inside the measured window.
    fn measured(&self) -> impl Iterator<Item = &JobRec> + '_ {
        self.log.jobs.iter().filter(|j| self.clock.in_window(j.due))
    }

    fn window_s(&self) -> f64 {
        (self.clock.end - self.clock.start) as f64 / 1e9
    }

    fn calm_s(&self) -> f64 {
        self.calm.calm_ns as f64 / 1e9
    }

    fn count(&self, outcome: Outcome) -> u64 {
        self.measured().filter(|j| j.outcome == outcome).count() as u64
    }

    /// Wrong checksums over every job of the phase, warm-up included:
    /// each answer is checked, whether or not it is measured.
    fn mismatches(&self) -> u64 {
        self.log
            .jobs
            .iter()
            .filter(|j| j.outcome == Outcome::Mismatch)
            .count() as u64
    }

    /// Sorted latencies (ns) of the correct jobs matching `keep`.
    fn latencies(&self, keep: impl Fn(&JobRec) -> bool) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .measured()
            .filter(|j| j.outcome == Outcome::Ok && keep(j))
            .map(JobRec::latency)
            .collect();
        v.sort_unstable();
        v
    }

    fn mean_latency_us(&self) -> f64 {
        let v = self.latencies(|_| true);
        v.iter().sum::<u64>() as f64 / v.len().max(1) as f64 / 1e3
    }

    fn series(&self, name: &str, label: &str) -> Buckets {
        Buckets::parse(&self.after.metrics, name, label).since(&Buckets::parse(
            &self.before.metrics,
            name,
            label,
        ))
    }

    /// Share of the host's CPU time the hypervisor gave to other guests
    /// during the window, when the platform reports it.
    fn steal_share(&self) -> Option<f64> {
        steal_between(self.before.cpu, self.after.cpu)
    }

    fn counter(&self, name: &str) -> f64 {
        let get = |s: &Snapshot| s.counters.get(name).copied().unwrap_or(0);
        get(&self.after).saturating_sub(get(&self.before)) as f64
    }
}

/// Run one phase: load from now through `warmup + window`, snapshots of
/// the server's counters at the window's edges.
fn run_phase(
    svc: &mut Service,
    workload: Workload,
    classes: &[Class],
    seed: u64,
    epoch: Instant,
    window: Duration,
    traced: bool,
) -> io::Result<Phase> {
    let begin = epoch.elapsed();
    let clock = Clock {
        epoch,
        start: (begin + WARMUP).as_nanos() as u64,
        end: (begin + WARMUP + window).as_nanos() as u64,
        traced,
    };
    let Service { conns, probe, .. } = svc;
    let horizon = steal_horizon(workload);
    let (logs, before, after, trace) = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, c)| {
                let clock = &clock;
                s.spawn(move || match workload {
                    Workload::MixedOpen => {
                        let schedule = workload::mixed_schedule(
                            seed,
                            begin.as_nanos() as u64,
                            (WARMUP + window).as_secs_f64(),
                        );
                        let sources: HashMap<usize, WireSource> =
                            c.sources.iter().copied().collect();
                        load::open_loop(&mut c.tx, &mut c.rx, &sources, &schedule, classes, clock)
                    }
                    Workload::SmallClosed | Workload::HeavyClosed => {
                        let window = if workload == Workload::SmallClosed {
                            workload::SMALL_WINDOW
                        } else {
                            workload::HEAVY_WINDOW
                        };
                        load::closed_loop(
                            &mut c.tx, &mut c.rx, c.wire, &c.sources, i, window, classes, clock,
                        )
                    }
                })
            })
            .collect();
        let sleep_until = |t: u64| {
            let now = clock.now();
            if t > now {
                std::thread::sleep(Duration::from_nanos(t - now));
            }
        };
        // The steal counter is read through the window and one horizon
        // past it, which the last jobs due in the window run into.
        let mut trace = Vec::new();
        let mut read_steal_until = |t: u64| loop {
            let now = clock.now();
            if let Some(c) = cpu_ticks() {
                trace.push((now, c.steal));
            }
            if now >= t {
                break;
            }
            std::thread::sleep(STEAL_EVERY.min(Duration::from_nanos(t - now)));
        };
        sleep_until(clock.start);
        let before = snapshot(probe);
        read_steal_until(clock.end);
        let after = snapshot(probe);
        read_steal_until(clock.end + horizon);
        let logs: Vec<io::Result<ConnLog>> = handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect();
        (logs, before, after, trace)
    });
    let mut log = ConnLog::default();
    for l in logs {
        let l = l?;
        log.jobs.extend(l.jobs);
        log.requests.extend(l.requests);
        log.responses.extend(l.responses);
    }
    Ok(Phase {
        clock,
        log,
        before: before?,
        after: after?,
        calm: Calm::new(trace, clock.start, clock.end, horizon),
    })
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| invalid("no VmHWM in /proc/self/status".into()))
}

/// `n / d`, or 0 when nothing was counted.
fn share(n: f64, d: f64) -> f64 {
    if d > 0.0 {
        n / d
    } else {
        0.0
    }
}

/// Metrics in print order: name, value, unit.
type Metrics = Vec<(String, f64, &'static str)>;

fn print_result(attempted: u64, failed: u64, metrics: &Metrics) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// How often the `done` messages named each scheme, over the measured
/// jobs of the classes `keep` selects.
fn done_schemes(phase: &Phase, keep: impl Fn(usize) -> bool) -> BTreeMap<&'static str, u64> {
    let mut counts = BTreeMap::new();
    for j in phase.measured().filter(|j| keep(j.class())) {
        if let Some(s) = j.scheme_name() {
            *counts.entry(s).or_insert(0) += 1;
        }
    }
    counts
}

fn majority(counts: &BTreeMap<&'static str, u64>) -> Option<Scheme> {
    counts
        .iter()
        .max_by_key(|(_, n)| **n)
        .and_then(|(s, _)| Scheme::from_abbrev(s))
}

/// The class whose layer prices stand for `class` in the ledger.
fn priced_as(class: usize) -> usize {
    if SMALL.contains(&class) {
        SMALL[0]
    } else if class >= workload::BURST[0] {
        SPARSE
    } else {
        class
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(0) => {}
        Ok(mismatches) => {
            eprintln!("perfbench: {mismatches} results did not match their oracle");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Run the benchmark; returns how many results failed their check.
fn run(args: &Args) -> io::Result<u64> {
    let workload = args.workload;
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} (nproc {})",
        workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let classes = workload::classes(args.seed);
    let mut setups = Vec::new();
    let mut live: Option<Service> = None;
    let begin = Instant::now();
    while setups.len() < SETUP_REPS || begin.elapsed() < SETUP_TIME {
        if let Some(old) = live.take() {
            old.server.shutdown();
        }
        let (svc, took) = start_service(workload, &classes)?;
        setups.push(took.as_secs_f64());
        live = Some(svc);
    }
    let mut svc = live.expect("at least one setup ran");
    let setup_s = stats::median(&setups);
    println!(
        "setup: {} start-ups, median {setup_s} s (min {} s, max {} s)",
        setups.len(),
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        setups.iter().copied().fold(0.0, f64::max)
    );
    let seconds = Duration::from_secs(args.seconds);
    let result = if args.trace {
        traced_run(args, &mut svc, &classes, seconds)
    } else {
        untraced_run(args, &mut svc, &classes, seconds, setup_s)
    };
    let Service { server, .. } = svc;
    server.shutdown();
    let (attempted, failed, mismatches, metrics) = result?;
    if mismatches > 0 {
        return Ok(mismatches);
    }
    if attempted == 0 {
        return Err(invalid(
            "no job was attempted in the measured window".into(),
        ));
    }
    print_result(attempted, failed, &metrics);
    Ok(0)
}

/// The end-to-end run: the window spread over [`INSTANCES`] service
/// instances, tracing off, the samples of their calm instants pooled.
fn untraced_run(
    args: &Args,
    svc: &mut Service,
    classes: &[Class],
    seconds: Duration,
    setup_s: f64,
) -> io::Result<(u64, u64, u64, Metrics)> {
    let (mut attempted, mut failed, mut mismatches) = (0, 0, 0);
    // Per instance: the host's steal share, the calm samples, calm time.
    let mut runs: Vec<(f64, Vec<u64>, f64)> = Vec::new();
    for i in 0..INSTANCES {
        if i > 0 {
            let (fresh, _) = start_service(args.workload, classes)?;
            std::mem::replace(svc, fresh).server.shutdown();
        }
        let phase = run_phase(
            svc,
            args.workload,
            classes,
            stats::sub_seed(args.seed, 300 + u64::from(i)),
            Instant::now(),
            seconds / INSTANCES,
            false,
        )?;
        let (a, f, m) = report_e2e(args.workload, classes, &phase);
        attempted += a;
        failed += f;
        mismatches += m;
        let calm = phase.latencies(|j| phase.calm.contains(j.due));
        println!(
            "calm: {:.1}% of the window (at most {} stolen ticks within {} ms of falling due), \
             {} samples, p99 {:.3} ms",
            100.0 * phase.calm_s() / phase.window_s(),
            phase.calm.allowance,
            phase.calm.horizon / 1_000_000,
            calm.len(),
            pct(&calm, 0.99) / 1e6
        );
        runs.push((phase.steal_share().unwrap_or(0.0), calm, phase.calm_s()));
    }
    let pool = |runs: &[(f64, Vec<u64>, f64)]| {
        let mut lat: Vec<u64> = runs.iter().flat_map(|r| r.1.iter().copied()).collect();
        lat.sort_unstable();
        (lat, runs.iter().map(|r| r.2).sum::<f64>())
    };
    let (all, _) = pool(&runs);
    println!(
        "all instances: {} ms p50, {} ms p99 over {} calm samples",
        pct(&all, 0.5) / 1e6,
        pct(&all, 0.99) / 1e6,
        all.len()
    );
    // The calmest instances by steal share, earlier ones first on a tie.
    runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    runs.truncate(CALM_INSTANCES);
    let (lat, calm_s) = pool(&runs);
    println!(
        "calmest {CALM_INSTANCES} instances: {} ms p50, {} ms p99 over {} samples",
        pct(&lat, 0.5) / 1e6,
        pct(&lat, 0.99) / 1e6,
        lat.len()
    );
    let metrics: Metrics = vec![
        ("jobs_per_s".into(), lat.len() as f64 / calm_s, "1/s"),
        ("latency_p99_ms".into(), pct(&lat, 0.99) / 1e6, "ms"),
        ("latency_p50_ms".into(), pct(&lat, 0.5) / 1e6, "ms"),
        ("setup_s".into(), setup_s, "s"),
        ("peak_rss_mb".into(), peak_rss_mb()?, "MiB"),
    ];
    Ok((attempted, failed, mismatches, metrics))
}

/// Print the human-readable end-to-end summary and the decision audit of
/// one phase; returns (attempted, failed, mismatches).
fn report_e2e(workload: Workload, classes: &[Class], phase: &Phase) -> (u64, u64, u64) {
    let attempted = phase.measured().count() as u64;
    let errors = phase.count(Outcome::Error);
    let unanswered = phase.count(Outcome::Unanswered);
    let mismatches = phase.mismatches();
    let failed = errors + unanswered;
    let lat = phase.latencies(|_| true);
    println!(
        "{}: {} correct jobs in {:.1} s; latency p50 {:.3} ms p99 {:.3} ms over {} samples",
        workload.name(),
        lat.len(),
        phase.window_s(),
        pct(&lat, 0.5) / 1e6,
        pct(&lat, 0.99) / 1e6,
        lat.len()
    );
    if let Some(steal) = phase.steal_share() {
        println!(
            "host: {:.1}% of CPU time stolen by the hypervisor during the window",
            100.0 * steal
        );
    }
    println!(
        "failed_frac {} ({errors} errors + {unanswered} unanswered of {attempted}); \
         {mismatches} checksum mismatches",
        share(failed as f64, attempted as f64)
    );
    let mut names: Vec<&str> = Vec::new();
    for (_, ids) in workload.connections() {
        for c in ids {
            if !names.contains(&classes[c].name) {
                names.push(classes[c].name);
            }
        }
    }
    for name in names {
        let counts = done_schemes(phase, |c| classes[c].name == name);
        let lat = phase.latencies(|j| classes[j.class()].name == name);
        println!(
            "audit: {name} {} jobs, latency p50 {:.3} ms p99 {:.3} ms, done schemes {counts:?}",
            lat.len(),
            pct(&lat, 0.5) / 1e6,
            pct(&lat, 0.99) / 1e6
        );
    }
    (attempted, failed, mismatches)
}

/// The traced run: the workload untraced, then traced, then the layer
/// replay and the ledger.
fn traced_run(
    args: &Args,
    svc: &mut Service,
    classes: &[Class],
    seconds: Duration,
) -> io::Result<(u64, u64, u64, Metrics)> {
    let workload = args.workload;
    let half = seconds / 2;
    let plain = run_phase(
        svc,
        workload,
        classes,
        args.seed,
        Instant::now(),
        half,
        false,
    )?;
    let mut tracer = Tracer::new();
    let traced = run_phase(
        svc,
        workload,
        classes,
        args.seed,
        tracer.epoch(),
        half,
        true,
    )?;
    let (a0, f0, m0) = report_e2e(workload, classes, &plain);
    let (a1, f1, m1) = report_e2e(workload, classes, &traced);
    let mut mismatches = m0 + m1;

    push_job_spans(&mut tracer, &traced, classes);

    // The layer replay.
    let codec = layers::codecs(&mut tracer, &traced.log.requests, &traced.log.responses);
    let (prices, wrong) = layers::runtime(&mut tracer, &svc.rt, classes);
    mismatches += wrong;
    let inspections = layers::decide(&mut tracer, classes, svc.rt.width());
    let pool = WorkerPool::new(svc.rt.width());
    // The scheme the service runs each priced class with: the `done`
    // messages' majority where this workload runs the class, else what
    // the in-process runs reported.
    let service: HashMap<usize, Scheme> = PRICED
        .iter()
        .filter_map(|&(c, _)| {
            majority(&done_schemes(&traced, |k| k == c))
                .or(prices[&c].scheme)
                .map(|s| (c, s))
        })
        .collect();
    let kernels = layers::kernels(&mut tracer, classes, &inspections, &pool, &service);
    // Fusion is priced with the scheme the service runs `sparse` with.
    let fuse_with = service
        .get(&SPARSE)
        .copied()
        .filter(|s| s.is_software())
        .unwrap_or(Scheme::Hash);
    let fused_gain = layers::fused(&mut tracer, classes, &inspections, &pool, fuse_with);
    let (recognize_us, scan_us) = layers::simplify(&mut tracer, classes);
    let region_us = layers::pool_region(&mut tracer, &pool);
    let intern_us = layers::intern(&mut tracer, classes);
    let (record_ns, contended_ns, push_ns) = layers::telemetry(&mut tracer);
    drop(pool);

    let mut m: Metrics = Vec::new();
    let attempted = a0 + a1;
    let failed = f0 + f1;
    m.push((
        "failed_frac".into(),
        share(failed as f64, attempted as f64),
        "ratio",
    ));
    m.push(("wire.text.parse_ns".into(), codec.text_parse_ns, "ns"));
    m.push(("wire.text.encode_ns".into(), codec.text_encode_ns, "ns"));
    m.push(("wire.text.bytes_per_job".into(), codec.text_bytes, "B"));
    m.push(("wire2.decode_ns".into(), codec.bin_decode_ns, "ns"));
    m.push(("wire2.encode_ns".into(), codec.bin_encode_ns, "ns"));
    m.push(("wire2.bytes_per_job".into(), codec.bin_bytes, "B"));

    m.extend(server_metrics(&traced, workload));

    for &(c, name) in &PRICED {
        let p = &prices[&c];
        m.push((format!("runtime.inproc_us.{name}"), p.inproc_us, "us"));
        m.push((format!("runtime.exec_us.{name}"), p.exec_us, "us"));
        m.push((format!("runtime.overhead_us.{name}"), p.overhead_us, "us"));
        m.push((format!("runtime.signature_us.{name}"), p.signature_us, "us"));
    }
    m.extend(counter_metrics(&traced));
    m.push(("pool.region_us".into(), region_us, "us"));
    m.push(("intern.upload_us".into(), intern_us, "us"));
    m.push((
        "decide.rank_ns".into(),
        median_or_zero(&tracer.net("decide.rank", None, None)),
        "ns",
    ));

    // Decision audit: what the service ran against every kernel's price.
    let scan_ns_per_ref = scan_us * 1e3 / classes[WINDOW].pattern.num_references() as f64;
    for &(c, name) in &PRICED {
        m.push((
            format!("decide.inspect_us.{name}"),
            median_or_zero(&tracer.net("decide.inspect", Some(name), None)) / 1e3,
            "us",
        ));
        let k = &kernels[&c];
        let best = k.ns_per_ref.values().copied().fold(f64::INFINITY, f64::min);
        // Window jobs take the simplify rewrite, which `done` reports as
        // `seq`; their price is the scan's.
        let (ran, ran_ns) = if c == WINDOW {
            ("scan", scan_ns_per_ref)
        } else {
            let s = service[&c];
            (s.abbrev(), k.ns_per_ref.get(&s).copied().unwrap_or(best))
        };
        let regret = ran_ns / best.min(ran_ns);
        m.push((format!("decide.regret.{name}"), regret, "ratio"));
        let priced: Vec<String> = layers::KERNELS
            .iter()
            .map(|s| format!("{}={:.3}", s.abbrev(), k.ns_per_ref[s]))
            .collect();
        println!(
            "audit: {name} runs {ran} ({ran_ns:.3} ns/ref), done schemes {:?}; \
             kernel ns/ref {}; regret {regret:.3}",
            done_schemes(&traced, |k| k == c),
            priced.join(" ")
        );
    }
    for &(c, name) in &PRICED {
        for s in layers::KERNELS {
            m.push((
                format!("kernel.ns_per_ref.{name}.{}", s.abbrev()),
                kernels[&c].ns_per_ref[&s],
                "ns",
            ));
        }
    }
    for &(c, name) in &PRICED {
        m.push((
            format!("kernel.dyn_body_ratio.{name}"),
            kernels[&c].dyn_body_ratio,
            "ratio",
        ));
    }
    m.push(("fused.gain.sparse".into(), fused_gain, "ratio"));
    m.push(("simplify.recognize_us".into(), recognize_us, "us"));
    m.push(("simplify.scan_us".into(), scan_us, "us"));
    let pass_through_ns = kernels[&WINDOW]
        .ns_per_ref
        .values()
        .copied()
        .fold(f64::INFINITY, f64::min);
    m.push((
        "simplify.gain".into(),
        pass_through_ns / scan_ns_per_ref,
        "ratio",
    ));
    m.push(("telemetry.record_ns".into(), record_ns, "ns"));
    m.push(("telemetry.record_contended_ns".into(), contended_ns, "ns"));
    m.push(("telemetry.trace_push_ns".into(), push_ns, "ns"));
    let mut lag: Vec<u64> = traced
        .measured()
        .filter(|j| j.outcome == Outcome::Ok)
        .map(|j| j.send_start.saturating_sub(j.due))
        .collect();
    lag.sort_unstable();
    m.push(("loadgen.lag_p99_us".into(), pct(&lag, 0.99) / 1e3, "us"));

    let ledger = ledger(&traced, &codec, &prices);
    print_ledger(&ledger);
    m.push((
        "reconcile.residual_frac".into(),
        ledger.residual_frac(),
        "ratio",
    ));
    let overhead = traced.mean_latency_us() / plain.mean_latency_us().max(1e-9) - 1.0;
    println!(
        "trace overhead: mean latency {:.2} us traced vs {:.2} us untraced",
        traced.mean_latency_us(),
        plain.mean_latency_us()
    );
    m.push(("trace.overhead_frac".into(), overhead, "ratio"));

    let out = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}.tsv", workload.name()));
    tracer.write(&out)?;
    println!("spans: {}", out.display());
    Ok((attempted, failed, mismatches, m))
}

/// Record the client-side spans of every measured job of `phase`: `job`
/// from due to `done`, with `client.send` and `client.recv` as children.
fn push_job_spans(tracer: &mut Tracer, phase: &Phase, classes: &[Class]) {
    for j in phase.measured() {
        let job = tracer.push(Span {
            id: 0,
            parent: 0,
            name: "job",
            class: classes[j.class()].name,
            scheme: j.scheme_name().unwrap_or(""),
            start: j.due,
            end: j.done.max(j.due),
            value: u64::from(j.exec_ns),
        });
        if j.outcome == Outcome::Ok {
            for (name, start, end) in [
                (
                    "client.send",
                    j.send_start,
                    j.send_start + u64::from(j.send_ns),
                ),
                ("client.recv", j.done - u64::from(j.recv_ns), j.done),
            ] {
                tracer.push(Span {
                    id: 0,
                    parent: job,
                    name,
                    class: "",
                    scheme: "",
                    start,
                    end,
                    value: 0,
                });
            }
        }
    }
}

/// The server's own view over the traced window, from the `metrics`
/// exposition, next to the client's.
fn server_metrics(phase: &Phase, workload: Workload) -> Metrics {
    let mut m = Metrics::new();
    let us = |v: Option<f64>| v.unwrap_or(0.0) / 1e3;
    let request = phase.series("smartapps_request_ns", "conn=\"all\"");
    let lat = phase.latencies(|_| true);
    let client_p50_us = pct(&lat, 0.5) / 1e3;
    m.push((
        "server.request_p99_us".into(),
        us(request.quantile(0.99)),
        "us",
    ));
    m.push((
        "server.stage.write_p95_us".into(),
        us(phase
            .series("smartapps_stage_ns", "stage=\"write\"")
            .quantile(0.95)),
        "us",
    ));
    m.push((
        "server.client_gap_us".into(),
        client_p50_us - us(request.quantile(0.5)),
        "us",
    ));
    let queue = phase.series("smartapps_stage_ns", "stage=\"queue\"");
    m.push(("queue.wait_p95_us".into(), us(queue.quantile(0.95)), "us"));
    let class_p99: Vec<f64> = workload
        .fairness_classes()
        .into_iter()
        .map(|c| phase.latencies(|j| j.class() == c))
        .filter(|v| !v.is_empty())
        .map(|v| pct(&v, 0.99))
        .collect();
    let (hi, lo) = class_p99
        .iter()
        .fold((0.0f64, f64::INFINITY), |(hi, lo), &v| {
            (hi.max(v), lo.min(v))
        });
    m.push((
        "queue.class_p99_ratio".into(),
        if lo > 0.0 && lo.is_finite() {
            hi / lo
        } else {
            1.0
        },
        "ratio",
    ));
    m
}

/// The runtime's `stats v2` counters over the traced window, per job or
/// per batch.
fn counter_metrics(phase: &Phase) -> Metrics {
    let mut m = Metrics::new();
    let completed = phase.counter("completed");
    let per_job = |name: &str| share(phase.counter(name), completed);
    let batches = phase.counter("batches");
    m.push((
        "runtime.batch_mean".into(),
        share(completed, batches),
        "jobs",
    ));
    m.push((
        "runtime.coalesced_frac".into(),
        per_job("coalesced"),
        "ratio",
    ));
    m.push(("runtime.fused_frac".into(), per_job("fused_jobs"), "ratio"));
    m.push((
        "runtime.simplified_frac".into(),
        per_job("simplified_jobs"),
        "ratio",
    ));
    m.push((
        "runtime.simd_frac".into(),
        per_job("simd_offloads"),
        "ratio",
    ));
    m.push((
        "runtime.profile_hit_frac".into(),
        share(phase.counter("profile_hits"), batches),
        "ratio",
    ));
    m.push((
        "runtime.steals_per_kjob".into(),
        1000.0 * per_job("steals"),
        "count",
    ));
    m
}

/// One job's mean end-to-end cost in the traced window against the
/// layers that explain it.
fn ledger(
    phase: &Phase,
    codec: &layers::Codec,
    prices: &HashMap<usize, layers::RuntimePrice>,
) -> Ledger {
    let queue = phase.series("smartapps_stage_ns", "stage=\"queue\"");
    let ok: Vec<&JobRec> = phase
        .measured()
        .filter(|j| j.outcome == Outcome::Ok)
        .collect();
    let n = ok.len().max(1) as f64;
    let mean = |f: &dyn Fn(&JobRec) -> f64| ok.iter().map(|j| f(j)).sum::<f64>() / n;
    Ledger {
        end_to_end: mean(&|j| j.latency() as f64 / 1e3),
        parts: vec![
            (
                "client send+recv",
                mean(&|j| (f64::from(j.send_ns) + f64::from(j.recv_ns)) / 1e3),
            ),
            (
                "server codec",
                mean(&|j| codec.server_ns(j.wire == Wire::Binary) / 1e3),
            ),
            (
                "signature",
                mean(&|j| prices[&priced_as(j.class())].signature_us),
            ),
            (
                "runtime overhead",
                mean(&|j| prices[&priced_as(j.class())].overhead_us),
            ),
            ("queue wait", queue.mean().unwrap_or(0.0) / 1e3),
            ("exec", mean(&|j| f64::from(j.exec_ns) / 1e3)),
        ],
    }
}

fn print_ledger(ledger: &Ledger) {
    println!("ledger: mean job {:.2} us end to end", ledger.end_to_end);
    for (part, v) in &ledger.parts {
        println!("ledger:   {part:<18} {v:>10.2} us");
    }
    println!(
        "ledger:   {:<18} {:>10.2} us ({:.1}%)",
        "residual",
        ledger.residual(),
        100.0 * ledger.residual_frac()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_snapshot() -> Snapshot {
        Snapshot {
            metrics: String::new(),
            counters: HashMap::new(),
            cpu: None,
        }
    }

    #[test]
    fn a_wrong_checksum_during_warm_up_fails_the_run() {
        let clock = Clock {
            epoch: Instant::now(),
            start: 1_000,
            end: 2_000,
            traced: false,
        };
        let mut warm_up = JobRec::new(SMALL[0], Wire::Binary, 500);
        warm_up.outcome = Outcome::Mismatch;
        let mut measured = JobRec::new(SMALL[1], Wire::Binary, 1_500);
        measured.done = 1_800;
        measured.outcome = Outcome::Ok;
        let phase = Phase {
            clock,
            log: ConnLog {
                jobs: vec![warm_up, measured],
                ..ConnLog::default()
            },
            before: no_snapshot(),
            after: no_snapshot(),
            calm: Calm::new(Vec::new(), 1_000, 2_000, 100),
        };
        let classes = workload::classes(1);
        let (attempted, failed, mismatches) = report_e2e(Workload::SmallClosed, &classes, &phase);
        assert_eq!((attempted, failed), (1, 0));
        assert_eq!(mismatches, 1);
    }

    #[test]
    fn steal_ticks_span_the_readings_around_an_interval() {
        let trace = [(0, 5), (10, 5), (20, 7), (30, 8), (40, 8)];
        assert_eq!(steal_ticks(&trace, 0, 10), 0);
        // From the last reading at or before 12 to the first at or after 25.
        assert_eq!(steal_ticks(&trace, 12, 25), 3);
        assert_eq!(steal_ticks(&trace, 30, 40), 0);
        // Past either end the outermost readings stand in.
        assert_eq!(steal_ticks(&trace, 35, 99), 0);
        assert_eq!(steal_ticks(&trace, 0, 99), 3);
        assert_eq!(steal_ticks(&[], 0, 99), 0);
    }

    #[test]
    fn calm_instants_need_the_fewest_stolen_ticks_that_cover_a_quarter() {
        let ms = GRID_NS;
        // A calm host: the whole window counts.
        let calm = Calm::new(vec![(0, 3), (100 * ms, 3)], 0, 40 * ms, 5 * ms);
        assert_eq!((calm.allowance, calm.calm_ns), (0, 40 * ms));
        assert!(calm.contains(39 * ms));
        // One tick stolen around 20 ms: the instants whose 5 ms horizon
        // reaches it drop out.
        let trace: Vec<(u64, u64)> = (0..=50)
            .map(|t| (t * ms, if t < 20 { 0 } else { 1 }))
            .collect();
        let calm = Calm::new(trace, 0, 40 * ms, 5 * ms);
        assert_eq!(calm.allowance, 0);
        assert!(calm.contains(10 * ms) && calm.contains(20 * ms));
        assert!(!calm.contains(15 * ms) && !calm.contains(19 * ms));
        assert_eq!(calm.calm_ns, 35 * ms);
        // Steal in every horizon: the allowance rises until a quarter of
        // the window is calm.
        let trace: Vec<(u64, u64)> = (0..=50).map(|t| (t * ms, t + t / 10)).collect();
        let calm = Calm::new(trace, 0, 40 * ms, 5 * ms);
        assert_eq!(calm.allowance, 5);
        assert!(calm.calm_ns >= 10 * ms);
        let a = CpuTicks {
            steal: 10,
            total: 1000,
        };
        let b = CpuTicks {
            steal: 30,
            total: 1200,
        };
        assert_eq!(steal_between(Some(a), Some(b)), Some(0.1));
        assert_eq!(steal_between(None, Some(b)), None);
    }
}
