//! Load generation: the closed loop (a fixed window of jobs in flight per
//! connection) and the open loop (a seeded Poisson schedule, one sender
//! thread and one receiver thread on one connection).  Both record one
//! [`JobRec`] per job; with tracing on they also record the client-side
//! spans and keep a sample of the run's own messages for the layer
//! replay.

use crate::conn::{invalid, Receiver, Sender};
use crate::workload::{Class, Wire, BURST};
use smartapps_server::{DoneOutcome, ReplyMode, Request, Response, SubmitArgs, WireSource};
use std::collections::HashMap;
use std::io;
use std::time::{Duration, Instant};

/// Scheme names the `done` messages may carry, indexed by
/// [`JobRec::scheme`].
pub const SCHEMES: [&str; 8] = ["seq", "rep", "ll", "sel", "lw", "hash", "simd", "pclr"];
const NO_SCHEME: u8 = u8::MAX;

/// Messages of each connection kept for the layer replay.
pub const SAMPLE_CAP: usize = 4096;

/// How long jobs may stay unanswered after the last send before the run
/// counts them as failed and moves on.
pub const DRAIN: Duration = Duration::from_secs(10);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// The server answered with an error outcome.
    Error,
    /// The server answered with a wrong checksum.
    Mismatch,
    /// No answer arrived before the drain deadline.
    Unanswered,
}

/// What one job did, as the client saw it, kept small since a run holds
/// hundreds of thousands.  Instants are nanoseconds since the phase's
/// epoch; `send_start`, `send_ns` and `recv_ns` are measured only on a
/// traced phase.
#[derive(Debug, Clone, Copy)]
pub struct JobRec {
    /// When the job was due: its scheduled instant in the open loop, the
    /// moment its window slot freed in the closed loop.
    pub due: u64,
    pub done: u64,
    pub send_start: u64,
    /// Encode and write of the request (the `client.send` span).
    pub send_ns: u32,
    /// Read and decode of the answer (the `client.recv` span).
    pub recv_ns: u32,
    /// The server's execution time from the `done` message.
    pub exec_ns: u32,
    class: u8,
    pub wire: Wire,
    pub scheme: u8,
    pub outcome: Outcome,
}

/// A duration in ns as `u32`, saturating (4.29 s is far beyond any span
/// or execution the benchmark records).
fn ns32(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

impl JobRec {
    pub fn new(class: usize, wire: Wire, due: u64) -> JobRec {
        JobRec {
            due,
            done: 0,
            send_start: 0,
            send_ns: 0,
            recv_ns: 0,
            exec_ns: 0,
            class: u8::try_from(class).expect("fewer than 256 classes"),
            wire,
            scheme: NO_SCHEME,
            outcome: Outcome::Unanswered,
        }
    }

    pub fn class(&self) -> usize {
        self.class as usize
    }

    /// Stamp the answer's arrival: read started at `recv_start`, decoded
    /// at `done`.
    fn received(&mut self, recv_start: u64, done: u64) {
        self.done = done;
        self.recv_ns = ns32(done.saturating_sub(recv_start));
    }

    pub fn latency(&self) -> u64 {
        self.done.saturating_sub(self.due)
    }

    pub fn scheme_name(&self) -> Option<&'static str> {
        SCHEMES.get(self.scheme as usize).copied()
    }

    /// Fill in the answer: outcome, scheme and execution time, checked
    /// against the class oracle.
    fn answer(&mut self, outcome: &DoneOutcome, class: &Class) {
        match outcome {
            DoneOutcome::Ok {
                scheme,
                elapsed_ns,
                payload,
                ..
            } => {
                self.exec_ns = ns32(*elapsed_ns);
                self.scheme = SCHEMES
                    .iter()
                    .position(|s| s == scheme)
                    .map_or(NO_SCHEME, |i| i as u8);
                self.outcome = if class.expect.matches(payload) {
                    Outcome::Ok
                } else {
                    Outcome::Mismatch
                };
            }
            DoneOutcome::Err { .. } => self.outcome = Outcome::Error,
        }
    }
}

/// The clock of one phase.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    pub epoch: Instant,
    /// Start and end of the measured window (ns since `epoch`); load runs
    /// from `epoch` to `end`, the part before `start` is warm-up.
    pub start: u64,
    pub end: u64,
    pub traced: bool,
}

impl Clock {
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A clock stamp taken only on traced phases.
    fn stamp(&self) -> u64 {
        if self.traced {
            self.now()
        } else {
            0
        }
    }

    pub fn in_window(&self, due: u64) -> bool {
        (self.start..self.end).contains(&due)
    }
}

/// Everything one connection's load recorded.
#[derive(Default)]
pub struct ConnLog {
    pub jobs: Vec<JobRec>,
    /// A sample of the requests sent and responses received during the
    /// measured window (traced phases only).
    pub requests: Vec<Request>,
    pub responses: Vec<Response>,
}

impl ConnLog {
    fn keep_request(&mut self, clock: &Clock, due: u64, req: &Request) {
        if clock.traced && clock.in_window(due) && self.requests.len() < SAMPLE_CAP {
            self.requests.push(req.clone());
        }
    }

    fn keep_response(&mut self, clock: &Clock, due: u64, resp: &Response) {
        if clock.traced && clock.in_window(due) && self.responses.len() < SAMPLE_CAP {
            self.responses.push(resp.clone());
        }
    }
}

fn submit(token: u64, class: &Class, source: WireSource) -> SubmitArgs {
    SubmitArgs {
        token,
        reply: ReplyMode::Ack,
        body: class.body,
        source,
    }
}

/// One connection of a closed loop: keep `window` jobs in flight, cycling
/// over `sources` (class index, how to name its pattern) starting at
/// `offset`, until the clock's end; then drain.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    tx: &mut Sender,
    rx: &mut Receiver,
    wire: Wire,
    sources: &[(usize, WireSource)],
    offset: usize,
    window: usize,
    classes: &[Class],
    clock: &Clock,
) -> io::Result<ConnLog> {
    let mut log = ConnLog::default();
    let mut pending: HashMap<u64, JobRec> = HashMap::with_capacity(window * 2);
    let mut token = 0u64;
    let mut send = |log: &mut ConnLog, pending: &mut HashMap<u64, JobRec>, due: u64| {
        let (class, source) = sources[(offset + token as usize) % sources.len()];
        let req = Request::Submit(submit(token, &classes[class], source));
        let mut rec = JobRec::new(class, wire, due);
        rec.send_start = clock.stamp();
        tx.send(&req)?;
        rec.send_ns = ns32(clock.stamp().saturating_sub(rec.send_start));
        log.keep_request(clock, due, &req);
        pending.insert(token, rec);
        token += 1;
        io::Result::Ok(())
    };
    let first = clock.now();
    for _ in 0..window {
        send(&mut log, &mut pending, first)?;
    }
    let drain_by = clock.end + DRAIN.as_nanos() as u64;
    while !pending.is_empty() {
        if !rx.wait_readable()? {
            if clock.now() > drain_by {
                break;
            }
            continue;
        }
        let recv_start = clock.stamp();
        let resp = rx.recv()?;
        let done = clock.now();
        let Response::Done(d) = &resp else {
            continue;
        };
        let mut rec = pending
            .remove(&d.token)
            .ok_or_else(|| invalid(format!("done for unknown token {}", d.token)))?;
        rec.received(recv_start, done);
        rec.answer(&d.outcome, &classes[rec.class()]);
        log.keep_response(clock, rec.due, &resp);
        log.jobs.push(rec);
        if done < clock.end {
            send(&mut log, &mut pending, done)?;
        }
    }
    log.jobs.extend(pending.into_values());
    Ok(log)
}

/// An answer as the open loop's receiver got it: token, when its read
/// started, when it was decoded, and the message.
type Answer = (usize, u64, u64, Response);

/// One arrival of the open loop: a single job of `class`, or — for
/// `BURST[0]` — one batch request of every `burst` member.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub due: u64,
    pub class: usize,
}

impl Arrival {
    pub fn classes(&self) -> Vec<usize> {
        if self.class == BURST[0] {
            BURST.to_vec()
        } else {
            vec![self.class]
        }
    }
}

/// The open loop on one connection: a sender thread follows `schedule`
/// without waiting for answers, a receiver thread collects them.
/// Latency counts from each job's due instant, so a late sender or a
/// queue behind a heavy job shows in it.
pub fn open_loop(
    tx: &mut Sender,
    rx: &mut Receiver,
    source_of: &HashMap<usize, WireSource>,
    schedule: &[Arrival],
    classes: &[Class],
    clock: &Clock,
) -> io::Result<ConnLog> {
    let wire = Wire::Binary;
    // Token = index into `jobs`; each arrival owns a contiguous run.
    let mut jobs: Vec<JobRec> = Vec::new();
    let mut first_token: Vec<usize> = Vec::with_capacity(schedule.len());
    for a in schedule {
        first_token.push(jobs.len());
        jobs.extend(a.classes().into_iter().map(|c| JobRec::new(c, wire, a.due)));
    }
    let total = jobs.len();
    let (sent, received) = std::thread::scope(|s| {
        let sender = s.spawn(|| -> io::Result<(Vec<(u64, u64)>, ConnLog)> {
            let mut log = ConnLog::default();
            let mut sent = Vec::with_capacity(schedule.len());
            for (a, &t0) in schedule.iter().zip(&first_token) {
                let now = clock.now();
                if a.due > now {
                    std::thread::sleep(Duration::from_nanos(a.due - now));
                }
                let args: Vec<SubmitArgs> = a
                    .classes()
                    .into_iter()
                    .enumerate()
                    .map(|(k, c)| submit((t0 + k) as u64, &classes[c], source_of[&c]))
                    .collect();
                let req = if args.len() == 1 {
                    Request::Submit(args[0])
                } else {
                    Request::Batch(args)
                };
                let start = clock.stamp();
                tx.send(&req)?;
                sent.push((start, clock.stamp()));
                log.keep_request(clock, a.due, &req);
            }
            Ok((sent, log))
        });
        let receiver = s.spawn(|| -> io::Result<(Vec<Answer>, ConnLog)> {
            let mut log = ConnLog::default();
            let mut got = Vec::with_capacity(total);
            let drain_by = clock.end + DRAIN.as_nanos() as u64;
            while got.len() < total {
                if !rx.wait_readable()? {
                    if clock.now() > drain_by {
                        break;
                    }
                    continue;
                }
                let recv_start = clock.stamp();
                let resp = rx.recv()?;
                let done = clock.now();
                let Response::Done(d) = &resp else {
                    continue;
                };
                let token = d.token as usize;
                if token >= total {
                    return Err(invalid(format!("done for unknown token {token}")));
                }
                log.keep_response(clock, jobs[token].due, &resp);
                got.push((token, recv_start, done, resp));
            }
            Ok((got, log))
        });
        (sender.join(), receiver.join())
    });
    let (sent, send_log) = sent.expect("open-loop sender panicked")?;
    let (got, mut log) = received.expect("open-loop receiver panicked")?;
    for ((&t0, a), &stamps) in first_token.iter().zip(schedule).zip(&sent) {
        for rec in &mut jobs[t0..t0 + a.classes().len()] {
            rec.send_start = stamps.0;
            rec.send_ns = ns32(stamps.1.saturating_sub(stamps.0));
        }
    }
    for (token, recv_start, done, resp) in got {
        let rec = &mut jobs[token];
        if rec.outcome != Outcome::Unanswered {
            return Err(invalid(format!("token {token} answered twice")));
        }
        rec.received(recv_start, done);
        if let Response::Done(d) = resp {
            rec.answer(&d.outcome, &classes[rec.class()]);
        }
    }
    log.requests = send_log.requests;
    log.jobs = jobs;
    Ok(log)
}
