//! The layer replay of a traced run: the run's own inputs pushed through
//! each layer's public functions, one span per call.  Calls that take a
//! few nanoseconds (histogram records, trace pushes) are timed in blocks
//! of [`BLOCK`] calls per span, since a single call is shorter than the
//! clock read around it.

use crate::stats::median_or_zero;
use crate::trace::{Span, Tracer};
use crate::workload::{Class, Expect, PRICED, SMALL, SPARSE, WINDOW};
use smartapps_core::toolbox::DomainKey;
use smartapps_core::Calibrator;
use smartapps_reductions::{
    recognize, run_fused_on, run_scan, run_scheme_on, simd_feasible, simd_reduce_on, CostGuard,
    DecisionModel, FusedBody, Inspection, Inspector, ModelInput, Scheme, SimdElem,
};
use smartapps_runtime::{JobOutput, JobSpec, PatternInterner, Runtime, WorkerPool};
use smartapps_server::wire2;
use smartapps_server::{checksum, checksum_f64, Payload, Request, Response, WireBody};
use smartapps_telemetry::{LogHistogram, TraceBackend, TraceError, TraceEvent, TraceRing};
use smartapps_workloads::{contribution, contribution_i64, AccessPattern};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Calls per span for nanosecond-scale operations.
pub const BLOCK: u64 = 1024;

/// The kernels priced per class, in the order `kernel.ns_per_ref` lists
/// them.
pub const KERNELS: [Scheme; 7] = [
    Scheme::Seq,
    Scheme::Rep,
    Scheme::Ll,
    Scheme::Sel,
    Scheme::Lw,
    Scheme::Hash,
    Scheme::Simd,
];

/// Repeat `f` at least `min` and at most `max` times, stopping after
/// `budget` once `min` is reached.
fn repeat(min: usize, max: usize, budget: Duration, mut f: impl FnMut()) {
    let t0 = Instant::now();
    let mut n = 0;
    while n < min || (n < max && t0.elapsed() < budget) {
        f();
        n += 1;
    }
}

fn jobs_in(req: &Request) -> u64 {
    match req {
        Request::Batch(jobs) => jobs.len() as u64,
        _ => 1,
    }
}

/// Codec cost per job, both wires, priced on the run's own messages.
#[derive(Debug, Clone, Copy, Default)]
pub struct Codec {
    pub text_parse_ns: f64,
    pub text_encode_ns: f64,
    pub text_bytes: f64,
    pub bin_decode_ns: f64,
    pub bin_encode_ns: f64,
    pub bin_bytes: f64,
}

impl Codec {
    /// Server-side codec time of one job on `binary` or text.
    pub fn server_ns(&self, binary: bool) -> f64 {
        if binary {
            self.bin_decode_ns + self.bin_encode_ns
        } else {
            self.text_parse_ns + self.text_encode_ns
        }
    }
}

/// Price the server's side of both codecs: request decode and response
/// encode, on every sampled message rendered in each wire format.
pub fn codecs(tracer: &mut Tracer, requests: &[Request], responses: &[Response]) -> Codec {
    let jobs: u64 = requests.iter().map(jobs_in).sum::<u64>().max(1);
    let answers = responses.len().max(1) as f64;
    let (mut text_req, mut text_resp, mut bin_req, mut bin_resp) = (0usize, 0usize, 0, 0);
    for req in requests {
        let line = req.encode();
        text_req += line.len() + 1;
        let parsed = tracer.time("wire.text.parse", "", "", jobs_in(req), || {
            Request::parse(black_box(&line))
        });
        assert_eq!(parsed.as_ref(), Ok(req), "text request round-trips");
        let frame = wire2::encode_request(req);
        bin_req += frame.len();
        let decoded = tracer.time("wire2.decode", "", "", jobs_in(req), || {
            wire2::decode_request(frame[4], black_box(&frame[5..]))
        });
        assert_eq!(decoded.as_ref(), Ok(req), "binary request round-trips");
    }
    for resp in responses {
        let line = tracer.time("wire.text.encode", "", "", 1, || black_box(resp).encode());
        text_resp += line.len() + 1;
        let frame = tracer.time("wire2.encode", "", "", 1, || {
            wire2::encode_response(black_box(resp))
        });
        bin_resp += frame.len();
    }
    let total = |name| tracer.net(name, None, None).iter().sum::<f64>();
    Codec {
        text_parse_ns: total("wire.text.parse") / jobs as f64,
        text_encode_ns: total("wire.text.encode") / answers,
        text_bytes: text_req as f64 / jobs as f64 + text_resp as f64 / answers,
        bin_decode_ns: total("wire2.decode") / jobs as f64,
        bin_encode_ns: total("wire2.encode") / answers,
        bin_bytes: bin_req as f64 / jobs as f64 + bin_resp as f64 / answers,
    }
}

/// The job the server builds for a class: the same pattern, the same
/// `Arc<dyn Fn>` body, the same declarations.
fn job_spec(class: &Class) -> JobSpec {
    let p = class.pattern.clone();
    match class.body {
        WireBody::Sum => JobSpec::i64(p, |_i, r| contribution_i64(r)),
        WireBody::Mul(k) => JobSpec::i64(p, move |_i, r| contribution_i64(r).wrapping_mul(k)),
        WireBody::FSum => JobSpec::f64(p, |_i, r| contribution(r)),
        WireBody::Usum => JobSpec::i64(p, |i, _r| contribution_i64(i)).with_uniform_body(true),
        other => panic!("no benchmark class uses the {other:?} body"),
    }
}

fn payload(out: &JobOutput) -> Payload {
    match out {
        JobOutput::I64(v) => Payload::Checksum {
            len: v.len(),
            sum: checksum(v),
        },
        JobOutput::F64(v) => Payload::ChecksumF64 {
            len: v.len(),
            sum: checksum_f64(v),
        },
    }
}

/// In-process prices of one class on the service's own runtime.
#[derive(Debug, Clone, Copy)]
pub struct RuntimePrice {
    /// `submit` + `wait`, µs.
    pub inproc_us: f64,
    /// The runtime's own execution time of those jobs, µs.
    pub exec_us: f64,
    /// `Runtime::signature_of`, µs.
    pub signature_us: f64,
    /// What `submit` + `wait` costs beyond execution and signature, µs.
    pub overhead_us: f64,
    /// The scheme the runtime reported.
    pub scheme: Option<Scheme>,
}

/// Submit each priced class in process and wait for it, checking every
/// result against the class oracle.  Returns the prices and the number
/// of wrong results.
pub fn runtime(
    tracer: &mut Tracer,
    rt: &Runtime,
    classes: &[Class],
) -> (HashMap<usize, RuntimePrice>, u64) {
    let mut prices = HashMap::new();
    let mut mismatches = 0;
    for &(c, name) in &PRICED {
        let class = &classes[c];
        let spec = job_spec(class);
        for _ in 0..2 {
            rt.submit(spec.clone()).wait();
        }
        let mut scheme = None;
        repeat(8, 40, Duration::from_millis(120), || {
            tracer.time("runtime.signature", name, "", 0, || {
                black_box(rt.signature_of(&class.pattern))
            });
            let result = tracer.time("runtime.inproc", name, "", 0, || {
                rt.submit(spec.clone()).wait()
            });
            tracer.set_last_value(result.elapsed.as_nanos() as u64);
            if result.error.is_some() || !class.expect.matches(&payload(&result.output)) {
                mismatches += 1;
            }
            scheme = Some(result.scheme);
        });
        let us = |v: Vec<f64>| median_or_zero(&v) / 1e3;
        let inproc_us = us(tracer.net("runtime.inproc", Some(name), None));
        let exec_us = us(tracer
            .spans("runtime.inproc", Some(name), None)
            .map(|s| s.value as f64)
            .collect());
        let signature_us = us(tracer.net("runtime.signature", Some(name), None));
        prices.insert(
            c,
            RuntimePrice {
                inproc_us,
                exec_us,
                signature_us,
                overhead_us: inproc_us - exec_us - signature_us,
                scheme,
            },
        );
    }
    (prices, mismatches)
}

/// Inspect and rank each priced class: `Inspector::analyze` and
/// `Calibrator::rank` on an uncalibrated model.  Returns the inspections
/// for the kernel replay.
pub fn decide(tracer: &mut Tracer, classes: &[Class], width: usize) -> HashMap<usize, Inspection> {
    let calibrator = Calibrator::new(DecisionModel::default());
    let mut inspections = HashMap::new();
    for &(c, name) in &PRICED {
        let pat = &classes[c].pattern;
        let mut insp = None;
        repeat(5, 20, Duration::from_millis(60), || {
            insp = Some(tracer.time("decide.inspect", name, "", 0, || {
                Inspector::analyze(black_box(pat), width)
            }));
        });
        let insp = insp.expect("at least one inspection ran");
        let input = ModelInput::from_inspection(&insp, false).with_simd(simd_feasible(&insp.chars));
        let domain = DomainKey::of(&insp.chars);
        for _ in 0..200 {
            tracer.time("decide.rank", name, "", 0, || {
                black_box(calibrator.rank(black_box(&input), domain))
            });
        }
        inspections.insert(c, insp);
    }
    inspections
}

fn run_kernel<T: SimdElem, F: Fn(usize, usize) -> T + Sync>(
    scheme: Scheme,
    pat: &AccessPattern,
    body: &F,
    width: usize,
    insp: &Inspection,
    pool: &WorkerPool,
) -> Vec<T> {
    match scheme {
        Scheme::Simd => simd_reduce_on(pat, body, width, pool),
        s => run_scheme_on(s, pat, body, width, Some(insp), pool),
    }
}

/// Kernel prices of one class: ns per reference of every kernel with a
/// static body, and the dynamic-over-static body ratio of `service`, the
/// scheme the service runs the class with.
pub struct KernelPrice {
    pub ns_per_ref: HashMap<Scheme, f64>,
    pub dyn_body_ratio: f64,
}

struct KernelCtx<'a> {
    tracer: &'a mut Tracer,
    name: &'static str,
    pat: &'a AccessPattern,
    insp: &'a Inspection,
    pool: &'a WorkerPool,
    width: usize,
    service: Scheme,
}

impl KernelCtx<'_> {
    fn price<T: SimdElem, F: Fn(usize, usize) -> T + Send + Sync + Clone + 'static>(
        self,
        body: F,
    ) -> KernelPrice {
        let KernelCtx {
            tracer,
            name,
            pat,
            insp,
            pool,
            width,
            service,
        } = self;
        let refs = pat.num_references().max(1) as f64;
        let mut ns_per_ref = HashMap::new();
        for scheme in KERNELS {
            let label = scheme.abbrev();
            run_kernel(scheme, pat, &body, width, insp, pool);
            repeat(5, 25, Duration::from_millis(40), || {
                tracer.time("kernel", name, label, refs as u64, || {
                    black_box(run_kernel(scheme, pat, &body, width, insp, pool))
                });
            });
            let t = median_or_zero(&tracer.net("kernel", Some(name), Some(label)));
            ns_per_ref.insert(scheme, t / refs);
        }
        let dynamic: Arc<dyn Fn(usize, usize) -> T + Send + Sync> = Arc::new(body.clone());
        let label = service.abbrev();
        repeat(5, 20, Duration::from_millis(60), || {
            tracer.time("kernel.static", name, label, 0, || {
                black_box(run_kernel(service, pat, &body, width, insp, pool))
            });
            tracer.time("kernel.dyn", name, label, 0, || {
                black_box(run_kernel(
                    service,
                    pat,
                    &|i, r| dynamic(i, r),
                    width,
                    insp,
                    pool,
                ))
            });
        });
        let d = median_or_zero(&tracer.net("kernel.dyn", Some(name), None));
        let s = median_or_zero(&tracer.net("kernel.static", Some(name), None));
        KernelPrice {
            ns_per_ref,
            dyn_body_ratio: if s > 0.0 { d / s } else { 1.0 },
        }
    }
}

/// Price every kernel on every priced class.  `service` names the scheme
/// the service runs each class with (for the body-dispatch ratio).
pub fn kernels(
    tracer: &mut Tracer,
    classes: &[Class],
    inspections: &HashMap<usize, Inspection>,
    pool: &WorkerPool,
    service: &HashMap<usize, Scheme>,
) -> HashMap<usize, KernelPrice> {
    let mut out = HashMap::new();
    for &(c, name) in &PRICED {
        let class = &classes[c];
        let ctx = KernelCtx {
            tracer: &mut *tracer,
            name,
            pat: &class.pattern,
            insp: &inspections[&c],
            pool,
            width: pool.width(),
            service: service
                .get(&c)
                .copied()
                .filter(|s| KERNELS.contains(s))
                .unwrap_or(Scheme::Seq),
        };
        let price = match class.body {
            WireBody::Sum => ctx.price(|_i, r| contribution_i64(r)),
            WireBody::FSum => ctx.price(|_i, r| contribution(r)),
            WireBody::Usum => ctx.price(|i, _r| contribution_i64(i)),
            other => panic!("no priced class uses the {other:?} body"),
        };
        out.insert(c, price);
    }
    out
}

/// Eight single `mul:k` runs on `sparse` against one fused K=8 sweep, both
/// with `scheme`.
pub fn fused(
    tracer: &mut Tracer,
    classes: &[Class],
    inspections: &HashMap<usize, Inspection>,
    pool: &WorkerPool,
    scheme: Scheme,
) -> f64 {
    let pat = &classes[SPARSE].pattern;
    let insp = &inspections[&SPARSE];
    let width = pool.width();
    let bodies: Vec<Box<dyn Fn(usize, usize) -> i64 + Sync>> = (1..=8i64)
        .map(|k| {
            Box::new(move |_i: usize, r: usize| contribution_i64(r).wrapping_mul(k))
                as Box<dyn Fn(usize, usize) -> i64 + Sync>
        })
        .collect();
    let refs: Vec<FusedBody<'_, i64>> = bodies.iter().map(|b| b.as_ref()).collect();
    let label = scheme.abbrev();
    repeat(5, 20, Duration::from_millis(150), || {
        tracer.time("fused.single", "sparse", label, 8, || {
            for b in &refs {
                black_box(run_scheme_on(
                    scheme,
                    pat,
                    &|i, r| b(i, r),
                    width,
                    Some(insp),
                    pool,
                ));
            }
        });
        tracer.time("fused.fused", "sparse", label, 8, || {
            black_box(run_fused_on(scheme, pat, &refs, width, Some(insp), pool))
        });
    });
    let single = median_or_zero(&tracer.net("fused.single", None, None));
    let fused = median_or_zero(&tracer.net("fused.fused", None, None));
    if fused > 0.0 {
        single / fused
    } else {
        1.0
    }
}

/// The simplify pass on `window`: `recognize` and `run_scan`, in µs.
pub fn simplify(tracer: &mut Tracer, classes: &[Class]) -> (f64, f64) {
    let class = &classes[WINDOW];
    let body = |i: usize, _r: usize| contribution_i64(i);
    let guard = CostGuard::default();
    let mut scanned = Vec::new();
    repeat(10, 50, Duration::from_millis(80), || {
        tracer
            .time("simplify.recognize", "window", "", 0, || {
                black_box(recognize(black_box(&class.pattern), &guard))
            })
            .expect("the window class is a recognizable window");
        scanned = tracer.time("simplify.scan", "window", "", 0, || {
            run_scan::<i64>(black_box(&class.pattern), &body)
        });
    });
    assert!(
        matches!(class.expect, Expect::I64 { sum, .. } if sum == checksum(&scanned)),
        "run_scan of the window class matches its oracle"
    );
    let us = |name| median_or_zero(&tracer.net(name, None, None)) / 1e3;
    (us("simplify.recognize"), us("simplify.scan"))
}

/// An empty SPMD region on the pool, in µs.
pub fn pool_region(tracer: &mut Tracer, pool: &WorkerPool) -> f64 {
    let width = pool.width();
    for _ in 0..500 {
        tracer.time("pool.region", "", "", 0, || {
            smartapps_reductions::SpmdExecutor::spmd(pool, width, &|tid| {
                black_box(tid);
            })
        });
    }
    median_or_zero(&tracer.net("pool.region", None, None)) / 1e3
}

/// Interning the CSRs a client uploads (`window` and `small0..3`) into a
/// fresh interner, in µs per set.
pub fn intern(tracer: &mut Tracer, classes: &[Class]) -> f64 {
    let set: Vec<usize> = std::iter::once(WINDOW).chain(SMALL).collect();
    repeat(10, 40, Duration::from_millis(100), || {
        let interner = PatternInterner::new(16);
        let copies: Vec<AccessPattern> =
            set.iter().map(|&c| (*classes[c].pattern).clone()).collect();
        tracer.time("intern.upload", "", "", set.len() as u64, || {
            for p in copies {
                black_box(interner.intern(p).expect("a fresh interner has room"));
            }
        });
    });
    median_or_zero(&tracer.net("intern.upload", None, None)) / 1e3
}

/// Histogram record (alone and with two threads on one histogram) and
/// trace-ring push, in ns per call.
pub fn telemetry(tracer: &mut Tracer) -> (f64, f64, f64) {
    let h = LogHistogram::new();
    for _ in 0..200 {
        tracer.time("telemetry.record", "", "", BLOCK, || {
            for i in 0..BLOCK {
                h.record(black_box(i * 37));
            }
        });
    }
    let shared = LogHistogram::new();
    let barrier = Barrier::new(2);
    let epoch = tracer.epoch();
    let blocks: Vec<Vec<(u64, u64)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    (0..200)
                        .map(|_| {
                            let start = epoch.elapsed().as_nanos() as u64;
                            for i in 0..BLOCK {
                                shared.record(black_box(i * 37));
                            }
                            (start, epoch.elapsed().as_nanos() as u64)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("recording thread panicked"))
            .collect()
    });
    for (start, end) in blocks.into_iter().flatten() {
        tracer.push(Span {
            id: 0,
            parent: 0,
            name: "telemetry.record_contended",
            class: "",
            scheme: "",
            start,
            end,
            value: BLOCK,
        });
    }
    let ring = TraceRing::new(4096);
    let event = TraceEvent {
        signature: 0x5eed,
        submitted_ns: 1,
        queued_ns: 2,
        decided_ns: 3,
        executed_ns: 4,
        completed_ns: 5,
        scheme: 1,
        backend: TraceBackend::Software,
        error: TraceError::None,
        fused: 1,
        simplify_ns: 0,
    };
    for _ in 0..200 {
        tracer.time("telemetry.trace_push", "", "", BLOCK, || {
            for _ in 0..BLOCK {
                ring.push(black_box(&event));
            }
        });
    }
    let per_call = |name| median_or_zero(&tracer.net(name, None, None)) / BLOCK as f64;
    (
        per_call("telemetry.record"),
        per_call("telemetry.record_contended"),
        per_call("telemetry.trace_push"),
    )
}
