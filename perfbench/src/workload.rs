//! The benchmark's inputs: the reduction classes, their oracles, and
//! which classes and wires each workload drives.  Every pattern comes
//! from the repository's own generators, seeded from `--seed`.

use crate::load::Arrival;
use crate::stats::{poisson_arrivals, sub_seed, SplitMix};
use smartapps_server::{checksum, checksum_f64, Payload, WireBody, WireDist, WireSpec};
use smartapps_workloads::{
    contribution_i64, sequential_reduce, sequential_reduce_i64, AccessPattern,
};
use std::sync::Arc;

/// Relative tolerance on f64 checksums.  Parallel schemes sum each
/// element's contributions in another order than the sequential oracle;
/// with at most a few hundred terms per element the rounding difference
/// stays near 1e-13, far inside this bound.
pub const F64_REL_TOL: f64 = 1e-9;

/// Class indices into the list [`classes`] returns.
pub const SMALL: [usize; 4] = [0, 1, 2, 3];
pub const DENSE: usize = 4;
pub const SPICE: usize = 5;
pub const SPARSE: usize = 6;
pub const DENSE_MID: usize = 7;
pub const WINDOW: usize = 8;
/// The `burst` members: `mul:k` bodies over the `sparse` pattern.
pub const BURST: [usize; 8] = [9, 10, 11, 12, 13, 14, 15, 16];

/// The classes priced layer by layer, with the name their per-class
/// metrics carry.  `small` stands for `small0`: the four small classes
/// share one spec and differ only in their pattern seed.
pub const PRICED: [(usize, &str); 6] = [
    (SMALL[0], "small"),
    (DENSE, "dense"),
    (SPICE, "spice"),
    (SPARSE, "sparse"),
    (DENSE_MID, "dense_mid"),
    (WINDOW, "window"),
];

/// The checksum a correct `done` must carry.
#[derive(Debug, Clone, Copy)]
pub enum Expect {
    I64 { len: usize, sum: i64 },
    F64 { len: usize, sum: f64 },
}

impl Expect {
    /// Whether `payload` is this class's result: i64 bit-exact, f64
    /// within [`F64_REL_TOL`].
    pub fn matches(&self, payload: &Payload) -> bool {
        match (*self, payload) {
            (Expect::I64 { len, sum }, Payload::Checksum { len: l, sum: s }) => {
                len == *l && sum == *s
            }
            (Expect::F64 { len, sum }, Payload::ChecksumF64 { len: l, sum: s }) => {
                len == *l && (sum - s).abs() <= F64_REL_TOL * sum.abs().max(1.0)
            }
            _ => false,
        }
    }
}

/// One reduction class: a pattern, the body the server runs over it, and
/// the oracle checksum.
pub struct Class {
    pub name: &'static str,
    pub pattern: Arc<AccessPattern>,
    /// The generator spec, for classes a text connection submits inline.
    pub spec: Option<WireSpec>,
    pub body: WireBody,
    pub expect: Expect,
}

fn spec(elements: usize, iterations: usize, refs: usize, coverage: f64, seed: u64) -> WireSpec {
    WireSpec {
        elements,
        iterations,
        refs_per_iter: refs,
        coverage,
        dist: WireDist::Uniform,
        seed,
    }
}

/// The simplify shape: 4,096 rows of 128-wide contiguous windows at
/// stride 3 over 2,048 elements, starting at a seeded offset.
fn window_pattern(seed: u64) -> AccessPattern {
    let (n, rows, width, stride) = (2048usize, 4096usize, 128usize, 3usize);
    let offset = (SplitMix::new(seed).next_u64() % stride as u64) as usize;
    let iters: Vec<Vec<u32>> = (0..rows)
        .map(|i| {
            let lo = (offset + i * stride) % (n - width + 1);
            (lo as u32..(lo + width) as u32).collect()
        })
        .collect();
    AccessPattern::from_iters(n, &iters)
}

/// Oracle of an i64 body `f(iteration, slot)`: a plain sequential loop.
fn plain_loop_i64(pat: &AccessPattern, f: impl Fn(usize, usize) -> i64) -> Expect {
    let mut w = vec![0i64; pat.num_elements];
    for (i, r, x) in pat.iter_refs() {
        w[x as usize] = w[x as usize].wrapping_add(f(i, r));
    }
    Expect::I64 {
        len: w.len(),
        sum: checksum(&w),
    }
}

/// Every class of the benchmark, generated from one seed.
pub fn classes(seed: u64) -> Vec<Class> {
    let gen = |name: &'static str, spec: WireSpec, body: WireBody| {
        let pattern = spec.to_pattern_spec().generate();
        let expect = match body {
            WireBody::FSum => Expect::F64 {
                len: pattern.num_elements,
                sum: checksum_f64(&sequential_reduce(&pattern)),
            },
            _ => Expect::I64 {
                len: pattern.num_elements,
                sum: checksum(&sequential_reduce_i64(&pattern)),
            },
        };
        Class {
            name,
            pattern: Arc::new(pattern),
            spec: Some(spec),
            body,
            expect,
        }
    };
    let s = |stream: u64| sub_seed(seed, stream);
    // The small classes keep netload's pattern seeds (40..43), so
    // every run sees the same four patterns and the same
    // class-to-queue-shard layout that netload's figures were taken
    // on: tail latency under an unfair queue depends on that layout.
    let mut all: Vec<Class> = ["small0", "small1", "small2", "small3"]
        .into_iter()
        .zip(40..)
        .map(|(name, pattern_seed)| gen(name, spec(512, 600, 2, 0.9, pattern_seed), WireBody::Sum))
        .collect();
    all.push(gen(
        "dense",
        spec(65_536, 200_000, 2, 1.0, s(4)),
        WireBody::FSum,
    ));
    all.push(gen(
        "spice",
        spec(200_000, 600, 28, 0.08, s(5)),
        WireBody::FSum,
    ));
    all.push(gen(
        "sparse",
        spec(400_000, 4_000, 12, 0.004, s(6)),
        WireBody::Sum,
    ));
    all.push(gen(
        "dense_mid",
        spec(4_096, 40_000, 2, 1.0, s(7)),
        WireBody::FSum,
    ));
    let window = window_pattern(s(8));
    all.push(Class {
        name: "window",
        expect: plain_loop_i64(&window, |i, _| contribution_i64(i)),
        pattern: Arc::new(window),
        spec: None,
        body: WireBody::Usum,
    });
    let sparse = all[SPARSE].pattern.clone();
    for k in 1..=BURST.len() as i64 {
        all.push(Class {
            name: "burst",
            expect: plain_loop_i64(&sparse, |_, r| contribution_i64(r).wrapping_mul(k)),
            pattern: sparse.clone(),
            spec: None,
            body: WireBody::Mul(k),
        });
    }
    all
}

/// How a connection speaks to the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// The line protocol with inline generator specs.
    Text,
    /// Binary wire v2 with uploaded CSR handles.
    Binary,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SmallClosed,
    HeavyClosed,
    MixedOpen,
}

/// Closed-loop window of each `small_closed` connection.
pub const SMALL_WINDOW: usize = 16;
/// Closed-loop window of the `heavy_closed` connection.
pub const HEAVY_WINDOW: usize = 2;
/// Offered arrival rate of `mixed_open`, in arrivals per second.  On a
/// 2-vCPU host this mix's backlog grows without bound between 2,400 and
/// 3,000 arrivals/s and its median latency stays flat up to 800/s; the
/// README gives the sweep.
pub const MIXED_RATE: f64 = 400.0;

/// The `mixed_open` draw: arrival weights per class; `BURST[0]` stands
/// for one batch request of all eight `burst` members.  Bursts make about
/// 3% of the jobs, so the mix's p99 falls inside the bulk of the burst
/// latencies; at 7% it sat in their collision tail and moved by a third
/// from run to run.
pub const MIXED_WEIGHTS: [(usize, f64); 8] = [
    (SMALL[0], 0.2215),
    (SMALL[1], 0.2215),
    (SMALL[2], 0.2215),
    (SMALL[3], 0.2215),
    (DENSE_MID, 0.04),
    (SPICE, 0.03),
    (WINDOW, 0.04),
    (BURST[0], 0.004),
];

/// Arrivals per block of the `mixed_open` draw: each block holds every
/// class's exact share of its arrivals, one burst among them.
pub const MIX_BLOCK: usize = 250;

/// The `mixed_open` arrivals of one phase: Poisson instants at
/// [`MIXED_RATE`] over `seconds`, from `start` (ns).  The classes are
/// dealt in blocks of [`MIX_BLOCK`] consecutive arrivals, each block a
/// seeded shuffle of [`mixed_deck`].  How many bursts and heavy jobs a
/// window holds sets its tail as much as their latency does; drawn one
/// by one, the count of bursts alone moved by a sixth from seed to seed.
pub fn mixed_schedule(seed: u64, start: u64, seconds: f64) -> Vec<Arrival> {
    let mut when = SplitMix::new(sub_seed(seed, 100));
    let mut what = SplitMix::new(sub_seed(seed, 200));
    let times = poisson_arrivals(&mut when, MIXED_RATE, seconds);
    let mut classes = Vec::with_capacity(times.len());
    while classes.len() < times.len() {
        let mut deck = mixed_deck(MIX_BLOCK.min(times.len() - classes.len()));
        for i in (1..deck.len()).rev() {
            deck.swap(i, (what.next_u64() % (i as u64 + 1)) as usize);
        }
        classes.extend(deck);
    }
    times
        .into_iter()
        .zip(classes)
        .map(|(t, class)| Arrival {
            due: start + (t * 1e9) as u64,
            class,
        })
        .collect()
}

/// `n` classes in the proportions of [`MIXED_WEIGHTS`]: each class its
/// whole share, and the places left over to the largest remainders.
fn mixed_deck(n: usize) -> Vec<usize> {
    let total: f64 = MIXED_WEIGHTS.iter().map(|(_, w)| w).sum();
    let exact: Vec<f64> = MIXED_WEIGHTS
        .iter()
        .map(|(_, w)| w / total * n as f64)
        .collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut order: Vec<usize> = (0..exact.len()).collect();
    order.sort_by(|&a, &b| (exact[b] - counts[b] as f64).total_cmp(&(exact[a] - counts[a] as f64)));
    let left = n - counts.iter().sum::<usize>();
    for &i in order.iter().take(left) {
        counts[i] += 1;
    }
    MIXED_WEIGHTS
        .iter()
        .zip(counts)
        .flat_map(|(&(c, _), k)| std::iter::repeat_n(c, k))
        .collect()
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "small_closed" => Some(Workload::SmallClosed),
            "heavy_closed" => Some(Workload::HeavyClosed),
            "mixed_open" => Some(Workload::MixedOpen),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallClosed => "small_closed",
            Workload::HeavyClosed => "heavy_closed",
            Workload::MixedOpen => "mixed_open",
        }
    }

    /// The load connections, each with the classes it cycles over.
    pub fn connections(self) -> Vec<(Wire, Vec<usize>)> {
        match self {
            Workload::SmallClosed => {
                vec![(Wire::Text, SMALL.to_vec()), (Wire::Binary, SMALL.to_vec())]
            }
            Workload::HeavyClosed => vec![(Wire::Binary, vec![DENSE, SPICE, SPARSE])],
            Workload::MixedOpen => {
                let mut classes: Vec<usize> = SMALL.to_vec();
                classes.extend([DENSE_MID, SPICE, WINDOW]);
                classes.extend(BURST);
                vec![(Wire::Binary, classes)]
            }
        }
    }

    /// Classes whose per-class client p99 `queue.class_p99_ratio`
    /// compares: the four equal-cost small classes where the workload
    /// runs them, else the workload's own classes.
    pub fn fairness_classes(self) -> Vec<usize> {
        match self {
            Workload::HeavyClosed => vec![DENSE, SPICE, SPARSE],
            _ => SMALL.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_checks_hold_tolerance_and_i64_checks_are_exact() {
        let e = Expect::F64 {
            len: 4,
            sum: 1000.0,
        };
        let ok = Payload::ChecksumF64 {
            len: 4,
            sum: 1000.0 * (1.0 + 1e-12),
        };
        let bad = Payload::ChecksumF64 {
            len: 4,
            sum: 1000.0 * (1.0 + 1e-6),
        };
        assert!(e.matches(&ok));
        assert!(!e.matches(&bad));
        let i = Expect::I64 { len: 2, sum: 7 };
        assert!(i.matches(&Payload::Checksum { len: 2, sum: 7 }));
        assert!(!i.matches(&Payload::Checksum { len: 2, sum: 8 }));
        assert!(!i.matches(&Payload::ChecksumF64 { len: 2, sum: 7.0 }));
    }

    #[test]
    fn mixed_schedule_is_seeded_and_deals_exact_shares_per_block() {
        let a = mixed_schedule(5, 1000, 20.0);
        assert_eq!(a, mixed_schedule(5, 1000, 20.0));
        assert_ne!(a, mixed_schedule(6, 1000, 20.0));
        assert!(a.iter().all(|x| x.due >= 1000));
        let n = a.len();
        assert!(n > 2 * MIX_BLOCK, "{n} arrivals");
        for block in a.chunks(MIX_BLOCK) {
            let total: f64 = MIXED_WEIGHTS.iter().map(|(_, w)| w).sum();
            for (c, w) in MIXED_WEIGHTS {
                let count = block.iter().filter(|x| x.class == c).count() as f64;
                let exact = w / total * block.len() as f64;
                assert!((count - exact).abs() < 1.0, "class {c}: {count} vs {exact}");
            }
        }
        // A whole block holds exactly one burst, and the shuffle moves it.
        let bursts: Vec<usize> = a[..2 * MIX_BLOCK]
            .iter()
            .enumerate()
            .filter(|(_, x)| x.class == BURST[0])
            .map(|(i, _)| i)
            .collect();
        assert_eq!(bursts.len(), 2);
        assert!(bursts[0] < MIX_BLOCK && bursts[1] >= MIX_BLOCK);
        assert_eq!(mixed_deck(7).len(), 7);
    }

    #[test]
    fn window_rows_are_contiguous_and_in_bounds() {
        let p = window_pattern(3);
        assert_eq!(p.num_iterations(), 4096);
        for i in 0..p.num_iterations() {
            let row = p.refs(i);
            assert_eq!(row.len(), 128);
            assert!(row.windows(2).all(|w| w[1] == w[0] + 1));
            assert!((*row.last().unwrap() as usize) < 2048);
        }
    }
}
