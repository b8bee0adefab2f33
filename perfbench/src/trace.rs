//! In-memory spans, recorded by the benchmark around the calls it makes
//! into each layer, and written out once the run ends.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval.  `parent` is `0` for a root span; the spans of one
/// job share the job span's id as their parent.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    /// The class the span worked on, or `""`.
    pub class: &'static str,
    /// The scheme the span ran, or `""`.
    pub scheme: &'static str,
    pub start: u64,
    pub end: u64,
    /// A number attached to the span: the server's execution time for a
    /// job span, the work items a replay span covered.
    pub value: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
    /// Median cost of an empty span, subtracted from every replay span.
    timer_ns: f64,
}

impl Tracer {
    pub fn new() -> Tracer {
        let mut t = Tracer {
            epoch: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
            timer_ns: 0.0,
        };
        let mut empty: Vec<f64> = (0..2001)
            .map(|_| {
                t.time("", "", "", 0, || ());
                t.spans.pop().map_or(0.0, |s| s.duration() as f64)
            })
            .collect();
        empty.sort_by(f64::total_cmp);
        t.timer_ns = empty[empty.len() / 2];
        t
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn next_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// Record an interval timed elsewhere; returns the id it was given.
    pub fn push(&mut self, mut span: Span) -> u64 {
        span.id = self.next_id();
        self.spans.push(span);
        span.id
    }

    /// Attach `value` to the span recorded last.
    pub fn set_last_value(&mut self, value: u64) {
        if let Some(s) = self.spans.last_mut() {
            s.value = value;
        }
    }

    /// Run `f` inside a root span; its value is `value`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        class: &'static str,
        scheme: &'static str,
        value: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.push(Span {
            id: 0,
            parent: 0,
            name,
            class,
            scheme,
            start,
            end,
            value,
        });
        out
    }

    /// Spans matching `name`, and `class`/`scheme` where those are given.
    pub fn spans<'a>(
        &'a self,
        name: &'static str,
        class: Option<&'static str>,
        scheme: Option<&'static str>,
    ) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| {
            s.name == name
                && class.is_none_or(|c| s.class == c)
                && scheme.is_none_or(|c| s.scheme == c)
        })
    }

    /// Durations of the matching replay spans, net of the timer's own
    /// cost, in ns.
    pub fn net(
        &self,
        name: &'static str,
        class: Option<&'static str>,
        scheme: Option<&'static str>,
    ) -> Vec<f64> {
        self.spans(name, class, scheme)
            .map(|s| (s.duration() as f64 - self.timer_ns).max(0.0))
            .collect()
    }

    /// Write every span as one tab-separated line.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "id\tparent\tname\tclass\tscheme\tstart_ns\tend_ns\tvalue"
        )?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.class, s.scheme, s.start, s.end, s.value
            )?;
        }
        out.flush()
    }
}
