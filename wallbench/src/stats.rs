//! Order statistics and the benchmark's own span recorder.

use std::time::Instant;

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between
/// order statistics; 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Total length of the union of `[start, end)` intervals.
pub fn union_len(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// One span the benchmark recorded around a public call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the recorder's epoch.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The closed-loop step (iteration) the span belongs to.
    pub iter: u64,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Times every public call the benchmark makes; when tracing, also keeps
/// each one as a [`Span`] in memory until the run ends.
#[derive(Debug)]
pub struct Clock {
    epoch: Instant,
    spans: Option<Vec<Span>>,
}

/// A span in progress.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    start: f64,
    id: Option<usize>,
}

impl Open {
    /// The span's index, for use as a parent (None when not tracing).
    pub fn id(&self) -> Option<usize> {
        self.id
    }
}

impl Clock {
    pub fn new(tracing: bool) -> Clock {
        Clock { epoch: Instant::now(), spans: tracing.then(Vec::new) }
    }

    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    pub fn open(&mut self, name: &'static str, iter: u64, parent: Option<usize>) -> Open {
        let start = self.now();
        let id = self.spans.as_mut().map(|spans| {
            spans.push(Span { name, start, end: start, parent, iter });
            spans.len() - 1
        });
        Open { start, id }
    }

    /// Ends the span and returns its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let end = self.now();
        if let (Some(spans), Some(id)) = (self.spans.as_mut(), open.id) {
            spans[id].end = end;
        }
        end - open.start
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        iter: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let open = self.open(name, iter, parent);
        let out = f();
        (out, self.close(open))
    }

    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// Durations of every recorded span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans().iter().filter(|s| s.name == name).map(Span::dur).collect()
    }

    /// Per-iteration sums of the durations of the spans called any of
    /// `names`, one entry per iteration that has such a span.
    pub fn per_iter_sums(&self, names: &[&str]) -> Vec<f64> {
        let mut sums: std::collections::BTreeMap<u64, f64> = Default::default();
        for s in self.spans().iter().filter(|s| names.contains(&s.name)) {
            *sums.entry(s.iter).or_default() += s.dur();
        }
        sums.into_values().collect()
    }

    /// Self time of span `id`: its duration minus the part of it that its
    /// children (recorded spans naming it as parent, plus `extra`
    /// intervals on the same clock) cover.
    pub fn self_time(&self, id: usize, extra: &[(f64, f64)]) -> f64 {
        let spans = self.spans();
        let me = &spans[id];
        let children = spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start, s.end))
            .chain(extra.iter().copied())
            .map(|(s, e)| (s.max(me.start), e.min(me.end)))
            .filter(|(s, e)| e > s)
            .collect();
        me.dur() - union_len(children)
    }

    /// The recorded spans written out at the end of a run: one line per
    /// span name with its count, median and total duration, and its total
    /// self time.
    pub fn summary(&self) -> Vec<String> {
        let spans = self.spans();
        let mut names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        names
            .into_iter()
            .map(|name| {
                let ids: Vec<usize> = (0..spans.len()).filter(|&i| spans[i].name == name).collect();
                let durs: Vec<f64> = ids.iter().map(|&i| spans[i].dur()).collect();
                let self_s: f64 = ids.iter().map(|&i| self.self_time(i, &[])).sum();
                format!(
                    "span {name}: n={} p50={:.6}s total={:.6}s self={self_s:.6}s",
                    ids.len(),
                    median(&durs),
                    durs.iter().sum::<f64>()
                )
            })
            .collect()
    }
}
