//! A lock-cheap, thread-safe tracer unifying simulated and wall clocks.
//!
//! Every instrumented component — the HAL discrete-event engine, the
//! `dos-sim` scenarios, the crossbeam-threaded hybrid pipeline, the
//! functional trainer — emits [`TraceEvent`]s into one [`Tracer`] handle:
//!
//! * **wall-clock** emitters open scoped [`SpanGuard`]s ([`Tracer::span`])
//!   that time themselves against the tracer's epoch and record on drop,
//!   nesting naturally (a per-thread depth counter tracks parents);
//! * **simulated-clock** emitters replay an already-scheduled timeline via
//!   [`Tracer::record_span`] with explicit start/end seconds.
//!
//! Both land in the same event stream, so one exporter
//! ([`crate::chrome_trace`]) and one analyzer ([`crate::analyze`]) serve
//! both worlds. Each event carries a *track* (a Perfetto thread row: a real
//! thread or a simulator stream) and optionally a *resource* (the hardware
//! unit it occupies: `"gpu"`, `"pcie.h2d"`, ...), which is what the
//! overlap analyzer aggregates by.
//!
//! Internally events are stored in interned form ([`crate::intern`]): four
//! `u32` symbol ids instead of four owned `String`s, so the steady-state
//! record path allocates nothing. Strings are materialized only when a
//! consumer asks ([`Tracer::events`]). A tracer can also carry an always-on
//! [`FlightRecorder`] ring ([`Tracer::with_flight`] /
//! [`Tracer::flight_only`]) that keeps the last N events and dumps them
//! automatically when a `fault:*` or `health:degraded` instant lands.

use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::flight::FlightRecorder;
use crate::intern::{RawEvent, SymbolTable, EMPTY_SYM};
use crate::metrics::MetricsRegistry;
use crate::timeline::Timeline;

/// Track name carrying `phase-begin:`/`phase-end:` boundary instants
/// (emitted by [`Tracer::phase_boundary`], consumed by
/// [`Tracer::phase_boundaries`] and `analyze_with_boundaries`).
pub const PHASE_TRACK: &str = "phases";

/// Track name carrying `control:*` decision instants emitted by the
/// adaptive control plane (`dos-control`): retunes, ladder transitions,
/// resident resizes, and recoveries. Consumed by
/// [`Tracer::control_instants`] and rendered as its own Perfetto row.
pub const CONTROL_TRACK: &str = "control";

/// An explicit phase window, reconstructed from paired
/// `phase-begin:<phase>` / `phase-end:<phase>` instants on the
/// [`PHASE_TRACK`] track.
///
/// Span-derived phase segmentation breaks down once phases interleave (an
/// update-phase prefetch issued during backward drags the update window
/// backwards); emitters that know their true phase edges publish them as
/// boundary instants instead, and the analyzer treats those as
/// authoritative.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseBoundary {
    /// Phase name (`"forward"`, `"update"`, ...).
    pub phase: String,
    /// Authoritative phase start, seconds.
    pub start: f64,
    /// Declared phase end, seconds. Spans may legitimately spill past it
    /// (asynchronous flushes); consumers widen as needed.
    pub end: f64,
}

/// What kind of event a [`TraceEvent`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A duration span (`start..start + dur`).
    Span,
    /// A zero-duration instant marker.
    Instant,
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Track the event belongs to (thread name or simulator stream).
    pub track: String,
    /// Event label, e.g. `"cpu-update:sg3"`.
    pub name: String,
    /// Training phase, e.g. `"update"` (Chrome category).
    pub phase: String,
    /// Hardware resource occupied, or `""` when the event is purely a
    /// track-local annotation.
    pub resource: String,
    /// Start time in seconds (since the tracer epoch for wall-clock spans,
    /// since t=0 for simulated spans).
    pub start: f64,
    /// Duration in seconds (0.0 for instants).
    pub dur: f64,
    /// Abstract work attributed to the span (FLOPs, bytes); 0.0 if unknown.
    pub work: f64,
    /// Nesting depth below the track's root (0 = top-level).
    pub depth: usize,
    /// Span or instant.
    pub kind: EventKind,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    symbols: Arc<SymbolTable>,
    /// Unbounded event store; empty forever in flight-only mode.
    events: Mutex<Vec<RawEvent>>,
    /// False in [`Tracer::flight_only`] mode: only the bounded ring keeps
    /// events, so the tracer can stay attached for the whole life of a
    /// production job.
    store_events: bool,
    flight: Option<FlightRecorder>,
    metrics: MetricsRegistry,
}

thread_local! {
    static THREAD_TRACK: RefCell<Option<String>> = const { RefCell::new(None) };
    static THREAD_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Thread-safe trace recorder. Cloning is cheap and shares storage, so the
/// same tracer can be handed to every worker thread of a pipeline.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// Creates a tracer whose wall-clock epoch (t=0) is "now".
    pub fn new() -> Tracer {
        Tracer::build(true, None)
    }

    /// Creates a tracer that, in addition to the full event store, mirrors
    /// every event into a bounded [`FlightRecorder`] ring of `capacity`
    /// events. The ring shares the tracer's symbol table, so mirroring is
    /// a single `Copy` write.
    pub fn with_flight(capacity: usize) -> Tracer {
        Tracer::build(true, Some(capacity))
    }

    /// Creates an always-on tracer that keeps **only** the bounded flight
    /// ring: [`Tracer::events`] stays empty no matter how long the job
    /// runs, memory is `capacity * sizeof(RawEvent)`, and the last
    /// `capacity` events are available via [`Tracer::flight`] (and dumped
    /// automatically on faults). This is the production-monitoring mode.
    pub fn flight_only(capacity: usize) -> Tracer {
        Tracer::build(false, Some(capacity))
    }

    fn build(store_events: bool, flight_capacity: Option<usize>) -> Tracer {
        let epoch = Instant::now();
        let symbols = Arc::new(SymbolTable::new());
        let flight =
            flight_capacity.map(|cap| FlightRecorder::with_symbols(cap, Arc::clone(&symbols)));
        Tracer {
            inner: Arc::new(Inner {
                epoch,
                symbols,
                events: Mutex::new(Vec::new()),
                store_events,
                flight,
                metrics: MetricsRegistry::with_epoch(epoch),
            }),
        }
    }

    /// The attached flight recorder, when this tracer was built with
    /// [`Tracer::with_flight`] or [`Tracer::flight_only`].
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.inner.flight.as_ref()
    }

    /// Seconds elapsed since the tracer's epoch.
    pub fn now(&self) -> f64 {
        self.inner.epoch.elapsed().as_secs_f64()
    }

    /// Names the *calling thread's* track for subsequent [`Tracer::span`] /
    /// [`Tracer::instant`] calls. The setting is thread-local (it applies to
    /// every tracer used from this thread) and stays until overwritten.
    pub fn set_thread_track(&self, name: &str) {
        THREAD_TRACK.with(|t| *t.borrow_mut() = Some(name.to_string()));
    }

    /// Interns the calling thread's track name. No allocation once the
    /// name has been seen: the thread-local string is looked up by `&str`.
    fn current_track_id(&self) -> u32 {
        THREAD_TRACK.with(|t| match t.borrow().as_deref() {
            Some(name) => self.inner.symbols.intern(name),
            None => self.inner.symbols.intern(std::thread::current().name().unwrap_or("thread")),
        })
    }

    fn intern(&self, name: &str) -> u32 {
        self.inner.symbols.intern(name)
    }

    /// Opens a wall-clock scoped span on the calling thread's track; the
    /// span is recorded when the returned guard drops. Nested guards record
    /// increasing [`TraceEvent::depth`].
    #[must_use = "the span is recorded when the guard drops"]
    pub fn span(&self, name: &str, phase: &str) -> SpanGuard {
        let track = self.current_track_id();
        self.span_ids(track, EMPTY_SYM, self.intern(name), self.intern(phase))
    }

    /// Like [`Tracer::span`], but on an explicit track and attributing the
    /// time to `resource` (empty string for none).
    #[must_use = "the span is recorded when the guard drops"]
    pub fn span_on(&self, track: &str, resource: &str, name: &str, phase: &str) -> SpanGuard {
        self.span_ids(
            self.intern(track),
            self.intern(resource),
            self.intern(name),
            self.intern(phase),
        )
    }

    fn span_ids(&self, track: u32, resource: u32, name: u32, phase: u32) -> SpanGuard {
        let depth = THREAD_DEPTH.with(|d| {
            let cur = d.get();
            d.set(cur + 1);
            cur
        });
        SpanGuard {
            tracer: self.clone(),
            track,
            resource,
            name,
            phase,
            start: self.now(),
            work: 0.0,
            depth,
        }
    }

    /// Records a wall-clock instant event on the calling thread's track.
    pub fn instant(&self, name: &str, phase: &str) {
        let t = self.now();
        let track = self.current_track_id();
        self.push_raw(RawEvent {
            track,
            name: self.intern(name),
            phase: self.intern(phase),
            resource: EMPTY_SYM,
            start: t,
            dur: 0.0,
            work: 0.0,
            depth: THREAD_DEPTH.with(Cell::get) as u32,
            kind: EventKind::Instant,
        });
    }

    /// Records a span with explicit times — the simulated-clock entry
    /// point. `start`/`end` are seconds on the emitter's own clock.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    #[allow(clippy::too_many_arguments)]
    pub fn record_span(
        &self,
        track: &str,
        resource: &str,
        name: &str,
        phase: &str,
        start: f64,
        end: f64,
        work: f64,
    ) {
        assert!(end >= start, "span ends before it starts: [{start}, {end}]");
        self.push_raw(RawEvent {
            track: self.intern(track),
            name: self.intern(name),
            phase: self.intern(phase),
            resource: self.intern(resource),
            start,
            dur: end - start,
            work,
            depth: 0,
            kind: EventKind::Span,
        });
    }

    /// Publishes an explicit phase window as a pair of boundary instants
    /// (`phase-begin:<phase>` at `start`, `phase-end:<phase>` at `end`) on
    /// the [`PHASE_TRACK`] track. Emit one per phase per run; repeated
    /// emissions for the same phase widen the reconstructed window.
    pub fn phase_boundary(&self, phase: &str, start: f64, end: f64) {
        self.instant_at(PHASE_TRACK, &format!("phase-begin:{phase}"), phase, start);
        self.instant_at(PHASE_TRACK, &format!("phase-end:{phase}"), phase, end);
    }

    /// Reconstructs [`PhaseBoundary`] windows from the boundary instants
    /// recorded via [`Tracer::phase_boundary`], ordered by start. Phases
    /// with a begin but no end (or vice versa) are skipped; duplicate
    /// emissions widen the window (earliest begin, latest end).
    pub fn phase_boundaries(&self) -> Vec<PhaseBoundary> {
        let mut begins: Vec<(String, f64)> = Vec::new();
        let mut ends: Vec<(String, f64)> = Vec::new();
        for ev in self.events() {
            if ev.kind != EventKind::Instant || ev.track != PHASE_TRACK {
                continue;
            }
            if let Some(p) = ev.name.strip_prefix("phase-begin:") {
                match begins.iter_mut().find(|(n, _)| n == p) {
                    Some(e) => e.1 = e.1.min(ev.start),
                    None => begins.push((p.to_string(), ev.start)),
                }
            } else if let Some(p) = ev.name.strip_prefix("phase-end:") {
                match ends.iter_mut().find(|(n, _)| n == p) {
                    Some(e) => e.1 = e.1.max(ev.start),
                    None => ends.push((p.to_string(), ev.start)),
                }
            }
        }
        let mut out: Vec<PhaseBoundary> = begins
            .into_iter()
            .filter_map(|(phase, start)| {
                ends.iter().find(|(n, _)| *n == phase).map(|&(_, end)| PhaseBoundary {
                    phase,
                    start,
                    end: end.max(start),
                })
            })
            .collect();
        out.sort_by(|a, b| a.start.total_cmp(&b.start));
        out
    }

    /// Records a control-plane decision instant (`control:<what>`) at an
    /// explicit time on the [`CONTROL_TRACK`] track. `what` names the
    /// decision, e.g. `retune:k=3`, `ladder:dos->residents-only`,
    /// `residents:4`, `recover:k=2`.
    pub fn control_decision(&self, what: &str, at: f64) {
        self.instant_at(CONTROL_TRACK, &format!("control:{what}"), "control", at);
    }

    /// All `control:*` decision instants recorded on the
    /// [`CONTROL_TRACK`] track, ordered by time.
    pub fn control_instants(&self) -> Vec<TraceEvent> {
        self.events()
            .into_iter()
            .filter(|ev| {
                ev.kind == EventKind::Instant
                    && ev.track == CONTROL_TRACK
                    && ev.name.starts_with("control:")
            })
            .collect()
    }

    /// Records an instant event at an explicit time on an explicit track.
    pub fn instant_at(&self, track: &str, name: &str, phase: &str, at: f64) {
        self.push_raw(RawEvent {
            track: self.intern(track),
            name: self.intern(name),
            phase: self.intern(phase),
            resource: EMPTY_SYM,
            start: at,
            dur: 0.0,
            work: 0.0,
            depth: 0,
            kind: EventKind::Instant,
        });
    }

    fn push_raw(&self, ev: RawEvent) {
        if self.inner.store_events {
            self.inner.events.lock().push(ev);
        }
        if let Some(flight) = &self.inner.flight {
            flight.record_raw(ev);
            // Fault and degradation instants trigger an automatic dump so
            // every incident ships its last-N-events context. Instants are
            // rare, so the string resolve here is off the hot path.
            if ev.kind == EventKind::Instant {
                let name = self.inner.symbols.resolve(ev.name);
                if name.starts_with("fault:") || name.starts_with("health:degraded") {
                    flight.dump(&name);
                }
            }
        }
    }

    fn materialize(&self, ev: &RawEvent) -> TraceEvent {
        let sym = &self.inner.symbols;
        TraceEvent {
            track: sym.resolve(ev.track).to_string(),
            name: sym.resolve(ev.name).to_string(),
            phase: sym.resolve(ev.phase).to_string(),
            resource: sym.resolve(ev.resource).to_string(),
            start: ev.start,
            dur: ev.dur,
            work: ev.work,
            depth: ev.depth as usize,
            kind: ev.kind,
        }
    }

    /// The metrics registry sharing this tracer's lifetime.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// A snapshot of all recorded events, sorted by start time.
    pub fn events(&self) -> Vec<TraceEvent> {
        let raw = self.inner.events.lock().clone();
        let mut evs: Vec<TraceEvent> = raw.iter().map(|ev| self.materialize(ev)).collect();
        evs.sort_by(|a, b| a.start.total_cmp(&b.start));
        evs
    }

    /// Events recorded after `mark` (a prior [`Tracer::len`]) that start at
    /// or after `since`, sorted by start. Only that tail is materialized; a
    /// flight-only tracer's bounded ring is searched instead.
    pub fn events_since(&self, mark: usize, since: f64) -> Vec<TraceEvent> {
        let mut evs: Vec<TraceEvent> = match (self.inner.store_events, &self.inner.flight) {
            (false, Some(flight)) => flight.events(),
            _ => {
                let raw = self.inner.events.lock();
                raw.get(mark..).unwrap_or_default().iter().map(|ev| self.materialize(ev)).collect()
            }
        };
        evs.retain(|ev| ev.start >= since);
        evs.sort_by(|a, b| a.start.total_cmp(&b.start));
        evs
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.inner.events.lock().len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.events.lock().is_empty()
    }

    /// Discards all recorded events (metrics are kept).
    pub fn clear(&self) {
        self.inner.events.lock().clear();
    }

    /// Distinct track names in order of first appearance.
    pub fn tracks(&self) -> Vec<String> {
        let evs = self.inner.events.lock();
        let mut ids: Vec<u32> = Vec::new();
        for ev in evs.iter() {
            if !ids.contains(&ev.track) {
                ids.push(ev.track);
            }
        }
        ids.into_iter().map(|id| self.inner.symbols.resolve(id).to_string()).collect()
    }

    /// Converts the span events into a [`Timeline`] for the analyzer and
    /// Gantt renderer. A span's timeline resource is its `resource` field
    /// when set, otherwise its track; instants are skipped.
    pub fn to_timeline(&self) -> Timeline {
        let mut tl = Timeline::new();
        for ev in self.events() {
            if ev.kind != EventKind::Span {
                continue;
            }
            let resource = if ev.resource.is_empty() { &ev.track } else { &ev.resource };
            tl.record(resource, &ev.name, &ev.phase, ev.start, ev.start + ev.dur, ev.work);
        }
        tl
    }
}

/// Guard for a wall-clock scoped span; records the event when dropped.
///
/// Holds only interned symbol ids, so dropping the guard records the span
/// without allocating.
#[derive(Debug)]
pub struct SpanGuard {
    tracer: Tracer,
    track: u32,
    resource: u32,
    name: u32,
    phase: u32,
    start: f64,
    work: f64,
    depth: usize,
}

impl SpanGuard {
    /// Attributes abstract work (FLOPs, bytes) to the span.
    pub fn set_work(&mut self, work: f64) {
        self.work = work;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end = self.tracer.now();
        THREAD_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        self.tracer.push_raw(RawEvent {
            track: self.track,
            name: self.name,
            phase: self.phase,
            resource: self.resource,
            start: self.start,
            dur: (end - self.start).max(0.0),
            work: self.work,
            depth: self.depth as u32,
            kind: EventKind::Span,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_spans_record_on_drop_with_nesting() {
        let tr = Tracer::new();
        tr.set_thread_track("main");
        {
            let _outer = tr.span("outer", "update");
            {
                let _inner = tr.span("inner", "update");
            }
        }
        let evs = tr.events();
        assert_eq!(evs.len(), 2);
        let outer = evs.iter().find(|e| e.name == "outer").unwrap();
        let inner = evs.iter().find(|e| e.name == "inner").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(outer.track, "main");
        assert!(inner.start >= outer.start);
        assert!(inner.start + inner.dur <= outer.start + outer.dur + 1e-9);
    }

    #[test]
    fn explicit_time_spans_carry_sim_clock() {
        let tr = Tracer::new();
        tr.record_span("stream:update", "gpu", "gpu-update:sg0", "update", 1.0, 2.5, 42.0);
        let evs = tr.events();
        assert_eq!(evs[0].start, 1.0);
        assert_eq!(evs[0].dur, 1.5);
        assert_eq!(evs[0].work, 42.0);
        assert_eq!(evs[0].resource, "gpu");
    }

    #[test]
    fn events_since_reads_only_the_tail_after_the_mark() {
        for tr in [Tracer::new(), Tracer::flight_only(16)] {
            tr.record_span("t", "", "old", "p", 0.0, 1.0, 0.0);
            let mark = tr.len();
            // Recorded after the mark but started before `since`: a span
            // that straddles the window's start is not the window's.
            tr.record_span("t", "", "straddle", "p", 1.0, 3.0, 0.0);
            tr.record_span("t", "", "late", "p", 2.5, 3.0, 0.0);
            tr.record_span("t", "", "early", "p", 2.0, 2.5, 0.0);
            let names: Vec<String> =
                tr.events_since(mark, 2.0).into_iter().map(|e| e.name).collect();
            assert_eq!(names, ["early", "late"]);
        }
    }

    #[test]
    #[should_panic(expected = "ends before it starts")]
    fn backwards_span_rejected() {
        Tracer::new().record_span("t", "", "x", "p", 2.0, 1.0, 0.0);
    }

    #[test]
    fn clones_share_events_across_threads() {
        let tr = Tracer::new();
        std::thread::scope(|s| {
            for i in 0..4 {
                let tr = tr.clone();
                s.spawn(move || {
                    tr.set_thread_track(&format!("worker{i}"));
                    let _g = tr.span("job", "update");
                });
            }
        });
        assert_eq!(tr.len(), 4);
        assert_eq!(tr.tracks().len(), 4);
    }

    #[test]
    fn to_timeline_maps_resource_or_track() {
        let tr = Tracer::new();
        tr.record_span("stream", "pcie.h2d", "h2d", "update", 0.0, 1.0, 8.0);
        tr.record_span("cpu", "", "cpu-update", "update", 0.0, 2.0, 0.0);
        tr.instant_at("cpu", "marker", "update", 0.5);
        let tl = tr.to_timeline();
        assert_eq!(tl.spans().len(), 2);
        assert_eq!(tl.for_resource("pcie.h2d").count(), 1);
        assert_eq!(tl.for_resource("cpu").count(), 1);
    }

    #[test]
    fn instants_are_zero_duration() {
        let tr = Tracer::new();
        tr.instant("tick", "forward");
        let evs = tr.events();
        assert_eq!(evs[0].kind, EventKind::Instant);
        assert_eq!(evs[0].dur, 0.0);
    }

    #[test]
    fn phase_boundaries_round_trip_ordered() {
        let tr = Tracer::new();
        tr.phase_boundary("update", 10.0, 14.0);
        tr.phase_boundary("forward", 0.0, 4.0);
        tr.phase_boundary("backward", 4.0, 10.0);
        let bs = tr.phase_boundaries();
        assert_eq!(bs.len(), 3);
        assert_eq!(bs[0], PhaseBoundary { phase: "forward".into(), start: 0.0, end: 4.0 });
        assert_eq!(bs[1].phase, "backward");
        assert_eq!(bs[2], PhaseBoundary { phase: "update".into(), start: 10.0, end: 14.0 });
    }

    #[test]
    fn repeated_boundaries_widen_and_incomplete_pairs_are_skipped() {
        let tr = Tracer::new();
        tr.phase_boundary("update", 5.0, 8.0);
        tr.phase_boundary("update", 4.0, 9.0);
        tr.instant_at(PHASE_TRACK, "phase-begin:orphan", "orphan", 1.0);
        // Unrelated instants on other tracks are ignored.
        tr.instant_at("cpu", "phase-begin:bogus", "update", 0.0);
        let bs = tr.phase_boundaries();
        assert_eq!(bs.len(), 1);
        assert_eq!(bs[0], PhaseBoundary { phase: "update".into(), start: 4.0, end: 9.0 });
    }

    #[test]
    fn control_instants_filter_their_track() {
        let tr = Tracer::new();
        tr.control_decision("retune:k=3", 1.5);
        tr.control_decision("ladder:dos->residents-only", 2.0);
        tr.instant_at("cpu", "control:bogus", "update", 0.5);
        tr.instant_at(CONTROL_TRACK, "unrelated", "control", 0.7);
        let evs = tr.control_instants();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].name, "control:retune:k=3");
        assert_eq!(evs[0].start, 1.5);
        assert_eq!(evs[1].name, "control:ladder:dos->residents-only");
    }

    #[test]
    fn metrics_ride_along() {
        let tr = Tracer::new();
        tr.metrics().inc_counter("spans", 1);
        assert_eq!(tr.clone().metrics().counter("spans"), 1);
    }

    #[test]
    fn with_flight_mirrors_events_into_the_ring() {
        let tr = Tracer::with_flight(8);
        tr.record_span("cpu", "", "update:sg0", "update", 0.0, 1.0, 0.0);
        tr.instant_at("cpu", "tick", "update", 1.5);
        let flight = tr.flight().expect("flight attached");
        assert_eq!(flight.len(), 2);
        assert_eq!(tr.len(), 2, "full store still records");
        let ring = flight.events();
        assert_eq!(ring[0].name, "update:sg0");
        assert_eq!(ring[1].name, "tick");
    }

    #[test]
    fn flight_only_keeps_the_ring_but_not_the_store() {
        let tr = Tracer::flight_only(4);
        for i in 0..10 {
            tr.record_span("cpu", "", &format!("s{i}"), "update", i as f64, i as f64 + 0.5, 0.0);
        }
        assert!(tr.is_empty(), "flight-only mode stores no events");
        assert!(tr.events().is_empty());
        let flight = tr.flight().expect("flight attached");
        assert_eq!(flight.len(), 4);
        assert_eq!(flight.total_recorded(), 10);
        let names: Vec<String> = flight.events().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["s6", "s7", "s8", "s9"], "newest N in order");
    }

    #[test]
    fn fault_instants_trigger_an_automatic_flight_dump() {
        let tr = Tracer::with_flight(16);
        tr.record_span("cpu", "", "update:sg0", "update", 0.0, 1.0, 0.0);
        assert!(tr.flight().and_then(FlightRecorder::last_dump).is_none());
        tr.instant_at("faults", "fault:pcie.h2d", "fault", 1.2);
        let dump = tr.flight().and_then(FlightRecorder::last_dump).expect("auto dump");
        assert_eq!(dump.reason, "fault:pcie.h2d");
        assert!(dump.events.iter().any(|e| e.name == "fault:pcie.h2d"));
        assert!(dump.events.iter().any(|e| e.name == "update:sg0"), "context rides along");
        tr.instant_at("health", "health:degraded", "health", 2.0);
        let dump = tr.flight().and_then(FlightRecorder::last_dump).expect("second dump");
        assert_eq!(dump.reason, "health:degraded");
    }
}
