//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! Spans are recorded from the benchmark's own files; nothing inside the
//! program is instrumented. A span's self time is its duration minus the
//! part its children cover.

use crate::metrics::Outcome;
use crate::stats::Hist;
use std::fmt::Write as _;
use std::time::Instant;

/// The layer boundaries the shadow paths cross, in the order the program
/// crosses them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Stage {
    // request path: `http::handle` + `ServiceCore::query`
    Request,
    RequestTarget,
    ParsePredict,
    SwapLoad,
    Derive,
    QueryKey,
    CacheGet,
    Admit,
    TryNew,
    TryPredict,
    FaultTerms,
    CacheInsert,
    ToJson,
    Render,
    // ingest path: `ServiceCore::ingest_tick`
    Tick,
    AdvanceTo,
    Snapshot,
    Publish,
    BumpTo,
    // offline path: `platform2_experiment`
    Series,
    PlatformGenerate,
    NwsAttach,
    Decompose,
    Simulate,
}

const STAGES: usize = Stage::Simulate as usize + 1;

impl Stage {
    pub fn name(self) -> &'static str {
        match self {
            Stage::Request => "request",
            Stage::RequestTarget => "http.request_target",
            Stage::ParsePredict => "http.parse_predict",
            Stage::SwapLoad => "swap.load",
            Stage::Derive => "resilience.derive",
            Stage::QueryKey => "cache.query_key",
            Stage::CacheGet => "cache.get",
            Stage::Admit => "admission.try_admit_miss",
            Stage::TryNew => "predictor.try_new",
            Stage::TryPredict => "predictor.try_predict",
            Stage::FaultTerms => "faultmodel.terms",
            Stage::CacheInsert => "cache.insert",
            Stage::ToJson => "http.to_json",
            Stage::Render => "http.render",
            Stage::Tick => "ingest_tick",
            Stage::AdvanceTo => "nws.advance_to",
            Stage::Snapshot => "nws.snapshot",
            Stage::Publish => "swap.publish",
            Stage::BumpTo => "cache.bump_to",
            Stage::Series => "series",
            Stage::PlatformGenerate => "simgrid.platform_generate",
            Stage::NwsAttach => "nws.attach",
            Stage::Decompose => "scheduler.decompose",
            Stage::Simulate => "sor.distsim_simulate",
        }
    }
}

/// One recorded span. `parent` indexes the same list (`u32::MAX` for a
/// root); spans of one request share `request`.
#[derive(Clone, Copy)]
pub struct Span {
    pub stage: Stage,
    pub parent: u32,
    pub request: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Open {
    stage: Stage,
    index: u32,
    start_ns: u64,
    children_ns: u64,
}

/// Spans kept verbatim for the trace file; every span past the cap still
/// feeds the per-stage histograms.
const KEEP_SPANS: usize = 40_000;

/// One thread's recorder. Disabled, `enter`/`exit` do nothing, so the same
/// shadow path runs traced and untraced.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<Open>,
    request: u32,
    total: Vec<Hist>,
    own: Vec<Hist>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Self {
            on,
            origin,
            spans: Vec::with_capacity(if on { KEEP_SPANS } else { 0 }),
            open: Vec::with_capacity(8),
            request: 0,
            total: vec![Hist::default(); if on { STAGES } else { 0 }],
            own: vec![Hist::default(); if on { STAGES } else { 0 }],
        }
    }

    pub fn enter(&mut self, stage: Stage) {
        if !self.on {
            return;
        }
        let index = if self.spans.len() < KEEP_SPANS {
            let parent = self.open.last().map_or(u32::MAX, |o| o.index);
            self.spans.push(Span {
                stage,
                parent,
                request: self.request,
                start_ns: 0,
                end_ns: 0,
            });
            self.spans.len() as u32 - 1
        } else {
            u32::MAX
        };
        // The clock is read last on entry and first on exit, so the
        // recorder's own work lands in the parent's self time.
        self.open.push(Open {
            stage,
            index,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            children_ns: 0,
        });
    }

    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let Some(open) = self.open.pop() else { return };
        let duration = end_ns - open.start_ns;
        self.total[open.stage as usize].record(duration);
        self.own[open.stage as usize].record(duration.saturating_sub(open.children_ns));
        if let Some(span) = self.spans.get_mut(open.index as usize) {
            span.start_ns = open.start_ns;
            span.end_ns = end_ns;
        }
        match self.open.last_mut() {
            Some(parent) => parent.children_ns += duration,
            None => self.request += 1,
        }
    }

    /// Runs `f` inside a span of `stage`.
    pub fn span<R>(&mut self, stage: Stage, f: impl FnOnce() -> R) -> R {
        self.enter(stage);
        let r = f();
        self.exit();
        r
    }
}

/// The merged view of every thread's spans.
pub struct Profile {
    spans: Vec<Span>,
    total: Vec<Hist>,
    own: Vec<Hist>,
}

impl Profile {
    pub fn merge(tracers: Vec<Tracer>) -> Self {
        let mut p = Profile {
            spans: Vec::new(),
            total: vec![Hist::default(); STAGES],
            own: vec![Hist::default(); STAGES],
        };
        let mut request_base = 0;
        for t in tracers.into_iter().filter(|t| t.on) {
            let span_base = p.spans.len() as u32;
            p.spans.extend(t.spans.iter().map(|s| Span {
                parent: if s.parent == u32::MAX {
                    u32::MAX
                } else {
                    s.parent + span_base
                },
                request: s.request + request_base,
                ..*s
            }));
            request_base += t.request;
            for i in 0..STAGES {
                p.total[i].merge(&t.total[i]);
                p.own[i].merge(&t.own[i]);
            }
        }
        p
    }

    /// Median duration of `stage`, children included, in ns (0 if unseen).
    pub fn total_p50(&self, stage: Stage) -> f64 {
        self.total.get(stage as usize).map_or(0.0, Hist::p50)
    }

    /// Median self time of `stage` in ns (0 if unseen).
    pub fn self_p50(&self, stage: Stage) -> f64 {
        self.own.get(stage as usize).map_or(0.0, Hist::p50)
    }

    pub fn count(&self, stage: Stage) -> u64 {
        self.total.get(stage as usize).map_or(0, Hist::count)
    }

    /// What the shadow path says the median operation costs: the median
    /// self time of every stage below `root`, times how often the stage
    /// runs per `root` span, rounded — twice for a stage both platforms
    /// pass through each tick, not at all for one that a minority of
    /// requests reach (the median request does not pay for it).
    pub fn stage_sum_ns(&self, root: Stage, stages: &[Stage]) -> f64 {
        let roots = self.count(root).max(1) as f64;
        stages
            .iter()
            .filter(|&&s| s != root)
            .map(|&s| self.self_p50(s) * (self.count(s) as f64 / roots).round())
            .sum()
    }

    /// Holds the shadow's summed stage medians against the real path's
    /// median: beyond 25 % apart, the profile is printed as inconsistent.
    pub fn report_consistency(
        &self,
        out: &mut Outcome,
        root: Stage,
        stages: &[Stage],
        real_p50_ns: f64,
    ) {
        let sum = self.stage_sum_ns(root, stages);
        let gap = (sum - real_p50_ns).abs() / real_p50_ns;
        out.put("shadow.stage_sum_us", sum / 1e3);
        out.put("shadow.real_p50_us", real_p50_ns / 1e3);
        out.put("shadow.gap_share", gap);
        println!(
            "profile {}: shadow stage medians sum to {:.3} us, real median {:.3} us, gap {:.1} %",
            if gap <= 0.25 {
                "consistent"
            } else {
                "INCONSISTENT"
            },
            sum / 1e3,
            real_p50_ns / 1e3,
            gap * 100.0
        );
    }

    /// Writes the kept spans to `benchmark/out/trace-<workload>.json`.
    pub fn write(&self, workload: &str) {
        let dir = std::path::Path::new("benchmark/out");
        let path = dir.join(format!("trace-{workload}.json"));
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, self.to_json(workload)))
        {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => println!("trace not written to {}: {e}", path.display()),
        }
    }

    /// One line per stage seen: count, median total, median self.
    pub fn table(&self, stages: &[Stage]) -> String {
        let mut out = String::new();
        for &s in stages.iter().filter(|&&s| self.count(s) > 0) {
            let _ = writeln!(
                out,
                "  span {:<28} n={:<9} total_p50={:>12.3} us  self_p50={:>12.3} us",
                s.name(),
                self.count(s),
                self.total_p50(s) / 1e3,
                self.self_p50(s) / 1e3,
            );
        }
        out
    }

    /// The kept spans as a JSON document: `{"workload":…, "spans":[{name,
    /// start_ns, end_ns, parent, request}, …]}`; `parent` is an index into
    /// `spans` or `null`.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}{}",
                s.stage.name(),
                s.start_ns,
                s.end_ns,
                parent,
                s.request,
                if i + 1 == self.spans.len() { "" } else { "," },
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(true, Instant::now());
        for _ in 0..3 {
            t.enter(Stage::Request);
            t.span(Stage::CacheGet, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span(Stage::Render, || {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
            t.exit();
        }
        let p = Profile::merge(vec![t, Tracer::new(false, Instant::now())]);
        assert_eq!(p.count(Stage::Request), 3);
        assert!(p.total_p50(Stage::Request) >= 3e6);
        // The root did nothing itself: its self time is far below a child's.
        assert!(
            p.self_p50(Stage::Request) < 0.5e6,
            "{}",
            p.self_p50(Stage::Request)
        );
        assert!(p.self_p50(Stage::CacheGet) >= 2e6);
        let sum = p.stage_sum_ns(
            Stage::Request,
            &[Stage::Request, Stage::CacheGet, Stage::Render],
        );
        assert!(sum >= 3e6 && sum <= p.total_p50(Stage::Request) * 1.05);
        assert_eq!(p.spans.len(), 9);
        assert_eq!(p.spans[1].parent, 0);
        assert_eq!(p.spans[4].request, 1);
        assert!(p.to_json("w").contains("\"name\":\"cache.get\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span(Stage::Tick, || 7), 7);
        assert!(t.spans.is_empty() && t.open.is_empty());
    }
}
