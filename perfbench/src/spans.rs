//! In-memory span recorder for the traced mode.
//!
//! A span wraps one call into a layer's public API: it has a name, a
//! start and end on a process-wide monotonic clock, the span that was
//! open around it (its parent) and the id of the job it belongs to.
//! Spans are only recorded while the recorder is on, so the untraced
//! mode pays one thread-local flag test per call. Everything runs on the
//! thread that drives the benchmark; the campaign's worker threads are
//! inside one `campaign.run` span.

use std::cell::RefCell;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub job: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    on: bool,
    epoch: Instant,
    open: Vec<usize>,
    spans: Vec<Span>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        epoch: Instant::now(),
        open: Vec::new(),
        spans: Vec::new(),
    });
}

/// Turns recording on or off for the calling thread.
pub fn set_enabled(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

/// Runs `f` inside a span named `name` for job `job` and returns its
/// result with its wall duration (measured whether or not spans are on).
pub fn timed<T>(name: &'static str, job: u64, f: impl FnOnce() -> T) -> (T, Duration) {
    let open = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let id = r.spans.len();
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        let parent = r.open.last().copied();
        r.spans.push(Span {
            name,
            job,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        r.open.push(id);
        Some(id)
    });
    let t0 = Instant::now();
    let out = f();
    let dur = t0.elapsed();
    if let Some(id) = open {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let end = r.epoch.elapsed().as_nanos() as u64;
            r.spans[id].end_ns = end;
            r.open.pop();
        });
    }
    (out, dur)
}

/// [`timed`] without the duration.
pub fn span<T>(name: &'static str, job: u64, f: impl FnOnce() -> T) -> T {
    timed(name, job, f).0
}

/// Takes every span recorded so far.
pub fn take() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Self time of each span: its duration minus the part its children
/// cover. Children run nested on the same thread, so the covered part is
/// the sum of their durations.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Renders the spans as JSON lines, one span per line.
pub fn render_jsonl(spans: &[Span]) -> String {
    let selfs = self_ns(spans);
    let mut out = String::new();
    for (i, (s, own)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"job\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}\n",
            s.name, s.job, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        set_enabled(true);
        let _ = take();
        span("outer", 1, || {
            span("inner", 1, || std::thread::sleep(Duration::from_millis(5)));
            std::thread::sleep(Duration::from_millis(2));
        });
        set_enabled(false);
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let own = self_ns(&spans);
        assert_eq!(own[0] + own[1], spans[0].dur_ns());
        assert!(own[1] >= 5_000_000 && own[0] >= 2_000_000);
    }

    #[test]
    fn nothing_is_recorded_when_off() {
        set_enabled(false);
        let _ = take();
        let (v, d) = timed("x", 0, || 7);
        assert_eq!(v, 7);
        assert!(d.as_nanos() < 1_000_000_000);
        assert!(take().is_empty());
    }
}
