//! In-memory span recording for traced runs.
//!
//! A span is a named interval around one call into a layer, with the span
//! that was open when it started as its parent and a `group` id shared by
//! every span of one session, fleet study, report batch or query. Spans
//! are kept per thread in memory and written out once, at the end of the
//! run, as Chrome trace-event JSON (loadable at ui.perfetto.dev). The
//! layer of a span is its name up to the first `.`, so `core.run_until`
//! belongs to `core`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded interval; times are ns since the run's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub group: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording spans on the calling thread, timed from `origin`.
pub fn record_on_this_thread(origin: Instant) {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin,
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        })
    });
}

/// The origin the calling thread records against, if it is recording —
/// for starting another thread's recorder on the same clock.
pub fn origin() -> Option<Instant> {
    REC.with(|r| r.borrow().as_ref().map(|rec| rec.origin))
}

/// Stop recording on the calling thread and hand back what was recorded.
pub fn take() -> Vec<Span> {
    REC.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// An open span; it closes when finished or dropped.
pub struct Guard(Option<usize>);

/// Open a span named `name` in `group` (a no-op when not recording).
pub fn enter(name: &'static str, group: u64) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else {
            return Guard(None);
        };
        let idx = rec.spans.len();
        let now = rec.now_ns();
        let parent = rec.open.last().copied();
        rec.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            group,
        });
        rec.open.push(idx);
        Guard(Some(idx))
    })
}

impl Guard {
    /// Close the span; returns its duration in ns (0 when not recording).
    pub fn finish(mut self) -> u64 {
        self.close()
    }

    fn close(&mut self) -> u64 {
        let Some(idx) = self.0.take() else {
            return 0;
        };
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let Some(rec) = r.as_mut() else {
                return 0;
            };
            let now = rec.now_ns();
            let span = &mut rec.spans[idx];
            span.end_ns = now;
            // Guards close innermost-first; pop this span (and any child
            // left open by an early return) off the stack.
            while let Some(top) = rec.open.pop() {
                if top == idx {
                    break;
                }
            }
            span.dur_ns()
        })
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        self.close();
    }
}

/// Record an already-finished interval under the currently open span —
/// for operations timed from a schedule rather than from a call.
pub fn push(name: &'static str, group: u64, start: Instant, end: Instant) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let at = |t: Instant| t.saturating_duration_since(rec.origin).as_nanos() as u64;
            let parent = rec.open.last().copied();
            let span = Span {
                name,
                start_ns: at(start),
                end_ns: at(end),
                parent,
                group,
            };
            rec.spans.push(span);
        }
    });
}

/// Self time per layer: each span's duration minus the time its direct
/// children cover. Also returns the time covered by root spans.
pub fn self_times(spans: &[Span]) -> (BTreeMap<&'static str, u64>, u64) {
    let mut child_ns = vec![0u64; spans.len()];
    let mut covered = 0u64;
    for s in spans {
        match s.parent {
            Some(p) => child_ns[p] += s.dur_ns(),
            None => covered += s.dur_ns(),
        }
    }
    let mut layers = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        *layers.entry(s.layer()).or_insert(0) += s.dur_ns().saturating_sub(child);
    }
    (layers, covered)
}

/// Write the spans of each `(thread id, thread name, spans)` as Chrome
/// trace-event JSON, at most `cap` spans in all. Returns spans written.
pub fn write_chrome_trace(
    path: &Path,
    threads: &[(u32, &str, &[Span])],
    cap: usize,
) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    write!(w, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    let mut first = true;
    let mut written = 0usize;
    for &(tid, thread_name, spans) in threads {
        if !first {
            write!(w, ",")?;
        }
        first = false;
        write!(
            w,
            "\n{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{thread_name}\"}}}}"
        )?;
        for (i, s) in spans.iter().enumerate() {
            if written == cap {
                break;
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            write!(
                w,
                ",\n{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"group\":{}}}}}",
                s.name,
                s.layer(),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.group,
            )?;
            written += 1;
        }
    }
    writeln!(w, "\n]}}")?;
    w.flush()?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_parents_and_self_times() {
        record_on_this_thread(Instant::now());
        {
            let outer = enter("core.run", 7);
            {
                let _inner = enter("abr.choose", 7);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            outer.finish();
        }
        let _after = enter("study.merge", 8);
        drop(_after);
        let spans = take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        let (layers, covered) = self_times(&spans);
        assert!(layers["abr"] >= 2_000_000);
        assert!(layers["core"] < layers["abr"]);
        assert_eq!(covered, spans[0].dur_ns() + spans[2].dur_ns());
        // Not recording: guards are inert.
        assert_eq!(enter("core.run", 1).finish(), 0);
    }
}
