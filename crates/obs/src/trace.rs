//! Per-thread span tracing with Chrome `trace_event` export.
//!
//! Recording is lock-free on the hot path: each thread owns a
//! fixed-capacity ring buffer ([`RING_CAPACITY`] completed spans;
//! oldest dropped on overflow) that is folded into a global collector
//! when the thread exits — scoped pool workers therefore flush
//! automatically — or when [`flush_current_thread`] /
//! [`export_chrome_trace`] runs on the thread.
//!
//! Threads are grouped into *lanes* by name ([`set_thread_lane`]):
//! lanes map to stable Chrome thread ids, so short-lived scoped
//! workers recreated across sequential batches merge into one
//! `chrome://tracing` / Perfetto row instead of leaking a lane per
//! spawn. (Same-named lanes must not overlap in time; the pool spawns
//! satisfy that because batches are sequential.)

use std::cell::RefCell;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::JsonWriter;

/// Completed spans retained per thread; overflow drops the oldest.
pub const RING_CAPACITY: usize = 65_536;

#[derive(Clone, Copy, Debug)]
struct SpanRecord {
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

#[inline]
fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Lane name → stable tid registry. The tid is the registration index.
static LANES: Mutex<Vec<String>> = Mutex::new(Vec::new());

fn lane_tid(name: &str) -> u64 {
    let mut lanes = LANES.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(i) = lanes.iter().position(|l| l == name) {
        i as u64
    } else {
        lanes.push(name.to_string());
        (lanes.len() - 1) as u64
    }
}

struct ThreadBuf {
    tid: u64,
    ring: Vec<SpanRecord>,
    /// Index of the oldest record once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl ThreadBuf {
    fn push(&mut self, rec: SpanRecord) {
        if self.ring.len() < RING_CAPACITY {
            self.ring.push(rec);
        } else {
            self.ring[self.head] = rec;
            self.head = (self.head + 1) % RING_CAPACITY;
            self.dropped += 1;
        }
    }

    fn into_chronological(self) -> (u64, Vec<SpanRecord>, u64) {
        let mut records = self.ring;
        records.rotate_left(self.head);
        (self.tid, records, self.dropped)
    }
}

/// Flushes the thread's ring into the collector at thread exit.
struct BufHolder(RefCell<Option<ThreadBuf>>);

impl Drop for BufHolder {
    fn drop(&mut self) {
        if let Some(buf) = self.0.borrow_mut().take() {
            collect(buf);
        }
    }
}

thread_local! {
    static HOLDER: BufHolder = const { BufHolder(RefCell::new(None)) };
}

struct LaneEvents {
    tid: u64,
    records: Vec<SpanRecord>,
    dropped: u64,
}

static COLLECTED: Mutex<Vec<LaneEvents>> = Mutex::new(Vec::new());

fn collect(buf: ThreadBuf) {
    let (tid, records, dropped) = buf.into_chronological();
    if records.is_empty() && dropped == 0 {
        return;
    }
    let mut all = COLLECTED.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(lane) = all.iter_mut().find(|l| l.tid == tid) {
        lane.records.extend(records);
        lane.dropped += dropped;
    } else {
        all.push(LaneEvents { tid, records, dropped });
    }
}

fn next_anonymous_lane() -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    format!("thread-{}", SEQ.fetch_add(1, Ordering::Relaxed))
}

fn with_buf(f: impl FnOnce(&mut ThreadBuf)) {
    // `try_with` so spans during thread teardown are silently dropped.
    let _ = HOLDER.try_with(|h| {
        let mut slot = h.0.borrow_mut();
        let buf = slot.get_or_insert_with(|| ThreadBuf {
            tid: lane_tid(&next_anonymous_lane()),
            ring: Vec::new(),
            head: 0,
            dropped: 0,
        });
        f(buf);
    });
}

/// Names the calling thread's lane. Threads sharing a name share a
/// Chrome lane (tid). Call before recording spans.
pub fn set_thread_lane(name: &str) {
    let tid = lane_tid(name);
    let _ = HOLDER.try_with(|h| {
        let mut slot = h.0.borrow_mut();
        match slot.as_mut() {
            Some(buf) => buf.tid = tid,
            None => {
                *slot = Some(ThreadBuf { tid, ring: Vec::new(), head: 0, dropped: 0 });
            }
        }
    });
}

/// [`set_thread_lane`] with an indexed name (`"{prefix}-{index}"`).
pub fn set_thread_lane_indexed(prefix: &str, index: usize) {
    set_thread_lane(&format!("{prefix}-{index}"));
}

/// An in-flight span; records on drop. Disarmed (free) when tracing is
/// off at construction.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start_ns: u64,
    armed: bool,
}

/// Opens a span named `name`; the returned guard records the span into
/// the thread's ring when dropped. When tracing is disabled this is a
/// flag load and nothing else.
#[inline]
pub fn span(name: &'static str) -> Span {
    if crate::trace_enabled() {
        Span { name, start_ns: now_ns(), armed: true }
    } else {
        Span { name, start_ns: 0, armed: false }
    }
}

/// Opens a sampled span: records only when tracing is enabled *and*
/// `index` falls on the `PSCP_OBS_SAMPLE` period (every `N`th index,
/// anchored at 0). High-rate call sites — the per-configuration-cycle
/// machine step, the per-scenario pool span — pass a monotonically
/// increasing index so a period of `N` keeps exactly one span in `N`
/// and the rest cost a flag load.
#[inline]
pub fn span_sampled(name: &'static str, index: u64) -> Span {
    if crate::trace_enabled() && index.is_multiple_of(crate::sample_every()) {
        Span { name, start_ns: now_ns(), armed: true }
    } else {
        Span { name, start_ns: 0, armed: false }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.armed {
            let end = now_ns();
            let rec =
                SpanRecord { name: self.name, start_ns: self.start_ns, dur_ns: end - self.start_ns };
            with_buf(|buf| buf.push(rec));
        }
    }
}

/// Opens a span guard: `let _s = obs::span!("compile");`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::span($name)
    };
}

/// Folds the calling thread's ring into the collector now. Threads
/// also flush at exit via TLS destructors, but a `thread::scope` join
/// can complete before those destructors run — a scoped worker whose
/// spans must be visible to the joining thread calls this explicitly
/// before its closure returns.
pub fn flush_current_thread() {
    let _ = HOLDER.try_with(|h| {
        if let Some(buf) = h.0.borrow_mut().take() {
            collect(buf);
        }
    });
}

/// Discards everything collected so far plus the calling thread's
/// ring. Lane tids persist so later traces keep stable lanes.
pub fn clear() {
    let _ = HOLDER.try_with(|h| *h.0.borrow_mut() = None);
    COLLECTED.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
}

/// Number of distinct lanes holding at least one collected span
/// (flushes the calling thread first).
pub fn collected_lane_count() -> usize {
    flush_current_thread();
    COLLECTED.lock().unwrap_or_else(std::sync::PoisonError::into_inner).len()
}

/// Total spans collected across lanes (flushes the calling thread
/// first).
pub fn collected_span_count() -> usize {
    flush_current_thread();
    COLLECTED
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .map(|l| l.records.len())
        .sum()
}

/// Renders everything collected as a Chrome `trace_event` JSON
/// document (object form, `traceEvents` array) that loads in
/// `chrome://tracing` and Perfetto. Spans become `"ph":"X"` complete
/// events; each lane gets a `thread_name` metadata record.
pub fn export_chrome_trace() -> String {
    flush_current_thread();
    let lanes = LANES.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone();
    let all = COLLECTED.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("displayTimeUnit").string("ms");
    w.key("traceEvents").begin_array();
    for lane in all.iter() {
        let name = lanes
            .get(lane.tid as usize)
            .map(String::as_str)
            .unwrap_or("unknown");
        w.begin_object();
        w.key("ph").string("M");
        w.key("name").string("thread_name");
        w.key("pid").u64(1);
        w.key("tid").u64(lane.tid);
        w.key("args").begin_object().key("name").string(name).end_object();
        w.end_object();
        for rec in &lane.records {
            w.begin_object();
            w.key("ph").string("X");
            w.key("name").string(rec.name);
            w.key("cat").string("pscp");
            w.key("pid").u64(1);
            w.key("tid").u64(lane.tid);
            // trace_event timestamps are microseconds (fractions allowed).
            w.key("ts").f64(rec.start_ns as f64 / 1000.0);
            w.key("dur").f64(rec.dur_ns as f64 / 1000.0);
            w.end_object();
        }
        if lane.dropped > 0 {
            // Surface ring overflow in the trace itself.
            w.begin_object();
            w.key("ph").string("I");
            w.key("name").string("spans_dropped");
            w.key("cat").string("pscp");
            w.key("pid").u64(1);
            w.key("tid").u64(lane.tid);
            w.key("ts").f64(0.0);
            w.key("s").string("t");
            w.key("args").begin_object().key("count").u64(lane.dropped).end_object();
            w.end_object();
        }
    }
    w.end_array();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn flag_lock() -> std::sync::MutexGuard<'static, ()> {
        crate::metrics::flag_lock()
    }

    #[test]
    fn disabled_span_records_nothing() {
        let _g = flag_lock();
        let prev = crate::flags();
        crate::set_flags(0);
        clear();
        {
            let _s = span("idle");
        }
        assert_eq!(collected_span_count(), 0);
        crate::set_flags(prev);
    }

    #[test]
    fn sampled_spans_record_every_nth_index() {
        let _g = flag_lock();
        let prev = crate::flags();
        crate::set_flags(crate::TRACE);
        crate::set_sample(3);
        clear();
        set_thread_lane("sampler");
        for i in 0..10u64 {
            let _s = span_sampled("cycle", i);
        }
        flush_current_thread();
        // Indices 0, 3, 6, 9 fall on the period.
        assert_eq!(collected_span_count(), 4);

        // Period 1 records everything again.
        crate::set_sample(1);
        clear();
        set_thread_lane("sampler");
        for i in 0..5u64 {
            let _s = span_sampled("cycle", i);
        }
        flush_current_thread();
        assert_eq!(collected_span_count(), 5);

        // Tracing off beats any period.
        crate::set_flags(0);
        crate::set_sample(1);
        clear();
        {
            let _s = span_sampled("cycle", 0);
        }
        assert_eq!(collected_span_count(), 0);
        crate::set_flags(prev);
    }

    #[test]
    fn spans_from_named_threads_export_as_lanes() {
        let _g = flag_lock();
        let prev = crate::flags();
        crate::set_flags(crate::TRACE);
        clear();
        set_thread_lane("main");
        {
            let _s = crate::span!("outer");
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
        std::thread::scope(|s| {
            for i in 0..2 {
                s.spawn(move || {
                    set_thread_lane_indexed("worker", i);
                    let s = span("job");
                    std::thread::sleep(std::time::Duration::from_micros(50));
                    // The scope join can complete before this thread's
                    // TLS destructors run; flush so the assertion below
                    // sees the lane.
                    drop(s);
                    flush_current_thread();
                });
            }
        });
        assert!(collected_lane_count() >= 3);
        let text = export_chrome_trace();
        let doc = json::parse(&text).expect("trace JSON parses");
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        let lanes = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
            .count();
        assert!(lanes >= 3, "expected >=3 thread_name records, got {lanes}");
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(|n| n.as_str()) == Some("job")));
        // Same-named lanes reuse the tid across scoped spawns.
        let w0 = lane_tid("worker-0");
        assert_eq!(lane_tid("worker-0"), w0);
        clear();
        crate::set_flags(prev);
    }
}
