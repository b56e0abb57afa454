//! In-memory span recorder and the application decorator.
//!
//! Spans are recorded only from this crate, around calls into each
//! layer's public entry points; nothing inside the program is
//! instrumented. Each span has a name, a start, an end and the span that
//! was open when it began. They stay in memory until the run ends and
//! are then written as one JSON file.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

use ix_core::libix::{ConnCtx, LibixCtx, LibixHandler};
use ix_tcp::DeadReason;
use ix_testkit::Bytes;

/// "No parent" marker in [`Span::parent`].
pub const ROOT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `tcp.input`.
    pub name: &'static str,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Host nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Operations the span covered (frames in a batch, calls in a burst).
    pub ops: u32,
}

/// Totals of every span with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    /// Number of spans.
    pub spans: u64,
    /// Sum of `ops`.
    pub ops: u64,
    /// Sum of durations, ns.
    pub ns: u64,
    /// Sum of durations minus the part covered by child spans, ns.
    pub self_ns: u64,
}

/// The span store. Single-threaded, like everything it measures.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    enabled: bool,
}

/// Shared handle: the benchmark loop and the decorators all record into
/// one store so that parents resolve across them.
pub type Rec = Rc<RefCell<Recorder>>;

impl Recorder {
    /// An empty recorder whose clock starts now. It records nothing until
    /// [`Recorder::enable`]d, so set-up and drain leave no spans.
    pub fn new() -> Rec {
        Rc::new(RefCell::new(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled: false,
        }))
    }

    /// Starts or stops recording. Only between spans.
    pub fn enable(&mut self, on: bool) {
        assert!(self.open.is_empty(), "no span is open across an enable");
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under whichever span is currently open. Returns
    /// [`ROOT`], to be handed back to [`Recorder::end`], when disabled.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            ops: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: u32, ops: u32) {
        if id == ROOT {
            return;
        }
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let s = &mut self.spans[id as usize];
        s.end_ns = end_ns;
        s.ops = ops;
    }

    /// All spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals for `name`. Self time is the duration minus what child
    /// spans cover.
    pub fn total(&self, name: &str) -> Total {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut t = Total::default();
        for (s, child) in self.spans.iter().zip(child_ns) {
            if s.name == name {
                let dur = s.end_ns - s.start_ns;
                t.spans += 1;
                t.ops += u64::from(s.ops);
                t.ns += dur;
                t.self_ns += dur.saturating_sub(child);
            }
        }
        t
    }

    /// Durations of every span called `name`, ns.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Writes the spans as JSON: a name table and one
    /// `[name, start_ns, end_ns, parent, ops]` row per span (`parent` is
    /// a row index, -1 at the root).
    pub fn write_json(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"clock\":\"host_ns\",\
             \"row\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"ops\"],\
             \"names\":[{}],\n\"spans\":[",
            quoted.join(",")
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let n = names
                .iter()
                .position(|n| *n == s.name)
                .expect("interned above");
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            let sep = if i == 0 { "\n" } else { ",\n" };
            write!(
                out,
                "{sep}[{n},{},{},{parent},{}]",
                s.start_ns, s.end_ns, s.ops
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

/// What the decorators saw, for the traced run's correctness check.
#[derive(Debug, Default)]
pub struct Tally {
    /// Payload bytes delivered to `on_data`.
    pub bytes_in: Cell<u64>,
    /// Of those, bytes that were not zero (echo payloads are zero-filled).
    pub nonzero_in: Cell<u64>,
    /// Connections that reported failure or died.
    pub conn_failures: Cell<u64>,
}

/// A [`LibixHandler`] that records one span per callback of the handler
/// it wraps and tallies what passed through. Forwarding is verbatim, so
/// the wrapped application behaves — and schedules — exactly as bare.
pub struct Traced<H> {
    inner: H,
    rec: Rec,
    name: &'static str,
    tally: Rc<Tally>,
    check_zero: bool,
}

impl<H> Traced<H> {
    /// Wraps `inner`; spans are called `name`.
    pub fn new(
        inner: H,
        rec: Rec,
        name: &'static str,
        tally: Rc<Tally>,
        check_zero: bool,
    ) -> Traced<H> {
        Traced {
            inner,
            rec,
            name,
            tally,
            check_zero,
        }
    }

    fn span<R>(&mut self, ops: u32, f: impl FnOnce(&mut H) -> R) -> R {
        let id = self.rec.borrow_mut().begin(self.name);
        let r = f(&mut self.inner);
        self.rec.borrow_mut().end(id, ops);
        r
    }
}

impl<H: LibixHandler> LibixHandler for Traced<H> {
    fn on_accept(&mut self, ctx: &mut ConnCtx<'_>) {
        self.span(0, |h| h.on_accept(ctx));
    }

    fn on_connected(&mut self, ctx: &mut ConnCtx<'_>, ok: bool) {
        if !ok {
            self.tally
                .conn_failures
                .set(self.tally.conn_failures.get() + 1);
        }
        self.span(0, |h| h.on_connected(ctx, ok));
    }

    fn on_data(&mut self, ctx: &mut ConnCtx<'_>, data: &Bytes) {
        self.span(1, |h| h.on_data(ctx, data));
        // Checked outside the span so the check is not billed to the app.
        self.tally
            .bytes_in
            .set(self.tally.bytes_in.get() + data.len() as u64);
        if self.check_zero {
            let bad = data.iter().filter(|b| **b != 0).count() as u64;
            self.tally.nonzero_in.set(self.tally.nonzero_in.get() + bad);
        }
    }

    fn on_sent(&mut self, ctx: &mut ConnCtx<'_>) {
        self.span(0, |h| h.on_sent(ctx));
    }

    fn on_dead(&mut self, ctx: &mut ConnCtx<'_>, reason: DeadReason) {
        self.span(0, |h| h.on_dead(ctx, reason));
    }

    fn on_tick(&mut self, ctx: &mut LibixCtx<'_>) {
        self.span(0, |h| h.on_tick(ctx));
    }

    fn wants_tick(&self, now_ns: u64) -> bool {
        self.inner.wants_tick(now_ns)
    }

    fn next_deadline_ns(&self) -> Option<u64> {
        self.inner.next_deadline_ns()
    }
}
