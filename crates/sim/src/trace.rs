//! Structured event trace: typed device events, the in-memory buffer they
//! land in, and a Chrome-trace (`chrome://tracing` / Perfetto) JSON writer.
//!
//! Tracing is off by default; [`crate::GpuConfig::trace`] turns the buffer
//! on. Every emission site in the device is guarded by a single "is tracing
//! on?" branch, so the disabled path costs one predictable branch and no
//! allocation.

use std::fmt;

use ggpu_isa::FaultKind;

use crate::json::{escape, num, quoted, JsonWriter};

/// Direction of a `cudaMemcpy` transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyDir {
    /// Host to device.
    H2D,
    /// Device to host.
    D2H,
    /// Device to device across the node fabric (peer-to-peer).
    P2P,
}

impl fmt::Display for CopyDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CopyDir::H2D => "h2d",
            CopyDir::D2H => "d2h",
            CopyDir::P2P => "p2p",
        })
    }
}

/// What happened (the event taxonomy; see DESIGN.md §Observability).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventKind {
    /// A grid was enqueued from the host (`<<<>>>`).
    KernelLaunch {
        /// Grid handle (unique per launch).
        grid: u64,
        /// Kernel name.
        kernel: String,
        /// CTAs in the grid.
        ctas: u64,
        /// Threads per CTA.
        threads_per_cta: u32,
        /// Owning stream (0 is the default stream).
        stream: usize,
    },
    /// A device-side (CDP) child launch was enqueued.
    CdpEnqueue {
        /// Child grid handle.
        grid: u64,
        /// Kernel name.
        kernel: String,
        /// Parent grid handle.
        parent: u64,
        /// Nesting depth of the child (parent depth + 1).
        depth: u32,
        /// CTAs in the child grid.
        ctas: u64,
        /// Threads per CTA.
        threads_per_cta: u32,
        /// Owning stream (inherited from the parent grid).
        stream: usize,
    },
    /// A grid dispatched its first CTA (launch overhead elapsed).
    KernelStart {
        /// Grid handle.
        grid: u64,
        /// Owning stream.
        stream: usize,
    },
    /// A grid's last CTA completed.
    KernelRetire {
        /// Grid handle.
        grid: u64,
        /// Owning stream.
        stream: usize,
    },
    /// A CDP child retired and unparked its parent's pending-children count.
    CdpDrain {
        /// Parent grid handle.
        parent: u64,
        /// Child grid handle that drained.
        child: u64,
    },
    /// A `cudaMemcpy`-style PCIe transfer.
    Memcpy {
        /// Transfer direction.
        dir: CopyDir,
        /// Bytes moved.
        bytes: u64,
        /// Modelled PCIe cycles the transfer took.
        cycles: u64,
    },
    /// A guest fault poisoned its owning stream (device-wide on stream 0).
    Fault {
        /// Architectural fault class.
        kind: FaultKind,
        /// Name of the faulting kernel.
        kernel: String,
        /// Stream the fault landed on (0 is device-wide).
        stream: usize,
    },
    /// The forward-progress watchdog fired.
    Deadlock {
        /// Consecutive cycles without forward progress.
        stalled_for: u64,
        /// Stream of the grid that was active when the watchdog fired.
        stream: usize,
    },
}

impl TraceEventKind {
    /// Short machine-readable tag for this event kind.
    pub fn tag(&self) -> &'static str {
        match self {
            TraceEventKind::KernelLaunch { .. } => "kernel_launch",
            TraceEventKind::CdpEnqueue { .. } => "cdp_enqueue",
            TraceEventKind::KernelStart { .. } => "kernel_start",
            TraceEventKind::KernelRetire { .. } => "kernel_retire",
            TraceEventKind::CdpDrain { .. } => "cdp_drain",
            TraceEventKind::Memcpy { .. } => "memcpy",
            TraceEventKind::Fault { .. } => "fault",
            TraceEventKind::Deadlock { .. } => "deadlock",
        }
    }

    /// Whether this event records a terminal device error. Terminal events
    /// bypass the trace-buffer capacity so a truncated trace still ends
    /// with its fault.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            TraceEventKind::Fault { .. } | TraceEventKind::Deadlock { .. }
        )
    }
}

/// One timestamped device event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Device cycle at which the event was recorded.
    pub cycle: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

impl TraceEvent {
    /// Serialize as a standalone JSON object (the structured export form).
    pub fn to_json(&self) -> String {
        JsonWriter::object(|w| {
            w.u64("cycle", self.cycle);
            w.str("event", self.kind.tag());
            match &self.kind {
                TraceEventKind::KernelLaunch {
                    grid,
                    kernel,
                    ctas,
                    threads_per_cta,
                    stream,
                } => {
                    w.u64("grid", *grid)
                        .str("kernel", kernel)
                        .u64("ctas", *ctas)
                        .u64("threads_per_cta", *threads_per_cta as u64)
                        .u64("stream", *stream as u64);
                }
                TraceEventKind::CdpEnqueue {
                    grid,
                    kernel,
                    parent,
                    depth,
                    ctas,
                    threads_per_cta,
                    stream,
                } => {
                    w.u64("grid", *grid)
                        .str("kernel", kernel)
                        .u64("parent", *parent)
                        .u64("depth", *depth as u64)
                        .u64("ctas", *ctas)
                        .u64("threads_per_cta", *threads_per_cta as u64)
                        .u64("stream", *stream as u64);
                }
                TraceEventKind::KernelStart { grid, stream }
                | TraceEventKind::KernelRetire { grid, stream } => {
                    w.u64("grid", *grid).u64("stream", *stream as u64);
                }
                TraceEventKind::CdpDrain { parent, child } => {
                    w.u64("parent", *parent).u64("child", *child);
                }
                TraceEventKind::Memcpy { dir, bytes, cycles } => {
                    w.str("dir", &dir.to_string())
                        .u64("bytes", *bytes)
                        .u64("cycles", *cycles);
                }
                TraceEventKind::Fault {
                    kind,
                    kernel,
                    stream,
                } => {
                    w.str("kind", &kind.to_string())
                        .str("kernel", kernel)
                        .u64("stream", *stream as u64);
                }
                TraceEventKind::Deadlock {
                    stalled_for,
                    stream,
                } => {
                    w.u64("stalled_for", *stalled_for)
                        .u64("stream", *stream as u64);
                }
            }
        })
    }
}

/// The in-memory trace: a capacity-bounded event log.
///
/// When the buffer is full, further events are dropped (and counted) —
/// except terminal fault/deadlock events, which are always retained so a
/// truncated timeline still ends with its fault.
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl TraceBuffer {
    /// Buffer holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        TraceBuffer {
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Events recorded so far, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events dropped on the floor after the buffer filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Take the recorded events, leaving the buffer empty.
    pub fn take(&mut self) -> (Vec<TraceEvent>, u64) {
        (
            std::mem::take(&mut self.events),
            std::mem::take(&mut self.dropped),
        )
    }

    /// Record one event, or count it as dropped when the buffer is full.
    pub fn event(&mut self, ev: TraceEvent) {
        if self.events.len() < self.capacity || ev.kind.is_terminal() {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }
}

/// Scope of a Chrome-trace instant (`ph: "i"`) event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstantScope {
    /// Global: Perfetto draws a full-height line across every track.
    Global,
    /// Thread: a marker on the event's own track only.
    Thread,
}

/// The Chrome-trace (`chrome://tracing` / Perfetto) document builder: the
/// one event serializer, cycle→µs conversion and document envelope every
/// trace in the workspace — single device, node, serving — is written
/// through. Load the result at <https://ui.perfetto.dev>.
#[derive(Debug)]
pub struct ChromeTrace {
    clock_ghz: f64,
    instant_scope: InstantScope,
    events: Vec<String>,
}

impl ChromeTrace {
    /// Empty trace on a `clock_ghz` cycle clock (a non-positive clock is
    /// read as 1 GHz) whose instant events get `instant_scope`.
    pub fn new(clock_ghz: f64, instant_scope: InstantScope) -> Self {
        ChromeTrace {
            clock_ghz: if clock_ghz > 0.0 { clock_ghz } else { 1.0 },
            instant_scope,
            events: Vec::new(),
        }
    }

    /// Convert device cycles to Chrome-trace microseconds.
    pub fn cycles_to_us(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_ghz * 1000.0)
    }

    /// Serialize one event. `ph` is the Chrome phase; `args` values are
    /// already-serialized JSON fragments (numbers as-is, strings through
    /// [`quoted`](crate::json::quoted)).
    #[allow(clippy::too_many_arguments)]
    fn event(
        &mut self,
        name: &str,
        ph: char,
        cycle: u64,
        dur_cycles: Option<u64>,
        pid: usize,
        tid: u64,
        args: &[(&str, String)],
    ) {
        let mut s = format!(
            "{{\"name\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":{},\"tid\":{}",
            escape(name),
            ph,
            num(self.cycles_to_us(cycle)),
            pid,
            tid
        );
        if let Some(d) = dur_cycles {
            s.push_str(&format!(
                ",\"dur\":{}",
                num(self.cycles_to_us(d).max(0.001))
            ));
        }
        if ph == 'i' {
            s.push_str(match self.instant_scope {
                InstantScope::Global => ",\"s\":\"g\"",
                InstantScope::Thread => ",\"s\":\"t\"",
            });
        }
        if !args.is_empty() {
            s.push_str(",\"args\":{");
            for (i, (k, v)) in args.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!("\"{}\":{}", escape(k), v));
            }
            s.push('}');
        }
        s.push('}');
        self.events.push(s);
    }

    /// A complete slice (`ph: "X"`) of `dur_cycles` starting at `cycle`.
    pub fn slice(
        &mut self,
        pid: usize,
        tid: u64,
        name: &str,
        cycle: u64,
        dur_cycles: u64,
        args: &[(&str, String)],
    ) {
        self.event(name, 'X', cycle, Some(dur_cycles), pid, tid, args);
    }

    /// An instant marker (`ph: "i"`) at `cycle`.
    pub fn instant(
        &mut self,
        pid: usize,
        tid: u64,
        name: &str,
        cycle: u64,
        args: &[(&str, String)],
    ) {
        self.event(name, 'i', cycle, None, pid, tid, args);
    }

    /// A counter sample (`ph: "C"`) at `cycle`; each arg is one series.
    pub fn counter(
        &mut self,
        pid: usize,
        tid: u64,
        name: &str,
        cycle: u64,
        args: &[(&str, String)],
    ) {
        self.event(name, 'C', cycle, None, pid, tid, args);
    }

    /// Label process `pid` (metadata event).
    pub fn process_name(&mut self, pid: usize, label: &str) {
        self.event(
            "process_name",
            'M',
            0,
            None,
            pid,
            0,
            &[("name", quoted(label))],
        );
    }

    /// Label track `tid` of process `pid` (metadata event).
    pub fn thread_name(&mut self, pid: usize, tid: u64, label: &str) {
        self.event(
            "thread_name",
            'M',
            0,
            None,
            pid,
            tid,
            &[("name", quoted(label))],
        );
    }

    /// Append one device's event log under process id `pid`.
    ///
    /// Track (tid) layout inside the process: tid 0 is the host (memcpy)
    /// track, tid `1 + depth` holds kernels at CDP nesting `depth`, so
    /// parent and child launches land on adjacent rows. Faults and watchdog
    /// fires are instant events.
    pub fn device_log(&mut self, pid: usize, process_name: &str, events: &[TraceEvent]) {
        self.process_name(pid, process_name);
        self.thread_name(pid, 0, "host (memcpy)");

        // Launch metadata and start cycles, keyed by grid handle.
        struct Open<'a> {
            grid: u64,
            name: &'a str,
            depth: u32,
            ctas: u64,
            threads: u32,
            start: Option<u64>,
            launch_cycle: u64,
            stream: usize,
        }
        let mut open: Vec<Open<'_>> = Vec::new();
        let mut max_depth = 0u32;

        for ev in events {
            match &ev.kind {
                TraceEventKind::KernelLaunch {
                    grid,
                    kernel,
                    ctas,
                    threads_per_cta,
                    stream,
                } => open.push(Open {
                    grid: *grid,
                    name: kernel,
                    depth: 0,
                    ctas: *ctas,
                    threads: *threads_per_cta,
                    start: None,
                    launch_cycle: ev.cycle,
                    stream: *stream,
                }),
                TraceEventKind::CdpEnqueue {
                    grid,
                    kernel,
                    depth,
                    ctas,
                    threads_per_cta,
                    stream,
                    ..
                } => {
                    max_depth = max_depth.max(*depth);
                    open.push(Open {
                        grid: *grid,
                        name: kernel,
                        depth: *depth,
                        ctas: *ctas,
                        threads: *threads_per_cta,
                        start: None,
                        launch_cycle: ev.cycle,
                        stream: *stream,
                    });
                }
                TraceEventKind::KernelStart { grid, .. } => {
                    if let Some(o) = open.iter_mut().find(|o| o.grid == *grid) {
                        o.start = Some(ev.cycle);
                    }
                }
                TraceEventKind::KernelRetire { grid, .. } => {
                    if let Some(i) = open.iter().position(|o| o.grid == *grid) {
                        let o = open.remove(i);
                        let start = o.start.unwrap_or(o.launch_cycle);
                        self.slice(
                            pid,
                            1 + o.depth as u64,
                            &format!("{} #{grid}", o.name),
                            start,
                            ev.cycle.saturating_sub(start),
                            &[
                                ("grid", grid.to_string()),
                                ("ctas", o.ctas.to_string()),
                                ("threads_per_cta", o.threads.to_string()),
                                ("depth", o.depth.to_string()),
                                ("stream", o.stream.to_string()),
                                ("launch_cycle", o.launch_cycle.to_string()),
                                ("retire_cycle", ev.cycle.to_string()),
                            ],
                        );
                    }
                }
                TraceEventKind::CdpDrain { .. } => {}
                TraceEventKind::Memcpy { dir, bytes, cycles } => self.slice(
                    pid,
                    0,
                    &format!("memcpy_{dir}"),
                    ev.cycle,
                    *cycles,
                    &[("bytes", bytes.to_string())],
                ),
                TraceEventKind::Fault {
                    kind,
                    kernel,
                    stream,
                } => self.instant(
                    pid,
                    0,
                    &format!("FAULT: {kind}"),
                    ev.cycle,
                    &[("kernel", quoted(kernel)), ("stream", stream.to_string())],
                ),
                TraceEventKind::Deadlock {
                    stalled_for,
                    stream,
                } => self.instant(
                    pid,
                    0,
                    "DEADLOCK (watchdog)",
                    ev.cycle,
                    &[
                        ("stalled_for", stalled_for.to_string()),
                        ("stream", stream.to_string()),
                    ],
                ),
            }
        }

        // A grid still open at the end of the log (fault/deadlock killed it)
        // renders as an instant so the timeline shows where it got to.
        for o in open {
            self.instant(
                pid,
                1 + o.depth as u64,
                &format!("{} #{} (unfinished)", o.name, o.grid),
                o.start.unwrap_or(o.launch_cycle),
                &[("grid", o.grid.to_string())],
            );
        }

        for depth in 0..=max_depth {
            let origin = if depth == 0 { "host" } else { "CDP" };
            self.thread_name(
                pid,
                1 + depth as u64,
                &format!("kernels depth {depth} ({origin})"),
            );
        }
    }

    /// Finish and return the complete JSON document.
    pub fn finish(self) -> String {
        let mut s = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        s.push_str(&self.events.join(","));
        s.push_str("]}");
        s
    }
}

/// Render one or more `(label, events)` logs as a complete Chrome-trace
/// JSON document (one Perfetto "process" per log, pid = index).
pub fn chrome_trace_json(logs: &[(String, &[TraceEvent])], clock_ghz: f64) -> String {
    let mut t = ChromeTrace::new(clock_ghz, InstantScope::Global);
    for (pid, (label, log)) in logs.iter().enumerate() {
        t.device_log(pid, label, log);
    }
    t.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn ev(cycle: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent { cycle, kind }
    }

    #[test]
    fn buffer_caps_and_keeps_terminal_events() {
        let mut b = TraceBuffer::new(2);
        for i in 0..5 {
            b.event(ev(i, TraceEventKind::KernelStart { grid: i, stream: 0 }));
        }
        b.event(ev(
            9,
            TraceEventKind::Deadlock {
                stalled_for: 100,
                stream: 0,
            },
        ));
        assert_eq!(b.events().len(), 3);
        assert_eq!(b.dropped(), 3);
        assert!(b.events().last().expect("non-empty").kind.is_terminal());
    }

    #[test]
    fn event_json_round_trips() {
        let e = ev(
            77,
            TraceEventKind::CdpEnqueue {
                grid: 3,
                kernel: "child \"k\"".to_string(),
                parent: 1,
                depth: 1,
                ctas: 2,
                threads_per_cta: 32,
                stream: 4,
            },
        );
        let v = Json::parse(&e.to_json()).expect("well-formed");
        assert_eq!(v.get("cycle").and_then(Json::as_u64), Some(77));
        assert_eq!(v.get("event").and_then(Json::as_str), Some("cdp_enqueue"));
        assert_eq!(v.get("kernel").and_then(Json::as_str), Some("child \"k\""));
        assert_eq!(v.get("parent").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("stream").and_then(Json::as_u64), Some(4));
    }

    #[test]
    fn chrome_trace_pairs_launch_and_retire() {
        let log = vec![
            ev(
                0,
                TraceEventKind::KernelLaunch {
                    grid: 1,
                    kernel: "k".to_string(),
                    ctas: 4,
                    threads_per_cta: 64,
                    stream: 0,
                },
            ),
            ev(100, TraceEventKind::KernelStart { grid: 1, stream: 0 }),
            ev(
                150,
                TraceEventKind::Memcpy {
                    dir: CopyDir::H2D,
                    bytes: 64,
                    cycles: 10,
                },
            ),
            ev(900, TraceEventKind::KernelRetire { grid: 1, stream: 0 }),
        ];
        let json = chrome_trace_json(&[("dev".to_string(), log.as_slice())], 1.0);
        let v = Json::parse(&json).expect("well-formed chrome trace");
        let evs = v
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents");
        let kernel = evs
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("k #1"))
            .expect("kernel slice present");
        assert_eq!(kernel.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(kernel.get("ts").and_then(Json::as_f64), Some(0.1));
        assert_eq!(kernel.get("dur").and_then(Json::as_f64), Some(0.8));
        assert!(evs
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("memcpy_h2d")));
    }

    #[test]
    fn chrome_trace_marks_unfinished_grids_and_faults() {
        let log = vec![
            ev(
                0,
                TraceEventKind::KernelLaunch {
                    grid: 1,
                    kernel: "bad".to_string(),
                    ctas: 1,
                    threads_per_cta: 32,
                    stream: 2,
                },
            ),
            ev(10, TraceEventKind::KernelStart { grid: 1, stream: 2 }),
            ev(
                50,
                TraceEventKind::Fault {
                    kind: ggpu_isa::FaultKind::IllegalAddress,
                    kernel: "bad".to_string(),
                    stream: 2,
                },
            ),
        ];
        let json = chrome_trace_json(&[("dev".to_string(), log.as_slice())], 1.5);
        let v = Json::parse(&json).expect("well-formed");
        let evs = v.get("traceEvents").and_then(Json::as_arr).expect("arr");
        assert!(evs.iter().any(|e| {
            e.get("name")
                .and_then(Json::as_str)
                .is_some_and(|n| n.starts_with("FAULT:"))
        }));
        assert!(evs.iter().any(|e| {
            e.get("name")
                .and_then(Json::as_str)
                .is_some_and(|n| n.contains("unfinished"))
        }));
    }
}
