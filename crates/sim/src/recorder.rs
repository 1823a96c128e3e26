//! The device's one recorder: the event log, the kernel records and the
//! interval samples, behind one switch and one retention rule ([`Log`]).
//!
//! Records and samples are the same primitive — a [`RunStats`] delta taken
//! at an event (a grid retire, a window close) against the snapshot at the
//! previous one — so the recorder owns both delta bases. The device calls
//! it at its reset points (stats reset, fault reset, profile take), at each
//! grid retire and at each window boundary; nothing else in the device
//! keeps observability state.

use crate::profile::{IntervalSample, KernelRecord, ProfileReport};
use crate::stats::RunStats;
use crate::trace::TraceEvent;

/// A bounded log with one retention rule: it keeps the first `cap` entries
/// and counts the rest as dropped, except that an entry pushed as terminal
/// (a fault, a watchdog fire) is always kept, so a truncated log still ends
/// with what ended the run.
#[derive(Debug, Clone)]
pub(crate) struct Log<T> {
    entries: Vec<T>,
    cap: usize,
    dropped: u64,
}

impl<T> Log<T> {
    /// An empty log keeping at most `cap` non-terminal entries.
    pub(crate) fn new(cap: usize) -> Self {
        Log {
            entries: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    /// Append `entry`, or count it as dropped when the log is full and
    /// the entry is not `terminal`.
    pub(crate) fn push(&mut self, entry: T, terminal: bool) {
        if self.entries.len() < self.cap || terminal {
            self.entries.push(entry);
        } else {
            self.dropped += 1;
        }
    }

    /// Entries kept so far, in push order.
    pub(crate) fn entries(&self) -> &[T] {
        &self.entries
    }

    /// Take the entries and the drop count, leaving the log empty.
    pub(crate) fn take(&mut self) -> (Vec<T>, u64) {
        (
            std::mem::take(&mut self.entries),
            std::mem::take(&mut self.dropped),
        )
    }
}

/// Trace capacity in events (terminal fault/deadlock events are kept past
/// it).
const EVENT_CAP: usize = 1 << 20;

/// Interval-sample capacity.
const SAMPLE_CAP: usize = 4096;

/// What the device has recorded since the last reset. Present iff any of
/// [`crate::GpuConfig::trace`], sampling or attribution is on; events are
/// appended only under `trace` (the device guards each emission site),
/// kernel records whenever the recorder exists.
#[derive(Debug)]
pub(crate) struct Recorder {
    events: Log<TraceEvent>,
    records: Vec<KernelRecord>,
    samples: Log<IntervalSample>,
    /// Counters at the last retire boundary: the base of the next record.
    record_base: RunStats,
    /// Counters and cycle at the last window boundary: the base of the
    /// next sample.
    window_base: RunStats,
    window_start: u64,
}

impl Recorder {
    pub(crate) fn new() -> Self {
        Recorder {
            events: Log::new(EVENT_CAP),
            records: Vec::new(),
            samples: Log::new(SAMPLE_CAP),
            record_base: RunStats::default(),
            window_base: RunStats::default(),
            window_start: 0,
        }
    }

    pub(crate) fn events(&self) -> &Log<TraceEvent> {
        &self.events
    }

    pub(crate) fn records(&self) -> &[KernelRecord] {
        &self.records
    }

    /// Append `event`; fault and deadlock events are terminal.
    pub(crate) fn event(&mut self, event: TraceEvent) {
        let terminal = event.kind.is_terminal();
        self.events.push(event, terminal);
    }

    /// Forget everything; counters restart from zero at cycle `now`.
    pub(crate) fn reset(&mut self, now: u64) {
        *self = Recorder {
            window_start: now,
            ..Recorder::new()
        };
    }

    /// Scope the span up to `now` out of the next record (a killed or
    /// reset stream's counters belong to no kernel).
    pub(crate) fn rebase(&mut self, now: RunStats) {
        self.record_base = now;
    }

    /// Keep `record`, whose `stats` holds the counters at its retire, as
    /// the delta since the previous retire boundary. Retire intervals
    /// partition the run, so record deltas telescope to the run totals.
    pub(crate) fn retire(&mut self, mut record: KernelRecord) {
        let delta = record.stats.delta_since(&self.record_base);
        self.record_base = std::mem::replace(&mut record.stats, delta);
        self.records.push(record);
    }

    /// Close the window `[window_start, cycle)` against the counters `now`
    /// (no-op when no cycle elapsed since the last boundary).
    pub(crate) fn close_window(&mut self, cycle: u64, now: RunStats) {
        if cycle <= self.window_start {
            return;
        }
        let stats = now.delta_since(&self.window_base);
        self.samples.push(
            IntervalSample {
                start_cycle: self.window_start,
                end_cycle: cycle,
                stats,
            },
            false,
        );
        self.window_base = now;
        self.window_start = cycle;
    }

    /// Move everything recorded into `report`, whose `stats` become the
    /// base of the next record.
    pub(crate) fn take_into(&mut self, report: &mut ProfileReport) {
        report.kernels = std::mem::take(&mut self.records);
        (report.samples, report.samples_dropped) = self.samples.take();
        (report.events, report.events_dropped) = self.events.take();
        self.record_base = report.stats.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_keeps_first_entries_counts_the_rest_and_keeps_terminal_ones() {
        let mut log = Log::new(2);
        for i in 0..5 {
            log.push(i, false);
        }
        log.push(99, true);
        log.push(6, false);
        assert_eq!(log.entries(), &[0, 1, 99]);
        assert_eq!(log.take(), (vec![0, 1, 99], 4));
        assert_eq!(log.take(), (vec![], 0));
    }

    #[test]
    fn windows_close_and_telescope() {
        let mut r = Recorder::new();
        let mut snap = RunStats::default();
        snap.sm.issued = 40;
        r.close_window(100, snap.clone());
        snap.sm.issued = 90;
        r.close_window(200, snap.clone());
        // Same boundary again: no empty duplicate.
        r.close_window(200, snap.clone());
        let s = r.samples.entries();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].stats.sm.issued, 40);
        assert_eq!(s[1].stats.sm.issued, 50);
        assert_eq!(s[1].cycles(), 100);
        let total: u64 = s.iter().map(|x| x.stats.sm.issued).sum();
        assert_eq!(total, snap.sm.issued);
    }
}
