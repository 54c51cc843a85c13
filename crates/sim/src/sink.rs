//! Streaming trace consumption: the sink side of the sim→check pipeline.
//!
//! The offline flow materializes a full trace (3M events at the 1M
//! tier) and only then checks it — the harness's own avoidable latency
//! floor. The streaming flow hands each sealed [`SEAL_CAP`]-event
//! segment to a [`SegmentSink`] the moment it seals, and the trace
//! *recycles* the segment: the events leave memory, but their
//! contribution to [`Trace::digest`] is folded into a running FNV-1a
//! state first, so the digest of a recycled trace is bit-identical to
//! the digest of a fully retained one. Peak memory becomes
//! O(undrained segments), not O(trace).
//!
//! Determinism contract: sinks observe segments in seal order, which is
//! append order, which the simulator guarantees is a pure function of
//! the seed. A sink must not feed anything back into the simulation;
//! it is a consumer, never an oracle.
//!
//! [`SEAL_CAP`]: crate::SEAL_CAP
//! [`Trace::digest`]: crate::Trace::digest

#![deny(unsafe_code)]

use crate::trace::TraceEvent;

/// Consumes sealed trace segments as the simulation produces them.
///
/// Implementors receive every recorded event exactly once, in record
/// order, in slices of exactly [`crate::SEAL_CAP`] events (only a final
/// explicit flush may be shorter — see `Trace::drain_all` in the trace
/// module). The slice is borrowed: a sink that needs the events beyond
/// the call must copy them (or forward them into a channel).
pub trait SegmentSink<M> {
    /// Accept one sealed segment, in record order.
    fn consume(&mut self, events: &[TraceEvent<M>]);
}

/// A sink that counts what passed through and otherwise drops it: the
/// cheapest way to recycle memory, and the accounting used by the
/// peak-segments-resident measurements.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Segments consumed.
    pub segments: usize,
    /// Events consumed.
    pub events: usize,
}

impl<M> SegmentSink<M> for CountingSink {
    fn consume(&mut self, events: &[TraceEvent<M>]) {
        self.segments += 1;
        self.events += events.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ProcessId;

    #[test]
    fn counting_sink_counts() {
        let mut s = CountingSink::default();
        let seg: Vec<TraceEvent<u32>> = (0..4)
            .map(|i| TraceEvent::Step {
                at: i,
                pid: ProcessId(0),
            })
            .collect();
        SegmentSink::<u32>::consume(&mut s, &seg);
        SegmentSink::<u32>::consume(&mut s, &seg[..2]);
        assert_eq!(s.segments, 2);
        assert_eq!(s.events, 6);
    }
}
