//! Benchmark-owned instruments that sit at layer boundaries without
//! touching program code: a timing wrapper around any scheduler, a probe
//! that counts engine heartbeats and per-hop packet events, and the
//! output digest.

use std::time::Instant;

use pdd::sched::{Packet, ReconfigureError, Scheduler, Sdp};
use pdd::simcore::Time;
use pdd::telemetry::{PacketId, Probe};

/// Times every `enqueue` and `dequeue` of the wrapped scheduler and counts
/// decisions (dequeues that return a packet). Every other call forwards
/// unchanged, so the wrapped run makes the same decisions.
#[derive(Debug)]
pub struct Timed<S> {
    inner: S,
    pub ns: u64,
    pub decisions: u64,
}

impl<S> Timed<S> {
    pub fn new(inner: S) -> Timed<S> {
        Timed {
            inner,
            ns: 0,
            decisions: 0,
        }
    }
}

impl<S: Scheduler> Scheduler for Timed<S> {
    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn enqueue(&mut self, pkt: Packet) {
        let t = Instant::now();
        self.inner.enqueue(pkt);
        self.ns += t.elapsed().as_nanos() as u64;
    }

    fn dequeue(&mut self, now: Time) -> Option<Packet> {
        let t = Instant::now();
        let out = self.inner.dequeue(now);
        self.ns += t.elapsed().as_nanos() as u64;
        self.decisions += u64::from(out.is_some());
        out
    }

    fn backlog_packets(&self, class: usize) -> usize {
        self.inner.backlog_packets(class)
    }

    fn backlog_bytes(&self, class: usize) -> u64 {
        self.inner.backlog_bytes(class)
    }

    fn total_backlog_packets(&self) -> usize {
        self.inner.total_backlog_packets()
    }

    fn total_backlog_bytes(&self) -> u64 {
        self.inner.total_backlog_bytes()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn drop_newest(&mut self, class: usize) -> Option<Packet> {
        self.inner.drop_newest(class)
    }

    fn decision_values(&self, now: Time, out: &mut Vec<(usize, f64)>) {
        self.inner.decision_values(now, out)
    }

    fn reconfigure(&mut self, sdp: &Sdp) -> Result<(), ReconfigureError> {
        self.inner.reconfigure(sdp)
    }

    fn set_link_rate(&mut self, rate: f64) {
        self.inner.set_link_rate(rate)
    }
}

/// Counts the multi-hop engine's heartbeats (events handled, event-queue
/// depth) and its per-hop arrivals and departures.
#[derive(Debug, Default)]
pub struct EngineProbe {
    /// Events handled as of the last heartbeat.
    pub events: u64,
    /// Largest event-queue depth seen at a heartbeat.
    pub heap_high_water: usize,
    pub arrivals: Vec<u64>,
    pub departures: Vec<u64>,
}

impl EngineProbe {
    pub fn new(hops: usize) -> EngineProbe {
        EngineProbe {
            arrivals: vec![0; hops],
            departures: vec![0; hops],
            ..EngineProbe::default()
        }
    }
}

impl Probe for EngineProbe {
    const WANTS_DECISION_VALUES: bool = false;

    fn on_arrival(&mut self, _at: Time, id: PacketId) {
        self.arrivals[id.hop as usize] += 1;
    }

    fn on_depart(&mut self, id: PacketId, _a: Time, _s: Time, _f: Time, _eol: bool) {
        self.departures[id.hop as usize] += 1;
    }

    fn on_heartbeat(&mut self, _at: Time, events_handled: u64, heap_depth: usize) {
        self.events = self.events.max(events_handled);
        self.heap_high_water = self.heap_high_water.max(heap_depth);
    }
}

/// An order-sensitive 64-bit digest of a stream of words (FNV-1a over
/// words).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    #[inline]
    pub fn add(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn add_f64(&mut self, x: f64) {
        self.add(x.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdd::sched::Wtp;

    #[test]
    fn timed_wrapper_makes_the_same_decisions() {
        let sdp = Sdp::paper_default();
        let mut plain = Wtp::new(sdp.clone());
        let mut timed = Timed::new(Wtp::new(sdp));
        for (seq, class) in [0u8, 3, 1, 2, 3, 0].into_iter().enumerate() {
            let p = Packet::new(seq as u64, class, 100, Time::from_ticks(seq as u64));
            plain.enqueue(p);
            timed.enqueue(p);
        }
        let now = Time::from_ticks(50);
        let a: Vec<u64> = std::iter::from_fn(|| plain.dequeue(now).map(|p| p.seq)).collect();
        let b: Vec<u64> = std::iter::from_fn(|| timed.dequeue(now).map(|p| p.seq)).collect();
        assert_eq!(a, b);
        assert_eq!(timed.decisions, 6);
    }
}
