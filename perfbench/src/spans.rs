//! Spans recorded from the benchmark's side of each layer boundary: a
//! pass-through [`Transport`] that stamps when the links are ready and,
//! when traced, times every [`Link`] call; and a [`Protocol`] wrapper
//! that times the protocol's actions inside the simulator.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::thread::Thread;
use std::time::Instant;

use snapstab_runtime::{LaneOf, Link, LinkMatrix, LinkStats, LiveConfig, Transport};
use snapstab_sim::{Context, ProcessId, Protocol, SendFate, SimRng};

use crate::measure::ratio;

/// One call in this many is timed; every call is counted. Reading the
/// clock costs about as much as an in-memory link call, so timing every
/// call would double the cost of the layer it measures.
pub const SAMPLE_EVERY: u64 = 8;

/// Calls into one side of one link and the time the sampled ones took.
/// Each side is written by the worker stepping that endpoint, so the two
/// sides sit on separate cache lines; the counters publish no other
/// data, hence `Relaxed`.
#[repr(align(64))]
#[derive(Default, Debug)]
struct SideSpans {
    calls: AtomicU64,
    sampled: AtomicU64,
    ns: AtomicU64,
    empty: AtomicU64,
}

impl SideSpans {
    fn time<R>(&self, call: impl FnOnce() -> R) -> R {
        if !self
            .calls
            .fetch_add(1, Relaxed)
            .is_multiple_of(SAMPLE_EVERY)
        {
            return call();
        }
        let began = Instant::now();
        let out = call();
        self.ns.fetch_add(elapsed_ns(began), Relaxed);
        self.sampled.fetch_add(1, Relaxed);
        out
    }
}

#[derive(Default, Debug)]
struct LinkSpans {
    send: SideSpans,
    recv: SideSpans,
}

/// Link-layer calls and their sampled time, summed over every link of a
/// run.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct LinkTotals {
    /// `Link::send` calls.
    pub sends: u64,
    /// `Link::send` calls timed.
    pub sends_sampled: u64,
    /// Nanoseconds inside the timed `Link::send` calls.
    pub send_ns: u64,
    /// `Link::try_recv` calls.
    pub recvs: u64,
    /// `Link::try_recv` calls timed.
    pub recvs_sampled: u64,
    /// Nanoseconds inside the timed `Link::try_recv` calls.
    pub recv_ns: u64,
    /// `Link::try_recv` calls that returned nothing.
    pub empty_recvs: u64,
}

impl LinkTotals {
    /// Adds another run's totals.
    pub fn add(&mut self, other: LinkTotals) {
        self.sends += other.sends;
        self.sends_sampled += other.sends_sampled;
        self.send_ns += other.send_ns;
        self.recvs += other.recvs;
        self.recvs_sampled += other.recvs_sampled;
        self.recv_ns += other.recv_ns;
        self.empty_recvs += other.empty_recvs;
    }

    /// Mean nanoseconds per `send` call.
    pub fn send_mean_ns(&self) -> f64 {
        ratio(self.send_ns as f64, self.sends_sampled as f64)
    }

    /// Mean nanoseconds per `try_recv` call.
    pub fn recv_mean_ns(&self) -> f64 {
        ratio(self.recv_ns as f64, self.recvs_sampled as f64)
    }

    /// Estimated nanoseconds inside every link call.
    pub fn total_ns(&self) -> f64 {
        self.send_mean_ns() * self.sends as f64 + self.recv_mean_ns() * self.recvs as f64
    }
}

/// A pass-through transport around the one under test.
pub struct Probe<M> {
    inner: Box<dyn Transport<M>>,
    traced: bool,
    spans: Mutex<Vec<Arc<LinkSpans>>>,
    connect: Mutex<Option<(Instant, Instant)>>,
}

impl<M> Probe<M> {
    /// Wraps `inner`; with `traced`, every link call is timed.
    pub fn new(inner: Box<dyn Transport<M>>, traced: bool) -> Self {
        Probe {
            inner,
            traced,
            spans: Mutex::new(Vec::new()),
            connect: Mutex::new(None),
        }
    }

    /// When the last `connect` began and returned.
    pub fn connect_span(&self) -> Option<(Instant, Instant)> {
        *self.connect.lock().expect("connect span poisoned")
    }

    /// The link-layer totals of a traced probe (zero when untraced).
    pub fn link_totals(&self) -> LinkTotals {
        let spans = self.spans.lock().expect("link spans poisoned");
        let mut t = LinkTotals::default();
        for s in spans.iter() {
            t.sends += s.send.calls.load(Relaxed);
            t.sends_sampled += s.send.sampled.load(Relaxed);
            t.send_ns += s.send.ns.load(Relaxed);
            t.recvs += s.recv.calls.load(Relaxed);
            t.recvs_sampled += s.recv.sampled.load(Relaxed);
            t.recv_ns += s.recv.ns.load(Relaxed);
            t.empty_recvs += s.recv.empty.load(Relaxed);
        }
        t
    }
}

impl<M: Send + 'static> Transport<M> for Probe<M> {
    fn connect(
        &self,
        n: usize,
        config: &LiveConfig,
        lanes: Option<(usize, LaneOf<M>)>,
    ) -> std::io::Result<LinkMatrix<M>> {
        let began = Instant::now();
        let mut links = self.inner.connect(n, config, lanes)?;
        if self.traced {
            let mut all = self.spans.lock().expect("link spans poisoned");
            for slot in links.iter_mut() {
                if let Some(link) = slot.take() {
                    let spans = Arc::new(LinkSpans::default());
                    all.push(spans.clone());
                    *slot = Some(Arc::new(TimedLink { inner: link, spans }));
                }
            }
        }
        *self.connect.lock().expect("connect span poisoned") = Some((began, Instant::now()));
        Ok(links)
    }
}

/// A link whose `send` and `try_recv` calls are counted and timed.
struct TimedLink<M> {
    inner: Arc<dyn Link<M>>,
    spans: Arc<LinkSpans>,
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl<M> Link<M> for TimedLink<M> {
    fn from(&self) -> ProcessId {
        self.inner.from()
    }

    fn to(&self) -> ProcessId {
        self.inner.to()
    }

    fn register_receiver(&self, receiver: Thread) {
        self.inner.register_receiver(receiver);
    }

    fn send(&self, msg: M) -> SendFate {
        self.spans.send.time(|| self.inner.send(msg))
    }

    fn try_recv(&self) -> Option<M> {
        let msg = self.spans.recv.time(|| self.inner.try_recv());
        if msg.is_none() {
            self.spans.recv.empty.fetch_add(1, Relaxed);
        }
        msg
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn stats(&self) -> LinkStats {
        self.inner.stats()
    }
}

/// Access to the protocol a fleet member runs, wrapped or not, so one
/// simulator client loop serves traced and untraced fleets.
pub trait Inner<P> {
    /// The wrapped protocol.
    fn inner(&self) -> &P;
    /// The wrapped protocol, mutably (client requests).
    fn inner_mut(&mut self) -> &mut P;
}

/// A protocol whose actions are counted and, one in [`SAMPLE_EVERY`],
/// timed: every `activate` and `on_receive` call.
pub struct TimedProcess<P> {
    inner: P,
    calls: u64,
    sampled: u64,
    ns: u64,
}

impl<P> TimedProcess<P> {
    /// Wraps a process with zeroed counters.
    pub fn new(inner: P) -> Self {
        TimedProcess {
            inner,
            calls: 0,
            sampled: 0,
            ns: 0,
        }
    }

    fn time<R>(&mut self, action: impl FnOnce(&mut P) -> R) -> R {
        self.calls += 1;
        if !self.calls.is_multiple_of(SAMPLE_EVERY) {
            return action(&mut self.inner);
        }
        let began = Instant::now();
        let out = action(&mut self.inner);
        self.ns += elapsed_ns(began);
        self.sampled += 1;
        out
    }
}

/// Mean nanoseconds per action over a fleet's sampled calls, as
/// `(sampled calls, nanoseconds)` sums.
pub fn action_sums<P>(fleet: &[TimedProcess<P>]) -> (u64, u64) {
    fleet
        .iter()
        .fold((0, 0), |(c, ns), p| (c + p.sampled, ns + p.ns))
}

impl<P> Inner<P> for TimedProcess<P> {
    fn inner(&self) -> &P {
        &self.inner
    }

    fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }
}

impl<P: Protocol> Protocol for TimedProcess<P> {
    type Msg = P::Msg;
    type Event = P::Event;
    type State = P::State;

    fn activate(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Event>) -> bool {
        self.time(|p| p.activate(ctx))
    }

    fn on_receive(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Event>,
    ) {
        self.time(|p| p.on_receive(from, msg, ctx));
    }

    fn has_enabled_action(&self) -> bool {
        self.inner.has_enabled_action()
    }

    fn corrupt(&mut self, rng: &mut SimRng) {
        self.inner.corrupt(rng);
    }

    fn snapshot(&self) -> Self::State {
        self.inner.snapshot()
    }

    fn restore(&mut self, state: Self::State) {
        self.inner.restore(state);
    }

    fn event_is_spec_relevant(event: &Self::Event) -> bool {
        P::event_is_spec_relevant(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapstab_runtime::InMemory;

    #[test]
    fn traced_probe_times_every_link_call_and_keeps_semantics() {
        let probe: Probe<u32> = Probe::new(Box::new(InMemory), true);
        let links = probe
            .connect(2, &LiveConfig::default(), None)
            .expect("in-memory links");
        let (began, ready) = probe.connect_span().expect("connect stamped");
        assert!(began <= ready);
        let link = links[1].as_ref().expect("0 -> 1");
        assert_eq!(link.send(5), SendFate::Enqueued);
        assert_eq!(
            probe.link_totals().sends_sampled,
            1,
            "the first call is timed"
        );
        assert_eq!(link.send(6), SendFate::LostFull, "capacity 1 still drops");
        assert_eq!(link.try_recv(), Some(5));
        assert_eq!(link.try_recv(), None);
        let totals = probe.link_totals();
        assert_eq!((totals.sends, totals.recvs, totals.empty_recvs), (2, 2, 1));
        assert_eq!(link.stats().lost_full, 1);
    }

    #[test]
    fn untraced_probe_only_stamps_connect() {
        let probe: Probe<u32> = Probe::new(Box::new(InMemory), false);
        assert!(probe.connect_span().is_none());
        probe
            .connect(3, &LiveConfig::default(), None)
            .expect("in-memory links");
        assert!(probe.connect_span().is_some());
        assert_eq!(probe.link_totals(), LinkTotals::default());
    }
}
