//! `forward-checked`: the forwarding service on the multiplexed runtime,
//! from stale-prefilled buffers, with the §4.1 snapshot monitor riding
//! along and the full trace recorded; a round ends at the Specification
//! 4/5 verdict, so checking cost counts.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use snapstab_core::forward::{forward_workload, ForwardEvent, ForwardMsg, Payload, STALE_ID_BIT};
use snapstab_core::spec::{
    analyze_forwarding_trace, analyze_snapshot_trace, ForwardingReport, SnapshotReport,
};
use snapstab_runtime::{
    project_service_trace, run_monitored_forwarding_service_mux_on, ForwardingServiceConfig,
    InMemory, LiveConfig, MonitorConfig, MonitoredEvent, MonitoredForwardingReport, MonitoredMsg,
    TraceDetail,
};
use snapstab_sim::{ProcessId, Trace, TraceEvent};

use crate::layers::{insert_process, LiveLayers};
use crate::measure::{median_s, ratio, Cpu};
use crate::report::Metrics;
use crate::spans::Probe;
use crate::{Round, Tally, Workload};

type Msg = MonitoredMsg<ForwardMsg>;
type Event = MonitoredEvent<ForwardEvent>;

/// A service round that does not finish within this is a failure.
const ROUND_BUDGET: Duration = Duration::from_secs(60);

/// The `forward-checked` workload.
pub struct ForwardWorkload {
    n: usize,
    payloads_per_process: u64,
    buffer_cap: usize,
    workers: usize,
    monitor: MonitorConfig,
    /// Sums over the traced rounds.
    layers: LiveLayers,
    events: u64,
    cuts: u64,
    staleness: Duration,
    monitored_wall: Duration,
    merges: Vec<Duration>,
    projections: Vec<Duration>,
    checks: Vec<Duration>,
}

impl ForwardWorkload {
    /// n = 8 on a 2-worker pool, lanes of 4, one initiator cutting every
    /// 100 ms.
    pub fn new() -> Self {
        ForwardWorkload {
            n: 8,
            payloads_per_process: 1500,
            buffer_cap: 4,
            workers: 2,
            monitor: MonitorConfig {
                interval: Duration::from_millis(100),
                initiators: 1,
                ..MonitorConfig::default()
            },
            layers: LiveLayers::default(),
            events: 0,
            cuts: 0,
            staleness: Duration::ZERO,
            monitored_wall: Duration::ZERO,
            merges: Vec::new(),
            projections: Vec::new(),
            checks: Vec::new(),
        }
    }

    fn expected(&self) -> u64 {
        self.n as u64 * self.payloads_per_process
    }

    /// Checks a round against the workload regenerated from its seed and
    /// against the program's verdicts.
    fn check(
        &self,
        seed: u64,
        report: &MonitoredForwardingReport,
        trace: &Trace<Msg, Event>,
        spec5: &SnapshotReport,
        spec4: &ForwardingReport,
    ) -> Vec<String> {
        let expected = self.expected();
        let mut problems = Vec::new();
        if report.injected != expected || report.delivered != expected {
            problems.push(format!(
                "injected {} and delivered {} of {expected} payloads",
                report.injected, report.delivered
            ));
        }
        let sent: HashMap<u64, Payload> = forward_workload(self.n, self.payloads_per_process, seed)
            .into_iter()
            .flatten()
            .map(|p| (p.id, p))
            .collect();
        let mut received: HashMap<u64, u64> = HashMap::new();
        let mut stale = 0u64;
        for entry in trace.iter() {
            let TraceEvent::Protocol {
                p,
                event: MonitoredEvent::Service(ForwardEvent::Delivered { payload, .. }),
            } = &entry.event
            else {
                continue;
            };
            if payload.id & STALE_ID_BIT != 0 {
                stale += 1;
                continue;
            }
            *received.entry(payload.id).or_default() += 1;
            let intact = sent.get(&payload.id) == Some(payload);
            if !intact || usize::from(payload.dst) != p.index() {
                problems.push(format!("payload {payload:?} delivered at {p:?}"));
            }
        }
        let missing = sent.keys().filter(|id| !received.contains_key(id)).count();
        let repeated = received.values().filter(|&&c| c > 1).count();
        if missing + repeated > 0 || received.len() != sent.len() {
            problems.push(format!(
                "{missing} payloads never delivered, {repeated} delivered more than once"
            ));
        }
        // Each process holds at most two lanes of `buffer_cap` entries and
        // one outgoing hop slot per neighbour before the run starts.
        let prefill_bound = (self.n * (2 * self.buffer_cap + 2)) as u64;
        if stale != report.spurious || stale > prefill_bound {
            problems.push(format!(
                "{stale} stale deliveries in the trace, {} reported, at most {prefill_bound} prefilled",
                report.spurious
            ));
        }
        let total = report.delivered + report.spurious;
        for i in 0..self.monitor.initiators {
            let gauges: Vec<u64> = report
                .monitor
                .cuts
                .iter()
                .filter(|c| c.initiator == ProcessId::new(i))
                .map(|c| c.served_total())
                .collect();
            // Two cuts at least, so that the gauges can be compared.
            let decided = spec5.cuts_of(ProcessId::new(i));
            if gauges.len() < 2 || decided < 2 {
                problems.push(format!(
                    "initiator {i} decided {decided} cuts in the trace and reported {}",
                    gauges.len()
                ));
            }
            if gauges.windows(2).any(|w| w[1] < w[0]) || gauges.iter().any(|&g| g > total) {
                problems.push(format!(
                    "initiator {i}'s served gauges {gauges:?} decrease or pass {total}"
                ));
            }
        }
        if !spec5.holds() || !spec5.fabricated.is_empty() {
            problems.push(format!(
                "Specification 5 fails with {} fabricated cuts",
                spec5.fabricated.len()
            ));
        }
        if !spec4.holds() {
            problems.push("Specification 4 fails on the projected trace".into());
        }
        problems
    }
}

impl Workload for ForwardWorkload {
    fn round(&mut self, seed: u64, traced: bool) -> Round {
        let n = self.n;
        let mut round = Round {
            attempted: self.expected(),
            ..Round::default()
        };
        let cfg = ForwardingServiceConfig {
            n,
            payloads_per_process: self.payloads_per_process,
            buffer_cap: self.buffer_cap,
            prefill_stale: true,
            live: LiveConfig {
                seed,
                record_trace: true,
                detail: TraceDetail::Full,
                ..LiveConfig::default()
            },
            time_budget: ROUND_BUDGET,
        };
        let cpu = Cpu::now();
        let began = Instant::now();
        let probe: Probe<Msg> = Probe::new(Box::new(InMemory), traced);
        let result =
            run_monitored_forwarding_service_mux_on(&cfg, &self.monitor, self.workers, &probe);
        let returned = Instant::now();
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                round.problems.push(format!("transport setup failed: {e}"));
                return round;
            }
        };
        let trace = report.trace.as_ref().expect("the round records its trace");
        let spec5 = analyze_snapshot_trace(trace, n, &[]);
        let projecting = Instant::now();
        let service = project_service_trace(trace);
        let projected = Instant::now();
        let spec4 = analyze_forwarding_trace(&service, n);
        let ended = Instant::now();
        round.cpu = Cpu::now().since(cpu);
        // The projection is not needed by the benchmark's own checks.
        drop(service);
        let (connect_began, ready) = probe.connect_span().expect("the service connected");
        round.setup = ready - began;
        round.busy = ended - ready;
        round.ops = report.delivered;
        round.problems = self.check(seed, &report, trace, &spec5, &spec4);
        if traced {
            let connect = ready - connect_began;
            self.layers
                .absorb(&report.stats, probe.link_totals(), connect);
            self.events += trace.len() as u64;
            self.cuts += report.monitor.cuts.len() as u64;
            self.staleness += report
                .monitor
                .cuts
                .iter()
                .map(|c| c.staleness)
                .sum::<Duration>();
            self.monitored_wall += report.monitor.wall;
            self.merges
                .push((returned - began).saturating_sub(report.wall + connect));
            self.projections.push(projected - projecting);
            self.checks
                .push((projecting - returned) + (ended - projected));
        }
        round.latencies = report.latencies;
        round
    }

    fn layers(&mut self, traced: &Tally, seed: u64, out: &mut Metrics) {
        self.layers.insert(traced, false, out);
        insert_process(traced, out);
        let check_s: f64 = self.checks.iter().map(Duration::as_secs_f64).sum();
        out.insert(
            "forward.action_ns",
            crate::sim::forward_action_ns(
                self.n,
                self.payloads_per_process / 4,
                self.buffer_cap,
                seed,
            ),
        );
        out.insert(
            "monitor.cuts_per_s",
            ratio(self.cuts as f64, self.monitored_wall.as_secs_f64()),
        );
        out.insert(
            "monitor.staleness_ms",
            ratio(self.staleness.as_secs_f64() * 1e3, self.cuts as f64),
        );
        out.insert("monitor.project_s", median_s(&self.projections));
        out.insert(
            "trace.events_per_op",
            ratio(self.events as f64, traced.ops as f64),
        );
        out.insert("trace.merge_s", median_s(&self.merges));
        out.insert("spec.check_s", median_s(&self.checks));
        out.insert("spec.events_per_s", ratio(self.events as f64, check_s));
    }
}
