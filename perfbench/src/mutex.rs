//! `mutex-mux-inmem` and `mutex-udp-n3`: the single-leader mutex service
//! (Algorithm 3) on the multiplexed runtime, over in-memory links or UDP
//! loopback sockets. One closed-loop client per process, one request
//! outstanding at a time.

use std::time::{Duration, Instant};

use snapstab_core::me::MeMsg;
use snapstab_core::spec::analyze_me_trace;
use snapstab_net::UdpLoopback;
use snapstab_runtime::{
    run_mutex_service_mux_on, InMemory, LiveConfig, MutexServiceConfig, ServiceReport, TraceDetail,
    Transport,
};

use crate::audit::check_me_trace;
use crate::layers::{insert_process, LiveLayers};
use crate::measure::Cpu;
use crate::report::Metrics;
use crate::spans::Probe;
use crate::{Round, Tally, Workload};

/// A service round that does not finish within this is a failure.
const ROUND_BUDGET: Duration = Duration::from_secs(60);

/// One of the two mutex workloads.
pub struct MutexWorkload {
    n: usize,
    requests_per_process: u64,
    workers: usize,
    udp: bool,
    layers: LiveLayers,
}

impl MutexWorkload {
    fn new(n: usize, requests_per_process: u64, workers: usize, udp: bool) -> Self {
        MutexWorkload {
            n,
            requests_per_process,
            workers,
            udp,
            layers: LiveLayers::default(),
        }
    }

    /// n = 8 on a 2-worker pool over in-memory links.
    pub fn in_memory() -> Self {
        Self::new(8, 100, 2, false)
    }

    /// n = 3 on a 1-worker pool over UDP loopback sockets.
    pub fn udp() -> Self {
        Self::new(3, 100, 1, true)
    }

    fn expected(&self) -> u64 {
        self.n as u64 * self.requests_per_process
    }

    fn config(&self, seed: u64, record: bool) -> MutexServiceConfig {
        MutexServiceConfig {
            n: self.n,
            requests_per_process: self.requests_per_process,
            cs_duration: 0,
            live: LiveConfig {
                seed,
                record_trace: record,
                detail: TraceDetail::Spec,
                ..LiveConfig::default()
            },
            time_budget: ROUND_BUDGET,
        }
    }

    fn transport(&self, traced: bool) -> Probe<MeMsg> {
        let inner: Box<dyn Transport<MeMsg>> = if self.udp {
            Box::new(UdpLoopback::new())
        } else {
            Box::new(InMemory)
        };
        Probe::new(inner, traced)
    }

    /// Checks a finished service run against the workload's promise.
    fn check(&self, report: &ServiceReport) -> Vec<String> {
        let expected = self.expected();
        let mut problems = Vec::new();
        if report.served != expected || report.injected != expected {
            problems.push(format!(
                "served {} and injected {} of {expected} requests",
                report.served, report.injected
            ));
        }
        if report.cs_entries != report.served {
            problems.push(format!(
                "{} critical-section entries for {} requests served",
                report.cs_entries, report.served
            ));
        }
        if report.latencies.len() as u64 != report.served {
            problems.push(format!(
                "{} latencies for {} requests served",
                report.latencies.len(),
                report.served
            ));
        }
        let samples = report.link_samples.iter().map(|s| (s.from, s.to, s.stats));
        for (from, to, s) in samples {
            let accounted = s.enqueued + s.lost_full + s.lost_in_transit;
            let balanced = if self.udp {
                s.sends >= accounted + s.lost_reorder
            } else {
                s.sends == accounted && s.lost_reorder == 0
            };
            if !balanced || s.delivered > s.enqueued || s.lost_in_transit != 0 {
                problems.push(format!(
                    "link {from:?}->{to:?} counters do not balance: {s:?}"
                ));
            }
        }
        if report.link_samples.len() != self.n * (self.n - 1) {
            problems.push(format!("{} link samples", report.link_samples.len()));
        }
        problems
    }
}

impl Workload for MutexWorkload {
    fn round(&mut self, seed: u64, traced: bool) -> Round {
        let mut round = Round {
            attempted: self.expected(),
            ..Round::default()
        };
        let cfg = self.config(seed, false);
        let cpu = Cpu::now();
        let began = Instant::now();
        let probe = self.transport(traced);
        let result = run_mutex_service_mux_on(&cfg, self.workers, &probe);
        let ended = Instant::now();
        round.cpu = Cpu::now().since(cpu);
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                round.problems.push(format!("transport setup failed: {e}"));
                return round;
            }
        };
        let (connect_began, ready) = probe.connect_span().expect("the service connected");
        round.setup = ready - began;
        round.busy = ended - ready;
        round.ops = report.served;
        round.problems = self.check(&report);
        if traced {
            self.layers
                .absorb(&report.stats, probe.link_totals(), ready - connect_began);
        }
        round.latencies = report.latencies;
        // Dropping the probe joins the UDP demultiplexer threads; that
        // teardown is outside the measured round.
        drop(probe);
        round
    }

    fn audit(&mut self, seed: u64) -> Round {
        let mut round = Round {
            attempted: self.expected(),
            ..Round::default()
        };
        let cfg = self.config(seed ^ 0xA0D1, true);
        let probe = self.transport(false);
        let report = match run_mutex_service_mux_on(&cfg, self.workers, &probe) {
            Ok(report) => report,
            Err(e) => {
                round
                    .problems
                    .push(format!("audit: transport setup failed: {e}"));
                return round;
            }
        };
        round.ops = report.served;
        let mut problems = self.check(&report);
        let trace = report.trace.as_ref().expect("the audit records its trace");
        let spec = analyze_me_trace(trace, self.n);
        problems.extend(check_me_trace(trace, self.n, self.expected(), false, &spec));
        round.problems = problems
            .into_iter()
            .map(|p| format!("audit: {p}"))
            .collect();
        round
    }

    fn layers(&mut self, traced: &Tally, seed: u64, out: &mut Metrics) {
        self.layers.insert(traced, self.udp, out);
        insert_process(traced, out);
        out.insert(
            "me.action_ns",
            crate::sim::me_action_ns(self.n, self.requests_per_process / 4, seed),
        );
    }
}
