//! Per-layer metrics shared by several workloads: the runtime's link and
//! mux counters of the live workloads, and the process-wide ones every
//! workload reports.

use std::time::Duration;

use snapstab_runtime::{LinkStats, LiveStats};

use crate::measure::{median_s, quantile_ms, ratio};
use crate::report::Metrics;
use crate::spans::LinkTotals;
use crate::Tally;

/// Runtime counters and link spans summed over a live workload's traced
/// rounds.
#[derive(Default)]
pub struct LiveLayers {
    links: LinkStats,
    calls: LinkTotals,
    activations: u64,
    effective_activations: u64,
    deliveries: u64,
    steps: u64,
    connects: Vec<Duration>,
}

impl LiveLayers {
    /// Adds one traced round: its runtime counters, its link spans and
    /// the time its transport took to connect.
    pub fn absorb(&mut self, stats: &LiveStats, calls: LinkTotals, connect: Duration) {
        self.links.absorb(stats.links);
        self.calls.add(calls);
        self.activations += stats.activations;
        self.effective_activations += stats.effective_activations;
        self.deliveries += stats.deliveries;
        self.steps += stats.steps;
        self.connects.push(connect);
    }

    /// The `link.*`, `mux.*` and `setup.connect_s` metrics, and the
    /// `net.*` link metrics when the transport is UDP.
    pub fn insert(&self, traced: &Tally, udp: bool, out: &mut Metrics) {
        let ops = traced.ops as f64;
        let cpu_ns = traced.cpu.total().as_nanos() as f64;
        let c = &self.calls;
        let per_op = |count: u64| ratio(count as f64, ops);
        out.insert("link.msgs_per_op", per_op(self.links.enqueued));
        out.insert(
            "link.drop_full_ratio",
            ratio(self.links.lost_full as f64, self.links.sends as f64),
        );
        out.insert("link.send_ns", c.send_mean_ns());
        out.insert("link.recv_ns", c.recv_mean_ns());
        out.insert(
            "link.empty_recv_ratio",
            ratio(c.empty_recvs as f64, c.recvs as f64),
        );
        out.insert("mux.activations_per_op", per_op(self.activations));
        out.insert("mux.deliveries_per_op", per_op(self.deliveries));
        out.insert(
            "mux.effective_activation_ratio",
            ratio(self.effective_activations as f64, self.activations as f64),
        );
        out.insert("mux.cpu_util", ratio(cpu_ns, traced.busy.as_nanos() as f64));
        out.insert(
            "mux.self_ns_per_step",
            ratio(cpu_ns - c.total_ns(), self.steps as f64),
        );
        out.insert("setup.connect_s", median_s(&self.connects));
        if udp {
            out.insert("net.send_ns", c.send_mean_ns());
            out.insert("net.recv_ns", c.recv_mean_ns());
            out.insert("net.lost_reorder", self.links.lost_reorder as f64);
        }
    }
}

/// The metrics every workload reports from its traced rounds: the
/// system share of CPU time and the latency tail.
pub fn insert_process(traced: &Tally, out: &mut Metrics) {
    out.insert(
        "net.sys_share",
        ratio(
            traced.cpu.system().as_secs_f64(),
            traced.cpu.total().as_secs_f64(),
        ),
    );
    out.insert(
        "service.latency_p99_ms",
        quantile_ms(&traced.latencies, 0.99),
    );
    out.insert("service.latency_samples", traced.latencies.len() as f64);
}
