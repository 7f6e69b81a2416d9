//! `sim-me-corrupted`: Algorithm 3 in the deterministic simulator, from
//! fully corrupted configurations, under a seeded random scheduler, until
//! every request is served; each execution is judged by Specification 3.
//! Also the simulator side-runs that time the protocols' actions for the
//! live workloads, whose fleets the services build themselves.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use snapstab_core::flag::FlagDomain;
use snapstab_core::forward::{forward_workload, ForwardConfig, ForwardProcess};
use snapstab_core::me::{MeEvent, MeMsg, MeProcess};
use snapstab_core::request::RequestState;
use snapstab_core::spec::analyze_me_trace;
use snapstab_sim::{
    Capacity, CorruptionPlan, NetworkBuilder, ProcessId, Protocol, RandomScheduler, Runner, SimRng,
    StopCondition,
};

use crate::audit::check_me_trace;
use crate::layers::insert_process;
use crate::measure::{median_s, ratio, Cpu};
use crate::report::Metrics;
use crate::spans::{action_sums, Inner, TimedProcess};
use crate::{Round, Tally, Workload};

/// A run that needs more steps than this to serve its requests fails.
const STEP_BUDGET: u64 = 200_000_000;

impl Inner<MeProcess> for MeProcess {
    fn inner(&self) -> &MeProcess {
        self
    }

    fn inner_mut(&mut self) -> &mut MeProcess {
        self
    }
}

impl Inner<ForwardProcess> for ForwardProcess {
    fn inner(&self) -> &ForwardProcess {
        self
    }

    fn inner_mut(&mut self) -> &mut ForwardProcess {
        self
    }
}

/// `n` distinct process ids drawn from `seed`.
fn ids(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = SimRng::seed_from(seed ^ 0x1D5);
    let mut ids: Vec<u64> = Vec::with_capacity(n);
    while ids.len() < n {
        let id = rng.gen_range(1..1_000_000) as u64;
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    ids
}

/// A capacity-1 mutual-exclusion system of `fleet`, optionally fully
/// corrupted (variables and channel contents).
fn me_system<Q>(fleet: Vec<Q>, seed: u64, corrupt: bool) -> Runner<Q, RandomScheduler>
where
    Q: Protocol<Msg = MeMsg, Event = MeEvent>,
{
    let n = fleet.len();
    let network = NetworkBuilder::new(n)
        .capacity(Capacity::Bounded(1))
        .build();
    let mut runner = Runner::new(fleet, network, RandomScheduler::new(), seed);
    if corrupt {
        CorruptionPlan::full().apply(&mut runner, &mut SimRng::seed_from(seed ^ 0xC0_22_07));
    }
    runner
}

/// Drives one closed-loop client per process: whenever a process's
/// `Request` is `Done`, its outstanding request (if any) completes and
/// the next is marked and handed to `request_cs`, as the live service
/// does — but at least one step after the completion was seen.
/// `Runner::mark` stamps a marker with the step just executed, and the
/// Specification 3 checker orders a marker before the events of its
/// step, so a request marked right after the step that served the
/// previous one would read as served by that step. Returns the
/// latencies, or why the run stopped early.
fn serve<Q>(
    runner: &mut Runner<Q, RandomScheduler>,
    requests_per_process: u64,
) -> Result<Vec<Duration>, String>
where
    Q: Protocol<Msg = MeMsg, Event = MeEvent> + Inner<MeProcess>,
{
    let n = runner.n();
    let total = n * requests_per_process as usize;
    let mut remaining = vec![requests_per_process; n];
    let mut outstanding: Vec<Option<Instant>> = vec![None; n];
    let mut completed_at: Vec<Option<u64>> = vec![None; n];
    let mut latencies = Vec::with_capacity(total);
    let done = |r: &Runner<Q, RandomScheduler>, i: usize| {
        r.process(ProcessId::new(i)).inner().request() == RequestState::Done
    };
    loop {
        let now = runner.step_count();
        for i in 0..n {
            if !done(runner, i) {
                continue;
            }
            if let Some(since) = outstanding[i].take() {
                latencies.push(since.elapsed());
                completed_at[i] = Some(now);
            } else if remaining[i] > 0 && completed_at[i].is_none_or(|s| s < now) {
                let p = ProcessId::new(i);
                runner.mark(p, "request");
                if !runner.process_mut(p).inner_mut().request_cs() {
                    return Err(format!("request_cs refused at {p:?} while Done"));
                }
                remaining[i] -= 1;
                outstanding[i] = Some(Instant::now());
            }
        }
        if latencies.len() == total {
            return Ok(latencies);
        }
        let out = runner
            .run_until(STEP_BUDGET, |r| {
                (0..n).any(|i| (outstanding[i].is_some() || remaining[i] > 0) && done(r, i))
            })
            .map_err(|e| format!("simulator error: {e:?}"))?;
        if out.stopped != StopCondition::Predicate {
            return Err(format!(
                "{} of {total} requests served when the run stopped: {:?}",
                latencies.len(),
                out.stopped
            ));
        }
    }
}

/// Mean time of a `MeProcess` action, timed in a clean-start simulator
/// run of `n` processes serving `requests_per_process` requests each.
pub fn me_action_ns(n: usize, requests_per_process: u64, seed: u64) -> f64 {
    let ids = ids(n, seed);
    let fleet = (0..n)
        .map(|i| TimedProcess::new(MeProcess::new(ProcessId::new(i), n, ids[i])))
        .collect();
    let mut runner = me_system(fleet, seed, false);
    runner.set_record_trace(false);
    serve(&mut runner, requests_per_process).expect("a clean start serves every request");
    action_ns(runner.processes())
}

fn action_ns<P>(fleet: &[TimedProcess<P>]) -> f64 {
    let (calls, ns) = action_sums(fleet);
    ratio(ns as f64, calls as f64)
}

/// Mean time of a `ForwardProcess` action, timed in a simulator run of
/// `n` processes with stale-prefilled lanes delivering
/// `payloads_per_process` payloads each.
pub fn forward_action_ns(n: usize, payloads_per_process: u64, buffer_cap: usize, seed: u64) -> f64 {
    let config = ForwardConfig {
        buffer_cap,
        flag_domain: FlagDomain::for_capacity(1),
    };
    let mut rng = SimRng::seed_from(seed ^ 0x57A1E);
    let fleet: Vec<TimedProcess<ForwardProcess>> = (0..n)
        .map(|i| {
            let mut p = ForwardProcess::new(ProcessId::new(i), n, config);
            p.prefill_stale(&mut rng);
            TimedProcess::new(p)
        })
        .collect();
    let network = NetworkBuilder::new(n)
        .capacity(Capacity::Bounded(1))
        .build();
    let mut runner = Runner::new(fleet, network, RandomScheduler::new(), seed);
    runner.set_record_trace(false);
    let mut queues: Vec<VecDeque<_>> = forward_workload(n, payloads_per_process, seed)
        .into_iter()
        .map(VecDeque::from)
        .collect();
    let total = n as u64 * payloads_per_process;
    let mut delivered = 0;
    while delivered < total {
        for (i, queue) in queues.iter_mut().enumerate() {
            let p = runner.process_mut(ProcessId::new(i)).inner_mut();
            delivered += p
                .take_delivered()
                .iter()
                .filter(|m| m.id & snapstab_core::forward::STALE_ID_BIT == 0)
                .count() as u64;
            if p.can_inject() {
                if let Some(payload) = queue.pop_front() {
                    assert!(p.request_send(payload), "workload stays in domain");
                }
            }
        }
        let out = runner.run_steps(64).expect("random scheduling cannot fail");
        assert!(
            out.steps > 0 || delivered == total,
            "forwarding stopped with {delivered} of {total} payloads delivered"
        );
    }
    action_ns(runner.processes())
}

/// The `sim-me-corrupted` workload.
pub struct SimMeWorkload {
    n: usize,
    requests_per_process: u64,
    /// Sums over the traced rounds.
    steps: u64,
    drive: Duration,
    action_calls: u64,
    action_ns: u64,
    events: u64,
    checks: Vec<Duration>,
    sends: u64,
    enqueued: u64,
    lost_full: u64,
}

impl SimMeWorkload {
    /// n = 8, capacity 1.
    pub fn new() -> Self {
        SimMeWorkload {
            n: 8,
            requests_per_process: 8,
            steps: 0,
            drive: Duration::ZERO,
            action_calls: 0,
            action_ns: 0,
            events: 0,
            checks: Vec::new(),
            sends: 0,
            enqueued: 0,
            lost_full: 0,
        }
    }

    fn run<Q>(
        &mut self,
        fleet: impl FnOnce(Vec<MeProcess>) -> Vec<Q>,
        seed: u64,
        traced: bool,
    ) -> (Round, Runner<Q, RandomScheduler>)
    where
        Q: Protocol<Msg = MeMsg, Event = MeEvent> + Inner<MeProcess>,
    {
        let n = self.n;
        let expected = n as u64 * self.requests_per_process;
        let mut round = Round {
            attempted: expected,
            ..Round::default()
        };
        let cpu = Cpu::now();
        let began = Instant::now();
        let ids = ids(n, seed);
        let plain = (0..n)
            .map(|i| MeProcess::new(ProcessId::new(i), n, ids[i]))
            .collect();
        let mut runner = me_system(fleet(plain), seed, true);
        let ready = Instant::now();
        let served = serve(&mut runner, self.requests_per_process);
        let driven = Instant::now();
        let spec = analyze_me_trace(runner.trace(), n);
        let ended = Instant::now();
        round.cpu = Cpu::now().since(cpu);
        round.setup = ready - began;
        round.busy = ended - ready;
        match served {
            Ok(latencies) => {
                round.ops = latencies.len() as u64;
                round.latencies = latencies;
                round.problems = check_me_trace(runner.trace(), n, expected, true, &spec);
            }
            Err(e) => round.problems.push(e),
        }
        if traced {
            let stats = runner.stats();
            self.steps += stats.steps;
            self.drive += driven - ready;
            self.events += runner.trace().len() as u64;
            self.checks.push(ended - driven);
            self.sends += stats.sends_attempted;
            self.enqueued += stats.sends_enqueued;
            self.lost_full += stats.lost_full;
        }
        (round, runner)
    }
}

impl Workload for SimMeWorkload {
    fn round(&mut self, seed: u64, traced: bool) -> Round {
        if traced {
            let (round, runner) = self.run(
                |f| f.into_iter().map(TimedProcess::new).collect(),
                seed,
                true,
            );
            let (calls, ns) = action_sums(runner.processes());
            self.action_calls += calls;
            self.action_ns += ns;
            round
        } else {
            self.run(|f| f, seed, false).0
        }
    }

    fn layers(&mut self, traced: &Tally, _seed: u64, out: &mut Metrics) {
        let ops = traced.ops as f64;
        let check_s: f64 = self.checks.iter().map(Duration::as_secs_f64).sum();
        out.insert("link.msgs_per_op", ratio(self.enqueued as f64, ops));
        out.insert(
            "link.drop_full_ratio",
            ratio(self.lost_full as f64, self.sends as f64),
        );
        out.insert(
            "me.action_ns",
            ratio(self.action_ns as f64, self.action_calls as f64),
        );
        insert_process(traced, out);
        out.insert("trace.events_per_op", ratio(self.events as f64, ops));
        out.insert("spec.check_s", median_s(&self.checks));
        out.insert("spec.events_per_s", ratio(self.events as f64, check_s));
        out.insert(
            "sim.ns_per_step",
            ratio(self.drive.as_nanos() as f64, self.steps as f64),
        );
        out.insert("sim.steps_per_op", ratio(self.steps as f64, ops));
    }
}
