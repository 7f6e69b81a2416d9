//! The benchmark's own reading of a mutual-exclusion trace, computed
//! apart from the program's Specification 3 checker and then compared
//! with it.

use snapstab_core::me::MeEvent;
use snapstab_core::spec::MeReport;
use snapstab_sim::{Message, Trace, TraceEvent};

/// What a mutual-exclusion trace shows.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct MeAudit {
    /// `request` markers.
    pub requests: u64,
    /// Requests closed by a `Served` event.
    pub served: u64,
    /// Requests still open at the end of the trace.
    pub unserved: u64,
    /// A `request` marker while the previous request at that process was
    /// still open: one client has at most one request outstanding.
    pub reopened: u64,
    /// Critical sections entered for a request (`request`, then
    /// `Started`, then `CsEnter`).
    pub genuine_cs: u64,
    /// Other critical sections (leftovers of a corrupted start).
    pub spurious_cs: u64,
    /// Pairs of critical sections in the checked class that overlap.
    pub overlaps: u64,
}

/// Walks `trace` once. `genuine_only` restricts the overlap check to
/// critical sections entered for a request, as Specification 3 does
/// from a corrupted start (footnote 1); from a clean start every
/// critical section is checked.
pub fn audit_me<M: Message>(trace: &Trace<M, MeEvent>, n: usize, genuine_only: bool) -> MeAudit {
    #[derive(Clone, Copy, Default)]
    struct Client {
        open: bool,
        started: bool,
        entered: Option<(u64, bool)>,
    }
    let mut audit = MeAudit::default();
    let mut clients = vec![Client::default(); n];
    let mut intervals: Vec<(u64, u64)> = Vec::new();
    for entry in trace.iter() {
        match &entry.event {
            TraceEvent::Marker { p, label } if label == "request" => {
                let c = &mut clients[p.index()];
                audit.requests += 1;
                audit.reopened += u64::from(c.open);
                c.open = true;
                c.started = false;
            }
            TraceEvent::Protocol { p, event } => {
                let c = &mut clients[p.index()];
                match event {
                    MeEvent::Started => c.started |= c.open,
                    MeEvent::CsEnter => c.entered = Some((entry.step, c.open && c.started)),
                    MeEvent::CsExit => {
                        if let Some((enter, genuine)) = c.entered.take() {
                            if genuine {
                                audit.genuine_cs += 1;
                            } else {
                                audit.spurious_cs += 1;
                            }
                            if genuine || !genuine_only {
                                intervals.push((enter, entry.step));
                            }
                        }
                    }
                    MeEvent::Served if c.open => {
                        audit.served += 1;
                        c.open = false;
                        c.started = false;
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
    audit.unserved = clients.iter().filter(|c| c.open).count() as u64;
    intervals.sort_unstable();
    let mut reach: Option<u64> = None;
    for (enter, exit) in intervals {
        if reach.is_some_and(|r| enter <= r) {
            audit.overlaps += 1;
        }
        reach = Some(reach.map_or(exit, |r| r.max(exit)));
    }
    audit
}

/// Checks a mutual-exclusion trace in which every one of `expected`
/// requests must be served exactly once with no overlapping critical
/// section, and requires `spec`, the program's Specification 3 verdict
/// on the same trace, to agree. Returns the violations found.
pub fn check_me_trace<M: Message>(
    trace: &Trace<M, MeEvent>,
    n: usize,
    expected: u64,
    genuine_only: bool,
    spec: &MeReport,
) -> Vec<String> {
    let audit = audit_me(trace, n, genuine_only);
    let mut problems = Vec::new();
    if audit.requests != expected || audit.served != expected {
        problems.push(format!(
            "{} request markers and {} served, {expected} expected",
            audit.requests, audit.served
        ));
    }
    if audit.unserved + audit.reopened + audit.overlaps > 0 {
        problems.push(format!("mutual-exclusion audit failed: {audit:?}"));
    }
    if !genuine_only && audit.spurious_cs > 0 {
        problems.push(format!(
            "{} critical sections without a request on a clean start",
            audit.spurious_cs
        ));
    }
    if spec.served.len() as u64 != audit.served || !spec.exclusivity_holds() || !spec.all_served() {
        problems.push(format!(
            "Specification 3 disagrees with the audit: {} served, {} genuine overlaps, {} unserved",
            spec.served.len(),
            spec.genuine_overlaps.len(),
            spec.unserved.len()
        ));
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapstab_core::spec::analyze_me_trace;
    use snapstab_sim::ProcessId;

    fn push(t: &mut Trace<u8, MeEvent>, step: u64, p: usize, e: MeEvent) {
        t.push(
            step,
            TraceEvent::Protocol {
                p: ProcessId::new(p),
                event: e,
            },
        );
    }

    fn served_request(t: &mut Trace<u8, MeEvent>, at: u64, p: usize) {
        t.push_marker(at, ProcessId::new(p), "request");
        push(t, at + 1, p, MeEvent::Started);
        push(t, at + 2, p, MeEvent::CsEnter);
        push(t, at + 2, p, MeEvent::CsExit);
        push(t, at + 3, p, MeEvent::Served);
    }

    #[test]
    fn sequential_requests_pass() {
        let mut t = Trace::new();
        served_request(&mut t, 1, 0);
        served_request(&mut t, 10, 1);
        served_request(&mut t, 20, 0);
        let audit = audit_me(&t, 2, false);
        assert_eq!((audit.requests, audit.served, audit.genuine_cs), (3, 3, 3));
        assert_eq!(audit.overlaps + audit.unserved + audit.reopened, 0);
        assert!(check_me_trace(&t, 2, 3, false, &analyze_me_trace(&t, 2)).is_empty());
        assert!(!check_me_trace(&t, 2, 4, false, &analyze_me_trace(&t, 2)).is_empty());
    }

    #[test]
    fn overlap_and_unserved_are_found() {
        let mut t = Trace::new();
        t.push_marker(1, ProcessId::new(0), "request");
        t.push_marker(2, ProcessId::new(1), "request");
        push(&mut t, 3, 0, MeEvent::Started);
        push(&mut t, 4, 1, MeEvent::Started);
        push(&mut t, 5, 0, MeEvent::CsEnter);
        push(&mut t, 6, 1, MeEvent::CsEnter);
        push(&mut t, 7, 0, MeEvent::CsExit);
        push(&mut t, 8, 1, MeEvent::CsExit);
        push(&mut t, 9, 0, MeEvent::Served);
        let audit = audit_me(&t, 2, true);
        assert_eq!(audit.overlaps, 1);
        assert_eq!(audit.unserved, 1);
        assert!(!check_me_trace(&t, 2, 2, true, &analyze_me_trace(&t, 2)).is_empty());
    }

    #[test]
    fn spurious_sections_are_excluded_only_when_asked() {
        let mut t = Trace::new();
        // A corrupted start: process 1 is in its critical section
        // without a request while process 0 serves a genuine one.
        push(&mut t, 1, 1, MeEvent::CsEnter);
        served_request(&mut t, 2, 0);
        push(&mut t, 9, 1, MeEvent::CsExit);
        push(&mut t, 10, 1, MeEvent::Served);
        let genuine = audit_me(&t, 2, true);
        assert_eq!(
            (genuine.overlaps, genuine.spurious_cs, genuine.served),
            (0, 1, 1)
        );
        assert_eq!(audit_me(&t, 2, false).overlaps, 1);
    }
}
