//! The serde-free hand validator for Chrome `trace_event` JSON, run
//! against the exporter's own output and against documents a real
//! `--trace` invocation produces. `ci.sh` relies on this contract: the
//! `figs fig5 --trace` smoke writes a JSON file and validates it with
//! [`trace::validate_chrome_trace`], so any drift between exporter and
//! validator fails here first.

use trace::{chrome_trace_json, validate_chrome_trace, TraceEvent, TraceKind};

fn synthetic_run(nodes: u32, phases: u32) -> Vec<TraceEvent> {
    let mut evs = Vec::new();
    for n in 0..nodes {
        let mut t = (n as u64) * 3;
        for p in 0..phases {
            evs.push(TraceEvent::new(
                t,
                n,
                TraceKind::PhaseEnter { sweep: 0, phase: p },
            ));
            evs.push(TraceEvent::new(
                t + 10,
                n,
                TraceKind::CopyEnter { sweep: 0, phase: p },
            ));
            evs.push(TraceEvent::new(
                t + 14,
                n,
                TraceKind::CopyExit { sweep: 0, phase: p },
            ));
            evs.push(TraceEvent::new(
                t + 15,
                n,
                TraceKind::MsgSend {
                    to_node: (n + 1) % nodes,
                    bytes: 128,
                },
            ));
            evs.push(TraceEvent::new(
                t + 16,
                n,
                TraceKind::PortionRotate {
                    portion: p,
                    to_node: (n + 1) % nodes,
                },
            ));
            evs.push(TraceEvent::new(
                t + 20,
                n,
                TraceKind::PhaseExit { sweep: 0, phase: p },
            ));
            t += 25;
        }
        evs.push(TraceEvent::new(
            t,
            n,
            TraceKind::FiberRetire { slot: 0, exec: 9 },
        ));
    }
    evs.push(TraceEvent::new(
        1,
        trace::RUN_NODE,
        TraceKind::RecoveryRung { attempt: 0 },
    ));
    evs
}

#[test]
fn exporter_output_passes_the_validator() {
    let events = synthetic_run(4, 3);
    let json = chrome_trace_json(&events);
    let n = validate_chrome_trace(&json).expect("exporter must emit valid trace_event JSON");
    assert!(n > 0, "expected events in the document");
}

#[test]
fn validator_counts_match_expectations() {
    // One node, one phase, no copy loop: a single X span + instants.
    let events = vec![
        TraceEvent::new(0, 0, TraceKind::PhaseEnter { sweep: 0, phase: 0 }),
        TraceEvent::new(
            3,
            0,
            TraceKind::Sync {
                to_node: 0,
                slot: 1,
            },
        ),
        TraceEvent::new(8, 0, TraceKind::PhaseExit { sweep: 0, phase: 0 }),
    ];
    let json = chrome_trace_json(&events);
    assert_eq!(validate_chrome_trace(&json), Ok(2));
}

#[test]
fn corrupted_documents_are_rejected() {
    let json = chrome_trace_json(&synthetic_run(2, 1));
    // Truncate mid-document.
    let cut = &json[..json.len() / 2];
    assert!(validate_chrome_trace(cut).is_err());
    // Break the required ph field.
    let broken = json.replace("\"ph\":\"X\"", "\"ph\":\"\"");
    assert!(validate_chrome_trace(&broken).is_err());
}
