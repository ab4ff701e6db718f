//! Output checks on simulated iterations.

use tictac_core::{ExecutionTrace, Graph};

/// Checks one iteration's trace against its deployed graph:
///
/// * the trace covers the graph, and the ops it executed are exactly the
///   share `goodput_pct` reports (100% unless a degraded barrier deferred
///   work under faults);
/// * every executed op starts no earlier than the end of each of its
///   predecessors, and no predecessor of an executed op was skipped
///   (a send predecessor is traced over its transfer's wire interval, so
///   the transfer's recv must carry exactly that interval).
///
/// # Errors
///
/// A description of the first violation found.
pub fn check_trace(graph: &Graph, trace: &ExecutionTrace, goodput_pct: f64) -> Result<(), String> {
    if trace.len() != graph.len() {
        return Err(format!(
            "trace has {} op slots for a {}-op graph",
            trace.len(),
            graph.len()
        ));
    }
    let executed = trace.executed_ops();
    let expected = if graph.is_empty() {
        100.0
    } else {
        100.0 * executed as f64 / graph.len() as f64
    };
    if expected != goodput_pct {
        return Err(format!(
            "{executed}/{} ops executed, but goodput reads {goodput_pct}%",
            graph.len()
        ));
    }
    for op in graph.op_ids() {
        let Some(rec) = trace.record(op) else {
            continue;
        };
        if rec.end < rec.start {
            return Err(format!("op {} ends before it starts", graph.op_name(op)));
        }
        for &pred in graph.preds(op) {
            match trace.record(pred) {
                None => {
                    return Err(format!(
                        "op {} ran although its predecessor {} did not",
                        graph.op_name(op),
                        graph.op_name(pred)
                    ))
                }
                // A send is traced over the wire interval of the transfer
                // it hands off, which its recv shares.
                Some(p) if graph.op(pred).kind().is_send() => {
                    if p != rec {
                        return Err(format!(
                            "transfer {} does not share its send's wire interval",
                            graph.op_name(op)
                        ));
                    }
                }
                Some(p) if p.end > rec.start => {
                    return Err(format!(
                        "op {} starts at {:?}, before its predecessor {} ends at {:?}",
                        graph.op_name(op),
                        rec.start,
                        graph.op_name(pred),
                        p.end
                    ))
                }
                Some(_) => {}
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tictac_core::{
        deploy, no_ordering, simulate, tiny_mlp, ClusterSpec, Mode, OpId, SimConfig, SimDuration,
        TraceBuilder,
    };

    #[test]
    fn accepts_a_simulated_trace_and_rejects_a_corrupted_one() {
        let deployed = deploy(&tiny_mlp(Mode::Training, 8), &ClusterSpec::new(2, 1)).unwrap();
        let graph = deployed.graph();
        let trace = simulate(graph, &no_ordering(graph), &SimConfig::cloud_gpu(), 0);
        check_trace(graph, &trace, 100.0).expect("a simulated trace passes");
        assert!(
            check_trace(graph, &trace, 99.0).is_err(),
            "goodput must match"
        );

        // Move one op so it starts before a (non-send) predecessor ends;
        // everything else is copied unchanged.
        let timed_pred = |p: OpId| {
            !graph.op(p).kind().is_send() && !trace.record(p).unwrap().duration().is_zero()
        };
        let victim = graph
            .op_ids()
            .find(|&op| {
                !graph.op(op).kind().is_recv() && graph.preds(op).iter().any(|&p| timed_pred(p))
            })
            .expect("some op waits on a timed predecessor");
        let pred_start = graph
            .preds(victim)
            .iter()
            .filter(|&&p| timed_pred(p))
            .map(|&p| trace.record(p).unwrap().start)
            .min()
            .unwrap();
        let mut corrupted = TraceBuilder::new(graph.len());
        for op in graph.op_ids() {
            let rec = trace.record(op).unwrap();
            if op == victim {
                let len = rec.duration();
                corrupted.record(
                    op,
                    pred_start,
                    pred_start + len + SimDuration::from_nanos(1),
                );
            } else {
                corrupted.record(op, rec.start, rec.end);
            }
        }
        let err = check_trace(graph, &corrupted.finish(), 100.0).unwrap_err();
        assert!(err.contains("before its predecessor"), "{err}");
    }
}
